"""Bit-equivalence of the engine's NumPy kernels against the reference walk.

:class:`SpmspmEngine` runs every layer through the kernels of
:mod:`repro.engine_vec`; :class:`ReferenceEngine` keeps the per-batch
Python walk as the oracle.  The kernels promise *equality*, not
approximation: for any operands, dataflow and configuration, the full
:class:`LayerSimResult` — exact float cycle sums, traffic, cache and DRAM
counters — must match the walk.  This suite sweeps randomized
sparsities/shapes/seeds across all six dataflows and several cache
geometries (including degenerate single-set caches), cross-checks the
batched LRU model, whole and in chunks, against the per-line reference
cache, and compares a whole layer-wise figure grid computed both ways.
It also checks that configurations which share a memoized stream record
price it into the records fresh operands give, and that they do share it.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from oracles.cache import StreamingCache
from oracles.reference_engine import ReferenceEngine
from repro.accelerators.engine import SpmspmEngine
from repro.arch.config import AcceleratorConfig, DramConfig, default_config
from repro.dataflows.base import Dataflow, DataflowClass
from repro.dse.designs import BUILTIN_DESIGN_POINTS, get_design_point
from repro.engine_vec.cache_model import lru_hits, prefix_rank_leq
from repro.engine_vec import kernels
from repro.sparse.formats import csr_from_dense, matrix_from_arrays
from repro.sparse.generate import SparsityPattern, random_sparse

# ----------------------------------------------------------------------
# Property-style sweep: random layers x dataflows x geometries
# ----------------------------------------------------------------------
#: Cache/datapath geometries, including the degenerate shapes the scaling
#: policy produces (tiny single-set caches, narrow datapaths).
CONFIGS = [
    default_config(),
    default_config(
        num_multipliers=8,
        str_cache_bytes=2048,  # 16 lines, 16-way => a single set
        psram_bytes=2048,
    ),
    default_config(
        num_multipliers=16,
        distribution_bandwidth=4,
        reduction_bandwidth=4,
        str_cache_bytes=4096,
        str_cache_line_bytes=64,
        str_cache_associativity=4,
        psram_bytes=4096,
        psram_block_bytes=64,
    ),
    # Degenerate datapaths: with one multiplier the merge tree clamps to two
    # leaves and every non-empty fiber is longer than the array; two give the
    # smallest real tree, so multi-pass merges are the common case.
    default_config(num_multipliers=1),
    default_config(num_multipliers=2),
]

#: (m, k, n, density_a, density_b, pattern, seed) grid; chosen to cover
#: empty operands, fibers longer than the array, PSRAM spills and both
#: fits/thrashes cache regimes.
LAYER_CASES = [
    (1, 1, 1, 1.0, 1.0, SparsityPattern.UNIFORM, 0),
    (5, 7, 3, 0.0, 0.5, SparsityPattern.UNIFORM, 1),
    (16, 16, 16, 0.3, 0.3, SparsityPattern.UNIFORM, 2),
    (40, 64, 24, 0.12, 0.4, SparsityPattern.ROW_SKEWED, 3),
    (64, 48, 64, 0.5, 0.08, SparsityPattern.BANDED, 4),
    (30, 200, 20, 0.25, 0.25, SparsityPattern.UNIFORM, 5),
    (128, 32, 96, 0.06, 0.6, SparsityPattern.BLOCK, 6),
    (80, 80, 80, 0.45, 0.45, SparsityPattern.UNIFORM, 7),
]


def _make_pair(case):
    m, k, n, da, db, pattern, seed = case
    a = random_sparse(m, k, da, pattern=pattern, seed=seed)
    b = random_sparse(k, n, db, pattern=pattern, seed=seed + 1000)
    return a, b


def _assert_results_equal(reference, vectorized, context):
    __tracebackhide__ = True
    assert reference.cycles == vectorized.cycles, context
    assert reference.traffic == vectorized.traffic, context
    assert reference.stats == vectorized.stats, context
    assert reference.dram == vectorized.dram, context
    assert reference.str_cache_accesses == vectorized.str_cache_accesses, context
    assert reference.str_cache_miss_rate == vectorized.str_cache_miss_rate, context
    assert reference == vectorized, context


@pytest.mark.parametrize("case", LAYER_CASES, ids=lambda c: f"{c[0]}x{c[1]}x{c[2]}s{c[6]}")
def test_backends_bit_equal_across_dataflows_and_geometries(case):
    a, b = _make_pair(case)
    for config in CONFIGS:
        reference = ReferenceEngine(config)
        vectorized = SpmspmEngine(config)
        for dataflow in Dataflow:
            r = reference.run_layer(dataflow, a, b)
            v = vectorized.run_layer(dataflow, a, b)
            _assert_results_equal(r, v, (dataflow, config.num_multipliers))


def test_vectorized_handles_empty_operands():
    a = csr_from_dense(np.zeros((4, 6)))
    b = csr_from_dense(np.zeros((6, 5)))
    for dataflow in Dataflow:
        r = ReferenceEngine(CONFIGS[0]).run_layer(dataflow, a, b)
        v = SpmspmEngine(CONFIGS[0]).run_layer(dataflow, a, b)
        _assert_results_equal(r, v, dataflow)
        assert v.total_cycles == r.total_cycles


# ----------------------------------------------------------------------
# The batched LRU model against the reference per-line cache
# ----------------------------------------------------------------------
def test_batched_lru_matches_streaming_cache_on_random_traces(monkeypatch):
    rng = np.random.default_rng(7)
    caps = np.random.default_rng(8)
    for _ in range(200):
        num_sets = int(rng.choice([1, 2, 4, 8, 64]))
        ways = int(rng.choice([1, 2, 4, 16]))
        line_bytes = 128
        cache = StreamingCache(num_sets * ways * line_bytes, line_bytes, ways)
        n = int(rng.integers(1, 300))
        lines = rng.integers(0, int(rng.integers(1, 200)), size=n).astype(np.int64)
        walked = np.array([cache.access_byte(int(l) * line_bytes) for l in lines])
        assert np.array_equal(walked, lru_hits(lines, num_sets, ways))
        # Once more in chunks of a small cap, each line its own span.
        cap = int(caps.integers(1, 50))
        monkeypatch.setattr(kernels, "_MAX_TRACE_LINES", cap)
        misses = kernels._span_misses(lines, np.ones(n, dtype=np.int64), num_sets, ways)
        assert np.array_equal(walked, misses == 0), cap


def test_batched_lru_matches_fiber_touch_walk():
    """Span-shaped traces (whole-fiber touches), as the engine produces them."""
    from oracles.streaming import StreamingTileReader
    from repro.engine_vec.cache_model import expand_spans, fiber_line_spans

    rng = np.random.default_rng(11)
    b = random_sparse(64, 96, 0.3, seed=3)
    config = default_config(str_cache_bytes=4096, str_cache_line_bytes=64,
                            str_cache_associativity=4, num_multipliers=8,
                            psram_bytes=2048, psram_block_bytes=64)
    cache = StreamingCache(
        config.str_cache_bytes, config.str_cache_line_bytes,
        config.str_cache_associativity, element_bytes=config.element_bytes,
    )
    reader = StreamingTileReader(b, cache)
    fibers = rng.integers(0, b.major_dim, size=500)
    nnz = np.diff(b.pointers)[fibers]
    active = nnz > 0
    walked = np.array([reader.touch_fiber(int(f)) for f in fibers[active]])

    first, counts = fiber_line_spans(
        b.pointers[fibers[active]], nnz[active],
        config.element_bytes, config.str_cache_line_bytes,
    )
    lines, span_of = expand_spans(first, counts)
    hits = lru_hits(lines, cache.num_sets, config.str_cache_associativity)
    batched = np.bincount(span_of[~hits], minlength=len(first))
    assert np.array_equal(walked, batched)
    # Per-element stats credit: accesses = elements touched, hits fill in.
    assert cache.stats.accesses == int(nnz[active].sum())
    assert cache.stats.misses == int(batched.sum())
    assert cache.stats.miss_bytes == cache.stats.misses * config.str_cache_line_bytes


def _count_lru_calls(monkeypatch) -> list[int]:
    """Record the trace length of every ``kernels.lru_hits`` call."""
    traces = []
    lru = kernels.lru_hits

    def counted(lines, num_sets, associativity):
        traces.append(len(lines))
        return lru(lines, num_sets, associativity)

    monkeypatch.setattr(kernels, "lru_hits", counted)
    return traces


@pytest.mark.parametrize("cap", [1, 7, 64])
def test_chunked_lru_traces_match_the_walk(monkeypatch, cap):
    """Traces over the cap resolve in chunks, with the walk's records.

    A 1-line cap makes every multi-line touch longer than a chunk, 7 puts
    chunk boundaries inside touches, and 64 holds several touches per chunk.
    Both operands overflow the single-set cache, so its four runs take the
    LRU path; under ``default_config()`` every operand fits and none does.
    """
    monkeypatch.setattr(kernels, "_MAX_TRACE_LINES", cap)
    traces = _count_lru_calls(monkeypatch)
    a, b = _make_pair(LAYER_CASES[5])
    for config in CONFIGS[:2]:
        for dataflow in (Dataflow.OP_M, Dataflow.OP_N, Dataflow.GUST_M, Dataflow.GUST_N):
            r = ReferenceEngine(config).run_layer(dataflow, a, b)
            v = SpmspmEngine(config).run_layer(dataflow, a, b)
            _assert_results_equal(r, v, ("chunked", cap, dataflow))
    # More traces than runs, none longer than the resident lines plus a chunk.
    assert len(traces) > 4
    assert max(traces) <= 16 + cap


def _operand_of(nnz: int, shape: tuple[int, int], seed: int):
    """A CSR operand with exactly ``nnz`` stored elements."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(shape[0] * shape[1], size=nnz, replace=False)
    rows, cols = np.divmod(flat, shape[1])
    return matrix_from_arrays(*shape, rows, cols)


@pytest.mark.parametrize("over", [0, 1], ids=["fits", "one-line-over"])
@pytest.mark.parametrize("config", CONFIGS[1:3], ids=["one-set", "16-set"])
def test_the_fits_boundary_picks_the_path_and_keeps_the_walks_records(
    monkeypatch, config, over
):
    """A streaming operand of exactly ``sets x ways`` lines takes the
    compulsory-miss path; one line longer, the LRU model.  Both match the
    walk.  The N-stationary runs stream A, the M-stationary ones B, so both
    operands get the same size."""
    traces = _count_lru_calls(monkeypatch)
    capacity = config.str_cache_sets * config.str_cache_associativity
    per_line = config.str_cache_line_bytes // config.element_bytes
    nnz = capacity * per_line + over  # one more element opens one more line
    a = _operand_of(nnz, (48, 48), seed=1)
    b = _operand_of(nnz, (48, 48), seed=2)
    for dataflow in (Dataflow.OP_M, Dataflow.OP_N, Dataflow.GUST_M, Dataflow.GUST_N):
        before = len(traces)
        r = ReferenceEngine(config).run_layer(dataflow, a, b)
        v = SpmspmEngine(config).run_layer(dataflow, a, b)
        _assert_results_equal(r, v, ("fits boundary", over, dataflow))
        assert len(traces) - before == over, dataflow


def _brute_prefix_rank(values: np.ndarray, positions) -> np.ndarray:
    return np.array(
        [np.count_nonzero(values[:i] <= values[i]) for i in positions], dtype=np.int64
    )


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, *(2**k + d for k in (2, 3, 5, 9) for d in (-1, 1))]
)
def test_prefix_rank_leq_matches_a_brute_force_count(n):
    rng = np.random.default_rng(n)
    for high in (0, min(2, n), n):  # all first accesses, many ties, the full range
        values = rng.integers(-1, high, size=n)
        assert np.array_equal(
            prefix_rank_leq(values), _brute_prefix_rank(values, range(n))
        ), high


def test_prefix_rank_leq_holds_past_two_to_the_21():
    """One length above ``2**21``, checked at the merge tree's block
    boundaries and at random positions."""
    n = 2**21 + 3
    rng = np.random.default_rng(21)
    values = rng.integers(-1, n, size=n)
    edges = [0, 1, 2, 2**20 - 1, 2**20, 2**20 + 1, 2**21 - 1, 2**21, n - 1]
    positions = np.concatenate((edges, rng.integers(0, n, size=24)))
    got = prefix_rank_leq(values)[positions]
    assert np.array_equal(got, _brute_prefix_rank(values, positions))


@pytest.mark.parametrize("terms", [0, 1, 2, 10**5])
def test_ordered_sum_adds_like_the_loop(terms):
    rng = np.random.default_rng(terms)
    values = rng.normal(size=terms) * 10.0 ** rng.integers(-8, 9, size=terms)
    for initial in (0.0, float(rng.normal()) * 1e6):
        total = initial
        for value in values.tolist():
            total += value
        got = kernels.ordered_sum(values, initial)
        assert type(got) is float
        assert got.hex() == total.hex(), initial


#: Cases of the union count: ``(minor_dim, stored coordinates per B fiber
#: (one count, or a range), the path the call must take, the pair-path
#: cost to force it with (None: the call's own sizes), the block size)``.
_UNION_CASES = [
    pytest.param(70, (0, 28), "words", None, None, id="dense-words"),
    pytest.param(4000, (0, 4), "pairs", None, None, id="sparse-pairs"),
    # With one coordinate per fiber, 512 columns (8 words a fiber) put the
    # call exactly at the crossover, words = 4 x (pairs + fibers); 513
    # columns (9 words) put it past.
    pytest.param(512, 1, "words", None, None, id="at-crossover-words"),
    pytest.param(513, 1, "pairs", None, None, id="past-crossover-pairs"),
    *[
        pytest.param(minor_dim, (1, 2 * minor_dim // 3 + 1), path, cost, None,
                     id=f"minor{minor_dim}-{path}")
        for minor_dim in (1, 63, 64, 65, 130)
        for path, cost in (("words", 10**9), ("pairs", 0))
    ],
    pytest.param(130, (0, 40), "words", None, 60, id="blocks-words"),
    pytest.param(4000, (0, 4), "pairs", None, 40, id="blocks-pairs"),
]


@pytest.mark.parametrize(("minor_dim", "stored", "path", "cost", "block"), _UNION_CASES)
def test_grouped_union_counts_match_per_group_set_unions(
    monkeypatch, minor_dim, stored, path, cost, block
):
    rng = np.random.default_rng(minor_dim)
    k_dim, nk, num_groups = 40, 1200, 300
    empty_groups = [3, num_groups - 1]
    if isinstance(stored, int):
        fiber_nnz = np.full(k_dim, stored)
    else:
        fiber_nnz = rng.integers(stored[0], stored[1] + 1, size=k_dim)
        fiber_nnz[[0, 7, 8]] = 0  # empty fibers
    b_pointers = np.concatenate(([0], np.cumsum(fiber_nnz))).astype(np.int64)
    b_indices = np.concatenate(
        [np.sort(rng.choice(minor_dim, n, replace=False)) for n in fiber_nnz]
    ).astype(np.int64)
    ks = rng.integers(0, k_dim, size=nk).astype(np.int64)
    # Two groups (one the last) hold no k, and a group may list a fiber
    # twice.  Skewed sizes: a block holds one large group or several small.
    present = [g for g in range(num_groups) if g not in empty_groups]
    weights = 1.0 / np.sqrt(np.arange(1, len(present) + 1))
    groups = np.sort(rng.choice(present, size=nk, p=weights / weights.sum()))
    args = (b_indices, b_pointers, ks, groups.astype(np.int64), num_groups, minor_dim)

    if cost is not None:
        monkeypatch.setattr(kernels, "_PAIR_COST_IN_WORDS", cost)
    if block is not None:
        monkeypatch.setattr(kernels, "_UNION_BLOCK", block)
    taken = []
    for name, label in (("_word_unions", "words"), ("_pair_unions", "pairs")):
        def spy(*spy_args, _run=getattr(kernels, name), _label=label):
            taken.append(_label)
            return _run(*spy_args)
        monkeypatch.setattr(kernels, name, spy)

    per_group = kernels.grouped_union_counts(*args)
    per_group_too, per_minor = kernels.grouped_union_counts(*args, minor_counts=True)
    assert taken == [path, path]
    # Against a straightforward per-group set union.
    expected = np.zeros(num_groups, dtype=np.int64)
    expected_minor = np.zeros(minor_dim, dtype=np.int64)
    for g in range(num_groups):
        cols = set()
        for k in ks[groups == g].tolist():
            cols.update(b_indices[b_pointers[k]:b_pointers[k + 1]].tolist())
        expected[g] = len(cols)
        expected_minor[sorted(cols)] += 1
    assert expected[empty_groups].tolist() == [0, 0]
    if minor_dim == 1:  # more groups share the column than a uint8 counts
        assert expected_minor[0] > 255
    for got, want in ((per_group, expected), (per_group_too, expected), (per_minor, expected_minor)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Array forms of the packing and merge models against their loops
# ----------------------------------------------------------------------
def test_fiber_packing_matches_the_greedy_loop():
    from oracles.reference_engine import _pack_whole_fibers
    from repro.sparse.formats import CompressedMatrix, Layout

    rng = np.random.default_rng(13)
    for trial in range(600):
        num_multipliers = int(rng.integers(1, 12))
        lengths = rng.integers(0, 3 * num_multipliers + 2, size=int(rng.integers(0, 40)))
        lengths[rng.random(len(lengths)) < 0.3] = 0  # empty fibers
        pointers = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        nnz = int(pointers[-1])
        matrix = CompressedMatrix(
            len(lengths), 1, Layout.CSR, pointers,
            np.zeros(nnz, dtype=np.int64), validate=False,
        )
        batches = _pack_whole_fibers(matrix, num_multipliers)
        want = [
            [entry[field] for batch in batches for entry in batch] for field in range(3)
        ]
        want.append([b for b, batch in enumerate(batches) for _ in batch])
        *got, nb = kernels.pack_fiber_batches(pointers, num_multipliers)
        assert nb == len(batches), trial
        for want_field, got_field in zip(want, got):
            assert np.array_equal(np.asarray(want_field, dtype=np.int64), got_field), trial


def test_merge_model_matches_the_row_loop():
    """The array merge, priced by ``OpMerge.price``, against the row loop."""
    a, b = _make_pair(LAYER_CASES[2])
    rng = np.random.default_rng(17)
    for trial in range(400):
        config = default_config(
            num_multipliers=int(rng.choice([1, 2, 3, 8, 64])),
            psram_bytes=int(rng.choice([2048, 1 << 20])),
        )
        engine = SpmspmEngine(config)
        num_rows = int(rng.integers(1, 12))
        n = int(rng.integers(0, 200))
        psum_rows = rng.integers(0, num_rows, size=n).astype(np.int64)
        psum_lens = rng.integers(0, int(rng.choice([1, 4, 60])), size=n).astype(np.int64)
        c_row_nnz = rng.integers(0, 80, size=num_rows).astype(np.int64)
        outcomes = []
        for vectorized in (False, True):
            ctx = engine._build_context(Dataflow.OP_M, a, b)
            ctx.c_row_nnz = c_row_nnz
            if vectorized:
                merge = SpmspmEngine._merge_partial_fibers(engine, ctx, psum_rows, psum_lens)
                if merge is not None:
                    merge.price(ctx)
            else:
                ReferenceEngine._merge_partial_fibers(engine, ctx, psum_rows, psum_lens)
            outcomes.append((ctx.stats, ctx.traffic, ctx.cycles, ctx.dram.traffic))
        assert outcomes[0] == outcomes[1], trial


# ----------------------------------------------------------------------
# The settings record still carries the retired engine choice
# ----------------------------------------------------------------------
def test_settings_record_without_engine_defaults():
    from repro.experiments.settings import ExperimentSettings

    record = ExperimentSettings().to_record()
    assert record["engine"] == "vectorized"
    for engine in ("reference", "vectorized", None):
        variant = {key: value for key, value in record.items() if key != "engine"}
        if engine is not None:
            variant["engine"] = engine
        assert ExperimentSettings.from_record(variant) == ExperimentSettings(), engine


# ----------------------------------------------------------------------
# miss_bytes satellite
# ----------------------------------------------------------------------
def test_cache_stats_miss_bytes_is_a_real_field():
    from repro.engine_vec.cache_model import CacheStats

    stats = CacheStats()
    assert stats.miss_bytes == 0
    cache = StreamingCache(1024, 128, 2)
    cache.access_byte(0)
    cache.access_byte(1)  # same line: hit
    cache.access_byte(4096)
    assert cache.stats.misses == 2
    assert cache.stats.miss_bytes == 2 * 128
    assert CacheStats(misses=3, miss_bytes=5).miss_bytes == 5


@pytest.mark.parametrize(
    "engine_class", [ReferenceEngine, SpmspmEngine], ids=["reference", "vectorized"]
)
def test_engine_accounts_inner_product_miss_bytes(engine_class):
    a, b = _make_pair(LAYER_CASES[2])
    config = CONFIGS[1]  # tiny cache: IP re-streams and thrashes
    engine = engine_class(config)
    ctx = engine._build_context(Dataflow.IP_M, a, b)
    engine._run_kernel(Dataflow.IP_M, ctx)
    assert ctx.cache_stats.miss_bytes == ctx.cache_stats.misses * config.str_cache_line_bytes
    assert ctx.cache_stats.miss_bytes == ctx.dram.traffic.str_read_bytes


# ----------------------------------------------------------------------
# End-to-end: a figure grid computed by the kernels and the walk is identical
# ----------------------------------------------------------------------
def test_layerwise_grid_equal_under_both_backends(monkeypatch):
    from repro.api import Session
    from repro.experiments.settings import default_settings

    settings = default_settings(max_dense_macs=2e4, max_layers_per_model=1)

    def grid():
        # Serial and uncached: every engine run executes in this process,
        # so patching the class reaches all of them.
        return Session(settings, parallel=False, cache=None).layerwise()

    vec = grid()
    monkeypatch.setattr(SpmspmEngine, "_run_kernel", ReferenceEngine._run_kernel)
    ref = grid()
    assert ref.scales == vec.scales
    for layer, per_design in ref.results.items():
        for design, result in per_design.items():
            other = vec.results[layer][design]
            _assert_results_equal(result, other, (layer, design))


# ----------------------------------------------------------------------
# Shared stream records: exact, and actually shared
# ----------------------------------------------------------------------
#: One change per field of the Table 5 configuration.  Every field the
#: engine reads must change the records of the operands below.
PERTURBATIONS = {
    "num_multipliers": {"num_multipliers": 32, "num_adders": 31},
    "distribution_bandwidth": {"distribution_bandwidth": 4},
    "reduction_bandwidth": {"reduction_bandwidth": 4},
    "word_bits": {"word_bits": 64},
    "l1_latency_cycles": {"l1_latency_cycles": 2},
    "sta_fifo_bytes": {"sta_fifo_bytes": 512},
    "str_cache_bytes": {"str_cache_bytes": 256 * 1024},
    "str_cache_line_bytes": {"str_cache_line_bytes": 64},
    "str_cache_associativity": {"str_cache_associativity": 4},
    "str_cache_banks": {"str_cache_banks": 8},
    "psram_bytes": {"psram_bytes": 512 * 1024},
    "psram_block_bytes": {"psram_block_bytes": 64},
    "psram_banks": {"psram_banks": 8},
    "write_buffer_bytes": {"write_buffer_bytes": 1024},
    "dram_outstanding_misses": {"dram_outstanding_misses": 2},
    "frequency_hz": {"frequency_hz": 1e9},
    "dram.access_time_ns": {"dram": DramConfig(access_time_ns=25.0)},
    "dram.bandwidth_bytes_per_s": {"dram": DramConfig(bandwidth_bytes_per_s=64e9)},
    "dram.size_bytes": {"dram": DramConfig(size_bytes=8 * 1024**3)},
}

#: Fields no model of the engine reads (``num_adders`` is fixed by
#: ``num_multipliers`` and moves with it above).
UNREAD = {
    "l1_latency_cycles",
    "sta_fifo_bytes",
    "str_cache_banks",
    "psram_banks",
    "write_buffer_bytes",
    "dram.size_bytes",
}


def _sharing_pair():
    """Operands whose streaming matrix outgrows the 1 MiB Table 5 cache, so
    its size, lines and ways all matter; their OP merge spills the PSRAM."""
    a = random_sparse(32, 512, 0.05, pattern=SparsityPattern.ROW_SKEWED, seed=21)
    b = random_sparse(512, 2048, 0.45, pattern=SparsityPattern.ROW_SKEWED, seed=22)
    return a, b


def _six(config, a, b):
    engine = SpmspmEngine(config)
    return [engine.run_layer(dataflow, a, b) for dataflow in Dataflow]


def test_shared_stream_records_price_like_fresh_operands():
    """Every built-in design point and every one-field change of ``base``,
    run over one operand pair (each stream record computed once and shared
    by whichever configurations its key admits), equals the same run over
    fresh copies of the operands, whose memo is cold."""
    names = {spec.name for spec in fields(AcceleratorConfig)} - {"num_adders", "dram"}
    names |= {f"dram.{spec.name}" for spec in fields(DramConfig)}
    assert set(PERTURBATIONS) == names  # a new config field needs a change here
    base = get_design_point("base").config
    shared_a, shared_b = _sharing_pair()
    base_records = _six(base, shared_a, shared_b)
    configs = [(point.name, point.config) for point in BUILTIN_DESIGN_POINTS]
    configs += [(name, replace(base, **change)) for name, change in PERTURBATIONS.items()]
    for name, config in configs:
        shared = _six(config, shared_a, shared_b)
        fresh = _six(config, *_sharing_pair())
        for dataflow, got, want in zip(Dataflow, shared, fresh):
            _assert_results_equal(want, got, (name, dataflow))
        if name in PERTURBATIONS:
            moved = shared != base_records
            assert moved == (name not in UNREAD), name


def test_one_stream_pass_per_stream_class(monkeypatch):
    """``base`` and ``3d-x2`` differ in DRAM only, the two ``mem-c256k``
    points in PSRAM only: two stream passes per dataflow serve all four."""
    calls = {kind: 0 for kind in DataflowClass}
    for kind, name in (
        (DataflowClass.INNER_PRODUCT, "run_inner_product"),
        (DataflowClass.OUTER_PRODUCT, "run_outer_product"),
        (DataflowClass.GUSTAVSON, "run_gustavson"),
    ):
        def counted(engine, ctx, kernel=getattr(kernels, name), kind=kind):
            calls[kind] += 1
            return kernel(engine, ctx)

        monkeypatch.setattr(kernels, name, counted)
    configs = [
        get_design_point(name).config
        for name in ("base", "3d-x2", "mem-c256k-p128k", "mem-c256k-p512k")
    ]
    a, b = _make_pair(LAYER_CASES[7])
    for dataflow in Dataflow:
        for config in configs:
            SpmspmEngine(config).run_layer(dataflow, a, b)
        assert calls[dataflow.dataflow_class] == 2 * (1 + dataflow.is_n_stationary), dataflow
