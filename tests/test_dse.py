"""Tests of the design-space-exploration subsystem (``repro.dse``).

Covers the subsystem's four contracts:

* **MatrixMarket loader** — 1-based coordinate indexing, symmetric mirror
  expansion, pattern-only files, CRLF/comment tolerance, which positions
  are entries (matrices store positions, no values), and the failure
  mode: every corrupt file raises :class:`MatrixMarketError` naming the
  offending ``file:line``, and the size-line bounds reject oversized files
  before any entry is read.
* **Registries** — workloads and design points resolve by name with
  self-describing errors; matrix workload digests derive from content, not
  paths; ``REPRO_DSE_DIR`` auto-registers dropped ``*.mtx`` files.
* **Determinism** — the same campaign renders byte-identical Pareto
  reports across fresh sessions, the second run executing zero engine
  jobs, locally and through the remote fabric with a real worker loop.
* **Surfaces** — ``POST /v1/dse`` + ``GET /v1/dse/<key>`` lifecycle, the
  ``cache prune --prefix`` eviction scope, and the sweep CLI's DSE hints.
"""

from __future__ import annotations

import json

import pytest

from fabric_chaos import worker_fleet
from oracles.values import positions
from repro.api import Session, SweepSpec
from repro.cli import main as cli_main
from repro.dse import designs as designs_module
from repro.dse import workloads as workloads_module
from repro.dse.designs import (
    BUILTIN_DESIGN_POINTS,
    default_design_points,
    enumerate_designs,
    get_design_point,
)
from repro.dse.explore import DseSpec, _pareto_front, dse_report_key
from repro.dse.workloads import (
    MatrixMarketError,
    get_workload,
    load_matrix_market,
    matrix_workload,
    register_workload,
    transformer_pruning,
    workload_names,
)
from repro.experiments.settings import default_settings
from repro.fabric import Coordinator, WorkQueue, reset_shared_fabric, set_shared_coordinator
from repro.runtime import BatchRunner, ResultCache
from repro.serve import BackgroundServer

from test_serve import poll_job, request

#: Same micro budgets as tests/test_serve.py: synthetic workloads scale to
#: a 5e4-MAC budget, so every campaign grid stays sub-second.
MICRO = default_settings(max_dense_macs=5e4, max_layers_per_model=1)

#: The determinism workload: 1 workload x 2 design points = 2 engine jobs.
CAMPAIGN = DseSpec(workloads=("xf-prune-80",), designs=("base", "xbar16"))


def micro_session(cache_dir, **runner_kwargs) -> Session:
    kwargs = dict(parallel=False, cache=ResultCache(cache_dir))
    kwargs.update(runner_kwargs)
    return Session(MICRO, runner=BatchRunner(**kwargs))


def write_mtx(directory, text: str, name: str = "test.mtx", newline: str = "\n"):
    """Write a MatrixMarket file from ``text`` (one entry per ``|``-free line)."""
    lines = [line.strip() for line in text.strip().splitlines()]
    path = directory / name
    path.write_bytes((newline.join(lines) + newline).encode())
    return path


@pytest.fixture(autouse=True)
def _registry_hygiene():
    """Tests register throwaway workloads; never leak them into the catalog.

    ``/v1/figures`` and ``list --json`` render the registry into a
    golden-pinned catalog, so a leaked registration here would fail
    ``tests/test_serve.py`` depending on execution order.
    """
    workloads_before = dict(workloads_module._REGISTRY)
    designs_before = dict(designs_module._REGISTRY)
    yield
    workloads_module._REGISTRY.clear()
    workloads_module._REGISTRY.update(workloads_before)
    designs_module._REGISTRY.clear()
    designs_module._REGISTRY.update(designs_before)


# ----------------------------------------------------------------------
# MatrixMarket parsing
# ----------------------------------------------------------------------
def stored(matrix) -> set[tuple[int, int]]:
    """The 0-based ``(row, col)`` positions a matrix stores."""
    rows, cols = positions(matrix)
    return set(zip(rows.tolist(), cols.tolist()))


class TestMatrixMarketParsing:
    def test_general_real_entries_are_one_based(self, tmp_path):
        path = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate real general
            3 4 3
            1 1 5.0
            3 4 -2.5
            2 2 1.5
            """,
        )
        matrix = load_matrix_market(path)
        assert matrix.shape == (3, 4)
        # File coordinates (1, 1), (3, 4) and (2, 2).
        assert stored(matrix) == {(0, 0), (2, 3), (1, 1)}
        assert matrix.nnz == 3

    def test_symmetric_mirrors_off_diagonal_only(self, tmp_path):
        path = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate real symmetric
            3 3 3
            1 1 4.0
            2 1 7.0
            3 2 9.0
            """,
        )
        matrix = load_matrix_market(path)
        assert stored(matrix) == {(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)}
        assert matrix.nnz == 5  # 3 stored + 2 mirrored: the diagonal once

    def test_pattern_entries_become_ones(self, tmp_path):
        path = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate pattern general
            2 2 2
            1 2
            2 1
            """,
        )
        assert stored(load_matrix_market(path)) == {(0, 1), (1, 0)}

    def test_crlf_line_endings_and_comments_parse(self, tmp_path):
        path = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate real general
            % a comment line
            2 2 1
            % another comment between size and entries
            1 2 3.0
            """,
            newline="\r\n",
        )
        assert stored(load_matrix_market(path)) == {(0, 1)}

    def test_duplicates_accumulate_and_explicit_zeros_drop(self, tmp_path):
        path = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate real general
            2 2 5
            1 2 2.0
            1 2 3.0
            2 2 0.0
            1 1 2.0
            1 1 -2.0
            """,
        )
        matrix = load_matrix_market(path)
        # The repeated (1, 2) is one entry; the explicit zero and the
        # cancelling pair at (1, 1) sum to 0.0 and are not stored.
        assert stored(matrix) == {(0, 1)}
        assert matrix.nnz == 1

    def test_zero_based_index_error_names_line_and_convention(self, tmp_path):
        path = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate real general
            2 2 1
            0 1 1.0
            """,
            name="zero.mtx",
        )
        with pytest.raises(MatrixMarketError, match=r"zero\.mtx:3: .*1-based"):
            load_matrix_market(path)

    def test_malformed_entry_error_names_line_number(self, tmp_path):
        path = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate real general
            2 2 2
            1 1 1.0
            2 2 not-a-number
            """,
            name="bad.mtx",
        )
        with pytest.raises(MatrixMarketError, match=r"bad\.mtx:4: malformed entry"):
            load_matrix_market(path)

    def test_wrong_field_count_is_rejected(self, tmp_path):
        path = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate pattern general
            2 2 1
            1 1 1.0
            """,
        )
        with pytest.raises(MatrixMarketError, match="expected 2 fields per entry"):
            load_matrix_market(path)

    def test_entry_count_must_match_declaration(self, tmp_path):
        short = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate real general
            2 2 2
            1 1 1.0
            """,
            name="short.mtx",
        )
        with pytest.raises(MatrixMarketError, match="declares 2 entries but provides 1"):
            load_matrix_market(short)
        long = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate real general
            2 2 1
            1 1 1.0
            2 2 1.0
            """,
            name="long.mtx",
        )
        with pytest.raises(MatrixMarketError, match="more entries than the declared 1"):
            load_matrix_market(long)

    @pytest.mark.parametrize(
        "header, fragment",
        [
            ("%%MatrixMarket matrix array real general", "coordinate"),
            ("%%MatrixMarket matrix coordinate complex general", "unsupported field"),
            ("%%MatrixMarket matrix coordinate real hermitian", "unsupported symmetry"),
            ("% not a MatrixMarket file", "missing '%%MatrixMarket' header"),
        ],
    )
    def test_unsupported_headers_are_rejected(self, tmp_path, header, fragment):
        path = write_mtx(tmp_path, f"{header}\n1 1 0")
        with pytest.raises(MatrixMarketError, match=f"test\\.mtx:1: .*{fragment}"):
            load_matrix_market(path)

    def test_size_bounds_reject_before_reading_entries(self, tmp_path):
        path = write_mtx(
            tmp_path,
            """
            %%MatrixMarket matrix coordinate real general
            10 10 3
            1 1 1.0
            2 2 1.0
            3 3 1.0
            """,
        )
        with pytest.raises(MatrixMarketError, match="REPRO_DSE_MAX_NNZ bound of 2"):
            load_matrix_market(path, max_nnz=2)
        with pytest.raises(MatrixMarketError, match="REPRO_DSE_MAX_DIM bound of 5"):
            load_matrix_market(path, max_dim=5)
        assert load_matrix_market(path, max_nnz=3, max_dim=10).nnz == 3


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
class TestWorkloadRegistry:
    def test_builtins_resolve_and_unknown_names_the_options(self):
        assert "xf-prune-80" in workload_names()
        assert get_workload("gnn-cora").kind == "synthetic"
        with pytest.raises(ValueError, match="unknown workload 'nope'.*xf-prune-80"):
            get_workload("nope")

    def test_conflicting_registration_raises_equal_is_noop(self):
        register_workload(transformer_pruning("xf-prune-80"))  # equal: no-op
        with pytest.raises(ValueError, match="already registered"):
            register_workload(transformer_pruning("xf-prune-80", seq_len=128))

    def test_matrix_digest_is_content_not_path(self, tmp_path):
        text = """
        %%MatrixMarket matrix coordinate real general
        2 2 2
        1 1 1.0
        2 2 2.0
        """
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = matrix_workload("w1", write_mtx(tmp_path / "a", text))
        second = matrix_workload("w2", write_mtx(tmp_path / "b", text, name="other.mtx"))
        assert first.digest() == second.digest()
        # Operands are structure: a value-only edit keeps the digest, a
        # moved position changes it.
        revalued = matrix_workload(
            "w3", write_mtx(tmp_path, text.replace("2.0", "3.0"), name="c.mtx")
        )
        assert revalued.digest() == first.digest()
        moved = matrix_workload(
            "w4", write_mtx(tmp_path, text.replace("2 2 2.0", "2 1 2.0"), name="d.mtx")
        )
        assert moved.digest() != first.digest()

    def test_square_matrix_squares_itself_rectangular_uses_transpose(self, tmp_path):
        square = matrix_workload(
            "sq",
            write_mtx(
                tmp_path,
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0",
                name="sq.mtx",
            ),
        )
        a, b = square.operands()
        assert a is b
        rect = matrix_workload(
            "rect",
            write_mtx(
                tmp_path,
                "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 3 1.0",
                name="rect.mtx",
            ),
        )
        a, b = rect.operands()
        assert a.shape == (2, 3) and b.shape == (3, 2)
        assert stored(b) == {(c, r) for r, c in stored(a)}

    def test_dse_dir_auto_registers_mtx_files_by_stem(self, tmp_path, monkeypatch):
        write_mtx(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0",
            name="webgraph.mtx",
        )
        monkeypatch.setenv("REPRO_DSE_DIR", str(tmp_path))
        assert "webgraph" in workload_names()
        workload = get_workload("webgraph")
        assert workload.kind == "matrix"
        assert workload.operands()[0].nnz == 1


class TestDesignRegistry:
    def test_families_enumerate_and_resolve(self):
        names = default_design_points()
        assert "base" in names
        assert {get_design_point(name).family for name in names} == {
            "baseline",
            "crossbar",
            "memory",
            "stacked",
        }
        crossbar = enumerate_designs(family="crossbar")
        assert [point.name for point in crossbar] == ["xbar16", "xbar32", "xbar128"]
        with pytest.raises(ValueError, match="unknown design point 'nope'.*base"):
            get_design_point("nope")

    def test_every_builtin_point_has_positive_area_and_power(self):
        for point in BUILTIN_DESIGN_POINTS:
            breakdown = point.area_power()
            assert breakdown.total_area > 0 and breakdown.total_power > 0

    def test_stacked_variants_scale_dram_latency_and_bandwidth(self):
        base = get_design_point("base").config.dram
        stacked = get_design_point("3d-x4").config.dram
        assert stacked.access_time_ns == pytest.approx(base.access_time_ns / 4)
        assert stacked.bandwidth_bytes_per_s == pytest.approx(
            base.bandwidth_bytes_per_s * 4
        )


# ----------------------------------------------------------------------
# DseSpec + report determinism
# ----------------------------------------------------------------------
class TestDseSpec:
    def test_validation_is_self_describing(self):
        with pytest.raises(ValueError, match="at least one workload.*xf-prune-80"):
            DseSpec()
        with pytest.raises(ValueError, match="unknown workload 'nope'"):
            DseSpec(workloads=("nope",))
        with pytest.raises(ValueError, match="unknown design point"):
            DseSpec(workloads=("xf-prune-80",), designs=("nope",))
        with pytest.raises(ValueError, match="scale must be positive"):
            DseSpec(workloads=("xf-prune-80",), scale=-1.0)

    def test_csv_and_tuple_forms_share_a_key(self):
        csv = DseSpec(workloads="xf-prune-80, gnn-cora", designs="base,xbar16")
        explicit = DseSpec(
            workloads=("xf-prune-80", "gnn-cora"), designs=("base", "xbar16")
        )
        assert csv == explicit
        assert csv.key() == explicit.key()

    def test_empty_designs_resolve_to_every_builtin_point(self):
        spec = DseSpec(workloads=("xf-prune-80",))
        assert spec.designs == default_design_points()

    def test_record_roundtrip_preserves_the_key(self):
        spec = CAMPAIGN
        assert DseSpec.from_record(spec.to_record()).key() == spec.key()

    def test_compile_never_scales_the_design_config(self):
        jobs, meta = CAMPAIGN.compile(MICRO)
        assert len(jobs) == 2 and len(meta) == 2
        for job, entry in zip(jobs, meta):
            assert job.config == get_design_point(entry["design_point"]).config
            assert 0 < job.scale < 1  # the operands DID scale to the MAC budget


class TestReportDeterminism:
    def test_same_campaign_twice_is_byte_identical_second_run_free(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = micro_session(cache_dir)
        first = cold.dse(CAMPAIGN)
        assert cold.runner.stats.executed == 2

        warm = micro_session(cache_dir)
        second = warm.dse(CAMPAIGN)
        assert warm.runner.stats.executed == 0
        assert second.to_json() == first.to_json()

        report_key = dse_report_key(CAMPAIGN, MICRO)
        assert report_key.startswith("dse-")
        blob = ResultCache(cache_dir).get_blob(report_key)
        assert blob == (first.to_json() + "\n").encode()

    def test_report_shape_and_frontier_consistency(self, tmp_path):
        result = micro_session(tmp_path / "c").dse(CAMPAIGN)
        assert {row["design_point"] for row in result.rows} == {"base", "xbar16"}
        assert all(row["cycles"] > 0 for row in result.rows)
        by_name = {point["design_point"]: point for point in result.points}
        assert by_name["base"]["area_mm2"] > by_name["xbar16"]["area_mm2"]
        for names in result.frontier.values():
            assert names and set(names) <= set(by_name)

    def test_pareto_front_keeps_only_nondominated_points(self):
        points = [
            {"design_point": "cheap-slow", "total_cycles": 100.0, "area_mm2": 1.0},
            {"design_point": "big-fast", "total_cycles": 10.0, "area_mm2": 5.0},
            {"design_point": "dominated", "total_cycles": 100.0, "area_mm2": 2.0},
            {"design_point": "mid", "total_cycles": 50.0, "area_mm2": 2.0},
        ]
        assert _pareto_front(points, "area_mm2") == ["big-fast", "mid", "cheap-slow"]

    def test_pareto_tie_break_is_deterministic(self):
        tied = [
            {"design_point": name, "total_cycles": 10.0, "area_mm2": 1.0}
            for name in ("zeta", "alpha")
        ]
        assert _pareto_front(tied, "area_mm2") == ["alpha"]


# ----------------------------------------------------------------------
# Remote fabric equivalence
# ----------------------------------------------------------------------
class TestFabricEquivalence:
    @pytest.fixture(autouse=True)
    def _fabric_hygiene(self):
        reset_shared_fabric()
        yield
        reset_shared_fabric()

    def test_remote_campaign_matches_local_bytes(self, tmp_path):
        """A synthetic campaign and a MatrixMarket one, whose jobs carry
        their operands across the wire, give the local bytes remotely."""
        text = """
        %%MatrixMarket matrix coordinate real general
        6 6 9
        1 1 1.0
        1 4 2.0
        2 2 3.0
        2 6 1.5
        3 1 -1.0
        4 5 2.5
        5 3 1.0
        6 2 4.0
        6 6 1.0
        """
        register_workload(matrix_workload("wire-mtx", write_mtx(tmp_path, text)))
        campaigns = (CAMPAIGN, DseSpec(workloads=("wire-mtx",), designs=("base", "xbar16")))
        local = [micro_session(tmp_path / "local").dse(campaign) for campaign in campaigns]

        queue = WorkQueue(lease_seconds=30.0)
        coordinator_dir = tmp_path / "coordinator"
        set_shared_coordinator(Coordinator(queue, cache=ResultCache(coordinator_dir)))
        session = Session(
            MICRO,
            runner=BatchRunner(
                parallel=True,
                max_workers=4,
                pool_mode="remote",
                cache=ResultCache(coordinator_dir),
            ),
        )
        with worker_fleet(queue, [{"cache_dir": tmp_path / "worker-0"}]):
            remote = [session.dse(campaign) for campaign in campaigns]
            executed_cold = session.runner.stats.executed
            warm = [session.dse(campaign) for campaign in campaigns]
        local_json = [result.to_json() for result in local]
        assert [result.to_json() for result in remote] == local_json
        assert executed_cold == 4
        # The warm pass answers from the coordinator cache: zero new
        # executions, zero new queue traffic, same bytes.
        assert [result.to_json() for result in warm] == local_json
        assert session.runner.stats.executed == executed_cold
        assert queue.snapshot()["outstanding"] == 0


# ----------------------------------------------------------------------
# Serving surface
# ----------------------------------------------------------------------
#: Per stored-body kind: a cold request and the jobs it executes.
LIFECYCLE = {
    "dse": (CAMPAIGN, 2),
    "sweep": (SweepSpec(layers=("A2",), designs=("SIGMA-like", "GAMMA-like"), scale=0.05), 2),
}


def cold_post_then_warm_get_by_key(tmp_path, kind):
    spec, executed = LIFECYCLE[kind]
    payload = json.dumps(spec.to_record()).encode()
    with BackgroundServer(micro_session(tmp_path / "c")) as server:
        status, _headers, body = request(server, "POST", f"/v1/{kind}", body=payload)
        assert status == 202
        envelope = json.loads(body)
        assert envelope["request_kind"] == kind

        status, headers, first = poll_job(server, envelope["url"])
        assert status == 200
        assert int(headers["X-Repro-Jobs-Executed"]) == executed
        record = json.loads(first)
        assert record["kind"] == kind

        # Re-POSTing the identical request is warm.
        status, headers, again = request(server, "POST", f"/v1/{kind}", body=payload)
        assert status == 200
        assert headers["X-Repro-Jobs-Executed"] == "0"
        assert again == first

        # The GET route serves the stored body by request key.
        status, headers, stored = request(server, "GET", f"/v1/{kind}/{spec.key()}")
        assert status == 200
        assert headers["X-Repro-Jobs-Executed"] == "0"
        assert stored == first
        # A key of the other kind names nothing here.
        other = "sweep" if kind == "dse" else "dse"
        assert request(server, "GET", f"/v1/{other}/{spec.key()}")[0] == 404


def unknown_key_is_404_with_guidance(tmp_path, kind):
    with BackgroundServer(micro_session(tmp_path / "c")) as server:
        status, _headers, body = request(server, "GET", f"/v1/{kind}/deadbeef")
        assert status == 404
        assert f"POST /v1/{kind}" in json.loads(body)["error"]


class TestServeLifecycle:
    def test_cold_post_202_poll_200_then_warm_get_by_key(self, tmp_path):
        cold_post_then_warm_get_by_key(tmp_path, "dse")

    def test_cold_sweep_post_202_poll_200_then_warm_get_by_key(self, tmp_path):
        cold_post_then_warm_get_by_key(tmp_path, "sweep")

    def test_unknown_report_key_is_404_with_guidance(self, tmp_path):
        unknown_key_is_404_with_guidance(tmp_path, "dse")

    def test_unknown_sweep_key_is_404_with_guidance(self, tmp_path):
        unknown_key_is_404_with_guidance(tmp_path, "sweep")

    def test_bad_dse_body_is_400(self, tmp_path):
        with BackgroundServer(micro_session(tmp_path / "c")) as server:
            for payload in (b"{nope", b'{"workloads": ["nope"]}', b'{"bogus": 1}'):
                status, _headers, body = request(
                    server, "POST", "/v1/dse", body=payload
                )
                assert status == 400, payload
                assert json.loads(body)["kind"] == "error"


# ----------------------------------------------------------------------
# Cache prune scoping
# ----------------------------------------------------------------------
class TestPrunePrefix:
    def test_prune_requires_a_bound_or_a_prefix(self, tmp_path):
        with pytest.raises(ValueError, match="size bound, a key prefix, or both"):
            ResultCache(tmp_path).prune()

    def test_prefix_only_evicts_every_matching_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_blob("dse-" + "a" * 64, b"report-a")
        cache.put_blob("dse-" + "b" * 64, b"report-b")
        cache.put_blob("c" * 64, b"figure-result")
        report = cache.prune(prefix="dse-")
        assert report.removed_entries == 2
        assert report.remaining_entries == 0  # counts cover the prefix only
        assert cache.get_blob("dse-" + "a" * 64) is None
        assert cache.get_blob("c" * 64) == b"figure-result"

    def test_size_bound_plus_prefix_keeps_the_newest_matching(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_blob("dse-" + "a" * 64, b"x" * 100)
        cache.put_blob("dse-" + "b" * 64, b"y" * 100)
        cache.put_blob("c" * 64, b"z" * 100)
        report = cache.prune(150, prefix="dse-")
        assert report.removed_entries == 1
        assert report.remaining_bytes <= 150
        assert cache.get_blob("c" * 64) is not None

    def test_cli_prune_demands_a_scope_and_honours_prefix(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        ResultCache(tmp_path / "cache").put_blob("dse-" + "a" * 64, b"body")
        assert cli_main(["cache", "prune"]) == 2
        assert "needs --max-size-mb, --prefix, or both" in capsys.readouterr().err
        assert cli_main(["cache", "prune", "--prefix", "dse-"]) == 0
        out = capsys.readouterr().out
        assert "prefix 'dse-'" in out
        assert ResultCache(tmp_path / "cache").get_blob("dse-" + "a" * 64) is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliSurface:
    def test_list_names_models_and_dse_workloads(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "models:" in out and "ResNet-50" in out
        assert "xf-prune-80" in out and "gnn-cora" in out

    def test_unknown_sweep_model_hints_at_the_dse_runner(self):
        from repro.api import SweepSpec

        with pytest.raises(ValueError, match="registered DSE workload.*repro dse"):
            SweepSpec(models=("xf-prune-80",))
        with pytest.raises(ValueError) as excinfo:
            SweepSpec(models=("nope",))
        assert "DSE workload" not in str(excinfo.value)

    def test_dse_cli_runs_and_rerenders_byte_identically(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = [
            "dse", "--workloads", "xf-prune-80", "--designs", "base,xbar16",
            "--max-dense-macs", "5e4", "--max-layers", "1",
            "--serial", "--no-progress",
        ]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert cli_main(argv + ["-o", str(first)]) == 0
        # Drop the stored report, so the second run re-renders from job entries.
        assert cli_main(["cache", "prune", "--prefix", "dse-"]) == 0
        assert cli_main(argv + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        record = json.loads(first.read_bytes())
        assert record["kind"] == "dse"
        assert set(record["frontier"]) == {"cycles_vs_area", "cycles_vs_power"}

    def test_dse_cli_without_workloads_exits_2_naming_options(self, capsys):
        assert cli_main(["dse"]) == 2
        err = capsys.readouterr().err
        assert "--workloads is required" in err and "xf-prune-80" in err
        assert "python -m repro list workloads" in err

    def test_dse_cli_listings(self, capsys):
        assert cli_main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "gnn-citeseer" in out
        assert "xbar128" in out and "[stacked]" in out
