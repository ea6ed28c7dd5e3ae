"""Workload registry of the design-space-exploration subsystem.

The paper's evaluation is closed over a fixed model list; this module opens
the workload axis in two directions:

* **Real sparse matrices** — a streamed MatrixMarket parser
  (:func:`load_matrix_market`) covering the coordinate format with
  ``real`` / ``integer`` / ``pattern`` fields and ``general`` / ``symmetric``
  storage, exactly the subset the SuiteSparse collection distributes.
  Indices are 1-based per the format; symmetric files store only the lower
  triangle and are mirror-expanded on load.  Parsing is line-streamed and
  bounded by the ``REPRO_DSE_MAX_NNZ`` / ``REPRO_DSE_MAX_DIM`` knobs so an
  oversized download fails fast instead of exhausting memory.
* **Synthetic sparsity families** — :func:`transformer_pruning` and
  :func:`gnn_adjacency` build :class:`~repro.workloads.layers.LayerSpec`
  instances over the generators of :mod:`repro.sparse.generate` (row-skewed
  magnitude pruning, block-structured pruning, power-law adjacency).

Both kinds register by name (:func:`register_workload`) so a
:class:`~repro.dse.explore.DseSpec` — and the ``python -m repro dse`` CLI —
can sweep them like the paper's models.  Cache identity always derives from
*content*: a matrix workload is keyed by the SHA-256 of its loaded operands'
structure, a synthetic one by its generator parameters — never by a file
path, so two hosts loading the same matrix from different directories share
cache entries.

Setting ``REPRO_DSE_DIR`` to a directory of ``*.mtx`` files auto-registers
each file under its stem name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro import knobs
from repro.runtime.jobs import _matrix_digest
from repro.sparse.formats import CompressedMatrix, Layout, matrix_from_arrays
from repro.sparse.generate import SparsityPattern
from repro.workloads.layers import LayerSpec


class MatrixMarketError(ValueError):
    """A MatrixMarket file failed to parse; the message names ``file:line``."""


#: Fields the coordinate parser accepts (``complex`` needs two value columns
#: and no simulation here consumes imaginary parts).
_MM_FIELDS = ("real", "integer", "pattern")

#: Symmetry modes the parser accepts (``skew-symmetric`` and ``hermitian``
#: do not occur in the SpGEMM corpora this subsystem targets).
_MM_SYMMETRIES = ("general", "symmetric")


def load_matrix_market(
    path: str | Path,
    *,
    layout: Layout = Layout.CSR,
    max_nnz: int | None = None,
    max_dim: int | None = None,
) -> CompressedMatrix:
    """Parse one MatrixMarket ``coordinate`` file into a compressed matrix.

    The parser streams line by line (never holding the text in memory) and
    tolerates CRLF line endings and ``%`` comment lines.  ``symmetric``
    files are expanded by mirroring every off-diagonal entry.  The value
    column is parsed and checked, and decides which positions are entries
    (:func:`_entries`), but the matrix keeps structure only; every position
    of a ``pattern`` file is an entry.

    ``max_nnz`` / ``max_dim`` bound the declared size line (defaults:
    the ``REPRO_DSE_MAX_NNZ`` / ``REPRO_DSE_MAX_DIM`` knobs); a file past
    either bound raises :class:`MatrixMarketError` before any entry is read.
    """
    path = Path(path)
    if max_nnz is None:
        max_nnz = knobs.get("REPRO_DSE_MAX_NNZ")
    if max_dim is None:
        max_dim = knobs.get("REPRO_DSE_MAX_DIM")
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        return _parse_matrix_market(handle, path.name, layout, max_nnz, max_dim)


def _parse_matrix_market(handle, label, layout, max_nnz, max_dim):
    def fail(lineno: int, message: str):
        raise MatrixMarketError(f"{label}:{lineno}: {message}")

    # -- header (line 1) ------------------------------------------------
    lineno = 1
    header = handle.readline().strip()
    tokens = header.split()
    if not tokens or not tokens[0].lower().startswith("%%matrixmarket"):
        fail(lineno, "missing '%%MatrixMarket' header")
    if len(tokens) != 5 or tokens[1].lower() != "matrix":
        fail(lineno, f"malformed header {header!r}")
    fmt, field_kind, symmetry = (token.lower() for token in tokens[2:5])
    if fmt != "coordinate":
        fail(lineno, f"only the coordinate format is supported, got {fmt!r}")
    if field_kind not in _MM_FIELDS:
        fail(lineno, f"unsupported field {field_kind!r}; expected one of {_MM_FIELDS}")
    if symmetry not in _MM_SYMMETRIES:
        fail(
            lineno,
            f"unsupported symmetry {symmetry!r}; expected one of {_MM_SYMMETRIES}",
        )

    # -- size line (first non-comment line) -----------------------------
    size = None
    for line in handle:
        lineno += 1
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        try:
            size = tuple(int(part) for part in parts)
        except ValueError:
            fail(lineno, f"malformed size line {text!r}")
        if len(size) != 3:
            fail(lineno, "size line must be 'rows cols nnz'")
        break
    if size is None:
        fail(lineno, "missing size line")
    nrows, ncols, declared_nnz = size
    if nrows < 1 or ncols < 1 or declared_nnz < 0:
        fail(lineno, f"invalid size {nrows} x {ncols} with {declared_nnz} entries")
    if max_dim is not None and max(nrows, ncols) > max_dim:
        fail(
            lineno,
            f"dimension {max(nrows, ncols)} exceeds the REPRO_DSE_MAX_DIM "
            f"bound of {max_dim}",
        )
    if max_nnz is not None and declared_nnz > max_nnz:
        fail(
            lineno,
            f"{declared_nnz} entries exceed the REPRO_DSE_MAX_NNZ bound "
            f"of {max_nnz}",
        )

    # -- entries ---------------------------------------------------------
    width = 2 if field_kind == "pattern" else 3
    rows = np.empty(declared_nnz, dtype=np.int64)
    cols = np.empty(declared_nnz, dtype=np.int64)
    values = np.empty(declared_nnz, dtype=np.float64)
    count = 0
    for line in handle:
        lineno += 1
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        if count >= declared_nnz:
            fail(lineno, f"more entries than the declared {declared_nnz}")
        parts = text.split()
        if len(parts) != width:
            fail(lineno, f"expected {width} fields per entry, got {len(parts)}")
        try:
            r = int(parts[0])
            c = int(parts[1])
            value = float(parts[2]) if width == 3 else 1.0  # pattern: an entry
        except ValueError:
            fail(lineno, f"malformed entry {text!r}")
        if not (1 <= r <= nrows and 1 <= c <= ncols):
            fail(
                lineno,
                f"coordinate ({r}, {c}) outside {nrows} x {ncols} "
                "(MatrixMarket indices are 1-based)",
            )
        rows[count] = r - 1
        cols[count] = c - 1
        values[count] = value
        count += 1
    if count != declared_nnz:
        fail(lineno, f"file declares {declared_nnz} entries but provides {count}")

    if symmetry == "symmetric":
        mirror = rows != cols
        rows, cols, values = (
            np.concatenate([rows, cols[mirror]]),
            np.concatenate([cols, rows[mirror]]),
            np.concatenate([values, values[mirror]]),
        )
    return matrix_from_arrays(nrows, ncols, *_entries(rows, cols, values), layout=layout)


def _entries(rows, cols, values):
    """The positions that hold an entry: a repeated position's values are
    summed in file order, and a position whose sum is ``0.0`` holds none."""
    order = np.lexsort((cols, rows))  # stable: file order within a position
    rows, cols, values = rows[order], cols[order], values[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    sums = np.zeros(int(first.sum()))
    np.add.at(sums, np.cumsum(first) - 1, values)
    keep = sums != 0.0
    return rows[first][keep], cols[first][keep]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named DSE workload: a synthetic layer family or a real matrix.

    ``kind`` is ``"synthetic"`` (``spec`` holds the generator parameters;
    operands are materialised on the executing worker like any sweep job)
    or ``"matrix"`` (``source`` names an on-disk MatrixMarket file whose
    loaded contents become explicit job operands).  ``source`` never enters
    :meth:`digest` — identity is content, not location.
    """

    name: str
    kind: str
    spec: LayerSpec | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "matrix"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if (self.kind == "synthetic") != (self.spec is not None):
            raise ValueError("synthetic workloads carry a LayerSpec, matrix ones do not")
        if (self.kind == "matrix") != (self.source is not None):
            raise ValueError("matrix workloads name a source file, synthetic ones do not")

    # ------------------------------------------------------------------
    def operands(self) -> tuple[CompressedMatrix, CompressedMatrix]:
        """The explicit ``(A, B)`` pair of a matrix workload.

        A square matrix multiplies itself (``A @ A``, the canonical
        SuiteSparse SpGEMM benchmark); a rectangular ``m x k`` one
        multiplies its own transpose (``A @ A^T``).  Loads are memoized per
        source path, so the grid's many jobs share one parse.
        """
        if self.kind != "matrix":
            raise ValueError(f"workload {self.name!r} has no explicit operands")
        return _load_operands(self.source)

    def digest(self) -> str:
        """Content hash identifying this workload across processes.

        Matrix workloads hash the loaded operands' structure (layout, shape,
        pointers, indices), so an edit to values alone that moves no entry
        keeps it; synthetic ones hash their generator parameters.
        The digest is what :meth:`repro.dse.explore.DseSpec.key` folds in,
        keeping campaign keys path-independent.
        """
        if self.kind == "matrix":
            a, b = self.operands()
            text = f"matrix:{_matrix_digest(a)}:{_matrix_digest(b)}"
            return hashlib.sha256(text.encode()).hexdigest()
        payload = {"kind": "synthetic", "spec": asdict(self.spec)}
        encoded = json.dumps(payload, sort_keys=True, default=_enum_value)
        return hashlib.sha256(encoded.encode()).hexdigest()

    def to_record(self) -> dict[str, object]:
        """JSON-safe summary row (the catalog / ``list workloads --json`` form)."""
        record: dict[str, object] = {"name": self.name, "kind": self.kind}
        if self.spec is not None:
            record["m"], record["k"], record["n"] = self.spec.m, self.spec.k, self.spec.n
            record["sparsity_a"] = self.spec.sparsity_a
            record["sparsity_b"] = self.spec.sparsity_b
        if self.source is not None:
            record["source"] = self.source
        return record


def _enum_value(value: object) -> object:
    if isinstance(value, SparsityPattern):
        return value.value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for hashing")


@lru_cache(maxsize=8)
def _load_operands(source: str) -> tuple[CompressedMatrix, CompressedMatrix]:
    a = load_matrix_market(source)
    b = a if a.nrows == a.ncols else a.transposed()
    return a, b


# ----------------------------------------------------------------------
# Synthetic generators
# ----------------------------------------------------------------------
def transformer_pruning(
    name: str,
    *,
    d_model: int = 512,
    d_ff: int = 2048,
    seq_len: int = 256,
    weight_sparsity: float = 0.8,
    activation_sparsity: float = 0.6,
    structured: bool = False,
) -> Workload:
    """A pruned transformer FFN projection: ``W[d_ff, d_model] @ X[d_model, seq]``.

    Magnitude pruning keeps per-channel occupancy heavy-tailed
    (``ROW_SKEWED``); ``structured=True`` models block pruning instead
    (``BLOCK``).  Activations are uniformly sparse (ReLU-style).
    """
    spec = LayerSpec(
        name=name,
        m=d_ff,
        k=d_model,
        n=seq_len,
        sparsity_a=weight_sparsity,
        sparsity_b=activation_sparsity,
        pattern_a=SparsityPattern.BLOCK if structured else SparsityPattern.ROW_SKEWED,
        pattern_b=SparsityPattern.UNIFORM,
    )
    return Workload(name=name, kind="synthetic", spec=spec)


def gnn_adjacency(
    name: str,
    *,
    nodes: int = 2048,
    avg_degree: float = 8.0,
    features: int = 128,
    feature_density: float = 0.5,
) -> Workload:
    """A GNN aggregation step: ``Adj[nodes, nodes] @ H[nodes, features]``.

    The adjacency is row-skewed (power-law degree distribution, the shape
    of citation/social graphs); the feature matrix is uniformly sparse
    (bag-of-words or post-ReLU embeddings).
    """
    if not 0.0 < avg_degree <= nodes:
        raise ValueError(f"avg_degree must be in (0, nodes], got {avg_degree}")
    spec = LayerSpec(
        name=name,
        m=nodes,
        k=nodes,
        n=features,
        sparsity_a=1.0 - (avg_degree / nodes),
        sparsity_b=1.0 - feature_density,
        pattern_a=SparsityPattern.ROW_SKEWED,
        pattern_b=SparsityPattern.UNIFORM,
    )
    return Workload(name=name, kind="synthetic", spec=spec)


def matrix_workload(name: str, source: str | Path) -> Workload:
    """A workload over one on-disk MatrixMarket file."""
    return Workload(name=name, kind="matrix", source=str(source))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Workload] = {}


def register_workload(workload: Workload, *, replace: bool = False) -> Workload:
    """Register one workload by name; re-registering an equal one is a no-op."""
    existing = _REGISTRY.get(workload.name)
    if existing is not None and existing != workload and not replace:
        raise ValueError(f"workload {workload.name!r} is already registered")
    _REGISTRY[workload.name] = workload
    return workload


def _scan_workload_dir() -> None:
    """Auto-register ``*.mtx`` files under ``REPRO_DSE_DIR`` by stem name.

    Re-scanned on every registry read so a freshly dropped file is visible
    without restarting; explicit registrations always win over the scan.
    """
    root = knobs.get("REPRO_DSE_DIR")
    if not root:
        return
    directory = Path(root)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.mtx")):
        if path.stem not in _REGISTRY:
            _REGISTRY[path.stem] = matrix_workload(path.stem, path)


def workload_names() -> tuple[str, ...]:
    """Every registered workload name, sorted."""
    _scan_workload_dir()
    return tuple(sorted(_REGISTRY))


def has_workload(name: str) -> bool:
    """Whether ``name`` is a registered DSE workload."""
    _scan_workload_dir()
    return name in _REGISTRY


def get_workload(name: str) -> Workload:
    """The registered workload for ``name`` (``ValueError`` names the options)."""
    _scan_workload_dir()
    workload = _REGISTRY.get(name)
    if workload is None:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {workload_names()}"
        )
    return workload


#: Built-in synthetic presets: three transformer-pruning points spanning the
#: unstructured/structured and moderate/extreme sparsity corners, plus two
#: GNN aggregation shapes modelled on the standard citation benchmarks.
BUILTIN_WORKLOADS: tuple[Workload, ...] = (
    transformer_pruning("xf-prune-80", weight_sparsity=0.80),
    transformer_pruning("xf-prune-95", weight_sparsity=0.95, activation_sparsity=0.7),
    transformer_pruning("xf-block-75", weight_sparsity=0.75, structured=True),
    gnn_adjacency(
        "gnn-cora", nodes=2708, avg_degree=3.9, features=1433, feature_density=0.013
    ),
    gnn_adjacency(
        "gnn-citeseer", nodes=3327, avg_degree=2.7, features=3703, feature_density=0.0085
    ),
)

for _workload in BUILTIN_WORKLOADS:
    register_workload(_workload)
del _workload
