"""Layer specifications and their materialisation into synthetic matrices.

A :class:`LayerSpec` captures everything the evaluation needs to know about
one SpMSpM layer: the GEMM dimensions, the sparsity of each operand and the
sparsity pattern.  ``materialize_layer`` turns a spec into a concrete pair of
compressed matrices, optionally *scaled*: simulating the full-size layers (up
to tens of MiB compressed) takes minutes (the unscaled fig12 over all 513
layers took about 100 s on 2 workers of a 2-vCPU host), so the benchmark
harness shrinks the dimensions by a scale factor while the accelerator
configuration shrinks its SRAM capacities by the same factor (see
``AcceleratorConfig.scaled``), preserving the working-set-to-capacity ratios
that drive the paper's trends.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, replace

from repro.sparse.formats import CompressedMatrix, Layout
from repro.sparse.generate import SparsityPattern, random_sparse


@dataclass(frozen=True)
class LayerSpec:
    """One SpMSpM layer: ``C[M, N] = A[M, K] x B[K, N]``.

    Attributes
    ----------
    name:
        Layer label (e.g. ``"SQ5"`` or ``"resnet50/conv3_2"``).
    m, k, n:
        GEMM dimensions.
    sparsity_a, sparsity_b:
        Fraction of *zero* entries in A and B (the convention of Table 2 and
        Table 6, where sparsity is reported in percent).
    pattern_a, pattern_b:
        Spatial distribution of the non-zeros of each operand.
    """

    name: str
    m: int
    k: int
    n: int
    sparsity_a: float
    sparsity_b: float
    pattern_a: SparsityPattern = SparsityPattern.UNIFORM
    pattern_b: SparsityPattern = SparsityPattern.UNIFORM

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) < 1:
            raise ValueError(f"layer {self.name!r} has a non-positive dimension")
        for label, value in (("sparsity_a", self.sparsity_a), ("sparsity_b", self.sparsity_b)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"layer {self.name!r}: {label} must be in [0, 1], got {value}")

    # ------------------------------------------------------------------
    @property
    def density_a(self) -> float:
        """Fraction of non-zeros in A."""
        return 1.0 - self.sparsity_a

    @property
    def density_b(self) -> float:
        """Fraction of non-zeros in B."""
        return 1.0 - self.sparsity_b

    @property
    def dense_macs(self) -> int:
        """Multiply-accumulates a dense GEMM of this shape would perform."""
        return self.m * self.k * self.n

    def expected_nnz_a(self) -> float:
        """Expected number of non-zeros in A."""
        return self.m * self.k * self.density_a

    def expected_nnz_b(self) -> float:
        """Expected number of non-zeros in B."""
        return self.k * self.n * self.density_b

    def expected_compressed_bytes_a(self, element_bytes: int = 4) -> float:
        """Approximate compressed size of A in bytes."""
        return self.expected_nnz_a() * element_bytes + (self.m + 1) * 4

    def expected_compressed_bytes_b(self, element_bytes: int = 4) -> float:
        """Approximate compressed size of B in bytes."""
        return self.expected_nnz_b() * element_bytes + (self.k + 1) * 4

    # ------------------------------------------------------------------
    def scaled(self, scale: float) -> "LayerSpec":
        """Return a copy with every dimension multiplied by ``scale`` (min 1)."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        if scale == 1.0:
            return self
        return replace(
            self,
            m=max(1, int(round(self.m * scale))),
            k=max(1, int(round(self.k * scale))),
            n=max(1, int(round(self.n * scale))),
        )

    def deterministic_seed(self, salt: int = 0) -> int:
        """A reproducible RNG seed derived from the layer name."""
        digest = hashlib.sha256(f"{self.name}:{salt}".encode()).digest()
        return int.from_bytes(digest[:4], "little")


def materialize_layer(
    spec: LayerSpec,
    *,
    scale: float = 1.0,
    seed: int | None = None,
    layout_a: Layout = Layout.CSR,
    layout_b: Layout = Layout.CSR,
) -> tuple[CompressedMatrix, CompressedMatrix]:
    """Generate the synthetic ``(A, B)`` operand pair for a layer spec.

    ``scale`` shrinks (or enlarges) every dimension; sparsities are kept, so
    the compressed sizes scale quadratically with ``scale``.

    Generation is deterministic in its arguments, so a small LRU memo shares
    the operand pair between the consecutive jobs of a sweep grid that
    simulate the same layer on different designs — which also lets the
    engine's per-pair derived-structure memos (layout views, output-row
    counts) hit across those jobs.  Matrices are treated as immutable
    throughout the code base, so sharing is safe.
    """
    return _materialize_cached(spec, scale, seed, layout_a, layout_b)


@functools.lru_cache(maxsize=4)
def _materialize_cached(
    spec: "LayerSpec",
    scale: float,
    seed: int | None,
    layout_a: Layout,
    layout_b: Layout,
) -> tuple[CompressedMatrix, CompressedMatrix]:
    scaled = spec.scaled(scale)
    base_seed = spec.deterministic_seed() if seed is None else seed
    a = random_sparse(
        scaled.m,
        scaled.k,
        scaled.density_a,
        pattern=scaled.pattern_a,
        layout=layout_a,
        seed=base_seed,
    )
    b = random_sparse(
        scaled.k,
        scaled.n,
        scaled.density_b,
        pattern=scaled.pattern_b,
        layout=layout_b,
        seed=base_seed + 1,
    )
    return a, b


def scale_for_budget(spec: LayerSpec, max_dense_macs: float) -> float:
    """Scale factor that keeps the layer's dense MAC count under a budget.

    Used by the benchmark harness to pick a per-layer scale that keeps the
    pure-Python simulation tractable while leaving small layers untouched.
    """
    if max_dense_macs <= 0:
        raise ValueError("the MAC budget must be positive")
    if spec.dense_macs <= max_dense_macs:
        return 1.0
    # Dense MACs scale with the cube of the linear scale factor.
    return (max_dense_macs / spec.dense_macs) ** (1.0 / 3.0)


def round_up_pow2(value: int) -> int:
    """Smallest power of two >= value (used by sweep benchmarks)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def human_macs(value: float) -> str:
    """Human-readable MAC count (e.g. ``"3.2M"``)."""
    for suffix, factor in (("G", 1e9), ("M", 1e6), ("K", 1e3)):
        if value >= factor:
            return f"{value / factor:.1f}{suffix}"
    return f"{value:.0f}"


def layer_summary(spec: LayerSpec) -> dict[str, object]:
    """Row-form summary of a layer spec (used by Table 6 reporting)."""
    return {
        "layer": spec.name,
        "M": spec.m,
        "N": spec.n,
        "K": spec.k,
        "spA(%)": round(100 * spec.sparsity_a, 1),
        "spB(%)": round(100 * spec.sparsity_b, 1),
        "csA(KiB)": round(spec.expected_compressed_bytes_a() / 1024, 1),
        "csB(KiB)": round(spec.expected_compressed_bytes_b() / 1024, 1),
        "dense MACs": human_macs(spec.dense_macs),
    }
