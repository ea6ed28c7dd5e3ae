"""Dataflow taxonomy: the six SpMSpM loop orders and their properties.

This module encodes Section 2.2 and Table 3 of the paper.  The SpMSpM
operation ``C[M,N] = A[M,K] x B[K,N]`` is a triple-nested loop over M, N and
the shared dimension K; placing the K co-iteration at the innermost, outermost
or middle level yields Inner Product (IP), Outer Product (OP) and Gustavson's
(Gust) respectively, and each has an M-stationary and an N-stationary variant
depending on which independent dimension sits at the outermost loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sparse.formats import Layout


class DataflowClass(enum.Enum):
    """The three SpMSpM dataflow families."""

    INNER_PRODUCT = "IP"
    OUTER_PRODUCT = "OP"
    GUSTAVSON = "Gust"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Dataflow(enum.Enum):
    """The six concrete dataflow variants supported by Flexagon.

    The enum value is the loop order from outermost to innermost, matching the
    first column of Table 3.
    """

    IP_M = "MNK"
    OP_M = "KMN"
    GUST_M = "MKN"
    IP_N = "NMK"
    OP_N = "KNM"
    GUST_N = "NKM"

    # ------------------------------------------------------------------
    @property
    def dataflow_class(self) -> DataflowClass:
        """The family (IP, OP or Gust) this variant belongs to."""
        return _CLASS_OF[self]

    @property
    def is_m_stationary(self) -> bool:
        """True for the M-stationary variants (which emit CSR outputs)."""
        return self in (Dataflow.IP_M, Dataflow.OP_M, Dataflow.GUST_M)

    @property
    def is_n_stationary(self) -> bool:
        """True for the N-stationary variants (which emit CSC outputs)."""
        return not self.is_m_stationary

    @property
    def loop_order(self) -> str:
        """The loop order from outermost to innermost (e.g. ``"MNK"``)."""
        return self.value

    @property
    def informal_name(self) -> str:
        """Human-readable name such as ``"Inner Product(M)"``."""
        suffix = "(M)" if self.is_m_stationary else "(N)"
        names = {
            DataflowClass.INNER_PRODUCT: "Inner Product",
            DataflowClass.OUTER_PRODUCT: "Outer Product",
            DataflowClass.GUSTAVSON: "Gustavson's",
        }
        return names[self.dataflow_class] + suffix

    @property
    def properties(self) -> "DataflowProperties":
        """The full Table 3 row for this dataflow."""
        return DATAFLOW_PROPERTIES[self]

    @property
    def needs_merging(self) -> bool:
        """OP and Gust produce partial sums that must be merged; IP does not."""
        return self.dataflow_class is not DataflowClass.INNER_PRODUCT

    @property
    def needs_intersection(self) -> bool:
        """IP and Gust intersect operands; OP multiplies every pair blindly."""
        return self.dataflow_class is not DataflowClass.OUTER_PRODUCT

    def mirrored(self) -> "Dataflow":
        """Return the same family with the opposite stationary dimension."""
        return _MIRROR[self]

    @classmethod
    def from_name(cls, name: str) -> "Dataflow":
        """Parse names such as ``"IP_M"``, ``"Gust(N)"`` or ``"MKN"``."""
        normalized = name.strip().upper().replace("(", "_").replace(")", "").replace("-", "_")
        aliases = {
            "IP_M": cls.IP_M,
            "IP_N": cls.IP_N,
            "OP_M": cls.OP_M,
            "OP_N": cls.OP_N,
            "GUST_M": cls.GUST_M,
            "GUST_N": cls.GUST_N,
            "GUSTAVSON_M": cls.GUST_M,
            "GUSTAVSON_N": cls.GUST_N,
            "MNK": cls.IP_M,
            "KMN": cls.OP_M,
            "MKN": cls.GUST_M,
            "NMK": cls.IP_N,
            "KNM": cls.OP_N,
            "NKM": cls.GUST_N,
        }
        if normalized not in aliases:
            raise ValueError(f"unknown dataflow name: {name!r}")
        return aliases[normalized]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.informal_name


_CLASS_OF = {
    Dataflow.IP_M: DataflowClass.INNER_PRODUCT,
    Dataflow.IP_N: DataflowClass.INNER_PRODUCT,
    Dataflow.OP_M: DataflowClass.OUTER_PRODUCT,
    Dataflow.OP_N: DataflowClass.OUTER_PRODUCT,
    Dataflow.GUST_M: DataflowClass.GUSTAVSON,
    Dataflow.GUST_N: DataflowClass.GUSTAVSON,
}

_MIRROR = {
    Dataflow.IP_M: Dataflow.IP_N,
    Dataflow.IP_N: Dataflow.IP_M,
    Dataflow.OP_M: Dataflow.OP_N,
    Dataflow.OP_N: Dataflow.OP_M,
    Dataflow.GUST_M: Dataflow.GUST_N,
    Dataflow.GUST_N: Dataflow.GUST_M,
}


@dataclass(frozen=True)
class DataflowProperties:
    """One row of Table 3.

    Attributes
    ----------
    stationary_tensor:
        Which of A, B, C stays resident across the innermost loops.
    stationary_fiber_tensor:
        The tensor whose fibers are pinned in the multipliers ("Stationary
        Fiber" column).
    streaming_tensor:
        The tensor streamed from the L1 cache during the streaming phase.
    a_format, b_format, c_format:
        The compression layout each operand must use / the output is produced in.
    intersection:
        Textual description of the intersection style (``None`` when the
        dataflow never intersects).
    merging:
        Textual description of the merge granularity (``None`` for IP).
    """

    dataflow: Dataflow
    stationary_tensor: str
    stationary_fiber_tensor: str
    streaming_tensor: str
    a_format: Layout
    b_format: Layout
    c_format: Layout
    intersection: str | None
    merging: str | None


DATAFLOW_PROPERTIES: dict[Dataflow, DataflowProperties] = {
    Dataflow.IP_M: DataflowProperties(
        Dataflow.IP_M, "C", "A", "B",
        Layout.CSR, Layout.CSC, Layout.CSR,
        "Scalar A vs Scalar B", None,
    ),
    Dataflow.OP_M: DataflowProperties(
        Dataflow.OP_M, "A", "B", "C",
        Layout.CSC, Layout.CSR, Layout.CSR,
        None, "Scalar",
    ),
    Dataflow.GUST_M: DataflowProperties(
        Dataflow.GUST_M, "A", "C", "B",
        Layout.CSR, Layout.CSR, Layout.CSR,
        "Scalar A vs Fiber B", "Fiber(M)",
    ),
    Dataflow.IP_N: DataflowProperties(
        Dataflow.IP_N, "C", "B", "A",
        Layout.CSR, Layout.CSC, Layout.CSC,
        "Scalar B vs Scalar A", None,
    ),
    Dataflow.OP_N: DataflowProperties(
        Dataflow.OP_N, "B", "A", "C",
        Layout.CSC, Layout.CSR, Layout.CSC,
        None, "Scalar",
    ),
    Dataflow.GUST_N: DataflowProperties(
        Dataflow.GUST_N, "B", "C", "A",
        Layout.CSC, Layout.CSC, Layout.CSC,
        "Scalar B vs Fiber A", "Fiber(N)",
    ),
}


def taxonomy_table() -> list[dict[str, str]]:
    """Return Table 3 as a list of row dictionaries (used by the bench harness)."""
    rows = []
    for dataflow, props in DATAFLOW_PROPERTIES.items():
        rows.append(
            {
                "loop_order": dataflow.loop_order,
                "informal_name": dataflow.informal_name,
                "stationary_tensor": props.stationary_tensor,
                "stationary_fiber": props.stationary_fiber_tensor,
                "streaming_tensor": props.streaming_tensor,
                "a_format": str(props.a_format),
                "b_format": str(props.b_format),
                "c_format": str(props.c_format),
                "intersection": props.intersection or "N/A",
                "merging": props.merging or "N/A",
            }
        )
    return rows
