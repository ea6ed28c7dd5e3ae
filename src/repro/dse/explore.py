"""The design-space-exploration driver.

A :class:`DseSpec` is the third request kind of the API (next to
``SweepSpec`` and ``FigureQuery``): a declarative (workload x design-point)
grid over the registries of :mod:`repro.dse.workloads` and
:mod:`repro.dse.designs`.  It compiles down to the same flat
:class:`~repro.runtime.SimJob` plane every sweep uses, so LPT cost
scheduling, crash-resume, ``REPRO_POOL=remote`` fan-out and admission
control all apply to DSE campaigns unchanged.

:func:`collate_dse` folds the per-job results into the Pareto report: one
row per (workload, design point), one aggregate point per design point with
its analytical area/power (:mod:`repro.accelerators.area_power`), and the
Pareto frontiers of total cycles vs. area and vs. power.  Everything is
deterministic and JSON-canonical, so the same campaign always renders to
byte-identical report bodies — the property the warm ``GET /v1/dse/<key>``
route and the CI smoke job assert.

:func:`report_key` addresses every rendered response body in the result
cache — figure, sweep and DSE report alike — so a repeat request of any kind
is answered with one record read; :func:`dse_report_key` is its DSE form.
Figure and sweep body keys also fold in :func:`grid_tables_digest`, the data
tables their job grids are compiled from.

Campaign identity (:meth:`DseSpec.key`) folds in each workload's *content*
digest and each design point's full configuration record, never file paths,
so keys agree across hosts that store the same matrices in different
places.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass, is_dataclass
from types import MappingProxyType
from typing import ClassVar

from repro.accelerators.area_power import performance_per_area
from repro.dse.designs import default_design_points, design_point_names, get_design_point
from repro.dse.workloads import get_workload, workload_names
from repro.experiments.settings import ExperimentSettings
from repro.metrics.results import RESULT_SCHEMA_VERSION, Row
from repro.runtime import CACHE_SCHEMA_VERSION, SimJob


def names_tuple(value: str | Iterable[str] | None) -> tuple[str, ...]:
    """Normalise a name list argument ("a,b", ["a", "b"], None) to a tuple
    (every request spec's list fields take either form)."""
    if value is None:
        return ()
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    return tuple(value)


@dataclass(frozen=True)
class DseSpec:
    """A declarative (workloads x design points) exploration grid.

    ``workloads`` name entries of the DSE workload registry; ``designs``
    name design points (default: every built-in family).  Constructor
    arguments are normalised exactly like :class:`~repro.api.SweepSpec`'s,
    so CSV strings and lists both work and specs stay hashable.

    ``scale`` pins the operand scale of synthetic workloads; ``None``
    (default) applies the session settings' MAC-budget policy per workload.
    Unlike a sweep, the *configuration* is never scaled alongside — each
    design point's config IS the quantity under exploration, and scaling it
    would collapse distinct crossbar/memory variants into one another.
    Matrix workloads always run their real operands unscaled.
    """

    kind: ClassVar[str] = "dse"
    workloads: tuple[str, ...] = ()
    designs: tuple[str, ...] = ()
    scale: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", names_tuple(self.workloads))
        designs = names_tuple(self.designs)
        if not designs:
            designs = default_design_points()
        object.__setattr__(self, "designs", designs)
        if not self.workloads:
            raise ValueError(
                f"a DSE campaign needs at least one workload; "
                f"registered: {workload_names()}"
            )
        for name in self.workloads:
            get_workload(name)
        for name in self.designs:
            get_design_point(name)
        if self.scale is not None and self.scale <= 0:
            raise ValueError("scale must be positive")

    # ------------------------------------------------------------------
    def compile(
        self, settings: ExperimentSettings
    ) -> tuple[list[SimJob], list[dict[str, str]]]:
        """Lower the grid to flat jobs under ``settings``.

        Returns the jobs plus one metadata dict per job (``workload``,
        ``design_point``, ``family``, ``design``) used to label report rows.
        """
        jobs: list[SimJob] = []
        meta: list[dict[str, str]] = []
        for workload_name in self.workloads:
            workload = get_workload(workload_name)
            for point_name in self.designs:
                point = get_design_point(point_name)
                if workload.kind == "synthetic":
                    spec = workload.spec
                    scale = (
                        self.scale
                        if self.scale is not None
                        else settings.layer_scale(spec)
                    )
                    job = SimJob(
                        design=point.accelerator,
                        config=point.config,
                        spec=spec,
                        scale=scale,
                        seed=spec.deterministic_seed(settings.seed_salt),
                        layer_name=spec.name,
                    )
                else:
                    a, b = workload.operands()
                    job = SimJob(
                        design=point.accelerator,
                        config=point.config,
                        a=a,
                        b=b,
                        layer_name=workload.name,
                    )
                jobs.append(job)
                meta.append(
                    {
                        "workload": workload_name,
                        "design_point": point_name,
                        "family": point.family,
                        "design": point.accelerator,
                    }
                )
        return jobs, meta

    # ------------------------------------------------------------------
    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form (designs already resolved to explicit names)."""
        return {
            "workloads": list(self.workloads),
            "designs": list(self.designs),
            "scale": self.scale,
        }

    @classmethod
    def from_record(cls, record: dict) -> "DseSpec":
        """Inverse of :meth:`to_record`."""
        return cls(**record)

    def key(self) -> str:
        """Stable content hash identifying this campaign across processes.

        Workloads contribute their content digests (operand bytes for
        matrices, generator parameters for synthetic specs) and design
        points their full configuration records — never registry state or
        file paths, so the key survives re-registration order and host
        layout differences.  A ``"kind"`` discriminator keeps the key space
        disjoint from sweeps and figure queries.
        """
        payload = {
            "kind": self.kind,
            "workloads": [
                {"name": name, "digest": get_workload(name).digest()}
                for name in self.workloads
            ],
            "designs": [get_design_point(name).to_record() for name in self.designs],
            "scale": self.scale,
        }
        encoded = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(encoded.encode()).hexdigest()


# ----------------------------------------------------------------------
# Report collation
# ----------------------------------------------------------------------
def collate_dse(spec: DseSpec, meta: list[dict[str, str]], results: list) -> dict:
    """Fold per-job results into the deterministic Pareto report.

    ``meta`` and ``results`` are parallel lists in :meth:`DseSpec.compile`
    order.  Returns ``{"rows", "points", "frontier"}``: per-(workload,
    design point) rows, per-design-point aggregates with analytical
    area/power, and the Pareto frontiers (design-point names, cheapest
    first) of total cycles vs. area and vs. power.
    """
    rows: list[Row] = []
    totals: dict[str, float] = {}
    for entry, result in zip(meta, results):
        point = get_design_point(entry["design_point"])
        cycles = float(result.total_cycles)
        rows.append(
            {
                "workload": entry["workload"],
                "design_point": entry["design_point"],
                "family": entry["family"],
                "design": entry["design"],
                "dataflow": result.dataflow.name,
                "cycles": cycles,
                "seconds": point.config.cycles_to_seconds(cycles),
            }
        )
        totals[entry["design_point"]] = totals.get(entry["design_point"], 0.0) + cycles

    points: list[Row] = []
    for name in spec.designs:
        point = get_design_point(name)
        breakdown = point.area_power()
        cycles = totals.get(name, 0.0)
        points.append(
            {
                "design_point": name,
                "family": point.family,
                "total_cycles": cycles,
                "area_mm2": breakdown.total_area,
                "power_mw": breakdown.total_power,
                "perf_per_area": (
                    performance_per_area(cycles, breakdown.total_area)
                    if cycles > 0
                    else None
                ),
            }
        )

    frontier = {
        "cycles_vs_area": _pareto_front(points, "area_mm2"),
        "cycles_vs_power": _pareto_front(points, "power_mw"),
    }
    return {"rows": rows, "points": points, "frontier": frontier}


def _pareto_front(points: list[Row], metric: str) -> list[str]:
    """Design-point names on the (total_cycles, ``metric``) Pareto frontier.

    A point is kept iff no other point is at least as good on both axes and
    strictly better on one.  The scan sorts by (cycles, metric, name) — the
    name tiebreak makes the frontier order deterministic under exact ties —
    and keeps every point that strictly improves the metric, which is the
    classic sorted-scan non-dominance test for two minimised axes.
    """
    ordered = sorted(
        points,
        key=lambda row: (row["total_cycles"], row[metric], row["design_point"]),
    )
    frontier: list[str] = []
    best = float("inf")
    for row in ordered:
        if row[metric] < best:
            frontier.append(str(row["design_point"]))
            best = row[metric]
    return frontier


def dse_report_key(spec: DseSpec, settings: ExperimentSettings) -> str:
    """Cache key of the rendered report body for (campaign, settings)."""
    return report_key("dse", spec.key(), settings)


def report_key(kind: str, request_key: str, settings: ExperimentSettings) -> str:
    """Cache key of one rendered response body: ``<kind>-`` + a content hash.

    ``kind`` is the request kind (``"figure"``, ``"sweep"`` or ``"dse"``) and
    ``request_key`` the request's own content key (``FigureQuery.key()``,
    ``SweepSpec.key()`` or ``DseSpec.key()``).  :meth:`Session.answer
    <repro.api.session.Session.answer>` stores every body it renders under
    this key and answers a repeat request with one record read.

    The prefix gives each kind its own evictable namespace
    (``python -m repro cache prune --prefix figure-|sweep-|dse-``) and keeps
    bodies out of fabric anti-entropy, which replicates only 64-hex content
    keys (a pulled peer re-renders warm from the per-job entries).  Both
    schema versions and the settings record are folded in, so a semantic
    change in the simulator, the record layout or the settings retires a
    stale body instead of serving it.  A figure or sweep key also folds in
    :func:`grid_tables_digest`, so editing a model, layer or CPU-baseline
    entry retires its bodies just as it re-keys their jobs; a campaign key
    already holds its workloads' content and design configurations, so the
    DSE key does not.  Code is not in any key: after editing collation,
    figure rows, static tables or the scale and sampling policy, drop the
    bodies with ``cache prune --prefix``.
    """
    payload = {
        "kind": f"{kind}-report",
        "spec": request_key,
        "settings": _settings_record(settings),
        "result_schema": RESULT_SCHEMA_VERSION,
        "cache_schema": CACHE_SCHEMA_VERSION,
    }
    if kind != "dse":
        payload["tables"] = grid_tables_digest()
    # ``default=dict`` encodes each read-only level as the dict it wraps.
    encoded = json.dumps(payload, sort_keys=True, default=dict)
    return f"{kind}-" + hashlib.sha256(encoded.encode()).hexdigest()


@functools.lru_cache(maxsize=16)
def _settings_record(settings: ExperimentSettings) -> MappingProxyType:
    """``settings.to_record()``, memoised by value and read-only at every
    level: a server keys every body under one settings value, and no
    caller can edit the record the next key is built from."""

    def read_only(record: dict) -> MappingProxyType:
        return MappingProxyType(
            {
                name: read_only(value) if isinstance(value, dict) else value
                for name, value in record.items()
            }
        )

    return read_only(settings.to_record())


@functools.cache
def grid_tables_digest() -> str:
    """sha256 of the data tables figure and sweep job grids are built from.

    The model registry (every layer and the Table 2 metadata), the nine
    representative layers and the CPU baseline's record: inputs a job key
    hashes (or a figure row reads) that no request key holds.  Computed
    once per process (a few milliseconds).
    """
    from repro.accelerators.cpu import CpuConfig
    from repro.workloads.models import MODEL_REGISTRY
    from repro.workloads.representative import REPRESENTATIVE_LAYERS

    def fields(value: object) -> object:
        if isinstance(value, enum.Enum):
            return value.value
        if is_dataclass(value):
            return vars(value)
        raise TypeError(f"cannot canonicalise {type(value).__name__} for hashing")

    tables = {
        "models": MODEL_REGISTRY,
        "layers": REPRESENTATIVE_LAYERS,
        "cpu": CpuConfig(),
    }
    encoded = json.dumps(tables, sort_keys=True, default=fields)
    return hashlib.sha256(encoded.encode()).hexdigest()
