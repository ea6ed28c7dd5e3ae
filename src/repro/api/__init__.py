"""The public API facade of the Flexagon reproduction.

Everything a consumer needs funnels through four concepts:

* :class:`Session` — the single object users construct; owns the experiment
  settings, the batched runner and the persistent result cache.
* :class:`SweepSpec` / :class:`FigureQuery` / :class:`DseSpec` — declarative,
  hashable request objects that compile down to
  :class:`~repro.runtime.SimJob` grids and are answered straight from the
  cache when it is warm.
* :class:`FigureResult` / :class:`SweepResult` / :class:`DseResult` — typed,
  JSON-round-trippable response records (versioned schema) that can cross
  process and service boundaries.
* ``python -m repro`` — the CLI over the same facade (``figure``, ``sweep``,
  ``dse``, ``cache stats|clear|prune``, ``list``).

Quick tour::

    from repro.api import FigureQuery, Session, SweepSpec

    session = Session()
    print(session.figure(FigureQuery("fig12")).to_json())
    sweep = session.sweep(SweepSpec(models="SQ", designs=("Flexagon",)))
"""

from repro.api.figures import FIGURES, FigureDef, figure_ids, get_figure
from repro.api.requests import (
    SWEEPABLE_DESIGNS,
    FigureQuery,
    SweepSpec,
    normalize_figure_id,
)
from repro.api.responses import (
    DseResult,
    FigureResult,
    SweepResult,
    canonical_json,
    jsonify_rows,
    sweep_row,
)
from repro.api.session import Session
from repro.dse.explore import DseSpec, dse_report_key

__all__ = [
    "DseResult",
    "DseSpec",
    "dse_report_key",
    "FIGURES",
    "FigureDef",
    "figure_ids",
    "get_figure",
    "SWEEPABLE_DESIGNS",
    "FigureQuery",
    "SweepSpec",
    "normalize_figure_id",
    "FigureResult",
    "SweepResult",
    "canonical_json",
    "jsonify_rows",
    "sweep_row",
    "Session",
]
