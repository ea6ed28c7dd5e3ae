"""The :class:`Session` facade: one object over settings, runner and cache.

A session owns the three pieces every consumer of the reproduction needs —
an :class:`~repro.experiments.ExperimentSettings`, a
:class:`~repro.runtime.BatchRunner` and (through the runner) a
:class:`~repro.runtime.ResultCache` — and exposes the public operations:

* :meth:`Session.figure` — answer a :class:`~repro.api.requests.FigureQuery`
  (e.g. ``session.figure("fig12")``).  When the runtime cache is warm the
  answer involves **zero** simulator executions.
* :meth:`Session.sweep` — run a declarative
  :class:`~repro.api.requests.SweepSpec` grid.
* :meth:`Session.dse` — run a :class:`~repro.dse.explore.DseSpec`
  design-space-exploration campaign into its Pareto report.
* :meth:`Session.answer` — any of the three as its canonical response body:
  a body rendered once over the same cache and settings is stored, and every
  later answer is that one record read — no grid compile, no job keys, no
  job entries read.
* :meth:`Session.end_to_end` / :meth:`Session.layerwise` — the two shared
  experiment grids behind the paper's figures, memoized per session.
* :meth:`Session.simulate` — ad-hoc simulation of one explicit operand pair
  across designs (the quickstart workflow).
* :meth:`Session.cache_stats` / :meth:`Session.clear_cache` /
  :meth:`Session.prune_cache` — result-cache maintenance.
"""

from __future__ import annotations

import threading

from repro.api.figures import FigureDef, figure_ids, get_figure
from repro.api.requests import FigureQuery, SweepSpec
from repro.api.responses import (
    DseResult,
    FigureResult,
    SweepResult,
    jsonify_rows,
    sweep_row,
)
from repro.dse.explore import DseSpec, collate_dse, report_key
from repro.arch.config import AcceleratorConfig
from repro.experiments.end_to_end import (
    EndToEndResults,
    collate_end_to_end,
    end_to_end_jobs,
)
from repro.experiments.layerwise import (
    LayerwiseResults,
    collate_layerwise,
    layerwise_jobs,
)
from repro.experiments.settings import ExperimentSettings, default_settings
from repro.metrics.results import LayerSimResult
from repro.runtime import (
    DESIGN_ORDER,
    BatchRunner,
    PruneReport,
    ResultCache,
    RunnerStats,
    SimJob,
)
from repro.sparse.formats import CompressedMatrix

#: Sentinel so ``cache=None`` can explicitly mean "run without a cache".
_DEFAULT = object()

#: A request any of the typed methods answers (a bare string is a figure id).
#: Each class carries its ``kind`` (``"figure"``, ``"sweep"`` or ``"dse"``):
#: the typed method that renders it and the namespace its body is stored in.
Request = FigureQuery | SweepSpec | DseSpec


class _ExecutionCounter:
    """Per-call executed-job counter fed by run-progress callbacks.

    The runner's ``on_result`` fires once after the cache scan and then once
    per job executed in *that* ``run`` call, so counting invocations past
    the first measures this request's own executions — unlike a delta over
    the session-wide :class:`RunnerStats`, which concurrent requests on the
    same session would corrupt.
    """

    def __init__(self, forward=None) -> None:
        self.executed = 0
        self._scan_seen = False
        self._forward = forward

    def __call__(self, done: int, total: int) -> None:
        if self._scan_seen:
            self.executed += 1
        else:
            self._scan_seen = True
        if self._forward is not None:
            self._forward(done, total)


class Session:
    """Facade over the experiment settings, batch runner and result cache.

    Construct one per logical unit of work::

        from repro.api import Session, FigureQuery

        session = Session()                       # env-configured runner+cache
        fig12 = session.figure(FigureQuery("fig12"))
        print(fig12.to_json())

    ``runner`` wins when given; otherwise a :class:`BatchRunner` is built
    from ``parallel`` / ``max_workers`` / ``cache`` (each defaulting to the
    environment knobs documented in :mod:`repro.runtime.runner`).
    """

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        *,
        runner: BatchRunner | None = None,
        parallel: bool | None = None,
        max_workers: int | None = None,
        cache: ResultCache | None | object = _DEFAULT,
    ) -> None:
        self.settings = settings or default_settings()
        if runner is None:
            kwargs: dict = {"parallel": parallel, "max_workers": max_workers}
            if cache is not _DEFAULT:
                kwargs["cache"] = cache
            runner = BatchRunner(**kwargs)
        elif parallel is not None or max_workers is not None or cache is not _DEFAULT:
            raise ValueError("pass either a runner or runner knobs, not both")
        self.runner = runner
        self._end_to_end: EndToEndResults | None = None  # guarded-by: _grid_lock
        self._layerwise: LayerwiseResults | None = None  # guarded-by: _grid_lock
        # Sessions are shared between threads (the serving front-end answers
        # every request through one), so the two grid memos are guarded: the
        # first caller computes, concurrent callers block and then reuse the
        # same results object.  Reentrant because a figure query may resolve
        # both grids in one call chain.
        self._grid_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache(self) -> ResultCache | None:
        """The result cache the session's runner answers from (if any)."""
        return self.runner.cache

    @property
    def stats(self) -> RunnerStats:
        """Job counters accumulated by the session's runner."""
        return self.runner.stats

    def figures(self) -> list[str]:
        """Identifiers of every figure/table :meth:`figure` can answer."""
        return figure_ids()

    # ------------------------------------------------------------------
    # Raw job access (the escape hatch down to the runtime layer)
    # ------------------------------------------------------------------
    def run(self, jobs: list[SimJob], on_result=None) -> list:
        """Run a raw job grid through the session's runner.

        ``on_result(done, total)`` — when given (or configured runner-wide
        via ``BatchRunner(on_result=...)``) — observes batch progress live:
        once after the cache scan, then after every result that lands.
        """
        return self.runner.run(jobs, on_result=on_result)

    def simulate(
        self,
        a: CompressedMatrix,
        b: CompressedMatrix,
        *,
        designs: tuple[str, ...] = DESIGN_ORDER,
        config: AcceleratorConfig | None = None,
        layer_name: str = "",
    ) -> list[LayerSimResult]:
        """Simulate one explicit operand pair on each design, in order."""
        config = config or self.settings.config
        jobs = [
            SimJob(
                design=design,
                config=config,
                a=a,
                b=b,
                layer_name=layer_name,
            )
            for design in designs
        ]
        return self.run(jobs)

    # ------------------------------------------------------------------
    # The shared experiment grids (memoized per session)
    # ------------------------------------------------------------------
    def end_to_end(self, on_result=None) -> EndToEndResults:
        """The end-to-end grid (Figs. 1/12/18, Table 2), run at most once.

        ``on_result(done, total)`` observes the grid run's progress when this
        call is the one that computes it; a caller that arrives while (or
        after) another thread computes the grid reuses the memo and its
        callback is never invoked.
        """
        with self._grid_lock:
            if self._end_to_end is None:
                jobs, configs, sampled_specs = end_to_end_jobs(self.settings)
                results = self.runner.run(jobs, on_result=on_result)
                self._end_to_end = collate_end_to_end(
                    self.settings, configs, sampled_specs, results
                )
            return self._end_to_end

    def layerwise(self, on_result=None) -> LayerwiseResults:
        """The layer-wise grid (Figs. 13-16), run at most once.

        ``on_result`` behaves as in :meth:`end_to_end`.
        """
        with self._grid_lock:
            if self._layerwise is None:
                jobs, scales = layerwise_jobs(self.settings)
                results = self.runner.run(jobs, on_result=on_result)
                self._layerwise = collate_layerwise(self.settings, scales, results)
            return self._layerwise

    # ------------------------------------------------------------------
    # Declarative requests
    # ------------------------------------------------------------------
    def figure(self, query: FigureQuery | str, *, on_result=None) -> FigureResult:
        """Answer one figure/table query.

        All simulation goes through the session's runner, so a warm result
        cache answers the query without executing a single job — the
        serving-from-cache behaviour of the ``python -m repro figure`` CLI.
        ``on_result(done, total)`` observes the underlying grid run live (the
        serving front-end streams it as job progress).
        """
        if isinstance(query, str):
            query = FigureQuery(query)
        definition = get_figure(query.figure)
        rows = self._figure_rows(definition, on_result)
        return FigureResult(
            figure=definition.figure,
            title=definition.title,
            rows=jsonify_rows(rows),
            settings=self.settings.to_record(),
        )

    def _figure_rows(self, definition: FigureDef, on_result=None) -> list[dict]:
        if definition.kind == "end_to_end":
            return definition.rows(self.end_to_end(on_result=on_result))
        if definition.kind == "layerwise":
            return definition.rows(self.layerwise(on_result=on_result))
        if definition.kind == "area":
            return definition.rows(self.settings.config)
        assert definition.kind == "static", definition.kind
        return definition.rows()

    def sweep(self, spec: SweepSpec, *, on_result=None) -> SweepResult:
        """Run a declarative sweep grid and return its labelled rows.

        ``on_result(done, total)`` observes the grid run live, exactly as in
        :meth:`run`.
        """
        jobs, meta = spec.compile(self.settings)
        results = self.runner.run(jobs, on_result=on_result)
        rows = [
            sweep_row(job_meta, result, config=job.config)
            for job_meta, job, result in zip(meta, jobs, results)
        ]
        return SweepResult(
            spec=spec.to_record(),
            rows=jsonify_rows(rows),
            settings=self.settings.to_record(),
        )

    def dse(self, spec: DseSpec, *, on_result=None) -> DseResult:
        """Run a design-space-exploration campaign and return its Pareto report.

        The (workload x design point) grid goes through the session's runner
        exactly like a sweep, so cost scheduling, crash-resume, remote
        fan-out and the result cache all apply; a warm cache answers the
        whole campaign with zero engine executions.  The rendered report
        body is stored under :func:`~repro.dse.explore.dse_report_key`, the
        key :meth:`answer` reads, so ``GET /v1/dse/<key>`` and any later
        :meth:`answer` serve it byte-identically without recollating —
        including campaigns run from the CLI against the same cache
        directory.
        """
        result = self._dse(spec, on_result=on_result)
        self._store("dse", spec.key(), result)
        return result

    def _dse(self, spec: DseSpec, *, on_result=None) -> DseResult:
        """:meth:`dse` without the store (what :meth:`render_body` renders)."""
        jobs, meta = spec.compile(self.settings)
        results = self.runner.run(jobs, on_result=on_result)
        report = collate_dse(spec, meta, results)
        return DseResult(
            spec=spec.to_record(),
            rows=jsonify_rows(report["rows"]),
            points=jsonify_rows(report["points"]),
            frontier=report["frontier"],
            settings=self.settings.to_record(),
        )

    def answer(self, request: Request | str, *, on_result=None) -> tuple[bytes, int]:
        """``(body, executed)``: the canonical response body of ``request``.

        The body is the response record's canonical JSON plus a newline —
        the bytes ``python -m repro figure|sweep|dse`` prints and the serving
        front-end sends.  When the cache holds a body stored for the same
        request and settings (:meth:`stored_body`), that is the answer, with
        0 executed: no grid is compiled, no job keyed and no job entry read.
        Otherwise the request is rendered through :meth:`figure`,
        :meth:`sweep` or :meth:`dse` and its body stored for the next call.

        ``executed`` counts the jobs this call ran, from its own progress
        stream, so concurrent answers on one session never bleed into each
        other's count; ``on_result(done, total)`` observes that stream.

        The two halves are public for the serving front-end, which probes
        (:meth:`stored_body`) and renders (:meth:`render_body`) as separate
        steps with its warmth check in between.
        """
        if isinstance(request, str):
            request = FigureQuery(request)
        request_key = request.key()
        body = self.stored_body(request.kind, request_key)
        if body is not None:
            return body, 0
        return self.render_body(request, request_key, on_result=on_result)

    def stored_body(self, kind: str, request_key: str) -> bytes | None:
        """The body :meth:`answer` stored for a request, or ``None``.

        Addressed by the request's kind and content key under this session's
        settings (:func:`~repro.dse.explore.report_key`); the read is
        checksummed, so a damaged record is a miss and the next
        :meth:`answer` renders it again.
        """
        if self.cache is None:
            return None
        return self.cache.get_blob(report_key(kind, request_key, self.settings))

    def render_body(
        self, request: Request, request_key: str, *, on_result=None
    ) -> tuple[bytes, int]:
        """``(body, executed)`` rendered afresh, then stored with one put.

        :meth:`answer` without the probe, for a caller that has already
        found no stored body: ``request`` (content key ``request_key``) goes
        through the typed method its ``kind`` names — :meth:`figure`,
        :meth:`sweep`, or :meth:`dse` without its own store — and its
        canonical body is stored for the next :meth:`answer` or
        :meth:`stored_body`.
        """
        # :meth:`dse` stores its own report; ``_dse`` is its render alone.
        render = self._dse if request.kind == "dse" else getattr(self, request.kind)
        counter = _ExecutionCounter(on_result)
        result = render(request, on_result=counter)
        return self._store(request.kind, request_key, result), counter.executed

    def _store(
        self, kind: str, request_key: str, result: FigureResult | SweepResult | DseResult
    ) -> bytes:
        """Encode ``result`` as its canonical body and store it with one put."""
        body = (result.to_json() + "\n").encode("utf-8")
        if self.cache is not None:
            self.cache.put_blob(report_key(kind, request_key, self.settings), body)
        return body

    def required_jobs(self, request: Request | str) -> list[SimJob]:
        """The simulation jobs answering ``request`` would submit right now.

        The serving front-end's warmth probe: combined with
        :meth:`ResultCache.missing` over the jobs' keys it classifies a
        request as cache-warm (answer synchronously, zero executions) or
        cold (run in the background) without executing anything.  Returns
        ``[]`` for static/area figures and for grids this session has
        already memoized.

        Deliberately does **not** take the grid lock: a probe must stay
        responsive while another thread is mid-computation, and the plain
        memo read is safe — at worst a concurrent computation finishes just
        after the read and the "required" jobs all turn out to be cache
        hits, which the serving path handles anyway.
        """
        if isinstance(request, str):
            request = FigureQuery(request)
        if request.kind != "figure":
            jobs, _meta = request.compile(self.settings)
            return jobs
        definition = get_figure(request.figure)
        if definition.kind == "end_to_end" and self._end_to_end is None:  # repro: allow[lock-discipline]
            return end_to_end_jobs(self.settings)[0]
        if definition.kind == "layerwise" and self._layerwise is None:  # repro: allow[lock-discipline]
            return layerwise_jobs(self.settings)[0]
        return []

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, object] | None:
        """Disk-cache layout telemetry plus the session runner's counters.

        One scan of the cache directory (entry/byte totals, segment and
        pack counts, scan wall-clock) under ``"cache"`` keys, with
        ``write_failures``: the puts through this session's cache that
        failed (this process's own writes; pool workers' are not counted).
        The runner's lifetime counters — including the ``exec_seconds`` /
        ``cache_scan_seconds`` / ``peak_in_flight`` wall-clock telemetry —
        go under ``"runner"``.  ``None`` when the session runs without a
        cache.
        """
        if self.cache is None:
            return None
        report: dict[str, object] = self.cache.stats_report()
        report["write_failures"] = self.cache.write_failures
        report["runner"] = self.stats.as_row()
        return report

    def clear_cache(self) -> int:
        """Drop every cache entry; returns how many were removed."""
        if self.cache is None:
            return 0
        return self.cache.clear()

    def prune_cache(
        self, max_size_bytes: int | None = None, *, prefix: str | None = None
    ) -> PruneReport:
        """Evict cache entries: by LRU size bound, key prefix, or both.

        See :meth:`ResultCache.prune` — ``prefix`` restricts eviction to
        keys starting with it (e.g. ``"dse-"`` drops a finished campaign's
        report bodies without touching figure results).
        """
        if self.cache is None:
            return PruneReport(0, 0, 0, 0)
        return self.cache.prune(max_size_bytes, prefix=prefix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Session(settings={self.settings!r}, runner={self.runner!r})"
