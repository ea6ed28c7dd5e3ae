"""The benchmark's three workloads: one set-up and one timed pass each.

* ``figures_cold`` — all 13 figure/table bodies through ``Session.figure``
  from an empty result cache, on the persistent process pool.
* ``serve_warm`` — a closed loop of keep-alive connections against a fresh
  ``BackgroundServer`` per epoch, over a result cache warmed in set-up.
* ``dse_fabric`` — a cold ``DseSpec`` campaign drained over HTTP by one
  ``repro.fabric.Worker`` running in this process.

A scenario's ``setup()`` does everything that precedes the first timed
operation (imports, pool fork, server or worker start, cache pre-warm);
``run_pass()`` does one timed unit of work plus its untimed preparation and
output checks, and returns a :class:`PassResult`.  Work that must not leak
from one pass into the next (operand memo, pool workers, cache directory,
fabric coordinator) is rebuilt before each pass's clock starts.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import FigureQuery, Session, SweepSpec
from repro.api.figures import figure_ids
from repro.dse.designs import default_design_points
from repro.dse.explore import DseSpec, dse_report_key
from repro.dse.workloads import gnn_adjacency, register_workload, transformer_pruning
from repro.engine_vec import kernels  # noqa: F401  (imports SciPy during set-up)
from repro.experiments.settings import ExperimentSettings
from repro.fabric import Coordinator, WorkQueue, reset_shared_fabric, set_shared_coordinator
from repro.fabric.worker import Worker
from repro.runtime import CPU_DESIGN, DESIGN_ORDER, BatchRunner, ResultCache
from repro.runtime.pool import reset_shared_pool, shared_pool
from repro.serve import BackgroundServer, JobManager
from repro.workloads.layers import _materialize_cached
from repro.workloads.models import MODEL_REGISTRY
from repro.workloads.representative import REPRESENTATIVE_LAYERS

#: The engine-bench settings every workload simulates at.
MAX_DENSE_MACS = 2e6
MAX_LAYERS_PER_MODEL = 8

#: Response header that reports simulation jobs a serve answer executed.
EXECUTED_HEADER = "X-Repro-Jobs-Executed"


def settings_for(seed: int) -> ExperimentSettings:
    """The benchmark settings; the seed only salts synthetic operand generation."""
    return ExperimentSettings(
        max_dense_macs=MAX_DENSE_MACS,
        max_layers_per_model=MAX_LAYERS_PER_MODEL,
        seed_salt=seed,
    )


def _simulated_cycles(result) -> float:
    total = getattr(result, "total_cycles", None)  # CPU results carry only cycles
    return float(result.cycles if total is None else total)


class CountingRunner(BatchRunner):
    """A ``BatchRunner`` that keeps the simulated cycles of every result it returns.

    Only the results handed back to the caller are counted, never nested
    trial runs, so the totals describe the workload's answers.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.cycles: list[float] = []
        self._cycles_lock = threading.Lock()

    def run(self, jobs, on_result=None):
        results = super().run(jobs, on_result=on_result)
        cycles = [_simulated_cycles(result) for result in results]
        with self._cycles_lock:
            self.cycles.extend(cycles)
        return results

    def sim_counts(self) -> dict[str, float]:
        with self._cycles_lock:
            # fsum is exact, so the total does not depend on the order in
            # which concurrent runs returned.
            return {"sim.results": len(self.cycles), "sim.cycles_total": math.fsum(self.cycles)}


@dataclass
class PassResult:
    """One timed pass: its window, output digest, exact counts and checks."""

    #: The measured window on the ``perf_counter`` clock.
    start: float
    end: float
    digest: str
    counts: dict[str, float]
    attempted: int
    failed: int = 0
    #: Per-request latencies in seconds (``serve_warm`` only).
    latencies: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class WorkDir:
    """Scratch directories inside the checkout, removed when the run ends."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._serial = 0

    def fresh(self, label: str) -> Path:
        self._serial += 1
        path = self.root / f"{label}-{self._serial}"
        path.mkdir(parents=True)
        return path

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _fork_pool(workers: int) -> None:
    """Replace the shared process pool and fork all of its workers now."""
    reset_shared_pool()
    # A fork-context executor launches every worker on its first submit.
    shared_pool().executor(workers).submit(os.getpid).result()


def _pin_to_one_cpu() -> None:
    """Run this thread, and every thread it starts from now on, on one CPU.

    ``serve_warm`` and ``dse_fabric`` do all their timed work in this process
    under the GIL, so their CPU time equals their wall time and a second CPU
    adds only cross-CPU thread wake-ups, whose latency swings with the load
    other tenants put on a shared host.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return digest.hexdigest()


def _nested_entries(cache_dir: Path, top_level: int, reports: int = 0) -> int:
    """Engine runs a pass stored: cache entries beyond its answers and reports."""
    return ResultCache(cache_dir).entry_count() - top_level - reports


# ----------------------------------------------------------------------
# figures_cold
# ----------------------------------------------------------------------
class FiguresCold:
    """All figure/table bodies from an empty cache, a fresh pool and no memo."""

    name = "figures_cold"

    def __init__(self, work: WorkDir, seed: int, workers: int, serial: bool) -> None:
        self.work = work
        self.settings = settings_for(seed)
        self.workers = workers
        #: Serial passes run every job in this process, where a trace sees it.
        self.serial = serial
        self._pool_used = False

    def setup(self) -> None:
        self._prepare()

    def _prepare(self) -> None:
        _materialize_cached.cache_clear()  # before the fork, so workers start empty
        if not self.serial:
            _fork_pool(self.workers)
        self._pool_used = False

    def run_pass(self, recorder=None) -> PassResult:
        del recorder  # the trace wrappers see this pass without help
        if self._pool_used:
            self._prepare()
        self._pool_used = True
        cache_dir = self.work.fresh("figures-cache")
        runner = CountingRunner(
            parallel=not self.serial,
            max_workers=self.workers,
            cache=ResultCache(cache_dir),
            pool_mode="persistent",
            schedule="cost",
        )
        session = Session(self.settings, runner=runner)
        start = time.perf_counter()
        bodies = [session.figure(figure).to_json() for figure in figure_ids()]
        end = time.perf_counter()
        executed = runner.stats.executed
        counts = {
            **runner.sim_counts(),
            "runtime.jobs_executed": executed,
            "runtime.engine_runs_executed": _nested_entries(cache_dir, executed),
        }
        shutil.rmtree(cache_dir, ignore_errors=True)
        return PassResult(
            start=start,
            end=end,
            digest=_sha256(bodies),
            counts=counts,
            attempted=len(bodies),
        )

    def close(self) -> None:
        reset_shared_pool()


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------
#: Design subsets crossed with each model and each representative layer.
MODEL_DESIGN_SUBSETS = (
    DESIGN_ORDER + (CPU_DESIGN,),
    ("Flexagon",),
    ("SIGMA-like", "SpArch-like", "GAMMA-like"),
)
LAYER_DESIGN_SUBSETS = (DESIGN_ORDER, ("GAMMA-like", "Flexagon"))

#: Small synthetic workloads of the warm DSE campaigns.
SERVE_DSE_WORKLOADS = (
    transformer_pruning("perfbench-serve-xf", d_model=256, d_ff=512, seq_len=64),
    gnn_adjacency("perfbench-serve-gnn", nodes=512, avg_degree=4.0, features=64),
)
SERVE_DSE_CAMPAIGNS = (
    (("perfbench-serve-xf",), ("base", "xbar16", "xbar32")),
    (("perfbench-serve-gnn",), ("base", "mem-c256k-p128k", "3d-x2")),
    (("perfbench-serve-xf", "perfbench-serve-gnn"), ("xbar128", "3d-x4")),
)


@dataclass(frozen=True)
class CatalogueEntry:
    """One request of the serve catalogue and the bytes it must answer with."""

    method: str
    path: str
    payload: bytes | None
    request: object  # FigureQuery, SweepSpec or DseSpec


def serve_catalogue() -> list[CatalogueEntry]:
    """Every request one ``serve_warm`` epoch sends, in a fixed order."""
    entries = [
        CatalogueEntry("GET", f"/v1/figure/{figure}", None, FigureQuery(figure))
        for figure in figure_ids()
    ]
    sweeps = [
        SweepSpec(models=(model,), designs=designs)
        for model in MODEL_REGISTRY
        for designs in MODEL_DESIGN_SUBSETS
    ] + [
        SweepSpec(layers=(layer.name,), designs=designs)
        for layer in REPRESENTATIVE_LAYERS
        for designs in LAYER_DESIGN_SUBSETS
    ]
    for spec in sweeps:
        payload = json.dumps(spec.to_record()).encode()
        entries.append(CatalogueEntry("POST", "/v1/sweep", payload, spec))
    for workloads, designs in SERVE_DSE_CAMPAIGNS:
        spec = DseSpec(workloads=workloads, designs=designs)
        payload = json.dumps(spec.to_record()).encode()
        entries.append(CatalogueEntry("POST", "/v1/dse", payload, spec))
        entries.append(CatalogueEntry("GET", f"/v1/dse/{spec.key()}", None, spec))
    return entries


class ServeWarm:
    """Warm answers from a fresh server instance per epoch."""

    name = "serve_warm"

    def __init__(self, work: WorkDir, seed: int, workers: int, serial: bool) -> None:
        del serial  # every epoch is warm; nothing executes in a pool
        self.work = work
        self.settings = settings_for(seed)
        self.connections = workers
        self.workers = workers
        self.rng = random.Random(seed)
        self.catalogue: list[CatalogueEntry] = []
        self.expected: list[bytes] = []
        self.cache_dir: Path | None = None

    def setup(self) -> None:
        for workload in SERVE_DSE_WORKLOADS:
            register_workload(workload)
        self.catalogue = serve_catalogue()
        self.cache_dir = self.work.fresh("serve-cache")
        # Pre-warm: compute every grid the catalogue reads, on the pool.
        _fork_pool(self.workers)
        warm = Session(
            self.settings,
            runner=BatchRunner(
                parallel=True,
                max_workers=self.workers,
                cache=ResultCache(self.cache_dir),
                pool_mode="persistent",
            ),
        )
        for figure in figure_ids():
            warm.figure(figure)
        for entry in self.catalogue:
            if entry.method == "POST" and isinstance(entry.request, DseSpec):
                warm.dse(entry.request)
        reset_shared_pool()
        # The bytes each answer must have: rendered in-process by a fresh
        # instance over the warm cache, exactly as the server will.
        manager = JobManager(
            Session(
                self.settings,
                runner=BatchRunner(parallel=False, cache=ResultCache(self.cache_dir)),
            )
        )
        try:
            for entry in self.catalogue:
                if entry.method == "GET" and isinstance(entry.request, DseSpec):
                    key = dse_report_key(entry.request, self.settings)
                    body = ResultCache(self.cache_dir).get_blob(key)
                    executed = 0
                else:
                    body, executed = manager.render(entry.request)
                if body is None or executed:
                    raise RuntimeError(f"set-up left {entry.path} cold")
                self.expected.append(body)
        finally:
            manager.close()
        _pin_to_one_cpu()
        self._connect_probe()

    def _connect_probe(self) -> None:
        """Start one instance and answer one request, so the first epoch is
        not the first time this process serves HTTP."""
        with BackgroundServer(self._session()) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            try:
                conn.request("GET", "/healthz")
                conn.getresponse().read()
            finally:
                conn.close()

    def _session(self, runner: BatchRunner | None = None) -> Session:
        runner = runner or BatchRunner(parallel=False, cache=ResultCache(self.cache_dir))
        return Session(self.settings, runner=runner)

    def run_pass(self, recorder=None) -> PassResult:
        order = self.rng.sample(range(len(self.catalogue)), len(self.catalogue))
        runner = CountingRunner(parallel=False, cache=ResultCache(self.cache_dir))
        server = BackgroundServer(self._session(runner)).__enter__()
        outcomes: list[tuple[float, bool, int, bytes]] = [None] * len(order)  # type: ignore[list-item]
        try:
            connections = [
                http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
                for _ in range(self.connections)
            ]
            for conn in connections:
                conn.connect()
            cursor = iter(range(len(order)))
            cursor_lock = threading.Lock()
            errors: list[BaseException] = []

            def client(conn: http.client.HTTPConnection) -> None:
                try:
                    while True:
                        with cursor_lock:
                            slot = next(cursor, None)
                        if slot is None:
                            return
                        index = order[slot]
                        outcomes[slot] = self._exchange(conn, index, recorder)
                except BaseException as error:  # reported as failed requests
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(conn,), name=f"perfbench-client-{n}")
                for n, conn in enumerate(connections)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()
            for conn in connections:
                conn.close()
        finally:
            server.close(drain=0)
        done = [outcome for outcome in outcomes if outcome is not None]
        failed = len(order) - sum(1 for _latency, ok, _executed, _body in done if ok)
        notes = [f"client error: {error!r}" for error in errors]
        counts = {
            **runner.sim_counts(),
            "runtime.jobs_executed": sum(executed for _l, _ok, executed, _b in done),
            "runtime.engine_runs_executed": 0,
        }
        # The answers in catalogue order, whatever order they were sent in.
        bodies = [b""] * len(order)
        for slot, outcome in enumerate(outcomes):
            if outcome is not None:
                bodies[order[slot]] = outcome[3]
        return PassResult(
            start=start,
            end=end,
            digest=_sha256(bodies),
            counts=counts,
            attempted=len(order),
            failed=failed,
            latencies=[latency for latency, _ok, _executed, _body in done],
            notes=notes,
        )

    def _exchange(self, conn, index: int, recorder) -> tuple[float, bool, int, bytes]:
        """Send one catalogue request; ``(latency, answer correct, executed, body)``."""
        entry = self.catalogue[index]
        headers = {"Content-Type": "application/json"} if entry.payload else {}
        span = None
        if recorder is not None:
            span = recorder.client_request()
            headers["X-Request-Id"] = span.request_id
        start = time.perf_counter()
        conn.request(entry.method, entry.path, body=entry.payload, headers=headers)
        response = conn.getresponse()
        body = response.read()
        latency = time.perf_counter() - start
        if span is not None:
            recorder.close(span)
        executed = response.getheader(EXECUTED_HEADER)
        ok = (
            response.status == 200
            and executed == "0"
            and body == self.expected[index]
        )
        if recorder is not None:
            recorder.count("serve.ok", int(ok))
        executed_jobs = int(executed) if executed and executed.isdigit() else 0
        return latency, ok, executed_jobs, body

    def close(self) -> None:
        reset_shared_pool()


# ----------------------------------------------------------------------
# dse_fabric
# ----------------------------------------------------------------------
def dse_workloads() -> tuple[str, ...]:
    """Register the campaign's synthetic workloads; returns their names.

    Transformer-pruning and GNN-adjacency shapes at eight sizes each, so
    the campaign mixes heavy-tailed and power-law sparsity across scales.
    """
    names = []
    for index in range(8):
        workload = transformer_pruning(
            f"perfbench-xf-{index}",
            seq_len=128 + 64 * index,
            weight_sparsity=0.70 + 0.03 * index,
        )
        names.append(register_workload(workload).name)
    for index in range(8):
        workload = gnn_adjacency(
            f"perfbench-gnn-{index}",
            nodes=1024 + 256 * index,
            avg_degree=4.0 + index,
        )
        names.append(register_workload(workload).name)
    return tuple(names)


class DseFabric:
    """A cold campaign drained over loopback HTTP by one in-process worker."""

    name = "dse_fabric"

    #: Idle poll of the fabric worker between claims.
    POLL_SECONDS = 0.005

    def __init__(self, work: WorkDir, seed: int, workers: int, serial: bool) -> None:
        del serial  # the single fabric worker already runs in this process
        self.work = work
        self.settings = settings_for(seed)
        self.workers = workers
        self.spec: DseSpec | None = None
        self.coordinator: Coordinator | None = None
        self.worker: Worker | None = None
        self._worker_thread: threading.Thread | None = None

    def setup(self) -> None:
        _pin_to_one_cpu()
        self.spec = DseSpec(workloads=dse_workloads(), designs=default_design_points())
        self._start_fabric()

    def _start_fabric(self) -> None:
        """A new coordinator, listener and worker, each with empty state."""
        _materialize_cached.cache_clear()
        self.coordinator = Coordinator(WorkQueue(lease_seconds=60.0))
        set_shared_coordinator(self.coordinator)
        url = self.coordinator.ensure_listener(host="127.0.0.1", port=0)
        self.worker = Worker(
            url,
            worker_id="perfbench-worker",
            cache_dir=self.work.fresh("worker-cache"),
            poll_seconds=self.POLL_SECONDS,
        )
        self._worker_thread = threading.Thread(
            target=self.worker.run, name="perfbench-fabric-worker"
        )
        self._worker_thread.start()

    def _stop_fabric(self) -> None:
        if self.worker is not None:
            self.worker.stop.set()
            self._worker_thread.join()
            shutil.rmtree(self.worker.cache_dir, ignore_errors=True)
            self.worker = None
        if self.coordinator is not None:
            reset_shared_fabric()
            self.coordinator = None

    def run_pass(self, recorder=None) -> PassResult:
        del recorder  # the trace wrappers see this pass without help
        if self.worker is None:
            self._start_fabric()
        cache_dir = self.work.fresh("coordinator-cache")
        runner = CountingRunner(
            parallel=True,
            max_workers=self.workers,
            cache=ResultCache(cache_dir),
            pool_mode="remote",
        )
        session = Session(self.settings, runner=runner)
        start = time.perf_counter()
        body = session.dse(self.spec).to_json()
        end = time.perf_counter()
        executed = runner.stats.executed
        queue = self.coordinator.queue.snapshot()
        rejected = queue["rejected_uploads"] + queue["requeued_leases"]
        counts = {
            **runner.sim_counts(),
            "runtime.jobs_executed": executed,
            "runtime.engine_runs_executed": _nested_entries(cache_dir, executed, reports=1),
            "fabric.rejected": rejected,
        }
        troubles = (
            rejected
            + queue["failed_items"]
            + self.worker.report.rejected
            + self.worker.report.errors
        )
        notes = [] if not troubles else [f"fabric trouble: {queue} {self.worker.report}"]
        # Stopped between passes, so that the idle worker's polling does not
        # compete with the set-up samples taken there.
        self._stop_fabric()
        shutil.rmtree(cache_dir, ignore_errors=True)
        return PassResult(
            start=start,
            end=end,
            digest=_sha256([body]),
            counts=counts,
            attempted=1,
            failed=int(bool(troubles)),
            notes=notes,
        )

    def close(self) -> None:
        self._stop_fabric()


SCENARIOS = {cls.name: cls for cls in (FiguresCold, ServeWarm, DseFabric)}
