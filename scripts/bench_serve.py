"""Timed serving benchmark: warm-path latency and concurrent throughput.

Pre-warms a fresh result cache with the fig12 grid, starts the
:class:`~repro.serve.app.BackgroundServer` over it, and measures:

* **warm in-process latency** — median ``session.figure("fig12")`` render
  time with the grid memoized: the no-HTTP lower bound of the warm path.
* **warm HTTP latency** — median ``GET /v1/figure/fig12`` over one
  keep-alive connection: the same render plus the full server stack.
* **revalidation latency** — median conditional GET answered ``304``
  (the path that touches neither the cache nor the simulator).
* **concurrent throughput** — requests/second with several keep-alive
  client threads hammering the warm figure endpoint at once.
* **saturation behaviour** — with the job pool clamped to a small depth
  ``K``, fire ``4×K`` concurrent *distinct* cold sweeps and keep retrying
  per the ``Retry-After`` answers until all converge: p50/p99 admission
  latency (time to *any* decision — 202, 429 or 503, never a hang), the
  shed/admit split, and the wall-clock to full convergence.

The regression gate is the **overhead ratio** — warm HTTP latency over warm
in-process latency, i.e. how much the serving stack multiplies a warm
query's cost.  Like the engine/runtime benches, the gated quantity is
machine-*relative*, so the check stays meaningful on runners of any
absolute speed.  In ``--check`` mode the bench fails when the measured
ratio exceeds the committed baseline's by more than the tolerance.

Usage::

    PYTHONPATH=src python scripts/bench_serve.py                  # record
    PYTHONPATH=src python scripts/bench_serve.py --check BENCH_serve.json
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time

from benchgate import Bench
from repro.api import Session
from repro.experiments.settings import default_settings
from repro.runtime import BatchRunner, ResultCache
from repro.serve import BackgroundServer

FIGURE_PATH = "/v1/figure/fig12"


def _median_seconds(fn, iterations: int) -> float:
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _http_get(conn: http.client.HTTPConnection, path: str, headers=None) -> bytes:
    conn.request("GET", path, headers=headers or {})
    response = conn.getresponse()
    body = response.read()
    assert response.status in (200, 304), (path, response.status)
    return body


def measure(budget: float, max_layers: int, iterations: int, clients: int) -> dict:
    cache_dir = tempfile.mkdtemp(prefix="bench-serve-cache-")
    try:
        settings = default_settings(
            max_dense_macs=budget, max_layers_per_model=max_layers
        )
        session = Session(
            settings,
            runner=BatchRunner(parallel=False, cache=ResultCache(cache_dir)),
        )
        warm_start = time.perf_counter()
        session.figure("fig12")  # populate the cache + the session memo
        warmup_seconds = time.perf_counter() - warm_start

        inproc = _median_seconds(
            lambda: session.figure("fig12").to_json(), iterations
        )

        with BackgroundServer(session) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
            try:
                etag_holder: dict[str, str] = {}

                def over_http() -> None:
                    conn.request("GET", FIGURE_PATH)
                    response = conn.getresponse()
                    etag_holder["etag"] = response.headers["ETag"]
                    body = response.read()
                    assert response.status == 200 and body

                http_latency = _median_seconds(over_http, iterations)
                revalidate = _median_seconds(
                    lambda: _http_get(
                        conn,
                        FIGURE_PATH,
                        {"If-None-Match": etag_holder["etag"]},
                    ),
                    iterations,
                )
            finally:
                conn.close()

            requests_per_client = max(1, iterations)
            done = threading.Barrier(clients + 1)

            def client() -> None:
                worker = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=120
                )
                try:
                    for _ in range(requests_per_client):
                        _http_get(worker, FIGURE_PATH)
                finally:
                    worker.close()
                    done.wait()

            start = time.perf_counter()
            for _ in range(clients):
                threading.Thread(target=client, daemon=True).start()
            done.wait()
            elapsed = time.perf_counter() - start

        return {
            "cold_warmup_seconds": round(warmup_seconds, 3),
            "warm_inproc_ms": round(inproc * 1e3, 3),
            "warm_http_ms": round(http_latency * 1e3, 3),
            "revalidate_304_ms": round(revalidate * 1e3, 3),
            "overhead_ratio": round(http_latency / inproc, 3),
            "concurrent_clients": clients,
            "throughput_rps": round(clients * requests_per_client / elapsed, 1),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def measure_saturation(depth: int) -> dict:
    """Shed-not-deadlock under 4×depth concurrent distinct cold sweeps.

    Runs its own tiny server (5e4-MAC budget, one layer per model) with
    ``REPRO_JOB_POOL_DEPTH`` clamped to ``depth``, so every admission
    decision — accept, rate-shed, pool-shed — is exercised for real.
    Every HTTP exchange (first wave and Retry-After retries alike) is a
    latency sample: the gate of interest is that refusals are *fast*.
    """
    import concurrent.futures

    from repro.serve.quota import AdmissionControl  # noqa: F401  (knob owner)

    cache_dir = tempfile.mkdtemp(prefix="bench-serve-saturation-")
    quota_dir = tempfile.mkdtemp(prefix="bench-serve-quota-")
    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_JOB_POOL_DEPTH", "REPRO_QUOTA_DIR")
    }
    os.environ["REPRO_JOB_POOL_DEPTH"] = str(depth)
    os.environ["REPRO_QUOTA_DIR"] = quota_dir
    try:
        settings = default_settings(max_dense_macs=5e4, max_layers_per_model=1)
        session = Session(
            settings,
            runner=BatchRunner(parallel=False, cache=ResultCache(cache_dir)),
        )
        specs = [
            {"layers": [layer], "designs": [design], "scale": 0.05}
            for layer in ("A2", "R6")
            for design in ("SIGMA-like", "SpArch-like", "GAMMA-like", "CPU-MKL")
        ][: 4 * depth]
        latencies: list[float] = []
        statuses: dict[int, int] = {}
        lock = threading.Lock()

        def exchange(conn, method, path, body=None, headers=None):
            start = time.perf_counter()
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            payload = response.read()
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)
                statuses[response.status] = statuses.get(response.status, 0) + 1
            return response.status, dict(response.getheaders()), payload

        def drive(spec) -> None:
            body = json.dumps(spec).encode()
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
            try:
                deadline = time.monotonic() + 300.0
                while True:
                    status, headers, payload = exchange(
                        conn, "POST", "/v1/sweep", body
                    )
                    if status == 200:
                        return
                    if status == 202:
                        url = json.loads(payload)["url"]
                        while True:
                            status, _h, _b = exchange(conn, "GET", url)
                            if status != 202:
                                assert status == 200, status
                                return
                            time.sleep(0.02)
                    assert status in (429, 503), f"unexpected status {status}"
                    assert float(headers["Retry-After"]) >= 1
                    assert time.monotonic() < deadline, "saturated sweep never admitted"
                    time.sleep(min(1.0, float(headers["Retry-After"])))
            finally:
                conn.close()

        with BackgroundServer(session) as server:
            start = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(len(specs)) as pool:
                for outcome in pool.map(drive, specs):
                    pass  # re-raise per-spec assertion failures, if any
            converged = time.perf_counter() - start

        return {
            "saturation_pool_depth": depth,
            "saturation_cold_requests": len(specs),
            "saturation_admission_p50_ms": round(
                _percentile(latencies, 0.50) * 1e3, 3
            ),
            "saturation_admission_p99_ms": round(
                _percentile(latencies, 0.99) * 1e3, 3
            ),
            "saturation_shed_503": statuses.get(503, 0),
            "saturation_accepted_202": statuses.get(202, 0),
            "saturation_converge_seconds": round(converged, 3),
        }
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(quota_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    bench = Bench(__doc__, "BENCH_serve.json")
    bench.parser.add_argument(
        "--budget", type=float, default=2e5,
        help="per-layer dense-MAC budget of the served settings",
    )
    bench.parser.add_argument(
        "--max-layers", type=int, default=3, help="sampled layers per model"
    )
    bench.parser.add_argument(
        "--iterations", type=int, default=30,
        help="requests per latency median (and per client thread)",
    )
    bench.parser.add_argument(
        "--clients", type=int, default=8,
        help="concurrent keep-alive connections in the throughput phase",
    )
    bench.parser.add_argument(
        "--pool-depth", type=int, default=2,
        help="job-pool depth K for the saturation phase (4×K concurrent "
        "cold sweeps); 0 skips the phase",
    )
    args = bench.parse(argv)

    best: dict | None = None
    for _ in range(max(1, args.repeats)):
        measured = measure(args.budget, args.max_layers, args.iterations, args.clients)
        if best is None or measured["overhead_ratio"] < best["overhead_ratio"]:
            best = measured
    assert best is not None
    record: dict = {
        "figure": "fig12",
        "max_dense_macs": args.budget,
        "max_layers_per_model": args.max_layers,
        "iterations": args.iterations,
        "repeats": args.repeats,
        **best,
    }
    if args.pool_depth > 0:
        record.update(measure_saturation(args.pool_depth))
    printed = [
        "warm_inproc_ms", "warm_http_ms", "revalidate_304_ms",
        "overhead_ratio", "throughput_rps",
    ]
    if args.pool_depth > 0:
        printed += [
            "saturation_admission_p50_ms", "saturation_admission_p99_ms",
            "saturation_shed_503", "saturation_converge_seconds",
        ]
    for key in printed:
        print(f"{key:28s} {record[key]}", file=sys.stderr)
    return bench.finish(record, {"overhead_ratio": "lower"})


if __name__ == "__main__":
    raise SystemExit(main())
