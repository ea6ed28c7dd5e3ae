"""Tests of serve-side admission control: auth, quotas, shedding, drain.

Two layers of coverage:

* **Policy units** — :mod:`repro.serve.auth` and :mod:`repro.serve.quota`
  with injected clocks, so window boundaries and UTC-day resets are exact.
* **HTTP integration** — real :class:`BackgroundServer` instances with the
  admission knobs set through the environment, asserting the status-code
  contract end to end: ``401`` vs open, ``429`` with ``Retry-After`` on
  rate/quota exhaustion, ``503`` shedding past the pool depth and during
  drain and past the request deadline (the connection then keeps serving),
  warm answers unaffected throughout, and the saturation smoke —
  4×depth concurrent cold requests produce only ``202``/``429``/``503``,
  every refusal carries ``Retry-After``, and retried requests converge to
  bytes identical to a serial run.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import threading
import time
from pathlib import Path

import pytest

from repro.api import Session, SweepSpec
from repro.experiments.settings import default_settings
from repro.httpd import Request, Response
from repro.runtime import BatchRunner, ResultCache
from repro.serve import BackgroundServer, JobManager, ServeApp
from repro.serve.auth import ANONYMOUS, AuthError, KeyRegistry, hash_key
from repro.serve.quota import AdmissionControl, ColdQuota, SlidingWindow

MICRO = default_settings(max_dense_macs=5e4, max_layers_per_model=1)

#: The saturation workload: distinct one-job sweeps (distinct content
#: keys), so none of them coalesce with each other.
DESIGNS = ["SIGMA-like", "SpArch-like", "GAMMA-like", "CPU-MKL"]


def sweep_body(layer: str, design: str) -> bytes:
    return json.dumps(
        {"layers": [layer], "designs": [design], "scale": 0.05}
    ).encode()


def micro_session(cache_dir) -> Session:
    return Session(
        MICRO, runner=BatchRunner(parallel=False, cache=ResultCache(cache_dir))
    )


def request(server, method, path, body=None, headers=None):
    """One HTTP exchange; returns ``(status, headers-dict, body-bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def poll_job(server, url, deadline_seconds=120.0, headers=None):
    deadline = time.monotonic() + deadline_seconds
    while True:
        status, response_headers, body = request(server, "GET", url, headers=headers)
        if status != 202:
            return status, response_headers, body
        assert time.monotonic() < deadline, "job did not finish in time"
        time.sleep(0.05)


@pytest.fixture()
def quota_env(tmp_path, monkeypatch):
    """Every integration server gets an isolated on-disk quota store."""
    monkeypatch.setenv("REPRO_QUOTA_DIR", str(tmp_path / "quota"))
    return tmp_path


# ----------------------------------------------------------------------
# Policy units: auth
# ----------------------------------------------------------------------
class TestKeyRegistry:
    def test_open_registry_is_anonymous(self, monkeypatch):
        monkeypatch.delenv("REPRO_API_KEYS", raising=False)
        registry = KeyRegistry.from_env()
        assert registry.open
        assert registry.authenticate({}) is ANONYMOUS

    def test_labelled_and_bare_entries(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_API_KEYS", f"alice:{hash_key('s3cret')},{hash_key('other')}"
        )
        registry = KeyRegistry.from_env()
        assert not registry.open
        principal = registry.authenticate({"authorization": "Bearer s3cret"})
        assert principal.key_id == "alice" and principal.authenticated
        assert registry.authenticate({"x-repro-api-key": "other"}).key_id == "key1"

    def test_missing_and_unknown_keys_are_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_API_KEYS", f"alice:{hash_key('s3cret')}")
        registry = KeyRegistry.from_env()
        with pytest.raises(AuthError, match="API key required"):
            registry.authenticate({})
        with pytest.raises(AuthError, match="unknown API key"):
            registry.authenticate({"authorization": "Bearer wrong"})

    def test_raw_looking_entries_fail_at_startup(self, monkeypatch):
        monkeypatch.setenv("REPRO_API_KEYS", "alice:not-a-digest")
        with pytest.raises(ValueError, match="label:sha256hex"):
            KeyRegistry.from_env()


# ----------------------------------------------------------------------
# Policy units: rate window + cold quota (injected clocks, no sleeps)
# ----------------------------------------------------------------------
class TestSlidingWindow:
    def test_denies_at_the_limit_and_resets_at_the_boundary(self):
        window = SlidingWindow(limit=2, window_seconds=60.0)
        assert window.admit("k", now=100.0).allowed
        assert window.admit("k", now=110.0).allowed
        denied = window.admit("k", now=120.0)
        assert not denied.allowed
        assert denied.reset_at == pytest.approx(160.0)  # oldest event + window
        assert denied.retry_after == pytest.approx(40.0)
        # Exactly past the boundary the oldest event ages out.
        assert window.admit("k", now=160.1).allowed

    def test_denials_do_not_consume_events(self):
        window = SlidingWindow(limit=1, window_seconds=60.0)
        assert window.admit("k", now=0.0).allowed
        for attempt in range(5):
            assert not window.admit("k", now=1.0 + attempt).allowed
        # The one real event still ages out on schedule — denied attempts
        # did not extend the window.
        assert window.admit("k", now=60.5).allowed

    def test_keys_are_independent(self):
        window = SlidingWindow(limit=1, window_seconds=60.0)
        assert window.admit("a", now=0.0).allowed
        assert window.admit("b", now=0.0).allowed
        assert not window.admit("a", now=1.0).allowed

    def test_unset_limit_admits_everything(self):
        window = SlidingWindow(limit=None, window_seconds=60.0)
        assert all(window.admit("k", now=0.0).allowed for _ in range(100))


class TestColdQuota:
    NOON = 1_770_033_600.0  # some UTC noon; the exact day is irrelevant

    def test_charges_until_the_limit_then_points_at_midnight(self, tmp_path):
        quota = ColdQuota(tmp_path, limit=2)
        assert quota.charge("k", now=self.NOON).allowed
        assert quota.charge("k", now=self.NOON).allowed
        denied = quota.charge("k", now=self.NOON)
        assert not denied.allowed
        assert denied.reset_at % 86400 == 0  # the next UTC midnight
        assert denied.retry_after == pytest.approx(denied.reset_at - self.NOON)

    def test_resets_on_the_next_utc_day(self, tmp_path):
        quota = ColdQuota(tmp_path, limit=1)
        assert quota.charge("k", now=self.NOON).allowed
        assert not quota.charge("k", now=self.NOON).allowed
        assert quota.charge("k", now=self.NOON + 86400).allowed

    def test_refund_restores_budget(self, tmp_path):
        quota = ColdQuota(tmp_path, limit=1)
        assert quota.charge("k", now=self.NOON).allowed
        quota.refund("k", now=self.NOON)
        assert quota.charge("k", now=self.NOON).allowed
        quota.refund("unknown", now=self.NOON)  # floor at zero, no error

    def test_counters_survive_a_restart(self, tmp_path):
        assert ColdQuota(tmp_path, limit=1).charge("k", now=self.NOON).allowed
        fresh = ColdQuota(tmp_path, limit=1)
        assert not fresh.charge("k", now=self.NOON).allowed

    def test_torn_counter_file_fails_open(self, tmp_path):
        quota = ColdQuota(tmp_path, limit=1)
        path, _reset = quota._day_path(self.NOON)
        Path(tmp_path).mkdir(exist_ok=True)
        Path(path).write_text("{torn")
        assert quota.charge("k", now=self.NOON).allowed


# ----------------------------------------------------------------------
# HTTP integration: auth
# ----------------------------------------------------------------------
class TestAuthOverHttp:
    def test_open_server_stays_open(self, tmp_path, quota_env, monkeypatch):
        monkeypatch.delenv("REPRO_API_KEYS", raising=False)
        with BackgroundServer(micro_session(tmp_path / "cache")) as server:
            status, _headers, _body = request(server, "GET", "/v1/figures")
            assert status == 200

    def test_keyed_server_401s_without_or_with_wrong_key(
        self, tmp_path, quota_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_API_KEYS", f"alice:{hash_key('s3cret')}")
        with BackgroundServer(micro_session(tmp_path / "cache")) as server:
            status, headers, body = request(server, "GET", "/v1/figures")
            assert status == 401
            assert headers.get("WWW-Authenticate") == "Bearer"
            assert json.loads(body)["status"] == 401
            status, _h, _b = request(
                server, "GET", "/v1/figures",
                headers={"Authorization": "Bearer wrong"},
            )
            assert status == 401
            # Both presentation forms of the right key work.
            status, _h, _b = request(
                server, "GET", "/v1/figures",
                headers={"Authorization": "Bearer s3cret"},
            )
            assert status == 200
            status, _h, _b = request(
                server, "GET", "/v1/figures",
                headers={"X-Repro-Api-Key": "s3cret"},
            )
            assert status == 200
            # Liveness never needs credentials.
            status, _h, _b = request(server, "GET", "/healthz")
            assert status == 200


# ----------------------------------------------------------------------
# HTTP integration: rate limiting + cold quota
# ----------------------------------------------------------------------
class TestRateLimitOverHttp:
    def test_429_with_retry_after_past_the_limit(
        self, tmp_path, quota_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RATE_LIMIT", "2")
        monkeypatch.setenv("REPRO_RATE_WINDOW", "60")
        with BackgroundServer(micro_session(tmp_path / "cache")) as server:
            # If-None-Match: * answers 304 before any work, so metered
            # requests are cheap — the limit itself is what is under test.
            probe = {"If-None-Match": "*"}
            for _ in range(2):
                status, _h, _b = request(
                    server, "GET", "/v1/figure/table3", headers=probe
                )
                assert status == 304
            status, headers, body = request(
                server, "GET", "/v1/figure/table3", headers=probe
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "X-Repro-Reset" in headers
            record = json.loads(body)
            assert record["status"] == 429
            assert record["retry_after"] > 0
            assert record["reset_at"] > 0
            # Every query route is metered, whatever its body or method...
            assert request(server, "POST", "/v1/sweep", b"{}")[0] == 429
            assert request(server, "POST", "/v1/dse", b"{}")[0] == 429
            assert request(server, "GET", "/v1/sweep")[0] == 429
            # ...and unmetered routes keep answering under the refusal:
            # health, the catalog, job polls and stored-body reads.
            assert request(server, "GET", "/healthz")[0] == 200
            assert request(server, "GET", "/v1/figures")[0] == 200
            assert request(server, "GET", "/v1/jobs/deadbeef")[0] == 404
            assert request(server, "GET", "/v1/sweep/deadbeef")[0] == 404
            assert request(server, "GET", "/v1/dse/deadbeef")[0] == 404


class TestColdQuotaOverHttp:
    def test_quota_prices_created_jobs_not_requests(
        self, tmp_path, quota_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COLD_QUOTA", "1")
        with BackgroundServer(micro_session(tmp_path / "cache")) as server:
            body_a = sweep_body("A2", "SIGMA-like")
            status, headers, payload = request(server, "POST", "/v1/sweep", body_a)
            assert status == 202
            job_url = json.loads(payload)["url"]
            # Re-posting the same spec creates no second job: either it
            # coalesces (charged, then refunded) or the job already
            # finished and the answer is warm — the budget stays one
            # job deep either way.
            status, _h, _b = request(server, "POST", "/v1/sweep", body_a)
            assert status in (200, 202)
            # A *distinct* cold spec needs a second job: over quota.
            status, headers, payload = request(
                server, "POST", "/v1/sweep", sweep_body("R6", "SIGMA-like")
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            record = json.loads(payload)
            assert "quota" in record["error"]
            assert record["reset_at"] % 86400 == 0  # next UTC midnight
            # The charged job itself is unaffected; once done, re-posting
            # its spec serves the stored bytes warm (no charge).
            status, _h, done_body = poll_job(server, job_url)
            assert status == 200
            status, _h, warm_body = request(server, "POST", "/v1/sweep", body_a)
            assert status == 200
            assert warm_body == done_body


# ----------------------------------------------------------------------
# HTTP integration: load shedding, drain, saturation smoke
# ----------------------------------------------------------------------
def occupy_pool(server, slots: int):
    """Deterministically fill ``slots`` of the job pool with jobs that
    finish only when told to — no racing against real simulations."""
    held = []
    for index in range(slots):
        spec = SweepSpec(layers=("SQ5",), designs=(DESIGNS[index % 4],), scale=0.5)
        job, created = server.app.manager.coalesce(f"held-{index}", spec, total=1)
        assert created
        held.append(job)
    return held


def release_pool(held):
    for job in held:
        job.finish(b'{"held": true}\n', '"held"', 0)


class TestLoadShedding:
    def test_shed_cold_retries_successfully_after_retry_after(
        self, tmp_path, quota_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOB_POOL_DEPTH", "1")
        with BackgroundServer(micro_session(tmp_path / "cache")) as server:
            held = occupy_pool(server, 1)
            body = sweep_body("A2", "SIGMA-like")
            status, headers, payload = request(server, "POST", "/v1/sweep", body)
            assert status == 503
            retry_after = int(headers["Retry-After"])
            assert retry_after >= 1
            assert "saturated" in json.loads(payload)["error"]
            # A compliant client waits Retry-After, by which time the pool
            # has turned over — the retry must be admitted, not re-shed.
            release_pool(held)
            time.sleep(retry_after)
            status, _h, payload = request(server, "POST", "/v1/sweep", body)
            assert status == 202
            status, _h, _b = poll_job(server, json.loads(payload)["url"])
            assert status == 200

    def test_draining_server_refuses_cold_serves_warm(
        self, tmp_path, quota_env, monkeypatch
    ):
        with BackgroundServer(micro_session(tmp_path / "cache")) as server:
            warm_spec = sweep_body("A2", "SIGMA-like")
            status, _h, payload = request(server, "POST", "/v1/sweep", warm_spec)
            assert status == 202
            job_url = json.loads(payload)["url"]
            status, _h, warm_bytes = poll_job(server, job_url)
            assert status == 200
            server.app.manager.begin_drain()
            # New cold work: refused with the drain window as Retry-After.
            status, headers, payload = request(
                server, "POST", "/v1/sweep", sweep_body("R6", "SIGMA-like")
            )
            assert status == 503
            assert "draining" in json.loads(payload)["error"]
            assert int(headers["Retry-After"]) >= 1
            # Warm answers and job polls keep flowing mid-drain.
            status, _h, body = request(server, "POST", "/v1/sweep", warm_spec)
            assert status == 200 and body == warm_bytes
            status, _h, body = request(server, "GET", job_url)
            assert status == 200 and body == warm_bytes
            assert request(server, "GET", "/healthz")[0] == 200

    def test_background_close_drains_in_flight_jobs(
        self, tmp_path, quota_env, monkeypatch
    ):
        server = BackgroundServer(micro_session(tmp_path / "cache"))
        with server:
            status, _h, payload = request(
                server, "POST", "/v1/sweep", sweep_body("A2", "SIGMA-like")
            )
            assert status == 202
            key = json.loads(payload)["key"]
            server.close()  # graceful: waits for the job inside the window
            job = server.app.manager.get(key)
            assert job is not None and job.finished.is_set()


class TestSaturationSmoke:
    def test_4x_depth_concurrent_cold_never_hangs_or_5xxs(
        self, tmp_path, quota_env, monkeypatch
    ):
        """The acceptance smoke: depth K, 4×K concurrent distinct cold
        requests — every answer is 202/429/503, refusals carry
        ``Retry-After``, warm requests keep answering throughout, and
        honouring Retry-After converges every request to bytes identical
        to a serial run.

        Admitted cold jobs wait until the whole first wave has been
        answered: a micro job finishes in milliseconds, so without the
        hold a burst spread wider than that would never fill the pool."""
        depth = 2
        monkeypatch.setenv("REPRO_JOB_POOL_DEPTH", str(depth))
        specs = [("A2", design) for design in DESIGNS] + [
            ("R6", design) for design in DESIGNS
        ]
        assert len(specs) == 4 * depth
        serial = micro_session(tmp_path / "serial-cache")
        expected = {
            (layer, design): (
                serial.sweep(
                    SweepSpec(layers=(layer,), designs=(design,), scale=0.05)
                ).to_json()
                + "\n"
            ).encode()
            for layer, design in specs
        }
        with BackgroundServer(micro_session(tmp_path / "cache")) as server:
            # Pre-warm one request so "warm keeps answering" is observable.
            # A distinct scale keeps it out of the cold saturation set.
            warm = json.dumps(
                {"layers": ["A2"], "designs": ["SIGMA-like"], "scale": 0.1}
            ).encode()
            status, _h, payload = request(server, "POST", "/v1/sweep", warm)
            assert status in (200, 202)
            if status == 202:
                poll_job(server, json.loads(payload)["url"])
            warm_status, _h, warm_bytes = request(server, "POST", "/v1/sweep", warm)
            assert warm_status == 200

            stop_warm = threading.Event()
            warm_statuses: list[int] = []

            def hammer_warm():
                while not stop_warm.is_set():
                    warm_statuses.append(
                        request(server, "POST", "/v1/sweep", warm)[0]
                    )

            # Every cold job admitted from here on stays in flight until the
            # first wave is in, so the burst overflows the depth bound.
            release = threading.Event()
            run_job = JobManager.run_job

            def held_run_job(manager, job, etag):
                release.wait(timeout=60)
                run_job(manager, job, etag)

            monkeypatch.setattr(JobManager, "run_job", held_run_job)
            warm_thread = threading.Thread(target=hammer_warm, daemon=True)
            warm_thread.start()
            try:
                with concurrent.futures.ThreadPoolExecutor(len(specs)) as pool:
                    first_wave = list(
                        pool.map(
                            lambda s: request(
                                server, "POST", "/v1/sweep", sweep_body(*s)
                            ),
                            specs,
                        )
                    )
            finally:
                release.set()
                stop_warm.set()
                warm_thread.join(timeout=30)

            seen = {status for status, _h, _b in first_wave}
            assert seen <= {202, 429, 503}, f"unexpected statuses {seen}"
            assert 503 in seen  # 4×depth concurrent cold must overflow K
            # ...after filling it: the pool bound was actually exercised.
            accepted = sum(1 for status, _h, _b in first_wave if status == 202)
            assert accepted >= depth, f"only {accepted} of {depth} slots filled"
            for status, headers, _body in first_wave:
                if status in (429, 503):
                    assert int(headers["Retry-After"]) >= 1
            # Warm service never degraded below 200 during the burst.
            assert warm_statuses and set(warm_statuses) == {200}

            # Retry loop honouring Retry-After: every spec must converge.
            for layer, design in specs:
                body = sweep_body(layer, design)
                deadline = time.monotonic() + 120.0
                while True:
                    status, headers, payload = request(
                        server, "POST", "/v1/sweep", body
                    )
                    if status == 200:
                        break
                    if status == 202:
                        status, _h, payload = poll_job(
                            server, json.loads(payload)["url"]
                        )
                        assert status == 200
                        break
                    assert status in (429, 503), status
                    assert time.monotonic() < deadline, "never admitted"
                    time.sleep(min(2.0, int(headers["Retry-After"])))
                assert payload == expected[(layer, design)], (layer, design)

            # And the byte-identity holds on a final warm pass too.
            for layer, design in specs:
                status, _h, payload = request(
                    server, "POST", "/v1/sweep", sweep_body(layer, design)
                )
                assert status == 200
                assert payload == expected[(layer, design)]


# ----------------------------------------------------------------------
# Request deadline (unit: no real slow simulation needed)
# ----------------------------------------------------------------------
class TestRequestDeadline:
    def test_deadline_maps_to_503_with_retry_after(self, tmp_path, monkeypatch):
        import asyncio

        monkeypatch.setenv("REPRO_REQUEST_DEADLINE", "0.05")
        app = ServeApp(micro_session(tmp_path / "cache"))
        assert app.request_deadline == 0.05

        async def wedged(_request):
            await asyncio.sleep(60.0)
            return Response(status=200)

        app.dispatch = wedged
        response = asyncio.run(
            app._dispatch_bounded(Request(method="GET", path="/v1/figures"))
        )
        assert response.status == 503
        assert int(response.headers["Retry-After"]) >= 1
        assert "deadline" in json.loads(response.body)["error"]

    def test_zero_disables_the_deadline(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REQUEST_DEADLINE", "0")
        app = ServeApp(micro_session(tmp_path / "cache"))
        assert app.request_deadline is None


class TestRequestDeadlineOverHttp:
    def test_a_deadline_in_a_thread_step_is_a_503_and_the_connection_lives(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_REQUEST_DEADLINE", "0.05")
        classify = JobManager.classify

        def slow_classify(self, query):
            time.sleep(0.3)
            return classify(self, query)

        monkeypatch.setattr(JobManager, "classify", slow_classify)
        with BackgroundServer(micro_session(tmp_path / "cache")) as server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                connection.request("GET", "/v1/figure/table3")
                response = connection.getresponse()
                body = response.read()
                assert response.status == 503
                assert int(response.getheader("Retry-After")) >= 1
                assert "deadline" in json.loads(body)["error"]
                assert response.getheader("Connection") == "keep-alive"
                sock = connection.sock
                connection.request("GET", "/healthz")
                health = connection.getresponse()
                assert health.status == 200
                assert json.loads(health.read())["status"] == "ok"
                assert connection.sock is sock  # the same keep-alive connection
            finally:
                connection.close()


class TestAdmissionFromEnv:
    def test_defaults_leave_every_policy_open(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_API_KEYS", raising=False)
        monkeypatch.delenv("REPRO_RATE_LIMIT", raising=False)
        monkeypatch.delenv("REPRO_COLD_QUOTA", raising=False)
        admission = AdmissionControl.from_env()
        assert admission.registry.open
        assert admission.admit_request(ANONYMOUS).allowed
        assert admission.admit_cold(ANONYMOUS).allowed
