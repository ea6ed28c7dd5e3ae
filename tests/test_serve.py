"""Tests of the ``repro.serve`` HTTP/JSON front-end.

Covers the serving contracts end to end, over real sockets:

* **Wire format** — golden files pin the static endpoint bodies; every
  endpoint's JSON body round-trips through canonical re-serialization
  byte-for-byte.
* **Warmth split** — cache-warm requests answer ``200`` with zero engine
  executions; cold ones answer ``202`` with a pollable job that completes
  to the same bytes the CLI produces.
* **ETags** — stable across server instances, honoured with ``304`` on
  ``If-None-Match`` before any work happens.
* **Coalescing** — N concurrent identical cold requests share exactly one
  in-flight computation.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.api import FigureQuery, Session, SweepSpec, canonical_json
from repro.cli import main as cli_main
from repro.experiments.settings import default_settings
from repro.runtime import BatchRunner, ResultCache
from repro.serve import BackgroundServer
from repro.dse.explore import DseSpec
from repro.serve.wire import dse_spec_from_payload, request_etag, sweep_spec_from_payload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Same micro budgets as tests/test_cli.py, so the fig12 grid stays tiny.
MICRO = default_settings(max_dense_macs=5e4, max_layers_per_model=1)

#: A one-job sweep (the cold-lifecycle and coalescing workload).
SWEEP_BODY = {"layers": ["A2"], "designs": ["SIGMA-like"], "scale": 0.05}


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


def poll_job(server, url, deadline_seconds=120.0):
    """Poll a job URL until it stops answering ``202``."""
    deadline = time.monotonic() + deadline_seconds
    while True:
        status, headers, body = request(server, "GET", url)
        if status != 202:
            return status, headers, body
        assert time.monotonic() < deadline, "job did not finish in time"
        time.sleep(0.05)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("serve-cache")


@pytest.fixture(scope="module")
def server(cache_dir):
    with BackgroundServer(micro_session(cache_dir)) as handle:
        yield handle


#: Per request kind: its parser, spec class, a valid body, a wrong-typed
#: body and the field list its unknown-field message names.
PARSERS = {
    "sweep": (
        sweep_spec_from_payload,
        SweepSpec,
        SWEEP_BODY,
        {"layers": 3},
        "['config_overrides', 'designs', 'layers', 'max_layers_per_model', "
        "'models', 'scale']",
    ),
    "dse": (
        dse_spec_from_payload,
        DseSpec,
        {"workloads": ["xf-prune-80"], "designs": ["base"]},
        {"workloads": 3},
        "['designs', 'scale', 'workloads']",
    ),
}


def assert_client_errors(server, kind, parse, cases):
    """Each ``(payload, message)`` is exactly ``parse``'s ValueError and the
    ``400`` error of ``POST /v1/<kind>``."""
    for payload, message in cases:
        with pytest.raises(ValueError) as excinfo:
            parse(payload)
        assert str(excinfo.value) == message
        status, _headers, body = request(server, "POST", f"/v1/{kind}", body=payload)
        assert status == 400, payload
        assert json.loads(body)["error"] == message


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    @pytest.mark.parametrize(
        "path, golden",
        [
            ("/healthz", "serve_healthz.json"),
            ("/v1/figures", "serve_figures.json"),
            ("/nope", "serve_error_404.json"),
        ],
    )
    def test_bodies_match_the_committed_goldens(self, server, path, golden):
        _status, _headers, body = request(server, "GET", path)
        assert body == (GOLDEN_DIR / golden).read_bytes()

    def test_list_json_matches_the_catalog_golden(self, capsysbinary):
        assert cli_main(["list", "--json"]) == 0
        out, _err = capsysbinary.readouterr()
        assert out == (GOLDEN_DIR / "serve_catalog.json").read_bytes()

    def test_every_endpoint_body_reserializes_canonically(self, server):
        """The round-trip property: parse + canonical re-dump is identity."""
        paths = ["/healthz", "/v1/figures", "/v1/cache/stats", "/v1/figure/table3"]
        for path in paths:
            _status, _headers, body = request(server, "GET", path)
            record = json.loads(body)
            assert (canonical_json(record) + "\n").encode() == body, path

    def test_cache_stats_shares_the_cli_serializer(self, server, cache_dir):
        _status, _headers, body = request(server, "GET", "/v1/cache/stats")
        record = json.loads(body)
        assert record["kind"] == "cache_stats"
        assert record["cache"]["directory"] == str(cache_dir)
        assert set(record["runner"]) == set(
            micro_session(cache_dir).stats.as_row()
        )

    @pytest.mark.parametrize("kind", PARSERS)
    def test_sweep_payload_parsing(self, server, kind):
        parse, spec_type, body, _wrong_typed, fields = PARSERS[kind]
        assert parse(json.dumps(body).encode()) == spec_type(**body)
        with pytest.raises(json.JSONDecodeError) as excinfo:
            json.loads("{nope")
        unknown = {**body, "bogus": 1}
        cases = [
            (b"{nope", f"malformed JSON body: {excinfo.value}"),
            (
                b"[1, 2]",
                f"{kind} body must be a JSON object (a {spec_type.__name__} record)",
            ),
            (
                json.dumps(unknown).encode(),
                f"unknown {kind} field(s) bogus; expected a subset of {fields}",
            ),
        ]
        assert_client_errors(server, kind, parse, cases)

    @pytest.mark.parametrize("kind", PARSERS)
    def test_wrong_typed_sweep_fields_are_client_errors(self, server, kind):
        """Type confusion in a request body must surface as ValueError (a
        400 on the wire), never a TypeError (a 500)."""
        parse, _spec_type, body, wrong_typed, _fields = PARSERS[kind]
        cases = [
            (
                json.dumps(wrong_typed).encode(),
                f"malformed {kind} field: 'int' object is not iterable",
            ),
        ]
        if kind == "sweep":
            # A pair that is no pair at all: the spec itself refuses it.
            overrides = {**body, "config_overrides": [5]}
            cases.append(
                (
                    json.dumps(overrides).encode(),
                    "config_overrides must be a list of [name, value] pairs",
                )
            )
        assert_client_errors(server, kind, parse, cases)


# ----------------------------------------------------------------------
# Routing errors
# ----------------------------------------------------------------------
class TestRouting:
    def test_unknown_figure_is_404(self, server):
        status, _headers, body = request(server, "GET", "/v1/figure/fig99")
        assert status == 404
        assert "known figures" in json.loads(body)["error"]

    def test_unknown_job_is_404(self, server):
        assert request(server, "GET", "/v1/jobs/deadbeef")[0] == 404

    def test_wrong_method_is_405(self, server):
        assert request(server, "POST", "/v1/figure/fig12")[0] == 405
        assert request(server, "GET", "/v1/sweep")[0] == 405

    def test_bad_sweep_body_is_400(self, server):
        for payload in (b"{nope", b'{"layers": 3}', b'{"designs": 1}'):
            status, _headers, body = request(
                server, "POST", "/v1/sweep", body=payload
            )
            assert status == 400, payload
            assert json.loads(body)["kind"] == "error"

    @pytest.mark.parametrize(
        "field",
        [
            "str_cache_bytes",
            "str_cache_line_bytes",
            "str_cache_associativity",
            "psram_block_bytes",
        ],
    )
    def test_zero_cache_geometry_is_400_before_admission(self, server, field):
        body = {
            "layers": ["R6"],
            "designs": ["GAMMA-like"],
            "scale": 0.05,
            "config_overrides": [[field, 0]],
        }
        status, _headers, payload = request(
            server, "POST", "/v1/sweep", body=json.dumps(body).encode()
        )
        assert status == 400, payload
        assert field in json.loads(payload)["error"]

    def test_malformed_request_line_is_400(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_chunked_transfer_encoding_is_rejected_not_misframed(self, server):
        """Unsupported body framing must be refused outright — ignoring it
        would leave the chunk bytes on the stream to be parsed as the next
        request (the smuggling/desync class)."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/sweep HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
            )
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Transfer-Encoding" in reply

    def test_keep_alive_serves_multiple_requests_per_connection(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                assert conn.getresponse().read()
        finally:
            conn.close()


# ----------------------------------------------------------------------
# The warm/cold split + job lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_static_figure_is_always_warm(self, server):
        status, headers, _body = request(server, "GET", "/v1/figure/table3")
        assert status == 200
        assert headers["X-Repro-Jobs-Executed"] == "0"

    def test_cold_figure_202_poll_200_then_warm_zero_exec(self, server, tmp_path):
        status, headers, body = request(server, "GET", "/v1/figure/fig12")
        assert status == 202
        envelope = json.loads(body)
        assert envelope["kind"] == "job"
        assert envelope["request"] == {"figure": "fig12"}
        assert headers["Location"] == envelope["url"]

        status, headers, first = poll_job(server, envelope["url"])
        assert status == 200
        assert int(headers["X-Repro-Jobs-Executed"]) > 0

        # Now warm: answered synchronously, zero executions, same bytes.
        status, headers, second = request(server, "GET", "/v1/figure/fig12")
        assert status == 200
        assert headers["X-Repro-Jobs-Executed"] == "0"
        assert second == first

        # ... and byte-identical to the CLI over the same settings + cache,
        # rendered again from the job entries once the stored body is gone.
        server.app.session.cache.prune(prefix="figure-")
        out = tmp_path / "cli-fig12.json"
        assert cli_main([
            "figure", "fig12", "--max-dense-macs", "5e4", "--max-layers", "1",
            "--serial", "--cache-dir", str(server.app.session.cache.directory),
            "--no-progress", "-o", str(out),
        ]) == 0
        assert out.read_bytes() == second

    def test_cold_sweep_202_poll_200(self, server):
        payload = json.dumps(dict(SWEEP_BODY, scale=0.07)).encode()
        status, _headers, body = request(server, "POST", "/v1/sweep", body=payload)
        assert status == 202
        envelope = json.loads(body)
        assert envelope["request_kind"] == "sweep"

        status, headers, result = poll_job(server, envelope["url"])
        assert status == 200
        record = json.loads(result)
        assert record["kind"] == "sweep"
        (row,) = record["rows"]
        assert row["design"] == "SIGMA-like" and row["cycles"] > 0

        # Re-POSTing the identical spec is now warm.
        status, headers, again = request(server, "POST", "/v1/sweep", body=payload)
        assert status == 200
        assert headers["X-Repro-Jobs-Executed"] == "0"
        assert again == result

    def test_fresh_server_over_the_same_cache_is_warm(self, server, cache_dir):
        # Uses the fig12 results the lifecycle test above cached, without the
        # stored body: the fresh server classifies the grid warm and renders.
        request(server, "GET", "/v1/figure/fig12")
        poll_job(server, "/v1/jobs/" + FigureQuery("fig12").key())
        server.app.session.cache.prune(prefix="figure-")
        with BackgroundServer(micro_session(cache_dir)) as fresh:
            status, headers, _body = request(fresh, "GET", "/v1/figure/fig12")
            assert status == 200
            assert headers["X-Repro-Jobs-Executed"] == "0"
            assert fresh.app.session.stats.submitted > 0
            assert fresh.app.session.stats.executed == 0

    def test_failed_job_reports_500(self, tmp_path):
        with BackgroundServer(micro_session(tmp_path / "c")) as fresh:
            # Sabotage: fail every simulation by breaking the runner.
            fresh.app.session.runner.run = _boom
            status, _headers, body = request(
                fresh, "POST", "/v1/sweep", body=json.dumps(SWEEP_BODY).encode()
            )
            assert status == 202
            status, _headers, body = poll_job(fresh, json.loads(body)["url"])
            assert status == 500
            assert "RuntimeError" in json.loads(body)["error"]


def _boom(jobs, on_result=None):
    raise RuntimeError("sabotaged")


# ----------------------------------------------------------------------
# ETags
# ----------------------------------------------------------------------
class TestETags:
    def test_304_on_if_none_match(self, server):
        status, headers, _body = request(server, "GET", "/v1/figure/table3")
        etag = headers["ETag"]
        status, headers, body = request(
            server, "GET", "/v1/figure/table3", headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag

    def test_304_needs_no_computation_even_when_cold(self, tmp_path):
        """The validator is derived from the request, not the bytes, so a
        cold server can answer a revalidation without simulating."""
        with BackgroundServer(micro_session(tmp_path / "c")) as fresh:
            etag = request_etag("figure", FigureQuery("fig12").key(), MICRO)
            status, _headers, _body = request(
                fresh, "GET", "/v1/figure/fig12", headers={"If-None-Match": etag}
            )
            assert status == 304
            assert fresh.app.session.stats.submitted == 0

    def test_stable_across_two_server_instances(self, cache_dir, tmp_path):
        etags = []
        for directory in (cache_dir, tmp_path / "other-cache"):
            with BackgroundServer(micro_session(directory)) as fresh:
                _status, headers, _body = request(fresh, "GET", "/v1/figure/table3")
                etags.append(headers["ETag"])
        assert etags[0] == etags[1]

    def test_varies_with_request_and_settings(self):
        fig12 = FigureQuery("fig12").key()
        fig13 = FigureQuery("fig13").key()
        other = default_settings(max_dense_macs=9e4, max_layers_per_model=1)
        assert request_etag("figure", fig12, MICRO) != request_etag("figure", fig13, MICRO)
        assert request_etag("figure", fig12, MICRO) != request_etag("figure", fig12, other)

    def test_weak_and_list_forms_match(self, server):
        _status, headers, _body = request(server, "GET", "/v1/figure/table3")
        etag = headers["ETag"]
        for value in (f'W/{etag}, "zzz"', f'"zzz", {etag}', "*"):
            status, _h, _b = request(
                server, "GET", "/v1/figure/table3", headers={"If-None-Match": value}
            )
            assert status == 304, value


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_identical_cold_requests_share_one_computation(self, tmp_path):
        body = json.dumps(dict(SWEEP_BODY, scale=0.06)).encode()
        with BackgroundServer(micro_session(tmp_path / "c")) as fresh:
            results = []

            def post():
                results.append(request(fresh, "POST", "/v1/sweep", body=body))

            threads = [threading.Thread(target=post) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            keys = set()
            for status, _headers, reply in results:
                assert status in (200, 202)
                record = json.loads(reply)
                if status == 202:
                    keys.add(record["key"])
            assert len(keys) <= 1  # every 202 pointed at the same job

            spec = SweepSpec(**dict(SWEEP_BODY, scale=0.06))
            status, _headers, _reply = poll_job(fresh, f"/v1/jobs/{spec.key()}")
            assert status == 200
            # The one-layer, one-design grid ran exactly once in total.
            assert fresh.app.session.stats.executed == 1

    def test_request_key_spaces_are_disjoint(self):
        assert FigureQuery("fig12").key() != SweepSpec(layers="A2").key()
