"""Tests of the stored-answer path: ``Session.answer`` and its body keys.

Covers the contracts of the one body store every request kind shares:

* **Keys** — ``report_key(kind, request_key, settings)`` moves with both
  schema versions and every settings field, figure and sweep keys also with
  the model, layer and CPU tables, and the three kinds' keys never collide.
* **Stored answers** — once a request has been answered over a cache, a
  fresh session answers it with the same bytes and no grid work: no
  ``SimJob.key`` call, no ``BatchRunner.run`` call.  Other settings render
  their own body, and a damaged body is rendered again.
* **Serving** — a fresh server answers stored figure, sweep and DSE
  requests without reaching the warmth probe or a worker thread, and
  renders a warm request with no stored body after one key and one probe,
  both on a worker thread, storing it.
* **Replication** — the cache inventory lists content keys only, so
  ``cache pull`` copies no body; a pulled peer renders its own bodies from
  the pulled job entries.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import shutil
import urllib.request

import pytest

from repro.accelerators import cpu
from repro.api import DseSpec, FigureQuery, Session, SweepSpec
from repro.arch.config import default_config
from repro.cli import main as cli_main
from repro.dse import explore
from repro.dse.explore import dse_report_key, report_key
from repro.experiments.settings import ExperimentSettings, default_settings
from repro.fabric import Coordinator, WorkQueue, reset_shared_fabric, set_shared_coordinator
from repro.fabric.wire import is_content_key
from repro.runtime import BatchRunner, ResultCache, SimJob
from repro.serve import BackgroundServer, JobManager
from repro.workloads import models, representative

from test_serve import request

#: Same micro budgets as tests/test_serve.py, so every grid stays tiny.
MICRO = default_settings(max_dense_macs=5e4, max_layers_per_model=1)

#: One request of each kind.
REQUESTS = {
    "figure": FigureQuery("fig12"),
    "sweep": SweepSpec(layers=("A2",), designs=("SIGMA-like", "GAMMA-like"), scale=0.05),
    "dse": DseSpec(workloads=("xf-prune-80",), designs=("base", "xbar16")),
}
KINDS = tuple(REQUESTS)

#: A changed value for every ``ExperimentSettings`` field.
SETTINGS_CHANGES = {
    "config": default_config(num_multipliers=32),
    "max_dense_macs": 1e5,
    "max_layers_per_model": 2,
    "seed_salt": 7,
}


def micro_session(cache_dir, settings: ExperimentSettings = MICRO) -> Session:
    return Session(
        settings, runner=BatchRunner(parallel=False, cache=ResultCache(cache_dir))
    )


@pytest.fixture(scope="module")
def answered(tmp_path_factory):
    """A cache filled by one cold answer of each request, and those bodies."""
    directory = tmp_path_factory.mktemp("answered")
    session = micro_session(directory)
    bodies = {}
    for kind, request_ in REQUESTS.items():
        body, executed = session.answer(request_)
        assert executed > 0
        bodies[kind] = body
    return directory, bodies


@pytest.fixture
def grid_work(monkeypatch):
    """Counts of ``SimJob.key`` and ``BatchRunner.run`` calls from here on."""
    counts = {"key": 0, "run": 0}
    key, run = SimJob.key, BatchRunner.run

    def counting_key(self):
        counts["key"] += 1
        return key(self)

    def counting_run(self, jobs, on_result=None):
        counts["run"] += 1
        return run(self, jobs, on_result=on_result)

    monkeypatch.setattr(SimJob, "key", counting_key)
    monkeypatch.setattr(BatchRunner, "run", counting_run)
    return counts


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestReportKey:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("version", ["RESULT_SCHEMA_VERSION", "CACHE_SCHEMA_VERSION"])
    def test_a_schema_bump_retires_the_key(self, kind, version, monkeypatch):
        request_key = REQUESTS[kind].key()
        before = report_key(kind, request_key, MICRO)
        monkeypatch.setattr(explore, version, getattr(explore, version) + 1)
        assert report_key(kind, request_key, MICRO) != before

    def test_every_settings_field_has_a_change(self):
        names = {field.name for field in dataclasses.fields(ExperimentSettings)}
        assert names == set(SETTINGS_CHANGES)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", sorted(SETTINGS_CHANGES))
    def test_every_settings_field_is_in_the_key(self, kind, name):
        request_key = REQUESTS[kind].key()
        changed = dataclasses.replace(MICRO, **{name: SETTINGS_CHANGES[name]})
        assert report_key(kind, request_key, changed) != report_key(
            kind, request_key, MICRO
        )

    def test_kinds_never_collide(self):
        request_keys = [request_.key() for request_ in REQUESTS.values()]
        keys = {
            (kind, request_key): report_key(kind, request_key, MICRO)
            for kind in KINDS
            for request_key in request_keys
        }
        assert len(set(keys.values())) == len(keys)
        for (kind, _request_key), key in keys.items():
            prefix, digest = key.split("-", 1)
            assert prefix == kind and len(digest) == 64

    def test_the_dse_report_key_is_the_dse_kind(self):
        spec = REQUESTS["dse"]
        assert dse_report_key(spec, MICRO) == report_key("dse", spec.key(), MICRO)

    @pytest.mark.parametrize("table", ["model", "layer", "cpu"])
    def test_a_table_edit_retires_figure_and_sweep_bodies(
        self, answered, table, monkeypatch
    ):
        directory, _bodies = answered
        keys = {kind: REQUESTS[kind].key() for kind in KINDS}
        before = {kind: report_key(kind, keys[kind], MICRO) for kind in KINDS}
        if table == "model":
            name, model = next(iter(models.MODEL_REGISTRY.items()))
            edited = dataclasses.replace(model, table2_cpu_megacycles=1.0)
            monkeypatch.setitem(models.MODEL_REGISTRY, name, edited)
        elif table == "layer":
            layers = list(representative.REPRESENTATIVE_LAYERS)
            layers[0] = dataclasses.replace(layers[0], sparsity_a=0.5)
            monkeypatch.setattr(representative, "REPRESENTATIVE_LAYERS", layers)
        else:
            monkeypatch.setattr(cpu, "CpuConfig", functools.partial(cpu.CpuConfig, cores=8))
        explore.grid_tables_digest.cache_clear()
        try:
            after = {kind: report_key(kind, keys[kind], MICRO) for kind in KINDS}
            session = micro_session(directory)
            for kind in ("figure", "sweep"):
                assert after[kind] != before[kind]
                assert session.stored_body(kind, keys[kind]) is None
            # A campaign key holds its own workloads and designs.
            assert after["dse"] == before["dse"]
        finally:
            monkeypatch.undo()
            explore.grid_tables_digest.cache_clear()
        assert report_key("figure", keys["figure"], MICRO) == before["figure"]


# ----------------------------------------------------------------------
# Stored answers
# ----------------------------------------------------------------------
class TestStoredAnswer:
    @pytest.mark.parametrize("kind", KINDS)
    def test_the_cold_body_is_the_typed_body(self, answered, kind):
        directory, bodies = answered
        typed = getattr(micro_session(directory), kind)(REQUESTS[kind])
        assert bodies[kind] == (typed.to_json() + "\n").encode()

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_fresh_session_answers_with_no_grid_work(self, answered, grid_work, kind):
        directory, bodies = answered
        session = micro_session(directory)
        assert session.answer(REQUESTS[kind]) == (bodies[kind], 0)
        assert grid_work == {"key": 0, "run": 0}
        assert session.stats.submitted == 0

    def test_figure_ids_answer_like_queries(self, answered, grid_work):
        directory, bodies = answered
        assert micro_session(directory).answer("Fig. 12") == (bodies["figure"], 0)
        assert grid_work == {"key": 0, "run": 0}

    @pytest.mark.parametrize("kind", KINDS)
    def test_other_settings_render_their_own_body(self, answered, kind):
        directory, bodies = answered
        salted = micro_session(directory, dataclasses.replace(MICRO, seed_salt=1))
        request_ = REQUESTS[kind]
        assert salted.stored_body(kind, request_.key()) is None
        body, executed = salted.answer(request_)
        assert executed > 0 and body != bodies[kind]
        assert json.loads(body)["settings"]["seed_salt"] == 1
        assert micro_session(directory).answer(request_) == (bodies[kind], 0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_damaged_body_is_rendered_again(self, answered, tmp_path, kind):
        directory, bodies = answered
        copy = tmp_path / "cache"
        shutil.copytree(directory, copy)
        body = bodies[kind]
        # Every stored copy (a typed dse() call stores its report again).
        for path in copy.iterdir():
            data = bytearray(path.read_bytes())
            at = data.find(body)
            while at >= 0:
                data[at + len(body) // 2] ^= 0x01
                at = data.find(body, at + 1)
            path.write_bytes(bytes(data))
        assert micro_session(copy).stored_body(kind, REQUESTS[kind].key()) is None

        session = micro_session(copy)
        assert session.answer(REQUESTS[kind]) == (body, 0)
        assert session.stats.submitted > 0  # rendered from the job entries
        assert session.stats.executed == 0
        assert micro_session(copy).stored_body(kind, REQUESTS[kind].key()) == body

    def test_typed_figure_and_sweep_store_no_body(self, tmp_path):
        session = micro_session(tmp_path)
        session.sweep(REQUESTS["sweep"])
        session.figure("table3")
        assert not any("-" in key for key in session.cache.keys())

    def test_typed_dse_stores_its_one_report(self, tmp_path):
        session = micro_session(tmp_path)
        result = session.dse(REQUESTS["dse"])
        bodies = [key for key in session.cache.keys() if "-" in key]
        assert bodies == [dse_report_key(REQUESTS["dse"], MICRO)]
        assert micro_session(tmp_path).answer(REQUESTS["dse"]) == (
            (result.to_json() + "\n").encode(),
            0,
        )

    def test_a_cacheless_session_renders_every_time(self):
        session = Session(MICRO, parallel=False, cache=None)
        first = session.answer("table3")
        assert session.answer("table3") == first
        assert session.stored_body("figure", FigureQuery("table3").key()) is None

    def test_a_warm_cli_rerun_submits_nothing(self, tmp_path, capsys):
        args = [
            "sweep", "--layers", "A2", "--designs", "SIGMA-like", "--scale", "0.05",
            "--max-dense-macs", "5e4", "--max-layers", "1", "--serial",
            "--no-progress", "--cache-dir", str(tmp_path / "cli"),
        ]
        assert cli_main(args + ["-o", str(tmp_path / "first.json")]) == 0
        assert "submitted=0" not in capsys.readouterr().err
        assert cli_main(args + ["-o", str(tmp_path / "second.json")]) == 0
        assert "submitted=0 cache_hits=0 executed=0" in capsys.readouterr().err
        assert (tmp_path / "first.json").read_bytes() == (
            tmp_path / "second.json"
        ).read_bytes()


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class TestServedFromTheStore:
    def test_stored_requests_never_reach_the_warmth_probe(self, answered, monkeypatch):
        directory, bodies = answered

        def no_probe(self, request_):
            raise AssertionError("a stored answer must not be classified")

        def no_thread(func, /, *args, **kwargs):
            raise AssertionError(f"a stored answer hopped to a thread for {func}")

        monkeypatch.setattr(JobManager, "classify", no_probe)
        # The stored read runs on the event loop: no route below may hop.
        monkeypatch.setattr(asyncio, "to_thread", no_thread)
        sweep = json.dumps(REQUESTS["sweep"].to_record()).encode()
        campaign = json.dumps(REQUESTS["dse"].to_record()).encode()
        with BackgroundServer(micro_session(directory)) as server:
            for kind, method, path, payload in [
                ("figure", "GET", "/v1/figure/fig12", None),
                ("sweep", "POST", "/v1/sweep", sweep),
                ("sweep", "GET", f"/v1/sweep/{REQUESTS['sweep'].key()}", None),
                ("dse", "POST", "/v1/dse", campaign),
                ("dse", "GET", f"/v1/dse/{REQUESTS['dse'].key()}", None),
            ]:
                status, headers, body = request(server, method, path, body=payload)
                assert status == 200, body
                assert headers["X-Repro-Jobs-Executed"] == "0"
                assert body == bodies[kind]
            assert server.app.session.stats.submitted == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_warm_request_with_no_stored_body_is_probed_once(
        self, answered, tmp_path, monkeypatch, kind
    ):
        directory, bodies = answered
        copy = tmp_path / "cache"
        shutil.copytree(directory, copy)
        assert ResultCache(copy).prune(prefix=f"{kind}-").removed_entries >= 1
        request_ = REQUESTS[kind]
        calls = {"key": 0, "get_blob": 0, "put_blob": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(type(request_), "key")
        counted(ResultCache, "get_blob")
        counted(ResultCache, "put_blob")
        offloaded = []
        to_thread = asyncio.to_thread

        async def recording(func, /, *args, **kwargs):
            offloaded.append(func.__name__)
            return await to_thread(func, *args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", recording)
        if kind == "figure":
            method, path, payload = "GET", "/v1/figure/fig12", None
        else:
            method, path = "POST", f"/v1/{kind}"
            payload = json.dumps(request_.to_record()).encode()
        with BackgroundServer(micro_session(copy)) as server:
            status, headers, body = request(server, method, path, body=payload)
            assert status == 200, body
            assert headers["X-Repro-Jobs-Executed"] == "0"
            assert body == bodies[kind]
            assert server.app.session.stats.submitted > 0  # rendered from entries
        assert calls == {"key": 1, "get_blob": 1, "put_blob": 1}
        assert offloaded == ["classify", "render"]  # the probe and render only
        assert micro_session(copy).stored_body(kind, request_.key()) == body


# ----------------------------------------------------------------------
# Replication
# ----------------------------------------------------------------------
class TestBodiesStayOutOfReplication:
    def test_pull_fetches_content_keys_and_the_peer_renders_again(
        self, answered, tmp_path, capsys
    ):
        directory, bodies = answered
        source = ResultCache(directory)
        kept = [key for key in source.keys() if is_content_key(key)]
        stored = sorted(key.split("-")[0] for key in source.keys() if "-" in key)
        assert {"figure", "sweep", "dse"} <= set(stored)

        reset_shared_fabric()
        coordinator = Coordinator(WorkQueue(lease_seconds=30), cache=source)
        set_shared_coordinator(coordinator)
        try:
            url = coordinator.ensure_listener(port=0)
            with urllib.request.urlopen(url + "/v1/cache/keys", timeout=60) as response:
                inventory = json.loads(response.read())
            assert inventory["keys"] == kept and inventory["entries"] == len(kept)
            peer_dir = tmp_path / "peer"
            assert cli_main(["cache", "--cache-dir", str(peer_dir), "pull", url]) == 0
        finally:
            reset_shared_fabric()
        assert f"pulled {len(kept)} entries" in capsys.readouterr().out
        assert ResultCache(peer_dir).keys() == kept

        peer = micro_session(peer_dir)
        assert peer.answer("fig12") == (bodies["figure"], 0)
        assert peer.stats.submitted > 0 and peer.stats.executed == 0
