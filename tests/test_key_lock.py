"""Drift lock: the keys that address cached and served bytes, pinned literally.

A job key addresses a cache entry; an ETag and a ``figure-``, ``sweep-`` or
``dse-`` body key are hashes over the settings record and both schema
versions (figure and sweep body keys also over the model, layer and CPU
tables).  A refactor that moves any of them silently orphans every warm
cache and every client validator, so the digests below are literals.  The
pin rule, shared with ``tests/test_result_lock.py``: a moved result needs
the schema-version bump that makes the move deliberate; a pin re-hashed over
unchanged structure needs no bump but a proof, its new literal equal to the
new digest computed on the parent commit (``engine_operand_job`` moved so
when operand digests dropped their values).

The settings' share of an ETag and a body key, and a configuration's share
of a job key, are memoised per value, so the last tests pin what such a
memo must keep: equal settings share their keys, a settings value never
lends its keys to another, and a number keys alike however it is spelled.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.api import DseSpec, FigureQuery, SweepSpec, dse_report_key
from repro.arch.config import default_config
from repro.dataflows.base import Dataflow
from repro.dse import explore
from repro.dse.explore import report_key
from repro.experiments.settings import ExperimentSettings
from repro.runtime import SimJob, jobs
from repro.serve import wire
from repro.sparse.formats import csr_from_dense
from repro.workloads.representative import REPRESENTATIVE_LAYERS

PINNED = {
    "flexagon_spec_job": "7b50744c4da2a514b106b906aa22a21457fb26132b6d990177a7399451245631",
    "engine_operand_job": "409d4c357a8abde2fe3e05f964ec55a4e673dee3595c93173b3b9e9ed563fd56",
    "cpu_job": "41753ab2a046eb668b1fdbbc7edca63fd10ea4c29fd9e851e49369507757170a",
    "fig12_etag": '"c2d40bc42b49e49a8df15a41901c7859"',
    "dse_report_key": "dse-4b1186e82dd87c01ab954c0b36623837474b1f5ff30cee5e5be1c5c397947e7c",
    "fig12_report_key": "figure-e304fbf231724b3408914390ebb5f9f71035523ca5062bce3d3aa22525646497",
    "sweep_report_key": "sweep-ca50ea49491e6393a9959f254f67de92ac655e52fd151bcddc098923a7c467ce",
}


def _spec_job(design: str) -> SimJob:
    spec = REPRESENTATIVE_LAYERS[0]
    return SimJob(
        design=design,
        config=default_config(),
        spec=spec,
        scale=0.05,
        seed=spec.deterministic_seed(0),
        layer_name=spec.name,
    )


def test_keys_match_their_pinned_digests():
    a = csr_from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 3.0]]))
    b = csr_from_dense(np.array([[0.0, 4.0], [5.0, 0.0], [0.0, 6.0]]))
    settings = ExperimentSettings()
    keys = {
        "flexagon_spec_job": _spec_job("Flexagon").key(),
        "engine_operand_job": SimJob(
            design="engine", config=default_config(), a=a, b=b,
            dataflow=Dataflow.GUST_M,
        ).key(),
        "cpu_job": _spec_job("CPU-MKL").key(),
        "fig12_etag": wire.request_etag("figure", FigureQuery("fig12").key(), settings),
        "dse_report_key": dse_report_key(
            DseSpec(workloads=("xf-prune-80",), designs=("base",)), settings
        ),
        "fig12_report_key": report_key("figure", FigureQuery("fig12").key(), settings),
        "sweep_report_key": report_key(
            "sweep", SweepSpec(layers=("R6",)).key(), settings
        ),
    }
    assert keys == PINNED


def test_operand_values_never_reach_a_job_key():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
    b = csr_from_dense(np.array([[0.0, 4.0], [5.0, 0.0], [0.0, 6.0]]))
    keys = {
        SimJob(
            design="engine", config=default_config(), a=csr_from_dense(a_dense), b=b,
            dataflow=Dataflow.GUST_M,
        ).key()
        for a_dense in (dense, 2 * dense)
    }
    assert len(keys) == 1


def _fig12_keys(settings: ExperimentSettings) -> tuple[str, str]:
    """The fig12 ETag and body key under ``settings``."""
    request_key = FigureQuery("fig12").key()
    return (
        wire.request_etag("figure", request_key, settings),
        report_key("figure", request_key, settings),
    )


def test_equal_settings_share_their_keys_and_a_changed_field_moves_them():
    first, second = ExperimentSettings(), ExperimentSettings()
    assert first is not second and first == second
    pinned = (PINNED["fig12_etag"], PINNED["fig12_report_key"])
    assert _fig12_keys(first) == _fig12_keys(second) == pinned
    etag, body_key = _fig12_keys(ExperimentSettings(seed_salt=1))
    assert etag != pinned[0] and body_key != pinned[1]


def test_settings_dropped_in_turn_never_lend_their_keys():
    # CPython gives a new object the address of one just freed, so a memo
    # keyed by ``id`` would answer a new settings value with an old one's keys.
    etags, body_keys = set(), set()
    for salt in range(32):
        settings = ExperimentSettings(seed_salt=salt)
        etag, body_key = _fig12_keys(settings)
        del settings
        etags.add(etag)
        body_keys.add(body_key)
    assert len(etags) == len(body_keys) == 32


def test_a_number_keys_alike_whoever_spelled_it_first():
    # Equal numbers compare and hash alike, so value-keyed memos would hand
    # the first spelling's JSON to every later equal value.
    jobs._config_blob.cache_clear()
    wire.settings_key.cache_clear()
    explore._settings_record.cache_clear()
    int_config = default_config(frequency_hz=800000000)
    int_settings = ExperimentSettings(config=int_config, max_dense_macs=4000000)
    int_job = replace(_spec_job("Flexagon"), config=int_config)
    assert int_job.key() == PINNED["flexagon_spec_job"]
    assert _fig12_keys(int_settings) == (PINNED["fig12_etag"], PINNED["fig12_report_key"])
    assert _spec_job("Flexagon").key() == PINNED["flexagon_spec_job"]
    assert _fig12_keys(ExperimentSettings()) == (
        PINNED["fig12_etag"], PINNED["fig12_report_key"]
    )
