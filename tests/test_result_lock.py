"""Drift lock: the bytes behind the cache keys, pinned literally.

Job keys hash a layer's spec, not the operand arrays generated from it, and
a cached result is never recomputed.  A change that moves a generated
matrix or an engine result by one bit would therefore serve stale entries
silently.  This suite pins sha256 digests of:

* the structure of generated operands (``pointers`` then ``indices``, all
  a matrix stores), in both layouts and through both layout flips,
  including one matrix wider than ``2**16``;
* the result records of the engine on three representative layers, under
  two configurations and all six dataflows;
* the result record of every design (Flexagon through its oracle mapper,
  the three fixed-dataflow baselines and the CPU baseline) on the same
  three layers;
* a DSE slice: two built-in workloads under every built-in design point,
  compiled by :meth:`DseSpec.compile` and run serially over one shared
  materialisation, the way a worker runs one chunk.

A failure names every case that moved.  The pin rule, shared with
``tests/test_key_lock.py``:

* a moved result (a ``RESULTS``, ``DESIGNS`` or ``DSE`` digest) needs the
  ``CACHE_SCHEMA_VERSION`` bump that makes the move deliberate, or warm
  caches serve stale results; ``scripts/driftlock.py`` fails CI without it;
* a pin re-hashed over unchanged structure (a new digest of the same
  operands or inputs) needs no bump but a proof: its new literal equals the
  new digest computed on the parent commit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.accelerators.engine import SpmspmEngine
from repro.arch.config import default_config
from repro.dataflows.base import Dataflow
from repro.dse.designs import default_design_points
from repro.dse.explore import DseSpec
from repro.experiments.settings import ExperimentSettings
from repro.runtime.jobs import CPU_DESIGN, DESIGN_ORDER, SimJob, execute_job
from repro.sparse.formats import Layout
from repro.sparse.generate import SparsityPattern, random_sparse
from repro.workloads.layers import materialize_layer
from repro.workloads.representative import REPRESENTATIVE_LAYERS

MATRICES = {
    "uniform/csr": "e218fd71db921bfeb599655b1efcb51f31fe2ae75a653c6f124764460b689902",
    "uniform/csr->csc": "f420fe35ecb6bd29301f36a531381414a42034ce0f0109c06c56bbfb75101bca",
    "uniform/csc": "f420fe35ecb6bd29301f36a531381414a42034ce0f0109c06c56bbfb75101bca",
    "uniform/csc->csr": "e218fd71db921bfeb599655b1efcb51f31fe2ae75a653c6f124764460b689902",
    "row_skewed/csr": "dc64d44513cd99a38a8831980832ad0803917f4da7129f8fc970fadb016429dc",
    "row_skewed/csr->csc": "106a2e7d2e78de8ccbf545cb2935b0c0f061064c9fbdc4e1ad0570a977db493e",
    "row_skewed/csc": "106a2e7d2e78de8ccbf545cb2935b0c0f061064c9fbdc4e1ad0570a977db493e",
    "row_skewed/csc->csr": "dc64d44513cd99a38a8831980832ad0803917f4da7129f8fc970fadb016429dc",
    "banded/csr": "9c7431501adce8c81013a48a7a2f2f75683702e49ec8b548e7ff4299dc155d0a",
    "banded/csr->csc": "e4dc40a979339d71489f65ac0c7c119208d0b6196f8efac450e3935fb4078b98",
    "banded/csc": "e4dc40a979339d71489f65ac0c7c119208d0b6196f8efac450e3935fb4078b98",
    "banded/csc->csr": "9c7431501adce8c81013a48a7a2f2f75683702e49ec8b548e7ff4299dc155d0a",
    "block/csr": "aa4df153891eebd782a8f619d575fdd9bf341c32fab15dc1c5e6e39b731ed7c6",
    "block/csr->csc": "5f50bbaceb93a3af924c08676d0d65042b1e5750a7aa828b706ad2da5c0a7ba2",
    "block/csc": "5f50bbaceb93a3af924c08676d0d65042b1e5750a7aa828b706ad2da5c0a7ba2",
    "block/csc->csr": "aa4df153891eebd782a8f619d575fdd9bf341c32fab15dc1c5e6e39b731ed7c6",
}

WIDE = {
    "3x70000/csr": "a3ecdd2cc90290454ed733ad72d25c23cf7b771ef089aae0e11e0f716cb1ebe8",
    "3x70000/csr->csc": "5ebf0ea19866459e853748df9fa724eed9618edfc168f5d82c6348be4c31d994",
}

RESULTS = {
    "SQ5/default/IP_M": "f7e74f00491c3d4223ddc6ce4315fe026df40d86244ac8a3ac91dd736799a393",
    "SQ5/default/OP_M": "406fd790035712aaafb735672563519c91402dd74ffd427d9edf54f891a2a88f",
    "SQ5/default/GUST_M": "1f80a6b602e5a455fcf468a219a425cd0ee3464387042796f3f0831815cf2eb5",
    "SQ5/default/IP_N": "33d28980ff14dc2c0bcc763af7bfcbbed30a6044db1597ceea2b9587258202df",
    "SQ5/default/OP_N": "e259b040fbc010a4bdd7d2c8238a3be0e7cba05985cfdd983dc57586cbc6efe4",
    "SQ5/default/GUST_N": "8c60f0a86972776a07907a9cb1b8c40e361644aa08ed4c692bd32fdeec8a45fc",
    "SQ5/tiny/IP_M": "88b8051d3ceaf90a453f50f6c380e2d9305544ae41f36fa8e66415f701b5f618",
    "SQ5/tiny/OP_M": "2efcd07d6bc37c81fa108f5382f9283734ee340741e5d509b5a6fd1d1bdc1fee",
    "SQ5/tiny/GUST_M": "1f80a6b602e5a455fcf468a219a425cd0ee3464387042796f3f0831815cf2eb5",
    "SQ5/tiny/IP_N": "e1b91c91f7e001454c7b73e02a90e32344c6110274743aa598f7b25e62e58387",
    "SQ5/tiny/OP_N": "57e748bf179e594df09d95a7f47475252ce510a4e1900ba9bc89efe417c897e8",
    "SQ5/tiny/GUST_N": "8c60f0a86972776a07907a9cb1b8c40e361644aa08ed4c692bd32fdeec8a45fc",
    "SQ11/default/IP_M": "96b81f73cff4db503176ac5f455a6789e9f518d16f298dc92a1f3290b685b7c2",
    "SQ11/default/OP_M": "6e163328a7e1bd6719310c77a0f0cc901fecc7d1509a6cfdd11666f677177f04",
    "SQ11/default/GUST_M": "f730ff36ae1863015a65871432c898712b2a69205a7d55ba8162696fd92ce7d0",
    "SQ11/default/IP_N": "6ff888a92bd6857f1c55b6586a540b9fee2f47c1042c518ad4be599fb6e022f2",
    "SQ11/default/OP_N": "2ce514c401d6b03a0ac29f12df30295a9bdfca0cc57db3df4a795539a30d39ad",
    "SQ11/default/GUST_N": "c861efcd3d0d922c38d12fc65020505169f651c7764e6e472af5abb1e036d270",
    "SQ11/tiny/IP_M": "085d32dfb025088304dc3475b794ffdf6fe27f3deae38076f08f940b7ab1986e",
    "SQ11/tiny/OP_M": "9d7738acc30f0ba12c3233b70f4a030d7e45f32e90d0fa2bd9e25d06c852f8a8",
    "SQ11/tiny/GUST_M": "f730ff36ae1863015a65871432c898712b2a69205a7d55ba8162696fd92ce7d0",
    "SQ11/tiny/IP_N": "4e78e16a8afca6a1e55404081fac7753b5e8dfd693ef8476b58c8a496e8d7982",
    "SQ11/tiny/OP_N": "aa465cbe64b15df2acdc0dbd36754f206aef7f3de69aa3f12b1aee46d21c1bbf",
    "SQ11/tiny/GUST_N": "c861efcd3d0d922c38d12fc65020505169f651c7764e6e472af5abb1e036d270",
    "R4/default/IP_M": "63a00e62261c8ed9571b2f7cfbe32966820e1d723dfe0f1024b7654595e65420",
    "R4/default/OP_M": "8a1110d02e152cdd2459e10e328329982d2677ae41b4b185030e61dcdf5250d5",
    "R4/default/GUST_M": "7e9eb27548b080db9676a1d1e2a511ea1d3e9f75ef7cdf95f137671bfa383cab",
    "R4/default/IP_N": "e90cfd44a3d01bd99ce2ee749617db9c3b8d9b517f35b3023f3b6befec202b16",
    "R4/default/OP_N": "9cb39c4666616a11a55abc2508106001e5cc365e2710dbd84f3e3c587f843dac",
    "R4/default/GUST_N": "470818ceba5013a66d2b4815a1a65d36d9d857476be9ca1da206bd6b07aa25b2",
    "R4/tiny/IP_M": "4f8059caeedf352f7ee936d37ec28e61af5171f6c03cc2946805bdce826bd4d2",
    "R4/tiny/OP_M": "d1d43b5d3eb51b95557c40aeb100fb112867b32e69cb14e6e4804053eaedc033",
    "R4/tiny/GUST_M": "2bea0e62eb39421d672a406ac2aca5fba9bc1bedc9ef26fcf0dde3cd24343f2c",
    "R4/tiny/IP_N": "31354d964f9a458c8a32b8cf9a6be105ef4dff97fe7a9c86f479420ac3a2daeb",
    "R4/tiny/OP_N": "9299f7be6970285a54502e85dbdfdb2df8e24c33b863a3576fb7f3c550ff3867",
    "R4/tiny/GUST_N": "470818ceba5013a66d2b4815a1a65d36d9d857476be9ca1da206bd6b07aa25b2",
}

DESIGNS = {
    "SQ5/SIGMA-like": "2e3314ef510484ab0508cebd9d91440e348995d65debb2fbd9c0d06a1e6ba02d",
    "SQ5/SpArch-like": "71a96e1c1dc79ca6baa5166954d0a0a0d3342aa8e456d47b47034441c51eb2e4",
    "SQ5/GAMMA-like": "b9e739450c24494898ab505413ed9c75cc500ba19bb72ae3b06c5f9a8525e279",
    "SQ5/Flexagon": "777483deb0c5bb8ad8af53613d7cba6ccb5d8c3be44565d1b5e80bb96f7fdc84",
    "SQ5/CPU-MKL": "0b944bb14bdb387d37bb00897f37a9d66252642476e92464c9639cd0894a692a",
    "SQ11/SIGMA-like": "b466a7f2836b008d8577db8f8b2b7fe778748686b944d2ae6b3e6012afd0a435",
    "SQ11/SpArch-like": "9fd36d13d11e89695d1791d27db4e6b63fb7803b1fa206d7cd6a4be1c9b29b25",
    "SQ11/GAMMA-like": "cc01c2d7add222bca4a01f63c9350a5cf0990f896245dd6e781660f35c81ebe1",
    "SQ11/Flexagon": "357cc73529827643a9dbd4953aade17fa7a0cec63b8b0dc3b8062e7367a9f76f",
    "SQ11/CPU-MKL": "82986b71d0da2250813dc63734747f1a8dd6a30df16ff9d2d474f4fc6f344799",
    "R4/SIGMA-like": "7e372132bd3980c363bdfcff818542e433bb04eb8dafe7d18e77a1847d496cf2",
    "R4/SpArch-like": "f38cad9e2b74776969935892bf0a360880b4cc857a72ff6b1428fde32818a826",
    "R4/GAMMA-like": "1f31b4563eaca83bc8b5149a19e750ce0dcc2e7213ac8f0707deed37a0df9987",
    "R4/Flexagon": "37908375465ca67dafa90e73b29ff168a7ef866ede2f1cb3b7dcea2346023092",
    "R4/CPU-MKL": "b9e53ce5bc284610a120a93f6598e8fcc541705369c929c1aeb97ac8f797101c",
}

DSE = {
    "xf-prune-80/base": "c86ae30d01cb1b83516c6abe91901afda91a6349193092a7076a5ebc325d7626",
    "xf-prune-80/xbar16": "a4e5211347dc0a95b16d6b47248ad04b2755127c5675b7d7308e62c4f1d7d558",
    "xf-prune-80/xbar32": "9d1e65fbb131672bdfaff31e6b928c7fc86dd25d7bd39fffe02a9a9e55c59fa2",
    "xf-prune-80/xbar128": "56b4c084d0dfe6f5e2e0ae998750cc923fe9a55a33201c7ebd871a5169658b85",
    "xf-prune-80/mem-c256k-p128k": "c86ae30d01cb1b83516c6abe91901afda91a6349193092a7076a5ebc325d7626",
    "xf-prune-80/mem-c256k-p512k": "c86ae30d01cb1b83516c6abe91901afda91a6349193092a7076a5ebc325d7626",
    "xf-prune-80/mem-c4096k-p128k": "c86ae30d01cb1b83516c6abe91901afda91a6349193092a7076a5ebc325d7626",
    "xf-prune-80/mem-c4096k-p512k": "c86ae30d01cb1b83516c6abe91901afda91a6349193092a7076a5ebc325d7626",
    "xf-prune-80/3d-x2": "50bd46cfc91b63da4a9278b02435084d2ed12b742e15c71e328a010395f6e13f",
    "xf-prune-80/3d-x4": "ca687aee08d165e7b083dc08843db74a43980f4c279f5e2e2a713b527f6feccd",
    "xf-prune-80/3d-x8": "c21c2e7af0d868a8ce7753d805865a46c754d682934d89da75f0f112f02a4e2d",
    "gnn-cora/base": "7f464161d818c057b79cfaf488d2cd93db849e1f7ec7ec6fd5d0f6c7f9a949f4",
    "gnn-cora/xbar16": "c7cb2b2fe504b6419ff9866aa3833f7b93faf5a20a4d41dfa86708eb580ff2cc",
    "gnn-cora/xbar32": "a3e63426eb6e6ef548fbc6ed30ac66646d37ffe8bcad0fd7fedc9a4a88c32911",
    "gnn-cora/xbar128": "822499fd2dbfef9ca943803406c42b8a6c5ce921080198aa70226d3ee223e6da",
    "gnn-cora/mem-c256k-p128k": "7f464161d818c057b79cfaf488d2cd93db849e1f7ec7ec6fd5d0f6c7f9a949f4",
    "gnn-cora/mem-c256k-p512k": "7f464161d818c057b79cfaf488d2cd93db849e1f7ec7ec6fd5d0f6c7f9a949f4",
    "gnn-cora/mem-c4096k-p128k": "7f464161d818c057b79cfaf488d2cd93db849e1f7ec7ec6fd5d0f6c7f9a949f4",
    "gnn-cora/mem-c4096k-p512k": "7f464161d818c057b79cfaf488d2cd93db849e1f7ec7ec6fd5d0f6c7f9a949f4",
    "gnn-cora/3d-x2": "7f464161d818c057b79cfaf488d2cd93db849e1f7ec7ec6fd5d0f6c7f9a949f4",
    "gnn-cora/3d-x4": "7f464161d818c057b79cfaf488d2cd93db849e1f7ec7ec6fd5d0f6c7f9a949f4",
    "gnn-cora/3d-x8": "7f464161d818c057b79cfaf488d2cd93db849e1f7ec7ec6fd5d0f6c7f9a949f4",
}

CONFIGS = {
    "default": default_config(),
    "tiny": default_config(num_multipliers=8, str_cache_bytes=2048, psram_bytes=2048),
}

#: The DSE slice: two workloads (one transformer, one GNN) under every
#: built-in design point, at the scale a 4e6-MAC budget gives them.
DSE_SPEC = DseSpec(workloads=("xf-prune-80", "gnn-cora"))
DSE_SETTINGS = ExperimentSettings(max_dense_macs=4e6)


def _matrix_digest(matrix) -> str:
    digest = hashlib.sha256()
    for array in (matrix.pointers, matrix.indices):
        digest.update(array.tobytes())
    return digest.hexdigest()


def matrix_digests() -> dict[str, str]:
    digests = {}
    for pattern in SparsityPattern:
        for layout in Layout:
            matrix = random_sparse(64, 48, 0.2, pattern=pattern, seed=1234, layout=layout)
            name = f"{pattern.value}/{layout.value}"
            digests[name] = _matrix_digest(matrix)
            digests[f"{name}->{layout.other.value}"] = _matrix_digest(
                matrix.with_layout(layout.other)
            )
    return digests


def wide_digests() -> dict[str, str]:
    matrix = random_sparse(3, 70000, 0.002, seed=5)
    return {
        "3x70000/csr": _matrix_digest(matrix),
        "3x70000/csr->csc": _matrix_digest(matrix.with_layout(Layout.CSC)),
    }


def result_digests() -> dict[str, str]:
    digests = {}
    for spec in REPRESENTATIVE_LAYERS[:3]:
        a, b = materialize_layer(spec, scale=0.1)
        for config_name, config in CONFIGS.items():
            engine = SpmspmEngine(config)
            for dataflow in Dataflow:
                record = engine.run_layer(dataflow, a, b, layer_name=spec.name).to_record()
                blob = json.dumps(record, sort_keys=True).encode()
                digests[f"{spec.name}/{config_name}/{dataflow.name}"] = (
                    hashlib.sha256(blob).hexdigest()
                )
    return digests


def _record_digest(result) -> str:
    # CpuRunResult has no to_record(); its fields are plain numbers.
    record = result.to_record() if hasattr(result, "to_record") else asdict(result)
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def design_digests() -> dict[str, str]:
    digests = {}
    for spec in REPRESENTATIVE_LAYERS[:3]:
        for design in DESIGN_ORDER + (CPU_DESIGN,):
            job = SimJob(
                design=design,
                config=default_config(),
                spec=spec,
                scale=0.1,
                layer_name=spec.name,
            )
            # No trial cache: every engine run of the oracle executes here.
            result = execute_job(job, trial_cache=None)
            digests[f"{spec.name}/{design}"] = _record_digest(result)
    return digests


def dse_digests() -> dict[str, str]:
    jobs, meta = DSE_SPEC.compile(DSE_SETTINGS)
    digests = {}
    shared = {}
    for job, entry in zip(jobs, meta):
        # Consecutive jobs of one workload get the same operand objects, so
        # the engine's per-pair memos carry over from point to point.
        operands = shared.setdefault(entry["workload"], job.operands())
        assert all(x is y for x, y in zip(job.operands(), operands))
        result = execute_job(job, trial_cache=None)
        digests[f"{entry['workload']}/{entry['design_point']}"] = _record_digest(result)
    return digests


def _moved(pinned: dict[str, str], measured: dict[str, str]) -> list[str]:
    return sorted(
        name for name in pinned.keys() | measured.keys()
        if pinned.get(name) != measured.get(name)
    )


def test_generated_matrices_and_flips_are_pinned():
    assert _moved(MATRICES, matrix_digests()) == []


def test_matrix_wider_than_radix_bound_is_pinned():
    assert _moved(WIDE, wide_digests()) == []


def test_engine_result_records_are_pinned():
    assert _moved(RESULTS, result_digests()) == []


def test_every_design_record_is_pinned():
    assert _moved(DESIGNS, design_digests()) == []


def test_dse_slice_records_are_pinned():
    assert DSE_SPEC.designs == default_design_points()
    assert _moved(DSE, dse_digests()) == []
