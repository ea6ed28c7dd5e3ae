"""The product runs one model of the hardware: the engine's NumPy kernels.

The per-batch walk (:mod:`repro.accelerators.reference`), its per-line
streaming cache and fiber reader, and the MRN micro-simulation are kept for
the tests and the benchmarks.  This checks the real import graph: a fresh
interpreter imports every product entry package and simulates a layer on
every design, and none of those modules may load.

The serving front-end and the fabric share only :mod:`repro.httpd`, so the
same check holds between them: a fabric worker never loads
:mod:`repro.serve`, and a plain query server never loads
:mod:`repro.fabric`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Modules only the tests and the benchmarks may load.
ORACLE_MODULES = (
    "repro.accelerators.reference",
    "repro.arch.memory.cache",
    "repro.arch.controllers.streaming",
    "repro.arch.mrn",
)

_PRODUCT_RUN = """
import json, sys
import repro.api, repro.runtime, repro.serve, repro.fabric, repro.dse, repro.cli
from repro.api import Session
from repro.experiments.settings import default_settings
from repro.runtime import CPU_DESIGN, DESIGN_ORDER
from repro.sparse import random_sparse

session = Session(default_settings(), parallel=False, cache=None)
a = random_sparse(24, 32, 0.3, seed=1)
b = random_sparse(32, 20, 0.3, seed=2)
results = session.simulate(a, b, designs=DESIGN_ORDER + (CPU_DESIGN,))
print(json.dumps({
    "results": len(results),
    "loaded": sorted(name for name in sys.modules if name.startswith("repro.")),
}))
"""


_FABRIC_IMPORT = """
import json, sys
import repro.fabric
print(json.dumps({
    "loaded": sorted(name for name in sys.modules if name.startswith("repro.")),
}))
"""

_PLAIN_QUERY = """
import http.client, json, sys
from repro.api import Session
from repro.experiments.settings import default_settings
from repro.serve import BackgroundServer

with BackgroundServer(Session(default_settings(), parallel=False, cache=None)) as server:
    assert not server.app.fabric_routes
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    connection.request("GET", "/v1/figures")
    response = connection.getresponse()
    status, figures = response.status, json.loads(response.read())["figures"]
    connection.close()
print(json.dumps({
    "status": status,
    "figures": len(figures),
    "loaded": sorted(name for name in sys.modules if name.startswith("repro.")),
}))
"""


def _fresh_interpreter(script: str) -> dict:
    """Run ``script`` in a new interpreter; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_product_paths_never_load_the_oracle_modules():
    report = _fresh_interpreter(_PRODUCT_RUN)
    assert report["results"] == 5
    assert "repro.accelerators.engine" in report["loaded"]
    assert "repro.core.mapper" in report["loaded"]
    assert "repro.accelerators.cpu" in report["loaded"]
    assert not set(ORACLE_MODULES) & set(report["loaded"])


def test_the_fabric_never_loads_the_serve_front_end():
    loaded = _fresh_interpreter(_FABRIC_IMPORT)["loaded"]
    assert "repro.fabric.worker" in loaded and "repro.httpd" in loaded
    assert not [name for name in loaded if name.startswith("repro.serve")]


def test_a_plain_query_server_never_loads_the_fabric():
    report = _fresh_interpreter(_PLAIN_QUERY)
    assert report["status"] == 200 and report["figures"] > 0
    assert "repro.serve.app" in report["loaded"]
    assert not [name for name in report["loaded"] if name.startswith("repro.fabric")]
