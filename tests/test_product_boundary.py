"""``src/repro`` is the product: every module in it serves a product path.

The product runs one model of the hardware, the engine's NumPy kernels; the
other models (the per-batch walk, its per-line cache, the functional
dataflows, the MRN micro-simulation) live in ``tests/oracles/``.  This
checks the real import graph: a fresh interpreter imports every product
entry package and simulates a layer on every design, and that must load
every module of the package but the two ``__main__`` scripts, so no module
only the tests use can sit in ``src/``.

The serving front-end and the fabric share only :mod:`repro.httpd`, so the
same check holds between them: a fabric worker never loads
:mod:`repro.serve`, and a plain query server never loads
:mod:`repro.fabric`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The package's scripts: ``python -m`` runs them, nothing imports them.
SCRIPT_MODULES = {"repro.__main__", "repro.analyze.__main__"}

_PRODUCT_RUN = """
import json, pkgutil, sys
import repro, repro.api, repro.runtime, repro.serve, repro.fabric, repro.dse
import repro.cli, repro.analyze
from repro.api import Session
from repro.experiments.settings import default_settings
from repro.runtime import CPU_DESIGN, DESIGN_ORDER
from repro.sparse import random_sparse

session = Session(default_settings(), parallel=False, cache=None)
a = random_sparse(24, 32, 0.3, seed=1)
b = random_sparse(32, 20, 0.3, seed=2)
results = session.simulate(a, b, designs=DESIGN_ORDER + (CPU_DESIGN,))
loaded = sorted(name for name in sys.modules if name.startswith("repro."))
# Listed after the snapshot: walking imports every subpackage.
package = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
print(json.dumps({"results": len(results), "loaded": loaded, "package": package}))
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
    """Run ``script`` in a new interpreter; its last stdout line as JSON.

    The child inherits the caller's environment but every ``REPRO_*`` knob,
    so the product runs at its defaults and, under the caller's
    ``PYTHONDONTWRITEBYTECODE``, writes no bytecode into ``src/``.
    """
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_product_paths_load_every_module_of_the_package():
    report = _fresh_interpreter(_PRODUCT_RUN)
    assert report["results"] == 5
    assert "repro.accelerators.engine" in report["package"]
    unloaded = set(report["package"]) - set(report["loaded"]) - SCRIPT_MODULES
    assert not unloaded, f"modules no product path loads: {sorted(unloaded)}"


def test_the_fabric_never_loads_the_serve_front_end():
    loaded = _fresh_interpreter(_FABRIC_IMPORT)["loaded"]
    assert "repro.fabric.worker" in loaded and "repro.httpd" in loaded
    assert not [name for name in loaded if name.startswith("repro.serve")]


def test_a_plain_query_server_never_loads_the_fabric():
    report = _fresh_interpreter(_PLAIN_QUERY)
    assert report["status"] == 200 and report["figures"] > 0
    assert "repro.serve.app" in report["loaded"]
    assert not [name for name in report["loaded"] if name.startswith("repro.fabric")]
