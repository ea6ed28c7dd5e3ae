"""The product runs one model of the hardware: the engine's NumPy kernels.

The per-batch walk (:mod:`repro.accelerators.reference`), its per-line
streaming cache and fiber reader, and the MRN micro-simulation are kept for
the tests and the benchmarks.  This checks the real import graph: a fresh
interpreter imports every product entry package and simulates a layer on
every design, and none of those modules may load.
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


def test_product_paths_never_load_the_oracle_modules():
    proc = subprocess.run(
        [sys.executable, "-c", _PRODUCT_RUN],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["results"] == 5
    assert "repro.accelerators.engine" in report["loaded"]
    assert "repro.core.mapper" in report["loaded"]
    assert "repro.accelerators.cpu" in report["loaded"]
    assert not set(ORACLE_MODULES) & set(report["loaded"])
