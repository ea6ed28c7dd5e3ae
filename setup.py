"""Package metadata of the Flexagon reproduction (import package ``repro``).

Everything also runs from the checkout with ``PYTHONPATH=src``; this file
makes the ``src`` layout installable (``pip install .``) and answers
metadata queries such as ``python setup.py --name``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1),
    description=(
        "Reproduction of Flexagon, a multi-dataflow sparse-sparse matrix "
        "multiplication accelerator (ASPLOS 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.analyze": ["schema_lock.json"]},
    python_requires=">=3.11",
    install_requires=["numpy>=2.0"],
)
