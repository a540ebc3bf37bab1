"""Setup shim for environments without wheel/PEP-517 editable support."""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-sourced: the version lives in ``repro.__version__``.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.20", "scipy>=1.7"],
    extras_require={
        # `pip install -e .[test]` + `python -m pytest -x -q` runs the suite
        # (pytest.ini supplies pythonpath/testpaths for non-installed use).
        "test": [
            "pytest>=7.0",
            "pytest-benchmark>=4.0",
            "pytest-cov>=4.0",
            "hypothesis>=6.0",
        ],
    },
)
