"""Setuptools entry point.

Kept as an explicit ``setup()`` call so that ``pip install -e .`` works even
on environments whose pip/setuptools cannot perform PEP 660 editable installs
(e.g. offline machines without the ``wheel`` package, where pip falls back to
the legacy ``setup.py develop`` path).

The simulator is pure Python on top of numpy, which it requires: the
simulated address space and every workload build their data structures as
numpy arrays, and non-programmable modes replay through the numpy vector
tier (see ``docs/performance.md``).

The version is read from ``src/repro/__init__.py`` as text, not imported, so
``repro.__version__`` (what ``repro version`` prints) is its one source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    text = init.read_text(encoding="utf-8")
    return re.search(r'^__version__ = "([^"]+)"$', text, re.M).group(1)


setup(
    name="repro-programmable-prefetcher",
    version=read_version(),
    description=(
        "Software reproduction of an event-triggered programmable prefetcher "
        "with a cycle-approximate cache and out-of-order core model"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    entry_points={
        "console_scripts": [
            # `repro serve` runs the simulation service daemon.
            "repro=repro.cli:main",
        ],
    },
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
)
