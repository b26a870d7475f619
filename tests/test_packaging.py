"""Packaging metadata: the distribution and the package share one version."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_setup_version_is_the_package_version():
    pytest.importorskip("setuptools")  # not bundled with every Python 3.12+
    completed = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip().splitlines()[-1] == repro.__version__
