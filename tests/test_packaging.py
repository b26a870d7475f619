"""Packaging metadata: one version, and the dependencies the package imports."""

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


def test_numpy_is_an_install_requirement(tmp_path):
    """``import repro.sim`` needs numpy, so installing must pull it in."""

    pytest.importorskip("setuptools")
    subprocess.run(
        [sys.executable, "setup.py", "egg_info", "--egg-base", str(tmp_path)],
        cwd=REPO_ROOT,
        capture_output=True,
        check=True,
    )
    (requires,) = tmp_path.glob("*.egg-info/requires.txt")
    # Unconditional requirements come before the first ``[extra]`` section.
    text = "\n" + requires.read_text(encoding="utf-8")
    unconditional = text.split("\n[", 1)[0]
    names = [line.split(">")[0].split("=")[0].strip() for line in unconditional.splitlines()]
    assert "numpy" in names
