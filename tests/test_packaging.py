"""Every declared runtime dependency must be importable where the tests run."""

import importlib.util
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_dependencies_are_importable():
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert deps
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.\-]+", dep).group(0)
        assert importlib.util.find_spec(name.replace("-", "_")) is not None, dep
