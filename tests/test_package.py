"""The package API: each module declares its public names once, in its
``__all__``, and ``klocal`` re-exports those of every module it imports."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import klocal

MODULES = sorted(path.stem for path in Path(klocal.__file__).parent.glob("*.py") if path.stem != "__init__")
# loaded by name only, so that ``import klocal`` stays light
NOT_EXPORTED = {"certify", "cli"}


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_declared(name):
    module = importlib.import_module(f"klocal.{name}")
    defined = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)


@pytest.mark.parametrize("name", sorted(set(MODULES) - NOT_EXPORTED))
def test_package_exports_each_module_list(name):
    module = importlib.import_module(f"klocal.{name}")
    for attr in module.__all__:
        assert getattr(klocal, attr) is getattr(module, attr)


def test_import_loads_no_command_module():
    code = "import sys, klocal; print(' '.join(sorted(m for m in sys.modules if m.startswith('klocal.'))))"
    env = {**os.environ, "PYTHONPATH": str(Path(klocal.__file__).parents[1])}
    found = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = found.stdout.split()
    assert loaded == [f"klocal.{name}" for name in sorted(set(MODULES) - NOT_EXPORTED)]
