"""The sources keep to the oldest Python that ``pyproject.toml`` admits.

Each file under ``src/klocal`` and ``scripts`` must parse with the grammar
of that version, whatever interpreter runs the tests.  This guards syntax
only: a call into a newer standard-library API still passes.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "klocal").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])
OLDEST = (3, 10)


def test_oldest_version_is_the_declared_floor():
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert tuple(map(int, declared.groups())) == OLDEST


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_with_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
