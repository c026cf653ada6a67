"""The README's "Library example" runs as written, so the API it shows
survives every change to the package, and its CLI synopsis names every
option of every subcommand."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from klocal.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    section = _section("Library example")
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(block, f"{README.name} (Library example)", "exec"), {})


def test_cli_synopsis_names_every_option():
    block = re.findall(r"```sh\n(.*?)```", _section("CLI"), flags=re.S)[0]
    lines = block.replace("\\\n", " ").splitlines()
    synopsis = {line.split()[1]: set(re.findall(r"--[a-z][a-z0-9-]*", line)) for line in lines}
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in subcommands.choices.items():
        options = {option for action in parser._actions for option in action.option_strings}
        # "Common flags" names --out and --format
        missing = options - {"-h", "--help", "--out", "--format"} - synopsis[name]
        assert not missing, f"README synopsis of {name} lacks {sorted(missing)}"
