"""The benchmark tracer still reaches the layers it times.

``perfbench/tracer.py`` wraps klocal functions and methods by name, so a
refactor that renames or reshapes one of them can blind a benchmark
metric, or break a traced run, without any other test failing.  Each
case runs a golden command plainly and under the tracer, requires the
same exit code and byte-identical stdout, and requires a call on every
span that the command reaches.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_certify import GOLDEN, RUNS

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

SPANS = {
    "concentrate_tfi4.json": {
        "concentration.evolve_state",
        "concentration.tail_profile",
        "concentration.observable",
        "concentration.topo_error",
    },
    "concentrate_tfi4_bins": {
        "concentration.evolve_state",
        "concentration.band_matrix",
        "oracle.eigh",
    },
    "decompose_tfi4.json": {
        "layers.discretize",
        "layers.pack_layers",
        "layers.verify",
    },
    "truncate_chained.json": {
        "truncation.hadamard",
        "pauli.commutator",
        "pauli.prune",
        "oracle.eigh",
    },
    "truncate_small_time.json": {
        "truncation.hadamard",
        "pauli.commutator",
        "pauli.prune",
        "oracle.eigh",
        "models.structural_constants",
    },
    "verify_diag5.json": {
        "truncation.hadamard",
        "oracle.eigh",
        "oracle.to_dense",
        "oracle.operator_norm_exact",
        "oracle.spectral_norm",
        "layers.pack_layers",
        "models.structural_constants",
    },
}


def _python(*argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        cwd=GOLDEN,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", sorted(SPANS))
def test_traced_run_matches_and_counts(tmp_path, name):
    plain = _python("-m", "klocal.cli", *RUNS[name])
    trace = tmp_path / "trace.json"
    traced = _python(str(TRACER), str(trace), "cli", *RUNS[name])
    assert traced.returncode == plain.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    spans = json.loads(trace.read_text())["spans"]
    for span in SPANS[name]:
        assert spans[span]["calls"] >= 1, span
