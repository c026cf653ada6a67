"""Certificates: one home for each LHS/RHS, and golden CLI reports.

The specs under ``tests/golden`` are

- ``tfi4.json``: ``long_range_ising`` with n_sites=4, alpha=inf,
  coupling=1, field=1 (transverse-field Ising chain);
- ``diag5.json``: ``diagonal_commuting`` with n_sites=5, k=2, seed=3;
- ``rk6.json``: ``random_klocal`` with n_sites=6, k=2, n_terms=18, seed=5;
- ``rk130.json``: ``random_klocal`` with n_sites=130, k=2, n_terms=40,
  seed=3 (three mask words).

Each report file is the stdout of the command in ``GOLDEN_RUNS`` run
inside ``tests/golden``, captured before the code it guards was
restructured: the certificates moving into ``klocal.certify``; for
``concentrate_tfi4.json``, the dense evolution moving into one
``EigenSystem`` per Hamiltonian; for ``decompose_rk130.json``, the
layers becoming operators; and for the CSV reports in ``GOLDEN_CSV``
(the same commands with ``--format csv``), the concentrate pipeline and
the layer certificates moving into the library.  Regenerate one only
when its report is meant to change.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from klocal import models
from klocal.certify import layer_certificate
from klocal.cli import main
from klocal.layers import LayerDecomposition, discretize, pack_layers
from klocal.oracle import EigenSystem

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_RUNS = {
    "verify_tfi4.json": ["verify", "--spec", "tfi4.json"],
    "verify_diag5.json": ["verify", "--spec", "diag5.json"],
    "verify_rk6.json": ["verify", "--spec", "rk6.json"],
    "truncate_small_time.json": [
        "truncate", "--spec", "rk6.json", "--t", "0.008", "--q", "6", "--mode", "small-time",
    ],
    "truncate_chained.json": [
        "truncate", "--spec", "tfi4.json", "--t", "0.005", "--q", "7", "--mode", "chained",
    ],
    "decompose_tfi4.json": ["decompose", "--spec", "tfi4.json"],
    "decompose_rk130.json": ["decompose", "--spec", "rk130.json"],
    "concentrate_tfi4.json": ["concentrate", "--spec", "tfi4.json", "--t", "0.05", "--q", "2"],
}

# golden commands and variants without a report file of their own
RUNS = {
    **GOLDEN_RUNS,
    # r_t = 32767 > 2N leaves concentrate_tfi4 one bin; width 1 gives 2N + 1
    "concentrate_tfi4_bins": [*GOLDEN_RUNS["concentrate_tfi4.json"], "--bin-width", "1"],
}

GOLDEN_CSV = {
    "concentrate_tfi4.csv": GOLDEN_RUNS["concentrate_tfi4.json"],
    "decompose_tfi4.csv": GOLDEN_RUNS["decompose_tfi4.json"],
}

CHECK_FIELDS = {"check", "lhs", "rhs", "margin", "status", "note"}


@pytest.fixture
def run(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)

    def invoke(*argv: str) -> dict:
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    return invoke


def assert_rows_close(actual: list[list[str]], expected: list[list[str]]) -> None:
    """CSV cells agree as text, or as floats to 1e-12 relative."""
    assert len(actual) == len(expected)
    for i, (got, want) in enumerate(zip(actual, expected)):
        assert len(got) == len(want), f"row {i}"
        for a, e in zip(got, want):
            assert a == e or math.isclose(float(a), float(e), rel_tol=1e-12), f"row {i}: {a} != {e}"


def assert_close(actual, expected, where: str = "report") -> None:
    """Floats agree to 1e-12 relative; everything else exactly."""
    assert type(actual) is type(expected), where
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key, value in expected.items():
            assert_close(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0), where
    else:
        assert actual == expected, where


@pytest.mark.parametrize(
    "mode, spec, t, q, intervals",
    [("small-time", "rk6.json", "0.008", "6", 1), ("chained", "tfi4.json", "0.005", "7", 2)],
)
def test_truncate_and_verify_share_the_witness_certificate(run, mode, spec, t, q, intervals):
    truncated = run("truncate", "--spec", spec, "--t", t, "--q", q, "--mode", mode)["result"]
    checks = run("verify", "--spec", spec, "--t", t, "--q", q)["result"]["checks"]
    (witness,) = [c for c in checks if c["check"] == "truncated_witness"]
    assert truncated["mode"] == mode
    assert witness["note"] == f"t={float(t)}, q={q}, intervals={intervals}"
    assert truncated["oracle_error"] == witness["lhs"]
    assert truncated["certified"] and witness["status"] == "pass"


def test_non_commuting_spec_skips_energy_block(run):
    checks = run("verify", "--spec", "tfi4.json")["result"]["checks"]
    (energy,) = [c for c in checks if c["check"] == "energy_block"]
    assert set(energy) == CHECK_FIELDS
    assert energy == {
        "check": "energy_block",
        "lhs": 0.0,
        "rhs": 0.0,
        "margin": 0.0,
        "status": "skipped",
        "note": "Hamiltonian terms do not commute pairwise",
    }
    assert all(set(c) == CHECK_FIELDS for c in checks)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_report(run, name):
    expected = json.loads((GOLDEN / name).read_text())
    assert_close(run(*GOLDEN_RUNS[name]), expected)


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_golden_csv_report(capsys, monkeypatch, name):
    monkeypatch.chdir(GOLDEN)
    assert main([*GOLDEN_CSV[name], "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    with open(GOLDEN / name, newline="") as fh:
        assert_rows_close(rows, list(csv.reader(fh)))


@pytest.mark.parametrize(
    "name, expected",
    # the collective observable of concentrate has a closed-form spectrum
    # and its state evolves without one; at r_t > 2N one bin holds the whole
    # spectrum, so only a narrower bin width needs the evolved parent
    [
        ("verify_diag5.json", 1),
        ("truncate_chained.json", 1),
        ("concentrate_tfi4.json", 0),
        ("concentrate_tfi4_bins", 1),
    ],
)
def test_one_eigensystem_per_hamiltonian(run, monkeypatch, name, expected):
    built = []
    init = EigenSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EigenSystem, "__init__", counted)
    run(*RUNS[name])
    assert len(built) == expected


@pytest.mark.parametrize(
    "name", ["decompose_tfi4.json", "decompose_rk130.json", "verify_tfi4.json", "verify_diag5.json"]
)
def test_one_layer_verify_per_run(run, monkeypatch, name):
    # layer_certificate is its one caller
    calls = []
    original = LayerDecomposition.verify

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LayerDecomposition, "verify", counted)
    run(*GOLDEN_RUNS[name])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name, expected",
    # decompose hands its constants to discretize, and the truncation
    # report carries its bound, so witness_check derives no parameters
    [
        ("decompose_tfi4.json", 1),
        ("decompose_rk130.json", 1),
        ("verify_tfi4.json", 1),
        ("verify_diag5.json", 1),
        ("truncate_small_time.json", 1),
        ("truncate_chained.json", 1),
    ],
)
def test_structural_constants_once_per_use(run, monkeypatch, name, expected):
    calls = []
    original = models.structural_constants

    def counted(op):
        calls.append(op)
        return original(op)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("klocal") and vars(module).get("structural_constants") is original:
            monkeypatch.setattr(module, "structural_constants", counted)
    run(*GOLDEN_RUNS[name])
    assert len(calls) == expected


def test_layer_reconstruction_slack_covers_rounding():
    # the decompose benchmark chain: 32,896 terms, whose two norm_upper
    # sums differ by more than 1e-12 in rounding alone
    op = models.build_model("long_range_ising", {"n_sites": 256, "alpha": 2, "field": 1})
    const = models.structural_constants(op)
    decomp = pack_layers(discretize(op, const.g / 10, const))
    cert, checks = layer_certificate(op, decomp)
    (recon,) = [c for c in checks if c.check == "layer_reconstruction"]
    gap = cert["reconstruction_gap_upper"]
    assert recon.lhs - gap > 1e-12
    assert recon.status == "pass"
    assert recon.rhs - gap < 1e-8
