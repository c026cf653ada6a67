"""The analysis scripts under ``scripts/`` run end to end on 4 sites.

Each script is loaded from its file and its ``main`` is called with
command-line arguments; the CSVs it writes are checked for their header
and their row count (header excluded).
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from klocal.cli import main
from klocal.models import build_model, spec_from_operator
from klocal.oracle import DenseOperator, EigenSystem

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"
N_SITES = 4


def _run(name: str, *argv: str) -> None:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--n-sites", str(N_SITES), *argv]) == 0


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


# (script, extra arguments, {output file: (header, row count)}); the counts
# follow from the script defaults at N = 4:
# - bound_sweep: 12 times x q in 1..40;
# - spreading_profile: 10 times x q in 1..N;
# - concentration_tails: 3 times x R in 0..N (the mean of sum Z stays 0 in
#   |+>^N by the global spin flip), and (N+1)^2 occupied bin pairs per time
#   (r_t = 1 puts each eigenvalue -N, -N+2, ..., N in its own bin).
CASES = [
    (
        "bound_sweep",
        ("--out", "{tmp}/bounds.csv"),
        {"bounds.csv": (["t", "q", "intervals", "r_t", "small_time_rhs", "main_rhs"], 12 * 40)},
    ),
    (
        "spreading_profile",
        ("--out", "{tmp}/spreading.csv"),
        {
            "spreading.csv": (
                ["t", "intervals", "q", "weight_mass_above_q", "distance_to_q_local", "chained_bound"],
                10 * N_SITES,
            )
        },
    ),
    (
        "concentration_tails",
        ("--out-prefix", "{tmp}/conc"),
        {
            "conc_tails.csv": (["t", "R", "tail", "fitted_curve"], 3 * (N_SITES + 1)),
            "conc_bands.csv": (["t", "x", "x_prime", "norm", "bound"], 3 * (N_SITES + 1) ** 2),
        },
    ),
]


def test_spreading_profile_transforms_each_operator_once(tmp_path, monkeypatch):
    # one Pauli transform per time point, shared by weight_spectrum and the
    # eight q_local_project calls (4 transforms, not 36); the last
    # --n-sites wins over the one _run passes
    transform = DenseOperator.__dict__["pauli_coefficients"]
    original, calls = transform.func, []

    def counted(dense):
        calls.append(dense.n_sites)
        return original(dense)

    monkeypatch.setattr(transform, "func", counted)
    _run("spreading_profile", "--n-sites", "8", "--t-points", "4", "--out", str(tmp_path / "s.csv"))
    assert len(calls) == 4
    _, rows = _read(tmp_path / "s.csv")
    assert len(rows) == 4 * 8


def test_spreading_profile_matches_benchmark_reference(tmp_path):
    # every cell of the benchmark's pinned profile, at the benchmark's
    # tolerance: 1e-9 relative, 1e-12 absolute
    reference = json.loads((REPO / "perfbench" / "reference.json").read_text())["spreading_profile"]
    _run("spreading_profile", "--n-sites", "8", "--t-points", "4", "--out", str(tmp_path / "s.csv"))
    header, rows = _read(tmp_path / "s.csv")
    assert header == reference[0]
    assert len(rows) == len(reference) - 1
    for got, want in zip(rows, reference[1:]):
        for a, e in zip(got, want, strict=True):
            fa, fe = float(a), float(e)
            assert (math.isnan(fa) and math.isnan(fe)) or math.isclose(
                fa, fe, rel_tol=1e-9, abs_tol=1e-12
            ), (got, want)


def test_bound_sweep_nan_cells(tmp_path):
    # at N = 4, kappa = 288 and the 12 default times are i / (4 kappa):
    # small_time_rhs leaves its window t < 2/kappa from i = 8 on, and
    # main_rhs needs q >= 2**n with n = 1, 2, 3 intervals for i in
    # 1..4, 5..8, 9..12
    _run("bound_sweep", "--out", str(tmp_path / "b.csv"))
    _, rows = _read(tmp_path / "b.csv")
    for index, row in enumerate(rows):
        i, q = index // 40 + 1, int(row[1])
        n = (i + 3) // 4
        assert int(row[2]) == n
        assert math.isnan(float(row[4])) == (i >= 8), row
        assert math.isnan(float(row[5])) == (q < 2**n), row
    # 5 times outside the window, and 1 + 3 + 7 q below 2**n at 4 times each
    assert sum(row[4] == "nan" for row in rows) == 5 * 40
    assert sum(row[5] == "nan" for row in rows) == 4 * (1 + 3 + 7)


def test_concentration_tails_builds_one_eigensystem(tmp_path, monkeypatch):
    # every default time splits the bins and evolves the parent, all on
    # the one eigendecomposition of the chain
    calls = []
    original = EigenSystem.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(EigenSystem, "__init__", counted)
    _run("concentration_tails", "--out-prefix", str(tmp_path / "conc"))
    assert len(calls) == 1
    _, bands = _read(tmp_path / "conc_bands.csv")
    assert len({row[0] for row in bands}) == 3


@pytest.mark.parametrize("name, argv, outputs", CASES, ids=[case[0] for case in CASES])
def test_script_writes_csv(tmp_path, name, argv, outputs):
    _run(name, *(arg.format(tmp=tmp_path) for arg in argv))
    for filename, (want_header, want_rows) in outputs.items():
        header, rows = _read(tmp_path / filename)
        assert header == want_header
        assert len(rows) == want_rows
        assert all(len(row) == len(header) for row in rows)


def test_concentration_tails_rows_match_concentrate(tmp_path, capsys):
    # the script and `klocal concentrate` on the same chain at the same t:
    # (R, tail, fitted curve) and (x, x', norm, bound) agree
    _run("concentration_tails", "--t-fracs", "0.5", "--out-prefix", str(tmp_path / "conc"))
    _, tails = _read(tmp_path / "conc_tails.csv")
    _, bands = _read(tmp_path / "conc_bands.csv")
    chain = build_model(
        "long_range_ising", {"n_sites": N_SITES, "alpha": math.inf, "coupling": 1.0, "field": 1.0}
    )
    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps(spec_from_operator(chain)))
    capsys.readouterr()
    assert main(["concentrate", "--spec", str(spec), "--t", tails[0][0], "--format", "csv"]) == 0
    _, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    cli_tails = [[r, tail, curve] for kind, r, _, tail, curve in rows if kind == "tail"]
    cli_bands = [row[1:] for row in rows if row[0] == "band"]
    for got, want in [(cli_tails, [row[1:] for row in tails]), (cli_bands, [row[1:] for row in bands])]:
        assert len(got) == len(want) > 0
        for got_row, want_row in zip(got, want):
            assert len(got_row) == len(want_row)
            for a, e in zip(got_row, want_row):
                assert a == e or math.isclose(float(a), float(e), rel_tol=1e-12, abs_tol=1e-15), (a, e)
