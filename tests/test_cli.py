"""Command-line interface: subcommands, report schema, exit codes."""

from __future__ import annotations

import hashlib
import json
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from klocal import __version__
from klocal.cli import main
from klocal.models import build_model, spec_from_operator

GOLDEN = Path(__file__).parent / "golden"

@pytest.fixture
def tfi_spec(tmp_path):
    op = build_model(
        "long_range_ising",
        {"n_sites": 4, "alpha": math.inf, "coupling": 1.0, "field": 1.0},
    )
    path = tmp_path / "tfi4.json"
    path.write_text(json.dumps(spec_from_operator(op)))
    return str(path)


@pytest.fixture
def single_qubit_specs(tmp_path):
    h = {"n_sites": 1, "terms": [{"sites": [0], "paulis": "X", "coeff": [1.0, 0.0]}]}
    g = {"n_sites": 1, "terms": [{"sites": [0], "paulis": "Z", "coeff": [1.0, 0.0]}]}
    hp = tmp_path / "h.json"
    gp = tmp_path / "g.json"
    hp.write_text(json.dumps(h))
    gp.write_text(json.dumps(g))
    return str(hp), str(gp)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestConstants:
    def test_tfi_frozen_values(self, capsys, tfi_spec):
        code, out = run(capsys, "constants", "--spec", tfi_spec)
        assert code == 0
        report = json.loads(out)
        result = report["result"]
        assert result["k"] == 2
        assert result["g"] == pytest.approx(3.0)
        assert result["lambda"] == pytest.approx(72.0)
        assert result["kappa"] == pytest.approx(288.0)

    def test_report_envelope(self, capsys, tfi_spec):
        code, out = run(capsys, "constants", "--spec", tfi_spec)
        report = json.loads(out)
        assert report["version"] == __version__
        assert len(report["input_hash"]) == 64
        assert report["command"] == "constants"
        assert report["config"] == {"command": "constants", "spec": tfi_spec}

    @pytest.mark.parametrize("t", ["100", "-3.56"])
    def test_light_cone_radius_beyond_float_range(self, capsys, tfi_spec, t):
        # kappa = 288: n = ceil(288 * 100) = 28800 and ceil(288 * 3.56) = 1026
        code, out = run(capsys, "constants", "--spec", tfi_spec, f"--t={t}")
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert "--t" in message and "1023" in message
        # n = 1023 is the largest that still gives a finite r_t
        code, out = run(capsys, "constants", "--spec", tfi_spec, "--t", "3.55")
        assert code == 0
        assert json.loads(out)["result"]["r_t"] == 2**1023 - 1

    def test_csv_projection(self, capsys, tfi_spec):
        code, out = run(capsys, "constants", "--spec", tfi_spec, "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "quantity,value"
        assert any(line.startswith("kappa,") for line in lines)


class TestBound:
    def test_grid(self, capsys):
        code, out = run(
            capsys,
            "bound", "--evaluator", "main",
            "--g", "1", "--k", "1", "--q0", "1",
            "--q", "2,4", "--t", "0.05",
        )
        assert code == 0
        points = json.loads(out)["result"]["points"]
        assert len(points) == 2
        assert points[0]["value"] > points[1]["value"]

    def test_frozen_main_value(self, capsys):
        code, out = run(
            capsys,
            "bound", "--evaluator", "main",
            "--g", "1", "--k", "1", "--q0", "1", "--q", "30", "--t", "0.05",
        )
        value = json.loads(out)["result"]["points"][0]["value"]
        assert value == pytest.approx(0.03125)

    def test_needs_constants_or_spec(self, capsys):
        code, out = run(capsys, "bound", "--evaluator", "main", "--q", "3")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid"

    @pytest.mark.parametrize("q0", ["0", "-3"])
    @pytest.mark.parametrize("evaluator", ["main", "delta", "topo"])
    def test_rejects_q0_below_one(self, capsys, q0, evaluator):
        code, out = run(
            capsys,
            "bound", "--evaluator", evaluator, "--g", "1", "--k", "1", "--q0", q0, "--t", "0.01",
        )
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "invalid"
        assert "q0" in error["message"] and q0 in error["message"]

    @pytest.mark.parametrize("evaluator", ["theorem1", "small_time", "main", "delta", "topo", "band"])
    def test_rejects_negative_q(self, capsys, evaluator):
        code, out = run(
            capsys, "bound", "--evaluator", evaluator, "--g", "1", "--k", "2", "--q=-4", "--t", "0.001"
        )
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "invalid"
        assert error["type"] == "DomainError"

    def test_band_rejects_zero_sites(self, capsys):
        code, out = run(
            capsys, "bound", "--evaluator", "band", "--g", "1", "--k", "2", "--n-sites", "0"
        )
        assert code == 2
        assert "n_sites" in json.loads(out)["error"]["message"]

    def test_spec_sets_g_and_k(self, capsys, tfi_spec):
        code, out = run(capsys, "bound", "--evaluator", "theorem1", "--spec", tfi_spec)
        assert code == 0
        report = json.loads(out)
        assert report["input_hash"] == hashlib.sha256(Path(tfi_spec).read_bytes()).hexdigest()
        assert report["result"]["g"] == pytest.approx(3.0)
        assert report["result"]["k"] == 2

    @pytest.mark.parametrize("flag, value", [("--g", "5"), ("--k", "3"), ("--n-sites", "9")])
    def test_spec_conflicts_with_its_own_constants(self, capsys, tfi_spec, flag, value):
        code, out = run(capsys, "bound", "--evaluator", "theorem1", "--spec", tfi_spec, flag, value)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "invalid"
        assert error["message"].startswith(f"{flag} conflicts with --spec")


class TestTruncate:
    def test_certified_report(self, capsys, single_qubit_specs):
        h, g = single_qubit_specs
        code, out = run(
            capsys,
            "truncate", "--spec", h, "--gamma", g, "--t", "0.01", "--q", "3",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["certified"] is True
        assert result["oracle_error"] <= result["bound_rhs_exact_norm"]
        assert result["witness_locality"] <= 3

    def test_infeasible_q_is_validation_error(self, capsys, single_qubit_specs):
        h, g = single_qubit_specs
        code, out = run(capsys, "truncate", "--spec", h, "--gamma", g, "--t", "0.2", "--q", "2")
        assert code == 2

    def test_nmax_below_the_limit_keeps_the_oracle(self, capsys):
        argv = ["truncate", "--spec", str(GOLDEN / "rk6.json"), "--t", "0.008", "--q", "6", "--mode", "small-time"]
        code, out = run(capsys, *argv, "--nmax", "5")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["certified"] is True
        assert "oracle_error" in result
        code, plain = run(capsys, *argv)
        assert json.loads(plain)["result"] == result


class TestDecompose:
    def test_certificates_embedded(self, capsys, tfi_spec):
        code, out = run(capsys, "decompose", "--spec", tfi_spec, "--epsilon", "0.5")
        assert code == 0
        result = json.loads(out)["result"]
        cert = result["certificates"]
        assert cert["layer_count"] <= cert["layer_bound"]
        assert cert["within_layer_disjoint"] is True
        assert cert["within_layer_commuting"] is True
        assert cert["reconstruction_vs_source_norm_upper"] <= cert["reconstruction_gap_upper"] + 1e-12

    def test_empty_hamiltonian(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n_sites": 3, "terms": []}))
        code, out = run(capsys, "decompose", "--spec", str(path), "--epsilon", "0.5")
        assert code == 0
        assert json.loads(out)["result"]["certificates"]["layer_count"] == 0

    def test_empty_hamiltonian_needs_epsilon(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n_sites": 3, "terms": []}))
        code, out = run(capsys, "decompose", "--spec", str(path))
        assert code == 2
        assert "--epsilon" in json.loads(out)["error"]["message"]
        code, out = run(capsys, "decompose", "--spec", str(path), "--epsilon", "0.1")
        assert code == 0
        assert json.loads(out)["result"]["layers"] == []

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_unit_count_limit(self, capsys, command):
        # about 7e6 unit copies: refused before any unit is built
        code, out = run(capsys, command, "--spec", str(GOLDEN / "tfi4.json"), "--epsilon", "1e-6")
        assert code == 3
        error = json.loads(out)["error"]
        assert error["code"] == "resource"
        assert "epsilon=1e-06" in error["message"] and "N_MAX_UNITS" in error["message"]


class TestVerify:
    def test_single_qubit_pass(self, capsys, single_qubit_specs):
        h, g = single_qubit_specs
        code, out = run(
            capsys, "verify", "--spec", h, "--gamma", g, "--t", "0.01", "--q", "3"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["verdict"] == "pass"
        for check in result["checks"]:
            assert {"check", "lhs", "rhs", "margin", "status"} <= set(check)

    @pytest.mark.parametrize("command", [["truncate", "--q", "3"], ["verify"]], ids=["truncate", "verify"])
    def test_gamma_file_enters_by_its_hash(self, capsys, tmp_path, tfi_spec, command):
        gamma = tmp_path / "gamma.json"
        gamma.write_text(json.dumps(spec_from_operator(build_model("product_field", {"n_sites": 4}))))
        code, out = run(capsys, *command, "--spec", tfi_spec, "--gamma", str(gamma), "--t", "0.001")
        assert code == 0
        assert json.loads(out)["gamma_hash"] == hashlib.sha256(gamma.read_bytes()).hexdigest()

    def test_energy_block_runs_for_commuting(self, capsys, tmp_path):
        op = build_model("diagonal_commuting", {"n_sites": 5, "k": 2, "n_terms": 8, "seed": 2})
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(spec_from_operator(op)))
        code, out = run(capsys, "verify", "--spec", str(path))
        assert code == 0
        checks = {c["check"]: c for c in json.loads(out)["result"]["checks"]}
        assert checks["energy_block"]["status"] in ("pass", "skipped")

    def test_energy_block_skipped_for_noncommuting(self, capsys, tfi_spec):
        code, out = run(capsys, "verify", "--spec", tfi_spec, "--t", "0.001")
        assert code == 0
        checks = {c["check"]: c for c in json.loads(out)["result"]["checks"]}
        assert checks["energy_block"]["status"] == "skipped"
        assert "commute" in checks["energy_block"]["note"]

    def test_nmax_below_the_limit_changes_nothing(self, capsys):
        spec = str(GOLDEN / "rk6.json")
        code, plain = run(capsys, "verify", "--spec", spec)
        assert code == 0
        code, lowered = run(capsys, "verify", "--spec", spec, "--nmax", "5")
        assert code == 0
        assert json.loads(lowered)["result"] == json.loads(plain)["result"]


class TestConcentrate:
    def test_report_fields(self, capsys, tfi_spec):
        code, out = run(
            capsys,
            "concentrate", "--spec", tfi_spec, "--t", "0.002",
            "--q", "2", "--samples", "20", "--seed", "3",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert "tail" in result and "band_norms" in result
        assert result["probe"]["n_samples"] == 20
        assert result["mean"] == pytest.approx(0.0, abs=1e-9)

    def test_csv_rows(self, capsys, tfi_spec):
        code, out = run(
            capsys, "concentrate", "--spec", tfi_spec, "--t", "0.002", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "kind,a,b,value,bound"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"tail", "band"}

    def test_flat_tail_profile_reports_infinite_decay(self, capsys):
        spec = Path(__file__).parent / "golden" / "diag5.json"
        code, out = run(
            capsys, "concentrate", "--spec", str(spec), "--axis", "x", "--t", "0.3",
            "--bin-width", "0.7",
        )
        assert code == 0
        assert '"fitted_c2": Infinity' in out
        assert json.loads(out)["result"]["fitted_c2"] == math.inf

    def test_seed_is_echoed_once(self, capsys, tfi_spec):
        # --seed drives the --q probe sampler, so only concentrate has it
        code, out = run(
            capsys, "concentrate", "--spec", tfi_spec, "--t", "0.002", "--q", "2", "--seed", "5"
        )
        assert code == 0
        report = json.loads(out)
        assert "seed" not in report
        assert report["config"]["seed"] == 5
        _, other = run(
            capsys, "concentrate", "--spec", tfi_spec, "--t", "0.002", "--q", "2", "--seed", "6"
        )
        assert json.loads(other)["result"]["probe"] != report["result"]["probe"]

    def test_non_hermitian_spec_exit_code(self, capsys, tmp_path):
        spec = {"n_sites": 2, "terms": [{"sites": [0, 1], "paulis": "XZ", "coeff": [1.0, 0.5]}]}
        path = tmp_path / "non_hermitian.json"
        path.write_text(json.dumps(spec))
        code, out = run(capsys, "concentrate", "--spec", str(path), "--t", "0.1")
        assert code == 2
        assert "Hermitian" in json.loads(out)["error"]["message"]

    def test_light_cone_radius_beyond_float_range(self, capsys, tfi_spec):
        # kappa = 288, so n = ceil(288 * 4) = 1152 intervals
        code, out = run(capsys, "concentrate", "--spec", tfi_spec, "--t", "4")
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert "--t" in message and "1152" in message

    def test_bin_width_beyond_spectrum_size(self, capsys, tfi_spec):
        # 8 / 1e-9 bins on [-4, 4]; the band array would have 8e9 rows
        tracemalloc.start()
        code, out = run(capsys, "concentrate", "--spec", tfi_spec, "--t", "0.002", "--bin-width", "1e-9")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert "bin_width 1e-09" in message and "2**N + 1 = 17 bins" in message
        assert peak < 2**20

    @pytest.fixture
    def random_spec(self, tmp_path):
        def write(n_sites: int) -> str:
            op = build_model("random_klocal", {"n_sites": n_sites, "k": 2, "n_terms": 20, "seed": 4})
            path = tmp_path / f"random{n_sites}.json"
            path.write_text(json.dumps(spec_from_operator(op)))
            return str(path)

        return write

    def test_split_bins_keep_the_operator_limit(self, capsys, random_spec):
        # more than one bin evolves a dense 2**9 x 2**9 operator, like verify
        nine_site_spec = random_spec(9)
        code, out = run(capsys, "concentrate", "--spec", nine_site_spec, "--t", "0.05", "--bin-width", "1")
        assert code == 3
        error = json.loads(out)["error"]
        assert error["code"] == "resource"
        assert "limit of 8" in error["message"]
        code, out = run(
            capsys, "concentrate", "--spec", nine_site_spec, "--t", "0.05", "--bin-width", "1", "--nmax", "9"
        )
        assert code == 0
        assert len(json.loads(out)["result"]["band_occupancy"]) == 19

    def test_one_bin_keeps_the_state_limit(self, capsys, random_spec):
        # floor(2 * 9 / 20) + 1 = 1 bin: the band is ||h|| = 9 and no operator is built
        code, out = run(capsys, "concentrate", "--spec", random_spec(9), "--t", "0.05", "--bin-width", "20")
        assert code == 0
        assert json.loads(out)["result"]["band_norms"] == [[9.0]]

    def test_nmax_only_raises_the_state_limit(self, capsys, random_spec):
        # --nmax 9 lifts the operator limit; one bin needs only the state limit of 12
        argv = ["concentrate", "--spec", random_spec(10), "--t", "0.05", "--bin-width", "100"]
        code, plain = run(capsys, *argv)
        assert code == 0
        code, lifted = run(capsys, *argv, "--nmax", "9")
        assert code == 0
        assert json.loads(lifted)["result"] == json.loads(plain)["result"]

    def test_state_limit_names_the_statevector_and_the_flag(self, capsys, random_spec):
        code, out = run(capsys, "concentrate", "--spec", random_spec(13), "--t", "0.05", "--bin-width", "100")
        assert code == 3
        message = json.loads(out)["error"]["message"]
        assert message == (
            "statevector on 13 sites exceeds the limit of 12; pass n_max=13 (--nmax 13) to override"
        )

    def test_fit_skipped_when_its_scale_overflows(self, capsys, tfi_spec):
        # n = 1023 gives a finite r_t, but r_t * sqrt(t*N) overflows
        code, out = run(capsys, "concentrate", "--spec", tfi_spec, "--t", "3.55", "--format", "csv")
        assert code == 0
        assert all(line.endswith(",") for line in out.splitlines() if line.startswith("tail,"))


class TestDeterminismAndErrors:
    def test_byte_identical_reports(self, capsys, tfi_spec):
        _, out1 = run(
            capsys, "concentrate", "--spec", tfi_spec, "--t", "0.002", "--q", "2", "--seed", "7"
        )
        _, out2 = run(
            capsys, "concentrate", "--spec", tfi_spec, "--t", "0.002", "--q", "2", "--seed", "7"
        )
        assert out1 == out2

    def test_validation_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_sites": 1, "terms": [{"sites": [0], "paulis": "Q", "coeff": [1, 0]}]}))
        code, out = run(capsys, "constants", "--spec", str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "invalid"
        assert "terms[0]" in error["message"]

    @pytest.mark.parametrize(
        "coeff", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400, "-" + "9" * 400]
    )
    def test_non_finite_coeff_exit_code(self, capsys, tmp_path, coeff):
        # a 400-digit integer used to escape as an OverflowError traceback
        path = tmp_path / "bad.json"
        path.write_text(
            '{"n_sites": 2, "terms": [{"sites": [0, 1], "paulis": "ZZ", "coeff": [1.0, 0.0]}, '
            f'{{"sites": [1], "paulis": "X", "coeff": [{coeff}, 0.0]}}]}}'
        )
        code, out = run(capsys, "decompose", "--spec", str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "invalid"
        assert error["message"] == "terms[1]: coeff must be finite and within the float range"

    def test_integer_beyond_digit_limit_exit_code(self, capsys, tmp_path):
        # Python's JSON parser refuses integers of more than 4300 digits
        path = tmp_path / "bad.json"
        path.write_text(
            '{"n_sites": 1, "terms": [{"sites": [0], "paulis": "X", "coeff": [1%s, 0]}]}'
            % ("0" * 5000)
        )
        code, out = run(capsys, "constants", "--spec", str(path))
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("spec is not valid JSON")

    def test_resource_exit_code(self, capsys, tmp_path):
        op = build_model("random_klocal", {"n_sites": 16, "k": 2, "g_target": 1.0, "seed": 0})
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec_from_operator(op)))
        code, out = run(capsys, "verify", "--spec", str(path))
        assert code == 3
        assert json.loads(out)["error"]["code"] == "resource"

    def test_nmax_override_lifts_limit(self, capsys, tmp_path):
        op = build_model("random_klocal", {"n_sites": 9, "k": 2, "g_target": 0.5, "seed": 0})
        path = tmp_path / "nine.json"
        path.write_text(json.dumps(spec_from_operator(op)))
        code, out = run(capsys, "verify", "--spec", str(path), "--nmax", "9", "--t", "0.0001")
        assert code == 0

    @pytest.mark.parametrize("n_sites", [2**40, 2**70])
    def test_n_sites_above_cap_exit_code(self, capsys, tmp_path, n_sites):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"n_sites": n_sites, "terms": [{"sites": [0], "paulis": "X", "coeff": [1, 0]}]})
        )
        code, out = run(capsys, "constants", "--spec", str(path))
        assert code == 2
        assert "n_sites" in json.loads(out)["error"]["message"]

    def test_overflowing_repeated_string_exit_code(self, capsys, tmp_path):
        huge = {"sites": [0], "paulis": "X", "coeff": [1e308, 0]}
        path = tmp_path / "overflow.json"
        z1 = {"sites": [1], "paulis": "Z", "coeff": [1, 0]}
        path.write_text(json.dumps({"n_sites": 2, "terms": [huge, huge, z1]}))
        code, out = run(capsys, "constants", "--spec", str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["message"] == "terms: repeated string X on sites [0] sums beyond the float range"
        assert error["type"] == "ValidationError"

    # unscaled, the norms of the Hermitian test overflow, and X0 at [1e200, 1e200] passed as Hermitian
    HUGE_X0 = [[1e200, 1e200], [1, 0]]
    HERMITIAN_MESSAGE = "Hamiltonian must be Hermitian for evolution"
    KAPPA_MESSAGE = "kappa = 24*g*k**2 is beyond the float range for g=1e+307, k=1"
    ABS_SUM_MESSAGE = "terms: the sum of |coeff| over all terms is beyond the float range"

    @pytest.mark.parametrize(
        "argv, coeffs, message",
        [
            (["truncate", "--t", "0", "--q", "1"], HUGE_X0, HERMITIAN_MESSAGE),
            (["concentrate", "--t", "0"], HUGE_X0, HERMITIAN_MESSAGE),
            (["constants", "--t", "0.5"], [[1e307, 0]], KAPPA_MESSAGE),
            (["constants"], [[1e307, 0]], KAPPA_MESSAGE),
            (["bound", "--g", "1e307", "--k", "1", "--evaluator", "main", "--t", "0.1"], None, KAPPA_MESSAGE),
            (["bound", "--g", "1", "--k", "1" + "0" * 400, "--evaluator", "theorem1"], None, "for g=1.0, k=1000"),
            (["bound", "--g", "1", "--k", "1", "--evaluator", "main", "--t", "1e308"], None, "= inf intervals"),
            (["concentrate", "--t", "0.1"], [[1e308, 0], [1e308, 0]], ABS_SUM_MESSAGE),
            (["constants"], [[1e308, 0], [1e308, 0]], ABS_SUM_MESSAGE),
        ],
        ids=["truncate-hermitian", "concentrate-hermitian", "constants-t", "constants", "bound-g", "bound-k",
             "bound-t", "concentrate-sum", "constants-sum"],
    )
    def test_huge_values_exit_code(self, capsys, tmp_path, argv, coeffs, message):
        # each exited 0 with an unsound report, or 1 with an OverflowError traceback
        if coeffs is not None:  # X0, then Z1, with these [re, im] coefficients
            terms = [
                {"sites": [site], "paulis": letter, "coeff": c} for site, letter, c in zip((0, 1), "XZ", coeffs)
            ]
            path = tmp_path / "huge.json"
            path.write_text(json.dumps({"n_sites": len(coeffs), "terms": terms}))
            argv = [*argv, "--spec", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, *argv)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "invalid"
        assert message in error["message"]

    @pytest.mark.parametrize(
        "command",
        [["constants"], ["bound", "--evaluator", "main"], ["decompose"]],
        ids=["constants", "bound", "decompose"],
    )
    def test_nmax_only_on_dense_commands(self, capsys, tfi_spec, command):
        # constants, bound and decompose build no dense operator
        with pytest.raises(SystemExit) as exc:
            main([*command, "--spec", tfi_spec, "--nmax", "4"])
        assert exc.value.code == 2
        assert "--nmax" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["constants"], ["bound", "--evaluator", "main"], ["truncate", "--q", "3"], ["decompose"], ["verify"]],
        ids=["constants", "bound", "truncate", "decompose", "verify"],
    )
    def test_seed_only_on_concentrate(self, capsys, tfi_spec, command):
        # only concentrate samples anything (its --q probes)
        with pytest.raises(SystemExit) as exc:
            main([*command, "--spec", tfi_spec, "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [
            (["constants"], "--t"),
            (["bound", "--evaluator", "theorem1"], "--gamma-norm"),
            (["bound", "--evaluator", "theorem1"], "--g"),
            (["truncate", "--q", "3"], "--t"),
            (["truncate", "--q", "3"], "--threshold"),
            (["decompose"], "--epsilon"),
            (["verify"], "--t"),
            (["verify"], "--epsilon"),
            (["verify"], "--threshold"),
            (["concentrate"], "--t"),
            (["concentrate"], "--bin-width"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_float_option_exit_code(self, capsys, tfi_spec, command, option, value):
        # NaN and inf used to end in tracebacks, or (truncate --threshold
        # nan) in a certified report with "threshold": NaN
        with pytest.raises(SystemExit) as exc:
            main([*command, "--spec", tfi_spec, f"{option}={value}"])
        assert exc.value.code == 2
        assert f"argument {option}: must be finite, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["nan", "0.1,inf", "1e400", "0.1,x"])
    def test_non_finite_bound_t_grid_exit_code(self, capsys, grid):
        code, out = run(capsys, "bound", "--evaluator", "main", "--g", "1", "--k", "2", "--t", grid)
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("--t must be a comma-separated list")

    @pytest.mark.parametrize("option, grid", [("--q", ","), ("--t", ","), ("--q", ""), ("--t", "")])
    def test_empty_bound_grid_exit_code(self, capsys, option, grid):
        code, out = run(capsys, "bound", "--evaluator", "theorem1", "--g", "1", "--k", "2", option, grid)
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith(f"{option} must be a comma-separated list")

    def test_bad_bound_q_grid_exit_code(self, capsys):
        code, out = run(capsys, "bound", "--evaluator", "main", "--g", "1", "--k", "2", "--q", "2,x")
        assert code == 2
        assert json.loads(out)["error"]["message"] == "--q must be a comma-separated list of integers: '2,x'"

    # kappa = 288 on tfi4 and at --g 3 --k 2: t = 3.555 gives n = ceil(1023.84) = 1024; n = 1023
    # still runs (TestConstants::test_light_cone_radius_beyond_float_range)
    @pytest.mark.parametrize(
        "command",
        [
            ["constants", "--spec", "{spec}"],
            *(["bound", "--evaluator", name, "--g", "3", "--k", "2", "--q", "5"]
              for name in ("main", "delta", "topo", "band")),
            ["truncate", "--spec", "{spec}", "--q", "5"],
            ["truncate", "--spec", "{spec}", "--q", "5", "--mode", "chained"],
            ["verify", "--spec", "{spec}"],
            ["concentrate", "--spec", "{spec}"],
        ],
        ids=["constants", "bound-main", "bound-delta", "bound-topo", "bound-band",
             "truncate-auto", "truncate-chained", "verify", "concentrate"],
    )
    def test_interval_count_above_1023_exit_code(self, capsys, tfi_spec, command):
        argv = [arg.format(spec=tfi_spec) for arg in command]
        code, out = run(capsys, *argv, "--t", "3.555")
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert "n = ceil(kappa*|t|) = 1024 intervals" in message
        assert "exceeds the float range above n = 1023" in message

    @pytest.mark.parametrize("command", [["verify"], ["truncate", "--q", "5"]], ids=["verify", "truncate"])
    def test_huge_t_refused_without_building_2_to_the_n(self, capsys, tfi_spec, command):
        # n = 2.88e14 intervals: refused before any 2**n integer is formed
        start = time.perf_counter()
        code, out = run(capsys, *command, "--spec", tfi_spec, "--t", "1e12")
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert "exceeds the float range above n = 1023" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "command", [["truncate", "--t", "0.01", "--q", "3"], ["verify"]], ids=["truncate", "verify"]
    )
    def test_gamma_on_other_site_count_exit_code(self, capsys, tmp_path, single_qubit_specs, command):
        h, _ = single_qubit_specs
        gamma = tmp_path / "g2.json"
        gamma.write_text(json.dumps({"n_sites": 2, "terms": [{"sites": [1], "paulis": "Z", "coeff": [1.0, 0.0]}]}))
        code, out = run(capsys, *command, "--spec", h, "--gamma", str(gamma))
        assert code == 2
        assert json.loads(out)["error"]["message"] == "gamma is on 2 sites but the Hamiltonian has 1"

    def test_missing_file(self, capsys, tmp_path):
        code, out = run(capsys, "constants", "--spec", str(tmp_path / "nope.json"))
        assert code == 2

    def test_out_file(self, capsys, tfi_spec, tmp_path):
        out_path = tmp_path / "report.json"
        code, _ = run(capsys, "constants", "--spec", tfi_spec, "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["result"]["k"] == 2
