"""Command line interface.

Subcommands:

- ``constants``: structural constants and derived bound parameters.
- ``bound``: evaluate any analytic bound over a small parameter grid.
- ``truncate``: build a locality-truncated witness, with oracle error
  when the instance is small enough.
- ``decompose``: discretize and pack into disjoint-support layers.
- ``verify``: run the certification suite on one instance.
- ``concentrate``: tail profile and band matrix of an evolved product
  state.

Reports are deterministic for a fixed config (no timestamps; the input
file enters via its SHA-256).  Exit codes: 0 success, 1 bound
violation, 2 invalid input or parameters, 3 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .bounds import (
    BoundParams,
    band_rhs,
    delta_value,
    main_rhs,
    small_time_rhs,
    theorem1_rhs,
    topo_error_rhs,
)
from .certify import verify_checks, witness_check
from .concentration import (
    ExtensiveObservable,
    band_matrix,
    build_product_state,
    fit_tail_constants,
    tail_profile,
    topo_error_estimate,
)
from .errors import DomainError, KLocalError, ResourceLimitError, ValidationError
from .layers import discretize, pack_layers, reconstruct
from .models import load_spec, structural_constants
from .oracle import N_MAX_OPERATOR, N_MAX_STATE, EigenSystem
from .pauli import KLocalOperator, PauliString
from .truncation import DEFAULT_PRUNE_TOL, chained_truncate, hadamard_truncate

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

_MAX_INTERVALS = 1023  # the largest n with 2**n - 1 below the float maximum


def _read_spec(path: str) -> tuple[KLocalOperator, str]:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"spec file not found: {path}")
    raw = p.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    return load_spec(raw.decode("utf-8")), digest


def _config_dict(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"handler", "out", "format"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def _default_gamma(n_sites: int) -> KLocalOperator:
    return KLocalOperator(n_sites, {PauliString.from_letters(n_sites, {0: "Z"}): 1.0 + 0j})


def _load_gamma(args: argparse.Namespace, n_sites: int) -> tuple[KLocalOperator, str | None]:
    if getattr(args, "gamma", None):
        gamma, digest = _read_spec(args.gamma)
        if gamma.n_sites != n_sites:
            raise ValidationError(
                f"gamma is on {gamma.n_sites} sites but the Hamiltonian has {n_sites}"
            )
        return gamma, digest
    return _default_gamma(n_sites), None


def _operator_nmax(args: argparse.Namespace) -> int:
    return args.nmax if args.nmax is not None else N_MAX_OPERATOR


def _finite_float(text: str) -> float:
    """The argparse type of every float option: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _float_list(text: str, name: str) -> list[float]:
    try:
        return [_finite_float(part) for part in text.split(",") if part != ""]
    except argparse.ArgumentTypeError:
        raise ValidationError(f"{name} must be a comma-separated list of finite numbers: {text!r}") from None


def _light_cone_radius(params: BoundParams, t: float) -> int:
    """r_t = 2**n - 1 at ``--t``; it must convert to a float, so n <= 1023."""
    n = params.intervals(t)
    if n > _MAX_INTERVALS:
        raise DomainError(
            f"--t {t} needs n = ceil(kappa*|t|) = {n} intervals; r_t = 2**n - 1 "
            f"exceeds the float range above n = {_MAX_INTERVALS}"
        )
    return params.r_t(t)


def _int_list(text: str, name: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValidationError(f"{name} must be a comma-separated list of integers: {text!r}") from None


# ----------------------------------------------------------------- handlers


def _cmd_constants(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    op, digest = _read_spec(args.spec)
    const = structural_constants(op)
    params = BoundParams.from_constants(const)
    result: dict[str, Any] = {
        "n_sites": op.n_sites,
        "k": const.k,
        "g": const.g,
        "n_terms": const.n_terms,
        "norm_upper": const.norm_upper,
        "lambda": params.lam,
        "kappa": params.kappa,
        "xi": params.xi,
    }
    if args.t is not None:
        result["t"] = args.t
        result["intervals"] = params.intervals(args.t)
        result["delta_t"] = params.delta_t(args.t)
        result["r_t"] = _light_cone_radius(params, args.t)
    rows = [["quantity", "value"]] + [[key, value] for key, value in result.items()]
    return {"input_hash": digest, "result": result}, rows, EXIT_OK


# evaluator name -> value at (params, q0, q, t, gamma_norm, n_sites)
_EVALUATORS = {
    "theorem1": lambda p, q0, q, t, gn, n: theorem1_rhs(p, q, gn),
    "small_time": lambda p, q0, q, t, gn, n: small_time_rhs(p, q0, q, t, gn),
    "main": lambda p, q0, q, t, gn, n: main_rhs(p, q0, q, t, gn),
    "delta": lambda p, q0, q, t, gn, n: delta_value(p, q0, q, t),
    "topo": lambda p, q0, q, t, gn, n: topo_error_rhs(p, q0, q, t),
    "band": lambda p, q0, q, t, gn, n: band_rhs(p, t, n, float(q)),
}


def _cmd_bound(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    digest = None
    if args.spec:
        op, digest = _read_spec(args.spec)
        params = BoundParams.from_operator(op)
        n_sites = op.n_sites
    else:
        if args.g is None or args.k is None:
            raise ValidationError("bound needs either --spec or both --g and --k")
        params = BoundParams(g=args.g, k=args.k)
        n_sites = args.n_sites if args.n_sites is not None else 1
    q0 = args.q0 if args.q0 is not None else 1
    if q0 < 1:
        raise ValidationError(f"q0 is the support size of gamma and must be >= 1, got {q0}")
    q_values = _int_list(args.q, "--q") if args.q else [q0]
    t_values = _float_list(args.t_grid, "--t") if args.t_grid else [0.0]
    gamma_norm = args.gamma_norm
    evaluate = _EVALUATORS[args.evaluator]
    points = []
    for t in t_values:
        for q in q_values:
            value = evaluate(params, q0, q, t, gamma_norm, n_sites)
            points.append({"t": t, "q": q, "q0": q0, "value": value})
    result = {
        "evaluator": args.evaluator,
        "g": params.g,
        "k": params.k,
        "gamma_norm": gamma_norm,
        "points": points,
    }
    rows = [["evaluator", "q0", "q", "t", "value"]] + [
        [args.evaluator, p["q0"], p["q"], p["t"], p["value"]] for p in points
    ]
    report = {"result": result}
    if digest:
        report["input_hash"] = digest
    return report, rows, EXIT_OK


def _cmd_truncate(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    op, digest = _read_spec(args.spec)
    gamma, gamma_digest = _load_gamma(args, op.n_sites)
    t = args.t if args.t is not None else 0.0
    params = BoundParams.from_operator(op)
    mode = args.mode
    if mode == "auto":
        mode = "chained" if params.intervals(t) > 1 else "small-time"
    if mode == "small-time":
        report_t = hadamard_truncate(op, gamma, t, args.q, threshold=args.threshold, params=params)
    else:
        report_t = chained_truncate(op, gamma, t, args.q, threshold=args.threshold, params=params)
    result: dict[str, Any] = {
        "mode": mode,
        "t": t,
        "target_q": report_t.target_q,
        "m0": report_t.m0,
        "witness_terms": report_t.witness.n_terms,
        "witness_locality": report_t.witness.locality,
        "pruning_budget": report_t.pruning_budget,
        "bound_rhs_norm_upper": report_t.bound_rhs,
    }
    if report_t.schedule is not None:
        result["schedule"] = list(report_t.schedule.levels)
        result["delta_q"] = report_t.schedule.delta_q
        result["intervals"] = report_t.schedule.n
    nmax = _operator_nmax(args)
    if op.n_sites <= nmax:
        check, rhs = witness_check(gamma, report_t, t, EigenSystem(op, nmax))
        result["oracle_error"] = check.lhs
        result["bound_rhs_exact_norm"] = rhs
        result["certified"] = check.status == "pass"
    rows = [["quantity", "value"]] + [
        [key, value] for key, value in result.items() if key != "schedule"
    ]
    report = {"input_hash": digest, "result": result}
    if gamma_digest:
        report["gamma_hash"] = gamma_digest
    code = EXIT_OK
    if result.get("certified") is False:
        code = EXIT_BOUND_VIOLATION
    return report, rows, code


def _cmd_decompose(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    op, digest = _read_spec(args.spec)
    const = structural_constants(op)
    epsilon = args.epsilon
    if epsilon is None:
        if const.g <= 0:
            raise ValidationError("Hamiltonian has g = 0; pass --epsilon explicitly")
        epsilon = const.g / 10.0
    pool = discretize(op, epsilon, const)
    decomp = pack_layers(pool)
    exported = decomp.to_json_dict()
    discretized = reconstruct(decomp)
    exported["certificates"]["reconstruction_vs_source_norm_upper"] = (
        (discretized - op).norm_upper()
    )
    rows = [["layer", "sites", "paulis", "coeff_re", "coeff_im", "count"]]
    for layer_index, layer in enumerate(exported["layers"]):
        for entry in layer:
            rows.append(
                [
                    layer_index,
                    " ".join(str(s) for s in entry["sites"]),
                    entry["paulis"],
                    entry["coeff"][0],
                    entry["coeff"][1],
                    entry["count"],
                ]
            )
    return {"input_hash": digest, "result": exported}, rows, EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    op, digest = _read_spec(args.spec)
    gamma, _ = _load_gamma(args, op.n_sites)
    found = verify_checks(
        op,
        gamma,
        t=args.t,
        q=args.q,
        epsilon=args.epsilon,
        threshold=args.threshold,
        n_max=_operator_nmax(args),
    )
    checks = [asdict(check) for check in found]
    failed = [c for c in checks if c["status"] == "fail"]
    result = {
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": len(failed),
        "verdict": "pass" if not failed else "fail",
    }
    rows = [["check", "lhs", "rhs", "margin", "status"]] + [
        [c["check"], c["lhs"], c["rhs"], c["margin"], c["status"]] for c in checks
    ]
    code = EXIT_OK if not failed else EXIT_BOUND_VIOLATION
    return {"input_hash": digest, "result": result}, rows, code


def _bloch_parent(site_states: str, n_sites: int) -> KLocalOperator:
    """Parent one-local Hamiltonian with the product state as ground state
    at energy -N: h_i = -(v_i . sigma_i) with unit Bloch vectors v_i."""
    acc: dict[PauliString, complex] = {}
    for i, ch in enumerate(site_states):
        a, b = build_product_state(ch, 1)
        bloch = {
            "X": 2.0 * (np.conj(a) * b).real,
            "Y": 2.0 * (np.conj(a) * b).imag,
            "Z": (abs(a) ** 2 - abs(b) ** 2),
        }
        for letter, component in bloch.items():
            if abs(component) > 1e-14:
                string = PauliString.from_letters(n_sites, {i: letter})
                acc[string] = acc.get(string, 0j) - component
    return KLocalOperator(n_sites, acc)


def _cmd_concentrate(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    op, digest = _read_spec(args.spec)
    n_sites = op.n_sites
    params = BoundParams.from_operator(op)
    t = args.t if args.t is not None else 0.0
    r_t = _light_cone_radius(params, t)
    nmax = args.nmax if args.nmax is not None else N_MAX_STATE
    state = args.state or "+" * n_sites
    observable = ExtensiveObservable.collective(n_sites, args.axis, n_max=nmax)
    eig = EigenSystem(op, nmax)
    psi_0 = build_product_state(state, n_sites)
    psi_t = eig.evolve_state(psi_0, t)
    profile = tail_profile(psi_t, observable)
    fitted: tuple[float, float] | None = None
    if t > 0:
        try:
            fitted = fit_tail_constants(profile, params, t, n_sites)
        except DomainError:
            fitted = None

    parent = _bloch_parent(state, n_sites)
    parent_t = eig.evolve_operator(parent, t)
    width = args.bin_width if args.bin_width is not None else float(r_t)
    band = band_matrix(parent_t, observable, width, n_max=nmax)

    tail_rows: list[list] = []
    for r, tail in profile.samples:
        if fitted is not None and fitted[1] != math.inf:
            c1, c2 = fitted
            bound = c1 * math.exp(-r / (c2 * r_t * math.sqrt(t * n_sites)))
        else:
            bound = ""
        tail_rows.append(["tail", r, "", tail, bound])
    band_rows: list[list] = []
    occupied = [b for b in range(band.n_bins) if band.occupancy[b]]
    for bx in occupied:
        for by in occupied:
            gap = abs(bx - by)
            band_rows.append(
                ["band", bx, by, band.norms[bx, by], band_rhs(params, t, n_sites, gap)]
            )
    result = {
        "t": t,
        "state": state,
        "axis": args.axis,
        "mean": profile.mean,
        "tail": [{"R": r, "tail": tail} for r, tail in profile.samples],
        "fitted_c1": fitted[0] if fitted else None,
        "fitted_c2": fitted[1] if fitted else None,
        "bin_width": width,
        "band_norms": band.norms.tolist(),
        "band_occupancy": band.occupancy.tolist(),
    }
    rows = [["kind", "a", "b", "value", "bound"]] + tail_rows + band_rows
    if args.q is not None:
        # distinguishability of the evolved state from the initial one
        # under random weight-q probes
        probe = topo_error_estimate(psi_0, psi_t, args.q, n_samples=args.samples, seed=args.seed)
        result["probe"] = {
            "q": probe.q,
            "n_samples": probe.n_samples,
            "diag_max": probe.diag_max,
            "cross_max": probe.cross_max,
            "eps_hat": probe.eps_hat,
            "eps_hat_unit": probe.eps_hat_unit,
        }
        rows.append(["probe", probe.q, probe.n_samples, probe.eps_hat, ""])
    return {"input_hash": digest, "result": result}, rows, EXIT_OK


# ------------------------------------------------------------------ driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klocal",
        description="Locality-spreading bounds and certification for k-local spin systems.",
    )
    parser.add_argument("--version", action="version", version=f"klocal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, spec_required: bool = True, dense: bool = False) -> None:
        p.add_argument("--spec", required=spec_required, help="Hamiltonian spec JSON file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if dense:
            p.add_argument("--nmax", type=int, default=None, help="dense-size override")

    p = sub.add_parser("constants", help="structural constants and bound parameters")
    common(p)
    p.add_argument("--t", type=_finite_float, default=None)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("bound", help="evaluate an analytic bound on a grid")
    common(p, spec_required=False)
    p.add_argument("--evaluator", required=True, choices=list(_EVALUATORS))
    p.add_argument("--g", type=_finite_float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q0", type=int, default=None)
    p.add_argument("--q", default=None, help="comma-separated q grid (band: x-gap grid)")
    p.add_argument("--t", dest="t_grid", default=None, help="comma-separated t grid")
    p.add_argument("--gamma-norm", type=_finite_float, default=1.0)
    p.add_argument("--n-sites", type=int, default=None, help="site count for band bounds")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("truncate", help="locality-truncated evolution witness")
    common(p, dense=True)
    p.add_argument("--gamma", default=None, help="observable spec JSON (default: Z on site 0)")
    p.add_argument("--t", type=_finite_float, default=None)
    p.add_argument("--q", type=int, default=None, required=True)
    p.add_argument("--threshold", type=_finite_float, default=DEFAULT_PRUNE_TOL)
    p.add_argument("--mode", choices=("auto", "small-time", "chained"), default="auto")
    p.set_defaults(handler=_cmd_truncate)

    p = sub.add_parser("decompose", help="disjoint-support layer decomposition")
    common(p)
    p.add_argument("--epsilon", type=_finite_float, default=None, help="unit norm (default g/10)")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("verify", help="certification suite for one instance")
    common(p, dense=True)
    p.add_argument("--gamma", default=None, help="observable spec JSON (default: Z on site 0)")
    p.add_argument("--t", type=_finite_float, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--epsilon", type=_finite_float, default=None)
    p.add_argument("--threshold", type=_finite_float, default=DEFAULT_PRUNE_TOL)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("concentrate", help="tail profile and band matrix")
    common(p, dense=True)
    p.add_argument("--t", type=_finite_float, default=None)
    p.add_argument("--state", default=None, help="product state string (default: all +)")
    p.add_argument("--axis", default="z", choices=("x", "y", "z"))
    p.add_argument("--bin-width", type=_finite_float, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="probe sampler seed (with --q)")
    p.set_defaults(handler=_cmd_concentrate)

    return parser


def _render(report: dict[str, Any], rows: list[list], args: argparse.Namespace) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    envelope = {
        "command": args.command,
        "version": __version__,
        "config": _config_dict(args),
    }
    envelope.update(report)
    return json.dumps(envelope, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)}")


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_error(args: argparse.Namespace | None, exc: Exception, code: str) -> None:
    payload = {
        "error": {
            "code": code,
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None) if args is not None else None
    _write(text, out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, rows, code = args.handler(args)
    except ResourceLimitError as exc:
        _emit_error(args, exc, "resource")
        return EXIT_RESOURCE
    except KLocalError as exc:
        _emit_error(args, exc, "invalid")
        return EXIT_INVALID
    _write(_render(report, rows, args), args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
