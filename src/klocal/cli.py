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
from .certify import layer_certificate, verify_checks, witness_check
from .concentration import concentrate, topo_error_estimate
from .errors import KLocalError, ResourceLimitError, ValidationError
from .layers import discretize, pack_layers
from .models import load_spec, structural_constants
from .oracle import EigenSystem, site_limit
from .pauli import KLocalOperator, PauliString
from .truncation import DEFAULT_PRUNE_TOL, chained_truncate, hadamard_truncate

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _read_spec(path: str) -> tuple[KLocalOperator, str]:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"spec file not found: {path}")
    raw = p.read_bytes()
    digest, text = hashlib.sha256(raw).hexdigest(), raw.decode("utf-8")
    del raw  # only the text is needed while the spec is read
    return load_spec(text), digest


def _config_dict(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"handler", "out", "format"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def _load_gamma(args: argparse.Namespace, n_sites: int) -> tuple[KLocalOperator, dict[str, str]]:
    """Gamma from ``--gamma``, or Z on site 0, with the report entry that
    names its file by SHA-256 (none for the default)."""
    if getattr(args, "gamma", None):
        gamma, digest = _read_spec(args.gamma)
        if gamma.n_sites != n_sites:
            raise ValidationError(
                f"gamma is on {gamma.n_sites} sites but the Hamiltonian has {n_sites}"
            )
        return gamma, {"gamma_hash": digest}
    return KLocalOperator(n_sites, {PauliString.from_letters(n_sites, {0: "Z"}): 1.0 + 0j}), {}


def _finite_float(text: str) -> float:
    """The argparse type of every float option: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _list(text: str, name: str, parse, what: str) -> list:
    """The nonempty comma-separated parts of ``text``, each read by
    ``parse``; there must be at least one."""
    try:
        values = [parse(part) for part in text.split(",") if part != ""]
    except (ValueError, argparse.ArgumentTypeError):
        values = []
    if not values:
        raise ValidationError(f"{name} must be a comma-separated list of {what}: {text!r}")
    return values


# ----------------------------------------------------------------- handlers


def _cmd_constants(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    op, digest = _read_spec(args.spec)
    const = structural_constants(op)
    params = BoundParams.from_constants(const)
    result: dict[str, Any] = {
        "n_sites": op.n_sites,
        "k": const.k,
        "g": const.g,
        "n_terms": op.n_terms,
        "norm_upper": op.norm_upper(),
        "lambda": params.lam,
        "kappa": params.kappa,
        "xi": params.xi,
    }
    if args.t is not None:
        result["t"] = args.t
        result["intervals"] = params.intervals(args.t)
        result["delta_t"] = params.delta_t(args.t)
        result["r_t"] = params.r_t(args.t)
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
        for flag, value in (("--g", args.g), ("--k", args.k), ("--n-sites", args.n_sites)):
            if value is not None:
                raise ValidationError(f"{flag} conflicts with --spec, which sets it")
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
    q_values = _list(args.q, "--q", int, "integers") if args.q is not None else [q0]
    t_values = [0.0]
    if args.t_grid is not None:
        t_values = _list(args.t_grid, "--t", _finite_float, "finite numbers")
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
    gamma, gamma_hash = _load_gamma(args, op.n_sites)
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
        "target_q": args.q,
        "m0": report_t.m0,
        "witness_terms": report_t.witness.n_terms,
        "witness_locality": report_t.witness.locality,
        "pruning_budget": report_t.pruning_budget,
        "bound_rhs_norm_upper": report_t.bound_rhs,
    }
    if report_t.schedule is not None:
        result["schedule"] = list(report_t.schedule.levels)
        result["delta_q"] = report_t.schedule.delta_q
        result["intervals"] = len(report_t.schedule.levels)
    if op.n_sites <= site_limit("dense operator", args.nmax):
        check, rhs = witness_check(gamma, report_t, t, EigenSystem(op, args.nmax))
        result["oracle_error"] = check.lhs
        result["bound_rhs_exact_norm"] = rhs
        result["certified"] = check.status == "pass"
    rows = [["quantity", "value"]] + [
        [key, value] for key, value in result.items() if key != "schedule"
    ]
    code = EXIT_OK
    if result.get("certified") is False:
        code = EXIT_BOUND_VIOLATION
    return {"input_hash": digest, "result": result, **gamma_hash}, rows, code


def _cmd_decompose(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    op, digest = _read_spec(args.spec)
    const = structural_constants(op)
    epsilon = args.epsilon
    if epsilon is None:
        if const.g <= 0:
            raise ValidationError("Hamiltonian has g = 0; pass --epsilon explicitly")
        epsilon = const.g / 10.0
    decomp = pack_layers(discretize(op, epsilon))
    exported = {**decomp.to_json_dict(), "certificates": layer_certificate(op, const, decomp)[0]}
    rows = [["layer", "sites", "paulis", "coeff_re", "coeff_im", "count"]] + [
        [index, " ".join(map(str, entry["sites"])), entry["paulis"], *entry["coeff"], entry["count"]]
        for index, layer in enumerate(exported["layers"])
        for entry in layer
    ]
    return {"input_hash": digest, "result": exported}, rows, EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    op, digest = _read_spec(args.spec)
    gamma, gamma_hash = _load_gamma(args, op.n_sites)
    found = verify_checks(
        op,
        gamma,
        t=args.t,
        q=args.q,
        epsilon=args.epsilon,
        threshold=args.threshold,
        n_max=args.nmax,
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
    return {"input_hash": digest, "result": result, **gamma_hash}, rows, code


def _cmd_concentrate(args: argparse.Namespace) -> tuple[dict[str, Any], list[list], int]:
    op, digest = _read_spec(args.spec)
    params = BoundParams.from_operator(op)
    t = args.t if args.t is not None else 0.0
    state = args.state or "+" * op.n_sites
    found = concentrate(op, params, state, t, args.axis, args.bin_width, args.nmax)
    result = {
        "t": t,
        "state": state,
        "axis": args.axis,
        "mean": found.profile.mean,
        "tail": [{"R": r, "tail": tail} for r, tail in found.profile.samples],
        "fitted_c1": found.fitted[0] if found.fitted else None,
        "fitted_c2": found.fitted[1] if found.fitted else None,
        "bin_width": found.band.bin_width,
        "band_norms": found.band.norms.tolist(),
        "band_occupancy": found.band.occupancy.tolist(),
    }
    rows = [["kind", "a", "b", "value", "bound"]]
    rows += [["tail", r, "", tail, "" if curve is None else curve] for r, tail, curve in found.tails]
    rows += [["band", *entry] for entry in found.bands]
    if args.q is not None:
        # distinguishability of the evolved state from the initial one
        # under random weight-q probes
        probe = topo_error_estimate(found.psi_0, found.psi_t, args.q, n_samples=args.samples, seed=args.seed)
        result["probe"] = {**asdict(probe), "eps_hat": probe.eps_hat, "eps_hat_unit": probe.eps_hat_unit}
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
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


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
