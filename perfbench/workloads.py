"""Workload definitions for the klocal benchmark.

A workload is a fixed batch of real entry points: ``klocal`` CLI
subcommands (run as ``python -m klocal.cli``) and scripts under
``scripts/``.  ``write_specs`` turns the workload seed into spec files
through ``klocal.models``; the seed changes the inputs, while the sizes
that set the cost stay fixed.  ``check`` validates each invocation's report against
invariants, pinned reference values (``reference.json``) and an
independent NumPy recomputation, and returns a list of problems.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

WORKLOADS = ("spread", "oracle", "decompose")

# Mixed-field Ising chain (MFI): ZZ couplings 1.0, X field 1.05, Z field 0.5.
MFI_SITES = 128
SPREAD_Q = 41
SPREAD_T = 0.005


@dataclass(frozen=True)
class Invocation:
    """One child process of a workload pass.

    ``command`` is the CLI subcommand or the script's stem; ``args``
    follow ``python -m klocal.cli`` (or the script path) and contain an
    ``{out}`` placeholder for the report file.
    """

    name: str
    command: str
    args: tuple[str, ...]
    script: str | None = None

    def argv(self, out: Path) -> list[str]:
        return [a.replace("{out}", str(out)) for a in self.args]


def _write_spec(op, path: Path, rng: random.Random | None = None) -> None:
    from klocal.models import spec_from_operator

    spec = spec_from_operator(op)
    if rng is not None:
        rng.shuffle(spec["terms"])
    path.write_text(json.dumps(spec), encoding="utf-8")


def _mfi(n_sites: int):
    from klocal.models import build_model

    ising = build_model(
        "long_range_ising",
        {"n_sites": n_sites, "alpha": math.inf, "coupling": 1.0, "field": 1.05},
    )
    z_field = build_model("product_field", {"n_sites": n_sites, "axis": "z"})
    return ising + (-0.5) * z_field


def write_specs(workload: str, seed: int, work: Path) -> list[Invocation]:
    """Write the seeded spec files into ``work`` and return the invocations."""
    from klocal.models import build_model
    from klocal.pauli import KLocalOperator, PauliString

    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    if workload == "spread":
        # Sites 80..99 keep the depth-20 light cone (20 sites each way)
        # inside the chain, so every seed gives the same term counts, and
        # keep every mask bit in 60..119, so every mask is a Python int of
        # 3 or 4 30-bit digits (one allocation size) and memory is the same.
        site = rng.randrange(80, 100)
        _write_spec(_mfi(MFI_SITES), work / "mfi128.json")
        gamma = KLocalOperator(MFI_SITES, {PauliString.from_letters(MFI_SITES, {site: "Z"}): 1.0})
        _write_spec(gamma, work / "gamma.json")
        return [
            Invocation(
                "truncate.mfi128",
                "truncate",
                ("truncate", "--spec", str(work / "mfi128.json"), "--gamma", str(work / "gamma.json"),
                 "--mode", "small-time", "--t", str(SPREAD_T), "--q", str(SPREAD_Q), "--out", "{out}"),
            )
        ]
    if workload == "oracle":
        h10_seed, h8_seed, diag_seed = (rng.randrange(2**31) for _ in range(3))
        _write_spec(
            build_model("random_klocal", {"n_sites": 10, "k": 2, "n_terms": 30, "seed": h10_seed}),
            work / "h10.json",
        )
        _write_spec(
            build_model("random_klocal", {"n_sites": 8, "k": 2, "n_terms": 24, "seed": h8_seed}),
            work / "h8.json",
        )
        _write_spec(
            build_model("diagonal_commuting", {"n_sites": 8, "k": 2, "seed": diag_seed}),
            work / "diag8.json",
        )
        return [
            Invocation(
                "concentrate.h10",
                "concentrate",
                ("concentrate", "--spec", str(work / "h10.json"), "--t", "0.05", "--q", "3",
                 "--seed", str(seed), "--out", "{out}"),
            ),
            Invocation("verify.h8", "verify", ("verify", "--spec", str(work / "h8.json"), "--out", "{out}")),
            Invocation("verify.diag8", "verify", ("verify", "--spec", str(work / "diag8.json"), "--out", "{out}")),
            Invocation(
                "spreading_profile.n8",
                "spreading_profile",
                ("--n-sites", "8", "--t-points", "4", "--out", "{out}"),
                script="scripts/spreading_profile.py",
            ),
        ]
    if workload == "decompose":
        op = build_model("long_range_ising", {"n_sites": 256, "alpha": 2, "field": 1})
        # The seed shuffles the term order of the spec; the operator and
        # therefore the layer packing stay the same.
        _write_spec(op, work / "lri256.json", rng)
        return [
            Invocation("decompose.lri256", "decompose",
                       ("decompose", "--spec", str(work / "lri256.json"), "--out", "{out}"))
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------- checks


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _dense(spec: dict) -> np.ndarray:
    """Dense Hamiltonian from a spec, built independently of klocal.

    Pauli string P(x, z) = i^{|x&z|} X^x Z^z maps basis state i to
    i^{|x&z|} (-1)^{|i&z|} |i ^ x>, with site s on bit s.
    """
    n = spec["n_sites"]
    dim = 1 << n
    idx = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for term in spec["terms"]:
        x = z = 0
        for site, letter in zip(term["sites"], term["paulis"]):
            x |= (letter in "XY") << site
            z |= (letter in "YZ") << site
        coeff = complex(*term["coeff"]) * 1j ** ((x & z).bit_count() % 4)
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
        mat[idx ^ x, idx] += coeff * signs
    return mat


def _g_k(spec: dict) -> tuple[float, int]:
    per_site = [0.0] * spec["n_sites"]
    for term in spec["terms"]:
        for s in term["sites"]:
            per_site[s] += abs(complex(*term["coeff"]))
    return max(per_site), max(len(t["sites"]) for t in spec["terms"])


def _check_spread(result: dict) -> list[str]:
    ref = REFERENCE["spread"]
    problems = []
    for key in ("mode", "m0", "target_q", "witness_terms", "witness_locality"):
        if result.get(key) != ref[key]:
            problems.append(f"{key} = {result.get(key)!r}, reference {ref[key]!r}")
    if not result.get("witness_locality", math.inf) <= SPREAD_Q:
        problems.append("witness_locality exceeds q")
    for key in ("pruning_budget", "bound_rhs_norm_upper"):
        if not _close(result.get(key, math.nan), ref[key], 1e-9, 1e-15):
            problems.append(f"{key} = {result.get(key)!r}, reference {ref[key]!r}")
    return problems


def _check_concentrate(result: dict, spec: dict) -> list[str]:
    n = spec["n_sites"]
    h = _dense(spec)
    psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    # exp(-iHt)|+...+> by its Taylor series; ||Ht|| <= g*N*t = 0.5 here.
    t = 0.05
    term, out = psi, psi.copy()
    for m in range(1, 40):
        term = (-1j * t / m) * (h @ term)
        out += term
    probs = np.abs(out) ** 2
    eigen = n - 2.0 * np.bitwise_count(np.arange(1 << n))
    mean = float(probs @ eigen)
    problems = []
    if not _close(result["mean"], mean, 0.0, 1e-9):
        problems.append(f"tail mean {result['mean']} != independent {mean}")
    for sample in result["tail"]:
        want = math.sqrt(float(probs[eigen >= mean + sample["R"] - 1e-9].sum()))
        if not _close(sample["tail"], want, 0.0, 1e-8):
            problems.append(f"tail({sample['R']}) = {sample['tail']}, independent {want}")
    norms = np.array(result["band_norms"])
    if not np.allclose(norms, norms.T, rtol=0.0, atol=1e-9):
        problems.append("band norms are not symmetric")
    if norms.max() > n + 1e-9:
        problems.append(f"band norm {norms.max()} exceeds ||parent|| = {n}")
    occupied = np.zeros(norms.shape[0], dtype=bool)
    occupied[np.floor((np.arange(-n, n + 1, 2) + n) / result["bin_width"] + 1e-9).astype(int)] = True
    if result["band_occupancy"] != occupied.tolist():
        problems.append("band occupancy does not match the spectrum of sum Z")
    if not 0.0 <= result["probe"]["eps_hat"] <= 2.0 * 3:
        problems.append(f"probe eps_hat {result['probe']['eps_hat']} outside [0, 2q]")
    return problems


def _check_verify(result: dict, spec: dict, commuting: bool) -> list[str]:
    problems = []
    if result["verdict"] != "pass" or result["n_failed"] != 0:
        problems.append(f"verdict {result['verdict']} with {result['n_failed']} failed checks")
    checks = {c["check"]: c for c in result["checks"]}
    for c in checks.values():
        if c["status"] == "fail" or not _close(c["margin"], c["rhs"] - c["lhs"], 0.0, 1e-12):
            problems.append(f"check {c['check']}: {c}")
    # ||[H, Z_0]|| and its bound 6 g k q0 recomputed without klocal
    h = _dense(spec)
    z0 = 1.0 - 2.0 * (np.arange(h.shape[0]) & 1)
    lhs = float(np.linalg.svd(h * z0[None, :] - z0[:, None] * h, compute_uv=False)[0])
    g, k = _g_k(spec)
    growth = checks["commutator_growth"]
    if not _close(growth["lhs"], lhs, 1e-9, 1e-12):
        problems.append(f"commutator_growth lhs {growth['lhs']}, independent {lhs}")
    if not _close(growth["rhs"], 6.0 * g * k, 1e-12):
        problems.append(f"commutator_growth rhs {growth['rhs']}, independent {6.0 * g * k}")
    block = checks["energy_block"]
    if commuting and not (block["status"] == "pass" and block["lhs"] <= 1e-10):
        problems.append(f"energy_block on a commuting Hamiltonian: {block}")
    if not commuting and block["status"] != "skipped":
        problems.append(f"energy_block ran on a non-commuting Hamiltonian: {block}")
    return problems


def _check_profile(text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    ref = REFERENCE["spreading_profile"]
    if rows[0] != ref[0] or len(rows) != len(ref):
        return [f"profile has {len(rows)} rows with header {rows[0]}"]
    problems = []
    for got, want in zip(rows[1:], ref[1:]):
        for a, b in zip(got, want):
            fa, fb = float(a), float(b)
            if not (math.isnan(fa) and math.isnan(fb)) and not _close(fa, fb, 1e-9, 1e-12):
                problems.append(f"profile row {got} differs from reference {want}")
                break
    return problems


def _check_decompose(result: dict) -> list[str]:
    ref = REFERENCE["decompose"]
    cert = result["certificates"]
    problems = []
    if not (cert["within_layer_disjoint"] and cert["within_layer_commuting"]):
        problems.append(f"layer certificates false: {cert}")
    if not cert["layer_count"] <= cert["layer_bound"]:
        problems.append(f"layer_count {cert['layer_count']} above bound {cert['layer_bound']}")
    for key in ("layer_count", "layer_bound", "per_site_multiplicity_cap"):
        if cert[key] != ref[key]:
            problems.append(f"{key} = {cert[key]}, reference {ref[key]}")
    units = sum(entry["count"] for layer in result["layers"] for entry in layer)
    if len(result["layers"]) != cert["layer_count"] or units != ref["units"]:
        problems.append(f"{len(result['layers'])} layers holding {units} units")
    gap = cert["reconstruction_gap_upper"]
    if not cert["reconstruction_vs_source_norm_upper"] <= gap + 1e-9:
        problems.append("reconstruction distance exceeds the discretization gap")
    if not _close(gap, ref["reconstruction_gap_upper"], 1e-9):
        problems.append(f"reconstruction_gap_upper {gap}, reference {ref['reconstruction_gap_upper']}")
    return problems


def check(inv: Invocation, code: int, out: Path) -> list[str]:
    """Problems with one invocation's exit code and report; empty if correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        text = out.read_text(encoding="utf-8")
        if inv.script:
            return _check_profile(text)
        result = json.loads(text)["result"]
        spec_path = Path(inv.args[inv.args.index("--spec") + 1])
        if inv.command == "truncate":
            return _check_spread(result)
        if inv.command == "decompose":
            return _check_decompose(result)
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        if inv.command == "concentrate":
            return _check_concentrate(result, spec)
        return _check_verify(result, spec, commuting=inv.name.endswith("diag8"))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def check_counts(workload: str, counts: dict, levels: list[int]) -> list[str]:
    """Compare a traced pass's counts with the reference.

    Only counts fixed by the mathematics of the inputs are pinned (level
    sizes, units, layers, terms), never call or pair counts, which an
    optimisation may legitimately change.
    """
    ref = REFERENCE["counts"].get(workload, {})
    problems = [f"{k} = {counts[k]}, reference {v}" for k, v in ref.items() if counts[k] != v]
    if workload == "spread" and levels != REFERENCE["spread"]["level_terms"]:
        problems.append(f"level sizes {levels} differ from the reference")
    return problems
