"""Hamiltonian construction: JSON specs, structural constants, model families.

The interchange format for Hamiltonians is a strict JSON document

    {"n_sites": 4,
     "terms": [{"sites": [0, 1], "paulis": "ZZ", "coeff": [1.0, 0.0]}, ...]}

Unknown fields are rejected, and every validation message names the
offending term index.  ``structural_constants`` extracts the interaction
degree k (largest term weight) and the extensiveness constant g (largest
per-site sum of term coefficient magnitudes), which drive every bound in
:mod:`klocal.bounds`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import ValidationError
from .pauli import KLocalOperator, PauliString

__all__ = [
    "StructuralConstants",
    "load_spec",
    "spec_entries",
    "spec_from_operator",
    "structural_constants",
    "build_model",
    "MODEL_FAMILIES",
]

_AXIS_LETTER = {"x": "X", "y": "Y", "z": "Z"}


def _require_fields(obj: Mapping[str, Any], allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing field(s) {sorted(missing)}")


def load_spec(document: Mapping[str, Any] | str) -> KLocalOperator:
    """Parse a Hamiltonian spec (dict or JSON text) into an operator.

    Raises:
        ValidationError: on schema violations, with the term index named
            for per-entry problems (out-of-range or duplicate sites,
            empty or mismatched Pauli letters, malformed coefficients).
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec is not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise ValidationError(f"spec must be a JSON object, got {type(document).__name__}")
    _require_fields(document, {"n_sites", "terms"}, {"n_sites", "terms"}, "spec")
    n_sites = document["n_sites"]
    if not isinstance(n_sites, int) or isinstance(n_sites, bool) or n_sites <= 0:
        raise ValidationError(f"n_sites must be a positive integer, got {n_sites!r}")
    entries = document["terms"]
    if not isinstance(entries, (list, tuple)):
        raise ValidationError("terms must be an array")

    x_masks: list[int] = []
    z_masks: list[int] = []
    coeffs: list[complex] = []
    for idx, entry in enumerate(entries):
        where = f"terms[{idx}]"
        if not isinstance(entry, Mapping):
            raise ValidationError(f"{where}: must be an object")
        _require_fields(entry, {"sites", "paulis", "coeff"}, {"sites", "paulis", "coeff"}, where)
        sites = entry["sites"]
        paulis = entry["paulis"]
        coeff = entry["coeff"]
        if not isinstance(sites, (list, tuple)) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in sites
        ):
            raise ValidationError(f"{where}: sites must be an array of integers")
        if not sites:
            raise ValidationError(f"{where}: empty site list (identity terms are not allowed)")
        if len(set(sites)) != len(sites):
            raise ValidationError(f"{where}: duplicate site in {list(sites)}")
        for s in sites:
            if not 0 <= s < n_sites:
                raise ValidationError(f"{where}: site {s} out of range for n_sites={n_sites}")
        if not isinstance(paulis, str) or len(paulis) != len(sites):
            raise ValidationError(
                f"{where}: paulis must be a string of length {len(sites)}, got {paulis!r}"
            )
        bad = [ch for ch in paulis if ch not in "XYZ"]
        if bad:
            raise ValidationError(f"{where}: invalid Pauli letter(s) {bad} (use X, Y, Z)")
        if (
            not isinstance(coeff, (list, tuple))
            or len(coeff) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in coeff)
        ):
            raise ValidationError(f"{where}: coeff must be a [re, im] number pair")
        string = PauliString.from_letters(n_sites, dict(zip(sites, paulis)))
        x_masks.append(string.x_mask)
        z_masks.append(string.z_mask)
        coeffs.append(complex(coeff[0], coeff[1]))
    del document, entries  # a parsed spec outweighs the arrays: free it first
    return KLocalOperator.from_masks(n_sites, x_masks, z_masks, coeffs)


def spec_entries(op: KLocalOperator) -> list[dict[str, Any]]:
    """One ``{"sites", "paulis", "coeff"}`` spec entry per term, in row order."""
    entries = []
    for term in op.terms():
        letters = term.string.letters
        if not letters:
            raise ValidationError("identity term cannot be expressed in the JSON spec format")
        sites = sorted(letters)
        entries.append(
            {
                "sites": sites,
                "paulis": "".join(letters[s] for s in sites),
                "coeff": [term.coeff.real, term.coeff.imag],
            }
        )
    return entries


def spec_from_operator(op: KLocalOperator) -> dict[str, Any]:
    """Inverse of :func:`load_spec`, terms in (x_mask, z_mask) order;
    identity terms cannot be represented."""
    return {"n_sites": op.n_sites, "terms": spec_entries(op.select(op.mask_order()))}


@dataclass(frozen=True)
class StructuralConstants:
    """Interaction degree, extensiveness constant and cheap norm data."""

    k: int
    g: float
    n_terms: int
    norm_upper: float


def structural_constants(op: KLocalOperator) -> StructuralConstants:
    """Compute (k, g, n_terms, norm_upper) for an operator.

    k is the largest string weight present and g the largest per-site sum
    of coefficient magnitudes; the zero operator yields all zeros.  For
    operators without an identity component, norm_upper <= g * n_sites.
    """
    # (term, site) pairs in term order, so each site sums like a loop over terms
    rows, sites = op.letter_sites()
    weights = np.bincount(rows, minlength=op.n_terms)
    k = int(weights.max(initial=0))
    has_identity = bool((weights == 0).any())
    per_site = np.bincount(sites, weights=op.magnitudes[rows], minlength=op.n_sites)
    g = float(per_site.max(initial=0.0))
    total = op.norm_upper()
    if not has_identity and total > g * op.n_sites * (1.0 + 1e-12) + 1e-12:
        raise ValidationError(
            f"internal inconsistency: norm_upper {total} exceeds g*N {g * op.n_sites}"
        )
    return StructuralConstants(k=k, g=g, n_terms=op.n_terms, norm_upper=total)


def _build_long_range_ising(n_sites: int, params: Mapping[str, Any]) -> KLocalOperator:
    alpha = float(params.get("alpha", 2.0))
    coupling = float(params.get("coupling", 1.0))
    field = float(params.get("field", 0.0))
    if alpha < 0:
        raise ValidationError(f"alpha must be nonnegative, got {alpha}")
    acc: dict[PauliString, complex] = {}
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            c = coupling / float(j - i) ** alpha
            if c != 0.0:
                acc[PauliString.from_letters(n_sites, {i: "Z", j: "Z"})] = complex(c)
    if field != 0.0:
        for i in range(n_sites):
            acc[PauliString.from_letters(n_sites, {i: "X"})] = complex(field)
    return KLocalOperator(n_sites, acc)


def _random_strings(
    rng: np.random.Generator,
    n_sites: int,
    k: int,
    n_terms: int,
    letters: str,
) -> dict[PauliString, complex]:
    acc: dict[PauliString, complex] = {}
    for _ in range(n_terms):
        weight = int(rng.integers(1, k + 1))
        sites = rng.choice(n_sites, size=weight, replace=False)
        chosen = {s: letters[int(i)] for s, i in zip(sites, rng.integers(0, len(letters), size=weight))}
        string = PauliString.from_letters(n_sites, chosen)
        coeff = float(rng.uniform(-1.0, 1.0))
        acc[string] = acc.get(string, 0j) + coeff
    return acc


def _normalize_extensiveness(op: KLocalOperator, g_target: float) -> KLocalOperator:
    raw = structural_constants(op).g
    if raw == 0.0:
        raise ValidationError("cannot normalize extensiveness of a zero operator")
    return (g_target / raw) * op


def _build_random_klocal(n_sites: int, params: Mapping[str, Any]) -> KLocalOperator:
    k = int(params.get("k", 2))
    g_target = float(params.get("g_target", 1.0))
    seed = int(params.get("seed", 0))
    n_terms = int(params.get("n_terms", 2 * n_sites))
    if not 1 <= k <= n_sites:
        raise ValidationError(f"k must satisfy 1 <= k <= n_sites, got k={k}, n_sites={n_sites}")
    if g_target <= 0:
        raise ValidationError(f"g_target must be positive, got {g_target}")
    rng = np.random.default_rng(seed)
    acc = _random_strings(rng, n_sites, k, n_terms, "XYZ")
    op = KLocalOperator(n_sites, acc)
    if op.is_zero:
        raise ValidationError("random draw produced the zero operator; change the seed")
    return _normalize_extensiveness(op, g_target)


def _build_product_field(n_sites: int, params: Mapping[str, Any]) -> KLocalOperator:
    axis = str(params.get("axis", "z")).lower()
    if axis not in _AXIS_LETTER:
        raise ValidationError(f"axis must be one of x, y, z, got {axis!r}")
    letter = _AXIS_LETTER[axis]
    acc = {
        PauliString.from_letters(n_sites, {i: letter}): complex(-1.0)
        for i in range(n_sites)
    }
    return KLocalOperator(n_sites, acc)


def _build_diagonal_commuting(n_sites: int, params: Mapping[str, Any]) -> KLocalOperator:
    k = int(params.get("k", 2))
    seed = int(params.get("seed", 0))
    n_terms = int(params.get("n_terms", 2 * n_sites))
    if not 1 <= k <= n_sites:
        raise ValidationError(f"k must satisfy 1 <= k <= n_sites, got k={k}, n_sites={n_sites}")
    rng = np.random.default_rng(seed)
    acc = _random_strings(rng, n_sites, k, n_terms, "Z")
    op = KLocalOperator(n_sites, acc)
    if "g_target" in params:
        op = _normalize_extensiveness(op, float(params["g_target"]))
    return op


MODEL_FAMILIES = {
    "long_range_ising": _build_long_range_ising,
    "random_klocal": _build_random_klocal,
    "product_field": _build_product_field,
    "diagonal_commuting": _build_diagonal_commuting,
}


def build_model(family: str, params: Mapping[str, Any]) -> KLocalOperator:
    """Construct a named model family.

    Families and their parameters (all take ``n_sites``):

    - ``long_range_ising``: open 1D chain, ZZ couplings decaying as
      ``coupling / distance**alpha`` plus a transverse ``field`` on X.
    - ``random_klocal``: ``n_terms`` random strings of weight <= ``k``
      with real coefficients, rescaled so the extensiveness constant
      equals ``g_target`` (seeded, deterministic).
    - ``product_field``: minus the sum of single-site letters along
      ``axis``; the aligned product state has energy ``-n_sites``.
    - ``diagonal_commuting``: random Z-only strings of weight <= ``k``;
      all terms commute pairwise.
    """
    try:
        builder = MODEL_FAMILIES[family]
    except KeyError:
        raise ValidationError(
            f"unknown model family {family!r}; known: {sorted(MODEL_FAMILIES)}"
        ) from None
    if "n_sites" not in params:
        raise ValidationError("params must include n_sites")
    n_sites = int(params["n_sites"])
    if n_sites <= 0:
        raise ValidationError(f"n_sites must be positive, got {n_sites}")
    return builder(n_sites, params)
