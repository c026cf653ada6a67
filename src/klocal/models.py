"""Hamiltonian construction: JSON specs, structural constants, model families.

The interchange format for Hamiltonians is a strict JSON document

    {"n_sites": 4,
     "terms": [{"sites": [0, 1], "paulis": "ZZ", "coeff": [1.0, 0.0]}, ...]}

Unknown fields and non-finite coefficients are rejected, and every
validation message names the offending term index.  Specs are read and
written through flat site, letter and coefficient arrays; only a spec
that fails the bulk checks is walked entry by entry, to name the first
bad one.  ``structural_constants`` extracts the interaction degree k
(largest term weight) and the extensiveness constant g (largest
per-site sum of term coefficient magnitudes), which drive every bound in
:mod:`klocal.bounds`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from .errors import ValidationError
from .pauli import KLocalOperator, PauliString

__all__ = [
    "N_MAX_SITES",
    "StructuralConstants",
    "load_spec",
    "spec_entries",
    "spec_from_operator",
    "structural_constants",
    "build_model",
    "MODEL_FAMILIES",
]

# largest n_sites a spec may declare: 1,024 mask words per row
N_MAX_SITES = 1 << 16
_AXIS_LETTER = {"x": "X", "y": "Y", "z": "Z"}
_ENTRY_FIELDS = {"sites", "paulis", "coeff"}
_PAULI_LETTERS = set("XYZ")


def _require_fields(obj: Mapping[str, Any], fields: set[str], where: str) -> None:
    unknown = set(obj) - fields
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = fields - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing field(s) {sorted(missing)}")


def _only(items, kinds) -> bool:
    """True iff every item is an instance of ``kinds`` and none is a bool."""
    return all(issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, items)))


def load_spec(document: Mapping[str, Any] | str) -> KLocalOperator:
    """Parse a Hamiltonian spec (dict or JSON text) into an operator.

    Raises:
        ValidationError: on schema violations, with the term index named
            for per-entry problems (out-of-range or duplicate sites,
            empty or mismatched Pauli letters, malformed or non-finite
            coefficients).
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:  # also integers beyond the digit limit
            raise ValidationError(f"spec is not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise ValidationError(f"spec must be a JSON object, got {type(document).__name__}")
    _require_fields(document, {"n_sites", "terms"}, "spec")
    n_sites = document["n_sites"]
    if not isinstance(n_sites, int) or isinstance(n_sites, bool) or n_sites <= 0:
        raise ValidationError(f"n_sites must be a positive integer, got {n_sites!r}")
    if n_sites > N_MAX_SITES:
        raise ValidationError(f"n_sites must be at most N_MAX_SITES = {N_MAX_SITES}, got {n_sites}")
    entries = document["terms"]
    if not isinstance(entries, (list, tuple)):
        raise ValidationError("terms must be an array")
    arrays = _flatten(entries, n_sites)
    if arrays is None:
        for idx, entry in enumerate(entries):
            _check_entry(f"terms[{idx}]", entry, n_sites)
        raise AssertionError("the bulk spec checks rejected entries that pass one by one")
    del document, entries  # a parsed spec outweighs the arrays: free it first
    return KLocalOperator.from_letter_sites(n_sites, *arrays)


def _flatten(entries, n_sites: int) -> tuple[np.ndarray, ...] | None:
    """(row, site, ASCII letter) of each letter and each entry's coefficient,
    or None if some entry breaks a rule of :func:`_check_entry`."""
    if not all(
        (type(e) is dict or isinstance(e, Mapping)) and e.keys() == _ENTRY_FIELDS
        and isinstance(e["sites"], (list, tuple)) and isinstance(e["paulis"], str)
        and len(e["paulis"]) == len(e["sites"]) > 0
        and isinstance(e["coeff"], (list, tuple)) and len(e["coeff"]) == 2
        for e in entries
    ):
        return None

    def items(field: str):  # streamed: a list of every item would raise peak memory
        return chain.from_iterable(e[field] for e in entries)

    letters = "".join([e["paulis"] for e in entries])
    if not (
        _only(items("sites"), int)
        and _only(items("coeff"), (int, float))
        and set(letters) <= _PAULI_LETTERS
    ):
        return None
    rows = np.repeat(np.arange(len(entries)), [len(e["sites"]) for e in entries])
    try:
        sites = np.fromiter(items("sites"), np.int64, len(rows))
        coeffs = np.fromiter(items("coeff"), float, 2 * len(entries))
        cells = rows * n_sites
    except OverflowError:
        return None
    cells += sites
    cells.sort()
    in_range = ((sites >= 0) & (sites < n_sites)).all()
    repeated = (cells[1:] == cells[:-1]).any()  # a site twice in one entry
    if repeated or not (in_range and np.isfinite(coeffs).all()):
        return None
    return rows, sites, letters.encode("ascii"), coeffs.view(complex)


def _check_entry(where: str, entry: Any, n_sites: int) -> None:
    """Raise the ValidationError of the first rule that ``entry`` breaks."""
    if not isinstance(entry, Mapping):
        raise ValidationError(f"{where}: must be an object")
    _require_fields(entry, _ENTRY_FIELDS, where)
    sites, paulis, coeff = entry["sites"], entry["paulis"], entry["coeff"]
    if not isinstance(sites, (list, tuple)) or not _only(sites, int):
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
    bad = [ch for ch in paulis if ch not in _PAULI_LETTERS]
    if bad:
        raise ValidationError(f"{where}: invalid Pauli letter(s) {bad} (use X, Y, Z)")
    if not isinstance(coeff, (list, tuple)) or len(coeff) != 2 or not _only(coeff, (int, float)):
        raise ValidationError(f"{where}: coeff must be a [re, im] number pair")
    try:
        finite = all(map(math.isfinite, coeff))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValidationError(f"{where}: coeff must be finite and within the float range")


def spec_entries(op: KLocalOperator) -> list[dict[str, Any]]:
    """One ``{"sites", "paulis", "coeff"}`` spec entry per term, in row order."""
    rows, sites = op.letter_sites()
    weights = np.bincount(rows, minlength=op.n_terms)
    if not weights.all():
        raise ValidationError("identity term cannot be expressed in the JSON spec format")
    letters = op.letters_at(rows, sites).decode("ascii")
    sites, ends = sites.tolist(), np.cumsum(weights).tolist()
    coeffs = zip(op.coeff.real.tolist(), op.coeff.imag.tolist())
    return [
        {"sites": sites[start:end], "paulis": letters[start:end], "coeff": [re, im]}
        for start, end, (re, im) in zip([0, *ends], ends, coeffs)
    ]


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
    per_site = np.bincount(sites, weights=op.magnitudes[rows], minlength=op.n_sites)
    k, g = int(weights.max(initial=0)), float(per_site.max(initial=0.0))
    return StructuralConstants(k=k, g=g, n_terms=op.n_terms, norm_upper=op.norm_upper())


def _build_long_range_ising(n_sites: int, params: Mapping[str, Any]) -> KLocalOperator:
    alpha = float(params.get("alpha", 2.0))
    coupling = float(params.get("coupling", 1.0))
    field = float(params.get("field", 0.0))
    if alpha < 0:
        raise ValidationError(f"alpha must be nonnegative, got {alpha}")
    # one Python division per distance: each coupling is bit for bit
    # coupling / float(j - i) ** alpha
    decay = np.array([coupling / float(d) ** alpha for d in range(1, n_sites)], dtype=float)
    i, j = np.triu_indices(n_sites, 1)
    c = decay[j - i - 1]
    keep = c != 0.0
    n_pairs, fields = int(keep.sum()), np.arange(n_sites if field != 0.0 else 0)
    return KLocalOperator.from_letter_sites(
        n_sites,
        np.concatenate([np.repeat(np.arange(n_pairs), 2), n_pairs + fields]),
        np.concatenate([np.stack([i[keep], j[keep]], axis=1).ravel(), fields]),
        b"ZZ" * n_pairs + b"X" * len(fields),
        np.concatenate([c[keep], np.full(len(fields), field)]),
    )


def _random_draw(n_sites: int, params: Mapping[str, Any], letters: str) -> KLocalOperator:
    """``n_terms`` seeded strings of weight <= ``k`` over ``letters``, with
    uniform real coefficients in [-1, 1]; repeated strings are summed."""
    k = int(params.get("k", 2))
    seed = int(params.get("seed", 0))
    n_terms = int(params.get("n_terms", 2 * n_sites))
    if not 1 <= k <= n_sites:
        raise ValidationError(f"k must satisfy 1 <= k <= n_sites, got k={k}, n_sites={n_sites}")
    rng = np.random.default_rng(seed)
    acc: dict[PauliString, complex] = {}
    for _ in range(n_terms):
        weight = int(rng.integers(1, k + 1))
        sites = rng.choice(n_sites, size=weight, replace=False)
        chosen = {s: letters[int(i)] for s, i in zip(sites, rng.integers(0, len(letters), size=weight))}
        string = PauliString.from_letters(n_sites, chosen)
        coeff = float(rng.uniform(-1.0, 1.0))
        acc[string] = acc.get(string, 0j) + coeff
    return KLocalOperator(n_sites, acc)


def _normalize_extensiveness(op: KLocalOperator, g_target: float) -> KLocalOperator:
    raw = structural_constants(op).g
    if raw == 0.0:
        raise ValidationError("cannot normalize extensiveness of a zero operator")
    return (g_target / raw) * op


def _build_random_klocal(n_sites: int, params: Mapping[str, Any]) -> KLocalOperator:
    op = _random_draw(n_sites, params, "XYZ")
    g_target = float(params.get("g_target", 1.0))
    if g_target <= 0:
        raise ValidationError(f"g_target must be positive, got {g_target}")
    if op.is_zero:
        raise ValidationError("random draw produced the zero operator; change the seed")
    return _normalize_extensiveness(op, g_target)


def _build_product_field(n_sites: int, params: Mapping[str, Any]) -> KLocalOperator:
    axis = str(params.get("axis", "z")).lower()
    if axis not in _AXIS_LETTER:
        raise ValidationError(f"axis must be one of x, y, z, got {axis!r}")
    sites = np.arange(n_sites)
    letters = _AXIS_LETTER[axis].encode() * n_sites
    return KLocalOperator.from_letter_sites(n_sites, sites, sites, letters, np.full(n_sites, -1.0))


def _build_diagonal_commuting(n_sites: int, params: Mapping[str, Any]) -> KLocalOperator:
    op = _random_draw(n_sites, params, "Z")
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
