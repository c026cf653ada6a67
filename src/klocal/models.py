"""Hamiltonian construction: JSON specs, structural constants, model families.

The interchange format for Hamiltonians is a strict JSON document

    {"n_sites": 4,
     "terms": [{"sites": [0, 1], "paulis": "ZZ", "coeff": [1.0, 0.0]}, ...]}

Unknown fields and non-finite coefficients are rejected, and every
validation message names the offending term index.  Repeated strings are
summed; a sum beyond the float range is rejected.  Specs are read through
flat site, letter and coefficient buffers by one of two routes: JSON text
without ``true`` or ``false`` is streamed, the parser handing over each
entry as it finishes it, so the parsed document is never built; anything
else (a Mapping, text holding a bool, text the stream refuses) is parsed
plainly and walked entry by entry, naming the first bad one.
``structural_constants`` extracts the interaction degree k (largest term
weight) and the extensiveness constant g (largest per-site sum of term
coefficient magnitudes), which drive every bound in :mod:`klocal.bounds`.
"""

from __future__ import annotations

import gc
import inspect
import json
import math
from array import array
from collections.abc import Mapping
from contextlib import contextmanager, suppress
from dataclasses import dataclass
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
_WRITTEN_ORDER = ("sites", "paulis", "coeff")  # the field order of spec_entries
_PAULI_LETTERS = set("XYZ")


def _require_fields(obj: Mapping[str, Any], fields: set[str], where: str) -> None:
    unknown = set(obj) - fields
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = fields - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing field(s) {sorted(missing)}")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring the caller's setting.

    A written spec is a tree of dicts, lists and strings that cannot
    form cycles; the collections that building it triggers would
    scan its containers for nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _only(items, kinds) -> bool:
    """True iff every item is an instance of ``kinds`` and none is a bool."""
    return all(issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, items)))


class _Refused(Exception):
    """An entry or document that the flat buffers cannot take as it is."""


_TAKEN = object()  # what the parser keeps in place of an entry it handed over


class _Terms:
    """Spec entries as flat buffers: each entry's length, its sites,
    letters and [re, im] coefficient, appended as soon as the entry is
    read, so no entry outlives its turn."""

    def __init__(self):
        self.weights, self.sites, self.coeff = array("q"), array("q"), array("d")
        self.letters: list[str] = []

    def add(self, sites, paulis, coeff) -> None:
        """Append one entry, or raise _Refused if its shape or item types
        break a rule of :func:`_check_entry`; bools pass as 0 and 1."""
        if not (
            isinstance(sites, (list, tuple)) and isinstance(paulis, str)
            and len(paulis) == len(sites) > 0
            and isinstance(coeff, (list, tuple)) and len(coeff) == 2
        ):
            raise _Refused
        try:  # floats, strings and ints beyond int64 fail as sites
            self.sites.extend(sites)
            self.coeff.extend(coeff)
        except (TypeError, OverflowError):
            raise _Refused from None
        self.weights.append(len(sites))
        self.letters.append(paulis)

    def take(self, pairs):
        """The parser's ``object_pairs_hook``: an object with exactly the
        entry fields is appended and becomes ``_TAKEN``; any other object,
        one with a repeated field included, stays a dict."""
        if len(pairs) != 3:
            return dict(pairs)
        (k0, sites), (k1, paulis), (k2, coeff) = pairs
        if (k0, k1, k2) != _WRITTEN_ORDER:
            entry = dict(pairs)
            if entry.keys() != _ENTRY_FIELDS:
                return entry
            sites, paulis, coeff = entry["sites"], entry["paulis"], entry["coeff"]
        self.add(sites, paulis, coeff)
        return _TAKEN

    def arrays(self, n_sites: int) -> tuple[np.ndarray, np.ndarray, bytes, np.ndarray]:
        """(row, site, ASCII letter) of each letter and each entry's
        coefficient; _Refused if a site is out of range or twice in one
        entry, a letter is not X, Y or Z, or a coefficient is not finite."""
        letters = "".join(self.letters)
        sites, coeff = np.frombuffer(self.sites, np.int64), np.frombuffer(self.coeff)
        rows = np.repeat(np.arange(len(self.weights)), np.frombuffer(self.weights, np.int64))
        cells = rows * n_sites
        cells += sites
        cells.sort()
        in_range = ((sites >= 0) & (sites < n_sites)).all()
        repeated = (cells[1:] == cells[:-1]).any()  # a site twice in one entry
        if repeated or not (in_range and np.isfinite(coeff).all() and set(letters) <= _PAULI_LETTERS):
            raise _Refused
        return rows, sites, letters.encode("ascii"), coeff.view(complex)


def _parse(text: str, hook=None) -> Any:
    try:
        return json.loads(text, object_pairs_hook=hook)
    except ValueError as exc:  # also integers beyond the digit limit
        raise ValidationError(f"spec is not valid JSON: {exc}") from None


def _stream(text: str) -> KLocalOperator:
    """The operator of a spec text whose entries the parser hands to the
    buffers one by one; _Refused if they cannot take the text as it is."""
    terms = _Terms()
    document = _parse(text, terms.take)
    if not (type(document) is dict and document.keys() == {"n_sites", "terms"}):
        raise _Refused
    n_sites, entries = document["n_sites"], document["terms"]
    # every entry taken, and all of them here: none was nested elsewhere
    if not (type(entries) is list and entries.count(_TAKEN) == len(entries) == len(terms.weights)):
        raise _Refused
    n_sites = _check_n_sites(n_sites)  # the plain route reaches the same value
    arrays = terms.arrays(n_sites)
    del document, entries, terms  # the letters as parsed outweigh the arrays
    return _operator(n_sites, *arrays)


def load_spec(document: Mapping[str, Any] | str) -> KLocalOperator:
    """Parse a Hamiltonian spec into an operator: JSON text without
    ``true`` or ``false`` is streamed, anything else walked entry by
    entry.  Repeated strings are summed; a sum beyond the float range is
    rejected.

    Raises:
        ValidationError: on schema violations, naming the index of a bad
            entry, or the string of a sum beyond the float range.
    """
    if isinstance(document, str):
        # a bool would pass the typed buffers as 0 or 1
        if "true" not in document and "false" not in document:
            with suppress(_Refused):
                return _stream(document)
        return _from_mapping(_parse(document))
    return _from_mapping(document)


def _from_mapping(document: Any) -> KLocalOperator:
    """The operator of a parsed spec, walked entry by entry: each entry
    passes :func:`_check_entry` before it joins the buffers."""
    if not isinstance(document, Mapping):
        raise ValidationError(f"spec must be a JSON object, got {type(document).__name__}")
    _require_fields(document, {"n_sites", "terms"}, "spec")
    n_sites = _check_n_sites(document["n_sites"])
    entries = document["terms"]
    if not isinstance(entries, (list, tuple)):
        raise ValidationError("terms must be an array")
    terms = _Terms()
    for idx, entry in enumerate(entries):
        _check_entry(f"terms[{idx}]", entry, n_sites)
        terms.add(entry["sites"], entry["paulis"], entry["coeff"])
    arrays = terms.arrays(n_sites)
    del document, entries, terms  # a parsed spec outweighs the arrays: free it first
    return _operator(n_sites, *arrays)


def _operator(n_sites: int, *arrays) -> KLocalOperator:
    """The operator of checked spec arrays; a sum beyond the float range is refused."""
    with np.errstate(over="ignore"):
        op = KLocalOperator.from_letter_sites(n_sites, *arrays)
    bad = np.flatnonzero(~np.isfinite(op.coeff))[:1]
    if bad.size:
        (entry,) = spec_entries(op.select(bad))
        raise ValidationError(
            f"terms: repeated string {entry['paulis']} on sites {entry['sites']} sums beyond the float range"
        )
    return op


def _check_n_sites(n_sites: Any) -> int:
    """``n_sites`` if it is an ``int`` (not a ``bool``) in [1, N_MAX_SITES]."""
    if not isinstance(n_sites, int) or isinstance(n_sites, bool) or n_sites <= 0:
        raise ValidationError(f"n_sites must be a positive integer, got {n_sites!r}")
    if n_sites > N_MAX_SITES:
        raise ValidationError(f"n_sites must be at most N_MAX_SITES = {N_MAX_SITES}, got {n_sites}")
    return n_sites


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
    with _collector_paused():
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


def _build_long_range_ising(n_sites: int, alpha=2.0, coupling=1.0, field=0.0) -> KLocalOperator:
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


def _random_draw(n_sites: int, k: int, n_terms: int | None, seed: int, letters: str) -> KLocalOperator:
    """``n_terms`` (default 2 * n_sites) seeded strings of weight <= ``k``
    over ``letters``, with uniform real coefficients in [-1, 1]; repeated
    strings are summed."""
    if k > n_sites:
        raise ValidationError(f"k must satisfy 1 <= k <= n_sites, got k={k}, n_sites={n_sites}")
    rng = np.random.default_rng(seed)
    acc: dict[PauliString, complex] = {}
    for _ in range(2 * n_sites if n_terms is None else n_terms):
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
        raise ValidationError("random draw produced the zero operator; change the seed")
    return (g_target / raw) * op


def _build_random_klocal(n_sites: int, k=2, n_terms=None, seed=0, g_target=1.0) -> KLocalOperator:
    return _normalize_extensiveness(_random_draw(n_sites, k, n_terms, seed, "XYZ"), g_target)


def _build_product_field(n_sites: int, axis="z") -> KLocalOperator:
    sites = np.arange(n_sites)
    letters = _AXIS_LETTER[axis.lower()].encode() * n_sites
    return KLocalOperator.from_letter_sites(n_sites, sites, sites, letters, np.full(n_sites, -1.0))


def _build_diagonal_commuting(n_sites: int, k=2, n_terms=None, seed=0, g_target=None) -> KLocalOperator:
    op = _random_draw(n_sites, k, n_terms, seed, "Z")
    return op if g_target is None else _normalize_extensiveness(op, g_target)


MODEL_FAMILIES = {
    "long_range_ising": _build_long_range_ising,
    "random_klocal": _build_random_klocal,
    "product_field": _build_product_field,
    "diagonal_commuting": _build_diagonal_commuting,
}

# family parameter -> (kind, rule, test), one rule per name across families
_PARAM_RULES = {
    "alpha": (float, "nonnegative", lambda v: v >= 0),  # math.inf: nearest neighbours only
    "coupling": (float, "a finite number", math.isfinite),
    "field": (float, "a finite number", math.isfinite),
    "k": (int, "a positive integer", lambda v: v >= 1),
    "n_terms": (int, "a positive integer", lambda v: v >= 1),
    "seed": (int, "a nonnegative integer", lambda v: v >= 0),
    "g_target": (float, "finite and positive", lambda v: 0 < v < math.inf),
    "axis": (str, "one of x, y, z", lambda v: v.lower() in _AXIS_LETTER),
}


def _family_param(name: str, value: Any) -> Any:
    """``value`` as the kind of parameter ``name`` if it is one (an int counts
    as a float, a bool as nothing) and passes the parameter's test."""
    kind, rule, test = _PARAM_RULES[name]
    if _only([value], (int, float) if kind is float else kind):
        with suppress(OverflowError):  # an int beyond the float range
            if test(kind(value)):
                return kind(value)
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


def build_model(family: str, params: Mapping[str, Any]) -> KLocalOperator:
    """Construct a named model family.

    Families and their parameters (all take ``n_sites``; an unknown name,
    or a value of the wrong type or range, raises ``ValidationError``):

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
    names = inspect.signature(builder).parameters
    if not params.keys() <= names.keys():
        raise ValidationError(
            f"unknown parameter(s) {sorted(params.keys() - names)} for {family}; its parameters: {sorted(names)}"
        )
    n_sites = _check_n_sites(params["n_sites"])
    return builder(n_sites, **{name: _family_param(name, params[name]) for name in params if name != "n_sites"})
