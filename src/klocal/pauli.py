"""Sparse Pauli-string algebra for few-body spin operators.

A Pauli string on ``n_sites`` qubits is stored as two bitmasks: bit ``i``
of ``x_mask`` / ``z_mask`` records an X / Z factor on site ``i``, and a
site with both bits set carries Y.  With the convention

    P(x, z) = i^{x & z} X^x Z^z   (per site)

products and commutators reduce to XORs, ANDs and popcounts, so the
algebra never touches a matrix.  Operators are immutable weighted sums
of strings held in canonical form: duplicate strings merged, coefficients
with magnitude below ``ZERO_TOL`` dropped.

All functions are pure and the containers are treated as immutable, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import DimensionMismatchError, ValidationError

__all__ = [
    "ZERO_TOL",
    "PauliString",
    "Term",
    "KLocalOperator",
    "mul_strings",
    "commutator",
]

# Coefficients at or below this magnitude are treated as exact zeros when
# operators are put in canonical form.
ZERO_TOL = 1e-14

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def _mask_sites(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PauliString:
    """An n-site Pauli string without coefficient.

    Instances are immutable and hashable; identity (no letters anywhere)
    is represented by both masks being zero.
    """

    __slots__ = ("n_sites", "x_mask", "z_mask")

    def __init__(self, n_sites: int, x_mask: int = 0, z_mask: int = 0):
        if n_sites < 0:
            raise ValidationError(f"n_sites must be nonnegative, got {n_sites}")
        top = 1 << n_sites
        if not (0 <= x_mask < top and 0 <= z_mask < top):
            raise ValidationError(
                f"masks ({x_mask:#x}, {z_mask:#x}) out of range for {n_sites} sites"
            )
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "x_mask", x_mask)
        object.__setattr__(self, "z_mask", z_mask)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    @classmethod
    def identity(cls, n_sites: int) -> "PauliString":
        return cls(n_sites, 0, 0)

    @classmethod
    def from_letters(cls, n_sites: int, letters: Mapping[int, str]) -> "PauliString":
        """Build a string from a ``{site: letter}`` map, letters in XYZ."""
        x = z = 0
        for site, letter in letters.items():
            site = operator.index(site)
            if not 0 <= site < n_sites:
                raise ValidationError(f"site {site} out of range for {n_sites} sites")
            try:
                bx, bz = _LETTER_BITS[letter]
            except KeyError:
                raise ValidationError(f"invalid Pauli letter {letter!r} at site {site}") from None
            x |= bx << site
            z |= bz << site
        return cls(n_sites, x, z)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a dense label such as ``"XIZ"`` (index i = site i)."""
        letters = {i: ch for i, ch in enumerate(label) if ch != "I"}
        return cls.from_letters(len(label), letters)

    @property
    def support_mask(self) -> int:
        return self.x_mask | self.z_mask

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(_mask_sites(self.support_mask))

    @property
    def weight(self) -> int:
        """Number of sites carrying a non-identity letter."""
        return self.support_mask.bit_count()

    @property
    def letters(self) -> dict[int, str]:
        out = {}
        for site in _mask_sites(self.support_mask):
            bx = (self.x_mask >> site) & 1
            bz = (self.z_mask >> site) & 1
            out[site] = _BITS_LETTER[(bx, bz)]
        return out

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the two strings commute as operators."""
        if self.n_sites != other.n_sites:
            raise DimensionMismatchError(
                f"strings on {self.n_sites} and {other.n_sites} sites"
            )
        anti = (self.x_mask & other.z_mask).bit_count() + (self.z_mask & other.x_mask).bit_count()
        return anti % 2 == 0

    def label(self) -> str:
        letters = self.letters
        return "".join(letters.get(i, "I") for i in range(self.n_sites))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n_sites == other.n_sites
            and self.x_mask == other.x_mask
            and self.z_mask == other.z_mask
        )

    def __hash__(self) -> int:
        return hash((self.n_sites, self.x_mask, self.z_mask))

    def __repr__(self) -> str:
        letters = self.letters
        if not letters:
            return f"PauliString(I, n={self.n_sites})"
        body = " ".join(f"{letter}{site}" for site, letter in sorted(letters.items()))
        return f"PauliString({body}, n={self.n_sites})"


def mul_strings(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Multiply two strings, returning ``(phase, product)`` with phase in {1, i, -1, -i}.

    The product string's weight never exceeds ``a.weight + b.weight``.
    """
    if a.n_sites != b.n_sites:
        raise DimensionMismatchError(f"strings on {a.n_sites} and {b.n_sites} sites")
    x3 = a.x_mask ^ b.x_mask
    z3 = a.z_mask ^ b.z_mask
    phi = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    ) & 3
    return _PHASES[phi], PauliString(a.n_sites, x3, z3)


@dataclass(frozen=True)
class Term:
    """One weighted Pauli string."""

    string: PauliString
    coeff: complex

    @property
    def weight(self) -> int:
        return self.string.weight

    @property
    def support(self) -> tuple[int, ...]:
        return self.string.support

    @property
    def norm(self) -> float:
        return abs(self.coeff)


class KLocalOperator:
    """Immutable weighted sum of Pauli strings in canonical form.

    Canonical form merges duplicate strings and removes coefficients with
    ``|c| <= ZERO_TOL``, so e.g. ``0.5*Z0 - 0.5*Z0`` is the zero operator
    with ``norm_upper() == 0``.
    """

    __slots__ = ("n_sites", "_terms")

    def __init__(self, n_sites: int, terms: Mapping[PauliString, complex] | None = None):
        merged: dict[PauliString, complex] = {}
        if terms:
            for string, coeff in terms.items():
                if string.n_sites != n_sites:
                    raise DimensionMismatchError(
                        f"term on {string.n_sites} sites in operator on {n_sites}"
                    )
                c = merged.get(string, 0j) + complex(coeff)
                if c == 0j:
                    merged.pop(string, None)
                else:
                    merged[string] = c
        for string in [s for s, c in merged.items() if abs(c) <= ZERO_TOL]:
            del merged[string]
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "_terms", merged)

    def __setattr__(self, name, value):
        raise AttributeError("KLocalOperator is immutable")

    @classmethod
    def zero(cls, n_sites: int) -> "KLocalOperator":
        return cls(n_sites)

    def terms(self) -> list[Term]:
        return [Term(s, c) for s, c in self._terms.items()]

    def coefficient(self, string: PauliString) -> complex:
        return self._terms.get(string, 0j)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def locality(self) -> int:
        """Largest weight among stored strings (0 for the zero operator)."""
        return max((s.weight for s in self._terms), default=0)

    @property
    def support_mask(self) -> int:
        mask = 0
        for s in self._terms:
            mask |= s.support_mask
        return mask

    def norm_upper(self) -> float:
        """Triangle-inequality upper bound sum_P |c_P| on the operator norm."""
        return math.fsum(abs(c) for c in self._terms.values())

    def prune(self, threshold: float) -> tuple["KLocalOperator", float]:
        """Drop terms with ``|coeff| <= threshold``.

        Returns the pruned operator and the summed magnitude of what was
        dropped; ``threshold=0.0`` is the identity transformation.
        """
        if threshold < 0:
            raise ValidationError(f"threshold must be nonnegative, got {threshold}")
        kept: dict[PauliString, complex] = {}
        dropped = 0.0
        for string, coeff in self._terms.items():
            if abs(coeff) <= threshold:
                dropped += abs(coeff)
            else:
                kept[string] = coeff
        return KLocalOperator(self.n_sites, kept), dropped

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def __add__(self, other: "KLocalOperator") -> "KLocalOperator":
        if not isinstance(other, KLocalOperator):
            return NotImplemented
        if self.n_sites != other.n_sites:
            raise DimensionMismatchError(
                f"operators on {self.n_sites} and {other.n_sites} sites"
            )
        acc = dict(self._terms)
        for string, coeff in other._terms.items():
            acc[string] = acc.get(string, 0j) + coeff
        return KLocalOperator(self.n_sites, acc)

    def __sub__(self, other: "KLocalOperator") -> "KLocalOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "KLocalOperator":
        if isinstance(scalar, KLocalOperator):
            return NotImplemented
        s = complex(scalar)
        return KLocalOperator(self.n_sites, {p: s * c for p, c in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "KLocalOperator":
        return (-1.0) * self

    def __eq__(self, other) -> bool:
        if not isinstance(other, KLocalOperator):
            return NotImplemented
        return self.n_sites == other.n_sites and self._terms == other._terms

    def __hash__(self):
        return hash((self.n_sites, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return f"KLocalOperator(0, n={self.n_sites})"
        parts = []
        for string, coeff in list(self._terms.items())[:6]:
            letters = string.letters
            body = "".join(f"{l}{i}" for i, l in sorted(letters.items())) or "I"
            parts.append(f"({coeff:.4g})*{body}")
        tail = " + ..." if self.n_terms > 6 else ""
        return f"KLocalOperator({' + '.join(parts)}{tail}, n={self.n_sites})"


def commutator(a: KLocalOperator, b: KLocalOperator) -> KLocalOperator:
    """Exact commutator ``[a, b]`` in canonical form.

    Term pairs with disjoint supports are skipped outright (they commute),
    and commuting pairs contribute nothing; an anticommuting pair (P, Q)
    contributes ``2 * c_P * c_Q * phase(PQ)`` on the product string.  Every
    surviving string therefore straddles supports from both operands.
    """
    if a.n_sites != b.n_sites:
        raise DimensionMismatchError(f"operators on {a.n_sites} and {b.n_sites} sites")
    n = a.n_sites
    left = [(s.x_mask, s.z_mask, s.x_mask | s.z_mask, c) for s, c in a._terms.items()]
    right = [(s.x_mask, s.z_mask, s.x_mask | s.z_mask, c) for s, c in b._terms.items()]
    acc: dict[tuple[int, int], complex] = {}
    for xa, za, sa, ca in left:
        for xb, zb, sb, cb in right:
            if not sa & sb:
                continue
            if ((xa & zb).bit_count() + (za & xb).bit_count()) % 2 == 0:
                continue
            x3 = xa ^ xb
            z3 = za ^ zb
            phi = (
                (xa & za).bit_count()
                + (xb & zb).bit_count()
                - (x3 & z3).bit_count()
                + 2 * (za & xb).bit_count()
            ) & 3
            key = (x3, z3)
            acc[key] = acc.get(key, 0j) + 2.0 * ca * cb * _PHASES[phi]
    return KLocalOperator(n, {PauliString(n, x, z): c for (x, z), c in acc.items()})
