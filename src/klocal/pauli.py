"""Sparse Pauli-string algebra for few-body spin operators.

A Pauli string on ``n_sites`` qubits is stored as two bitmasks: bit ``i``
of ``x_mask`` / ``z_mask`` records an X / Z factor on site ``i``, and a
site with both bits set carries Y.  With the convention

    P(x, z) = i^{x & z} X^x Z^z   (per site)

products and commutators reduce to XORs, ANDs and popcounts, so the
algebra never touches a matrix.  A product differs from its right factor
only on the words where the left factor acts, so :func:`commutator`
forms strings and phases on those words alone.

Storage.  ``KLocalOperator`` keeps its terms as word-packed arrays: ``x``
and ``z`` of shape (terms, W) and dtype uint64, W = ceil(n_sites/64),
with site ``i`` at bit ``i % 64`` of word ``i // 64``, and ``coeff`` of
dtype complex128.  ``PauliString``, a value type with Python-int masks,
only names a single string: as a key of the constructor's mapping and
as the argument of ``coefficient``.  Outside this module only
:func:`klocal.oracle.to_dense` reads the words (word 0 of each row: a
dense operator has at most 64 sites).  Other modules get the (row, site)
pairs of the letters from ``letter_sites()`` and the letters themselves
from ``letters_at()``, build an operator from such arrays with
``from_letter_sites()``, get the rows sorted by (x_mask, z_mask) from
``mask_order()``, and a sub-operator from ``select()``, which picks rows
in a given order and can rescale each one.  The layers of
:mod:`klocal.layers` are operators built that way.

Row order.  Each string occupies one row, in the order in which it first
occurred: in the constructor's mapping or rows, in ``self`` then
``other`` for a sum, and in the (a, b) pair loop of :func:`commutator`;
``select`` keeps the order of the rows it is given.

Merge rule.  Duplicate strings are merged by summing their coefficients
from zero in that same order, and merged coefficients with magnitude at
most ``ZERO_TOL`` are dropped at the end.  A running sum keeps the
distinct rows so far and their 64-bit keys, which mix all words of a
row, in sorted order; new rows are sorted by key, looked up with
``searchsorted``, and merged only once all their words compare equal.
A key shared by distinct strings makes the running sum key itself again
with the next salt.  A group's first occurrence is its smallest row, so
the order the sort gives ties does not matter.  Real and imaginary parts
are summed (``np.add.at``, in row order) and multiplied with separate
float64 operations that follow CPython's complex formulas, and
magnitudes use ``np.hypot`` (NumPy's complex ``abs`` can differ from
Python's in the last bit), so every coefficient is bit-identical to a
dict accumulating ``acc.get(s, 0j) + c``.

All functions are pure and the containers are treated as immutable, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError, check_same_sites

__all__ = [
    "ZERO_TOL",
    "HERMITIAN_TOL",
    "PauliString",
    "KLocalOperator",
    "commutator",
]

# Coefficients at or below this magnitude are treated as exact zeros when
# operators are put in canonical form.
ZERO_TOL = 1e-14
# Hermitian: ||Im c||_2 <= HERMITIAN_TOL * max(1, ||c||_2), or on the 2**n-dim
# matrix the same quantities ||M - M+||_F / 2 <= HERMITIAN_TOL * max(2**(n/2), ||M||_F).
HERMITIAN_TOL = 1e-10

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# the letter with bits (x, z) is _LETTERS[x + 2z]
_LETTERS = "IXZY"
_ASCII_BITS = np.zeros(256, dtype=np.uint8)  # x + 2z of each letter byte
_ASCII_BITS[list(_LETTERS.encode())] = range(4)

# Python reduces int hashes modulo 2**61 - 1; a second residue keeps masks
# wider than 61 bits from colliding in bulk.
_HASH_PRIME = 1_000_000_007


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n_sites == other.n_sites
            and self.x_mask == other.x_mask
            and self.z_mask == other.z_mask
        )

    def __hash__(self) -> int:
        x, z = self.x_mask, self.z_mask
        return hash((self.n_sites, x, z, x % _HASH_PRIME, z % _HASH_PRIME))

    def __repr__(self) -> str:
        x, z = self.x_mask, self.z_mask
        body = " ".join(
            f"{_LETTERS[(x >> s & 1) + 2 * (z >> s & 1)]}{s}"
            for s in range(self.n_sites)
            if (x | z) >> s & 1
        )
        return f"PauliString({body or 'I'}, n={self.n_sites})"


# ------------------------------------------------------------ word arrays


_WORD_MASK = (1 << 64) - 1


def _n_words(n_sites: int) -> int:
    return max(1, -(-n_sites // 64))


def _pack(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Python-int masks as a (len(masks), n_words) uint64 array."""
    n_rows = len(masks)
    out = np.empty((n_rows, n_words), dtype=np.uint64)
    for word in range(n_words):
        shift = 64 * word
        out[:, word] = np.fromiter((m >> shift & _WORD_MASK for m in masks), np.uint64, n_rows)
    return out


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a (rows, W) word array."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _anticommuting(
    x_words: np.ndarray, z_words: np.ndarray, xa: np.ndarray, za: np.ndarray
) -> np.ndarray:
    """Indices of the rows, given as (W, rows) word columns, that anticommute
    with the string (xa, za): those where |x & za| + |z & xa| is odd.  A sum
    of popcounts has the parity of the popcount of the XOR, and words where
    the string is the identity add nothing."""
    parity = np.zeros(x_words.shape[1], dtype=np.uint64)
    for w in np.flatnonzero(xa | za):
        parity ^= (x_words[w] & za[w]) ^ (z_words[w] & xa[w])
    return np.flatnonzero(np.bitwise_count(parity) & 1)


def _cmul(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """(ar + i ai)(br + i bi) by CPython's formula, part by part."""
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(len(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _keys(words: np.ndarray, salt: int) -> np.ndarray:
    """One 64-bit key per row: the XOR of its words, each first XORed with
    a seed drawn from ``salt`` and its column and then scrambled."""
    width = words.shape[1]
    seeds = [(salt * width + column + 1) * 0x9E3779B97F4A7C15 % 2**64 for column in range(width)]
    mixed = words.T.copy()  # word columns as rows: loops along short rows are slow
    mixed ^= np.array(seeds, dtype=np.uint64)[:, None]
    mixed *= np.uint64(0xBF58476D1CE4E5B9)
    mixed ^= mixed >> np.uint64(32)
    mixed *= np.uint64(0x94D049BB133111EB)
    return np.bitwise_xor.reduce(mixed, axis=0)


class _RunningSum:
    """The running sum of the merge rule: distinct rows of [x | z] words in
    first-occurrence order, their summed coefficients and sorted keys."""

    def __init__(self, width: int):
        self.words = np.empty((0, width), dtype=np.uint64)
        self.re = self.im = np.empty(0)
        self.keys, self.slots = np.empty(0, np.uint64), np.empty(0, np.intp)
        self.salt = 0

    def add(self, words, re, im) -> "_RunningSum":
        while (slot := self._slots(words)) is None:
            # distinct strings share a key: key the stored rows with the next salt
            self.salt += 1
            keys = _keys(self.words, self.salt)
            self.slots = np.argsort(keys)
            self.keys = keys[self.slots]
        np.add.at(self.re, slot, re)
        np.add.at(self.im, slot, im)
        return self

    def _slots(self, words) -> np.ndarray | None:
        """The stored row of each row of ``words``, appending new strings
        at 0.0; None, with nothing changed, if distinct rows share a key."""
        key = _keys(words, self.salt)
        order = np.argsort(key)
        ranked = key[order]
        leads = np.ones(len(key), dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=leads[1:])
        starts = np.flatnonzero(leads)
        group = np.empty_like(order)
        group[order] = leads.cumsum() - 1
        # the smallest row of a group comes first, whatever the order of ties
        first = np.minimum.reduceat(order, starts)
        if len(starts) < len(key) and not (words == words.take(first[group], axis=0)).all():
            return None
        unique, n_old = ranked[starts], len(self.keys)
        slot = np.full(len(unique), -1)
        if n_old:
            at = np.searchsorted(self.keys, unique)
            seen = np.flatnonzero(self.keys[at.clip(max=n_old - 1)] == unique)
            slot[seen] = self.slots[at[seen]]
            if not (self.words.take(slot[seen], axis=0) == words.take(first[seen], axis=0)).all():
                return None
        new = np.flatnonzero(slot < 0)
        by_first = new[np.argsort(first[new])]
        slot[by_first] = np.arange(n_old, n_old + len(new))
        rows = words if len(new) == len(words) else words.take(first[by_first], axis=0)
        self.words = np.concatenate([self.words, rows]) if n_old else rows
        self.re, self.im = (np.concatenate([part, np.zeros(len(new))]) for part in (self.re, self.im))
        if n_old:
            self.keys = np.insert(self.keys, at[new], unique[new])
            self.slots = np.insert(self.slots, at[new], slot[new])
        else:
            self.keys, self.slots = unique, slot
        return slot[group]

    def rows(self) -> tuple[np.ndarray, ...]:
        """(x, z, re, im) of the distinct rows; x and z are views of the words."""
        width = self.words.shape[1] // 2
        return self.words[:, :width], self.words[:, width:], self.re, self.im


def _merge(words, re, im) -> tuple[np.ndarray, ...]:
    """Merge duplicate rows of [x | z] words into their first occurrence."""
    return _RunningSum(words.shape[1]).add(words, re, im).rows()


class KLocalOperator:
    """Immutable weighted sum of Pauli strings in canonical form.

    Canonical form merges duplicate strings and removes coefficients with
    ``|c| <= ZERO_TOL``, so e.g. ``0.5*Z0 - 0.5*Z0`` is the zero operator
    with ``norm_upper() == 0``.  The terms live in the read-only arrays
    ``x``, ``z`` and ``coeff`` described in the module docstring.
    """

    __slots__ = ("n_sites", "x", "z", "coeff")

    def __init__(self, n_sites: int, terms: Mapping[PauliString, complex] | None = None):
        terms = terms or {}
        for string in terms:
            check_same_sites(n_sites, string.n_sites)
        width = _n_words(n_sites)
        coeff = np.fromiter(terms.values(), dtype=complex, count=len(terms))
        # 0.0 + c, as merging sums from zero (it turns -0.0 parts into 0.0)
        self._assign(
            n_sites,
            _pack([s.x_mask for s in terms], width),
            _pack([s.z_mask for s in terms], width),
            0.0 + coeff.real,
            0.0 + coeff.imag,
        )

    @classmethod
    def from_letter_sites(
        cls, n_sites: int, rows, sites, letters: bytes, coeff
    ) -> "KLocalOperator":
        """Sum over r of ``coeff[r]`` times the string with the ASCII letter
        ``letters[i]`` (X, Y or Z) on ``sites[i]`` for every i with
        ``rows[i] == r``, merging repeated strings: the inverse of
        :meth:`letter_sites` with :meth:`letters_at`.  Sites are taken as
        in range and distinct within a row."""
        coeff = np.asarray(coeff, dtype=complex)
        width = _n_words(n_sites)
        words = np.zeros((len(coeff), 2 * width), dtype=np.uint64)
        cells = rows * (2 * width) + sites // 64
        bits = np.uint64(1) << (sites % 64).astype(np.uint64)
        code = _ASCII_BITS[np.frombuffer(letters, dtype=np.uint8)]
        for offset, bit in ((0, code & 1), (width, code >> 1)):
            np.bitwise_or.at(words.reshape(-1), cells + offset, bits * bit)
        return cls._from_rows(n_sites, *_merge(words, coeff.real, coeff.imag))

    @classmethod
    def _from_rows(cls, n_sites: int, x, z, re, im) -> "KLocalOperator":
        """Adopt unique rows whose coefficients were summed from zero."""
        op = cls.__new__(cls)
        op._assign(n_sites, x, z, re, im)
        return op

    def _assign(self, n_sites: int, x, z, re, im) -> None:
        keep = ~(np.hypot(re, im) <= ZERO_TOL)
        if not keep.all():
            x, z, re, im = x[keep], z[keep], re[keep], im[keep]
        for name, value in (("n_sites", n_sites), ("x", x), ("z", z), ("coeff", _complex(re, im))):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("KLocalOperator is immutable")

    def coefficient(self, string: PauliString) -> complex:
        check_same_sites(self.n_sites, string.n_sites)
        width = _n_words(self.n_sites)
        xs, zs = _pack([string.x_mask], width), _pack([string.z_mask], width)
        hit = np.flatnonzero(((self.x == xs) & (self.z == zs)).all(axis=1))
        return complex(self.coeff[hit[0]]) if hit.size else 0j

    @property
    def n_terms(self) -> int:
        return len(self.coeff)

    @property
    def is_zero(self) -> bool:
        return not len(self.coeff)

    @property
    def locality(self) -> int:
        """Largest weight among stored strings (0 for the zero operator)."""
        return int(_popcount(self.x | self.z).max(initial=0))

    def letter_sites(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, site) of every non-identity letter, rows ascending and
        sites ascending within a row."""
        support = (self.x | self.z).astype("<u8", copy=False)
        return np.nonzero(np.unpackbits(support.view(np.uint8), axis=1, bitorder="little"))

    def letters_at(self, rows: np.ndarray, sites: np.ndarray) -> bytes:
        """The ASCII letter at each (row, site) pair, ``I`` where none."""
        word, shift = sites // 64, (sites % 64).astype(np.uint64)
        bits = (self.x[rows, word] >> shift & 1) + 2 * (self.z[rows, word] >> shift & 1)
        return np.frombuffer(_LETTERS.encode(), dtype=np.uint8)[bits].tobytes()

    def mask_order(self) -> np.ndarray:
        """Row indices that sort the terms by (x_mask, z_mask), the order
        ``sorted`` gives on the Python-int mask pairs."""
        # lexsort's last key is the primary one: most significant x word first
        return np.lexsort([*self.z.T, *self.x.T])

    def select(self, rows, scale: np.ndarray | None = None) -> "KLocalOperator":
        """The terms at ``rows`` (distinct indices, or a boolean mask), in
        that order.  With ``scale``, row i's coefficient becomes
        ``c * scale[i]`` by CPython's complex-times-float rule, which
        multiplies by ``complex(scale[i], 0.0)``."""
        # a mask becomes indices once; take is far faster than 2-D fancy indexing
        rows = np.flatnonzero(rows) if np.asarray(rows).dtype == bool else rows
        parts = (self.x, self.z, self.coeff.real, self.coeff.imag)
        x, z, re, im = (np.take(a, rows, axis=0) for a in parts)
        if scale is not None:
            re, im = _cmul(re, im, scale, 0.0)
        return KLocalOperator._from_rows(self.n_sites, x, z, re, im)

    @property
    def magnitudes(self) -> np.ndarray:
        """|c| per stored term, bit-identical to Python's ``abs``."""
        return np.hypot(self.coeff.real, self.coeff.imag)

    @property
    def terms_commute(self) -> bool:
        """True iff the stored strings commute pairwise."""
        x_words, z_words = self.x.T.copy(), self.z.T.copy()
        return not any(
            _anticommuting(x_words, z_words, xa, za).size for xa, za in zip(self.x, self.z)
        )

    def norm_upper(self) -> float:
        """Triangle-inequality upper bound sum_P |c_P| on the operator norm."""
        return math.fsum(self.magnitudes.tolist())

    def prune(self, threshold: float) -> tuple["KLocalOperator", float]:
        """Drop terms with ``|coeff| <= threshold``.

        Returns the pruned operator and the summed magnitude of what was
        dropped, added up in row order; ``threshold=0.0`` is the identity
        transformation.
        """
        if not threshold >= 0:
            raise ValidationError(f"threshold must be nonnegative, got {threshold}")
        mags = self.magnitudes
        drop = mags <= threshold
        dropped = float(np.cumsum(mags[drop])[-1]) if drop.any() else 0.0
        return self.select(~drop), dropped

    def is_hermitian(self) -> bool:
        """The ``HERMITIAN_TOL`` rule on the imaginary parts of the coefficients."""
        return bool(np.linalg.norm(self.coeff.imag) <= HERMITIAN_TOL * max(1.0, np.linalg.norm(self.coeff)))

    def __add__(self, other: "KLocalOperator") -> "KLocalOperator":
        if not isinstance(other, KLocalOperator):
            return NotImplemented
        check_same_sites(self.n_sites, other.n_sites)
        rows = _merge(
            np.concatenate([np.concatenate([op.x, op.z], axis=1) for op in (self, other)]),
            np.concatenate([self.coeff.real, other.coeff.real]),
            np.concatenate([self.coeff.imag, other.coeff.imag]),
        )
        return KLocalOperator._from_rows(self.n_sites, *rows)

    def __sub__(self, other: "KLocalOperator") -> "KLocalOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "KLocalOperator":
        if isinstance(scalar, KLocalOperator):
            return NotImplemented
        s = complex(scalar)
        re, im = _cmul(s.real, s.imag, self.coeff.real, self.coeff.imag)
        return KLocalOperator._from_rows(self.n_sites, self.x, self.z, 0.0 + re, 0.0 + im)

    __rmul__ = __mul__

    def __neg__(self) -> "KLocalOperator":
        return (-1.0) * self

    def _sorted(self) -> tuple[np.ndarray, ...]:
        order = self.mask_order()
        return self.x[order], self.z[order], self.coeff[order]

    def __eq__(self, other) -> bool:
        if not isinstance(other, KLocalOperator):
            return NotImplemented
        return self.n_sites == other.n_sites and all(
            np.array_equal(mine, theirs) for mine, theirs in zip(self._sorted(), other._sorted())
        )

    def __hash__(self):
        return hash((self.n_sites, *(column.tobytes() for column in self._sorted())))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"KLocalOperator(0, n={self.n_sites})"
        head = self.select(np.arange(min(self.n_terms, 6)))
        rows, sites = head.letter_sites()
        bodies = [""] * head.n_terms
        for row, site, letter in zip(rows.tolist(), sites.tolist(), head.letters_at(rows, sites).decode()):
            bodies[row] += f"{letter}{site}"
        parts = [f"({c:.4g})*{body or 'I'}" for c, body in zip(head.coeff.tolist(), bodies)]
        tail = " + ..." if self.n_terms > 6 else ""
        return f"KLocalOperator({' + '.join(parts)}{tail}, n={self.n_sites})"


def commutator(a: KLocalOperator, b: KLocalOperator) -> KLocalOperator:
    """Exact commutator ``[a, b]`` in canonical form.

    Loops over the terms P of ``a`` and tests every term Q of ``b`` at
    once; commuting pairs (among them all pairs with disjoint supports)
    contribute nothing, and an anticommuting pair contributes
    ``2 * c_P * c_Q * phase(PQ)`` on the product string, so every
    surviving string straddles supports from both operands.  PQ and
    its phase i^phi are formed on the words where P acts, the rest being
    Q's, and the coefficient is ``(i^phi * 2 c_P) * c_Q``: the rotation is
    exact, so it is ``i^phi * (2 c_P * c_Q)`` up to the sign of zero
    parts, which summing from zero removes.  Products
    join one running sum (see the merge rule) in chunks of about
    ``b.n_terms`` rows, in (P, Q) order, so the strings seen so far are
    never sorted again and the pending chunk bounds peak memory.
    """
    check_same_sites(a.n_sites, b.n_sites)
    bx, bz = b.x, b.z
    x_words, z_words = bx.T.copy(), bz.T.copy()
    b_re, b_im = b.coeff.real.copy(), b.coeff.imag.copy()
    # terms of a that share no site with b commute with all of it
    b_support = np.bitwise_or.reduce(bx | bz, axis=0)
    overlapping = np.flatnonzero(((a.x | a.z) & b_support).any(axis=1))
    ax, az = a.x[overlapping], a.z[overlapping]
    a_y = np.bitwise_count(ax & az).sum(axis=1, dtype=np.uint8)
    # 2 c_P times i^0..i^3, exact: the parts of each factor are 0 and +-1
    turn = (2.0 * a.coeff[overlapping])[:, None] * np.array([1, 1j, -1, -1j])
    width = bx.shape[1]
    b_words = np.hstack([bx, bz])
    chunk = max(b.n_terms, 1024)
    total = _RunningSum(2 * width)
    parts: list[tuple[np.ndarray, ...]] = []
    n_pending = 0
    for k, (xa, za) in enumerate(zip(ax, az)):
        hit = _anticommuting(x_words, z_words, xa, za)
        if not hit.size:
            continue
        words = b_words.take(hit, axis=0)
        # the product and its phase change only on the words where P acts;
        # uint8 sums may wrap, since only phi mod 4 matters and 4 divides 256
        phi = a_y[k]
        for w in np.flatnonzero(xa | za):
            x_b, z_b = x_words[w].take(hit), z_words[w].take(hit)
            x_o, z_o = x_b ^ xa[w], z_b ^ za[w]
            words[:, w], words[:, width + w] = x_o, z_o
            phi += 2 * np.bitwise_count(za[w] & x_b) + np.bitwise_count(x_b & z_b)
            phi -= np.bitwise_count(x_o & z_o)
        phi &= 3
        re, im = _cmul(turn.real[k, phi], turn.imag[k, phi], b_re[hit], b_im[hit])
        parts.append((words, re, im))
        n_pending += hit.size
        if n_pending >= chunk:
            pending, parts, n_pending = [np.concatenate(column) for column in zip(*parts)], [], 0
            total.add(*pending)
    if parts:
        pending, parts = [np.concatenate(column) for column in zip(*parts)], []
        total.add(*pending)
    return KLocalOperator._from_rows(a.n_sites, *total.rows())
