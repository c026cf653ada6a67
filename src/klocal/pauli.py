"""Sparse Pauli-string algebra for few-body spin operators.

A Pauli string on ``n_sites`` qubits is stored as two bitmasks: bit ``i``
of ``x_mask`` / ``z_mask`` records an X / Z factor on site ``i``, and a
site with both bits set carries Y.  With the convention

    P(x, z) = i^{x & z} X^x Z^z   (per site)

products and commutators reduce to XORs, ANDs and popcounts, so the
algebra never touches a matrix.  A product differs from its right factor
only on the words where the left factor acts, so :func:`commutator`
forms strings and phases on those words alone.

Storage.  ``KLocalOperator`` keeps its terms in two read-only arrays:
``words`` of shape (terms, 2W) and dtype uint64, W = ceil(n_sites/64),
each row the string's X words then its Z words, with site ``i`` at bit
``i % 64`` of word ``i // 64`` of each half; and ``coeff`` of dtype
complex128.  ``x`` and ``z`` are views of the two halves.  The merge and
:func:`commutator` work on the same rows.  ``PauliString``, a value type
with Python-int masks, only names a single string: as a key of the
constructor's mapping and as the argument of ``coefficient``.  Outside
this module only :mod:`klocal.oracle` reads the words (word 0 of each
row, in ``_x_mask_action``: a dense operator or state has at most 64
sites).  Other modules get
the (row, site) pairs of the letters from ``letter_sites()`` and the
letters themselves from ``letters_at()``, build an operator from such
arrays with ``from_letter_sites()``, get the rows sorted by (x_mask,
z_mask) from ``mask_order()``, and a sub-operator from ``select()``,
which picks rows in a given order and can rescale each one.  The layers
of :mod:`klocal.layers` are operators built that way.  ``letter_sites``
unpacks the bits of the nonzero bytes of ``x | z`` alone, so its time
and memory grow with the words and letters of an operator, not with
rows times sites: a 256-site long-range chain has 32,896 rows of 256
sites but 65,536 letters.

Row order.  Each string occupies one row, in the order in which it first
occurred: in the constructor's mapping or rows, in ``self`` then
``other`` for a sum, and in the (a, b) pair loop of :func:`commutator`;
``select`` keeps the order of the rows it is given.

Merge rule.  Duplicate strings are merged by summing their coefficients
from zero in that same order, and merged coefficients with magnitude at
most ``ZERO_TOL`` are dropped at the end.  A running sum stores each
distinct string so far as an id, next to its coefficient, its 64-bit
key, which mixes all words of the string, and its slot, keeping the keys
in sorted order: 40 bytes a string at any width.  An id is a row number
in a sum, and in :func:`commutator` ``k * b.n_terms + j`` for the
product of the k-th term of ``a`` that overlaps ``b`` with the j-th term
of ``b``.  New strings are sorted by key, looked up with
``searchsorted``, and merged only once all their words compare equal:
a batch brings its own words, and those of stored strings are
regenerated from ids, a block at a time, for that check, for re-keying
and for the result, so no batch copies the stored strings' words.
A key shared by distinct strings makes the running sum key itself again
with the next salt.  A group's first occurrence is its smallest row, so
the order the sort gives ties does not matter.  Coefficients are summed
in one complex array (``np.add.at``, in row order), which adds real and
imaginary parts separately as CPython does; products follow CPython's
complex formula part by part, and magnitudes use ``np.hypot`` (NumPy's
complex ``abs`` can differ from Python's in the last bit), so every
coefficient is bit-identical to a dict accumulating
``acc.get(s, 0j) + c``.

All functions are pure and the containers are treated as immutable, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError, check_same_sites

__all__ = [
    "ZERO_TOL",
    "HERMITIAN_TOL",
    "PauliString",
    "KLocalOperator",
    "commutator",
    "hermitian_rule",
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
# x + 2z of each X, Y or Z byte; 4 marks every other byte
_ASCII_BITS = np.full(256, 4, dtype=np.uint8)
_ASCII_BITS[list(_LETTERS[1:].encode())] = range(1, 4)

# Python reduces int hashes modulo 2**61 - 1; a second residue keeps masks
# wider than 61 bits from colliding in bulk.
_HASH_PRIME = 1_000_000_007


@dataclass(frozen=True, slots=True)
class PauliString:
    """An n-site Pauli string without coefficient.

    Instances are immutable and hashable; identity (no letters anywhere)
    is represented by both masks being zero.
    """

    n_sites: int
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self):
        if self.n_sites < 0:
            raise ValidationError(f"n_sites must be nonnegative, got {self.n_sites}")
        top = 1 << self.n_sites
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise ValidationError(
                f"masks ({self.x_mask:#x}, {self.z_mask:#x}) out of range for {self.n_sites} sites"
            )

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


def _modulus(coeff: np.ndarray) -> np.ndarray:
    """|c| per entry, bit-identical to Python's ``abs``; inf beyond the float range."""
    with np.errstate(over="ignore"):
        return np.hypot(coeff.real, coeff.imag)


def hermitian_rule(skew: np.ndarray, values: np.ndarray, floor: float) -> bool:
    """The ``HERMITIAN_TOL`` rule ||skew||_2 <= HERMITIAN_TOL * max(floor,
    ||values||_2) for the anti-Hermitian part ``skew`` of ``values``, every
    norm taken after an exact scaling by the power of two that brings the
    largest |Re| or |Im| part of ``values`` into [0.5, 1), so no square overflows."""
    top = max(max(part.max(initial=0.0), -part.min(initial=0.0)) for part in (values.real, values.imag))
    if not math.isfinite(top):
        return False
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    return bool(np.linalg.norm(skew * scale) <= HERMITIAN_TOL * max(floor * scale, np.linalg.norm(values * scale)))


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


def _anticommuting(x_words, z_words, xa, za) -> np.ndarray:
    """Indices of the rows, given as (W, rows) word columns, that anticommute
    with the string (xa, za): those where |x & za| + |z & xa| is odd.  A sum
    of popcounts has the parity of the popcount of the XOR, and words where
    the string is the identity add nothing."""
    parity = np.zeros(x_words.shape[1], dtype=np.uint64)
    for w in np.flatnonzero(xa | za):
        parity ^= (x_words[w] & za[w]) ^ (z_words[w] & xa[w])
    return np.flatnonzero(np.bitwise_count(parity) & 1)


def _cmul(a, b) -> np.ndarray:
    """a * b by CPython's formula, part by part; a real factor counts as
    one with imaginary part 0.0."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


# words mixed or regenerated at once: bounds the copies _keys makes of a
# large batch and the rows the running sum regenerates (256 KB each)
_KEY_BLOCK = 1 << 15


def _keys(words: np.ndarray, salt: int) -> np.ndarray:
    """One 64-bit key per row: the XOR of its words, each first XORed with
    a seed drawn from ``salt`` and its column and then scrambled."""
    rows, width = words.shape
    seeds = [(salt * width + column + 1) * 0x9E3779B97F4A7C15 % 2**64 for column in range(width)]
    seeds = np.array(seeds, dtype=np.uint64)[:, None]
    keys = np.empty(rows, dtype=np.uint64)
    step = max(_KEY_BLOCK // width, 1)
    for start in range(0, rows, step):
        mixed = words[start : start + step].T.copy()  # word columns as rows: loops along short rows are slow
        mixed ^= seeds
        mixed *= np.uint64(0xBF58476D1CE4E5B9)
        mixed ^= mixed >> np.uint64(32)
        mixed *= np.uint64(0x94D049BB133111EB)
        np.bitwise_xor.reduce(mixed, axis=0, out=keys[start : start + step])
    return keys


class _RunningSum:
    """The running sum of the merge rule.  Each distinct string is stored
    as the id it first occurred with, next to its summed coefficient, in
    first-occurrence order; the strings' keys are kept sorted, each with
    its slot.  ``source`` maps an array of ids to their rows of ``width``
    words: stored strings keep no words, which are regenerated from ids
    whenever they are needed."""

    def __init__(self, width: int, source):
        self.width, self.source = width, source
        self.ids, self.coeff = np.empty(0, np.intp), np.empty(0, dtype=complex)
        self.keys, self.slots = np.empty(0, np.uint64), np.empty(0, np.intp)
        self.salt = 0

    def add(self, ids, words, coeff) -> "_RunningSum":
        """Add ``coeff[i]`` to the string ``ids[i]``, whose words are
        ``words[i]``, in that order."""
        while (slot := self._slots(ids, words)) is None:
            # distinct strings share a key: key the stored strings with the next salt
            self.salt += 1
            keys = _keys(self.words(), self.salt)
            self.slots = np.argsort(keys)
            self.keys = keys[self.slots]
        np.add.at(self.coeff, slot, coeff)
        return self

    def words(self) -> np.ndarray:
        """The words of the stored strings, one row each."""
        out = np.empty((len(self.ids), self.width), dtype=np.uint64)
        for part, rows in self._blocks(self.ids):
            out[part] = rows
        return out

    def _blocks(self, ids):
        """(slice, words) for each block of the strings ``ids``."""
        step = max(_KEY_BLOCK // self.width, 1)
        for start in range(0, len(ids), step):
            yield slice(start, start + step), self.source(ids[start : start + step])

    def _slots(self, ids, words) -> np.ndarray | None:
        """The slot of each row of ``words``, appending new strings at 0.0;
        None, with nothing changed, if distinct rows share a key."""
        key = _keys(words, self.salt)
        order = np.argsort(key)
        key = key[order]
        leads = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=leads[1:])
        starts, n_old = np.flatnonzero(leads), len(self.keys)
        if not n_old and len(starts) == len(key):
            # distinct strings into an empty sum: row i takes slot i
            self.ids, self.coeff = ids, np.zeros(len(ids), dtype=complex)
            self.keys, self.slots = key, order
            return np.arange(len(ids))
        unique, rank = key[starts], leads.cumsum() - 1
        later = np.flatnonzero(~leads)  # the rows after the first of their key group
        if later.size and not (
            words.take(order[later], axis=0) == words.take(order[starts[rank[later]]], axis=0)
        ).all():
            return None
        group = np.empty_like(order)
        group[order] = rank
        # the smallest row of a group comes first, whatever the order of ties
        first = np.minimum.reduceat(order, starts)
        del key, order, leads, rank, later  # a batch's arrays set the peak: free them once spent
        slot = np.full(len(unique), -1)
        if n_old:
            at = np.searchsorted(self.keys, unique)
            seen = np.flatnonzero(self.keys[at.clip(max=n_old - 1)] == unique)
            slot[seen] = self.slots[at[seen]]
            blocks = self._blocks(self.ids[slot[seen]])
            if not all((rows == words.take(first[seen[part]], axis=0)).all() for part, rows in blocks):
                return None
        new = np.flatnonzero(slot < 0)
        by_first = new[np.argsort(first[new])]
        slot[by_first] = np.arange(n_old, n_old + len(new))
        self.ids = np.concatenate([self.ids, ids[first[by_first]]])
        self.coeff = np.concatenate([self.coeff, np.zeros(len(new), dtype=complex)])
        if n_old:
            self.keys = np.insert(self.keys, at[new], unique[new])
            self.slots = np.insert(self.slots, at[new], slot[new])
        else:
            self.keys, self.slots = unique, slot
        return slot[group]


def _merge(words, coeff) -> tuple[np.ndarray, np.ndarray]:
    """Merge duplicate rows of [x | z] words into their first occurrence."""
    total = _RunningSum(words.shape[1], lambda ids: words.take(ids, axis=0))
    total.add(np.arange(len(words)), words, coeff)
    return (words if len(total.ids) == len(words) else words.take(total.ids, axis=0)), total.coeff


class KLocalOperator:
    """Immutable weighted sum of Pauli strings in canonical form.

    Canonical form merges duplicate strings and removes coefficients with
    ``|c| <= ZERO_TOL``, so e.g. ``0.5*Z0 - 0.5*Z0`` is the zero operator
    with ``norm_upper() == 0``.  The terms live in the read-only arrays
    ``words`` and ``coeff`` described in the module docstring.
    """

    __slots__ = ("n_sites", "words", "coeff")

    def __init__(self, n_sites: int, terms: Mapping[PauliString, complex] | None = None):
        terms = terms or {}
        for string in terms:
            check_same_sites(n_sites, string.n_sites)
        width = _n_words(n_sites)
        words = _pack([s.z_mask << 64 * width | s.x_mask for s in terms], 2 * width)
        coeff = np.fromiter(terms.values(), dtype=complex, count=len(terms))
        # 0.0 + c, as merging sums from zero (it turns -0.0 parts into 0.0)
        self._assign(n_sites, words, 0.0 + coeff)

    @classmethod
    def from_letter_sites(
        cls, n_sites: int, rows, sites, letters: bytes, coeff
    ) -> "KLocalOperator":
        """Sum over r of ``coeff[r]`` times the string with the ASCII letter
        ``letters[i]`` (X, Y or Z) on ``sites[i]`` for every i with
        ``rows[i] == r``, merging repeated strings: the inverse of
        :meth:`letter_sites` with :meth:`letters_at`.  Sites are taken as
        in range and distinct within a row; any other letter byte raises
        ``ValidationError``."""
        code = _ASCII_BITS[np.frombuffer(letters, dtype=np.uint8)]
        if (bad := np.flatnonzero(code > 3)).size:
            i = int(bad[0])
            raise ValidationError(f"letter {letters[i : i + 1]!r} at index {i} is not X, Y or Z")
        coeff = np.asarray(coeff, dtype=complex)
        width = _n_words(n_sites)
        words = np.zeros((len(coeff), 2 * width), dtype=np.uint64)
        cells = rows * (2 * width) + sites // 64
        bits = np.uint64(1) << (sites % 64).astype(np.uint64)
        for offset, bit in ((0, code & 1), (width, code >> 1)):
            np.bitwise_or.at(words.reshape(-1), cells + offset, bits * bit)
        return cls._from_rows(n_sites, *_merge(words, coeff))

    @classmethod
    def _from_rows(cls, n_sites: int, words, coeff) -> "KLocalOperator":
        """Adopt unique rows whose coefficients were summed from zero."""
        op = cls.__new__(cls)
        op._assign(n_sites, words, coeff)
        return op

    def _assign(self, n_sites: int, words, coeff) -> None:
        keep = ~(_modulus(coeff) <= ZERO_TOL)
        if not keep.all():
            words, coeff = np.compress(keep, words, axis=0), coeff[keep]
        for name, value in (("n_sites", n_sites), ("words", words), ("coeff", coeff)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("KLocalOperator is immutable")

    @property
    def x(self) -> np.ndarray:
        """The X words of each row, a read-only (terms, W) view of ``words``."""
        return self.words[:, : self.words.shape[1] // 2]

    @property
    def z(self) -> np.ndarray:
        """The Z words of each row, a read-only (terms, W) view of ``words``."""
        return self.words[:, self.words.shape[1] // 2 :]

    def coefficient(self, string: PauliString) -> complex:
        check_same_sites(self.n_sites, string.n_sites)
        width = _n_words(self.n_sites)
        key = _pack([string.z_mask << 64 * width | string.x_mask], 2 * width)
        hit = np.flatnonzero((self.words == key).all(axis=1))
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
        """(row, site) of every non-identity letter as ``intp`` arrays,
        rows ascending and sites ascending within a row.

        Only the nonzero bytes of ``x | z`` are unpacked into bits, so
        work and memory grow with the words and letters of the operator,
        not with rows times sites."""
        support = (self.x | self.z).astype("<u8", copy=False).view(np.uint8)
        at = np.flatnonzero(support)
        bit = np.flatnonzero(np.unpackbits(support.take(at), bitorder="little"))
        # bit j of the unpacked bytes is bit j % 8 of byte at[j // 8]
        return np.divmod(8 * at[bit >> 3] + (bit & 7), 8 * support.shape[1])

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
        """The terms at ``rows`` (distinct indices), in that order.  With
        ``scale``, row i's coefficient becomes ``c * scale[i]`` by CPython's
        complex-times-float rule, which multiplies by
        ``complex(scale[i], 0.0)``."""
        # take is far faster than 2-D fancy indexing
        words, coeff = np.take(self.words, rows, axis=0), np.take(self.coeff, rows)
        if scale is not None:
            coeff = _cmul(coeff, scale)
        return KLocalOperator._from_rows(self.n_sites, words, coeff)

    @property
    def magnitudes(self) -> np.ndarray:
        """|c| per stored term, bit-identical to Python's ``abs``; inf beyond the float range."""
        return _modulus(self.coeff)

    @property
    def terms_commute(self) -> bool:
        """True iff the stored strings commute pairwise."""
        x_words, z_words = np.split(self.words.T.copy(), 2)
        return not any(_anticommuting(x_words, z_words, xa, za).size for xa, za in zip(self.x, self.z))

    def norm_upper(self) -> float:
        """Triangle-inequality upper bound sum_P |c_P| on the operator norm,
        summed exactly; inf where the sum is beyond the float range."""
        with suppress(OverflowError):  # raised for a partial sum beyond the float range
            return math.fsum(self.magnitudes.tolist())
        return math.inf

    def prune(self, threshold: float) -> tuple["KLocalOperator", float]:
        """Drop terms with ``|coeff| <= threshold``.

        Returns the pruned operator, ``self`` when nothing is dropped, and
        the summed magnitude of what was dropped, added up in row order;
        ``threshold=0.0`` is the identity transformation.
        """
        if not threshold >= 0:
            raise ValidationError(f"threshold must be nonnegative, got {threshold}")
        mags = self.magnitudes
        drop = mags <= threshold
        if not drop.any():
            return self, 0.0
        return self.select(np.flatnonzero(~drop)), float(np.cumsum(mags[drop])[-1])

    def is_hermitian(self) -> bool:
        """The ``HERMITIAN_TOL`` rule on the imaginary parts of the coefficients."""
        return hermitian_rule(self.coeff.imag, self.coeff, 1.0)

    def __add__(self, other: "KLocalOperator") -> "KLocalOperator":
        if not isinstance(other, KLocalOperator):
            return NotImplemented
        check_same_sites(self.n_sites, other.n_sites)
        rows = _merge(np.concatenate([self.words, other.words]), np.concatenate([self.coeff, other.coeff]))
        return KLocalOperator._from_rows(self.n_sites, *rows)

    def __sub__(self, other: "KLocalOperator") -> "KLocalOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "KLocalOperator":
        if isinstance(scalar, KLocalOperator):
            return NotImplemented
        return KLocalOperator._from_rows(self.n_sites, self.words, 0.0 + _cmul(complex(scalar), self.coeff))

    __rmul__ = __mul__

    def __neg__(self) -> "KLocalOperator":
        return (-1.0) * self

    def _sorted(self) -> tuple[np.ndarray, ...]:
        order = self.mask_order()
        return self.words[order], self.coeff[order]

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
    join one running sum (see the merge rule) as ids, in chunks of about
    ``b.n_terms``, in (P, Q) order, so the strings seen so far are never
    sorted again; a chunk's words are formed from its ids as it joins,
    and the result's once at the end.
    """
    check_same_sites(a.n_sites, b.n_sites)
    x_words, z_words = np.split(b.words.T.copy(), 2)  # word columns of b as rows
    # terms of a that share no site with b commute with all of it
    b_support = np.bitwise_or.reduce(b.x | b.z, axis=0)
    overlapping = np.flatnonzero(((a.x | a.z) & b_support).any(axis=1))
    left = a.words.take(overlapping, axis=0)
    ax, az = np.split(left, 2, axis=1)
    a_y = np.bitwise_count(ax & az).sum(axis=1, dtype=np.uint8)
    # 2 c_P times i^0..i^3, exact: the parts of each factor are 0 and +-1
    turn = (2.0 * a.coeff[overlapping])[:, None] * np.array([1, 1j, -1, -1j])
    n_b = b.n_terms

    def products(ids):
        # id k * n_b + j stands for P_k Q_j, whose words are left[k] ^ Q_j:
        # left[k] is zero where P_k does not act
        k = ids // n_b  # a scalar floor_divide is far faster than divmod
        rows = left.take(k, axis=0)
        rows ^= b.words.take(ids - k * n_b, axis=0)
        return rows

    total = _RunningSum(left.shape[1], products)
    chunk = max(n_b, 1024)
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    n_pending = 0
    for k, (xa, za) in enumerate(zip(ax, az)):
        hit = _anticommuting(x_words, z_words, xa, za)
        if not hit.size:
            continue
        # the phase changes only on the words where P acts; uint8 sums
        # may wrap, since only phi mod 4 matters and 4 divides 256
        phi = a_y[k]
        for w in np.flatnonzero(xa | za):
            x_b, z_b = x_words[w].take(hit), z_words[w].take(hit)
            phi += 2 * np.bitwise_count(za[w] & x_b) + np.bitwise_count(x_b & z_b)
            phi -= np.bitwise_count((x_b ^ xa[w]) & (z_b ^ za[w]))
        phi &= 3
        parts.append((k * n_b + hit, _cmul(turn[k, phi], b.coeff.take(hit))))
        n_pending += hit.size
        if n_pending >= chunk:
            (ids, coeff), parts, n_pending = [np.concatenate(column) for column in zip(*parts)], [], 0
            total.add(ids, products(ids), coeff)
    if parts:
        (ids, coeff), parts = [np.concatenate(column) for column in zip(*parts)], []
        total.add(ids, products(ids), coeff)
    return KLocalOperator._from_rows(a.n_sites, total.words(), total.coeff)
