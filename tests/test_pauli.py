"""Symbolic Pauli algebra: string products, operators, commutators."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klocal import pauli
from klocal.errors import DimensionMismatchError, ValidationError
from klocal.models import build_model
from klocal.oracle import EigenSystem, to_dense
from klocal.pauli import (
    ZERO_TOL,
    KLocalOperator,
    PauliString,
    commutator,
)
from klocal.truncation import hadamard_truncate, nested_commutator_levels

from conftest import (
    exact_terms,
    letters_of,
    random_operator,
    random_pauli_string,
    reference_commutator,
    terms_of,
)


def strings(n_sites: int):
    return st.builds(
        lambda x, z: PauliString(n_sites, x, z),
        st.integers(0, 2**n_sites - 1),
        st.integers(0, 2**n_sites - 1),
    )


def operators(n_sites: int, max_terms: int = 4):
    coeff = st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=2.0, allow_nan=False, allow_infinity=False
    )
    return st.builds(
        lambda pairs: KLocalOperator(n_sites, dict(pairs)),
        st.lists(st.tuples(strings(n_sites), coeff), min_size=0, max_size=max_terms),
    )


def _clustered_operator(rng: np.random.Generator, n_sites: int, n_terms: int) -> KLocalOperator:
    """Random complex operator whose terms sit in 6-site windows, most of
    them centred on a 64-bit word boundary of the chain."""
    edges = [edge for edge in (64, 128) if edge < n_sites] or [n_sites // 2]
    acc: dict[PauliString, complex] = {}
    for _ in range(n_terms):
        centre = int(rng.choice(edges)) if rng.random() < 0.8 else int(rng.integers(n_sites))
        window = np.arange(max(0, centre - 3), min(n_sites, centre + 3))
        sites = rng.choice(window, size=int(rng.integers(1, 4)), replace=False)
        string = PauliString.from_letters(n_sites, {s: "XYZ"[int(rng.integers(3))] for s in sites})
        acc[string] = acc.get(string, 0j) + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return KLocalOperator(n_sites, acc)


def _with_parts(op: KLocalOperator, re, im) -> KLocalOperator:
    """``op``'s strings with the coefficient parts ``re`` and ``im`` taken as
    they are: the constructor would turn -0.0 parts into 0.0."""
    return KLocalOperator._from_rows(op.n_sites, op.x, op.z, np.asarray(re, float), np.asarray(im, float))


# ----------------------------------------------------------------- strings


class TestPauliString:
    def test_from_letters_roundtrip(self):
        s = PauliString.from_letters(5, {0: "X", 2: "Y", 4: "Z"})
        assert (s.x_mask, s.z_mask) == (0b00101, 0b10100)
        assert letters_of(s) == {0: "X", 2: "Y", 4: "Z"}
        assert repr(s) == "PauliString(X0 Y2 Z4, n=5)"

    def test_identity(self):
        ident = PauliString(4)
        assert ident == PauliString.from_letters(4, {}) == PauliString(4, 0, 0)
        assert repr(ident) == "PauliString(I, n=4)"

    def test_masks(self):
        s = PauliString.from_letters(3, {0: "X", 1: "Y", 2: "Z"})
        assert s.x_mask == 0b011
        assert s.z_mask == 0b110

    def test_from_letters_numpy_sites(self):
        # an np.int64 site must not overflow its mask to zero past bit 63
        s = PauliString.from_letters(128, {np.int64(70): "Z", np.int64(3): "X"})
        assert s == PauliString.from_letters(128, {70: "Z", 3: "X"})
        assert (s.x_mask, s.z_mask) == (1 << 3, 1 << 70)
        assert type(s.z_mask) is int

    def test_support_of_wide_masks(self):
        sites = (0, 63, 64, 127, 200, 255)
        s = PauliString.from_letters(256, {i: "Y" for i in sites})
        assert s.x_mask == s.z_mask == sum(1 << i for i in sites)
        assert repr(s) == "PauliString(Y0 Y63 Y64 Y127 Y200 Y255, n=256)"

    def test_validation(self):
        with pytest.raises(ValidationError):
            PauliString.from_letters(2, {5: "X"})
        with pytest.raises(ValidationError):
            PauliString.from_letters(2, {0: "W"})
        with pytest.raises(ValidationError):
            PauliString(2, x_mask=7, z_mask=0)

    def test_hashes_of_wide_masks_are_distinct(self):
        # Python reduces int hashes modulo 2**61 - 1; hashing the masks
        # alone gave these 32,896 strings only 1,952 distinct hashes
        op = build_model("long_range_ising", {"n_sites": 256, "alpha": 2, "field": 1})
        strings = [s for s, _ in terms_of(op)]
        assert len({hash(s) for s in strings}) == len(strings) == 32896
        twin = PauliString(256, strings[-1].x_mask, strings[-1].z_mask)
        assert twin == strings[-1] and hash(twin) == hash(strings[-1])
        assert PauliString(3, 1, 0) != PauliString(4, 1, 0)
        assert PauliString(70, 1 << 69, 0) != PauliString(70, 0, 1 << 69)

    @given(strings(4), strings(4))
    def test_commutes_with_matches_product(self, a, b):
        # the commutator of two strings vanishes exactly when their
        # matrices commute
        pa, pb = (to_dense(KLocalOperator(4, {s: 1.0})).matrix for s in (a, b))
        commuting = np.array_equal(pa @ pb, pb @ pa)
        assert commutator(KLocalOperator(4, {a: 1.0}), KLocalOperator(4, {b: 1.0})).is_zero == commuting

    def test_single_site_products(self):
        # [P, Q] = 2PQ for anticommuting P, Q: XY = iZ, YZ = iX, ZX = iY
        op = {c: KLocalOperator(1, {PauliString.from_letters(1, {0: c}): 1.0}) for c in "XYZ"}
        for p, q, r in ("XYZ", "YZX", "ZXY"):
            assert commutator(op[p], op[q]) == 2j * op[r]
            assert commutator(op[q], op[p]) == -2j * op[r]
        assert commutator(op["X"], op["X"]).is_zero

    @given(strings(5))
    def test_square_is_identity(self, s):
        # the phase i**|x & z| makes every string Hermitian and unitary
        matrix = to_dense(KLocalOperator(5, {s: 1.0})).matrix
        assert np.array_equal(matrix @ matrix, np.eye(32))


# --------------------------------------------------------------- operators


class TestKLocalOperator:
    def test_canonicalization_merges_duplicates(self):
        s = PauliString.from_letters(2, {0: "X"})
        op = KLocalOperator(2, {s: 1.0})
        other = KLocalOperator(2, {s: 2.0})
        total = op + other
        assert total.n_terms == 1
        assert total.coefficient(s) == pytest.approx(3.0)

    def test_zero_coefficients_dropped(self):
        s = PauliString.from_letters(2, {0: "X"})
        op = KLocalOperator(2, {s: 1.0}) + KLocalOperator(2, {s: -1.0})
        assert op.is_zero
        assert op.n_terms == 0

    def test_locality_and_support(self):
        op = KLocalOperator(
            4,
            {
                PauliString.from_letters(4, {0: "X"}): 1.0,
                PauliString.from_letters(4, {1: "Z", 3: "Z"}): 0.5,
            },
        )
        assert op.locality == 2
        assert set(op.letter_sites()[1].tolist()) == {0, 1, 3}

    def test_norm_upper(self):
        op = KLocalOperator(
            2,
            {
                PauliString.from_letters(2, {0: "X"}): 3.0,
                PauliString.from_letters(2, {1: "Z"}): -4.0j,
            },
        )
        assert op.norm_upper() == pytest.approx(7.0)

    def test_prune(self):
        op = KLocalOperator(
            2,
            {
                PauliString.from_letters(2, {0: "X"}): 1.0,
                PauliString.from_letters(2, {1: "Z"}): 1e-9,
            },
        )
        kept, dropped = op.prune(1e-6)
        assert kept.n_terms == 1
        assert dropped == pytest.approx(1e-9)
        for bad in (-1e-9, math.nan):
            with pytest.raises(ValidationError, match="threshold must be nonnegative"):
                op.prune(bad)

    def test_prune_adds_dropped_magnitudes_in_row_order(self, rng):
        op = random_operator(rng, 90, 3000, max_weight=4, complex_coeffs=True)
        op = op * 1e-3 + random_operator(rng, 90, 50, max_weight=2)
        kept, dropped = op.prune(2e-3)
        expected = 0.0
        for _, c in terms_of(op):
            if abs(c) <= 2e-3:
                expected += abs(c)
        assert dropped.hex() == expected.hex()
        assert kept.n_terms + sum(abs(c) <= 2e-3 for _, c in terms_of(op)) == op.n_terms

    def test_hermiticity(self):
        s = PauliString.from_letters(1, {0: "Y"})
        assert KLocalOperator(1, {s: 2.0}).is_hermitian()
        assert not KLocalOperator(1, {s: 2.0j}).is_hermitian()

    @pytest.mark.parametrize(
        "action",
        [
            lambda h3, g2: h3 + g2,
            lambda h3, g2: commutator(h3, g2),
            lambda h3, g2: h3.coefficient(PauliString.from_letters(2, {0: "X"})),
            lambda h3, g2: KLocalOperator(3, {PauliString.from_letters(2, {0: "X"}): 1.0}),
            lambda h3, g2: EigenSystem(h3).evolve_operator(g2, 0.1),
            lambda h3, g2: hadamard_truncate(h3, g2, 0.001, 3),
        ],
        ids=["add", "commutator", "coefficient", "mapping", "evolve_operator", "hadamard_truncate"],
    )
    def test_dimension_mismatch(self, action):
        # every site-count mismatch raises the one error of klocal.errors.check_same_sites
        h3 = KLocalOperator(3, {PauliString.from_letters(3, {0: "X", 1: "X"}): 1.0})
        g2 = KLocalOperator(2, {PauliString.from_letters(2, {0: "Z"}): 1.0})
        with pytest.raises(DimensionMismatchError, match="^operators on 3 and 2 sites$"):
            action(h3, g2)

    @given(operators(3), operators(3))
    @settings(max_examples=50)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a
        assert hash(a + b) == hash(b + a)

    def test_equality_ignores_storage_order(self):
        strings = [PauliString.from_letters(70, {i: "XYZ"[i % 3], 69 - i: "Z"}) for i in range(6)]
        forward = KLocalOperator(70, {s: 0.5 + i for i, s in enumerate(strings)})
        backward = KLocalOperator(70, {s: 0.5 + i for i, s in reversed(list(enumerate(strings)))})
        assert [s for s, _ in terms_of(forward)] != [s for s, _ in terms_of(backward)]
        assert forward == backward and hash(forward) == hash(backward)
        assert forward != 2.0 * backward

    def test_repr(self):
        strings = [PauliString.from_letters(70, {i: "XYZ"[i % 3], 69 - i: "Z"}) for i in range(6)]
        op = KLocalOperator(70, {s: 0.5 - 1j * i for i, s in enumerate([*strings, PauliString(70)])})
        assert repr(op) == (
            "KLocalOperator((0.5+0j)*X0Z69 + (0.5-1j)*Y1Z68 + (0.5-2j)*Z2Z67 + (0.5-3j)*X3Z66"
            " + (0.5-4j)*Y4Z65 + (0.5-5j)*Z5Z64 + ..., n=70)"
        )
        op = KLocalOperator(70, {PauliString(70): 2.0, strings[1]: -1j})
        assert repr(op) == "KLocalOperator((2+0j)*I + (0-1j)*Y1Z68, n=70)"
        assert repr(KLocalOperator(3)) == "KLocalOperator(0, n=3)"

    @pytest.mark.parametrize("complex_coeffs", [False, True])
    @pytest.mark.parametrize(
        "scalar", [2.5, -1.0, 1j, -1j, 0.3 - 0.7j, complex(-0.0, 2.0), -0.0, 1e-15]
    )
    def test_scalar_product_matches_python(self, rng, scalar, complex_coeffs):
        op = random_operator(rng, 70, 40, max_weight=3, complex_coeffs=complex_coeffs)
        expected = []
        for string, coeff in terms_of(op):
            c = 0j + complex(scalar) * coeff
            if not abs(c) <= ZERO_TOL:
                expected.append((string, c))
        assert exact_terms((scalar * op)) == exact_terms(expected)
        assert exact_terms((op * scalar)) == exact_terms(expected)

    def test_from_letter_sites_merges_like_a_dict(self, rng):
        # 16 distinct strings straddling words 0/1 and 1/2 of a 130-site chain
        n = 130
        x_masks = [int(rng.integers(4)) << 63 for _ in range(300)]
        z_masks = [int(rng.integers(4)) << 127 for _ in range(300)]
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(300)]
        acc: dict[PauliString, complex] = {}
        rows, sites, letters = [], [], ""
        for row, (x, z, c) in enumerate(zip(x_masks, z_masks, coeffs)):
            s = PauliString(n, x, z)
            acc[s] = acc.get(s, 0j) + c
            for site, letter in letters_of(s).items():
                rows.append(row)
                sites.append(site)
                letters += letter
        merged = KLocalOperator.from_letter_sites(
            n, np.array(rows), np.array(sites), letters.encode(), np.array(coeffs)
        )
        assert merged.n_terms == 16
        assert exact_terms(merged) == exact_terms(KLocalOperator(n, acc))

    @pytest.mark.parametrize("n", [5, 63, 64, 65, 130])
    def test_from_letter_sites_inverts_letter_sites(self, rng, n):
        op = random_operator(rng, n, 60, max_weight=4, complex_coeffs=True)
        rows, sites = op.letter_sites()
        letters = op.letters_at(rows, sites)
        assert list(zip(rows.tolist(), sites.tolist(), letters.decode())) == [
            (row, site, letter)
            for row, (string, _) in enumerate(terms_of(op))
            for site, letter in letters_of(string).items()
        ]
        rebuilt = KLocalOperator.from_letter_sites(n, rows, sites, letters, op.coeff)
        assert exact_terms(rebuilt) == exact_terms(op)

    def test_magnitudes_match_python_abs(self, rng):
        # NumPy's complex abs may differ from Python's in the last bit
        n = 2000
        coeffs = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n) + 1j * (
            rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        )
        op = KLocalOperator(
            11, {PauliString(11, m, 0): complex(c) for m, c in zip(range(1, n + 1), coeffs)}
        )
        expected = [abs(c) for _, c in terms_of(op)]
        assert [m.hex() for m in op.magnitudes.tolist()] == [m.hex() for m in expected]
        assert op.norm_upper() == math.fsum(expected)

    def test_wide_operator_properties(self):
        strings = [
            PauliString.from_letters(130, {63: "X", 64: "Y"}),
            PauliString.from_letters(130, {0: "Z", 127: "Z", 128: "X", 129: "Y"}),
        ]
        op = KLocalOperator(130, {strings[0]: 1.5, strings[1]: -2.0j})
        assert op.x.shape == op.z.shape == (2, 3)
        assert op.x.dtype == np.uint64 and op.coeff.dtype == np.complex128
        assert op.locality == 4
        assert op.coefficient(strings[1]) == -2.0j
        assert op.coefficient(PauliString.from_letters(130, {64: "Y"})) == 0j
        assert [s for s, _ in terms_of(op)] == strings
        rows, sites = op.letter_sites()
        assert list(zip(rows.tolist(), sites.tolist())) == [
            (row, site) for row, s in enumerate(strings) for site in letters_of(s)
        ]
        with pytest.raises(ValueError):
            op.coeff[0] = 0.0

    @pytest.mark.parametrize("n", [3, 65])
    def test_terms_commute_matches_pairwise_check(self, rng, n):
        for trial in range(20):
            op = random_operator(rng, n, 6, max_weight=3)
            if trial % 2:
                diagonal = {PauliString(n, 0, s.x_mask | s.z_mask): c for s, c in terms_of(op)}
                op = KLocalOperator(n, diagonal)
            strings = [s for s, _ in terms_of(op)]
            pairwise = all(
                ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 0
                for a in strings
                for b in strings
            )
            assert op.terms_commute == pairwise

    @pytest.mark.parametrize("n", [5, 64, 65, 130])
    def test_mask_order_sorts_by_masks(self, rng, n):
        op = random_operator(rng, n, 60, max_weight=3)
        # strings that only a lower word, or only the z words, tell apart
        for letters in ({0: "X"}, {n - 1: "X"}, {0: "X", n - 1: "Z"}, {n // 2: "Y"}, {0: "Z"}):
            op = op + KLocalOperator(n, {PauliString.from_letters(n, letters): 0.5})
        strings = [s for s, _ in terms_of(op)]
        expected = sorted(range(op.n_terms), key=lambda i: (strings[i].x_mask, strings[i].z_mask))
        assert op.mask_order().tolist() == expected

    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_select_rescales_like_python(self, rng, complex_coeffs):
        op = random_operator(rng, 130, 40, max_weight=3, complex_coeffs=complex_coeffs)
        terms = terms_of(op)
        rows = rng.permutation(op.n_terms)[:25]
        scale = rng.uniform(-2.0, 2.0, len(rows))
        picked = [terms[r] for r in rows.tolist()]
        rescaled = [(string, c * s) for (string, c), s in zip(picked, scale.tolist())]
        assert exact_terms(op.select(rows)) == exact_terms(picked)
        assert exact_terms(op.select(rows, scale)) == exact_terms(rescaled)
        mask = np.isin(np.arange(op.n_terms), rows)
        assert exact_terms(op.select(mask)) == exact_terms([terms[r] for r in sorted(rows)])


# ------------------------------------------------------------- commutators


class TestCommutator:
    def test_frozen_single_site(self):
        x = KLocalOperator(1, {PauliString.from_letters(1, {0: "X"}): 1.0})
        z = KLocalOperator(1, {PauliString.from_letters(1, {0: "Z"}): 1.0})
        y = PauliString.from_letters(1, {0: "Y"})
        c = commutator(x, z)
        assert c.n_terms == 1
        assert c.coefficient(y) == pytest.approx(-2.0j)

    def test_frozen_double_nesting(self):
        # [X, [X, Z]] = 4 Z
        x = KLocalOperator(1, {PauliString.from_letters(1, {0: "X"}): 1.0})
        z = KLocalOperator(1, {PauliString.from_letters(1, {0: "Z"}): 1.0})
        zz = commutator(x, commutator(x, z))
        assert zz.coefficient(PauliString.from_letters(1, {0: "Z"})) == pytest.approx(4.0)

    @given(operators(3), operators(3))
    @settings(max_examples=60)
    def test_antisymmetry(self, a, b):
        # the two sides merge their pair products in different orders, so a
        # coefficient can differ in its last bit
        assert (commutator(a, b) + commutator(b, a)).norm_upper() == pytest.approx(0.0, abs=1e-9)

    @given(operators(3, max_terms=3), operators(3, max_terms=3), operators(3, max_terms=3))
    @settings(max_examples=40, deadline=None)
    def test_jacobi_identity(self, a, b, c):
        lhs = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert lhs.norm_upper() == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_supports_commute(self, rng):
        for _ in range(25):
            a = random_operator(rng, 6, 3, max_weight=2)
            s = random_pauli_string(rng, 6, 3)
            free = sorted(set(range(6)) - set(a.letter_sites()[1].tolist()))
            if not free:
                continue
            letters = {free[0]: "Y"}
            b = KLocalOperator(6, {PauliString.from_letters(6, letters): 1.3})
            assert commutator(a, b).is_zero

    @given(operators(3), operators(3))
    @settings(max_examples=40)
    def test_locality_additive(self, a, b):
        c = commutator(a, b)
        if not (a.is_zero or b.is_zero or c.is_zero):
            assert c.locality <= a.locality + b.locality

    @pytest.mark.parametrize("n", [5, 63, 64, 65, 128, 256])
    def test_matches_reference_pair_loop(self, n):
        # terms cluster on the word boundaries 63/64 and 127/128 when the
        # chain has them; (120, 400) yields more products than one merge chunk
        rng = np.random.default_rng(n)
        for n_left, n_right in [(1, 1), (3, 4), (40, 60), (120, 400)]:
            a = _clustered_operator(rng, n, n_left)
            b = _clustered_operator(rng, n, n_right)
            got = commutator(a, b)
            assert exact_terms(got) == exact_terms(reference_commutator(a, b))

    @pytest.mark.parametrize("right", ["real", "imaginary"])
    @pytest.mark.parametrize("n", [5, 64, 128])
    def test_real_and_imaginary_operands_match_reference(self, n, right):
        # the form of every nested level: a real H and L_m = i^m times a real
        # operator, so one part of every product is a zero
        rng = np.random.default_rng(n)
        for n_left, n_right in [(3, 4), (40, 60), (120, 400)]:
            a = _clustered_operator(rng, n, n_left)
            a = _with_parts(a, a.coeff.real, np.zeros(a.n_terms))
            b = _clustered_operator(rng, n, n_right)
            zeros = np.zeros(b.n_terms)
            b = _with_parts(b, b.coeff.real, zeros) if right == "real" else _with_parts(b, zeros, b.coeff.imag)
            assert exact_terms(commutator(a, b)) == exact_terms(reference_commutator(a, b))

    def test_negative_zero_parts_match_reference(self):
        rng = np.random.default_rng(11)
        operands = []
        for n_terms in (40, 120):
            op = _clustered_operator(rng, 70, n_terms)
            # per row: both parts kept, the real part -0.0 or the imaginary part -0.0
            kind = rng.integers(3, size=op.n_terms)
            re = np.where(kind == 1, -0.0, op.coeff.real)
            im = np.where(kind == 2, -0.0, op.coeff.imag)
            operands.append(_with_parts(op, re, im))
        a, b = operands
        assert np.signbit(a.coeff.real[a.coeff.real == 0]).all()
        assert np.signbit(b.coeff.imag[b.coeff.imag == 0]).all()
        for left, right in [(a, b), (b, a), (a, a)]:
            assert exact_terms(commutator(left, right)) == exact_terms(reference_commutator(left, right))

    @pytest.mark.parametrize("n", [130, 256])
    def test_left_terms_on_two_words_match_reference(self, n):
        # every letter pair on the word boundaries 63/64 and 127/128, and
        # Y strings across them, against right terms clustered on the same
        rng = np.random.default_rng(n)
        acc = {}
        for edge in (64, 128):
            for letters in itertools.product("XYZ", repeat=2):
                string = PauliString.from_letters(n, dict(zip((edge - 1, edge), letters)))
                acc[string] = rng.uniform(-1, 1)
            acc[PauliString.from_letters(n, dict.fromkeys(range(edge - 2, edge + 2), "Y"))] = 0.5
        a = KLocalOperator(n, acc)
        b = _clustered_operator(rng, n, 300)
        for right in (b, _with_parts(b, np.zeros(b.n_terms), b.coeff.imag)):
            got = commutator(a, right)
            assert not got.is_zero
            assert exact_terms(got) == exact_terms(reference_commutator(a, right))

    def test_mixed_field_ising_levels_match_reference(self):
        n = 128
        ising = build_model(
            "long_range_ising", {"n_sites": n, "alpha": math.inf, "coupling": 1.0, "field": 1.05}
        )
        h = ising + (-0.5) * build_model("product_field", {"n_sites": n, "axis": "z"})
        gamma = KLocalOperator(n, {PauliString.from_letters(n, {64: "Z"}): 1.0})
        sizes = []
        previous = gamma
        for m, level, _ in nested_commutator_levels(h, gamma, 12):
            if m:
                exact = commutator(h, previous)
                assert exact_terms(exact) == exact_terms(reference_commutator(h, previous))
                sizes.append(level.n_terms)
            previous = level
        assert sizes == [1, 4, 6, 16, 25, 54, 91, 177, 285, 515, 845, 1478]

    def test_zero_operands(self, rng):
        a = random_operator(rng, 70, 5, complex_coeffs=True)
        zero = KLocalOperator(70)
        assert commutator(a, zero).is_zero and commutator(zero, a).is_zero
        assert a + zero == a and (a - a).is_zero and zero.norm_upper() == 0.0

    def test_commutator_is_antihermitian_weighted(self):
        # [A, B] for Hermitian A, B is anti-Hermitian: i[A,B] Hermitian.
        a = KLocalOperator(
            2,
            {
                PauliString.from_letters(2, {0: "X", 1: "Z"}): 0.7,
                PauliString.from_letters(2, {1: "Y"}): -0.4,
            },
        )
        b = KLocalOperator(2, {PauliString.from_letters(2, {0: "Z"}): 1.1})
        c = commutator(a, b)
        assert (c * 1j).is_hermitian()


# ------------------------------------------------------------ keyed merge

_KEYS = pauli._keys
_ARGSORT = np.argsort

# mixers that make distinct strings share keys under the first salts
MIXERS = {
    "real mixer": _KEYS,
    "one key at salt 0": lambda w, salt: np.zeros(len(w), np.uint64) if salt == 0 else _KEYS(w, salt),
    "one key at salts 0-2": lambda w, salt: np.zeros(len(w), np.uint64) if salt < 3 else _KEYS(w, salt),
    "first word at salt 0": lambda w, salt: w[:, 0].copy() if salt == 0 else _KEYS(w, salt),
}

# grouping sorts that order equal keys differently
ARGSORTS = {
    "stable": lambda a, *args, **kwargs: _ARGSORT(a, kind="stable"),
    "reversed ties": lambda a, *args, **kwargs: len(a) - 1 - _ARGSORT(a[::-1], kind="stable"),
}


class _Salts(list):
    """The salts a patched mixer was called with."""

    def check(self) -> None:
        """Colliding mixers were recovered from; the real one never collides."""
        assert max(self) >= 1 if self.recovers else set(self) == {0}


@pytest.fixture(params=sorted(MIXERS))
def salts(request, monkeypatch):
    """Patch the row mixer and return the salts it was called with."""
    used = _Salts()

    def keys(words, salt):
        used.append(salt)
        return MIXERS[request.param](words, salt)

    monkeypatch.setattr(pauli, "_keys", keys)
    used.recovers = request.param != "real mixer"
    return used


def _dict_sum(n: int, rows) -> list[tuple[PauliString, complex]]:
    """Canonical terms of the (string, coeff) rows summed in a dict."""
    acc: dict[PauliString, complex] = {}
    for string, c in rows:
        acc[string] = acc.get(string, 0j) + c
    return [(s, c) for s, c in acc.items() if not abs(c) <= ZERO_TOL]


def _running_sum(n: int, batches) -> KLocalOperator:
    """The operator that one running sum makes of the batches of rows."""
    width = pauli._n_words(n)
    total = pauli._RunningSum(2 * width)
    for batch in batches:
        words = [pauli._pack([getattr(s, mask) for s, _ in batch], width) for mask in ("x_mask", "z_mask")]
        coeff = np.array([c for _, c in batch], dtype=complex)
        total.add(np.hstack(words), coeff.real, coeff.imag)
    return KLocalOperator._from_rows(n, *total.rows())


def _late_batches(n: int) -> list[list[tuple[PauliString, complex]]]:
    """Five batches: S first occurs in the third and recurs in the next two
    with order-sensitive magnitudes; A cancels to exactly 0.0 in the second
    batch and comes back in the fifth; B cancels for good; C and D carry
    -0.0 parts; E and F differ only in the last word."""
    s = PauliString.from_letters(n, {0: "X", n - 1: "Z"})
    a, b = PauliString.from_letters(n, {1: "Y"}), PauliString.from_letters(n, {2: "Z", 3: "Z"})
    c, d = PauliString.from_letters(n, {4: "X"}), PauliString.from_letters(n, {5: "Y"})
    e = PauliString.from_letters(n, {n - 2: "X"})
    f = PauliString.from_letters(n, {n - 2: "Z"})
    return [
        [(a, 0.5), (b, 0.25 - 1j), (c, complex(-0.0, 1.0))],
        [(e, 1.0), (a, -0.5), (b, -0.25 + 1j), (d, complex(2.0, -0.0))],
        [(s, 1e16), (f, 3j), (s, 1.0), (e, 1e-3)],
        [(s, -1e16), (c, complex(-0.0, -0.0)), (f, -3j)],
        [(s, 1.0), (a, 0.125), (s, complex(0.0, -0.0))],
    ]


class TestKeyedMerge:
    def test_keys_depend_on_salt_and_column(self):
        # a single top bit, or one word in different columns, still gives
        # distinct keys, and another salt gives another key to every row
        words = np.zeros((5, 4), dtype=np.uint64)
        words[0, 0] = words[1, 1] = words[2, 3] = np.uint64(1 << 63)
        words[3, 2] = words[4, 3] = 1
        for salt in range(4):
            assert len(set(_KEYS(words, salt).tolist())) == 5
        assert not (_KEYS(words, 0) == _KEYS(words, 1)).any()
        for rows in (words[:1], words[:, :1], words):  # the input is left as it was
            before = rows.copy()
            _KEYS(rows, 2)
            assert np.array_equal(rows, before)

    @pytest.mark.parametrize("n", [8, 64, 130])
    def test_running_sum_matches_dict(self, salts, n):
        batches = _late_batches(n)
        got = _running_sum(n, batches)
        expected = _dict_sum(n, [row for batch in batches for row in batch])
        assert exact_terms(got) == exact_terms(expected)
        # A kept its first place while it summed to 0.0, B and F were
        # dropped at the end, and the -0.0 parts of C and D summed to 0.0
        assert [letters_of(s) for s, _ in terms_of(got)] == [{1: "Y"}, {4: "X"}, {n - 2: "X"}, {5: "Y"}, {0: "X", n - 1: "Z"}]
        assert (got.coeff[1].real.hex(), got.coeff[3].imag.hex()) == ("0x0.0p+0", "0x0.0p+0")
        # S summed in row order: (1e16 + 1) - 1e16 + 1, not 2
        assert got.coeff[4] == 1.0
        salts.check()

    @pytest.mark.parametrize("n", [5, 64, 130])
    def test_commutator_with_collisions(self, salts, n):
        rng = np.random.default_rng(n)
        for n_left, n_right in [(3, 4), (40, 60), (120, 400)]:
            a = _clustered_operator(rng, n, n_left)
            b = _clustered_operator(rng, n, n_right)
            assert exact_terms(commutator(a, b)) == exact_terms(reference_commutator(a, b))
        salts.check()

    def test_sum_and_letter_sites_with_collisions(self, salts, rng):
        n = 130
        a = random_operator(rng, n, 200, max_weight=2, complex_coeffs=True)
        b = random_operator(rng, n, 200, max_weight=2, complex_coeffs=True) + (-1.0) * a.select(
            np.arange(0, a.n_terms, 3)
        )
        expected = _dict_sum(n, terms_of(a) + terms_of(b))
        assert exact_terms((a + b)) == exact_terms(expected)
        rows, sites = b.letter_sites()
        doubled = np.concatenate([rows, rows + b.n_terms])
        rebuilt = KLocalOperator.from_letter_sites(
            n, doubled, np.tile(sites, 2), b.letters_at(rows, sites) * 2, np.tile(b.coeff, 2)
        )
        expected = _dict_sum(n, 2 * terms_of(b))
        assert exact_terms(rebuilt) == exact_terms(expected)

    def test_commutator_chunks(self, salts, monkeypatch, rng):
        # every a term anticommutes with all 1024 b terms, so each a term
        # fills one chunk; the products of the last three a terms are the
        # same 1024 strings, which first occur in the third chunk
        n = 12
        sizes: list[int] = []
        add = pauli._RunningSum.add
        monkeypatch.setattr(
            pauli._RunningSum, "add", lambda self, w, re, im: sizes.append(len(w)) or add(self, w, re, im)
        )

        def coeff():
            scale = 10.0 ** rng.integers(-8, 9, 2)
            return complex(*(scale * rng.uniform(-1, 1, 2)))

        b = KLocalOperator(n, {
            PauliString.from_letters(n, {0: "X", **{s: "Z" for s in range(1, 11) if m >> s & 1}}): coeff()
            for m in range(0, 2048, 2)
        })
        a = KLocalOperator(n, {
            PauliString.from_letters(n, letters): coeff()
            for letters in ({0: "Z", 11: "X"}, {0: "Z", 1: "Z", 11: "Y"}, {0: "Z"}, {0: "Z", 1: "Z"}, {0: "Z", 7: "Z"})
        })
        got = commutator(a, b)
        assert sizes == [1024] * 5
        assert exact_terms(got) == exact_terms(reference_commutator(a, b))
        assert got.n_terms == 3 * 1024

    @pytest.mark.parametrize("kind", sorted(ARGSORTS))
    def test_independent_of_tie_order(self, monkeypatch, rng, kind):
        n = 128
        ising = build_model(
            "long_range_ising", {"n_sites": n, "alpha": math.inf, "coupling": 1.0, "field": 1.05}
        )
        h = ising + (-0.5) * build_model("product_field", {"n_sites": n, "axis": "z"})
        gamma = KLocalOperator(n, {PauliString.from_letters(n, {84: "Z"}): 1.0})
        x = random_operator(rng, n, 300, max_weight=2, complex_coeffs=True)

        def run():
            levels = [exact_terms(level) for _, level, _ in nested_commutator_levels(h, gamma, 10)]
            batches = _late_batches(n)
            return levels, exact_terms((x + h)), exact_terms(_running_sum(n, batches))

        default = run()
        monkeypatch.setattr(np, "argsort", ARGSORTS[kind])
        assert run() == default
