"""Symbolic Pauli algebra: string products, operators, commutators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klocal.errors import DimensionMismatchError, ValidationError
from klocal.pauli import (
    KLocalOperator,
    PauliString,
    Term,
    commutator,
    mul_strings,
)

from conftest import random_operator, random_pauli_string


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


# ----------------------------------------------------------------- strings


class TestPauliString:
    def test_from_letters_roundtrip(self):
        s = PauliString.from_letters(5, {0: "X", 2: "Y", 4: "Z"})
        assert s.letters == {0: "X", 2: "Y", 4: "Z"}
        assert s.weight == 3
        assert s.support == (0, 2, 4)
        assert s.label() == "XIYIZ"

    def test_from_label(self):
        assert PauliString.from_label("XIYIZ") == PauliString.from_letters(
            5, {0: "X", 2: "Y", 4: "Z"}
        )
        assert PauliString.from_label("III") == PauliString.identity(3)

    def test_identity(self):
        ident = PauliString.identity(4)
        assert ident.weight == 0
        assert ident.support == ()
        assert ident.label() == "IIII"

    def test_masks(self):
        s = PauliString.from_letters(3, {0: "X", 1: "Y", 2: "Z"})
        assert s.x_mask == 0b011
        assert s.z_mask == 0b110

    def test_from_letters_numpy_sites(self):
        # an np.int64 site must not overflow its mask to zero past bit 63
        s = PauliString.from_letters(128, {np.int64(70): "Z", np.int64(3): "X"})
        assert s == PauliString.from_letters(128, {70: "Z", 3: "X"})
        assert s.support == (3, 70)
        assert type(s.z_mask) is int

    def test_support_of_wide_masks(self):
        sites = (0, 63, 64, 127, 200, 255)
        s = PauliString.from_letters(256, {i: "Y" for i in sites})
        assert s.support == sites
        assert s.letters == {i: "Y" for i in sites}

    def test_validation(self):
        with pytest.raises(ValidationError):
            PauliString.from_letters(2, {5: "X"})
        with pytest.raises(ValidationError):
            PauliString.from_letters(2, {0: "W"})
        with pytest.raises(ValidationError):
            PauliString(2, x_mask=7, z_mask=0)

    @given(strings(4), strings(4))
    def test_commutes_with_matches_product(self, a, b):
        p1, ab = mul_strings(a, b)
        p2, ba = mul_strings(b, a)
        assert ab == ba
        assert a.commutes_with(b) == (p1 == p2)

    def test_single_site_products(self):
        n = 1
        x = PauliString.from_letters(n, {0: "X"})
        y = PauliString.from_letters(n, {0: "Y"})
        z = PauliString.from_letters(n, {0: "Z"})
        assert mul_strings(x, y) == (1j, z)
        assert mul_strings(y, x) == (-1j, z)
        assert mul_strings(y, z) == (1j, x)
        assert mul_strings(z, x) == (1j, y)
        assert mul_strings(x, x) == (1, PauliString.identity(n))

    @given(strings(5))
    def test_square_is_identity(self, s):
        assert mul_strings(s, s) == (1, PauliString.identity(5))

    @given(strings(4), strings(4), strings(4))
    def test_product_associative(self, a, b, c):
        p1, ab = mul_strings(a, b)
        p2, ab_c = mul_strings(ab, c)
        p3, bc = mul_strings(b, c)
        p4, a_bc = mul_strings(a, bc)
        assert ab_c == a_bc
        assert p1 * p2 == pytest.approx(p3 * p4)


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
        assert op.support_mask == 0b1011

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

    def test_hermiticity(self):
        s = PauliString.from_letters(1, {0: "Y"})
        assert KLocalOperator(1, {s: 2.0}).is_hermitian()
        assert not KLocalOperator(1, {s: 2.0j}).is_hermitian()

    def test_dimension_mismatch(self):
        a = KLocalOperator.zero(2)
        b = KLocalOperator.zero(3)
        with pytest.raises(DimensionMismatchError):
            _ = a + b

    @given(operators(3), operators(3))
    @settings(max_examples=50)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    def test_term_norm(self):
        t = Term(PauliString.from_letters(2, {0: "X"}), 3.0 - 4.0j)
        assert t.norm == pytest.approx(5.0)
        assert t.weight == 1


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
        assert commutator(a, b) == -commutator(b, a)

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
            free = [i for i in range(6) if not (a.support_mask >> i) & 1]
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
