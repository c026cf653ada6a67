"""Hamiltonian spec loading, model families, structural constants."""

from __future__ import annotations

import json
import math
from types import MappingProxyType

import numpy as np
import pytest
from conftest import random_operator, reference_load_spec, reference_spec_entries, same_arrays, terms_of

from klocal import models
from klocal.errors import ValidationError
from klocal.models import (
    MODEL_FAMILIES,
    N_MAX_SITES,
    StructuralConstants,
    build_model,
    load_spec,
    spec_from_operator,
    structural_constants,
)
from klocal.pauli import KLocalOperator, PauliString

# entries that break the spec rules, each as terms[5] of a spec on 8 sites;
# the later entries break two rules at once, and the first one is named
GOOD = {"sites": [0, 2], "paulis": "XZ", "coeff": [0.5, 0.0]}
BAD_ENTRIES = {
    "not an object": [0, 2],
    "unknown field": {**GOOD, "note": 1},
    "missing field": {"sites": [0], "paulis": "X"},
    "sites not an array": {**GOOD, "sites": "02"},
    "bool site": {**GOOD, "sites": [0, True]},
    "float site": {**GOOD, "sites": [0, 2.0]},
    "empty": {"sites": [], "paulis": "", "coeff": [1.0, 0.0]},
    "duplicate site": {**GOOD, "sites": [2, 2]},
    "negative site": {**GOOD, "sites": [-1, 2]},
    "site past the end": {**GOOD, "sites": [0, 8]},
    "site beyond int64": {**GOOD, "sites": [0, 2**70]},
    "short paulis": {**GOOD, "paulis": "X"},
    "paulis not a string": {**GOOD, "paulis": ["X", "Z"]},
    "bad letter": {**GOOD, "paulis": "XQ"},
    "lower-case letter": {**GOOD, "paulis": "xZ"},
    "non-ASCII letter": {**GOOD, "paulis": "X\u00e9"},
    "one number": {**GOOD, "coeff": [1.0]},
    "three numbers": {**GOOD, "coeff": [1.0, 0.0, 0.0]},
    "coeff not an array": {**GOOD, "coeff": "1"},
    "bool coeff": {**GOOD, "coeff": [True, 0.0]},
    "string coeff": {**GOOD, "coeff": [1.0, "0"]},
    "NaN": {**GOOD, "coeff": [math.nan, 0.0]},
    "infinity": {**GOOD, "coeff": [0.0, -math.inf]},
    "integer beyond float": {**GOOD, "coeff": [10**400, 0]},
    "duplicate and bad letter": {"sites": [1, 1], "paulis": "QQ", "coeff": [1.0, 0.0]},
    "out of range and short paulis": {"sites": [9, 1], "paulis": "X", "coeff": [1.0, 0.0]},
    "bad letter and NaN": {"sites": [3], "paulis": "Q", "coeff": [math.nan, 0.0]},
    "empty and bad coeff": {"sites": [], "paulis": "", "coeff": [1.0]},
}


def random_spec(rng: np.random.Generator, n_sites: int, n_terms: int, exotic: bool) -> dict:
    """A valid spec with sites in random order, int and float coefficients
    and repeated strings (some cancelling); with ``exotic``, also tuple
    sites and coefficients and read-only mapping entries."""
    entries = []
    for _ in range(n_terms):
        if entries and rng.random() < 0.2:
            prev = entries[int(rng.integers(len(entries)))]
            order = rng.permutation(len(prev["sites"]))
            sites = [prev["sites"][i] for i in order]
            paulis = "".join(prev["paulis"][i] for i in order)
            coeff = [-v for v in prev["coeff"]] if rng.random() < 0.3 else list(prev["coeff"])
        else:
            weight = int(rng.integers(1, min(4, n_sites) + 1))
            sites = [int(s) for s in rng.choice(n_sites, weight, replace=False)]
            paulis = "".join(rng.choice(list("XYZ"), weight))
            coeff = [
                [float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))],
                [int(rng.integers(-3, 4)), 0],
                [2**60 + int(rng.integers(1000)), -0.0],
                [float(rng.uniform(-1, 1)) * 1e-15, 0.0],
            ][int(rng.integers(4))]
        entry = {"sites": sites, "paulis": paulis, "coeff": coeff}
        if exotic and rng.random() < 0.5:
            entry = {**entry, "sites": tuple(sites), "coeff": tuple(coeff)}
        if exotic and rng.random() < 0.5:
            entry = MappingProxyType(entry)
        entries.append(entry)
    return {"n_sites": n_sites, "terms": entries}


def load_error(doc) -> tuple[str, str]:
    """The messages of the bulk and of the reference loader."""
    messages = []
    for loader in (load_spec, reference_load_spec):
        with pytest.raises(ValidationError) as info:
            loader(doc)
        messages.append(str(info.value))
    return messages[0], messages[1]


def dict_long_range_ising(n_sites: int, alpha: float, coupling: float, field: float):
    acc = {}
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            c = coupling / float(j - i) ** alpha
            if c != 0.0:
                acc[PauliString.from_letters(n_sites, {i: "Z", j: "Z"})] = complex(c)
    if field != 0.0:
        for i in range(n_sites):
            acc[PauliString.from_letters(n_sites, {i: "X"})] = complex(field)
    return KLocalOperator(n_sites, acc)


class TestLoadSpec:
    def test_roundtrip(self, tfi_chain):
        doc = spec_from_operator(tfi_chain)
        assert load_spec(json.dumps(doc)) == tfi_chain
        assert load_spec(doc) == tfi_chain

    def test_rejects_unknown_fields(self):
        doc = {"n_sites": 1, "terms": [], "note": "hi"}
        with pytest.raises(ValidationError, match="unknown"):
            load_spec(doc)

    def test_rejects_bad_letter(self):
        doc = {"n_sites": 1, "terms": [{"sites": [0], "paulis": "Q", "coeff": [1.0, 0.0]}]}
        with pytest.raises(ValidationError, match=r"terms\[0\]"):
            load_spec(doc)

    def test_rejects_duplicate_site(self):
        doc = {"n_sites": 2, "terms": [{"sites": [0, 0], "paulis": "XZ", "coeff": [1.0, 0.0]}]}
        with pytest.raises(ValidationError, match=r"terms\[0\]"):
            load_spec(doc)

    def test_rejects_site_out_of_range(self):
        doc = {"n_sites": 2, "terms": [{"sites": [2], "paulis": "X", "coeff": [1.0, 0.0]}]}
        with pytest.raises(ValidationError):
            load_spec(doc)

    def test_rejects_length_mismatch(self):
        doc = {"n_sites": 3, "terms": [{"sites": [0, 1], "paulis": "X", "coeff": [1.0, 0.0]}]}
        with pytest.raises(ValidationError):
            load_spec(doc)

    def test_rejects_identity_term(self):
        doc = {"n_sites": 2, "terms": [{"sites": [], "paulis": "", "coeff": [1.0, 0.0]}]}
        with pytest.raises(ValidationError):
            load_spec(doc)

    def test_rejects_bad_coeff(self):
        doc = {"n_sites": 1, "terms": [{"sites": [0], "paulis": "X", "coeff": [1.0]}]}
        with pytest.raises(ValidationError):
            load_spec(doc)

    @pytest.mark.parametrize("n_sites", [2**40, 2**70])
    def test_rejects_n_sites_above_cap_before_allocating(self, monkeypatch, n_sites):
        def allocate(*args):
            raise AssertionError("the n_sites cap is checked after arrays are built")

        monkeypatch.setattr(models, "_flatten", allocate)
        monkeypatch.setattr(KLocalOperator, "from_letter_sites", allocate)
        doc = {"n_sites": n_sites, "terms": [{"sites": [0], "paulis": "X", "coeff": [1, 0]}]}
        with pytest.raises(ValidationError, match="n_sites"):
            load_spec(doc)

    def test_loads_at_n_sites_cap(self):
        last = N_MAX_SITES - 1
        doc = {"n_sites": N_MAX_SITES, "terms": [{"sites": [last], "paulis": "X", "coeff": [1, 0]}]}
        op = load_spec(doc)
        assert op.n_sites == N_MAX_SITES == 2**16
        assert op.coefficient(PauliString.from_letters(N_MAX_SITES, {last: "X"})) == 1.0
        with pytest.raises(ValidationError, match="n_sites"):
            load_spec({**doc, "n_sites": N_MAX_SITES + 1})

    def test_merges_duplicate_terms(self):
        doc = {
            "n_sites": 1,
            "terms": [
                {"sites": [0], "paulis": "X", "coeff": [1.0, 0.0]},
                {"sites": [0], "paulis": "X", "coeff": [0.5, 0.0]},
            ],
        }
        op = load_spec(doc)
        assert op.n_terms == 1
        assert op.coefficient(PauliString.from_letters(1, {0: "X"})) == pytest.approx(1.5)


class TestBulkLoader:
    @pytest.mark.parametrize("n", [5, 63, 64, 65, 130, 256])
    def test_matches_reference_loader(self, n):
        rng = np.random.default_rng(n)
        plain = random_spec(rng, n, 3 * n, exotic=False)
        exotic = random_spec(rng, n, 3 * n, exotic=True)
        for doc in (plain, json.dumps(plain), exotic):
            op = load_spec(doc)
            assert same_arrays(op, reference_load_spec(doc))
        assert 0 < op.n_terms < 3 * n

    @pytest.mark.parametrize("rule", sorted(BAD_ENTRIES))
    def test_first_bad_entry_message(self, rule):
        entries = [{**GOOD, "sites": [i % 8, (i + 3) % 8]} for i in range(12)]
        entries[5] = BAD_ENTRIES[rule]
        doc = {"n_sites": 8, "terms": entries}
        bulk, reference = load_error(doc)
        assert bulk == reference
        assert bulk.startswith("terms[5]: ")
        rules = sorted(BAD_ENTRIES)
        entries[9] = BAD_ENTRIES[rules[(rules.index(rule) + 1) % len(rules)]]
        assert load_error(doc) == (bulk, reference)


class TestSpecWriter:
    @pytest.mark.parametrize(
        "family, params",
        [
            ("long_range_ising", {"n_sites": 256, "alpha": math.inf, "field": 1.05}),
            ("long_range_ising", {"n_sites": 256, "alpha": 2, "field": 1}),
            ("long_range_ising", {"n_sites": 7, "alpha": 1.5, "coupling": -0.7}),
            ("random_klocal", {"n_sites": 130, "k": 3, "n_terms": 60, "seed": 4}),
            ("product_field", {"n_sites": 65, "axis": "y"}),
            ("diagonal_commuting", {"n_sites": 70, "k": 3, "seed": 2}),
        ],
    )
    def test_matches_per_term_writer(self, family, params):
        op = build_model(family, params)
        entries = reference_spec_entries(op.select(op.mask_order()))
        expected = json.dumps({"n_sites": op.n_sites, "terms": entries})
        assert json.dumps(spec_from_operator(op)) == expected

    def test_complex_coefficients(self, rng):
        op = random_operator(rng, 130, 50, max_weight=4, complex_coeffs=True)
        assert spec_from_operator(op)["terms"] == reference_spec_entries(
            op.select(op.mask_order())
        )
        assert same_arrays(load_spec(spec_from_operator(op)), op.select(op.mask_order()))

    def test_rejects_identity_term(self):
        op = KLocalOperator(2, {PauliString(2): 1.0, PauliString.from_letters(2, {0: "X"}): 1.0})
        with pytest.raises(ValidationError, match="identity"):
            spec_from_operator(op)


class TestStructuralConstants:
    def test_tfi_chain(self, tfi_chain):
        const = structural_constants(tfi_chain)
        assert const == StructuralConstants(k=2, g=3.0, n_terms=7, norm_upper=7.0)

    def test_single_term(self):
        op = KLocalOperator(3, {PauliString.from_letters(3, {0: "X", 2: "Y"}): -2.0})
        const = structural_constants(op)
        assert const.k == 2
        assert const.g == pytest.approx(2.0)
        assert const.norm_upper == pytest.approx(2.0)

    def test_zero_operator(self):
        const = structural_constants(KLocalOperator(3))
        assert const.k == 0
        assert const.g == 0.0
        assert const.n_terms == 0

    def test_g_is_max_per_site_sum(self):
        op = KLocalOperator(
            3,
            {
                PauliString.from_letters(3, {0: "X", 1: "X"}): 1.0,
                PauliString.from_letters(3, {1: "Z", 2: "Z"}): 2.0,
                PauliString.from_letters(3, {2: "Y"}): 0.25,
            },
        )
        # site 1 touches |1.0| + |2.0| = 3.0, site 2 touches 2.25
        assert structural_constants(op).g == pytest.approx(3.0)


class TestModelFamilies:
    def test_families_registered(self):
        assert set(MODEL_FAMILIES) == {
            "long_range_ising",
            "random_klocal",
            "product_field",
            "diagonal_commuting",
        }

    def test_long_range_ising_decay(self):
        op = build_model(
            "long_range_ising",
            {"n_sites": 3, "alpha": 2.0, "coupling": 1.0, "field": 0.5},
        )
        zz02 = PauliString.from_letters(3, {0: "Z", 2: "Z"})
        assert op.coefficient(zz02) == pytest.approx(0.25)
        assert op.coefficient(PauliString.from_letters(3, {1: "X"})) == pytest.approx(0.5)

    def test_long_range_ising_nearest_neighbour_limit(self):
        op = build_model(
            "long_range_ising",
            {"n_sites": 4, "alpha": math.inf, "coupling": 1.0, "field": 1.0},
        )
        const = structural_constants(op)
        assert (const.k, const.g, const.n_terms) == (2, 3.0, 7)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 130])
    @pytest.mark.parametrize("alpha", [0.0, 1.5, 2.0, math.inf])
    def test_long_range_ising_matches_dict_builder(self, n, alpha):
        for coupling, field in ((1.0, 0.0), (-0.3, 1.05), (0.0, 0.5)):
            params = {"n_sites": n, "alpha": alpha, "coupling": coupling, "field": field}
            expected = dict_long_range_ising(n, alpha, coupling, field)
            assert same_arrays(build_model("long_range_ising", params), expected)

    @pytest.mark.parametrize("n", [1, 64, 65, 130])
    def test_product_field_matches_dict_builder(self, n):
        for axis, letter in (("x", "X"), ("Y", "Y"), ("z", "Z")):
            expected = KLocalOperator(
                n, {PauliString.from_letters(n, {i: letter}): complex(-1.0) for i in range(n)}
            )
            assert same_arrays(build_model("product_field", {"n_sites": n, "axis": axis}), expected)

    def test_random_klocal_hits_g_target(self, rng):
        for seed in (0, 1, 7):
            op = build_model(
                "random_klocal",
                {"n_sites": 8, "k": 3, "g_target": 1.25, "seed": seed},
            )
            const = structural_constants(op)
            assert const.k <= 3
            assert const.g == pytest.approx(1.25, rel=1e-12)

    def test_random_klocal_deterministic(self):
        params = {"n_sites": 6, "k": 2, "g_target": 1.0, "seed": 42}
        assert build_model("random_klocal", params) == build_model("random_klocal", params)

    def test_product_field(self):
        op = build_model("product_field", {"n_sites": 3, "axis": "z"})
        for i in range(3):
            assert op.coefficient(PauliString.from_letters(3, {i: "Z"})) == pytest.approx(-1.0)

    def test_diagonal_commuting_is_z_only(self):
        op = build_model("diagonal_commuting", {"n_sites": 6, "k": 3, "n_terms": 12, "seed": 5})
        # no X bits: every string is a product of Zs, so all commute
        for string, _ in terms_of(op):
            assert string.x_mask == 0 and 1 <= string.z_mask.bit_count() <= 3
        assert op.terms_commute

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            build_model("bogus", {})
