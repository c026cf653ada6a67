"""Hamiltonian spec loading, model families, structural constants."""

from __future__ import annotations

import gc
import json
import math
import random
import tracemalloc
import warnings
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

        monkeypatch.setattr(models._Terms, "arrays", allocate)
        monkeypatch.setattr(KLocalOperator, "from_letter_sites", allocate)
        doc = {"n_sites": n_sites, "terms": [{"sites": [0], "paulis": "X", "coeff": [1, 0]}]}
        for spec in (doc, json.dumps(doc)):
            with pytest.raises(ValidationError, match="n_sites"):
                load_spec(spec)

    def test_loads_at_n_sites_cap(self):
        last = N_MAX_SITES - 1
        doc = {"n_sites": N_MAX_SITES, "terms": [{"sites": [last], "paulis": "X", "coeff": [1, 0]}]}
        op = load_spec(doc)
        assert op.n_sites == N_MAX_SITES == 2**16
        assert op.coefficient(PauliString.from_letters(N_MAX_SITES, {last: "X"})) == 1.0
        with pytest.raises(ValidationError, match="n_sites"):
            load_spec({**doc, "n_sites": N_MAX_SITES + 1})

    @pytest.mark.parametrize("enabled", [True, False])
    def test_keeps_collector_setting(self, tfi_chain, enabled):
        # the spec is written with the collector paused
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            text = json.dumps(spec_from_operator(tfi_chain))
            assert gc.isenabled() is enabled
            assert load_spec(text) == tfi_chain
            assert gc.isenabled() is enabled
            with pytest.raises(ValidationError, match="not valid JSON"):
                load_spec(text[:-1])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

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


GOOD_TEXT = json.dumps(GOOD)
# spec texts the streamed parse cannot take, each with terms[1] bad, which
# must fail with the message of the plain parse and the entry walk
BAD_TEXTS = {
    "bool site": '{"sites": [0, true], "paulis": "XZ", "coeff": [0.5, 0.0]}',
    "float site": '{"sites": [0, 2.0], "paulis": "XZ", "coeff": [0.5, 0.0]}',
    "site beyond int64": f'{{"sites": [0, {2**70}], "paulis": "XZ", "coeff": [0.5, 0.0]}}',
    "bool coeff": '{"sites": [0, 2], "paulis": "XZ", "coeff": [false, 0.0]}',
    "string coeff": '{"sites": [0, 2], "paulis": "XZ", "coeff": [0.5, "0"]}',
    "coeff beyond float": f'{{"sites": [0, 2], "paulis": "XZ", "coeff": [{10**400}, 0]}}',
    "NaN": '{"sites": [0, 2], "paulis": "XZ", "coeff": [NaN, 0.0]}',
    "repeated field": '{"sites": [0, 2], "sites": [3, 3], "paulis": "XZ", "coeff": [0.5, 0.0]}',
    "extra field": '{"sites": [0, 2], "paulis": "XZ", "coeff": [0.5, 0.0], "note": 1}',
    "other field names": '{"site": [0, 2], "letters": "XZ", "coeffs": [0.5, 0.0]}',
    "entry nested in sites": f'{{"sites": [{GOOD_TEXT}], "paulis": "X", "coeff": [1, 0]}}',
    "true as paulis": '{"sites": [0, 1, 2, 3], "paulis": "true", "coeff": [0.5, 0.0]}',
    "entry in a list": f"[{GOOD_TEXT}]",
    "null": "null",
}


def spec_text(entry: str) -> str:
    return f'{{"n_sites": 8, "terms": [{GOOD_TEXT}, {entry}, {GOOD_TEXT}]}}'


class TestStreamedLoader:
    @pytest.mark.parametrize("case", sorted(BAD_TEXTS))
    def test_bad_entry_message(self, case):
        bulk, reference = load_error(spec_text(BAD_TEXTS[case]))
        assert bulk == reference
        assert bulk.startswith("terms[1]: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"[{GOOD_TEXT}]", "spec must be a JSON object, got list"),
            (GOOD_TEXT, "spec: unknown field(s) ['coeff', 'paulis', 'sites']"),
            (f'{{"n_sites": {GOOD_TEXT}, "terms": []}}', "n_sites must be a positive integer"),
            (f'{{"n_sites": 8, "terms": {GOOD_TEXT}}}', "terms must be an array"),
            (f'{{"n_sites": 8, "terms": [{GOOD_TEXT}], "n": {GOOD_TEXT}}}', "spec: unknown field(s) ['n']"),
            (f'{{"n_sites": true, "terms": [{GOOD_TEXT}]}}', "n_sites must be a positive integer"),
            (f'{{"n_sites": 8, "terms": [{GOOD_TEXT}]', "spec is not valid JSON"),
            (f'{{"n_sites": 8, "terms": [{GOOD_TEXT}, {GOOD_TEXT},]}}', "spec is not valid JSON"),
            # streamed, with n_sites tested by the plain route's rule
            (f'{{"n_sites": 8.0, "terms": [{GOOD_TEXT}]}}', "n_sites must be a positive integer, got 8.0"),
            (f'{{"terms": [{GOOD_TEXT}], "n_sites": {{"a": [1]}}}}', "n_sites must be a positive integer"),
        ],
    )
    def test_bad_document_message(self, text, message):
        bulk, reference = load_error(text)
        assert bulk == reference
        assert bulk.startswith(message)

    @pytest.mark.parametrize(
        "entry",
        [
            '{"coeff": [0.5, -0.0], "sites": [4, 1], "paulis": "YX"}',  # another field order
            '{"sites": [0, 0], "sites": [4, 1], "paulis": "YX", "coeff": [0.5, 0.0]}',  # the last one counts
        ],
    )
    def test_takes_what_the_plain_parse_takes(self, entry):
        text = spec_text(entry)
        assert same_arrays(load_spec(text), reference_load_spec(text))

    def test_shuffled_long_range_ising_peak_memory(self):
        # the parsed document (about 17 MB here) is never built
        op = build_model("long_range_ising", {"n_sites": 256, "alpha": 2, "field": 1})
        spec = spec_from_operator(op)
        random.Random(1).shuffle(spec["terms"])
        text = json.dumps(spec)
        del spec
        tracemalloc.start()
        try:
            loaded = load_spec(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.n_terms == op.n_terms == 32_896
        assert same_arrays(loaded.select(loaded.mask_order()), op.select(op.mask_order()))
        assert peak < 10e6

    @settings(max_examples=25, deadline=2000)
    @given(data=st.data(), n_sites=st.integers(1, 70))
    def test_text_and_mapping_match_reference(self, data, n_sites):
        number = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(2**62), 2**62),
            st.sampled_from([0.0, -0.0, 1e-300, 5e-324]),
        )
        entries = []
        for _ in range(data.draw(st.integers(0, 12))):
            sites = data.draw(st.lists(st.integers(0, n_sites - 1), min_size=1, max_size=4, unique=True))
            letters = data.draw(st.text(alphabet="XYZ", min_size=len(sites), max_size=len(sites)))
            fields = {"sites": sites, "paulis": letters, "coeff": [data.draw(number), data.draw(number)]}
            order = data.draw(st.permutations(sorted(fields)))
            entries.append({name: fields[name] for name in order})
        if entries:  # a repeated string, to be summed
            entries.append(data.draw(st.sampled_from(entries)))
        doc = {"n_sites": n_sites, "terms": entries}
        reference = reference_load_spec(doc)
        for spec in (doc, json.dumps(doc)):
            if np.isfinite(reference.coeff).all():
                assert same_arrays(load_spec(spec), reference)
            else:  # a repeated string summed beyond the float range
                with pytest.raises(ValidationError, match="beyond the float range"):
                    load_spec(spec)


X0_HUGE = {"sites": [0], "paulis": "X", "coeff": [1e308, 0]}
OVERFLOW = {"n_sites": 2, "terms": [X0_HUGE, X0_HUGE, {"sites": [1], "paulis": "Z", "coeff": [1, 0]}]}
X0_MESSAGE = "terms: repeated string X on sites [0] sums beyond the float range"
WIDE = {"sites": [70, 3], "paulis": "YZ", "coeff": [1.0, -1e308]}


class TestOverflowingSum:
    @pytest.mark.parametrize(
        "spec, message",
        [
            (OVERFLOW, X0_MESSAGE),
            (json.dumps(OVERFLOW), X0_MESSAGE),  # streamed
            (json.dumps(OVERFLOW).replace('"sites": [1]', '"sites": [0], "sites": [1]'), X0_MESSAGE),  # walked
            ({**OVERFLOW, "terms": [*OVERFLOW["terms"], {**X0_HUGE, "coeff": [-1e308, 0]}]}, X0_MESSAGE),
            (
                {"n_sites": 80, "terms": [GOOD, WIDE, GOOD, WIDE]},
                "terms: repeated string ZY on sites [3, 70] sums beyond the float range",
            ),
        ],
        ids=["mapping", "streamed text", "walked text", "summed back", "imaginary part"],
    )
    def test_refused_naming_the_string(self, spec, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                load_spec(spec)
        assert str(info.value) == message


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

    def test_wide_operator_memory(self):
        # unpacking every site bit of x | z would take 64 MB here
        op = build_model("product_field", {"n_sites": 8192})
        tracemalloc.start()
        try:
            const = structural_constants(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert const == StructuralConstants(k=1, g=1.0, n_terms=8192, norm_upper=8192.0)
        assert peak < 2 * op.x.nbytes


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

    @pytest.mark.parametrize("family", ["random_klocal", "diagonal_commuting"])
    @pytest.mark.parametrize("g_target", [-1.0, 0.0, math.nan, math.inf])
    def test_g_target_must_be_finite_and_positive(self, family, g_target):
        params = {"n_sites": 6, "k": 2, "seed": 1, "g_target": g_target}
        with pytest.raises(ValidationError, match="g_target must be finite and positive"):
            build_model(family, params)


class TestFamilyParameters:
    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("random_klocal", {"k": True}, "k must be a positive integer, got True"),
            ("random_klocal", {"k": 2.9}, "k must be a positive integer, got 2.9"),
            ("random_klocal", {"n_terms": "5"}, "n_terms must be a positive integer, got '5'"),
            ("random_klocal", {"g_target": "1.5"}, "g_target must be finite and positive, got '1.5'"),
            ("long_range_ising", {"alpha": "nan"}, "alpha must be nonnegative, got 'nan'"),
            ("long_range_ising", {"alpha": math.nan}, "alpha must be nonnegative, got nan"),
            ("long_range_ising", {"alpha": -0.5}, "alpha must be nonnegative, got -0.5"),
            ("long_range_ising", {"coupling": math.inf}, "coupling must be a finite number, got inf"),
            ("long_range_ising", {"field": 10**400}, "field must be a finite number, got 1000"),
            ("diagonal_commuting", {"n_terms": -3}, "n_terms must be a positive integer, got -3"),
            ("random_klocal", {"n_terms": 0}, "n_terms must be a positive integer, got 0"),
            ("random_klocal", {"seed": -1}, "seed must be a nonnegative integer, got -1"),
            ("product_field", {"axis": 3}, "axis must be one of x, y, z, got 3"),
            (
                "random_klocal",
                {"kk": 2},
                "unknown parameter(s) ['kk'] for random_klocal; "
                "its parameters: ['g_target', 'k', 'n_sites', 'n_terms', 'seed']",
            ),
        ],
    )
    def test_rejected(self, family, params, message):
        with pytest.raises(ValidationError) as exc:
            build_model(family, {"n_sites": 4, **params})
        assert str(exc.value).startswith(message)

    def test_ints_count_as_reals(self):
        ints = build_model("long_range_ising", {"n_sites": 4, "alpha": 2, "coupling": 1, "field": 1})
        floats = build_model("long_range_ising", {"n_sites": 4, "alpha": 2.0, "coupling": 1.0, "field": 1.0})
        assert same_arrays(ints, floats)


@pytest.mark.parametrize(
    "n_sites, message",
    [
        (True, "positive integer"),
        (2.7, "positive integer"),
        ("3", "positive integer"),
        (0, "positive integer"),
        (-2, "positive integer"),
        (N_MAX_SITES + 1, "at most N_MAX_SITES"),
    ],
)
def test_one_n_sites_rule(n_sites, message):
    # load_spec and build_model accept and reject the same n_sites
    with pytest.raises(ValidationError, match=message):
        load_spec({"n_sites": n_sites, "terms": []})
    with pytest.raises(ValidationError, match=message):
        build_model("product_field", {"n_sites": n_sites})
