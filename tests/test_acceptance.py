"""Acceptance gate: nine checks, one verdict line each.

Each test covers one numbered acceptance item.  Its verdict line
``acceptance N: PASS/FAIL - summary`` is echoed to stdout and recorded
for the post-run summary section, where it survives pytest's capture.
All arithmetic is exact; every comparison is equality.
"""

import random
import sys
import time
from contextlib import contextmanager

import conftest
from conftest import random_code

from z2zu.cli import main
from z2zu.core import (
    dual_brute,
    gray_image,
    gray_map,
    gray_parameters,
    lee_weight_vec,
    min_lee_weight,
    span,
    vec_add,
)
from z2zu.classify import (
    dual_summary,
    verify_two_weight_relations,
    weight_profile,
)
from z2zu.presets import PRESETS, preset_code
from z2zu.ring import ONE, U, V, ZERO
from z2zu.search import SearchSpace, search_with_pruning, verify_fsd_classification
from z2zu.standard_form import standard_form
from z2zu.weights import (
    column_profile,
    hamming_enumerator,
    lee_enumerator,
    macwilliams,
    weight_sum_identity,
)

_MODULE_T0 = time.monotonic()


def _announce(num, status, what):
    line = f"acceptance {num}: {status} - {what}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def verdict(num, what):
    try:
        yield
    except BaseException:
        _announce(num, "FAIL", what)
        raise
    _announce(num, "PASS", what)


# 1 ------------------------------------------------------------------------

REFERENCE_POLYS = {
    "3.6": "x^9 + 3x^3y^6",
    "3.7": "x^9 + 3x^3y^6",
    "3.8": "x^14 + 7x^6y^8",
    "5.4": "x^16 + 7x^8y^8 + 8x^7y^9",
    "5.5": "x^14 + 8x^7y^7 + 7x^6y^8",
    "5.6": "x^24 + 28x^12y^12 + 3x^8y^16",
    "5.7": "x^16 + 30x^8y^8 + y^16",
}
REFERENCE_GRAY = {
    "3.6": (9, 2, 6),
    "3.7": (9, 2, 6),
    "3.8": (14, 3, 8),
    "5.4": (16, 4, 8),
    "5.5": (14, 4, 7),
    "5.6": (24, 5, 12),
    "5.7": (16, 5, 8),
}
REFERENCE_DUAL_GRAY = {
    "3.8": (14, 11, 2),
    "5.5": (14, 10, 3),
    "5.7": (16, 11, 4),
}


def test_reference_codes_reproduce_exactly():
    with verdict(1, "reference enumerators, gray and dual parameters exact"):
        for key, poly in REFERENCE_POLYS.items():
            t0 = time.monotonic()
            code = preset_code(key)
            assert lee_enumerator(code).poly_str() == poly, key
            assert gray_parameters(code) == REFERENCE_GRAY[key], key
            if key in REFERENCE_DUAL_GRAY:
                dual = dual_summary(code)
                assert gray_parameters(dual.dual_code) == \
                    REFERENCE_DUAL_GRAY[key], key
                # the dual's own words, counted against the published d
                assert min_lee_weight(dual.dual_code) == \
                    REFERENCE_DUAL_GRAY[key][2], key
            assert time.monotonic() - t0 < 1.0, key

        # dual distributions stated alongside the primal ones
        d55 = dual_summary(preset_code("5.5")).enumerator
        assert len(d55.counts) == 11
        assert sum(d55.counts.values()) == 1024 == (1 << 14) // 16

        d57 = dual_summary(preset_code("5.7")).enumerator
        assert len(d57.counts) == 7
        assert sum(d57.counts.values()) == (1 << 16) // 32

        t0 = time.monotonic()
        d56 = dual_summary(preset_code("5.6")).enumerator
        assert time.monotonic() - t0 < 60.0
        assert len(d56.counts) == 21
        assert sum(d56.counts.values()) == 524288 == (1 << 24) // 32
        assert all(d56.count(w) == d56.count(24 - w) for w in range(25))

        for key in REFERENCE_POLYS:
            assert tuple(sorted(lee_enumerator(preset_code(key)).counts
                                .items())) == PRESETS[key].lee_counts


# 2 ------------------------------------------------------------------------


def test_transform_agrees_with_brute_dual():
    with verdict(2, "transform = brute dual distribution, double "
                    "transform = identity (7 references + 200 random)"):
        codes = []
        for key in REFERENCE_POLYS:
            code = preset_code(key)
            if not PRESETS[key].module_span:
                code = span(code.shape, code.generators)
            codes.append(code)
        rng = random.Random(2)
        while len(codes) < 207:
            code = random_code(rng)  # shape caps keep N <= 14
            codes.append(code)
        for code in codes:
            enum = lee_enumerator(code)
            transformed = macwilliams(enum, code.cardinality)
            assert transformed == lee_enumerator(dual_brute(code))
            dual_size = code.shape.ambient_size // code.cardinality
            assert macwilliams(transformed, dual_size) == enum


# 3 ------------------------------------------------------------------------


def test_gray_image_is_an_isometry():
    with verdict(3, "gray images carry the weight distribution and "
                    "1000 pairwise distances"):
        rng = random.Random(3)
        codes = [preset_code(k) for k in REFERENCE_POLYS] + \
            [random_code(rng) for _ in range(30)]
        for code in codes:
            assert hamming_enumerator(gray_image(code)) == \
                lee_enumerator(code)
        pairs = 0
        while pairs < 1000:
            code = codes[rng.randrange(len(codes))]
            words = code.codewords
            v = words[rng.randrange(len(words))]
            w = words[rng.randrange(len(words))]
            gv, gw = gray_map(v), gray_map(w)
            hamming = sum(a != b for a, b in zip(gv, gw))
            assert hamming == lee_weight_vec(vec_add(v, w))
            pairs += 1


# 4 ------------------------------------------------------------------------


def test_weight_sum_identity_on_random_codes():
    with verdict(4, "total weight = (|C|/2)(alpha+2*beta) on 500 "
                    "zero-column-free random codes"):
        rng = random.Random(4)
        checked = 0
        while checked < 500:
            code = random_code(rng, max_alpha=8, max_beta=6)
            if column_profile(code).has_zero_column:
                continue
            assert weight_sum_identity(code)
            enum = lee_enumerator(code)
            total = sum(w * c for w, c in enum.counts.items())
            assert 2 * total == code.cardinality * code.shape.big_n
            checked += 1


# 5 ------------------------------------------------------------------------


def test_one_weight_codes_satisfy_the_weight_relations():
    with verdict(5, "searched one-weight codes obey both lambda "
                    "relations; odd weight forces the two-word "
                    "repetition code"):
        space = SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=3,
                            target="one_weight")
        hits = search_with_pruning(space)
        assert hits
        odd_seen = 0
        for hit in hits:
            code = hit.code
            size = code.cardinality
            n = code.shape.big_n
            (m,) = lee_enumerator(code).nonzero_weights()
            lam = weight_profile(code).lambda_
            assert lam is not None
            assert 2 * m == lam * size
            assert n == lam * (size - 1)
            if m % 2:
                odd_seen += 1
                assert size == 2
                assert m == n  # all columns live: binary 1s and ring u's
                (g,) = (w for w in code.codewords if w.packed)
                assert all(b == 1 for b in g.bin_bits)
                assert all(str(e) == "u" for e in g.ring_elems)
        assert odd_seen  # e.g. (1 | u) with m = 3


# 6 ------------------------------------------------------------------------


def test_one_weight_fsd_survey_is_complete():
    with verdict(6, "exhaustive one-weight formally-self-dual survey "
                    "finds exactly the four known codes"):
        t0 = time.monotonic()
        report = verify_fsd_classification(4, 2, max_rows=3)
        elapsed = time.monotonic() - t0
        assert report.matches
        assert len(report.survivors) == 4
        assert elapsed < 300.0


# 7 ------------------------------------------------------------------------


def test_two_weight_relations_on_reference_codes():
    with verdict(7, "two-weight quadratic vanishes, counts and "
                    "{N/2, |C|/2} pattern confirmed on 5.5/5.6/5.7"):
        for key in ("5.5", "5.6", "5.7"):
            code = preset_code(key)
            rep = verify_two_weight_relations(code)
            assert rep.quadratic_value == 0, key
            assert rep.quadratic_ok and rep.counts_ok, key
            assert rep.pattern_ok, key
            weights = set(lee_enumerator(code).nonzero_weights())
            assert code.shape.big_n // 2 in weights, key
            assert code.cardinality // 2 in weights, key


# 8 ------------------------------------------------------------------------


def test_known_type_discrepancies_reported_not_failed(capsys):
    with verdict(8, "known type discrepancies reported without failing; "
                    "cardinality matches the type exponent everywhere"):
        for key in ("3.6", "3.7"):
            rc = main(["reproduce", key])
            out = capsys.readouterr().out
            assert rc == 0, key
            assert "DISCREPANCY-KNOWN" in out, key
            assert "computed (2, 0, 0) vs stated (1, 0, 1)" in out, key
            assert "FAIL" not in out, key
        for key, preset in PRESETS.items():
            code = preset_code(key)
            if preset.stated_type is not None:
                k0, k1, k2 = preset.stated_type
                assert code.cardinality == 1 << (k0 + 2 * k1 + k2), key
            module = code if preset.module_span else \
                span(code.shape, code.generators)
            computed = standard_form(module).code_type
            assert module.cardinality == 1 << computed.exponent, key


# 9 ------------------------------------------------------------------------


def test_algebraic_property_suite():
    with verdict(9, "ring axioms, span idempotence, dual involution, "
                    "standard-form span preservation"):
        # ring axioms, all 64 triples
        elements = (ZERO, ONE, U, V)
        for a in elements:
            for b in elements:
                assert a + b == b + a
                assert a * b == b * a
                for c in elements:
                    assert a * (b * c) == (a * b) * c
                    assert a + (b + c) == (a + b) + c
                    assert a * (b + c) == a * b + a * c

        rng = random.Random(9)

        # span closure is idempotent
        for _ in range(50):
            code = random_code(rng)
            assert span(code.shape, code.codewords) == code

        # dual involution over small ambients
        small = [preset_code(k) for k in ("3.6", "3.7", "3.8", "5.5", "5.7")]
        small += [random_code(rng) for _ in range(40)]
        for code in small:
            assert code.shape.big_n <= 16
            assert dual_brute(dual_brute(code)) == code

        # the reduced matrix spans what it started from
        for _ in range(500):
            code = random_code(rng)
            sf = standard_form(code)
            assert span(code.shape, sf.unpermuted_rows) == code

        assert time.monotonic() - _MODULE_T0 < 600.0
