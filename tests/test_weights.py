"""Enumerators, the dual-distribution transform, moments and columns."""

from collections import Counter

import pytest

from z2zu.core import (
    MAX_CODE_WORD_BITS,
    AmbientShape,
    MixedVector,
    additive_span,
    dual_brute,
    gray_image,
    gray_parameters,
    min_lee_weight,
    parse_matrix,
    span,
)
from z2zu.errors import (
    CodeTooLarge,
    NonIntegralTransform,
    PreconditionViolation,
    TrivialCode,
    ZeroColumnPresent,
)
from z2zu.presets import PRESETS, preset_code
from z2zu.ring import RingElem
from z2zu.weights import (
    BinaryColumnKind,
    LeeEnumerator,
    RingColumnKind,
    column_profile,
    hamming_enumerator,
    lee_enumerator,
    macwilliams,
    power_moments,
    weight_sum_identity,
)

from conftest import closure_words, macwilliams_oracle, random_code


def code_of(text):
    shape, rows = parse_matrix(text)
    return span(shape, rows)


# ------------------------------------------------------------ enumerators


def test_reference_enumerators():
    for key, p in PRESETS.items():
        enum = lee_enumerator(preset_code(key))
        assert enum.entries == p.lee_counts
        assert enum.poly_str() == p.lee_poly


def test_enumerator_accessors():
    e = lee_enumerator(preset_code("3.6"))
    assert e.big_n == 9
    assert e.cardinality() == 4
    assert e.count(6) == 3
    assert e.count(5) == 0
    assert e.nonzero_weights() == (6,)
    assert e.min_nonzero_weight() == 6
    assert str(e) == "x^9 + 3x^3y^6"
    assert e.to_json_obj() == {"N": 9, "counts": [[0, 1], [6, 3]]}


def test_poly_str_edge_cases():
    assert LeeEnumerator.from_counts(1, {0: 1, 1: 1}).poly_str() == "x + y"
    assert LeeEnumerator.from_counts(2, {2: 1}).poly_str() == "y^2"
    assert LeeEnumerator.from_counts(0, {0: 1}).poly_str() == "1"
    assert LeeEnumerator.from_counts(3, {}).poly_str() == "0"


def test_from_counts_validation():
    with pytest.raises(ValueError):
        LeeEnumerator.from_counts(2, {3: 1})
    with pytest.raises(ValueError):
        LeeEnumerator.from_counts(2, {1: -1})
    # zero counts are dropped
    assert LeeEnumerator.from_counts(2, {0: 1, 1: 0}).entries == ((0, 1),)


def test_gray_image_has_same_distribution(rng):
    for key in ("3.6", "4.3b", "5.4", "5.7"):
        code = preset_code(key)
        assert hamming_enumerator(gray_image(code)) == lee_enumerator(code)
    for _ in range(10):
        c = random_code(rng, max_alpha=4, max_beta=3)
        assert hamming_enumerator(gray_image(c)) == lee_enumerator(c)


# -------------------------------------------------------------- transform


def test_transform_of_trivial_code():
    e = LeeEnumerator.from_counts(2, {0: 1})
    assert macwilliams(e, 1).counts == {0: 1, 1: 2, 2: 1}


def test_transform_matches_brute_dual_on_references():
    for key in PRESETS:
        code = preset_code(key)
        if not code.is_module():
            code = span(code.shape, code.generators)
        enum = lee_enumerator(code)
        dual = dual_brute(code)
        assert macwilliams(enum, code.cardinality) == lee_enumerator(dual)


def test_transform_matches_brute_dual_random(rng):
    for _ in range(30):
        c = random_code(rng, max_alpha=5, max_beta=3)
        assert macwilliams(lee_enumerator(c), c.cardinality) == lee_enumerator(
            dual_brute(c))


def long_codes(rng):
    """Spans of one to three random rows over shapes with N > 64."""
    codes = []
    for alpha, beta in ((70, 3), (2, 40), (66, 0), (0, 33)):
        shape = AmbientShape(alpha, beta)
        for n_rows in (1, 2, 3):
            rows = [MixedVector(shape, rng.randrange(1 << alpha),
                                rng.randrange(1 << (2 * beta)))
                    for _ in range(n_rows)]
            codes.append(span(shape, rows))
    return codes


def test_transform_involution(rng):
    codes = [random_code(rng, max_alpha=5, max_beta=3) for _ in range(20)]
    for c in codes + long_codes(rng):
        e = lee_enumerator(c)
        size = c.cardinality
        dual_size = c.shape.ambient_size // size
        assert macwilliams(macwilliams(e, size), dual_size) == e


def _outcome(fn, enum, size):
    try:
        return fn(enum, size)
    except NonIntegralTransform as e:
        return str(e)


def test_transform_matches_binomial_oracle(rng):
    # code enumerators (N up to 82), then random distributions with a
    # power-of-two total, most of which no code has: the same counts or
    # the same refusal, weight by weight
    cases = []
    codes = [random_code(rng, max_alpha=5, max_beta=3) for _ in range(6)]
    codes += long_codes(rng)
    for c in codes:
        e = lee_enumerator(c)
        cases.append((e, c.cardinality))
        cases.append((macwilliams(e, c.cardinality),
                      c.shape.ambient_size // c.cardinality))
    for n in (1, 2, 7, 20, 65, 90):
        for _ in range(15):
            size = 1 << rng.randrange(min(n, 6) + 1)
            counts = Counter(rng.randrange(n + 1) for _ in range(size - 1))
            counts[0] += 1
            cases.append((LeeEnumerator.from_counts(n, counts), size))
    refused = 0
    for e, size in cases:
        got = _outcome(macwilliams, e, size)
        assert got == _outcome(macwilliams_oracle, e, size)
        refused += isinstance(got, str)
    assert 0 < refused < len(cases)
    assert max(e.big_n for e, _ in cases) > 64


def test_reference_dual_distributions():
    for key, p in PRESETS.items():
        if p.dual_lee_counts is None or not p.module_span:
            continue
        enum = lee_enumerator(preset_code(key))
        dual = macwilliams(enum, enum.cardinality())
        assert dual.entries == p.dual_lee_counts


def test_transform_size_validation():
    e = LeeEnumerator.from_counts(2, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        macwilliams(e, 4)  # size disagrees with the total
    e3 = LeeEnumerator.from_counts(2, {0: 1, 1: 1, 2: 1})
    with pytest.raises(ValueError):
        macwilliams(e3, 3)  # 3 does not divide 4


def test_transform_rejects_impossible_distributions():
    # these totals are valid but no code/dual pair produces them
    with pytest.raises(NonIntegralTransform):
        macwilliams(LeeEnumerator.from_counts(2, {0: 1, 2: 3}), 4)
    with pytest.raises(NonIntegralTransform):
        macwilliams(LeeEnumerator.from_counts(2, {0: 1, 1: 1, 2: 2}), 4)


# ----------------------------------------------------------------- moments


def test_power_moments_by_hand():
    # distribution x^9 + 3x^3y^6 against dual counts B1 = 0, B2 = 9:
    #   18 = (4/2)(9 - 0)   and   108 = 2 (45 - 0 + 9)
    e = lee_enumerator(preset_code("3.6"))
    assert power_moments(e, 4, 0, 9).all_ok


def test_power_moments_random(rng):
    for _ in range(25):
        c = random_code(rng, max_alpha=5, max_beta=3)
        e = lee_enumerator(c)
        d = lee_enumerator(dual_brute(c))
        pm = power_moments(e, c.cardinality, d.count(1), d.count(2))
        assert pm.all_ok


def test_power_moments_detect_wrong_dual():
    e = lee_enumerator(preset_code("3.6"))
    assert not power_moments(e, 4, 1, 9).first_moment_ok


def test_power_moments_zero_code():
    e = LeeEnumerator.from_counts(3, {0: 1})
    # the dual is everything: B1 = N, B2 = C(N,2) patterns included
    d = macwilliams(e, 1)
    assert power_moments(e, 1, d.count(1), d.count(2)).all_ok


# ----------------------------------------------------------------- columns


def test_column_profile_of_reference():
    prof = column_profile(preset_code("3.6"))
    assert all(k is BinaryColumnKind.BALANCED for k in prof.binary)
    assert prof.ring == (RingColumnKind.HALF,)
    assert not prof.has_zero_column


def test_column_profile_full_ring_column():
    prof = column_profile(preset_code("5.5"))
    assert prof.n_full == 4


def test_column_profile_subgroup_with_full_columns():
    # not a module, but every column image is still a submodule
    c16 = preset_code("5.4")
    assert not c16.is_module()
    prof = column_profile(c16)
    assert prof.n_full == 4
    assert all(k is BinaryColumnKind.BALANCED for k in prof.binary)


def test_column_profile_rejects_unit_line():
    shape = AmbientShape(0, 1)
    sub = additive_span(shape, [MixedVector.from_coords(shape, [], [1])])
    assert sorted(sub.words) == [0, 1]
    with pytest.raises(PreconditionViolation):
        column_profile(sub)


def test_zero_columns_reported():
    prof = column_profile(code_of("1 0 | u 0\n"))
    assert prof.zero_binary_columns == (1,)
    assert prof.zero_ring_columns == (1,)
    assert prof.has_zero_column


# ------------------------------------------------------------- weight sum


def test_weight_sum_identity_references():
    # total Lee weight (|C|/2)(alpha + 2 beta): 18 for the 4-word code,
    # 128 for the 16-word subgroup
    assert weight_sum_identity(preset_code("3.6"))
    assert weight_sum_identity(preset_code("5.4"))
    for key in ("3.7", "3.8", "5.5", "5.6", "5.7"):
        assert weight_sum_identity(preset_code(key))


def test_weight_sum_identity_random(rng):
    checked = 0
    while checked < 40:
        c = random_code(rng, max_alpha=5, max_beta=3)
        prof = column_profile(c)
        if prof.has_zero_column:
            continue
        assert weight_sum_identity(c)
        checked += 1


def test_weight_sum_identity_needs_nonzero_columns():
    c = code_of("1 0 |\n")
    with pytest.raises(ZeroColumnPresent):
        weight_sum_identity(c)


# ------------------------------------------------------ word array kernels


def oracle_lee(shape, w):
    """Binary popcount plus the Lee weight of each ring digit."""
    return (w >> (2 * shape.beta)).bit_count() + sum(
        RingElem((w >> (2 * j)) & 3).lee_weight for j in range(shape.beta)
    )


def oracle_gray(shape, w):
    """Binary part, then psi of each ring digit, most significant first."""
    out = w >> (2 * shape.beta)
    for j in reversed(range(shape.beta)):
        b, ab = RingElem((w >> (2 * j)) & 3).psi()
        out = (out << 2) | (b << 1) | ab
    return out


def oracle_profile(shape, words):
    """Column kinds from per-column value counts; None for a unit line."""
    binary = []
    for i in range(shape.alpha):
        ones = sum((w >> (2 * shape.beta + shape.alpha - 1 - i)) & 1
                   for w in words)
        assert ones in (0, len(words) // 2)
        binary.append(BinaryColumnKind.BALANCED if ones
                      else BinaryColumnKind.ZERO)
    kinds = {
        frozenset({0}): RingColumnKind.ZERO,
        frozenset({0, 2}): RingColumnKind.HALF,
        frozenset({0, 1, 2, 3}): RingColumnKind.FULL,
    }
    ring = []
    for j in range(shape.beta):
        hist = Counter((w >> (2 * (shape.beta - 1 - j))) & 3 for w in words)
        assert len(set(hist.values())) == 1
        if frozenset(hist) not in kinds:
            return None
        ring.append(kinds[frozenset(hist)])
    return tuple(binary), tuple(ring)


def kernel_cases(rng):
    """(code, rows were u-closed) over small and multi-limb shapes."""
    cases = []
    for _ in range(40):
        cases.append((random_code(rng, allow_trivial=True), True))
    shapes = [AmbientShape(a, b) for a, b in
              ((3, 2), (0, 4), (5, 0), (70, 3), (2, 33), (64, 0), (0, 32))]
    for shape in shapes:
        cases.append((span(shape, []), True))
        for n_rows in (1, 2, 4):
            rows = [MixedVector(shape, rng.randrange(1 << shape.alpha),
                                rng.randrange(1 << (2 * shape.beta)))
                    for _ in range(n_rows)]
            cases.append((span(shape, rows), True))
            cases.append((additive_span(shape, rows), False))
    return cases


def test_word_kernels_match_python_oracle(rng):
    for code, u_closed in kernel_cases(rng):
        shape = code.shape
        words = sorted(closure_words(shape, code.generators, u_closed))
        expected = oracle_profile(shape, words)
        if expected is None:
            with pytest.raises(PreconditionViolation):
                column_profile(code)
        else:
            prof = column_profile(code)
            assert (prof.binary, prof.ring) == expected
        # the profile is read off the basis: no word array is built
        assert code._array is None
        assert code.words == tuple(words)
        lee = [oracle_lee(shape, w) for w in words]
        assert lee_enumerator(code).counts == dict(Counter(lee))
        if len(words) == 1:
            with pytest.raises(TrivialCode):
                min_lee_weight(code)
        else:
            assert min_lee_weight(code) == min(lee[1:])
        assert gray_image(code).words == tuple(
            sorted(oracle_gray(shape, w) for w in words))


def test_kernels_leave_python_words_unbuilt(rng):
    for code in [preset_code("5.7"), random_code(rng, max_alpha=70),
                 dual_brute(preset_code("3.6"))]:
        lee_enumerator(code)
        column_profile(code)
        gray_parameters(code)
        assert code._words is None


def test_word_array_is_capped():
    shape = AmbientShape(MAX_CODE_WORD_BITS + 1, 0)
    rows = [MixedVector(shape, 1 << i, 0) for i in range(shape.alpha)]
    code = span(shape, rows)
    assert code.cardinality == 2 ** 27
    for kernel in (lee_enumerator, min_lee_weight, gray_image):
        with pytest.raises(CodeTooLarge):
            kernel(code)
    # the profile is read off the basis, so it needs no words
    prof = column_profile(code)
    assert prof.binary == (BinaryColumnKind.BALANCED,) * 27
    assert prof.ring == ()
    assert code._array is None
    with pytest.raises(CodeTooLarge):
        code.words
