"""Enumerators, the dual-distribution transform, moments and columns."""

import tracemalloc
from collections import Counter

import pytest

import z2zu.core
import z2zu.weights
from z2zu.core import (
    _LEE_BLOCK_BITS,
    _LEE_INT_BITS,
    MAX_CODE_WORD_BITS,
    AmbientShape,
    MixedVector,
    _lee_counts,
    additive_span,
    dual,
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


def test_count_reads_entries_and_counts_is_a_fresh_dict(rng):
    for n in (0, 1, 9, 48):
        for _ in range(10):
            counts = {w: rng.randrange(1, 5) for w in range(n + 1)
                      if rng.random() < 0.4}
            e = LeeEnumerator.from_counts(n, counts)
            assert [e.count(w) for w in range(-1, n + 2)] == [
                counts.get(w, 0) for w in range(-1, n + 2)]
    e = lee_enumerator(preset_code("3.6"))
    mutated = e.counts
    mutated[6] = 0
    mutated[1] = 7
    assert e.counts == {0: 1, 6: 3}
    assert (e.count(6), e.count(1)) == (3, 0)


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


def _digit_bound_cases(rng):
    """Distributions at N = 64, 65, 90, 130 with |C| up to 2^26 that
    push the transform's coefficient sums to its digit bound: all mass
    at weight N, at weight 0 (which attains |C| * C(N, N//2)), at N//2,
    {0: 1, N: |C|-1}, and random sparse splits."""
    cases = []
    for n in (64, 65, 90, 130):
        for k in (0, 1, 7, 16, 26):
            size = 1 << k
            splits = [{n: size}, {0: size}, {n // 2: size},
                      {0: 1, n: size - 1}]
            for _ in range(2):
                weights = rng.sample(range(n + 1), 3)
                cuts = sorted(rng.randrange(size + 1) for _ in range(2))
                parts = (cuts[0], cuts[1] - cuts[0], size - cuts[1])
                splits.append(Counter(dict(zip(weights, parts))))
            cases += [(LeeEnumerator.from_counts(n, c), size) for c in splits]
    return cases


def test_transform_digit_bound_matches_binomial_oracle(rng):
    cases = _digit_bound_cases(rng)
    refused = 0
    for e, size in cases:
        got = _outcome(macwilliams, e, size)
        assert got == _outcome(macwilliams_oracle, e, size)
        refused += isinstance(got, str)
    assert 0 < refused < len(cases)


def test_transform_digit_bound_is_tight(rng, monkeypatch):
    # one bit fewer per digit and the sum |C| * C(N, N//2) at weight
    # N//2 of the all-at-zero distribution no longer fits its digit
    bits = z2zu.weights._kronecker_bits
    monkeypatch.setattr(z2zu.weights, "_kronecker_bits",
                        lambda n, size: bits(n, size) - 1)
    at_zero = [(e, size) for e, size in _digit_bound_cases(rng)
               if e.entries == ((0, size),)]
    assert len(at_zero) >= 20  # one per (N, |C|) at least
    for e, size in at_zero:
        assert (_outcome(macwilliams, e, size)
                != _outcome(macwilliams_oracle, e, size))


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


def test_column_profile_is_kept_on_the_code():
    # the profile is computed once and kept: later calls, and the one
    # inside weight_sum_identity, return the same object
    code = preset_code("3.6")
    prof = column_profile(code)
    assert column_profile(code) is prof
    assert weight_sum_identity(code)
    assert code._profile is prof


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
    # the kernels read the basis: no word array, let alone Python words,
    # is built for a spanned code or a dual read off a basis
    for code in [preset_code("5.7"), random_code(rng, max_alpha=70),
                 dual(preset_code("3.6"))]:
        lee_enumerator(code)
        column_profile(code)
        gray_parameters(code)
        assert code._array is None


def rank_k_rows(rng, shape, k, rows=()):
    """The given rows plus random ones, k rows spanning 2^k words
    without u-closure."""
    while True:
        drawn = list(rows) + [
            MixedVector(shape, rng.getrandbits(shape.alpha),
                        rng.getrandbits(2 * shape.beta))
            for _ in range(k - len(rows))]
        if additive_span(shape, drawn).cardinality == 2 ** k:
            return drawn


# one block; two blocks, one pair; two pairs; eight blocks
BLOCK_SIZES = [_LEE_BLOCK_BITS + d for d in (-1, 0, 1, 2, 3)]


@pytest.mark.parametrize("k", BLOCK_SIZES)
def test_blocked_lee_count_one_limb(rng, k):
    # k > B rows leave the first block: 2^(k-B) blocks of 2^B words
    shape = AmbientShape(20, 6)
    rows = rank_k_rows(rng, shape, k)
    words = closure_words(shape, rows, u_closed=False)
    expected = Counter(oracle_lee(shape, w) for w in words)
    code = additive_span(shape, rows)
    assert lee_enumerator(code).counts == dict(expected)
    assert code._array is None


@pytest.mark.parametrize("k", BLOCK_SIZES)
def test_blocked_lee_count_two_limbs(rng, k):
    shape = AmbientShape(30, 20)  # N = 70
    code = additive_span(shape, rank_k_rows(rng, shape, k))
    assert lee_enumerator(code) == hamming_enumerator(gray_image(code))


def ones_second(rows):
    """Packed rows with the first moved to index _LEE_BLOCK_BITS, the
    first row past the low block, which sets the second of each two
    consecutive blocks: while N <= 89 that is a pair's second block,
    where the all-ones Gray image has pair index w0*(N+1) + N."""
    packed = [r.packed for r in rows[1:]]
    packed.insert(_LEE_BLOCK_BITS, rows[0].packed)
    return packed


@pytest.mark.parametrize("k", BLOCK_SIZES)
def test_one_limb_lee_count_reaches_weight_64(rng, k):
    # one limb's popcounts are counted as uint8: a word whose Gray image
    # is all ones weighs N = 64, the most a limb holds; it is counted
    # off the reduced basis and, past one block, in a pair's second block
    shape = AmbientShape(32, 16)
    ones = MixedVector(shape, (1 << 32) - 1, 2 * shape.ring_a_mask)
    rows = rank_k_rows(rng, shape, k, [ones])
    basis = additive_span(shape, rows).basis
    # the Gray map is XOR-linear, so the code's Gray images are the
    # span of its basis rows' images
    words = [0]
    for b in basis:
        gray = oracle_gray(shape, b)
        words += [w ^ gray for w in words]
    expected = Counter(w.bit_count() for w in words)
    for generators in (basis, ones_second(rows)):
        counts = _lee_counts(shape, generators)
        assert counts.tolist() == [expected[w] for w in range(65)]
        assert counts[64] == 1


@pytest.mark.parametrize("k", (3, _LEE_BLOCK_BITS + 1))
def test_lee_count_past_255(rng, k):
    # binary ones and ring digits u: a word whose Gray image is all ones,
    # of Lee weight N = 260 over five limbs, counted off the reduced
    # basis and, past one block, in the second block, one block at a time
    shape = AmbientShape(100, 80)
    ones = MixedVector(shape, (1 << 100) - 1, 2 * shape.ring_a_mask)
    rows = rank_k_rows(rng, shape, k, [ones])
    code = additive_span(shape, rows)
    enum = lee_enumerator(code)
    assert enum.count(260) == 1
    assert enum == hamming_enumerator(gray_image(code))
    assert _lee_counts(shape, ones_second(rows)).tolist() == [
        enum.count(w) for w in range(261)]


@pytest.mark.parametrize("alpha", (29, 30))
def test_lee_count_either_side_of_pairing(rng, alpha):
    # N = 89 is the largest N whose (N+1)^2 pair histogram fits a block,
    # so its blocks go in pairs, the all-ones word at the top pair index
    # 89*90 + 89; N = 90 counts block by block.  Both count off the
    # reduced basis and with the all-ones row in the second block
    shape = AmbientShape(alpha, 30)
    n = shape.big_n
    ones = MixedVector(shape, (1 << alpha) - 1, 2 * shape.ring_a_mask)
    rows = rank_k_rows(rng, shape, _LEE_BLOCK_BITS + 2, [ones])
    code = additive_span(shape, rows)
    expected = hamming_enumerator(gray_image(code))
    assert expected.count(n) == 1
    for generators in (code.basis, ones_second(rows)):
        assert _lee_counts(shape, generators).tolist() == [
            expected.count(w) for w in range(n + 1)]


def rank_k_span(rng, shape, k, rows):
    """The given rows plus random ones whose u-closed span has exactly
    2^k words.  Half the drawn rows have ring digits in {0, u} only, so
    u kills them and they add one to the rank, not two."""
    rows = list(rows)
    while span(shape, rows).cardinality < 2 ** k:
        ring = rng.getrandbits(2 * shape.beta)
        if rng.getrandbits(1):
            ring &= 2 * shape.ring_a_mask
        row = MixedVector(shape, rng.getrandbits(shape.alpha), ring)
        if span(shape, rows + [row]).cardinality <= 2 ** k:
            rows.append(row)
    return rows


@pytest.mark.parametrize("alpha, beta", ((1, 0), (4, 3), (32, 16), (33, 16),
                                         (70, 30)))
def test_lee_count_either_side_of_the_int_route(rng, monkeypatch, alpha,
                                                beta):
    # N = 1, 10, 64, 65 and 130: a basis of at most _LEE_INT_BITS rows is
    # counted in Python ints, a longer one by numpy, which packs the
    # basis into limbs; every rank up to one past that bound, on
    # u-closed spans and bare subgroups, each holding the all-ones Gray
    # word (binary ones, ring digits u) of weight N
    shape = AmbientShape(alpha, beta)
    n = shape.big_n
    ones = MixedVector(shape, (1 << alpha) - 1, 2 * shape.ring_a_mask)
    to_limbs, packed = z2zu.core._to_limbs, []
    monkeypatch.setattr(z2zu.core, "_to_limbs",
                        lambda s, xs: packed.append(xs) or to_limbs(s, xs))
    for k in range(min(n, _LEE_INT_BITS + 1) + 1):
        for code in (span(shape, rank_k_span(rng, shape, k, [ones][:k])),
                     additive_span(shape, rank_k_rows(rng, shape, k,
                                                      [ones][:k]))):
            expected = hamming_enumerator(gray_image(code))
            assert expected.count(n) == (k > 0)
            packed.clear()
            counts = _lee_counts(shape, code.basis)
            assert bool(packed) == (k > _LEE_INT_BITS)
            assert counts.shape == (n + 1,)
            assert counts.tolist() == [expected.count(w) for w in range(n + 1)]


def test_lee_count_memory_is_a_block(rng):
    # a 2^20-word code at N = 48, whose word array alone takes 8 MB
    shape = AmbientShape(16, 16)
    code = additive_span(shape, rank_k_rows(rng, shape, 20))
    tracemalloc.start()
    try:
        enum = lee_enumerator(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.cardinality() == 2 ** 20
    assert peak < 2 * 2 ** 20
    assert code._array is None


def test_wide_lee_count_memory_is_a_block(rng):
    # two blocks at N = 2000: 32 limbs, so a block takes 2 MB, while a
    # pair histogram would take (N+1)^2 intp, 32 MB
    shape = AmbientShape(1000, 500)
    code = additive_span(shape, rank_k_rows(rng, shape, _LEE_BLOCK_BITS + 1))
    tracemalloc.start()
    try:
        enum = lee_enumerator(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.cardinality() == 2 ** (_LEE_BLOCK_BITS + 1)
    assert peak < 3 * 32 * 8 * 2 ** _LEE_BLOCK_BITS
    assert code._array is None


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
