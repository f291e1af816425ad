"""Candidate enumeration, pruned searches and the exhaustive screen."""

import random
from functools import partial

import pytest

import z2zu.search
from z2zu.core import (
    AdditiveCode,
    AmbientShape,
    MixedVector,
    _lee_packed,
    _reduce,
    _rref,
    _u_mul_packed,
    additive_span,
    dual_brute,
    gray_parameters,
    parse_matrix,
    span,
)
from z2zu.errors import ClassificationViolation, SpaceTooLarge
from z2zu.presets import preset_code
from z2zu.ring import U
from z2zu.classify import is_formally_self_dual
from z2zu.search import (
    MAX_EXHAUSTIVE_TUPLES,
    OPTIMALITY_TABLE,
    TARGETS,
    SearchSpace,
    _basis_weights_fit,
    _random_candidates,
    _size_fits,
    enumerate_candidates,
    optimality_check,
    search_with_pruning,
    verify_fsd_classification,
)
from z2zu.weights import lee_enumerator

from conftest import closure_words, random_code


# ------------------------------------------------------------ search space


def test_space_accepts_bare_ints():
    s = SearchSpace(alpha=4, beta=2)
    assert s.alpha == (4, 4) and s.beta == (2, 2)
    assert [sh.big_n for sh in s.shapes()] == [8]


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(alpha=(3, 2), beta=0)
    with pytest.raises(ValueError):
        SearchSpace(alpha=2, beta=(-1, 1))
    with pytest.raises(ValueError):
        SearchSpace(alpha=2, beta=1, mode="random")  # budget missing
    for budget in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            SearchSpace(alpha=2, beta=1, mode="random", budget=budget)
    assert SearchSpace(alpha=2, beta=1, mode="random", budget=1).budget == 1
    with pytest.raises(ValueError, match="takes no budget"):
        SearchSpace(alpha=2, beta=1, mode="exhaustive", budget=5)
    with pytest.raises(ValueError):
        SearchSpace(alpha=2, beta=1, mode="annealed")
    with pytest.raises(ValueError):
        SearchSpace(alpha=2, beta=1, max_rows=0)
    with pytest.raises(ValueError):
        SearchSpace(alpha=2, beta=1, target="smallest")


def test_empty_range_yields_nothing():
    # alpha = beta = 0 leaves no ambient to search; that is an empty
    # result, not an error
    space = SearchSpace(alpha=0, beta=0, target="one_weight")
    assert space.shapes() == []
    assert list(enumerate_candidates(space)) == []
    assert search_with_pruning(space) == []
    randomized = SearchSpace(alpha=0, beta=0, mode="random", budget=5,
                             seed=1, target="one_weight")
    assert search_with_pruning(randomized) == []


# ------------------------------------------------------------- enumeration


def test_exhaustive_candidates_alpha2():
    space = SearchSpace(alpha=2, beta=0, max_rows=1)
    codes = list(enumerate_candidates(space))
    word_sets = sorted(tuple(c.words) for c in codes)
    assert word_sets == [(0,), (0, 1), (0, 2), (0, 3)]


def test_exhaustive_candidates_beta1():
    # span{1} = span{v} is the full ring line, span{u} is the half line
    space = SearchSpace(alpha=0, beta=1, max_rows=1)
    codes = list(enumerate_candidates(space))
    word_sets = sorted(tuple(c.words) for c in codes)
    assert word_sets == [(0,), (0, 1, 2, 3), (0, 2)]


def test_exhaustive_dedups_across_generator_choices():
    # two rows over alpha = 2: many tuples, still only the 5 subgroups
    space = SearchSpace(alpha=2, beta=0, max_rows=2)
    codes = list(enumerate_candidates(space))
    assert len(codes) == len({c.words for c in codes})
    assert len(codes) == 5


def test_exhaustive_walk_grows_each_coset_pair_once(monkeypatch):
    # a base code B is grown by one word of each pair {w + B, w + uw + B}
    # of its other cosets: u*u = 0 makes w -> w + uw an involution
    shape = AmbientShape(1, 2)

    def grown_by(base):
        cosets = shape.ambient_size // base.cardinality
        fixed = sum((U * MixedVector.from_packed(shape, w)) in base
                    for w in range(shape.ambient_size)) // base.cardinality
        return (cosets - 1 + fixed - 1) // 2

    level1 = {span(shape, [MixedVector.from_packed(shape, w)])
              for w in range(1, shape.ambient_size)}
    expected = grown_by(span(shape, [])) + sum(map(grown_by, level1))
    calls = []
    real = z2zu.search._grow
    monkeypatch.setattr(z2zu.search, "_grow",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    codes = list(enumerate_candidates(SearchSpace(alpha=1, beta=2, max_rows=2)))
    assert len(calls) == expected
    assert len(codes) == len(set(codes))


def rref_walk(shape, max_rows):
    """The closure walk with every word tested against the pivots and
    each child basis eliminated from scratch by _rref: the reference
    for the walk that grows the parent's basis in place."""
    zero = AdditiveCode(shape, (), ())
    seen = {zero.basis}
    frontier = [zero]
    yield zero
    for _ in range(max_rows):
        new_frontier = []
        for base in frontier:
            pivots = sum(1 << (b.bit_length() - 1) for b in base.basis)
            marked = {0}
            for w in range(shape.ambient_size):
                if w & pivots or w in marked:
                    continue
                marked.add(_reduce(base.basis, w ^ _u_mul_packed(shape, w)))
                basis = _rref(shape, base.basis + (w,))
                if basis not in seen:
                    seen.add(basis)
                    code = AdditiveCode(shape, None, basis)
                    new_frontier.append(code)
                    yield code
        frontier = new_frontier


def test_walk_equals_rref_from_scratch_walk():
    # same codes, same bases, same order, shape after shape
    spaces = [SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=rows)
              for rows in (1, 2, 3)]
    spaces += [SearchSpace(alpha=a, beta=b, max_rows=3)
               for a, b in ((6, 1), (0, 3), (2, 3))]
    for space in spaces:
        expected = [(c.shape, c.basis) for shape in space.shapes()
                    for c in rref_walk(shape, space.max_rows)]
        got = [(c.shape, c.basis) for c in enumerate_candidates(space)]
        assert got == expected


def test_exhaustive_cap():
    space = SearchSpace(alpha=20, beta=20, max_rows=5)
    with pytest.raises(SpaceTooLarge):
        list(enumerate_candidates(space))
    # the cap is on the total: no shape alone exceeds 2^26 tuples here,
    # and the space is refused before its first code
    space = SearchSpace(alpha=(0, 26), beta=0, max_rows=1)
    assert max(s.ambient_size for s in space.shapes()) == MAX_EXHAUSTIVE_TUPLES
    assert space.tuple_count() == 2 * MAX_EXHAUSTIVE_TUPLES - 2
    with pytest.raises(SpaceTooLarge):
        next(enumerate_candidates(space))


def test_random_stream_is_reproducible():
    kw = dict(alpha=(2, 4), beta=(0, 2), max_rows=2, mode="random",
              budget=400, seed=11)
    first = [c.words for c in enumerate_candidates(SearchSpace(**kw))]
    second = [c.words for c in enumerate_candidates(SearchSpace(**kw))]
    assert first == second
    assert len(first) > 50  # dedup keeps the stream from collapsing


def test_basis_and_dedup_key_are_exact(rng):
    # small shapes, so equal codes from different rows turn up often
    by_shape = {}
    for _ in range(150):
        c = random_code(rng, max_alpha=4, max_beta=2, allow_trivial=True)
        for code in (c, dual_brute(c)):
            by_shape.setdefault(code.shape, []).append(code)
    equal_pairs = 0
    for shape, codes in by_shape.items():
        for code in codes:
            basis = code.basis
            rows = [MixedVector.from_packed(shape, w) for w in basis]
            oracle = sorted(closure_words(shape, code.generators))
            assert 1 << len(basis) == len(oracle)
            assert list(code.words) == oracle
            assert additive_span(shape, rows).words == code.words
        for i, c1 in enumerate(codes):
            for c2 in codes[i + 1:]:
                same = c1.words == c2.words
                assert (c1 == c2) == same
                assert (hash(c1) == hash(c2)) or not same
                equal_pairs += same
    assert equal_pairs > 0


def test_exhaustive_walk_yields_every_span_once():
    # every span of up to two rows, from an independent word-set closure
    for shape in (AmbientShape(a, b) for a in range(5) for b in range(3)
                  if 1 <= a + 2 * b <= 4):
        vectors = [MixedVector.from_packed(shape, w)
                   for w in range(shape.ambient_size)]
        expected = {frozenset(closure_words(shape, (v, w)))
                    for v in vectors for w in vectors}
        space = SearchSpace(alpha=shape.alpha, beta=shape.beta, max_rows=2)
        walked = [frozenset(c.words) for c in enumerate_candidates(space)]
        assert len(walked) == len(set(walked))
        assert set(walked) == expected


def drawn_codes(space):
    """The random stream built the plain way: each draw spanned as
    MixedVector rows, and a code kept at its first drawing."""
    rng = random.Random(space.seed)
    shapes = space.shapes()
    seen = set()
    for _ in range(space.budget):
        shape = shapes[rng.randrange(len(shapes))]
        rows = [MixedVector(shape, rng.randrange(1 << shape.alpha),
                            rng.randrange(1 << (2 * shape.beta)))
                for _ in range(space.max_rows)]
        code = span(shape, rows)
        if code not in seen:
            seen.add(code)
            yield code


def stream_rows(codes):
    return [(c.shape, c.basis, c.generators) for c in codes]


# spaces with alpha = 0 and beta = 0 shapes and one to three rows
RANDOM_SPACES = [
    dict(alpha=(0, 3), beta=(0, 2), max_rows=1),
    dict(alpha=(0, 4), beta=(0, 1), max_rows=2),
    dict(alpha=(0, 2), beta=(0, 3), max_rows=3),
    dict(alpha=(2, 6), beta=(1, 4), max_rows=3),
]


@pytest.mark.parametrize("seed", [0, 1, 2, 11])
def test_random_stream_matches_plain_draws(seed):
    for kw in RANDOM_SPACES:
        space = SearchSpace(mode="random", budget=400, seed=seed, **kw)
        assert (stream_rows(enumerate_candidates(space))
                == stream_rows(drawn_codes(space)))


@pytest.mark.parametrize("target", TARGETS)
def test_rank_first_stream_is_the_filtered_stream(target):
    # the size pruner on the echelon rank keeps exactly the codes of the
    # full stream that it keeps on their cardinality, first drawings first
    kept = 0
    for seed in (0, 1, 2):
        for kw in RANDOM_SPACES:
            space = SearchSpace(mode="random", budget=400, seed=seed,
                                target=target, **kw)
            fits = partial(_size_fits, target)
            expected = [c for c in drawn_codes(space)
                        if fits(c.shape, c.cardinality)]
            got = list(_random_candidates(space, fits))
            assert stream_rows(got) == stream_rows(expected)
            kept += len(got)
    assert kept


def test_random_stream_seed_matters():
    kw = dict(alpha=(2, 4), beta=(0, 2), max_rows=2, mode="random",
              budget=200)
    a = [c.words for c in enumerate_candidates(SearchSpace(seed=1, **kw))]
    b = [c.words for c in enumerate_candidates(SearchSpace(seed=2, **kw))]
    assert a != b


# ---------------------------------------------------------------- searches


def test_one_weight_search_small_exhaustive():
    space = SearchSpace(alpha=(2, 3), beta=(1, 1), max_rows=2,
                        target="one_weight")
    hits = search_with_pruning(space)
    # every hit is one-weight with the defining relations intact
    assert hits
    for hit in hits:
        enum = lee_enumerator(hit.code)
        assert len(enum.nonzero_weights()) == 1
        assert hit.report.one_lee_weight
    grays = {hit.gray for hit in hits}
    assert (4, 1, 4) in grays  # the repetition code (1 1 | u)


def nonzero_lee_weights(code):
    words = [0]
    for b in code.basis:
        words += [x ^ b for x in words]
    return {_lee_packed(code.shape, x) for x in words[1:]}


def test_basis_weight_prune_is_exact():
    # no code with at most t nonzero Lee weights shows more than t
    # distinct weights on its basis rows, t = 1 (the one-weight targets
    # and the survey) and t = 2 (two_weight_projective)
    spaces = [SearchSpace(alpha=a, beta=b, max_rows=2)
              for a in range(11) for b in range(6) if 1 <= a + 2 * b <= 10]
    spaces.append(SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=3))
    few = {1: 0, 2: 0}
    for space in spaces:
        for code in enumerate_candidates(space):
            k = len(nonzero_lee_weights(code))
            for t in (1, 2):
                if k and k <= t:
                    assert _basis_weights_fit(code, t)
                    few[t] += 1
    assert few[1] and few[2] > few[1]


def test_pruned_equals_unpruned():
    # exhaustive spaces where the basis-weight prune fires, then the
    # random spaces, where the size pruner runs on the rank first
    exhaustive = [dict(alpha=(0, 3), beta=(0, 1), max_rows=2),
                  dict(alpha=(0, 4), beta=(0, 2), max_rows=2),
                  dict(alpha=(0, 4), beta=(0, 2), max_rows=3)]
    for target in ("one_weight", "two_weight_projective", "fsd_one_weight"):
        t = 2 if target == "two_weight_projective" else 1
        fired = 0
        for kw in exhaustive:
            space = SearchSpace(target=target, **kw)
            pruned = search_with_pruning(space, use_pruners=True)
            plain = search_with_pruning(space, use_pruners=False)
            assert [h.code for h in pruned] == [h.code for h in plain]
            fired += sum(
                _size_fits(target, c.shape, c.cardinality)
                and not _basis_weights_fit(c, t)
                for c in enumerate_candidates(space))
        # fsd_one_weight sizes fit only 2-word codes at N = 2 here: one
        # basis row, so its basis-weight prune cannot fire
        assert fired or target == "fsd_one_weight"
        found = 0
        for seed in (0, 1, 2, 3):
            for kw in RANDOM_SPACES:
                space = SearchSpace(mode="random", budget=300, seed=seed,
                                    target=target, **kw)
                pruned = search_with_pruning(space, use_pruners=True)
                plain = search_with_pruning(space, use_pruners=False)
                assert stream_rows(h.code for h in pruned) == stream_rows(
                    h.code for h in plain)
                found += len(pruned)
        assert found


def word_order(codes):
    return sorted(codes, key=lambda c: (c.shape.alpha, c.shape.beta, c.words))


def test_basis_order_is_word_order(rng):
    # word row 2^i is basis row i and the rows below it use only lower
    # basis rows, so sorting codes by basis sorts them by their words;
    # hits and screen survivors are sorted by basis on that ground
    for kw in ({"alpha": (0, 3), "beta": (0, 2), "max_rows": 2},
               {"alpha": 4, "beta": 1, "max_rows": 3}):
        codes = list(enumerate_candidates(SearchSpace(**kw)))
        assert len({c.cardinality for c in codes}) > 3
        rng.shuffle(codes)
        by_basis = sorted(
            codes, key=lambda c: (c.shape.alpha, c.shape.beta, c.basis))
        assert by_basis == word_order(codes)
        space = SearchSpace(target="one_weight", **kw)
        hits = [h.code for h in search_with_pruning(space)]
        assert hits == word_order(hits)
    report = verify_fsd_classification(2, 1)
    assert list(report.survivors) == word_order(report.survivors)
    assert list(report.expected) == word_order(report.expected)


def test_include_rows_are_examined_with_the_stream():
    rows = preset_code("5.7").generators
    space = SearchSpace(alpha=8, beta=4, max_rows=1, mode="random",
                        budget=10, seed=3, target="two_weight_projective")
    hits = search_with_pruning(space, include=(rows,))
    grays = {hit.gray for hit in hits}
    assert (16, 5, 8) in grays
    hit = next(h for h in hits if h.gray == (16, 5, 8))
    assert hit.optimality == "optimal"
    assert hit.code == preset_code("5.7")
    # handing the same rows twice reports the code once
    again = search_with_pruning(space, include=(rows, rows))
    assert len(again) == len(hits)
    # so does an include code that the random stream also draws
    shape, rows = parse_matrix("1 1 |\n")
    code = span(shape, rows)
    space = SearchSpace(alpha=2, beta=0, max_rows=1, mode="random",
                        budget=20, seed=3, target="one_weight")
    assert code in list(enumerate_candidates(space))
    hits = search_with_pruning(space, include=(rows,))
    assert [h.code for h in hits] == [code]


def test_random_rediscovery_of_optimal_one_weight_code():
    # with this seed the uniform row draws land on an 8-word one-weight
    # code whose binary image meets the best known [14, 3] distance
    space = SearchSpace(alpha=(4, 8), beta=(4, 5), max_rows=3,
                        mode="random", budget=1_905_000, seed=0,
                        target="one_weight")
    hits = search_with_pruning(space)
    assert (14, 3, 8) in {hit.gray for hit in hits}
    assert any(hit.optimality == "optimal" for hit in hits)


def test_two_weight_projective_search_binary_ambient():
    # over alpha = 4 the parity-check code {even weight words} is the
    # classic two-weight projective example: weights {2, 4}, dual {0, 1111}
    space = SearchSpace(alpha=4, beta=0, max_rows=3,
                        target="two_weight_projective")
    hits = search_with_pruning(space)
    assert any(hit.gray == (4, 3, 2) for hit in hits)
    for hit in hits:
        assert hit.report.projective
        assert hit.report.two_lee_weight


# ------------------------------------------------------------------ screen


def test_screen_finds_the_four_codes():
    report = verify_fsd_classification(2, 1)
    assert report.matches
    assert len(report.survivors) == 4
    shapes = sorted((c.shape.alpha, c.shape.beta) for c in report.survivors)
    assert shapes == [(0, 1), (2, 0), (2, 0), (2, 0)]
    weights = sorted(
        lee_enumerator(c).nonzero_weights()[0] for c in report.survivors
    )
    assert weights == [1, 1, 2, 2]


def test_screen_is_stable_on_larger_ranges():
    report = verify_fsd_classification(4, 2)
    assert report.matches
    assert len(report.survivors) == 4
    assert report.codes_examined > 10000


def test_screen_equals_unpruned_survey():
    # every code of the range walked from scratch, no basis-weight prune
    max_alpha, max_beta, max_rows = 4, 2, 3
    examined = 0
    survivors = []
    for a in range(max_alpha + 1):
        for b in range(max_beta + 1):
            if a + b < 1:
                continue
            shape = AmbientShape(a, b)
            for code in rref_walk(shape, max_rows):
                examined += 1
                size = code.cardinality
                if size < 2 or size * size != shape.ambient_size:
                    continue
                enum = lee_enumerator(code)
                if (len(enum.nonzero_weights()) == 1
                        and is_formally_self_dual(code)):
                    survivors.append(code)
    report = verify_fsd_classification(max_alpha, max_beta, max_rows)
    assert report.codes_examined == examined == 11150
    assert list(report.survivors) == sorted(
        survivors, key=lambda c: (c.shape.alpha, c.shape.beta, c.basis))


def test_screen_range_caps():
    with pytest.raises(ValueError):
        verify_fsd_classification(7, 1)
    with pytest.raises(ValueError):
        verify_fsd_classification(2, 4)
    with pytest.raises(ValueError):
        verify_fsd_classification(0, 0)
    # the walk's own guards: at least one row, at most 2^26 tuples
    with pytest.raises(ValueError, match="max_rows"):
        verify_fsd_classification(4, 2, 0)
    with pytest.raises(SpaceTooLarge):
        verify_fsd_classification(6, 3)


# -------------------------------------------------------------- optimality


def test_optimality_verdicts():
    assert optimality_check(16, 4, 8) == "optimal"
    assert optimality_check(9, 7, 2) == "unknown"
    assert optimality_check(14, 3, 7) == "suboptimal"
    assert optimality_check(14, 3, 8) == "optimal"


def test_reference_codes_meet_their_table_entries():
    for key in ("3.7", "3.8", "5.4", "5.5", "5.6", "5.7"):
        n, k, d = gray_parameters(preset_code(key))
        assert optimality_check(n, k, d) == "optimal"
    assert len(OPTIMALITY_TABLE) == 9
