"""Candidate enumeration, pruned searches and the exhaustive screen."""

import functools
import random
from dataclasses import replace

import numpy as np
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
from z2zu.errors import (
    ClassificationViolation,
    InternalVerificationFailure,
    SpaceTooLarge,
)
from z2zu.presets import preset_code
from z2zu.ring import U
from z2zu.classify import classify, is_formally_self_dual, weight_profile
from z2zu.search import (
    MAX_EXHAUSTIVE_TUPLES,
    OPTIMALITY_TABLE,
    TARGETS,
    SearchSpace,
    _basis_weights_fit,
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
    kept = []
    real = z2zu.search._grow_pairs

    def counting(*args):
        children, keep = real(*args)
        kept.append(int(keep.sum()))
        return children, keep

    monkeypatch.setattr(z2zu.search, "_grow_pairs", counting)
    codes = list(enumerate_candidates(SearchSpace(alpha=1, beta=2, max_rows=2)))
    assert sum(kept) == expected
    assert len(codes) == len(set(codes))


def test_top_bits_is_exact_on_uint64():
    # float64 rounds 2^54 - 1 up to 2^54, and 2^63 + 5 has 64 bits
    values = [0, 1, (1 << 53) - 1, (1 << 53) + 1, (1 << 54) - 1,
              (1 << 61) - 1, (1 << 63) + 5, (1 << 64) - 1]
    got = z2zu.search._top_bits(np.array(values, np.uint64)).tolist()
    assert got == [1 << (v.bit_length() - 1) if v else 0 for v in values]


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


@functools.cache
def rref_stream(alpha, beta, max_rows):
    """rref_walk over a space's shapes, as (shape, basis) pairs."""
    space = SearchSpace(alpha=alpha, beta=beta, max_rows=max_rows)
    return [(c.shape, c.basis) for shape in space.shapes()
            for c in rref_walk(shape, max_rows)]


@pytest.mark.parametrize("run_pairs, spaces", [
    # one pair per run: every pair starts a run (rows 2 and 3 on fewer
    # shapes, as each run costs a whole numpy pass)
    (1, [((0, 4), (0, 2), 1), ((0, 4), (0, 1), 2), ((0, 2), (0, 2), 2),
         ((0, 3), (0, 1), 3)]),
    # (0, 3) has 63 free words at level 0, cut into 21 runs
    (3, [((0, 4), (0, 2), 1), ((0, 4), (0, 2), 2), (3, 0, 3), (0, 3, 3)]),
    (64, [((0, 4), (0, 2), rows) for rows in (1, 2, 3)]),
])
def test_walk_is_the_same_for_any_run_size(monkeypatch, run_pairs, spaces):
    # runs cut the (base, w) pairs anywhere, a base's free words too;
    # the stream must not see the cuts
    monkeypatch.setattr(z2zu.search, "_RUN_PAIRS", run_pairs)
    for alpha, beta, rows in spaces:
        space = SearchSpace(alpha=alpha, beta=beta, max_rows=rows)
        got = [(c.shape, c.basis) for c in enumerate_candidates(space)]
        assert got == rref_stream(alpha, beta, rows)


def walk_bases(shape, max_rows):
    """The bases of _codes_by_closure's batches, in order, as tuples."""
    return [tuple(filter(None, row))
            for batch in z2zu.search._codes_by_closure(shape, max_rows)
            for row in batch.tolist()]


def test_exhaustive_batches_read_every_shape_off_the_top_walk():
    # each smaller shape's stream is read off the top shape's walk; it
    # must be that shape's own walk, the same bases in the same order
    spaces = [SearchSpace(alpha=(2, 4), beta=(1, 2), max_rows=3),
              SearchSpace(alpha=0, beta=(0, 4), max_rows=2),
              SearchSpace(alpha=(0, 5), beta=0, max_rows=3),
              SearchSpace(alpha=3, beta=2, max_rows=3),
              SearchSpace(alpha=(0, 6), beta=(0, 1), max_rows=3),
              SearchSpace(alpha=(0, 2), beta=(0, 3), max_rows=3)]
    for space in spaces:
        got = [(shape, tuple(filter(None, row)))
               for shape, batch in z2zu.search._exhaustive_batches(space)
               for row in batch.tolist()]
        expected = [(shape, basis) for shape in space.shapes()
                    for basis in walk_bases(shape, space.max_rows)]
        assert got == expected


def test_free_words_are_numbered_by_pivot_insertion(monkeypatch):
    # word i of a parent is the i-th word below 2^N, in rising order,
    # with no pivot bit of the parent.  The frontier parents of a 3-row
    # walk are the bases of its 2-row walk, the zero parent first; each
    # is padded on the left to 4 rows, so zero rows are skipped too.
    # _grow_pairs joins each pair's word to its parent first.
    joined = []
    real = z2zu.search._join

    def join(rows, x):
        joined.append(x.tolist())
        return real(rows, x)

    monkeypatch.setattr(z2zu.search, "_join", join)
    for shape in (AmbientShape(4, 2), AmbientShape(0, 4)):
        parents = walk_bases(shape, 2)
        assert parents[0] == ()
        for basis in parents:
            pivots = sum(1 << (b.bit_length() - 1) for b in basis)
            free = [w for w in range(shape.ambient_size) if not w & pivots]
            assert len(free) == shape.ambient_size >> len(basis)
            i = np.arange(1, len(free), dtype=np.uint64)
            padded = np.array([(0,) * (4 - len(basis)) + basis], np.uint64)
            joined.clear()
            z2zu.search._grow_pairs(shape, padded, np.zeros(len(i), np.intp), i)
            assert joined[0] == free[1:]


def test_complete_walk_counts_every_submodule():
    # with enough rows the walk yields every submodule of the ambient:
    # over F2^n that is every subspace, the sum of the Gaussian
    # binomials [n, k]_2 over k
    def gaussian(n, k):
        num = den = 1
        for i in range(k):
            num *= (1 << (n - i)) - 1
            den *= (1 << (i + 1)) - 1
        return num // den

    counts = []
    for n in range(1, 7):
        bases = walk_bases(AmbientShape(n, 0), n)
        assert len(set(bases)) == len(bases)
        counts.append(len(bases))
        assert counts[-1] == sum(gaussian(n, k) for k in range(n + 1))
    assert counts == [2, 5, 16, 67, 374, 2825]
    # (4, 2) and (6, 1) reach N = 8, where the whole ambient, a base
    # with no free words, sits among other bases of its level
    for alpha, beta, total in ((0, 3, 129), (2, 2, 249), (4, 2, 12015)):
        shape = AmbientShape(alpha, beta)
        rows = shape.big_n
        got = walk_bases(shape, rows)
        assert got == [c.basis for c in rref_walk(shape, rows)]
        assert len(got) == total
    # count only: the scalar walk takes seconds here
    shape = AmbientShape(6, 1)
    bases = walk_bases(shape, shape.big_n)
    assert len(set(bases)) == len(bases) == 55599


def test_walk_with_multi_limb_keys_equals_rref_walk():
    # N = 9 and W = min(2 * 4, 9) = 8 rows give 72-bit keys in two
    # limbs; every other walk test keys in one
    shape, rows = AmbientShape(1, 4), 4
    assert z2zu.search._keys(np.zeros((1, 8), np.uint64), 9, 8).itemsize == 16
    got = walk_bases(shape, rows)
    assert len(got) == len(set(got)) == 13439
    assert got == [c.basis for c in rref_walk(shape, rows)]


def test_keys_hold_every_bit_of_every_entry(rng):
    # decoding a key gives its row back: (8, 8) and (5, 3) fit one
    # limb, and each other case splits an entry across two limbs
    for n, width in ((8, 8), (9, 8), (10, 10), (11, 6), (26, 6), (5, 3)):
        rows = np.array([[rng.getrandbits(n) for _ in range(width)]
                         for _ in range(50)], np.uint64)
        keys = z2zu.search._keys(rows, n, width)
        limbs = keys.view(np.uint64).reshape(len(rows), -1).tolist()
        assert len(limbs[0]) == -(-width * n // 64)
        for row, key in zip(rows.tolist(), limbs):
            value = sum(x << (64 * q) for q, x in enumerate(key))
            assert [(value >> (n * j)) & ((1 << n) - 1)
                    for j in reversed(range(width))] == row


def corrupt_first_child(mode):
    """A _grow_pairs that corrupts the first kept child of its first
    call (the zero parent's, so a basis {w, r} of rank 2) and records
    the corrupted basis: 'reduced' sets the lower row's leading bit in
    the upper row, 'u_closed' drops the row of the two whose u multiple
    is 0, leaving {x} with u*x not in it."""
    real = z2zu.search._grow_pairs
    corrupted = []

    def grow(shape, parents, owner, i):
        children, keep = real(shape, parents, owner, i)
        if corrupted:
            return children, keep
        a = np.uint64(shape.ring_a_mask)
        for p in np.flatnonzero(keep):
            low, high = children[-2:, p]
            if not low:
                continue
            if mode == "reduced":
                top = 1 << (int(low).bit_length() - 1)
                children[-1, p] = high | np.uint64(top)
            else:
                x = high if high & a else low
                if not x & a:
                    continue
                children[:, p] = 0
                children[-1, p] = x
            corrupted.append(tuple(filter(None, children[:, p].tolist())))
            break
        return children, keep

    return grow, corrupted


@pytest.mark.parametrize("mode", ["reduced", "u_closed"])
def test_walk_checks_each_batch_before_yielding_it(monkeypatch, mode):
    # a child the kernel got wrong raises before its batch is yielded
    grow, corrupted = corrupt_first_child(mode)
    monkeypatch.setattr(z2zu.search, "_grow_pairs", grow)
    shape = AmbientShape(2, 2)
    yielded = []
    with pytest.raises(InternalVerificationFailure, match="not a sorted"):
        for batch in z2zu.search._codes_by_closure(shape, 2):
            yielded += [tuple(filter(None, row)) for row in batch.tolist()]
    assert len(corrupted) == 1
    assert yielded == [()]
    assert corrupted[0] not in yielded
    # each mode breaks one property: a reduced basis is its own
    # elimination, a u-closed one its own with the u multiples
    basis = corrupted[0]
    reduced = _rref(shape, basis, u_closed=False) == basis
    assert (reduced, _rref(shape, basis) == basis) == (
        (False, False) if mode == "reduced" else (True, False))


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


# spaces with alpha = 0 and beta = 0 shapes and one to three rows; the
# fifth and sixth have one shape, where randrange(1) still draws a bit
# until it is 0, and a power-of-two count of shapes (4), where the top
# half of the shape-index bits is rejected.  The last three sit at the
# width boundary of the numpy blocks: alpha = 31, beta = 15 is the
# widest batched space (fields of exactly 32 bits), a shape with
# alpha = 32 or beta = 16 sends its space to the loop per draw, and 35
# shapes at 5 rows give lone shape words and 10 rank vectors
RANDOM_SPACES = [
    dict(alpha=(0, 3), beta=(0, 2), max_rows=1),
    dict(alpha=(0, 4), beta=(0, 1), max_rows=2),
    dict(alpha=(0, 2), beta=(0, 3), max_rows=3),
    dict(alpha=(2, 6), beta=(1, 4), max_rows=3),
    dict(alpha=3, beta=2, max_rows=3),
    dict(alpha=(1, 2), beta=(0, 1), max_rows=2),
    dict(alpha=31, beta=15, max_rows=2),
    dict(alpha=(31, 32), beta=(15, 16), max_rows=2),
    dict(alpha=(0, 6), beta=(0, 4), max_rows=5),
]


@pytest.mark.parametrize("seed", [0, 1, 2, 11])
def test_random_stream_matches_plain_draws(seed):
    for kw in RANDOM_SPACES:
        space = SearchSpace(mode="random", budget=400, seed=seed, **kw)
        assert (stream_rows(enumerate_candidates(space))
                == stream_rows(drawn_codes(space)))


@pytest.mark.parametrize("block_draws, words_per_field", [
    (1, 0.5), (3, 0.3), (7, 1.0)])
def test_random_stream_ignores_blocks_and_refills(
        monkeypatch, block_draws, words_per_field):
    # blocks of a few draws that draw too few words for them: a block
    # ends inside a draw, carries its words over and the next draws more
    monkeypatch.setattr(z2zu.search, "_BLOCK_DRAWS", block_draws)
    monkeypatch.setattr(z2zu.search, "_WORDS_PER_FIELD", words_per_field)
    for seed in (0, 11):
        for kw in RANDOM_SPACES:
            space = SearchSpace(mode="random", budget=101, seed=seed, **kw)
            assert (stream_rows(enumerate_candidates(space))
                    == stream_rows(drawn_codes(space)))


def test_batched_basis_is_checked_against_rref(monkeypatch):
    # the scalar _rref of a surviving draw must give the batched basis;
    # an _rref that drops a row disagrees on some draw
    plain = z2zu.search._rref
    monkeypatch.setattr(z2zu.search, "_rref",
                        lambda shape, rows: plain(shape, rows[1:]))
    space = SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=2,
                        mode="random", budget=400, seed=0)
    with pytest.raises(InternalVerificationFailure, match="batched basis"):
        list(enumerate_candidates(space))


def test_batched_bases_equal_rref():
    # 2^12 draws of 5 rows over mixed shapes up to the width boundary
    # (alpha = 31, beta = 15, N = 61), in one call, with forced zero,
    # repeated and u-only rows: each column is the draw's _rref basis
    rng = random.Random(5)
    shapes = [AmbientShape(31, 15), AmbientShape(0, 15), AmbientShape(31, 0),
              AmbientShape(7, 9), AmbientShape(1, 1)]
    picked, draws = [], []
    for _ in range(1 << 12):
        shape = rng.choice(shapes)
        rows = [rng.randrange(shape.ambient_size) for _ in range(5)]
        for j in rng.sample(range(5), rng.randrange(4)):
            rows[j] = rng.choice([0, rows[j - 1],
                                  _u_mul_packed(shape, rows[j])])
        picked.append(shape)
        draws.append(rows)
    bases = z2zu.search._bases(
        np.array(draws, np.uint64),
        np.array([s.ring_a_mask for s in picked], np.uint64))
    assert bases.shape == (10, 1 << 12)
    for shape, rows, column in zip(picked, draws, bases.T.tolist()):
        assert tuple(filter(None, column)) == _rref(shape, rows)
        assert column == sorted(column)


@pytest.mark.parametrize("target", TARGETS)
def test_rank_first_stream_is_the_filtered_stream(target):
    # a targeted stream holds exactly the codes of the untargeted stream
    # that the size rule keeps on their cardinality, in the same order:
    # in random mode the rule runs on each draw's rank, first drawings
    # first, in exhaustive mode on each code walked
    kept = 0
    for seed in (0, 1, 2):
        for kw in RANDOM_SPACES:
            space = SearchSpace(mode="random", budget=400, seed=seed,
                                target=target, **kw)
            expected = [c for c in drawn_codes(space)
                        if _size_fits(target, c.shape, c.cardinality)]
            got = list(enumerate_candidates(space))
            assert stream_rows(got) == stream_rows(expected)
            kept += len(got)
    assert kept
    kept = 0
    for kw in (dict(alpha=(0, 3), beta=(0, 1), max_rows=2),
               dict(alpha=(0, 4), beta=(0, 2), max_rows=2),
               dict(alpha=2, beta=1, max_rows=3)):
        space = SearchSpace(target=target, **kw)
        walked = list(enumerate_candidates(replace(space, target=None)))
        expected = [c for c in walked
                    if _size_fits(target, c.shape, c.cardinality)]
        got = list(enumerate_candidates(space))
        assert [(c.shape, c.basis) for c in got] == [
            (c.shape, c.basis) for c in expected]
        # the zero code, at least, is dropped
        assert len(got) < len(walked)
        kept += len(got)
    assert kept


def test_search_reads_the_one_candidate_stream(monkeypatch):
    # in both modes the search takes its candidates from
    # enumerate_candidates, on the targeted space
    plain = z2zu.search.enumerate_candidates
    spaces, yielded = [], []

    def counted(space):
        spaces.append(space)
        for code in plain(space):
            yielded.append(code)
            yield code

    monkeypatch.setattr(z2zu.search, "enumerate_candidates", counted)
    kw = dict(alpha=(1, 3), beta=(0, 1), max_rows=2, target="one_weight")
    for space in (SearchSpace(**kw),
                  SearchSpace(mode="random", budget=300, seed=1, **kw)):
        spaces.clear()
        yielded.clear()
        hits = search_with_pruning(space)
        assert hits
        assert spaces == [space]
        assert len(yielded) >= len(hits)


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


def test_batched_basis_rule_equals_the_scalar_rule():
    # the survey reads the basis-row rule on a whole batch; it must
    # agree with _basis_weights_fit, the search's rule, on every code
    space = SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=3)
    fired = {1: 0, 2: 0}
    for shape, batch in z2zu.search._exhaustive_batches(space):
        codes = [AdditiveCode(shape, None, tuple(filter(None, row)))
                 for row in batch.tolist()]
        for t in (1, 2):
            mask = z2zu.search._batch_weights_fit(shape, batch, t)
            assert mask.tolist() == [_basis_weights_fit(c, t) for c in codes]
            fired[t] += len(codes) - int(mask.sum())
    assert fired[1] > fired[2] > 0


def test_batched_one_weight_rule_equals_the_lee_count():
    # the survey reads one-weightness on the batch; it must agree with
    # the Lee enumerator on every code of the survey's walk
    space = SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=3)
    one = nonzero = 0
    for shape, batch in z2zu.search._exhaustive_batches(space):
        mask = z2zu.search._batch_one_weight(shape, batch).tolist()
        for row, fits in zip(batch.tolist(), mask):
            code = AdditiveCode(shape, None, tuple(filter(None, row)))
            assert fits == (len(lee_enumerator(code).nonzero_weights()) == 1)
            one += fits
            nonzero += code.cardinality > 1
    assert (one, nonzero) == (316, 11136)


def test_walk_consumers_build_only_the_codes_they_keep(monkeypatch):
    # count the codes z2zu.search builds
    built = []

    def counting(*args):
        built.append(args)
        return AdditiveCode(*args)

    monkeypatch.setattr(z2zu.search, "AdditiveCode", counting)
    report = verify_fsd_classification(4, 2, 3)
    assert report.codes_examined == 11150
    # 4,407 codes have |C|^2 = 2^N, and 10 of them pass the batched
    # one-weight rule; the expected list adds its own
    assert len(built) <= 10 + len(report.expected)
    built.clear()
    space = SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=3,
                        target="one_weight")
    yielded = sum(1 for _ in enumerate_candidates(space))
    assert yielded == len(built) > 0
    assert yielded < 11150


def unpruned_hits(space):
    """The codes a search of the space must hit, in hit order: every
    code of the untargeted stream, kept by weight_profile and classify
    alone, with none of the search's pruners."""
    kept = []
    for code in enumerate_candidates(replace(space, target=None)):
        if code.cardinality < 2:
            continue
        profile = weight_profile(code)
        if space.target == "two_weight_projective":
            keep = profile.is_two_weight and classify(code).projective
        else:
            keep = (profile.is_one_weight and profile.lambda_ is not None
                    and (space.target == "one_weight"
                         or classify(code).formally_self_dual))
        if keep:
            kept.append(code)
    return sorted(kept, key=lambda c: (c.shape.alpha, c.shape.beta, c.basis))


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
            pruned = search_with_pruning(space)
            assert [h.code for h in pruned] == unpruned_hits(space)
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
                pruned = search_with_pruning(space)
                assert stream_rows(h.code for h in pruned) == stream_rows(
                    unpruned_hits(space))
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


def test_empty_include_matrix_is_refused_before_the_stream(monkeypatch):
    def no_stream(space):
        raise AssertionError("the stream was opened")

    monkeypatch.setattr(z2zu.search, "enumerate_candidates", no_stream)
    space = SearchSpace(alpha=2, beta=0, max_rows=1, target="one_weight")
    shape, rows = parse_matrix("1 1 |\n")
    for include in ([[]], [rows, ()]):
        with pytest.raises(ValueError, match="empty include matrix"):
            search_with_pruning(space, include=include)


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
    # the screen's own cap, which the tuple cap alone would not give:
    # (7, 0) and (2, 4) at 1 row fit 2^26 tuples
    cap = "screen is capped at max_alpha = 6, max_beta = 3"
    for args in ((7, 1), (2, 4), (7, 0, 1), (2, 4, 1)):
        with pytest.raises(ValueError, match=cap):
            verify_fsd_classification(*args)
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
