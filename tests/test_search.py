"""Candidate enumeration, pruned searches and the exhaustive screen."""

import functools
import random
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import z2zu.cli
import z2zu.core
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
from z2zu.standard_form import standard_form
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


def test_exhaustive_walk_grows_each_code_once(monkeypatch):
    # every (parent, word) pair the grow kernel is handed makes a new
    # code, and each one is yielded: no code is reached twice
    pairs = []
    real = z2zu.search._grow

    def counting(shape, parents, packed, tops, j):
        pairs.append(len(j))
        return real(shape, parents, packed, tops, j)

    monkeypatch.setattr(z2zu.search, "_grow", counting)
    codes = list(enumerate_candidates(SearchSpace(alpha=1, beta=2, max_rows=2)))
    assert sum(pairs) == len(codes) - 1 == len(set(codes)) - 1
    for shape, rows in ((AmbientShape(2, 2), 8), (AmbientShape(0, 4), 3)):
        pairs.clear()
        bases = walk_bases(shape, rows)
        assert sum(pairs) == len(bases) - 1 == len(set(bases)) - 1


def test_top_bits_is_exact_on_uint64():
    # float64 rounds 2^54 - 1 up to 2^54, and 2^63 + 5 has 64 bits
    values = [0, 1, (1 << 53) - 1, (1 << 53) + 1, (1 << 54) - 1,
              (1 << 61) - 1, (1 << 63) + 5, (1 << 64) - 1]
    got = z2zu.search._top_bits(np.array(values, np.uint64)).tolist()
    assert got == [1 << (v.bit_length() - 1) if v else 0 for v in values]


def rref_walk(shape, max_rows):
    """Every code generated by up to max_rows rows, by closure: each
    level grows each new code of the last by its reduced words, one of
    each pair w, w + u*w, eliminates each child from scratch by _rref
    and keeps the ones not seen before.  This is the set of codes the
    walk must yield."""
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


@functools.cache
def walk_tree(shape, max_rows):
    """The walk's tree, one parent and one word at a time, as three
    functions: the children of a walk basis, in order, its code, and
    the basis of a code's parent, from the code's basis.

    Walk coordinates put packed bit place[q] at bit q: the binary part
    lowest, then the u bits of the ring digits, then their unit bits,
    so that u lowers bits.  A code P is grown by every x above P's top
    row with no pivot of P, rising, such that u*x lies in P and P + x
    needs at most max_rows generators: its rank less the rank of its u
    multiples.  The child's walk basis is P's with x on top; its code
    has the reduced basis of its packed rows.  A code's walk basis is
    its reduced basis in walk coordinates, so its parent's is that
    basis less its top row."""
    n, ring = shape.big_n, 2 * shape.beta
    place = ([ring + i for i in range(shape.alpha)]
             + [2 * d + 1 for d in range(shape.beta)]
             + [2 * d for d in range(shape.beta)])

    def packed(y):
        return sum(1 << p for q, p in enumerate(place) if y >> q & 1)

    def walked(w):
        return sum(1 << q for q, p in enumerate(place) if w >> p & 1)

    u = [walked(_u_mul_packed(shape, packed(x))) for x in range(1 << n)]

    def children(parent):
        pivots = sum(1 << (b.bit_length() - 1) for b in parent)
        start = 1 << parent[-1].bit_length() if parent else 1
        out = []
        for x in range(start, 1 << n):
            if x & pivots or _reduce(parent, u[x]):
                continue
            child = parent + (x,)
            u_rows = [u[y] for y in child]
            u_rank = len(_rref(shape, u_rows, u_closed=False))
            if len(child) - u_rank <= max_rows:
                out.append(child)
        return out

    def code(basis):
        return AdditiveCode(shape, None, _rref(shape, map(packed, basis)))

    def parent(basis):
        rows = _rref(shape, map(walked, basis), u_closed=False)
        return code(rows[:-1]).basis

    return children, code, parent


def canonical_walk(shape, max_rows):
    """The tree rank by rank, each rank's codes grown in order: the
    batched walk's stream while no rank holds _RUN_PAIRS codes, as each
    rank is then one chunk of parents."""
    children, code, _ = walk_tree(shape, max_rows)
    level = [()]
    while level:
        yield from map(code, level)
        level = [child for parent in level for child in children(parent)]


def preorder_walk(shape, max_rows):
    """The tree in pre-order, each code before its children's subtrees,
    in order: the batched walk's stream at one pair per run, where each
    chunk of parents is one code."""
    children, code, _ = walk_tree(shape, max_rows)

    def subtree(parent):
        yield code(parent)
        for child in children(parent):
            yield from subtree(child)

    return subtree(())


@functools.cache
def reference_bases(walk, shape, max_rows):
    """A reference walk's bases on one shape, in its order."""
    return [c.basis for c in walk(shape, max_rows)]


def shape_streams(stream):
    """(shape, basis) pairs split by shape, as {shape: bases in order},
    the shapes in the order of their first pair."""
    out = {}
    for shape, basis in stream:
        out.setdefault(shape, []).append(basis)
    return out


def after_parent(shape, bases):
    """Every nonzero code of a shape's bases comes after its parent."""
    parent = walk_tree(shape, 1)[2]
    at = {basis: i for i, basis in enumerate(bases)}
    for basis, i in at.items():
        if basis:
            assert at.get(parent(basis), i) < i


def check_candidates(space, preorder=False):
    """enumerate_candidates' stream on an exhaustive space, split by
    shape: each shape's bases are the canonical walk's codes, each once
    and after its parent, and the from-scratch walk's set; with
    ``preorder``, the pre-order walk itself.  Every shape starts with
    its zero code, so the shapes first appear in space.shapes()'
    order."""
    rows = space.max_rows
    got = shape_streams((c.shape, c.basis) for c in enumerate_candidates(space))
    assert list(got) == space.shapes()
    for shape, bases in got.items():
        assert len(set(bases)) == len(bases)
        assert sorted(bases) == sorted(
            reference_bases(canonical_walk, shape, rows))
        assert set(bases) == set(reference_bases(rref_walk, shape, rows))
        after_parent(shape, bases)
        if preorder:
            assert bases == reference_bases(preorder_walk, shape, rows)


def test_walk_equals_rref_from_scratch_walk():
    # each shape's stream holds the canonical walk's codes, each once and
    # after its parent, and the from-scratch walk's set
    spaces = [SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=rows)
              for rows in (1, 2, 3)]
    spaces += [SearchSpace(alpha=a, beta=b, max_rows=3)
               for a, b in ((6, 1), (0, 3), (2, 3))]
    for space in spaces:
        check_candidates(space)


@pytest.mark.parametrize("run_pairs, spaces", [
    # one pair per run: every pair starts a run, and every chunk of
    # parents is one code, so each shape's stream is the tree in
    # pre-order (rows 2 and 3 on fewer shapes, as each run costs a
    # whole numpy pass; (2, 2) at 4 rows is its complete walk, as a
    # code of alpha + beta = 4 needs at most 4 generators)
    (1, [((0, 4), (0, 2), 1), ((0, 4), (0, 1), 2), ((0, 2), (0, 2), 2),
         ((0, 3), (0, 1), 3), (0, 3, 3), (2, 2, 4)]),
    # the zero code of (0, 3) has 8 unit parts to test, one passing
    # with 7 children: both cut into runs of 3
    (3, [((0, 4), (0, 2), 1), ((0, 4), (0, 2), 2), (3, 0, 3), (0, 3, 3)]),
    (64, [((0, 4), (0, 2), rows) for rows in (1, 2, 3)]),
])
def test_walk_is_the_same_for_any_run_size(monkeypatch, run_pairs, spaces):
    # runs cut the unit parts and the (parent, word) pairs anywhere, a
    # parent's words too, and the chunks of parents with them; the cuts
    # set the depth-first order, but not the codes, and at one pair per
    # run the order is pre-order
    monkeypatch.setattr(z2zu.search, "_RUN_PAIRS", run_pairs)
    for alpha, beta, rows in spaces:
        check_candidates(SearchSpace(alpha=alpha, beta=beta, max_rows=rows),
                         preorder=run_pairs == 1)


def walk_bases(shape, max_rows):
    """The bases of _codes_by_closure's batches, in order, as tuples."""
    return [tuple(filter(None, row))
            for batch in z2zu.search._codes_by_closure(shape, max_rows)
            for row in batch.tolist()]


def test_exhaustive_batches_read_every_shape_off_the_top_walk():
    # each smaller shape's batches are read off each top batch as it
    # comes, in shape order, before that top batch; each smaller
    # shape's stream holds its own walk's codes, each once and after
    # its parent
    spaces = [SearchSpace(alpha=(2, 4), beta=(1, 2), max_rows=3),
              SearchSpace(alpha=0, beta=(0, 4), max_rows=2),
              SearchSpace(alpha=(0, 5), beta=0, max_rows=3),
              SearchSpace(alpha=3, beta=2, max_rows=3),
              SearchSpace(alpha=(0, 6), beta=(0, 1), max_rows=3),
              SearchSpace(alpha=(0, 2), beta=(0, 3), max_rows=3)]
    for space in spaces:
        shapes = space.shapes()
        top, rows = shapes[-1], space.max_rows
        stream = list(z2zu.search._exhaustive_batches(space))
        last = -1
        for shape, batch in stream:
            assert shapes.index(shape) > last
            last = -1 if shape == top else shapes.index(shape)
        assert last == -1
        got = shape_streams((shape, tuple(filter(None, row)))
                            for shape, batch in stream
                            for row in batch.tolist())
        assert list(got) == shapes
        assert got[top] == walk_bases(top, rows)
        for shape in shapes[:-1]:
            bases = got[shape]
            assert len(set(bases)) == len(bases)
            assert sorted(bases) == sorted(walk_bases(shape, rows))
            after_parent(shape, bases)


def test_walk_batches_are_one_rank_wide():
    # a batch is as wide as the rank of each of its lines, with no zero
    # entry: each shape's stream starts with the zero code as a (1, 0)
    # batch.  A complete walk, a walk cut by rows and a space whose
    # smaller shapes are read off its top shape's walk
    shape = AmbientShape(2, 2)
    streams = [[(shape, batch)
                for batch in z2zu.search._codes_by_closure(shape, rows)]
               for rows in (shape.big_n, 2)]
    streams.append(list(z2zu.search._exhaustive_batches(
        SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=3))))
    for stream in streams:
        started = set()
        for shape, batch in stream:
            if shape not in started:
                started.add(shape)
                assert batch.shape == (1, 0)
            for line in batch.tolist():
                assert 0 not in line
                assert len(_rref(shape, line, u_closed=False)) == len(line)
                assert len(line) == batch.shape[1]


def test_free_words_are_numbered_by_pivot_insertion(monkeypatch):
    # word j of a parent is j with a 0 inserted at each pivot: bit t of
    # j on the parent's t-th lowest free bit.  The grow kernel puts it
    # on top of the parent's rows, which stay as they were.
    def inserted(j, pivots):
        x = q = 0
        while j:
            if not pivots >> q & 1:
                x |= (j & 1) << q
                j >>= 1
            q += 1
        return x

    calls = []
    real = z2zu.search._grow

    def grow(shape, parents, packed, tops, j):
        calls.append((parents.T.tolist(), j.tolist()))
        children, batch = real(shape, parents, packed, tops, j)
        calls[-1] += (children.T.tolist(),)
        return children, batch

    monkeypatch.setattr(z2zu.search, "_grow", grow)
    for shape in (AmbientShape(4, 2), AmbientShape(0, 4)):
        calls.clear()
        walk_bases(shape, 3)
        assert calls
        for parents, words, children in calls:
            for parent, j, child in zip(parents, words, children):
                pivots = sum(1 << (b.bit_length() - 1) for b in parent)
                assert child[:-1] == parent
                assert child[-1] == inserted(j, pivots)
                assert child[-1] >> max(parent, default=0).bit_length()


def packed_words(shape, children):
    """Walk words as packed words, bit by bit: the binary part above
    the ring digits, each digit's u bit above its unit bit."""
    alpha, beta = shape.alpha, shape.beta
    one = np.uint64(1)
    words = (children & np.uint64((1 << alpha) - 1)) << np.uint64(2 * beta)
    for d in range(beta):
        for bit, at in ((alpha + d, 2 * d + 1), (alpha + beta + d, 2 * d)):
            words |= (children >> np.uint64(bit) & one) << np.uint64(at)
    return words


def test_grown_bases_equal_the_bases_reduced_from_scratch(monkeypatch):
    # the grow kernel joins each child's new word to its parent's packed
    # basis; every batch must be the elimination of all the child's
    # packed rows, on walks cut by rows, ring-only, wide in u, binary
    # heavy and complete
    real = z2zu.search._grow
    lines = []

    def grow(shape, *args):
        children, batch = real(shape, *args)
        expected = z2zu.search._echelon(packed_words(shape, children)).T
        assert np.array_equal(batch, expected)
        lines.append(len(batch))
        return children, batch

    monkeypatch.setattr(z2zu.search, "_grow", grow)
    for alpha, beta, rows in ((4, 2, 3), (0, 4, 3), (2, 5, 2), (6, 1, 3),
                              (2, 2, 6)):
        lines.clear()
        bases = walk_bases(AmbientShape(alpha, beta), rows)
        assert sum(lines) == len(bases) - 1


def test_yielded_batches_are_read_only():
    # a batch seeds its lines' children: a consumer's write raises, and
    # the walk goes on as if none had been tried
    shape = AmbientShape(2, 2)
    stream = []
    for batch in z2zu.search._codes_by_closure(shape, 3):
        stream += [tuple(filter(None, row)) for row in batch.tolist()]
        if batch.shape[1]:
            for view in (batch, batch.T, batch[:1]):
                with pytest.raises(ValueError, match="read-only"):
                    view[0] = 0
    assert stream == walk_bases(shape, 3)


def gaussian(n, k):
    """The Gaussian binomial [n choose k]_2: the k-dimensional
    subspaces of F2^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def submodule_count(alpha, beta, rows=None):
    """The submodules of F2^alpha x R^beta, R = F2[u]/(u^2), by
    Birkhoff's count of the subgroups of each type (G. Birkhoff,
    Subgroups of abelian groups, Proc. LMS 1935), which depends only on
    the residue field F2: R^k1 + F2^t occurs
    2^(k1 (alpha + beta - k1 - t)) [alpha + beta - k1 choose t]_2
    [beta choose k1]_2 times.  Given ``rows``, only those generated by
    at most that many rows: a submodule of type R^k1 + F2^t needs
    k1 + t generators."""
    n = alpha + beta
    return sum((1 << k1 * (n - k1 - t)) * gaussian(n - k1, t)
               * gaussian(beta, k1)
               for k1 in range(beta + 1) for t in range(n - k1 + 1)
               if rows is None or k1 + t <= rows)


def test_complete_walk_counts_every_submodule():
    # with enough rows the walk yields every submodule of the ambient:
    # over F2^n that is every subspace, the sum of the Gaussian
    # binomials [n, k]_2 over k
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
        assert got == [c.basis for c in canonical_walk(shape, rows)]
        assert set(got) == {c.basis for c in rref_walk(shape, rows)}
        assert len(got) == total
    # count only: the scalar walks take seconds here
    shape = AmbientShape(6, 1)
    bases = walk_bases(shape, shape.big_n)
    assert len(set(bases)) == len(bases) == 55599
    # every shape with N <= 8 against Birkhoff's count, which owes the
    # walk nothing, and the count of every complete walk pinned in this
    # file or in CI, with (10, 0)'s, a walk of 82 s
    shapes = 0
    for alpha in range(9):
        for beta in range((8 - alpha) // 2 + 1):
            if alpha + beta:
                shape = AmbientShape(alpha, beta)
                walk = z2zu.search._codes_by_closure(shape, shape.big_n)
                assert sum(len(batch) for batch in walk) == submodule_count(
                    alpha, beta)
                shapes += 1
    assert shapes == 24
    pins = {(4, 2): 12015, (6, 1): 55599, (4, 3): 378453, (6, 2): 1916373,
            (8, 1): 16149717, (10, 0): 229755605}
    assert {shape: submodule_count(*shape) for shape in pins} == pins


def test_walk_of_nine_bits_at_four_rows_equals_the_scalar_walks():
    # N = 9 at 4 rows, up to rank 8: the widest bases of the walk tests
    shape, rows = AmbientShape(1, 4), 4
    got = walk_bases(shape, rows)
    assert len(got) == len(set(got)) == 13439
    assert got == [c.basis for c in canonical_walk(shape, rows)]
    assert set(got) == {c.basis for c in rref_walk(shape, rows)}


@pytest.mark.parametrize("alpha, beta, rows, count", [
    # complete walks
    (4, 3, 10, 378453), (6, 1, 8, 55599),
    # walks cut by generator count
    (4, 2, 3, 8630), (2, 3, 3, 3570), (0, 4, 3, 1916), (6, 1, 3, 27102),
    (3, 2, 2, 659), (1, 4, 4, 13439),
])
def test_walk_counts_equal_the_deduplicating_walk(alpha, beta, rows, count):
    # the counts of a walk that grew every code by every free word and
    # kept the first occurrence of each basis by an exact key
    walk = z2zu.search._codes_by_closure(AmbientShape(alpha, beta), rows)
    assert sum(len(batch) for batch in walk) == count


def test_walk_memory_follows_the_depth_of_the_tree():
    # the complete (6, 2) walk, 1,916,373 codes in 11 ranks, holds a few
    # chunks of parents per rank, each with its packed bases: its traced
    # peak is 9.5 MB (7.9 MB without the packed bases), against 31.8 MB
    # when the walk held each rank whole before growing it
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        walk = z2zu.search._codes_by_closure(AmbientShape(6, 2), 10)
        count = sum(len(batch) for batch in walk)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert count == 1916373
    assert peak < 12 << 20


def test_row_cut_walks_are_the_complete_walks_codes_of_few_rows():
    # the walk cuts its tree by generator count; here that count is
    # k0 + k1 + k2, the rows of each complete-walk code's standard form
    counts = {(3, 2): [80, 659, 1346], (0, 4): [136, 1151, 1916],
              (2, 2): [40, 175, 244]}
    for alpha, beta in ((2, 2), (0, 3), (3, 2), (1, 3), (4, 1), (0, 4)):
        shape = AmbientShape(alpha, beta)
        rows = {b: len(standard_form(AdditiveCode(shape, None, b)).rows)
                for b in walk_bases(shape, shape.big_n)}
        got = []
        for r in (1, 2, 3):
            bases = walk_bases(shape, r)
            assert len(bases) == len(set(bases))
            assert set(bases) == {b for b, g in rows.items() if g <= r}
            got.append(len(bases))
        assert got == counts.get((alpha, beta), got)


def corrupt_first_child(mode):
    """A _grow that corrupts the first line of rank 2 it returns and
    records the corrupted basis: 'reduced' sets the lower row's leading
    bit in the upper row, 'u_closed' writes a ring-only row x with a
    unit bit under a binary-only row, sorted and reduced, u*x in
    neither, 'zero' clears the lower row of a line whose upper row
    has no unit bit, so that the rest is still closed under u, 'order'
    swaps the two rows and 'high' sets bit N in the upper row."""
    real = z2zu.search._grow
    corrupted = []

    def grow(shape, *args):
        children, batch = real(shape, *args)
        if corrupted or len(children) < 2:
            return children, batch
        a = shape.ring_a_mask
        for line in batch:
            low, high = line
            if mode == "reduced":
                line[1] = high | np.uint64(1 << (int(low).bit_length() - 1))
            elif mode == "u_closed":
                line[:] = a & -a, 1 << 2 * shape.beta
            elif mode == "order":
                line[:] = high, low
            elif mode == "high":
                line[1] = high | np.uint64(1 << shape.big_n)
            elif high & np.uint64(a):
                continue
            else:
                line[0] = 0
            corrupted.append(tuple(line.tolist()))
            break
        return children, batch

    return grow, corrupted


@pytest.mark.parametrize("mode", ["reduced", "u_closed", "zero", "order",
                                  "high"])
def test_walk_checks_each_batch_before_yielding_it(monkeypatch, mode):
    # a child the kernel got wrong raises before its batch is yielded;
    # the zero code and the rank-1 level come before it
    grow, corrupted = corrupt_first_child(mode)
    monkeypatch.setattr(z2zu.search, "_grow", grow)
    shape = AmbientShape(2, 2)
    yielded = []
    with pytest.raises(InternalVerificationFailure, match="not a sorted"):
        for batch in z2zu.search._codes_by_closure(shape, 2):
            yielded += [tuple(filter(None, row)) for row in batch.tolist()]
    assert len(corrupted) == 1
    expected = [c.basis for c in canonical_walk(shape, 2)]
    assert yielded == [b for b in expected if len(b) < 2]
    assert corrupted[0] not in yielded
    # each mode breaks one property: a reduced basis is its own
    # elimination, a u-closed one its own with the u multiples, and the
    # zero row, the order or bit N is all that is wrong with a 'zero',
    # 'order' or 'high' line
    basis = corrupted[0]
    fixed = {"zero": basis[1:], "order": basis[::-1],
             "high": (basis[0], basis[1] ^ 1 << shape.big_n)}.get(mode)
    if fixed is not None:
        assert _rref(shape, fixed) == fixed
        assert {"zero": basis[0] == 0, "order": basis[0] > basis[1],
                "high": basis[1] >> shape.big_n == 1}[mode]
        return
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


def test_exhaustive_cap_refuses_one_shape_before_counting():
    # one shape alone past the cap, 2^(N * rows) tuples, is refused
    # before the exact count, an integer of N * rows bits, is built
    for rows in (15000, 10**12):
        space = SearchSpace(alpha=1, beta=0, max_rows=rows)
        cap = rf"2\^{rows} generator tuples; the exhaustive cap"
        with pytest.raises(SpaceTooLarge, match=cap):
            next(enumerate_candidates(space))


def test_exhaustive_cap_refuses_before_any_shape_is_built(
        monkeypatch, capsys):
    # a space whose shape list alone would take gigabytes is refused
    # off its ranges' upper ends, by the library and the CLI alike
    def built(*args):
        raise AssertionError("a shape list was built")

    monkeypatch.setattr(SearchSpace, "shapes", built)
    monkeypatch.setattr(z2zu.search, "_rank_fits", built)
    message = ("AmbientShape(alpha=30000, beta=30000) alone holds 2^90000 "
               "generator tuples; the exhaustive cap is 67108864")
    space = SearchSpace(alpha=(0, 30000), beta=(0, 30000), max_rows=1,
                        target="one_weight")
    for refused in (lambda: next(enumerate_candidates(space)),
                    lambda: verify_fsd_classification(30000, 30000, 1)):
        with pytest.raises(SpaceTooLarge) as info:
            refused()
        assert str(info.value) == message
    for argv in (["--target", "one-weight", "--alpha", "0..30000",
                  "--beta", "0..30000"],
                 ["--verify-thm-4.5", "--alpha", "30000",
                  "--beta", "30000"]):
        assert z2zu.cli.main(["search", "--rows", "1"] + argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


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
# half of the shape-index bits is rejected.  The seventh has seven
# shapes, so s = 3 and a rejected word whose top bits are 100, 101 or
# 110 is a lone shape word: 3/8 of all words, several to a gap and some
# among the row fields.  The last three sit at the width boundary of
# the numpy blocks: alpha = 31, beta = 15 is the widest batched space
# (fields of exactly 32 bits), a shape with alpha = 32 or beta = 16
# sends its space to the loop per draw, and 34 shapes at 5 rows give
# lone shape words and 10 rank vectors.  The last is drawn per draw
# too, from ranges that start at 0: its shape indices skip (0, 0)
RANDOM_SPACES = [
    dict(alpha=(0, 3), beta=(0, 2), max_rows=1),
    dict(alpha=(0, 4), beta=(0, 1), max_rows=2),
    dict(alpha=(0, 2), beta=(0, 3), max_rows=3),
    dict(alpha=(2, 6), beta=(1, 4), max_rows=3),
    dict(alpha=3, beta=2, max_rows=3),
    dict(alpha=(1, 2), beta=(0, 1), max_rows=2),
    dict(alpha=(0, 7), beta=0, max_rows=2),
    dict(alpha=31, beta=15, max_rows=2),
    dict(alpha=(31, 32), beta=(15, 16), max_rows=2),
    dict(alpha=(0, 6), beta=(0, 4), max_rows=5),
    dict(alpha=(0, 32), beta=(0, 1), max_rows=2),
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


def test_random_block_cap_is_checked_before_any_draw(monkeypatch):
    # a block of 2^12 draws of 57 rows takes 4096 * 115 * 2.2 words,
    # under the 2^20 cap; 58 rows, or a single draw of 10^9 rows, on
    # the batched path or the plain one (alpha = 32), is refused before
    # the generator draws a bit
    class NoDraws(Exception):
        pass

    def no_draws(self, *args):
        raise NoDraws

    monkeypatch.setattr(random.Random, "getrandbits", no_draws)
    monkeypatch.setattr(random.Random, "randrange", no_draws)
    kw = dict(beta=(1, 4), mode="random", seed=0)
    for alpha, rows, budget in ((6, 57, 10**6), (32, 57, 4096), (6, 3, 1)):
        space = SearchSpace(alpha=(2, alpha), max_rows=rows, budget=budget,
                            **kw)
        with pytest.raises(NoDraws):
            next(enumerate_candidates(space))
    for alpha, rows, budget in ((6, 58, 4096), (6, 10**9, 1), (32, 10**9, 1)):
        space = SearchSpace(alpha=(2, alpha), max_rows=rows, budget=budget,
                            **kw)
        with pytest.raises(SpaceTooLarge, match=r"words; the cap is 1048576"):
            next(enumerate_candidates(space))


def test_wide_random_space_builds_no_shape_list(monkeypatch, capsys):
    # a space with a shape too wide for the numpy blocks draws each
    # shape off its ranges: one of 30001^2 - 1 shapes costs no list or
    # table of them, in the library and the CLI alike
    def built(*args):
        raise AssertionError("a shape list was built")

    monkeypatch.setattr(SearchSpace, "shapes", built)
    monkeypatch.setattr(z2zu.search, "_rank_fits", built)
    space = SearchSpace(alpha=(0, 30000), beta=(0, 30000), max_rows=1,
                        mode="random", budget=20, seed=0)
    codes = list(enumerate_candidates(space))
    assert len(codes) == 20
    assert all(c.shape.big_n > 2 for c in codes)
    assert z2zu.cli.main(["search", "--target", "one-weight", "--budget", "1",
                          "--alpha", "0..30000", "--beta", "0..30000",
                          "--rows", "1"]) == 0
    assert capsys.readouterr().out == ""


def test_batched_bases_equal_rref():
    # one call per batch, each column the draw's _rref basis: 2^12 draws
    # of 5 rows over mixed shapes up to the width boundary (alpha = 31,
    # beta = 15, N = 61), and of 6 rows of 4-bit words, so 12 rows, more
    # than the words have bits, sweep only the last 4 slots, the ones
    # above staying leading zeros, each with forced zero, repeated and
    # u-only rows; then each batch zeroed, which sweeps none
    wide = [AmbientShape(31, 15), AmbientShape(0, 15), AmbientShape(31, 0),
            AmbientShape(7, 9), AmbientShape(1, 1)]
    for seed, shapes, width in ((5, wide, 5), (6, [AmbientShape(2, 1)], 6)):
        rng = random.Random(seed)
        picked, draws = [], []
        for _ in range(1 << 12):
            shape = rng.choice(shapes)
            rows = [rng.randrange(shape.ambient_size) for _ in range(width)]
            for j in rng.sample(range(width), rng.randrange(4)):
                rows[j] = rng.choice([0, rows[j - 1],
                                      _u_mul_packed(shape, rows[j])])
            picked.append(shape)
            draws.append(rows)
        g = np.array(draws, np.uint64).T
        a_mask = np.array([s.ring_a_mask for s in picked], np.uint64)
        words = np.concatenate((g, (g & a_mask) << np.uint64(1)))
        for batch, rows in ((words, draws), (0 * words, [[0]] * len(draws))):
            bases = z2zu.search._echelon(batch)
            assert bases.shape == (2 * width, 1 << 12)
            for shape, drawn, column in zip(picked, rows, bases.T.tolist()):
                assert tuple(filter(None, column)) == _rref(shape, drawn)
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


def test_batched_one_weight_rule_equals_the_lee_count(monkeypatch):
    # the survey reads one-weightness on the batch; it must agree with
    # the Lee enumerator on every code of the survey's walk, of a
    # ring-heavy walk, and of a 4-row walk, whose ranks reach N.  Only
    # the lines whose basis rows share one Lee weight have their words
    # built, and the zero codes, which have no rows to differ
    real = z2zu.search._doubled
    built = []

    def doubled(rows):
        built.append(rows.shape[1])
        return real(rows)

    monkeypatch.setattr(z2zu.search, "_doubled", doubled)
    for space, counts in (
        (SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=3),
         (1001, 316, 11136)),
        (SearchSpace(alpha=(0, 2), beta=(0, 3), max_rows=3), (360, 144, 4666)),
        (SearchSpace(alpha=(0, 3), beta=(0, 1), max_rows=4), (74, 45, 172)),
    ):
        built.clear()
        rows = one = nonzero = 0
        for shape, batch in z2zu.search._exhaustive_batches(space):
            mask = z2zu.search._batch_one_weight(shape, batch).tolist()
            for row, fits in zip(batch.tolist(), mask):
                code = AdditiveCode(shape, None, tuple(filter(None, row)))
                assert fits == (len(lee_enumerator(code).nonzero_weights())
                                == 1)
                one += fits
                nonzero += code.cardinality > 1
                rows += (code.cardinality > 1
                         and _basis_weights_fit(code, 1))
        assert (rows, one, nonzero) == counts
        assert sum(built) == rows + len(space.shapes())


def test_survey_checks_the_batched_rule_against_the_lee_count(monkeypatch):
    # a line the batched rule keeps wrongly is an internal failure, not
    # a code the scalar count quietly drops
    monkeypatch.setattr(z2zu.search, "_batch_one_weight",
                        lambda shape, batch: np.ones(len(batch), bool))
    with pytest.raises(InternalVerificationFailure,
                       match="batched one-weight rule"):
        verify_fsd_classification(2, 1)


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


def test_small_codes_build_no_limb_array(monkeypatch):
    # every Lee count and orthogonality test of the survey's kept codes
    # and their duals, and of a random search's candidates and hits,
    # runs in Python ints: the only limb array packed is each shape's
    # ring_a_mask, once per shape object
    to_limbs, callers = z2zu.core._to_limbs, []

    def counted(shape, xs):
        callers.append((sys._getframe(1).f_code.co_name, shape))
        return to_limbs(shape, xs)

    monkeypatch.setattr(z2zu.core, "_to_limbs", counted)
    assert verify_fsd_classification(4, 2, 3).matches
    space = SearchSpace(alpha=(2, 6), beta=(1, 4), max_rows=3, mode="random",
                        budget=10000, seed=7, target="one_weight")
    assert search_with_pruning(space)
    assert {name for name, _ in callers} == {"ring_a_limbs"}
    assert len({id(shape) for _, shape in callers}) == len(callers)


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


# (max_alpha, max_beta, max_rows) -> codes examined: the four ranges CI
# surveys, ring-only and binary-only ranges, the smallest range with
# both parts, and (6, 3) at 1 row, the widest top shape the screen takes
SURVEY_RANGES = {(4, 2, 3): 11150, (6, 1, 3): 34293, (2, 3, 3): 4677,
                 (4, 1, 4): 925, (0, 3, 3): 147, (5, 0, 4): 463,
                 (1, 1, 1): 11, (6, 3, 1): 6349}


@functools.cache
def per_shape_survey(max_alpha, max_beta, max_rows):
    """The survey's count and survivors by the per-shape route: every
    shape's stream of _exhaustive_batches counted basis by basis, and
    its batches of rank N/2 weighed in that shape (_batch_one_weight),
    the one-weight codes kept on the Lee count and formal
    self-duality."""
    space = SearchSpace(alpha=(0, max_alpha), beta=(0, max_beta),
                        max_rows=max_rows)
    examined, survivors = 0, []
    for shape, batch in z2zu.search._exhaustive_batches(space):
        examined += len(batch)
        if 2 * batch.shape[1] != shape.big_n:
            continue
        one = z2zu.search._batch_one_weight(shape, batch)
        for row in batch[one].tolist():
            code = AdditiveCode(shape, None, tuple(row))
            assert len(lee_enumerator(code).nonzero_weights()) == 1
            if is_formally_self_dual(code):
                survivors.append(code)
    survivors.sort(key=lambda c: (c.shape.alpha, c.shape.beta, c.basis))
    return examined, survivors


@pytest.mark.parametrize("args", SURVEY_RANGES)
def test_survey_off_the_top_walk_equals_the_per_shape_route(args):
    # the survey counts each top-walk line once per shape holding it and
    # screens it once, in the top shape; the per-shape route reads every
    # shape's own stream and screens it there
    examined, survivors = per_shape_survey(*args)
    assert examined == SURVEY_RANGES[args]
    report = verify_fsd_classification(*args)
    assert (report.codes_examined, list(report.survivors)) == (
        examined, survivors)


@pytest.mark.parametrize("digits", [1, -1])
def test_survey_sees_a_least_shape_off_by_one_ring_digit(
        monkeypatch, digits):
    # a least-shape rule one ring digit off miscounts or misbuilds some
    # range: its count or survivors differ, or a check raises
    oracle = {args: per_shape_survey(*args) for args in SURVEY_RANGES}
    real = z2zu.search._least_shapes

    def off(top, batch):
        a, b = real(top, batch)
        return a, np.maximum(b + digits, 0)

    monkeypatch.setattr(z2zu.search, "_least_shapes", off)
    wrong = 0
    for args, expected in oracle.items():
        try:
            report = verify_fsd_classification(*args)
        except (InternalVerificationFailure, ClassificationViolation):
            wrong += 1
            continue
        wrong += (report.codes_examined, list(report.survivors)) != expected
    assert wrong


@pytest.mark.parametrize("bit", range(4))
def test_survey_checks_each_compressed_basis(monkeypatch, bit):
    # a compression that drops a bit builds a code the scalar checks
    # refuse; the codes the (4, 2) screen keeps, of N <= 4, set each of
    # bits 0-3 somewhere
    real = z2zu.search._compressed
    monkeypatch.setattr(
        z2zu.search, "_compressed",
        lambda top, shape, words: real(top, shape, words) & ~(1 << bit))
    with pytest.raises(InternalVerificationFailure):
        verify_fsd_classification(4, 2, 3)


def test_screen_range_caps():
    # the screen's one guard is the walk's: at least one row, at most
    # 2^26 tuples; (7, 1) and (2, 4) at 3 rows are past the cap, and at
    # 1 row (7, 0) and (2, 4) fit it and run
    for args in ((7, 1), (2, 4), (6, 3)):
        with pytest.raises(SpaceTooLarge, match="the exhaustive cap is"):
            verify_fsd_classification(*args)
    for args in ((7, 0, 1), (2, 4, 1)):
        assert verify_fsd_classification(*args).matches
    with pytest.raises(ValueError):
        verify_fsd_classification(0, 0)
    with pytest.raises(ValueError, match="bad alpha range"):
        verify_fsd_classification(-1, 2)
    with pytest.raises(ValueError, match="max_rows"):
        verify_fsd_classification(4, 2, 0)


# (max_alpha, max_beta, max_rows) -> codes examined: CI's five ranges,
# then ranges past the survey's old cap of max_alpha <= 6 and
# max_beta <= 3, which the tuple cap admits
SURVEY_COUNTS = {(4, 2, 3): 11150, (6, 1, 3): 34293, (2, 3, 3): 4677,
                 (4, 1, 4): 925, (6, 3, 1): 6349,
                 (0, 4, 3): 2063, (8, 0, 3): 125353, (4, 4, 2): 408112,
                 (0, 6, 2): 216240, (8, 2, 2): 964776, (12, 0, 2): 3732369}


@pytest.mark.parametrize("args", SURVEY_COUNTS)
def test_survey_examines_every_submodule_of_its_range(args):
    # each shape of the range counts its codes of at most max_rows
    # generators once: Birkhoff's count, which owes the walk nothing
    max_alpha, max_beta, rows = args
    count = sum(submodule_count(a, b, rows)
                for a in range(max_alpha + 1) for b in range(max_beta + 1)
                if a + b)
    assert count == SURVEY_COUNTS[args]
    report = verify_fsd_classification(*args)
    assert report.matches and report.codes_examined == count


# Traced peak bounds (MB) of the survey on large ranges the cap
# admits, each read at no more than 58% of its bound (2-core host,
# Python 3.11): 4.03 MB at (8, 2, 2), 3.95 at (4, 4, 2), 3.93 at
# (6, 3, 2), 2.67 at (6, 1, 3), 1.76 at (4, 2, 3), 1.40 at (12, 0, 2),
# 0.49 at (6, 3, 1) and 0.08 at (5, 0, 5).  The walk carries each
# batch's packed bases to grow the next, and each top batch is weighed
# on its basis rows, then the lines that pass whole.
SURVEY_PEAK_MB = {(8, 2, 2): 7, (4, 4, 2): 7, (6, 3, 2): 7, (6, 1, 3): 8,
                  (4, 2, 3): 5, (12, 0, 2): 3, (6, 3, 1): 1, (5, 0, 5): 0.2}


@pytest.mark.parametrize("args", SURVEY_PEAK_MB)
def test_survey_memory_stays_bounded(args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = verify_fsd_classification(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.matches
    assert peak < SURVEY_PEAK_MB[args] * 1e6, peak


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
