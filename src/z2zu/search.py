"""Exhaustive and random searches over small ambient modules.

Exhaustive enumeration walks distinct codes rather than generator
tuples, as a tree in which every code has one parent, so no code is
reached twice and nothing is deduplicated (canonical-parent generation,
as in Read 1978 and McKay 1998, with a trivial group).  The tree lives
in walk coordinates, which order a packed word's bits as the binary
part, then the u bits of the ring digits, then their unit bits, lowest
first, so u lowers bits: it moves the unit bits down by beta.  There
the rows below the top row x of a code's reduced basis span its words
below x's leading bit, a code closed under u: its parent.  So the
children of P are P + x for the x above P's top pivot, free of P's
pivots, with u*x in P, and the child's basis is P's with x on top.
A code's children depend on it alone, so the walk needs no level: it
yields the tree depth first, a chunk of parents' children and then
their subtrees (_codes_by_closure).

By Nakayama's lemma C needs rank(C) - rank(u*C) generators.  u kills
exactly the words with no unit bit and moves a row's leading unit bit
down by beta, so rank(u*C) is the number of unit pivots of C's reduced
walk basis.  The child gains one, x's leading bit, exactly when x has a
unit bit: it needs as many generators as P then and one more
otherwise.  The count never falls from parent to child: the codes
generated by up to max_rows rows are a subtree, and the walk grows
nothing past it.  Word j of a parent is j with a 0 inserted at each of
its pivots; its free unit bits are its top free bits, so the top bits
of j fix u*x, and each unit part is tested once: every word of a part
that passes is a child.  Only x is taken back to a packed word, and it
joins the packed reduced basis of P, which the walk carries with P's
walk basis, in one elimination step.  One vectorized check per batch
(_check_bases) confirms that every basis is in sorted reduced echelon
form, below 2^N and closed under u before the batch is yielded,
read-only, as its lines' children grow from it.  Far fewer candidates
are touched than the (2^(alpha+2*beta))^g generator tuples the space
nominally contains.  That nominal count is still the budget guard:
exhaustive mode refuses a space whose tuples, summed over all its
shapes, exceed 2^26.  Random mode drops repeated codes by an exact
key: the shape and the reduced basis, at most alpha + 2*beta integers.

An exhaustive space is walked once, on its top shape (A, B), the last
of its shapes.  Shape (a, b) sits in (A, B) on the last a binary and
the last b ring columns, the low bits of each part, so its codes are
the top's codes that are zero outside those bits: those whose least
shape, read off the OR of their rows (_least_shapes), fits in (a, b).
In walk coordinates those bits are the low bits of each of the three
parts, so dropping the bits that are zero takes them, in order, to
(a, b)'s own walk coordinates.  A code inside has its parent inside,
and its children inside come from the words inside, in the same order:
by induction on the rank, the top tree's codes inside (a, b),
compressed, are (a, b)'s own tree, so the top walk's bases inside
(a, b) are (a, b)'s walk's, each once and after its parent (in
pre-order, in the same order).  The low bits of each part are the ones
one shift of the binary part compresses (_compressed).
enumerate_candidates reads every smaller shape's lines off each top
batch as it comes (_exhaustive_batches).  verify_fsd_classification
builds no such batch: zero columns change neither a code's rank nor
its Lee weights, so it streams the top walk, counts each line once per
shape holding it, and screens each top batch once.

A walk batch holds bases of one rank k as a (lines, k) array, so the
consumers choose on the batch and build an AdditiveCode only for the
bases they keep: enumerate_candidates by k against the rank table the
random stream also reads (_rank_fits), verify_fsd_classification by
the shapes of N = 2k that hold a line and the one-weight rule on the
top batch (_batch_one_weight).

Both modes work on columns of reduced, increasing ``uint64`` bases:
_reduced reduces a word against a basis, which tests membership,
_joined joins a word to a basis, and _echelon reduces the rows of a
(k, n) array to n such bases, joining them row by row.  The walk tests
its parents' unit parts with _reduced and joins each child's packed
word to its parent's basis with _joined, and the random blocks build
each draw's basis of {g, u*g} with _echelon.

A random draw is handled rank first.  Its rows are drawn as packed
integers and reduced to the basis of {g, u*g}, whose rank k gives
|C| = 2^k.  enumerate_candidates, the one candidate stream, applies a
target's size rule (_size_fits) on k: in random mode so that only
passing draws are deduplicated on (shape, basis), the first drawing
kept, and built as codes; in exhaustive mode on each walked basis.  It
is read from a per-shape table filled before the first walk or block
of draws, except on the per-draw path below, which reads it per draw
and builds no shape list.  A
code's size does not depend on which rows drew it, so this yields
exactly the untargeted stream's codes that pass, in the same order.
When every shape has alpha <= 31 and beta <= 15, the draws come in
numpy blocks of at most 2^12: one bulk getrandbits call gives a
block's 32-bit words, randrange's rejections become masks on them, the
kernel builds every draw's basis, and each passing draw's basis must
equal the scalar core._rref of its rows.  A space with a wider shape
calls randrange per field and core._rref per draw, and reads each
draw's shape off the ranges by arithmetic.  Either way a seed
gives the stream that randrange draws would (see _random_candidates
for why), and a space whose block of draws would take more than 2^20
words of the generator is refused before the first draw.

Searches with a target prune candidates with cheap necessary
conditions before any dual work:

  one_weight       (|C|-1) divides alpha + 2*beta, the basis rows all
                   have one Lee weight, then the single weight must
                   satisfy both one-weight relations (this makes
                   "one-weight" mean one-weight without zero columns;
                   the relations fail otherwise)
  two_weight_projective
                   the basis rows show at most two Lee weights, then
                   exactly two weights and the exact quadratic in
                   (N, |C|, m1, m2) vanishes
  fsd_one_weight   the one_weight conditions plus |C|^2 = 2^N

The basis-row rule (_basis_weights_fit) reads the basis alone, before
any word is built: basis rows are nonzero codewords, so a code with at
most t nonzero Lee weights shows at most t distinct weights on them.
The one-weight survey applies the same rule to its lines of a walk
batch at once, then weighs every word of the lines that pass, on
core's kernels (_batch_one_weight); the scalar Lee count of each code
it keeps is that screen's check.

Each pruner only skips codes the target rejects; the test suite checks
the hits against an unpruned search of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classify import (
    ClassificationReport,
    _two_weight_quadratic,
    classify,
    dual_summary,
    is_formally_self_dual,
    is_projective,
    weight_profile,
)
from .core import (
    AdditiveCode,
    AmbientShape,
    MixedVector,
    _doubled,
    _gray_array,
    _lee_packed,
    _rref,
    _u_mul_packed,
    gray_parameters,
    span,
)
from .errors import (
    ClassificationViolation,
    InternalVerificationFailure,
    SpaceTooLarge,
)
from .weights import lee_enumerator

__all__ = [
    "TARGETS",
    "SearchSpace",
    "SearchHit",
    "enumerate_candidates",
    "search_with_pruning",
    "FsdSurveyReport",
    "verify_fsd_classification",
    "OPTIMALITY_TABLE",
    "optimality_check",
]

TARGETS = ("one_weight", "two_weight_projective", "fsd_one_weight")

# Exhaustive mode refuses spaces whose nominal generator-tuple count,
# summed over all shapes, exceeds this.
MAX_EXHAUSTIVE_TUPLES = 1 << 26

# Unit parts or (parent, word) pairs per numpy batch of the exhaustive
# walk, and the fewest parents it grows at once: enough to spread
# numpy's per-call cost, few enough to keep the batch small.
_RUN_PAIRS = 1 << 12

# Random draws per numpy block, and the Mersenne Twister words a block
# draws per field (a shape index or a row part) of the draws it wants:
# a field takes 2 words on average, and a block short of words carries
# its unfinished draw into the next, which draws more.
_BLOCK_DRAWS = 1 << 12
_WORDS_PER_FIELD = 2.2

# Random mode refuses a space whose block would draw more 32-bit words
# than this, 4 MiB: a block of 2^12 draws fits up to 57 rows, whose
# block arrays peak at about 45 MB, and a single draw some 238,000.
_MAX_BLOCK_WORDS = 1 << 20

# the sign and exponent bits of a float64
_EXPONENT = np.uint64(0xFFF << 52)


@dataclass(frozen=True)
class SearchSpace:
    """Shape ranges (inclusive), generator budget and mode.

    ``alpha``/``beta`` are (lo, hi) pairs; a bare int means a single
    value.  ``budget`` is the number of generator tuples drawn in
    random mode; exhaustive mode walks every code and takes none.
    The random stream is deterministic for a given ``seed``; with
    ``seed=None`` it is seeded from the OS, as ``random.Random(None)``
    is, and differs from run to run.  The CLI always passes a seed
    (default 0).
    """

    alpha: tuple[int, int]
    beta: tuple[int, int]
    max_rows: int = 3
    mode: str = "exhaustive"
    budget: int | None = None
    seed: int | None = None
    target: str | None = None

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if isinstance(value, int):
                object.__setattr__(self, name, (value, value))
        for name in ("alpha", "beta"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValueError(f"bad {name} range {getattr(self, name)}")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_rows < 1:
            raise ValueError("max_rows must be positive")
        if self.target is not None and self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.mode == "random" and (self.budget is None or self.budget < 1):
            raise ValueError("random mode needs a budget of at least 1 draw")
        if self.mode == "exhaustive" and self.budget is not None:
            raise ValueError(
                "exhaustive mode walks every code and takes no budget")

    def shapes(self) -> list[AmbientShape]:
        # a range may be empty (alpha = beta = 0): searches over it just
        # yield nothing
        out = []
        for a in range(self.alpha[0], self.alpha[1] + 1):
            for b in range(self.beta[0], self.beta[1] + 1):
                if a + b >= 1:
                    out.append(AmbientShape(a, b))
        return out

    def tuple_count(self) -> int:
        """Nominal candidate count: generator tuples across all shapes."""
        return sum(s.ambient_size ** self.max_rows for s in self.shapes())


def _top_bits(x: np.ndarray) -> np.ndarray:
    """The highest set bit of each uint64 entry, 0 for 0, exact on all
    of uint64.  y = x & ~(x >> 1) keeps x's highest bit 2^(L-1) and
    clears the bit below it, so y < 1.5 * 2^(L-1) and its float64
    rounding stays below 2^L; the float's exponent field alone, mantissa
    cleared, is then exactly 2^(L-1)."""
    y = (x & ~(x >> np.uint64(1))).astype(np.float64)
    return (y.view(np.uint64) & _EXPONENT).view(np.float64).astype(np.uint64)


def _reduced(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x reduced against columns of reduced, increasing ``uint64``
    bases: min(x, x ^ row) clears a row's leading bit from x when x has
    it, and the other rows are zero there, so the rows may come in any
    order.  x comes out 0 exactly when it lies in the span; zero rows
    leave it alone."""
    for row in rows:
        x = np.minimum(x, x ^ row)
    return x


def _echelon(words: np.ndarray) -> np.ndarray:
    """The reduced, increasing ``uint64`` bases of the columns of a
    (k, n) array, as a (k, n) array with a leading 0 per rank short of
    k: each row joins the basis built so far (_joined), in the free slot
    below it.

    A basis has no more rows than its words have bits, so only the last
    that many slots are swept: the ones above stay leading zeros."""
    k = len(words)
    bits = int(words.max(initial=0)).bit_length()
    # C order whatever the layout of words, as rows are swept whole;
    # zeros, as the slots above the last bits are never written
    out = np.zeros(words.shape, np.uint64)
    for i, x in enumerate(words):
        _joined(out[k - min(i, bits) - 1:], x)
    return out


def _joined(out: np.ndarray, x: np.ndarray) -> None:
    """Join x to the reduced, increasing bases in the columns of
    out[1:], writing the bases of their spans with x into all of
    ``out``.  x is reduced against them (_reduced) and min(row, row ^ x)
    clears x's leading bit from the rows that have it, leaving every
    leading bit where it was; then, from the largest row down, each slot
    keeps the larger of its row and x, x carrying on with the smaller
    into out[0].  A zero x joins as a leading 0."""
    rows = out[1:]
    x = _reduced(rows, x)
    np.minimum(rows, rows ^ x, out=rows)
    for row in rows[::-1]:
        lower = np.minimum(row, x)
        np.maximum(row, x, out=row)
        x = lower
    out[0] = x


def _codes_by_closure(
    shape: AmbientShape, max_rows: int
) -> Iterator[np.ndarray]:
    """All distinct codes generated by up to max_rows rows, zero code
    first, as batches of reduced bases: each batch is an (n, k)
    ``uint64`` array, one increasing basis of rank k per line, the zero
    code a (1, 0) batch, and the transpose of a C-ordered array, so the
    columns _check_bases sweeps are contiguous.

    The walk yields the tree of the module docstring depth first, a
    chunk of parents at a time: subtrees(parents, packed, depth) yields
    their children and the children's subtrees, depth ranks in all.  The
    walk bases of the children, a column of k rows per code, go onto a
    pending list run by run, each beside its batch's packed reduced
    bases, from which their own children grow (_grow), and once it
    holds _RUN_PAIRS parents or more, or the runs end, they are grown as
    the next chunk, subtree and all, before the next run.  _children and
    _grow work _RUN_PAIRS unit parts or words at a time, so a rank holds
    at most about two runs of children at once, and memory follows the
    depth of the tree, not its widest rank.  At one pair per run the
    stream is the tree in pre-order.  The pending list keeps chunks near
    _RUN_PAIRS parents: growing each run's children alone cut the (4, 2)
    walk at 3 rows into 8 batches against 7 and ran perfbench's
    survey_exhaustive 2.0-5.9% slower (5 of 5 pairs, 2-core host).  A
    batch is yielded only after _check_bases confirms every line is a
    sorted reduced echelon basis below 2^N, closed under u, and
    read-only: a write by a consumer would change the bases the subtree
    below it grows from.

    Words are ``uint64``: the exhaustive cap of 2^26 tuples keeps
    N <= 26.
    """
    def subtrees(
        parents: np.ndarray, packed: np.ndarray, depth: int,
    ) -> Iterator[np.ndarray]:
        pending: list[tuple[np.ndarray, np.ndarray]] = []
        size = 0
        for children, batch in _children(shape, parents, packed, max_rows):
            _check_bases(shape, batch)
            # its lines' children grow from it: no consumer may change it
            batch.flags.writeable = False
            yield batch
            if depth > 1:
                pending.append((children, batch.T))
                size += children.shape[1]
            if size >= _RUN_PAIRS:
                yield from subtrees(*map(np.hstack, zip(*pending)), depth - 1)
                pending, size = [], 0
        if pending:
            yield from subtrees(*map(np.hstack, zip(*pending)), depth - 1)

    yield np.zeros((1, 0), np.uint64)
    root = np.zeros((0, 1), np.uint64)
    # rank(C) is the generator count plus rank(u*C) <= min(beta, max_rows)
    yield from subtrees(root, root,
                        min(max_rows + min(shape.beta, max_rows), shape.big_n))


def _children(
    shape: AmbientShape, basis: np.ndarray, packed: np.ndarray,
    max_rows: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The children of a chunk of parents, walk bases in the columns of
    ``basis`` and their packed reduced bases in those of ``packed``, in
    the walk's order, as _grow returns them run by run.  Parent P's
    words x are word j for 2^m0 <= j < 2^(N - k), m0 counting P's free
    bits below its top pivot.  A unit part passes when u*x reduces to 0
    against P and, if P has max_rows generators already, it is not 0,
    so that x adds none; then every word of it is a child, so a parent
    costs at most 2^beta tests beside them."""
    k, count = basis.shape
    n, beta = shape.big_n, shape.beta
    tops = _top_bits(basis)
    pivots = np.bitwise_or.reduce(tops, axis=0)
    units = beta - np.bitwise_count(
        pivots >> np.uint64(n - beta)).astype(np.int64)
    low = n - k - units
    m0 = (np.bitwise_count(~pivots & (tops[-1] - np.uint64(1))).astype(
        np.int64) if k else np.zeros(count, np.int64))
    # P needs k - (beta - units) generators, rank(u*P) being its unit
    # pivots; at max_rows, unit part 0 (no unit bit in x) would add one
    first = np.maximum((1 << m0) >> low, k - beta + units == max_rows)
    # columns are gathered by take: fancy indexing ran the complete
    # (2, 5) walk in 2.8 s against 2.3-2.6 s (medians of 3 walks, 3
    # alternating rounds of processes, 2-core host)
    for owner, part in _numbered((1 << units) - first):
        part += first[owner]
        lo = part << low[owner]
        ux = _inserted(tops.take(owner, axis=1),
                       lo.astype(np.uint64)) >> np.uint64(beta)
        ok = _reduced(basis.take(owner, axis=1), ux) == 0
        owner = owner[ok]
        lo = np.maximum(lo[ok], 1 << m0[owner])
        for at, index in _numbered(((part[ok] + 1) << low[owner]) - lo):
            j = (lo[at] + index).astype(np.uint64)
            grown = owner[at]
            yield _grow(shape, *(a.take(grown, axis=1)
                                 for a in (basis, packed, tops)), j)


def _numbered(sizes: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The items of ``sizes`` numbered in order, _RUN_PAIRS at a time:
    per run, the item each number falls in and its index within it."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, _RUN_PAIRS):
        number = np.arange(start, min(start + _RUN_PAIRS, total))
        item = np.searchsorted(ends, number, side="right")
        yield item, number - ends[item] + sizes[item]


def _grow(
    shape: AmbientShape, parents: np.ndarray, packed: np.ndarray,
    tops: np.ndarray, j: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The children of (parent, word) pairs, one per entry of ``j``:
    the columns of ``parents`` are walk bases, rows increasing, those of
    ``tops`` their leading bits and those of ``packed`` their packed
    reduced bases.  Returns the children's walk bases (x, word j of its
    parent, on top of the parent's rows) and their packed reduced
    bases, one per line.  x's leading bit lies above the parent's top
    pivot, so a child of k rows has rank k: a line has no leading 0.
    Only x is packed, and it joins its parent's basis in one step of
    _echelon (_joined): a space has one reduced echelon basis, so that
    is _echelon of all k packed rows.  Packing and reducing all k rows
    instead ran the complete (2, 5) walk, 6,555,771 codes, in 2.9-3.2 s
    against 2.3-2.6 s (medians of 3 walks, 3 alternating rounds of
    processes, 2-core host)."""
    x = _inserted(tops, j)
    # packed word: binary part above the ring digits, each digit's u
    # bit above its unit bit
    alpha, beta = shape.alpha, shape.beta
    one = np.uint64(1)
    word = (x & np.uint64((1 << alpha) - 1)) << np.uint64(2 * beta)
    for d in range(beta):
        for bit, at in ((alpha + d, 2 * d + 1), (alpha + beta + d, 2 * d)):
            word |= (x >> np.uint64(bit) & one) << np.uint64(at)
    out = np.empty((len(packed) + 1, len(j)), np.uint64)
    out[1:] = packed
    _joined(out, word)
    return np.vstack((parents, x)), out.T


def _inserted(tops: np.ndarray, j: np.ndarray) -> np.ndarray:
    """j with a 0 inserted at each pivot, ``tops`` holding the leading
    bits of a basis per entry, rising: over the pivots p, lowest first,
    the bits of j at and above p move up one, so bit t of j lands on
    the t-th lowest bit that is no pivot."""
    for top in tops:
        low = j & (top - np.uint64(1))
        j = ((j ^ low) << np.uint64(1)) | low
    return j


def _check_bases(shape: AmbientShape, batch: np.ndarray) -> None:
    """Raise InternalVerificationFailure unless every line of ``batch``
    is a basis in sorted reduced echelon form (nonzero rows with rising
    leading bits, no row with another's leading bit), below 2^N and
    closed under u: u*x of each row reduces to 0 against its line.  A
    row's leading bit is its highest, so a line is below 2^N exactly
    when the OR of its leading bits is."""
    top = _top_bits(batch)
    pivots = np.bitwise_or.reduce(top, axis=1)
    ux = _u_mul_packed(shape, batch.T)
    good = ((batch != 0).all(axis=1)
            & (top[:, :-1] < top[:, 1:]).all(axis=1)
            & ((batch & pivots[:, None]) == top).all(axis=1)
            & (pivots >> np.uint64(shape.big_n) == 0)
            & (_reduced(batch.T, ux) == 0).all(axis=0))
    if not good.all():
        bad = batch[np.argmin(good)].tolist()
        raise InternalVerificationFailure(
            f"walk of {shape} built {bad}: not a sorted, reduced, u-closed "
            f"basis below 2^{shape.big_n}")


def _size_fits(target: str, shape: AmbientShape, size: int) -> bool:
    """False when no code of this size and shape can meet the target.

    Only the one-weight targets constrain |C| alone: the one-weight
    relations give N = lambda(|C|-1), and formal self-duality needs
    |C|^2 = 2^N.  Any other code of two or more words fits.
    """
    if size < 2:
        return False
    if target not in ("one_weight", "fsd_one_weight"):
        return True
    n = shape.big_n
    if n % (size - 1):
        return False
    return target == "one_weight" or size * size == 1 << n


def _basis_weights_fit(code: AdditiveCode, t: int) -> bool:
    """False when the basis rows already show more than t distinct Lee
    weights.  They are nonzero codewords, so the code then has more
    than t nonzero Lee weights; no word is built to see it.  Kept for
    speed: without it a 10,000-draw one_weight search_random unit took
    11.5-11.9 ms against 9.0-9.1 ms, 28% slower (medians of 20 units,
    3 runs, 2-core host)."""
    shape = code.shape
    return len({_lee_packed(shape, b) for b in code.basis}) <= t


def _batch_one_weight(shape: AmbientShape, batch: np.ndarray) -> np.ndarray:
    """Whether each basis of a walk batch spans a code with exactly one
    nonzero Lee weight, as a mask.  A line's basis rows are weighed
    first, as the popcounts of their Gray images (core._gray_array):
    they are nonzero codewords, so a line whose rows show two weights
    is not one-weight (the rule of _basis_weights_fit).  Only the lines
    that pass build their words: with those lines in place of limbs,
    core._doubled builds every line's words at once, column j holding
    line j's, and they are weighed the same way; only the zero word
    weighs 0, so the zero code is not one-weight.  Building every
    line's words instead took the 6 calls of
    verify_fsd_classification(4, 2, 3), on 4,398 lines, 0.62-0.74 ms
    against 0.26-0.33 ms (medians of 300 rounds, 3 alternating pairs of
    processes, 2-core host)."""
    rows = np.bitwise_count(_gray_array(shape, batch))
    fit = np.flatnonzero((rows == rows[:, :1]).all(axis=1))
    lee = np.bitwise_count(_gray_array(shape, _doubled(batch[fit].T)))
    top = lee.max(axis=0)
    one = np.zeros(len(batch), bool)
    one[fit] = (top > 0) & ((lee == 0) | (lee == top)).all(axis=0)
    return one


def _survey_code(
    top: AmbientShape, shape: AmbientShape, row: list[int],
) -> AdditiveCode:
    """The code of a top-walk line that the survey's batched one-weight
    rule kept, built in ``shape``, after two scalar checks: the
    compressed basis must be its own core._rref, below 2^N, and the
    code's Lee count must show one nonzero weight, the weight of the
    line's first row in ``top``, as zero columns weigh nothing.  Either
    failing raises InternalVerificationFailure."""
    basis = tuple(_compressed(top, shape, x) for x in row)
    if _rref(shape, basis) != basis or basis[-1] >> shape.big_n:
        raise InternalVerificationFailure(
            f"line {row} of {top} compressed to {basis} in {shape}: not "
            f"a sorted, reduced, u-closed basis below 2^{shape.big_n}")
    code = AdditiveCode(shape, None, basis)
    weights = lee_enumerator(code).nonzero_weights()
    weight = _lee_packed(top, row[0])
    if weights != (weight,):
        raise InternalVerificationFailure(
            f"batched one-weight rule kept {code}, whose Lee enumerator "
            f"shows nonzero weights {weights}, not its line's {weight}")
    return code


def _rank_fits(space: SearchSpace) -> np.ndarray:
    """Whether a code of rank r can meet the space's target
    (_size_fits; every size fits without a target), as a bool array
    indexed by (shape index in space.shapes(), r), for
    r = 0 .. min(2 * max_rows, N), N the largest shape's: the rank of
    max_rows rows and their u multiples is at most both."""
    target, shapes = space.target, space.shapes()
    last = min(2 * space.max_rows, max((s.big_n for s in shapes), default=0))
    return np.array([[target is None or _size_fits(target, shape, 1 << r)
                      for r in range(last + 1)]
                     for shape in shapes], bool)


def _random_candidates(space: SearchSpace) -> Iterator[AdditiveCode]:
    """The random stream, rank first: a draw's rows stay packed ints,
    reduced to the basis of {g, u*g}, and only draws whose 2^rank fits
    the space's target (_size_fits; every size fits without a target)
    are deduplicated and built as codes.  The rule depends on (shape,
    size) alone, so a code either survives every drawing or none, and
    the survivors come in the order of their first drawing, as in the
    unfiltered stream.

    The draws are those of ``random.Random(seed).randrange``: the shape
    index from range(len(shapes)), then per row the binary part from
    range(2^alpha) and the ring part from range(2^(2*beta)).  randrange
    draws range(n) as n.bit_length() bits from ``getrandbits``, drawn
    again while the value is n or more; for n = 2^a that is a+1 bits,
    redrawn while bit a is set.  Four facts of CPython's ``random``
    let a block of draws take its bits from one call:

    1. getrandbits(k), 1 <= k <= 32, takes one 32-bit Mersenne Twister
       word w and returns w >> (32 - k).
    2. getrandbits(32 * n) returns the next n words, the first lowest,
       so its little-endian bytes read as ``<u4`` are the words the
       calls per field would take, in the same order.
    3. A row part for range(2^a) draws a+1 bits and is redrawn while
       the top one, bit 31 of w, is set: a row word is accepted
       exactly when w < 2^31, whatever the shape.
    4. The shape index draws s = n_shapes.bit_length() bits, and
       n_shapes >= 2^(s-1), so every w < 2^31 is an accepted shape
       word too, and every rejected shape word is >= 2^31.

    When every shape has alpha <= 31 and beta <= 15, every field fits
    one word and N <= 61 fits uint64: the draws are then taken in numpy
    blocks of at most _BLOCK_DRAWS (_batched_draws), which copy
    randrange's bits in randrange's order, and read the size rule from
    a table over the space's shapes, at most 512 of them (_rank_fits).
    A space with a wider shape calls randrange itself, field by field
    (_plain_draws).  So a seed gives the same stream either way.  The
    last shape (alpha[1], beta[1]) is the widest in both parts, so the
    ranges' upper ends pick the path, and a space has no shape exactly
    when both are 0.

    A space whose first block would draw more than _MAX_BLOCK_WORDS
    words, about _WORDS_PER_FIELD per field, raises SpaceTooLarge before
    any draw or shape is built, on either path: the plain one holds a
    draw's rows as one list, and max_rows is not bounded otherwise."""
    alpha, beta = space.alpha[1], space.beta[1]
    if alpha + beta == 0:
        return
    assert space.budget is not None
    want = min(_BLOCK_DRAWS, space.budget)
    words = int(want * (2 * space.max_rows + 1) * _WORDS_PER_FIELD)
    if words > _MAX_BLOCK_WORDS:
        raise SpaceTooLarge(
            f"a block of {want} random draws of {space.max_rows} rows takes "
            f"{words} words; the cap is {_MAX_BLOCK_WORDS}")
    rng = random.Random(space.seed)
    if alpha <= 31 and beta <= 15:
        draws = _batched_draws(space.shapes(), space.max_rows, space.budget,
                               _rank_fits(space), rng.getrandbits)
    else:
        draws = _plain_draws(space, rng)
    # keys, not the codes: a long random run would otherwise pin the
    # words of every distinct code whose words a consumer built
    seen: set[tuple[AmbientShape, tuple[int, ...]]] = set()
    for shape, rows, basis in draws:
        if (shape, basis) not in seen:
            seen.add((shape, basis))
            yield AdditiveCode(shape, tuple(rows), basis)


_Draws = Iterator[tuple[AmbientShape, list[int], tuple[int, ...]]]


def _plain_draws(space: SearchSpace, rng: random.Random) -> _Draws:
    """The draws that pass the size rule, as (shape, packed rows,
    reduced basis), drawn one field per ``randrange`` call and reduced
    by the scalar _rref.  Neither the shape list nor the rank table is
    built: a draw's shape is its index in space.shapes() read off the
    ranges, which run alpha-major and drop (0, 0), first when both
    start at 0, and its size is read by _size_fits.  Building both
    first took the one-weight search of one draw over alpha, beta <= 600
    at 1 row 1.90 s at 166 MB of RSS (2-core host), and ranges to 30,000
    hold 9 * 10^8 shapes, past any memory."""
    (a0, a1), (b0, b1) = space.alpha, space.beta
    target, betas = space.target, b1 - b0 + 1
    skip = a0 == b0 == 0
    count = (a1 - a0 + 1) * betas - skip
    randrange = rng.randrange
    for _ in range(space.budget):
        a, b = divmod(randrange(count) + skip, betas)
        shape = AmbientShape(a0 + a, b0 + b)
        ring_bits = 2 * shape.beta
        # binary part drawn before ring part, row by row
        rows = [randrange(1 << shape.alpha) << ring_bits
                | randrange(1 << ring_bits) for _ in range(space.max_rows)]
        basis = _rref(shape, rows)
        if target is None or _size_fits(target, shape, 1 << len(basis)):
            yield shape, rows, basis


def _batched_draws(
    shapes: list[AmbientShape], max_rows: int, budget: int,
    fits: np.ndarray, getrandbits,
) -> _Draws:
    """The draws of _plain_draws, in blocks of at most _BLOCK_DRAWS,
    for shapes with alpha <= 31 and beta <= 15.

    By facts 1-4 of _random_candidates, call the words below 2^31
    accepted, and a word >= 2^31 whose top s bits are below n_shapes a
    lone shape word; every accepted word is a shape word too.  After a
    draw that ends on accepted word a, the next draw's shape word is the
    first shape word after accepted word a, which is a lone word or
    accepted word a + 1 itself; its 2*max_rows row parts are the
    accepted words after it.  So that draw ends on accepted word
    a + 2*max_rows or a + 2*max_rows + 1, one byte lookup per draw.

    A block draws its words in one ``getrandbits`` call, walks the draw
    ends, gathers the shape indices and packed rows, and builds each
    draw's basis of {g, u*g} in numpy (_echelon).  The draws the size rule
    keeps on its rank go through the scalar _rref too, and a basis it
    does not confirm raises InternalVerificationFailure.  The words
    after a block's last whole draw carry over to the next block, which
    draws more, so a block short of words only ends early; the arrays
    stay bounded by _BLOCK_DRAWS whatever the budget."""
    n_shapes = len(shapes)
    shift = np.uint32(32 - n_shapes.bit_length())
    two_r = 2 * max_rows
    stride = two_r + 1
    # per shape: the shifts that take a row word to its binary and ring
    # parts (getrandbits(a + 1) of an accepted word), and u's mask
    bin_shift = np.array([31 - s.alpha for s in shapes], np.uint64)
    ring_shift = np.array([31 - 2 * s.beta for s in shapes], np.uint64)
    ring_bits = np.array([2 * s.beta for s in shapes], np.uint64)
    a_mask = np.array([s.ring_a_mask for s in shapes], np.uint64)
    carry = np.empty(0, np.uint32)
    left = budget
    while left:
        want = min(_BLOCK_DRAWS, left)
        fresh = max(1, int(want * stride * _WORDS_PER_FIELD) - len(carry))
        words = np.concatenate((carry, np.frombuffer(
            getrandbits(32 * fresh).to_bytes(4 * fresh, "little"), "<u4")))
        accepted = words < np.uint32(1 << 31)
        at = np.flatnonzero(accepted)
        # 2*max_rows + 1 accepted words always hold the first draw
        if len(at) <= two_r:
            carry = words
            continue
        # after[j]: the shape word of a draw after accepted word j - 1,
        # the next shape word; clipped past the last, where either value
        # ends the walk below
        shaped = np.flatnonzero(words >> shift < n_shapes)
        nxt = np.append(0, np.flatnonzero(accepted[shaped]) + 1)
        after = shaped.take(nxt, mode="clip")
        lone_in = (~accepted[after]).tobytes()
        last = len(at) - 1
        ends: list[int] = []
        append = ends.append
        end = -1
        for _ in range(want):
            end += stride - lone_in[end + 1]
            if end > last:
                break
            append(end)
        stop = np.array(ends)
        firsts = after[np.append(0, stop[:-1] + 1)]
        idx = (words[firsts] >> shift).astype(np.intp)
        # field i of every draw in line i: rows reach _echelon in C order
        fields = words[at[stop + np.arange(1 - two_r, 1)[:, None]]].astype(
            np.uint64)
        rows = (((fields[0::2] >> bin_shift[idx]) << ring_bits[idx])
                | (fields[1::2] >> ring_shift[idx]))
        bases = _echelon(np.concatenate(
            (rows, (rows & a_mask[idx]) << np.uint64(1))))
        keep = np.flatnonzero(fits[idx, np.count_nonzero(bases, axis=0)])
        for i, packed, column in zip(idx[keep].tolist(), rows.T[keep].tolist(),
                                     bases.T[keep].tolist()):
            shape = shapes[i]
            basis = _rref(shape, packed)
            if basis != tuple(filter(None, column)):
                raise InternalVerificationFailure(
                    f"rows {packed} of {shape}: reduced basis {basis}, "
                    f"batched basis {column}")
            yield shape, packed, basis
        carry = words[at[ends[-1]] + 1:]
        left -= len(ends)


def enumerate_candidates(space: SearchSpace) -> Iterator[AdditiveCode]:
    """Distinct candidate codes of the space.

    The mode picks the stream, random draws or the walk of every code;
    with a target, only codes whose size can meet it (_size_fits) are
    yielded, in the untargeted stream's order.  The walk's order is
    depth first (_codes_by_closure), each batch of the top shape after
    the smaller shapes' lines read off it (_exhaustive_batches); the
    draws are deterministic for a given ``space.seed``, and
    ``seed=None`` seeds from the OS, as ``random.Random(None)`` does, so
    that stream differs from run to run.  A walk batch is read once on
    its rank against the per-shape table (_rank_fits), and only the
    batches that pass are built as codes.

    An exhaustive space past the tuple cap (_check_tuple_cap) raises
    SpaceTooLarge before its shape list or rank table is built, and so
    does a random space whose block of draws would take more than
    _MAX_BLOCK_WORDS words (_random_candidates)."""
    if space.mode == "random":
        yield from _random_candidates(space)
        return
    _check_tuple_cap(space)
    fits = dict(zip(space.shapes(), _rank_fits(space)))
    for shape, batch in _exhaustive_batches(space):
        if fits[shape][batch.shape[1]]:
            for row in batch.tolist():
                yield AdditiveCode(shape, None, tuple(row))


def _check_tuple_cap(space: SearchSpace) -> None:
    """Raise SpaceTooLarge when an exhaustive space's total
    generator-tuple count exceeds MAX_EXHAUSTIVE_TUPLES, the one guard
    of enumerate_candidates and verify_fsd_classification.  A space
    whose top shape alone holds 2^(N * max_rows) tuples past the cap is
    refused off its ranges' upper ends, before its shape list or that
    count, an integer of N * max_rows bits, is built; the rest have
    N * max_rows <= 26, so at most 105 shapes.  The slowest survey it
    admits, (1, 12, 1), examines 33,566,717 codes in 3.1-3.4 s, and
    none peaks above 34 MB of RSS (2-core host)."""
    alpha, beta = space.alpha[1], space.beta[1]
    bits = (alpha + 2 * beta) * space.max_rows
    if bits >= MAX_EXHAUSTIVE_TUPLES.bit_length():
        raise SpaceTooLarge(
            f"{AmbientShape(alpha, beta)} alone holds 2^{bits} generator "
            f"tuples; the exhaustive cap is {MAX_EXHAUSTIVE_TUPLES}")
    count = space.tuple_count()
    if count > MAX_EXHAUSTIVE_TUPLES:
        raise SpaceTooLarge(
            f"space holds {count} generator tuples; "
            f"the exhaustive cap is {MAX_EXHAUSTIVE_TUPLES}")


def _least_shapes(
    top: AmbientShape, batch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The least shape (a, b) holding each line of a walk batch of
    ``top``, as two int64 arrays.  Shape (a, b) sits in ``top`` on its
    last a binary and last b ring columns, the low bits of each part, so
    a line lies in it exactly when the OR of its rows does: a is the bit
    length of the union's binary part, b the number of ring digits up to
    its highest nonzero one.  The zero code's is (0, 0).  Bit lengths
    are read off float64 exponents, exact below 2^53 (N <= 26 here)."""
    union = np.bitwise_or.reduce(batch, axis=1)
    binary = np.frexp((union >> np.uint64(2 * top.beta)).astype(np.float64))
    ring = np.frexp((union & np.uint64(top.ring_mask)).astype(np.float64))
    return binary[1].astype(np.int64), (ring[1].astype(np.int64) + 1) >> 1


def _compressed(top: AmbientShape, shape: AmbientShape, words):
    """Words of ``top`` that lie in ``shape`` (_least_shapes) as
    ``shape``'s own packed words, on ints or ``uint64`` arrays alike:
    the binary part moves down to sit just above shape's ring digits,
    which stay where they are."""
    ring = 2 * top.beta
    return ((words >> ring) << 2 * shape.beta) | (words & top.ring_mask)


def _exhaustive_batches(
    space: SearchSpace,
) -> Iterator[tuple[AmbientShape, np.ndarray]]:
    """The walk of every shape of an exhaustive space, as (shape, batch
    of bases), in _codes_by_closure's batches.  Its one caller,
    enumerate_candidates, has checked the tuple cap (_check_tuple_cap).

    Only the top shape (A, B), the last of space.shapes(), is walked,
    and each smaller shape (a, b), in order, is read off each of its
    batches as it comes: the lines whose least shape (_least_shapes)
    fits in (a, b) (see the module docstring for why those are (a, b)'s
    own walk's codes), compressed to its words (_compressed) and
    checked by _check_bases.  The top batch follows.  Walking each
    shape on its own instead took enumerate_candidates over
    alpha <= 4, beta <= 2 at 3 rows from 16.6-17.6 ms to 21.0-21.5 ms a
    call, and with the one_weight target from 7.5-7.9 ms to
    11.3-11.7 ms (medians of 20 calls, 3 runs, 2-core host)."""
    shapes = space.shapes()
    if not shapes:
        return
    top = shapes[-1]
    for lines in _codes_by_closure(top, space.max_rows):
        a, b = _least_shapes(top, lines)
        for shape in shapes[:-1]:
            # taken on the columns, so the batch keeps the walk's layout
            part = lines.T[:, (a <= shape.alpha) & (b <= shape.beta)].T
            if len(part):
                batch = _compressed(top, shape, part)
                _check_bases(shape, batch)
                yield shape, batch
        yield top, lines


@dataclass(frozen=True)
class SearchHit:
    code: AdditiveCode
    report: ClassificationReport
    gray: tuple[int, int, int | None]
    optimality: str


def search_with_pruning(
    space: SearchSpace,
    include: Iterable[Sequence[MixedVector]] = (),
) -> list[SearchHit]:
    """Stream the space, keep codes matching the target, classify them.

    The candidates come from :func:`enumerate_candidates`.  ``include``
    rows are spanned and examined ahead of them under the same filters
    (useful for confirming a known matrix); each code is examined once.
    An include with no rows raises ValueError before any code is
    examined.
    The pruners (the size rule, the basis-row weights and the
    two-weight quadratic) only skip codes the target rejects, so the
    hits are those the target's predicate alone would keep.
    """
    if space.target is None:
        raise ValueError("search_with_pruning needs a target")
    target = space.target
    hits: list[SearchHit] = []
    # the stream is deduplicated already; drop repeats of an include
    included: dict[tuple[AmbientShape, tuple[int, ...]], AdditiveCode] = {}
    for rows in include:
        if not rows:
            raise ValueError("empty include matrix: an include needs a row")
        code = span(rows[0].shape, tuple(rows))
        if _size_fits(target, code.shape, code.cardinality):
            included.setdefault((code.shape, code.basis), code)
    stream = enumerate_candidates(space)
    if included:
        stream = (c for c in stream if (c.shape, c.basis) not in included)
    one_weight = target in ("one_weight", "fsd_one_weight")
    for code in chain(included.values(), stream):
        if not _basis_weights_fit(code, 1 if one_weight else 2):
            continue
        weights = lee_enumerator(code).nonzero_weights()
        if one_weight:
            if len(weights) != 1 or weight_profile(code).lambda_ is None:
                continue
        elif len(weights) != 2 or _two_weight_quadratic(
            code.shape.big_n, code.cardinality, weights[0], weights[1]
        ):
            continue
        # a direct call: perfbench's funnel counts these as dual_calls;
        # the summary is kept on the code, for the predicates below
        dual_summary(code)
        if target == "fsd_one_weight" and not is_formally_self_dual(code):
            continue
        if target == "two_weight_projective" and not is_projective(code):
            continue
        report = classify(code)
        gray = gray_parameters(code)
        assert gray[2] is not None
        hits.append(
            SearchHit(code, report, gray, optimality_check(gray[0], gray[1], gray[2]))
        )
    hits.sort(key=lambda h: (h.code.shape.alpha, h.code.shape.beta, h.code.basis))
    return hits


# The four two-word codes that survive the one-weight formally-self-dual
# screen: (shape, basis) pairs.
_EXPECTED_FSD_SURVIVORS: tuple[tuple[AmbientShape, tuple[int, ...]], ...] = (
    (AmbientShape(2, 0), (0b11,)),  # (1,1|), weight 2
    (AmbientShape(0, 1), (2,)),  # (|u), weight 2
    (AmbientShape(2, 0), (0b01,)),  # (0,1|), weight 1
    (AmbientShape(2, 0), (0b10,)),  # (1,0|), weight 1
)


@dataclass(frozen=True)
class FsdSurveyReport:
    """Outcome of the exhaustive one-weight formally-self-dual screen."""

    max_alpha: int
    max_beta: int
    max_rows: int
    codes_examined: int
    survivors: tuple[AdditiveCode, ...]
    expected: tuple[AdditiveCode, ...]

    @property
    def matches(self) -> bool:
        return set(self.survivors) == set(self.expected)


def verify_fsd_classification(
    max_alpha: int, max_beta: int, max_rows: int = 3
) -> FsdSurveyReport:
    """Exhaustively confirm which codes are one-weight and formally self-dual.

    Scans every code with alpha <= max_alpha, beta <= max_beta and up to
    ``max_rows`` generators: the codes of the exhaustive space of
    :func:`enumerate_candidates`, under its one guard.  So a negative or
    empty range or max_rows below 1 raises ValueError, and a range past
    the 2^26-tuple cap (_check_tuple_cap) raises SpaceTooLarge before
    anything is built (at 3 rows, (4, 2) fits and (6, 3) does not).

    The walk of the top shape (max_alpha, max_beta) is streamed once,
    and no smaller shape's batch is built.  Dropping zero columns
    changes neither a code's rank nor its Lee weights, so a top-walk
    line of rank k is a code of every shape (a, b) that holds it, from
    its least shape (_least_shapes) up, and a formally self-dual
    candidate there exactly when a + 2b = 2k (|C|^2 = 2^N).  Each line
    counts as examined once per shape holding it, the zero code in
    every shape but (0, 0).  The lines with a candidate shape are
    weighed once, in the top shape, by one numpy call per batch (a batch
    holds at most one run of the walk's children, so the traced peak of
    (6, 1, 3) is 2.7 MB), which weighs a line's words only when its
    basis rows share one Lee weight: the bases whose words show one
    nonzero Lee weight (_batch_one_weight) are one-weight in every
    shape.  Only
    those are built as codes, one per candidate shape (_survey_code),
    each after a scalar check of its compressed basis and of its Lee
    count, which raise InternalVerificationFailure; formal self-duality
    then picks the survivors.  The survivor list must be exactly the
    four known two-word codes (those with shapes inside the range);
    anything else raises ClassificationViolation.  Reading each smaller
    shape's batches off the top walk instead (_exhaustive_batches), and
    screening each in its own shape, ran verify_fsd_classification(4, 2,
    3) at 1.29-1.36M codes/s against 2.06-2.41M (medians of 40 calls, 5
    alternating runs, 2-core host)."""
    space = SearchSpace(alpha=(0, max_alpha), beta=(0, max_beta),
                        max_rows=max_rows)
    _check_tuple_cap(space)
    top = AmbientShape(max_alpha, max_beta)
    survivors: list[AdditiveCode] = []
    # the zero code's count holds (0, 0), which is no shape
    examined = -1
    for batch in _codes_by_closure(top, max_rows):
        k = batch.shape[1]
        a, b = _least_shapes(top, batch)
        examined += int(((max_alpha + 1 - a) * (max_beta + 1 - b)).sum())
        if not k:
            continue
        # |C|^2 = 2^N: the shapes (2k - 2*beta, beta) holding a line,
        # beta from lo to hi
        lo = np.maximum(b, k - max_alpha // 2)
        hi = np.minimum(max_beta, k - (a + 1) // 2)
        lines = np.flatnonzero(lo <= hi)
        for i in lines[_batch_one_weight(top, batch[lines])].tolist():
            row = batch[i].tolist()
            for beta in range(int(lo[i]), int(hi[i]) + 1):
                code = _survey_code(
                    top, AmbientShape(2 * (k - beta), beta), row)
                if is_formally_self_dual(code):
                    survivors.append(code)
    survivors.sort(key=lambda c: (c.shape.alpha, c.shape.beta, c.basis))
    expected = [
        AdditiveCode(shape, None, basis)
        for shape, basis in _EXPECTED_FSD_SURVIVORS
        if shape.alpha <= max_alpha and shape.beta <= max_beta
    ]
    expected.sort(key=lambda c: (c.shape.alpha, c.shape.beta, c.basis))
    report = FsdSurveyReport(max_alpha, max_beta, max_rows, examined,
                             tuple(survivors), tuple(expected))
    if not report.matches:
        expected_set, survivor_set = set(expected), set(survivors)
        unexpected = [c for c in survivors if c not in expected_set]
        missing = [c for c in expected if c not in survivor_set]
        raise ClassificationViolation(
            f"unexpected survivors {unexpected}, missing {missing}"
        )
    return report


# Best known minimum distances for the binary [n, k] parameters the
# bundled reference codes claim to meet.
OPTIMALITY_TABLE: dict[tuple[int, int], int] = {
    (9, 2): 6,
    (14, 3): 8,
    (16, 4): 8,
    (14, 4): 7,
    (14, 10): 3,
    (24, 5): 12,
    (24, 19): 3,
    (16, 5): 8,
    (16, 11): 4,
}


def optimality_check(n: int, k: int, d: int) -> str:
    """'optimal', 'suboptimal' or 'unknown' against the embedded table."""
    best = OPTIMALITY_TABLE.get((n, k))
    if best is None:
        return "unknown"
    return "optimal" if d >= best else "suboptimal"
