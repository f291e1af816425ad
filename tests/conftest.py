"""Shared helpers: seeded random codes over small ambients."""

import random
from math import comb

import pytest

from z2zu.core import AmbientShape, MixedVector, span
from z2zu.errors import NonIntegralTransform
from z2zu.ring import U
from z2zu.weights import LeeEnumerator


def random_code(rng, max_alpha=6, max_beta=4, max_rows=3,
                allow_trivial=False):
    """Span of a few uniformly drawn rows over a random small shape."""
    while True:
        alpha = rng.randrange(max_alpha + 1)
        beta = rng.randrange(max_beta + 1)
        if alpha + beta == 0:
            continue
        shape = AmbientShape(alpha, beta)
        n_rows = rng.randrange(1, max_rows + 1)
        rows = [
            MixedVector(shape, rng.randrange(1 << alpha),
                        rng.randrange(1 << (2 * beta)))
            for _ in range(n_rows)
        ]
        code = span(shape, rows)
        if allow_trivial or code.cardinality > 1:
            return code


def closure_words(shape, rows, u_closed=True):
    """Word set of the code the rows generate, by plain set closure.

    A reference for the basis routines: it grows a word set by every
    row (and u*row) until nothing new appears.
    """
    seeds = []
    for v in rows:
        seeds.append(v.packed)
        if u_closed:
            seeds.append((U * v).packed)
    words = {0}
    for h in seeds:
        if h not in words:
            words |= {h ^ w for w in words}
    return words


def macwilliams_oracle(enum, code_size):
    """The MacWilliams transform with every Krawtchouk coefficient
    expanded as an alternating sum of binomial products: the reference
    for ``weights.macwilliams`` (the same checks and messages)."""
    n = enum.big_n
    if code_size != enum.cardinality():
        raise ValueError(
            f"code_size {code_size} does not match distribution total "
            f"{enum.cardinality()}"
        )
    if code_size <= 0 or (1 << n) % code_size:
        raise ValueError(f"code_size {code_size} does not divide 2^{n}")
    out = {}
    for j in range(n + 1):
        s = 0
        for i, a_i in enum.entries:
            # coefficient of y^j in (x+y)^(n-i) (x-y)^i
            k = sum(
                (-1) ** t * comb(i, t) * comb(n - i, j - t)
                for t in range(max(0, j - (n - i)), min(i, j) + 1)
            )
            s += a_i * k
        q, rem = divmod(s, code_size)
        if rem:
            raise NonIntegralTransform(
                f"transform count at weight {j} is {s}/{code_size}"
            )
        if q < 0:
            raise NonIntegralTransform(f"transform count at weight {j} is {q}")
        if q:
            out[j] = q
    return LeeEnumerator.from_counts(n, out)


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


# Verdict lines recorded by the acceptance tests; shown after the run,
# outside pytest's capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
