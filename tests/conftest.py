"""Shared helpers: seeded random codes over small ambients."""

import random

import pytest

from z2zu.core import AmbientShape, MixedVector, span
from z2zu.ring import U


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
