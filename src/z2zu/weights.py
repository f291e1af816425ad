"""Lee weight enumerators, the MacWilliams transform and column profiles.

A Lee enumerator is the sparse weight distribution {w: A_w} of a code
together with the Gray length N = alpha + 2*beta; it renders as the
homogeneous polynomial sum_w A_w x^(N-w) y^w.  All arithmetic here is
exact integer arithmetic, and the MacWilliams transform refuses to
round.

The transform sends the distribution of C to the distribution of its
dual scaled by |C|:

    sum_i A_i (x+y)^(N-i) (x-y)^i  =  |C| * sum_j B_j x^(N-j) y^j

Applying it twice (with |C| and then 2^N/|C|) is the identity.  The
left side is evaluated at x = 1 and one big integer y = 2^bits, by a
Horner pass over the weights (Kronecker substitution), and the N+1
coefficient sums are read back as its balanced base-2^bits digits.
Each |sum_j| is at most |C| * C(N, N//2), since no coefficient of
(1+y)^(N-i) (1-y)^i exceeds that of (1+y)^N, so bits = that bound's
bit length plus one keeps every digit exact (:func:`_kronecker_bits`).

The Lee enumerator is counted from the code's basis in cache-sized
blocks of its Gray span (:func:`z2zu.core._lee_counts`): one bincount
per pair of blocks while N <= 89, of the index w0*(N+1) + w1 made of
the two blocks' popcounts at each place, and one per block past that,
with no word array and no Python ``words`` tuple.

Column profiles classify each coordinate by the value multiset it takes
over the code: a binary column is balanced or identically zero, a ring
column realises one of the submodules R, {0, u}, {0} (FULL, HALF,
ZERO).  A profile is read off the basis alone, with no words: a
coordinate projection is a group homomorphism, so a column's values are
the XOR-span of the basis rows' entries there, each hit equally often.
Any nonzero column contributes |C| to the total Lee weight except a
balanced binary one, which contributes |C|/2 — hence for codes without
zero columns

    sum over codewords of the Lee weight  =  (|C| / 2) * (alpha + 2*beta).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .core import AdditiveCode, BinaryCode, _lee_counts
from .errors import (
    NonIntegralTransform,
    PreconditionViolation,
    ZeroColumnPresent,
)

__all__ = [
    "LeeEnumerator",
    "lee_enumerator",
    "hamming_enumerator",
    "macwilliams",
    "PowerMoments",
    "power_moments",
    "BinaryColumnKind",
    "RingColumnKind",
    "ColumnProfile",
    "column_profile",
    "weight_sum_identity",
]


@dataclass(frozen=True)
class LeeEnumerator:
    """Sparse weight distribution with its Gray length N."""

    big_n: int
    entries: tuple[tuple[int, int], ...]  # (weight, count), sorted, counts > 0

    @classmethod
    def from_counts(cls, big_n: int, counts: dict[int, int]) -> "LeeEnumerator":
        for w, c in counts.items():
            if not 0 <= w <= big_n:
                raise ValueError(f"weight {w} outside 0..{big_n}")
            if c < 0:
                raise ValueError("negative count")
        return cls(big_n, tuple(sorted((w, c) for w, c in counts.items() if c)))

    @property
    def counts(self) -> dict[int, int]:
        return dict(self.entries)

    def count(self, w: int) -> int:
        # (w,) sorts just before (w, A_w), so bisection finds its entry
        i = bisect_left(self.entries, (w,))
        if i < len(self.entries) and self.entries[i][0] == w:
            return self.entries[i][1]
        return 0

    def cardinality(self) -> int:
        return sum(c for _, c in self.entries)

    def nonzero_weights(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.entries if w > 0)

    def min_nonzero_weight(self) -> int | None:
        nz = self.nonzero_weights()
        return nz[0] if nz else None

    def poly_str(self) -> str:
        """Polynomial rendering, descending x-degree, unit coefficients omitted."""
        terms = []
        for w, c in self.entries:
            xe, ye = self.big_n - w, w
            body = ""
            if xe:
                body += "x" if xe == 1 else f"x^{xe}"
            if ye:
                body += "y" if ye == 1 else f"y^{ye}"
            if not body:
                terms.append(str(c))
            else:
                terms.append(body if c == 1 else f"{c}{body}")
        return " + ".join(terms) if terms else "0"

    def __str__(self) -> str:
        return self.poly_str()


def lee_enumerator(code: AdditiveCode) -> LeeEnumerator:
    """The code's Lee enumerator, counted once and kept on the code."""
    if code._lee is None:
        counts = _lee_counts(code.shape, code.basis).tolist()
        code._lee = LeeEnumerator.from_counts(
            code.shape.big_n, dict(enumerate(counts))
        )
    return code._lee


def hamming_enumerator(words: BinaryCode) -> LeeEnumerator:
    """Hamming weight distribution of a set of equal-length binary words."""
    counts: Counter[int] = Counter(words.weights())
    return LeeEnumerator.from_counts(words.n, counts)


def _kronecker_bits(n: int, code_size: int) -> int:
    """Digit width for :func:`macwilliams`: a balanced base-2^bits digit
    holds -2^(bits-1)..2^(bits-1)-1, and every coefficient sum has
    |sum_j| <= code_size * C(n, n//2), which the distribution with all
    its mass at weight 0 attains."""
    return (code_size * comb(n, n // 2)).bit_length() + 1


def macwilliams(enum: LeeEnumerator, code_size: int) -> LeeEnumerator:
    """Distribution of the dual from the distribution of the code.

    ``code_size`` must equal the total count and divide 2^N.  The
    coefficient sums come from one big-integer evaluation (see the
    module docstring).  Every output count is checked to be a
    nonnegative integer; anything else raises NonIntegralTransform,
    since a genuine code/dual pair can never produce one.
    """
    n = enum.big_n
    if code_size != enum.cardinality():
        raise ValueError(
            f"code_size {code_size} does not match distribution total "
            f"{enum.cardinality()}"
        )
    if code_size <= 0 or (1 << n) % code_size:
        raise ValueError(f"code_size {code_size} does not divide 2^{n}")
    bits = _kronecker_bits(n, code_size)
    # Horner over i = 0..n at y = 2^bits: acc is multiplied by (1 + y)
    # once per later weight, and A_i enters times (1 - y)^i, so acc ends
    # as sum_i A_i (1+y)^(n-i) (1-y)^i
    acc, power, counts = 0, 1, enum.counts
    for i in range(n + 1):
        acc += acc << bits
        if i in counts:
            acc += counts[i] * power
        power -= power << bits
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out: dict[int, int] = {}
    for j in range(n + 1):
        # the balanced digit s at y^j: acc = s + y * rest
        acc += half
        s = (acc & mask) - half
        acc >>= bits
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


class PowerMoments(NamedTuple):
    """Truth of the three moment identities for a distribution/dual pair."""

    cardinality_ok: bool
    first_moment_ok: bool
    second_moment_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.cardinality_ok and self.first_moment_ok and self.second_moment_ok


def power_moments(
    enum: LeeEnumerator, code_size: int, b1: int, b2: int
) -> PowerMoments:
    """Check the first three power moments against dual counts B1, B2.

        sum A_i           = |C|
        sum i   * A_i     = (|C|/2) (N - B1)
        sum i^2 * A_i     = (|C|/2) (N(N+1)/2 - N*B1 + B2)

    Exact rational arithmetic; |C| = 1 is fine (the zero code has
    B1 = N and both moment sides vanish).
    """
    n = enum.big_n
    total = enum.cardinality()
    first = sum(w * c for w, c in enum.entries)
    second = sum(w * w * c for w, c in enum.entries)
    half = Fraction(code_size, 2)
    return PowerMoments(
        total == code_size,
        Fraction(first) == half * (n - b1),
        Fraction(second) == half * (Fraction(n * (n + 1), 2) - n * b1 + b2),
    )


class BinaryColumnKind(enum.Enum):
    BALANCED = "balanced"
    ZERO = "zero"


class RingColumnKind(enum.Enum):
    FULL = "full"  # column takes all four values, |C|/4 each
    HALF = "half"  # column takes {0, u}, |C|/2 each
    ZERO = "zero"


@dataclass(frozen=True)
class ColumnProfile:
    binary: tuple[BinaryColumnKind, ...]
    ring: tuple[RingColumnKind, ...]

    @property
    def n_full(self) -> int:
        return sum(1 for k in self.ring if k is RingColumnKind.FULL)

    @property
    def zero_binary_columns(self) -> tuple[int, ...]:
        return tuple(
            i for i, k in enumerate(self.binary) if k is BinaryColumnKind.ZERO
        )

    @property
    def zero_ring_columns(self) -> tuple[int, ...]:
        return tuple(
            j for j, k in enumerate(self.ring) if k is RingColumnKind.ZERO
        )

    @property
    def has_zero_column(self) -> bool:
        return bool(self.zero_binary_columns or self.zero_ring_columns)


def column_profile(code: AdditiveCode) -> ColumnProfile:
    """Classify every coordinate by the submodule its column takes.

    A column's values are the XOR-span of the basis rows' entries in
    it, each hit |C|/|span| times.  A binary column is BALANCED when
    some basis row has its bit.  The nonzero ring digits of the basis
    rows span {0} when there are none, {0, u} when they are just u, and
    R when there are two or more distinct ones; a single unit digit
    spans a unit line, which no u-closed code has.  The profile is kept
    on the code once computed.
    """
    if code._profile is not None:
        return code._profile
    shape = code.shape
    union = 0
    for b in code.basis:
        union |= b
    binary = tuple(
        BinaryColumnKind.BALANCED
        if union >> (shape.bin_bit(i) + 2 * shape.beta) & 1
        else BinaryColumnKind.ZERO
        for i in range(shape.alpha)
    )
    ring: list[RingColumnKind] = []
    for j in range(shape.beta):
        shift = shape.ring_shift(j)
        digits = {b >> shift & 3 for b in code.basis} - {0}
        if not digits:
            ring.append(RingColumnKind.ZERO)
        elif digits == {2}:
            ring.append(RingColumnKind.HALF)
        elif len(digits) > 1:
            ring.append(RingColumnKind.FULL)
        else:
            # a unit line {0,1} or {0,1+u}: a legal subgroup image, but
            # not a submodule, so the input cannot have been u-closed
            raise PreconditionViolation(
                f"ring column {j} takes values in a unit line; the code "
                "is not closed under multiplication by u"
            )
    code._profile = ColumnProfile(binary, tuple(ring))
    return code._profile


def weight_sum_identity(code: AdditiveCode) -> bool:
    """Total Lee weight equals (|C|/2)(alpha + 2*beta).

    Requires every column to be nonzero (ZeroColumnPresent otherwise):
    a zero column contributes nothing to the left side but still counts
    in alpha + 2*beta.
    """
    profile = column_profile(code)
    if profile.has_zero_column:
        raise ZeroColumnPresent(
            f"zero binary columns {profile.zero_binary_columns}, "
            f"zero ring columns {profile.zero_ring_columns}"
        )
    total = sum(w * c for w, c in lee_enumerator(code).entries)
    return 2 * total == code.cardinality * code.shape.big_n
