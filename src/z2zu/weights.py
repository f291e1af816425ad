"""Lee weight enumerators, the MacWilliams transform and column profiles.

A Lee enumerator is the sparse weight distribution {w: A_w} of a code
together with the Gray length N = alpha + 2*beta; it renders as the
homogeneous polynomial sum_w A_w x^(N-w) y^w.  All arithmetic here is
exact integer arithmetic: the MacWilliams transform builds the
Krawtchouk coefficients by their three-term recurrence and refuses to
round.

The transform sends the distribution of C to the distribution of its
dual scaled by |C|:

    sum_i A_i (x+y)^(N-i) (x-y)^i  =  |C| * sum_j B_j x^(N-j) y^j

Applying it twice (with |C| and then 2^N/|C|) is the identity.

The Lee enumerator is a numpy kernel over the code's word array
(:attr:`AdditiveCode.array`): a bincount of the per-row Lee weights,
without the Python ``words`` tuple.

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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import AdditiveCode, BinaryCode, _lee_array
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
        return self.counts.get(w, 0)

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

    def to_json_obj(self) -> dict:
        return {"N": self.big_n, "counts": [[w, c] for w, c in self.entries]}

    def __str__(self) -> str:
        return self.poly_str()


def lee_enumerator(code: AdditiveCode) -> LeeEnumerator:
    """The code's Lee enumerator, counted once and kept on the code."""
    if code._lee is None:
        counts = np.bincount(_lee_array(code.shape, code.array)).tolist()
        code._lee = LeeEnumerator.from_counts(
            code.shape.big_n, dict(enumerate(counts))
        )
    return code._lee


def hamming_enumerator(
    words: BinaryCode | Iterable[Sequence[int]],
) -> LeeEnumerator:
    """Hamming weight distribution of a set of equal-length binary words."""
    if not isinstance(words, BinaryCode):
        words = BinaryCode.from_bitrows(words)
    counts: Counter[int] = Counter(words.weights())
    return LeeEnumerator.from_counts(words.n, counts)


def macwilliams(enum: LeeEnumerator, code_size: int) -> LeeEnumerator:
    """Distribution of the dual from the distribution of the code.

    ``code_size`` must equal the total count and divide 2^N.  Every
    output count is checked to be a nonnegative integer; anything else
    raises NonIntegralTransform, since a genuine code/dual pair can
    never produce one.
    """
    n = enum.big_n
    if code_size != enum.cardinality():
        raise ValueError(
            f"code_size {code_size} does not match distribution total "
            f"{enum.cardinality()}"
        )
    if code_size <= 0 or (1 << n) % code_size:
        raise ValueError(f"code_size {code_size} does not divide 2^{n}")
    sums = [0] * (n + 1)
    for i, a_i in enum.entries:
        # K_j, the coefficient of y^j in (x+y)^(n-i) (x-y)^i, by the
        # Krawtchouk recurrence
        #   (j+1) K_{j+1} = (n-2i) K_j - (n-j+1) K_{j-1},
        # whose left side is an exact multiple of j+1
        k_prev, k = 0, 1
        for j in range(n + 1):
            sums[j] += a_i * k
            k_prev, k = k, ((n - 2 * i) * k - (n - j + 1) * k_prev) // (j + 1)
    out: dict[int, int] = {}
    for j, s in enumerate(sums):
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
    spans a unit line, which no u-closed code has.
    """
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
    return ColumnProfile(binary, tuple(ring))


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
