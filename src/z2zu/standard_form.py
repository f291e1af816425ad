"""Standard-form generator matrices and the (alpha, beta; k0, k1, k2) type.

Every additive code over Z2^alpha x R^beta is permutation-equivalent to
one generated by a block matrix

    ( I_k0  A1 |  0     0      u*T      )
    ( 0     S  |  I_k1  A      B1+u*B2  )
    ( 0     0  |  0     u*I_k2 u*D      )

where A, A1, S, D, B1, B2, T have entries in {0, 1}.  The reduction is
three rounds of Gaussian elimination with module row operations:

  1. pivot on unit entries (1 or v) in ring columns; each pivot is
     normalised with v*v = 1 and its column cleared in every other row
     (elimination can surface new units, so the scan restarts until
     none remain) -> k1 rows;
  2. pivot on binary columns among the remaining rows over Z2 -> k0
     rows (remaining rows carry only 0/u ring entries by round 1);
  3. the rows left have zero binary part and 0/u ring entries: divide
     by u mentally and eliminate over Z2 -> k2 rows.  Clearing a round-3
     pivot column in the other rows only removes u components, which is
     exactly what the block layout asks for (A stays binary).

Pivots always take the leftmost eligible column and then the topmost
eligible row, so the result is deterministic.  Columns are permuted at
the end (binary pivots first; unit pivots, then u pivots, then the rest
among ring columns) and the permutation is recorded so the original
code can be recovered exactly.  Before returning, the reduced rows are
un-permuted and their reduced echelon basis is compared with the input
code's; two such bases are equal exactly when the spans are, so any
difference raises InternalVerificationFailure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AdditiveCode,
    AmbientShape,
    MixedVector,
    _require_module,
    _ring_scalar_mul_packed,
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
        shape = self.shape
        out = []
        for v in self.rows:
            bits = v.bin_bits
            elems = v.ring_elems
            orig_bits = [0] * shape.alpha
            for j, col in enumerate(self.bin_perm):
                orig_bits[col] = bits[j]
            orig_elems = [0] * shape.beta
            for j, col in enumerate(self.ring_perm):
                orig_elems[col] = elems[j]
            out.append(MixedVector.from_coords(shape, orig_bits, orig_elems))
        return tuple(out)

    def to_matrix_text(self) -> str:
        return format_matrix(self.rows, trailer=f"type = {self.code_type.compact()}")


def _scale_row(
    shape: AmbientShape, row: tuple[int, int], c: int
) -> tuple[int, int]:
    b, r = row
    return (b if (c & 1) else 0, _ring_scalar_mul_packed(c, r, shape.ring_a_mask))


def standard_form(code: AdditiveCode) -> StandardFormMatrix:
    _require_module(code, "standard_form")
    shape = code.shape
    alpha, beta = shape.alpha, shape.beta
    rows: list[tuple[int, int]] = [(g.bin, g.ring) for g in code.generators]
    nrows = len(rows)
    pivot_rows: set[int] = set()

    def ring_entry(i: int, col: int) -> int:
        return (rows[i][1] >> shape.ring_shift(col)) & 3

    def bin_entry(i: int, col: int) -> int:
        return (rows[i][0] >> shape.bin_bit(col)) & 1

    def add_multiple(i: int, c: int, j: int) -> None:
        """row_i += c * row_j (characteristic 2: add is subtract)."""
        sb, sr = _scale_row(shape, rows[j], c)
        b, r = rows[i]
        rows[i] = (b ^ sb, r ^ sr)

    def next_pivot(ncols, used, qualifies) -> tuple[int, int] | None:
        """(row, col): the leftmost column not in ``used`` whose entry
        qualifies in some non-pivot row, and the topmost such row.  Both
        are marked as used."""
        for col in range(ncols):
            if col in used:
                continue
            for i in range(nrows):
                if i not in pivot_rows and qualifies(i, col):
                    pivot_rows.add(i)
                    used.add(col)
                    return i, col
        return None

    def is_unit(i: int, col: int) -> bool:
        return bool(ring_entry(i, col) & 1)

    def is_u(i: int, col: int) -> bool:
        return ring_entry(i, col) == 2

    # round 1: unit pivots in ring columns
    unit_pivots: list[tuple[int, int]] = []  # (row, ring col)
    used_ring_cols: set[int] = set()
    while hit := next_pivot(beta, used_ring_cols, is_unit):
        i, col = hit
        if ring_entry(i, col) == 3:
            rows[i] = _scale_row(shape, rows[i], 3)  # v is its own inverse
        for j in range(nrows):
            if j != i:
                e = ring_entry(j, col)
                if e:
                    add_multiple(j, e, i)
        unit_pivots.append(hit)

    # round 2: binary pivots over Z2
    bin_pivots: list[tuple[int, int]] = []
    used_bin_cols: set[int] = set()
    while hit := next_pivot(alpha, used_bin_cols, bin_entry):
        i, col = hit
        for j in range(nrows):
            if j != i and bin_entry(j, col):
                add_multiple(j, 1, i)
        bin_pivots.append(hit)

    # round 3: u pivots over the residue field
    u_pivots: list[tuple[int, int]] = []
    while hit := next_pivot(beta, used_ring_cols, is_u):
        i, col = hit
        for j in range(nrows):
            if j != i and ring_entry(j, col) & 2:
                add_multiple(j, 1, i)  # adding the u-row toggles u components
        u_pivots.append(hit)

    for i in range(nrows):
        if i not in pivot_rows and rows[i] != (0, 0):
            raise InternalVerificationFailure(
                "a non-pivot row survived all three elimination rounds"
            )

    k0, k1, k2 = len(bin_pivots), len(unit_pivots), len(u_pivots)
    code_type = CodeType(alpha, beta, k0, k1, k2)
    if 1 << code_type.exponent != code.cardinality:
        raise InternalVerificationFailure(
            f"type {code_type.compact()} disagrees with cardinality "
            f"{code.cardinality}"
        )

    bin_perm = tuple(
        [col for _, col in bin_pivots]
        + [c for c in range(alpha) if c not in {col for _, col in bin_pivots}]
    )
    ring_perm = tuple(
        [col for _, col in unit_pivots]
        + [col for _, col in u_pivots]
        + [
            c
            for c in range(beta)
            if c not in {col for _, col in unit_pivots}
            and c not in {col for _, col in u_pivots}
        ]
    )
    row_order = (
        [i for i, _ in bin_pivots]
        + [i for i, _ in unit_pivots]
        + [i for i, _ in u_pivots]
    )

    out_rows = []
    for i in row_order:
        b, r = rows[i]
        pb = 0
        for col in bin_perm:
            pb = (pb << 1) | ((b >> shape.bin_bit(col)) & 1)
        pr = 0
        for col in ring_perm:
            pr = (pr << 2) | ((r >> shape.ring_shift(col)) & 3)
        out_rows.append(MixedVector(shape, pb, pr))

    result = StandardFormMatrix(
        shape, tuple(out_rows), bin_perm, ring_perm, code_type
    )
    # in original coordinates the rows must span the input code exactly
    if _rref(shape, [v.packed for v in result.unpermuted_rows]) != code.basis:
        raise InternalVerificationFailure(
            "standard-form rows no longer span the input code"
        )
    return result


def type_of(code: AdditiveCode) -> CodeType:
    return standard_form(code).code_type
