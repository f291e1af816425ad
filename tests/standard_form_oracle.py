"""The block form by three rounds of module elimination: the reference
that ``z2zu.standard_form.standard_form`` is tested against.

It works on the generators as (binary, ring) row pairs, with module row
operations:

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
among ring columns).  It shares no elimination code with the package:
only the result types and the final span check.
"""

from z2zu.core import (
    AdditiveCode,
    AmbientShape,
    MixedVector,
    _require_module,
    _rref,
    scalar_mul,
)
from z2zu.errors import InternalVerificationFailure
from z2zu.standard_form import CodeType, StandardFormMatrix


def _scale_row(
    shape: AmbientShape, row: tuple[int, int], c: int
) -> tuple[int, int]:
    v = scalar_mul(c, MixedVector(shape, *row))
    return (v.bin, v.ring)


def standard_form_oracle(code: AdditiveCode) -> StandardFormMatrix:
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
