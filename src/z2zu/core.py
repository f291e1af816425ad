"""Mixed vectors and additive codes over Z2^alpha x R^beta, R = Z2 + u*Z2.

A vector has alpha binary coordinates followed by beta ring coordinates.
Both parts are bit-packed into Python integers, most significant bit
first, so that coordinate 0 of the binary part is the top bit and ring
coordinate j occupies the two bits at shift 2*(beta-1-j) (encoding from
:mod:`z2zu.ring`).  With that layout, sorting packed words sorts vectors
lexicographically: binary part first, then ring part.  That order is the
canonical order used everywhere deterministic output matters.

Scalar multiplication by c = r + u*q multiplies binary coordinates by r
and ring coordinates by c.  The inner product of v and w is

    v . w  =  u * (sum of binary products)  +  (sum of ring products)

with the first sum in Z2 and the second in R; a code's dual is taken
with respect to it.

A code is stored as its reduced echelon XOR basis, built by the one
elimination routine :func:`_rref`: echelon form (:func:`_echelon`),
which alone gives the rank, then back-substitution.  The basis is
canonical, so size, equality, membership, the module test, the dual
and the column profile all come from it.  The codewords are built from
it only for the per-word counts, once, as a numpy ``uint64`` array of
shape (|C|, L) with L = ceil(N/64) limbs per word, limb 0 the most
significant (:func:`_word_array`).  Each per-word count (the Lee
enumerator, the minimum Lee weight, the Gray image) is a vectorised
kernel over that array; ``words``, the same codewords as Python ints,
is a view of it built only when read.

The Gray image of a packed word w is w ^ ((w >> 1) & ring_a_mask): it
keeps the binary part and sends ring digit a + 2b to the pair
(b, a ^ b).  Its popcount is the Lee weight.  A ring digit never
straddles two limbs (64 is even), so the expression applies limb by
limb to the array unchanged.

The dual is read off the basis.  For a code C closed under u, a word w
is in the dual exactly when the u-component of g.w is 0 for every g in
C: the unit component of g.w is the u-component of (u*g).w, and u*g is
in C too.  That u-component is the binary dot product of the packed
words g and sigma(w), where sigma keeps the binary part and swaps the
two bits of each ring digit.  So the dual is sigma applied to the
binary dual of the packed code, which a reduced echelon basis gives
directly (:func:`dual`).  :func:`dual_brute` scans the whole ambient
module instead and is kept as the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AmbientTooLarge,
    CodeTooLarge,
    InternalVerificationFailure,
    MatrixParseError,
    PreconditionViolation,
    ShapeMismatch,
    TrivialCode,
)
from .ring import RingElem, parse_ring_token

if TYPE_CHECKING:
    from .classify import DualSummary
    from .weights import LeeEnumerator

__all__ = [
    "MAX_BRUTE_AMBIENT_BITS",
    "MAX_CODE_WORD_BITS",
    "AmbientShape",
    "MixedVector",
    "AdditiveCode",
    "BinaryCode",
    "zero_vector",
    "vec_add",
    "scalar_mul",
    "inner_product",
    "lee_weight_vec",
    "gray_map",
    "gray_image",
    "gray_parameters",
    "span",
    "additive_span",
    "dual",
    "dual_brute",
    "min_lee_weight",
    "parse_matrix",
    "parse_matrix_file",
    "format_row",
    "format_matrix",
]

# Largest ambient 2^N scanned by dual_brute (memory: one boolean per word).
MAX_BRUTE_AMBIENT_BITS = 26

# Largest code 2^k whose codeword array is built (8 bytes per word and
# limb, plus a temporary of the same size per kernel).
MAX_CODE_WORD_BITS = 26


@dataclass(frozen=True)
class AmbientShape:
    """Number of binary (alpha) and ring (beta) coordinates."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.alpha + self.beta == 0:
            raise ValueError("ambient needs at least one coordinate")

    @property
    def big_n(self) -> int:
        """Binary length of the Gray image: alpha + 2*beta."""
        return self.alpha + 2 * self.beta

    @property
    def ambient_size(self) -> int:
        return 1 << self.big_n

    @cached_property
    def ring_mask(self) -> int:
        return (1 << (2 * self.beta)) - 1

    @cached_property
    def ring_a_mask(self) -> int:
        # 0b0101...01 over beta digits: the unit-coefficient bits
        return self.ring_mask // 3 if self.beta else 0

    @cached_property
    def limbs(self) -> int:
        """64-bit limbs per word in a codeword array."""
        return -(-self.big_n // 64)

    def bin_bit(self, i: int) -> int:
        """Bit position of binary coordinate i (0 is most significant)."""
        return self.alpha - 1 - i

    def ring_shift(self, j: int) -> int:
        """Bit shift of ring coordinate j (0 is most significant)."""
        return 2 * (self.beta - 1 - j)


@dataclass(frozen=True)
class MixedVector:
    """One vector: packed binary part ``bin`` and packed ring part ``ring``."""

    shape: AmbientShape
    bin: int
    ring: int

    def __post_init__(self):
        if not 0 <= self.bin < (1 << self.shape.alpha):
            raise ValueError("binary part out of range for shape")
        if not 0 <= self.ring <= self.shape.ring_mask:
            raise ValueError("ring part out of range for shape")

    @classmethod
    def from_coords(
        cls,
        shape: AmbientShape,
        bits: Sequence[int],
        elems: Sequence[RingElem | int],
    ) -> "MixedVector":
        if len(bits) != shape.alpha or len(elems) != shape.beta:
            raise ShapeMismatch("coordinate counts do not match shape")
        b = 0
        for x in bits:
            if x not in (0, 1):
                raise ValueError(f"binary coordinate must be 0 or 1, got {x!r}")
            b = (b << 1) | x
        r = 0
        for e in elems:
            r = (r << 2) | int(RingElem(e))
        return cls(shape, b, r)

    @classmethod
    def from_packed(cls, shape: AmbientShape, word: int) -> "MixedVector":
        return cls(shape, word >> (2 * shape.beta), word & shape.ring_mask)

    @property
    def packed(self) -> int:
        """Single-integer form; compares in canonical vector order."""
        return (self.bin << (2 * self.shape.beta)) | self.ring

    @property
    def bin_bits(self) -> tuple[int, ...]:
        a = self.shape.alpha
        return tuple((self.bin >> (a - 1 - i)) & 1 for i in range(a))

    @property
    def ring_elems(self) -> tuple[RingElem, ...]:
        b = self.shape.beta
        return tuple(
            RingElem((self.ring >> (2 * (b - 1 - j))) & 3) for j in range(b)
        )

    @property
    def is_zero(self) -> bool:
        return self.bin == 0 and self.ring == 0

    def __add__(self, other: "MixedVector") -> "MixedVector":
        return vec_add(self, other)

    def __rmul__(self, c) -> "MixedVector":
        return scalar_mul(c, self)

    def lee_weight(self) -> int:
        return lee_weight_vec(self)

    def gray(self) -> tuple[int, ...]:
        return gray_map(self)

    def __str__(self) -> str:
        return format_row(self)


def zero_vector(shape: AmbientShape) -> MixedVector:
    return MixedVector(shape, 0, 0)


def _check_same_shape(v: MixedVector, w: MixedVector) -> None:
    if v.shape != w.shape:
        raise ShapeMismatch(f"shapes differ: {v.shape} vs {w.shape}")


def vec_add(v: MixedVector, w: MixedVector) -> MixedVector:
    """Coordinatewise sum; both parts are exponent-2 groups, so XOR."""
    _check_same_shape(v, w)
    return MixedVector(v.shape, v.bin ^ w.bin, v.ring ^ w.ring)


def scalar_mul(c: RingElem | int, v: MixedVector) -> MixedVector:
    """(r + u*q) * v: binary part times r, ring part times the scalar."""
    c = int(RingElem(c))
    if c == 0:
        return zero_vector(v.shape)
    if c == 1:
        return v
    a = v.ring & v.shape.ring_a_mask
    if c == 2:  # u * (a + ub) = u*a, and u kills the binary part
        return MixedVector(v.shape, 0, a << 1)
    # (1+u)(a + ub) = a + u*(a + b)
    b = (v.ring >> 1) & v.shape.ring_a_mask
    return MixedVector(v.shape, v.bin, a | ((a ^ b) << 1))


def _u_mul_packed(shape: AmbientShape, word: int) -> int:
    """u * word on packed single-integer form (binary part dies)."""
    return (word & shape.ring_a_mask) << 1


def _inner_packed(shape: AmbientShape, w1: int, w2: int) -> int:
    """Encoding of the inner product of two packed words."""
    a_mask = shape.ring_a_mask
    beta2 = 2 * shape.beta
    parity = ((w1 >> beta2) & (w2 >> beta2)).bit_count() & 1
    x = w1 & shape.ring_mask
    y = w2 & shape.ring_mask
    xa, xb = x & a_mask, (x >> 1) & a_mask
    ya, yb = y & a_mask, (y >> 1) & a_mask
    prod_a = xa & ya
    prod_b = (xa & yb) ^ (xb & ya)
    # XOR-fold the digit encodings: component parities
    a = prod_a.bit_count() & 1
    b = (prod_b.bit_count() & 1) ^ parity
    return a | (b << 1)


def inner_product(v: MixedVector, w: MixedVector) -> RingElem:
    """u * <binary parts over Z2> + <ring parts over R>, valued in R."""
    _check_same_shape(v, w)
    return RingElem(_inner_packed(v.shape, v.packed, w.packed))


def _sigma_packed(shape: AmbientShape, word: int) -> int:
    """Binary part kept, the two bits of each ring digit swapped: the
    u-component of g.w is the binary dot product of g and sigma(w)."""
    a_mask = shape.ring_a_mask
    return (
        (word & ~shape.ring_mask)
        | ((word & a_mask) << 1)
        | ((word >> 1) & a_mask)
    )


def _gray_packed(shape: AmbientShape, word: int) -> int:
    """Packed Gray image: binary part kept, each ring digit -> psi pair."""
    return word ^ ((word >> 1) & shape.ring_a_mask)


def _lee_packed(shape: AmbientShape, word: int) -> int:
    return _gray_packed(shape, word).bit_count()


def lee_weight_vec(v: MixedVector) -> int:
    """Hamming weight of the binary part plus Lee weights of ring digits."""
    return _lee_packed(v.shape, v.packed)


def gray_map(v: MixedVector) -> tuple[int, ...]:
    """Length alpha + 2*beta bit tuple; distance-preserving for Lee/Hamming."""
    g = _gray_packed(v.shape, v.packed)
    n = v.shape.big_n
    return tuple((g >> (n - 1 - i)) & 1 for i in range(n))


@dataclass(frozen=True)
class BinaryCode:
    """A set of binary words of common length n, packed MSB-first."""

    n: int
    words: tuple[int, ...]

    @classmethod
    def from_bitrows(cls, rows: Iterable[Sequence[int]]) -> "BinaryCode":
        packed = []
        n = None
        for row in rows:
            if n is None:
                n = len(row)
            elif len(row) != n:
                raise ShapeMismatch("binary words have differing lengths")
            w = 0
            for x in row:
                w = (w << 1) | (x & 1)
            packed.append(w)
        if n is None:
            raise ValueError("empty word set")
        return cls(n, tuple(sorted(set(packed))))

    def weights(self) -> Iterator[int]:
        for w in self.words:
            yield w.bit_count()

    def min_weight(self) -> int | None:
        nz = [w.bit_count() for w in self.words if w]
        return min(nz) if nz else None

    def __len__(self) -> int:
        return len(self.words)


class AdditiveCode:
    """An additive code: a subgroup of the ambient module.

    Construct through :func:`span` (closed under u-scaling, hence an
    R-submodule) or :func:`dual`; :func:`additive_span` builds the
    plain subgroup generated by the rows, which is a submodule only when
    the rows happen to be u-closed.  ``basis`` is the reduced echelon
    XOR basis (packed integers, increasing), which identifies the code;
    ``generators`` are the rows it was built from (the basis itself when
    given as None, as for derived codes, built when first read).
    ``array`` holds every codeword, in canonical order, and is built
    from the basis on first access, only for the per-word counts;
    ``words`` is the same list as Python ints.  Two invariants are kept
    once computed: ``_lee``, set by :func:`z2zu.weights.lee_enumerator`,
    and ``_dual``, set by :func:`z2zu.classify.dual_summary`.
    """

    __slots__ = ("shape", "_generators", "basis", "_array", "_words",
                 "_codewords", "_lee", "_dual")

    def __init__(
        self,
        shape: AmbientShape,
        generators: tuple[MixedVector, ...] | None,
        basis: tuple[int, ...],
    ):
        # sorted by leading bit, each row zero at the lower rows' ones
        lead = pivots = 0
        for b in basis:
            if b.bit_length() <= lead or b & pivots:
                raise ValueError("basis is not in sorted reduced echelon form")
            lead = b.bit_length()
            pivots |= 1 << (lead - 1)
        if lead > shape.big_n:
            raise ValueError("basis row out of range for shape")
        self.shape = shape
        self._generators = generators
        self.basis = basis
        self._array: np.ndarray | None = None
        self._words: tuple[int, ...] | None = None
        self._codewords: tuple[MixedVector, ...] | None = None
        self._lee: LeeEnumerator | None = None
        self._dual: DualSummary | None = None

    @property
    def generators(self) -> tuple[MixedVector, ...]:
        if self._generators is None:
            self._generators = tuple(
                MixedVector.from_packed(self.shape, b) for b in self.basis
            )
        return self._generators

    @property
    def cardinality(self) -> int:
        return 1 << len(self.basis)

    @property
    def array(self) -> np.ndarray:
        """All codewords, sorted, as a (|C|, shape.limbs) ``uint64`` array.

        Row j is the XOR of the basis rows at the set bits of j: two
        combinations compare as the highest row they differ in decides,
        since only that row has its leading bit.  Row 0 is the zero
        word, and row 2^i is basis row i.
        """
        if self._array is None:
            self._array = _word_array(self.shape, self.basis)
        return self._array

    @property
    def words(self) -> tuple[int, ...]:
        """All codewords as packed Python ints, in the order of ``array``."""
        if self._words is None:
            self._words = _ints(self.array)
        return self._words

    @property
    def codewords(self) -> tuple[MixedVector, ...]:
        if self._codewords is None:
            self._codewords = tuple(
                MixedVector.from_packed(self.shape, w) for w in self.words
            )
        return self._codewords

    def __contains__(self, v: MixedVector) -> bool:
        if v.shape != self.shape:
            return False
        return _reduce(self.basis, v.packed) == 0

    def __len__(self) -> int:
        return self.cardinality

    def __iter__(self) -> Iterator[MixedVector]:
        return iter(self.codewords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdditiveCode):
            return NotImplemented
        return self.shape == other.shape and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.shape, self.basis))

    def is_module(self) -> bool:
        """True when the code is closed under multiplication by u.

        Closure under u and addition gives closure under every scalar,
        so this is exactly the R-submodule condition.  u is additive
        over XOR, hence checking the basis suffices.
        """
        return all(
            _reduce(self.basis, _u_mul_packed(self.shape, b)) == 0
            for b in self.basis
        )

    def __repr__(self) -> str:
        return (
            f"AdditiveCode(alpha={self.shape.alpha}, beta={self.shape.beta}, "
            f"cardinality={self.cardinality})"
        )


def _require_module(code: AdditiveCode, op: str) -> None:
    if not code.is_module():
        raise PreconditionViolation(
            f"{op} requires a code closed under multiplication by u; "
            "this one is a bare subgroup (built with additive_span?)"
        )


def _reduce(basis: Iterable[int], x: int) -> int:
    """x with every basis row's leading bit cleared; 0 iff x is in the span.

    ``x ^ b < x`` holds exactly when x has b's leading bit.  The rows of
    a reduced basis are zero at each other's leading bits, so the order
    in which they are applied does not matter.
    """
    for b in basis:
        if x ^ b < x:
            x ^= b
    return x


def _echelon(
    shape: AmbientShape,
    rows: Iterable[int],
    u_closed: bool = True,
) -> dict[int, int]:
    """Echelon half of :func:`_rref`: the packed rows (and u*rows when
    u_closed), kept one per leading bit.  Its size is the rank, so the
    code has 2^len words."""
    lead: dict[int, int] = {}
    a_mask = shape.ring_a_mask
    for g in rows:
        # (g & a_mask) << 1 is u*g (_u_mul_packed), inlined: the
        # exhaustive walk and the random search run this per candidate
        for x in (g, (g & a_mask) << 1) if u_closed else (g,):
            while x:
                n = x.bit_length()
                r = lead.get(n)
                if r is None:
                    lead[n] = x
                    break
                x ^= r
    return lead


def _back_substitute(lead: dict[int, int]) -> tuple[int, ...]:
    """Reduced echelon basis of an :func:`_echelon` result, sorted
    increasing: each row reduced by the rows below it, lowest first."""
    basis: list[int] = []
    for n in sorted(lead):
        basis.append(_reduce(basis, lead[n]))
    return tuple(basis)


def _rref(
    shape: AmbientShape,
    rows: Iterable[int],
    u_closed: bool = True,
) -> tuple[int, ...]:
    """Reduced echelon XOR basis of the packed rows (and u*rows when
    u_closed), sorted increasing."""
    return _back_substitute(_echelon(shape, rows, u_closed))


def _packed(shape: AmbientShape, rows: Sequence[MixedVector]) -> list[int]:
    if any(v.shape != shape for v in rows):
        raise ShapeMismatch("row shape does not match ambient shape")
    return [v.packed for v in rows]


def span(shape: AmbientShape, rows: Sequence[MixedVector]) -> AdditiveCode:
    """Smallest code containing the rows: the additive span of the
    generating set {row, u*row}."""
    return AdditiveCode(shape, tuple(rows), _rref(shape, _packed(shape, rows)))


def additive_span(
    shape: AmbientShape, rows: Sequence[MixedVector]
) -> AdditiveCode:
    """Smallest subgroup containing the rows, without scalar closure.

    Coincides with :func:`span` exactly when every u*row already lies in
    the subgroup; otherwise the result is not a module and the
    operations that rely on module structure (standard form, duals)
    refuse it.  One bundled reference matrix generates its published
    codeword set only in this weaker sense, which is why the distinction
    is exposed at all.
    """
    basis = _rref(shape, _packed(shape, rows), u_closed=False)
    return AdditiveCode(shape, tuple(rows), basis)


def _to_limbs(shape: AmbientShape, xs: Sequence[int]) -> np.ndarray:
    """Packed words as a (len(xs), shape.limbs) array of 64-bit limbs,
    most significant first."""
    n = shape.limbs
    return np.array(
        [[(x >> (64 * (n - 1 - i))) & 0xFFFF_FFFF_FFFF_FFFF for i in range(n)]
         for x in xs],
        dtype=np.uint64,
    ).reshape(len(xs), n)


def _ints(array: np.ndarray) -> tuple[int, ...]:
    """Rows of a codeword array as packed Python ints."""
    out = array[:, 0].tolist()
    for i in range(1, array.shape[1]):
        out = [(x << 64) | y for x, y in zip(out, array[:, i].tolist())]
    return tuple(out)


def _word_array(shape: AmbientShape, basis: Sequence[int]) -> np.ndarray:
    """Every XOR combination of the basis rows, by doubling: rows
    [2^i, 2^(i+1)) are rows [0, 2^i) plus basis row i."""
    if len(basis) > MAX_CODE_WORD_BITS:
        raise CodeTooLarge(
            f"code has 2^{len(basis)} words; building them is capped "
            f"at 2^{MAX_CODE_WORD_BITS}"
        )
    array = np.zeros((1 << len(basis), shape.limbs), dtype=np.uint64)
    n = 1
    for row in _to_limbs(shape, basis):
        np.bitwise_xor(array[:n], row, out=array[n : 2 * n])
        n *= 2
    return array


def _reduced_basis(array: np.ndarray) -> tuple[int, ...]:
    """Reduced echelon XOR basis of a sorted codeword array of 2^k rows.

    It is rows 1, 2, 4, ..., 2^(k-1): by the ordering argument in
    :attr:`AdditiveCode.array`, row 2^i of the sorted array is basis
    row i itself.
    """
    k = len(array).bit_length() - 1
    return _ints(array[[1 << i for i in range(k)]])


def _gray_array(shape: AmbientShape, array: np.ndarray) -> np.ndarray:
    """Gray images of a codeword array's rows (the _gray_packed formula)."""
    return array ^ ((array >> 1) & _to_limbs(shape, (shape.ring_a_mask,)))


def _lee_array(shape: AmbientShape, array: np.ndarray) -> np.ndarray:
    """Lee weight of every row: the popcount of its Gray image."""
    return np.bitwise_count(_gray_array(shape, array)).sum(axis=1, dtype=np.intp)


_MUL_TABLE = np.array(
    [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]], dtype=np.uint8
)


def _parity_u64(x: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(x) & np.uint64(1)).astype(np.uint8)


def dual(code: AdditiveCode) -> AdditiveCode:
    """Dual of a u-closed code, read off its reduced echelon basis.

    The packed code's binary dual has one row per non-pivot bit j: bit
    j plus the leading bits of the basis rows that have bit j (each
    basis row meets it in exactly two bits, and no other basis row
    has those leading bits).  sigma of those rows spans the dual (see
    the module docstring).  Two exact checks pin the result: every
    dual row is orthogonal to every code row under the full R-valued
    inner product, and |C| * |dual| = 2^N.
    """
    _require_module(code, "dual")
    shape = code.shape
    pivots = {b.bit_length() - 1: b for b in code.basis}
    rows = []
    for j in range(shape.big_n):
        if j in pivots:
            continue
        row = 1 << j
        for p, b in pivots.items():
            if b >> j & 1:
                row |= 1 << p
        rows.append(_sigma_packed(shape, row))
    basis = _rref(shape, rows, u_closed=False)
    if any(_inner_packed(shape, d, b) for d in basis for b in code.basis):
        raise InternalVerificationFailure(
            "a dual basis row is not orthogonal to the code"
        )
    if code.cardinality << len(basis) != shape.ambient_size:
        raise InternalVerificationFailure(
            "cardinality product |C| * |dual| != 2^N"
        )
    return AdditiveCode(shape, None, basis)


def dual_brute(code: AdditiveCode) -> AdditiveCode:
    """Dual by scanning the entire ambient module once: the reference
    :func:`dual` is tested against.

    A word is in the dual iff it is orthogonal to every generator; the
    inner product is bilinear, so generators suffice.  For generator g
    the product g.w splits into a binary parity p and a ring XOR-fold s,
    and g.w = 0 iff s has no unit component and its u component equals
    p.  Both pieces depend only on one half of the index grid, so each
    generator contributes one vectorised outer condition.  The scanned
    words must be exactly the words of the basis read off them.
    """
    _require_module(code, "dual_brute")
    shape = code.shape
    if shape.big_n > MAX_BRUTE_AMBIENT_BITS:
        raise AmbientTooLarge(
            f"ambient has 2^{shape.big_n} words; brute-force dual is capped "
            f"at 2^{MAX_BRUTE_AMBIENT_BITS}"
        )
    alpha, beta = shape.alpha, shape.beta
    nbin, nring = 1 << alpha, 1 << (2 * beta)
    bins = np.arange(nbin, dtype=np.uint64)
    rings = np.arange(nring, dtype=np.uint64)
    mask = np.ones((nbin, nring), dtype=bool)
    for g in code.generators:
        if g.is_zero:
            continue
        par = _parity_u64(bins & np.uint64(g.bin))
        acc = np.zeros(nring, dtype=np.uint8)
        for j in range(beta):
            sh = shape.ring_shift(j)
            gd = (g.ring >> sh) & 3
            if gd:
                digits = ((rings >> np.uint64(sh)) & np.uint64(3)).astype(np.uint8)
                acc ^= _MUL_TABLE[gd][digits]
        mask &= ((acc & 1) == 0)[None, :]
        mask &= par[:, None] == (acc >> 1)[None, :]
    bi, ri = np.nonzero(mask)
    # row-major nonzero order is already the canonical word order
    array = ((bi.astype(np.uint64) << np.uint64(2 * beta)) | ri.astype(np.uint64))
    array = array[:, None]
    dual = AdditiveCode(shape, None, _reduced_basis(array))
    if code.cardinality * dual.cardinality != shape.ambient_size:
        raise InternalVerificationFailure(
            "cardinality product |C| * |dual| != 2^N after ambient scan"
        )
    if not np.array_equal(dual.array, array):
        raise InternalVerificationFailure(
            "the scanned words are not the span of their read-off basis"
        )
    return dual


def min_lee_weight(code: AdditiveCode) -> int:
    """Smallest Lee weight among nonzero codewords."""
    if code.cardinality < 2:
        raise TrivialCode("the zero code has no nonzero codeword")
    # row 0 is the zero word
    return int(_lee_array(code.shape, code.array[1:]).min())


def gray_image(code: AdditiveCode) -> BinaryCode:
    """Componentwise Gray image as a binary code of length alpha + 2*beta."""
    gray = _gray_array(code.shape, code.array)
    # lexsort's last key is the primary one: limb 0
    gray = gray[np.lexsort(gray.T[::-1])]
    return BinaryCode(code.shape.big_n, _ints(gray))


def gray_parameters(code: AdditiveCode) -> tuple[int, int, int | None]:
    """(n, k, d) of the Gray image: length, log2 of size, minimum distance.

    The Gray map is a weight-preserving bijection, so d equals the
    minimum Lee weight; it is read off the code's Lee enumerator, and no
    image is materialised.  d is None for the zero code.
    """
    # weights imports core, so this import is local
    from .weights import lee_enumerator

    n = code.shape.big_n
    k = code.cardinality.bit_length() - 1
    return (n, k, lee_enumerator(code).min_nonzero_weight())


# ---------------------------------------------------------------------------
# Matrix file grammar
#
# One row per line.  '#' starts a comment, blank lines are skipped.  A row
# is whitespace-separated binary tokens, a literal '|', then ring tokens
# (0, 1, u, v, 1+u, u+1).  The '|' is mandatory even when alpha or beta
# is zero, and every row must agree on both counts.
# ---------------------------------------------------------------------------


def _tokenize_row(line: str) -> list[tuple[str, int]]:
    """Split one line into (token, 1-based column) pairs; '|' self-delimits."""
    out = []
    tok_start = None
    for idx, ch in enumerate(line):
        if ch.isspace() or ch == "|":
            if tok_start is not None:
                out.append((line[tok_start:idx], tok_start + 1))
                tok_start = None
            if ch == "|":
                out.append(("|", idx + 1))
        elif tok_start is None:
            tok_start = idx
    if tok_start is not None:
        out.append((line[tok_start:], tok_start + 1))
    return out


def parse_matrix(text: str) -> tuple[AmbientShape, list[MixedVector]]:
    """Parse generator rows from the matrix grammar.

    Returns the common shape and the rows in file order.  Raises
    :class:`MatrixParseError` with 1-based line/column on any defect,
    including ragged rows and a missing or repeated '|'.
    """
    rows_raw: list[tuple[int, list[tuple[str, int]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize_row(line)
        if tokens:
            rows_raw.append((lineno, tokens))
    if not rows_raw:
        raise MatrixParseError("no generator rows found", 1, 1)

    shape: AmbientShape | None = None
    rows: list[MixedVector] = []
    for lineno, tokens in rows_raw:
        bars = [i for i, (t, _) in enumerate(tokens) if t == "|"]
        if not bars:
            last_col = tokens[-1][1] + len(tokens[-1][0])
            raise MatrixParseError("row has no '|' separator", lineno, last_col)
        if len(bars) > 1:
            raise MatrixParseError(
                "row has more than one '|' separator", lineno, tokens[bars[1]][1]
            )
        cut = bars[0]
        bin_toks = tokens[:cut]
        ring_toks = tokens[cut + 1 :]

        bits = []
        for t, col in bin_toks:
            if t not in ("0", "1"):
                raise MatrixParseError(
                    f"invalid binary token {t!r} (expected 0 or 1)", lineno, col
                )
            bits.append(int(t))
        elems = []
        for t, col in ring_toks:
            try:
                elems.append(parse_ring_token(t))
            except ValueError:
                raise MatrixParseError(
                    f"invalid ring token {t!r}", lineno, col
                ) from None

        if shape is None:
            try:
                shape = AmbientShape(len(bits), len(elems))
            except ValueError as exc:
                raise MatrixParseError(str(exc), lineno, tokens[cut][1]) from None
        elif len(bits) != shape.alpha or len(elems) != shape.beta:
            raise MatrixParseError(
                f"row has {len(bits)}+{len(elems)} columns, "
                f"expected {shape.alpha}+{shape.beta}",
                lineno,
                tokens[cut][1],
            )
        rows.append(MixedVector.from_coords(shape, bits, elems))
    assert shape is not None
    return shape, rows


def parse_matrix_file(path) -> tuple[AmbientShape, list[MixedVector]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def format_row(v: MixedVector) -> str:
    """Render one row in the matrix grammar with canonical ring symbols."""
    left = " ".join(str(b) for b in v.bin_bits)
    right = " ".join(e.symbol for e in v.ring_elems)
    if left and right:
        return f"{left} | {right}"
    if left:
        return f"{left} |"
    return f"| {right}"


def format_matrix(rows: Sequence[MixedVector], trailer: str | None = None) -> str:
    lines = [format_row(v) for v in rows]
    if trailer is not None:
        lines.append(f"# {trailer}")
    return "\n".join(lines) + "\n"
