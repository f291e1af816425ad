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
elimination routine :func:`_rref`.  The basis is canonical, so size,
equality, membership, the module test, the dual and the column profile
all come from it.  The Lee enumerator is counted from it too, in
cache-sized blocks of the Gray span, two blocks per bincount while
N <= 89, and keeps no words (:func:`_lee_counts`); a code of at most
2^7 words is counted in Python ints.  The codewords are
built from the basis only for ``words``, the Gray image and the
minimum Lee weight, once, as a numpy ``uint64`` array of shape (|C|, L)
with L = ceil(N/64) limbs per word, limb 0 the most significant
(:attr:`AdditiveCode.array`), and that array is the only word set kept; ``words``, the same codewords as
Python ints, is converted from it on each read.  Counting and building
are both capped at 2^MAX_CODE_WORD_BITS words.

The Gray image of a packed word w is w ^ ((w >> 1) & ring_a_mask): it
keeps the binary part and sends ring digit a + 2b to the pair
(b, a ^ b).  Its popcount is the Lee weight.  A ring digit never
straddles two limbs (64 is even), so the expression applies limb by
limb to the array unchanged.  It is XOR-linear, so the Gray image of a
span is the span of the Gray images of its basis rows.

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

import re
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
from .ring import _SYMBOLS, RING_TOKENS, RingElem

if TYPE_CHECKING:
    from .classify import DualSummary
    from .weights import ColumnProfile, LeeEnumerator

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

# Largest code 2^k whose words are counted or built.  The codeword
# array takes 8 bytes per word and limb, plus a temporary of the same
# size per kernel; the Lee count keeps no words, so its cost is time.
MAX_CODE_WORD_BITS = 26

# Basis rows in the low block of the Lee count (_lee_counts): its 2^13
# words take 64 KB per limb, which stays in L2 cache.
_LEE_BLOCK_BITS = 13

# Most basis rows whose Lee count runs in Python ints (_lee_counts):
# lee_enumerator of a fresh code took 21.8 against 25.9 us at 7 rows
# and N = 26, and 33.5 against 31.2 us at 8 rows (int route against
# numpy, medians of 2,000 calls, 2-core host); N = 8, 14 and 130 cross
# between the same two sizes.
_LEE_INT_BITS = 7

# Most (x, y) pairs that _orthogonal tests one at a time in Python ints:
# dual() took 38.7 against 39.7 us with 40 pairs at N = 14, and 35.9
# against 33.8 us with 45 pairs (int route against numpy, every pair
# orthogonal, medians of 3,000 calls, 2-core host); at N = 16 to 26 the
# int route won at 25 to 39 pairs and lost at 45 to 51.
_ORTHOGONAL_INT_PAIRS = 40


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

    @cached_property
    def ring_a_limbs(self) -> np.ndarray:
        """ring_a_mask as a read-only (1, limbs) limb array, which
        broadcasts over a codeword array's rows."""
        mask = _to_limbs(self, (self.ring_a_mask,))
        mask.flags.writeable = False
        return mask

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
    """u * word on packed single-integer form (binary part dies).  It
    works elementwise on a ``uint64`` array of words too, when N <= 64."""
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


def _orthogonal(shape: AmbientShape, xs: Sequence[int],
                ys: Sequence[int]) -> bool:
    """True when x.y = 0 for every packed x in xs and y in ys.

    With x_bin the binary part and x_a, x_b the unit and u bits of the
    ring digits (as in :func:`_inner_packed`), x.y has unit component
    parity(x_a & y_a) and u component parity((x_bin & y_bin) ^
    (x_a & y_b) ^ (x_b & y_a)).  Each x gives two rows and each y one,
    with fields of alpha, 2*beta, 2*beta and 2*beta bits placed so
    that every component is the parity of one AND:

        u component of x    x_bin | x_a | x_b |  0
        unit component of x   0   |  0  |  0  | x_a
        y                   y_bin | y_b | y_a | y_a

    The rows are words of alpha + 6*beta binary coordinates.  All pairs
    are ANDed at once, one 64-bit limb at a time, and the limbs
    XOR-folded before one popcount.

    At most _ORTHOGONAL_INT_PAIRS (40) pairs are instead tested one at
    a time by :func:`_inner_packed`, which reads both components from
    the same definition, stopping at the first nonzero product.  Below
    that count numpy's fixed cost per call outweighs the batching: timed
    inside :func:`dual`, the two routes cross between 40 and 45 pairs
    (the times are at the constant).
    """
    if len(xs) * len(ys) <= _ORTHOGONAL_INT_PAIRS:
        return not any(_inner_packed(shape, x, y) for x in xs for y in ys)
    beta2 = 2 * shape.beta
    a_mask = shape.ring_a_mask
    rows: list[int] = []
    for x in xs:
        xa, xb = x & a_mask, x >> 1 & a_mask
        rows += ((((x >> beta2) << beta2 | xa) << beta2 | xb) << beta2, xa)
    cols = []
    for y in ys:
        ya, yb = y & a_mask, y >> 1 & a_mask
        cols.append((((y >> beta2) << beta2 | yb) << beta2 | ya) << beta2 | ya)
    fields = AmbientShape(shape.alpha + 3 * beta2, 0)
    folded = np.zeros((len(rows), len(cols)), dtype=np.uint64)
    for r, c in zip(_to_limbs(fields, rows).T, _to_limbs(fields, cols).T):
        folded ^= np.bitwise_and.outer(r, c)
    return not (np.bitwise_count(folded) & 1).any()


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

    def weights(self) -> Iterator[int]:
        for w in self.words:
            yield w.bit_count()

    def __len__(self) -> int:
        return len(self.words)


class AdditiveCode:
    """An additive code: a subgroup of the ambient module.

    Construct through :func:`span` (closed under u-scaling, hence an
    R-submodule) or :func:`dual`; :func:`additive_span` builds the
    plain subgroup generated by the rows, which is a submodule only when
    the rows happen to be u-closed.  ``basis`` is the reduced echelon
    XOR basis (packed integers, increasing), which identifies the code;
    ``rows`` are the packed rows it was built from, None for derived
    codes; ``generators`` builds them, else the basis, on each read.
    ``array`` is the one word set kept: every codeword, in canonical
    order, built from the basis on first access, for the Gray image,
    the minimum Lee weight and ``words``, the same list as Python ints,
    converted on each read; iterating yields each word as a
    :class:`MixedVector` from that list.  The Lee enumerator is counted
    from the basis without any of them.  Four invariants
    are kept once computed: ``_module``, set by :meth:`is_module`,
    ``_lee``, set by :func:`z2zu.weights.lee_enumerator`, ``_profile``,
    set by :func:`z2zu.weights.column_profile`, and ``_dual``, set by
    :func:`z2zu.classify.dual_summary`.
    """

    __slots__ = ("shape", "rows", "basis", "_array", "_module",
                 "_lee", "_profile", "_dual")

    def __init__(
        self,
        shape: AmbientShape,
        rows: tuple[int, ...] | None,
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
        self.rows = rows
        self.basis = basis
        self._array: np.ndarray | None = None
        self._module: bool | None = None
        self._lee: LeeEnumerator | None = None
        self._profile: ColumnProfile | None = None
        self._dual: DualSummary | None = None

    @property
    def generators(self) -> tuple[MixedVector, ...]:
        rows = self.basis if self.rows is None else self.rows
        return tuple(MixedVector.from_packed(self.shape, g) for g in rows)

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
            _check_code_size(self.basis)
            self._array = _doubled(_to_limbs(self.shape, self.basis))
        return self._array

    @property
    def words(self) -> tuple[int, ...]:
        """All codewords as packed Python ints, in the order of ``array``;
        converted from it on each read, not kept."""
        return _ints(self.array)

    def __contains__(self, v: MixedVector) -> bool:
        if v.shape != self.shape:
            return False
        return _reduce(self.basis, v.packed) == 0

    def __len__(self) -> int:
        return self.cardinality

    def __iter__(self) -> Iterator[MixedVector]:
        return (MixedVector.from_packed(self.shape, w) for w in self.words)

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
        over XOR, hence checking the basis suffices.  Kept once computed.
        """
        if self._module is None:
            self._module = all(
                _reduce(self.basis, _u_mul_packed(self.shape, b)) == 0
                for b in self.basis
            )
        return self._module

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


def _rref(
    shape: AmbientShape,
    rows: Iterable[int],
    u_closed: bool = True,
) -> tuple[int, ...]:
    """Reduced echelon XOR basis of the packed rows (and u*rows when
    u_closed), sorted increasing: the rows are kept one per leading bit,
    then each is reduced by the rows below it, lowest first."""
    lead: dict[int, int] = {}
    a_mask = shape.ring_a_mask
    for g in rows:
        # (g & a_mask) << 1 is u*g (_u_mul_packed), inlined: the random
        # search runs this per size-rule survivor, or per draw in a
        # space with a shape too wide for its numpy blocks
        for x in (g, (g & a_mask) << 1) if u_closed else (g,):
            while x:
                n = x.bit_length()
                r = lead.get(n)
                if r is None:
                    lead[n] = x
                    break
                x ^= r
    basis: list[int] = []
    for n in sorted(lead):
        basis.append(_reduce(basis, lead[n]))
    return tuple(basis)


def _packed(shape: AmbientShape, rows: Sequence[MixedVector]) -> tuple[int, ...]:
    if any(v.shape != shape for v in rows):
        raise ShapeMismatch("row shape does not match ambient shape")
    return tuple(v.packed for v in rows)


def span(shape: AmbientShape, rows: Sequence[MixedVector]) -> AdditiveCode:
    """Smallest code containing the rows: the additive span of the
    generating set {row, u*row}."""
    packed = _packed(shape, rows)
    return AdditiveCode(shape, packed, _rref(shape, packed))


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
    packed = _packed(shape, rows)
    return AdditiveCode(shape, packed, _rref(shape, packed, u_closed=False))


def _to_limbs(shape: AmbientShape, xs: Sequence[int]) -> np.ndarray:
    """Packed words as a (len(xs), shape.limbs) array of 64-bit limbs,
    most significant first."""
    n = shape.limbs
    data = b"".join(x.to_bytes(8 * n, "big") for x in xs)
    return np.frombuffer(data, dtype=">u8").astype(np.uint64).reshape(len(xs), n)


def _ints(array: np.ndarray) -> tuple[int, ...]:
    """Rows of a codeword array as packed Python ints."""
    out = array[:, 0].tolist()
    for i in range(1, array.shape[1]):
        out = [(x << 64) | y for x, y in zip(out, array[:, i].tolist())]
    return tuple(out)


def _check_code_size(basis: Sequence[int]) -> None:
    if len(basis) > MAX_CODE_WORD_BITS:
        raise CodeTooLarge(
            f"code has 2^{len(basis)} words; building them is capped "
            f"at 2^{MAX_CODE_WORD_BITS}"
        )


def _doubled(rows: np.ndarray) -> np.ndarray:
    """Every XOR combination of the rows of a (k, L) limb array, by
    doubling: rows [2^i, 2^(i+1)) are rows [0, 2^i) plus row i.  The
    columns are independent, so a (k, n) array of n single-limb bases,
    one per column, gives each basis's words in its column."""
    array = np.zeros((1 << len(rows), rows.shape[1]), dtype=np.uint64)
    n = 1
    for row in rows:
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
    """Gray images of a codeword array's rows (the _gray_packed formula).
    With N <= 64 every entry is one word, so any array of single-limb
    words, a batch of many codes' words included, maps entry by entry."""
    return array ^ ((array >> 1) & shape.ring_a_limbs)


def _popcounts(limbs: np.ndarray) -> np.ndarray:
    """Popcount of each word of a limb-major (L, m) array: the sum of
    its L rows' popcounts, in the narrowest unsigned dtype that holds
    64*L.  One limb's popcounts (at most 64) stay uint8, which
    np.bincount takes as is."""
    out = np.bitwise_count(limbs[0])
    if len(limbs) == 1:
        return out
    out = out.astype(np.min_scalar_type(64 * len(limbs)))
    for limb in limbs[1:]:
        out += np.bitwise_count(limb)
    return out


def _lee_counts(shape: AmbientShape, basis: Sequence[int]) -> np.ndarray:
    """Number of words of span(basis) at each Lee weight 0..N, without
    building the words.

    The Gray map is XOR-linear, so the Gray images of the code are the
    span of the Gray images of the basis rows.  The span of the first
    _LEE_BLOCK_BITS of them is built once, limb-major, and stays in
    cache; every word x of the span of the rest gives the block of
    words that block XOR x.  While the (N+1)^2 pair histogram is no
    larger than a block (N <= 89), the blocks go through np.bincount
    two at a time: at each place, the weights w0 and w1 of blocks x0
    and x1 become one index w0*(N+1) + w1, and the pair histogram,
    summed along each axis, gives the count of both.  Past that, the
    histogram would cost more than the halved bincount saves, and grow
    as N^2, so each block is counted in turn.

    A basis of at most _LEE_INT_BITS (7) rows, 2^7 words, is counted in
    Python ints instead: the rows' Gray images are doubled into a list
    of words, as :func:`_doubled` does, and each word's int.bit_count()
    is tallied.  Below that size numpy's fixed cost per call outweighs
    its speed: timed inside :func:`z2zu.weights.lee_enumerator`, the two
    routes cross between 7 and 8 rows (the times are at the constant).
    """
    _check_code_size(basis)
    n = shape.big_n
    if len(basis) <= _LEE_INT_BITS:
        words = [0]
        for b in basis:
            gray = _gray_packed(shape, b)
            words += [w ^ gray for w in words]
        counts = [0] * (n + 1)
        for w in words:
            counts[w.bit_count()] += 1
        return np.array(counts)
    gray = _to_limbs(shape, [_gray_packed(shape, b) for b in basis])
    low = _doubled(gray[:_LEE_BLOCK_BITS]).T.copy()
    # the loop below would count a small code too, with one zero x, but
    # a 3-row count then took 15.2 us against 10.7 us, and search_random
    # lost 8 of 10 alternating pairs, median ops_per_s 894k against 921k
    # (-3.0%, above the 1.9% interquartile range; 2-core host)
    if len(basis) <= _LEE_BLOCK_BITS:
        return np.bincount(_popcounts(low), minlength=n + 1)
    block = np.empty_like(low)
    highs = _doubled(gray[_LEE_BLOCK_BITS:])
    bins = (n + 1) ** 2
    if bins > low.shape[1]:
        counts = np.zeros(n + 1, dtype=np.intp)
        for x in highs:
            np.bitwise_xor(low, x[:, None], out=block)
            counts += np.bincount(_popcounts(block), minlength=n + 1)
        return counts
    pair = np.empty(low.shape[1], dtype=np.min_scalar_type(bins - 1))
    hist = np.zeros(bins, dtype=np.intp)
    # 2^(k - _LEE_BLOCK_BITS) >= 2 blocks, so they pair up
    for x0, x1 in highs.reshape(-1, 2, len(low)):
        np.bitwise_xor(low, x0[:, None], out=block)
        np.multiply(_popcounts(block), n + 1, out=pair, dtype=pair.dtype)
        np.bitwise_xor(low, x1[:, None], out=block)
        pair += _popcounts(block)
        hist += np.bincount(pair, minlength=bins)
    hist = hist.reshape(n + 1, n + 1)
    return hist.sum(axis=0) + hist.sum(axis=1)


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
    has those leading bits).  One pass over the basis rows builds them,
    each row adding its leading bit to the rows of its other bits.
    sigma of those rows spans the dual (see the module docstring).  Two
    exact checks pin the result: every dual row is orthogonal to every
    code row under the full R-valued inner product, both components of
    all pairs computed from the inner product's definition, not from
    sigma, in one batched test or, for at most 40 pairs, pair by pair
    (:func:`_orthogonal`), and |C| * |dual| = 2^N.
    """
    _require_module(code, "dual")
    shape = code.shape
    # rows[j] is bit j's row; no other basis row has a pivot, so its
    # cleared row stays 0
    rows = [1 << j for j in range(shape.big_n)]
    for b in code.basis:
        top = 1 << (b.bit_length() - 1)
        rows[top.bit_length() - 1] = 0
        rest = b ^ top
        while rest:
            low = rest & -rest
            rows[low.bit_length() - 1] |= top
            rest ^= low
    basis = _rref(shape, [_sigma_packed(shape, r) for r in rows if r],
                  u_closed=False)
    if not _orthogonal(shape, basis, code.basis):
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
    return int(_popcounts(_gray_array(code.shape, code.array[1:]).T).min())


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
# is binary tokens (0, 1), a literal '|', then ring tokens (0, 1, u, v,
# 1+u, u+1).  Tokens are separated by any Unicode whitespace; '|' needs
# none around it.  The '|' is mandatory even when alpha or beta is zero,
# and every row must agree on both counts.  A parse error cites the
# 1-based line and the character column where the offending token
# starts: one past the row's last token for a missing '|', and the
# row's '|' for a wrong row width.
# ---------------------------------------------------------------------------

# The tokens of a line, with their positions: the same tokens as
# line.replace("|", " | ").split(), since \s and str.split() share the
# Unicode whitespace test.
_TOKEN = re.compile(r"[^\s|]+|\|")


def _column(line: str, i: int) -> int:
    """1-based column where token i of ``line`` starts; one past the
    last token when i is the token count."""
    spans = [m.span() for m in _TOKEN.finditer(line)]
    return spans[i][0] + 1 if i < len(spans) else spans[-1][1] + 1


# Each ring spelling as the two bits of its encoding, so a row's ring
# part reads with one int(..., 2).
_RING_BITS = {t: format(e, "02b") for t, e in RING_TOKENS.items()}


def _bad_token(tokens: list[str], cut: int, line: str, lineno: int):
    """Raise the error for the first token of a row that is not a
    binary token left of its '|' or a ring token right of it."""
    for i, t in enumerate(tokens):
        if i < cut and t not in ("0", "1"):
            raise MatrixParseError(
                f"invalid binary token {t!r} (expected 0 or 1)",
                lineno,
                _column(line, i),
            )
        if i > cut and t not in RING_TOKENS:
            raise MatrixParseError(
                f"invalid ring token {t!r}", lineno, _column(line, i)
            )
    raise AssertionError("row has no bad token")


def parse_matrix(text: str) -> tuple[AmbientShape, list[MixedVector]]:
    """Parse generator rows from the matrix grammar.

    Returns the common shape and the rows in file order.  Tokens are
    separated by any Unicode whitespace, '|' needs none around it, and
    a ring token may be spelled 1+u or u+1 as well as v.  Raises
    :class:`MatrixParseError` on any defect, including ragged rows and a
    missing or repeated '|'.  The error cites the 1-based line and the
    character column where the offending token starts; for a missing
    '|' the column is one past the row's last token, and a wrong row
    width cites the row's '|'.  Lines end at "\n" alone, as an editor
    counts them: a form feed, U+2028 or a CRLF's "\r" is whitespace.
    """
    shape: AmbientShape | None = None
    rows: list[MixedVector] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        # str.split, _TOKEN only for an error's column: the regex alone
        # took 134-144 us per 12-row analyze_large file against 84-94 us,
        # 3% of an analyze call (2-core host)
        tokens = line.replace("|", " | ").split()
        if not tokens:
            continue
        try:
            cut = tokens.index("|")
        except ValueError:
            raise MatrixParseError(
                "row has no '|' separator", lineno, _column(line, len(tokens))
            ) from None
        if tokens.count("|") > 1:
            raise MatrixParseError(
                "row has more than one '|' separator",
                lineno,
                _column(line, tokens.index("|", cut + 1)),
            )

        # each side read with one int(..., 2); only a row that fails
        # here walks its tokens one by one, for the error's message and
        # column.  The binary tokens are all 0 or 1 exactly when they
        # join to cut characters of 0 and 1 (strip stops at any other),
        # which also keeps out what int() takes but is no bit: "10",
        # "1_0", "+1" and non-ASCII digits.  The five analyze_large
        # files parse in 264 us against 430 us token by token, the five
        # analyze_scan files in 180 against 245 us (timeit, 2-core host).
        bits = "".join(tokens[:cut])
        try:
            ring = "".join(map(_RING_BITS.__getitem__, tokens[cut + 1 :]))
        except KeyError:
            ring = None
        if ring is None or len(bits) != cut or bits.strip("01"):
            _bad_token(tokens, cut, line, lineno)

        alpha, beta = cut, len(tokens) - cut - 1
        if shape is None:
            try:
                shape = AmbientShape(alpha, beta)
            except ValueError as exc:
                raise MatrixParseError(
                    str(exc), lineno, _column(line, cut)
                ) from None
        elif alpha != shape.alpha or beta != shape.beta:
            raise MatrixParseError(
                f"row has {alpha}+{beta} columns, "
                f"expected {shape.alpha}+{shape.beta}",
                lineno,
                _column(line, cut),
            )
        rows.append(MixedVector(shape, int(bits or "0", 2), int(ring or "0", 2)))
    if shape is None:
        raise MatrixParseError("no generator rows found", 1, 1)
    return shape, rows


def parse_matrix_file(path) -> tuple[AmbientShape, list[MixedVector]]:
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # glue onto the first token
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_matrix(fh.read())


# Each hex digit of a packed ring part as its two ring symbols.
_HEX_SYMBOLS = {
    f"{x:x}": f"{_SYMBOLS[x >> 2]} {_SYMBOLS[x & 3]}" for x in range(16)
}


def format_row(v: MixedVector) -> str:
    """Render one row in the matrix grammar with canonical ring symbols.

    The ring digits are written two at a time, one per hex digit of the
    ring part; an odd beta gets a leading 0 digit, cut off again.  The
    rows of the five analyze_large standard forms take 96 us against
    142 us one digit at a time (timeit, 2-core host)."""
    beta = v.shape.beta
    left = " ".join(bin(v.bin | 1 << v.shape.alpha)[3:])
    hexits = hex(v.ring | 1 << 4 * ((beta + 1) // 2))[3:]
    right = " ".join(map(_HEX_SYMBOLS.__getitem__, hexits))[2 * (beta & 1) :]
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
