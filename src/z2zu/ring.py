"""Arithmetic in the four-element ring R = Z2 + u*Z2 with u^2 = 0.

Every element is a + u*b with a, b in {0, 1}.  The package encodes an
element as the two-bit integer a + 2*b:

    0 -> 0      1 -> 1      u -> 2      1+u -> 3

Addition is XOR on the encoding.  Multiplication follows from u^2 = 0:

    (a1 + u*b1)(a2 + u*b2) = a1*a2 + u*(a1*b2 + b1*a2)

so both operations are branch-free bit formulas.  Vector code packs many
encodings into one integer and applies the same formulas word-wide; this
module is the scalar reference implementation and the parsing/display
home for the four symbols.

Lee weights are 0, 1, 2, 1 for 0, 1, u, 1+u, and the Gray map

    psi(a + u*b) = (b, a + b)

is an isometry from (R, Lee) to (Z2^2, Hamming).
"""

from __future__ import annotations

import enum

__all__ = [
    "RingElem",
    "ZERO",
    "ONE",
    "U",
    "V",
    "parse_ring_token",
    "RING_TOKENS",
]

# Accepted input spellings.  "v" is the canonical display name for 1+u.
RING_TOKENS = {"0": 0, "1": 1, "u": 2, "v": 3, "1+u": 3, "u+1": 3}

_SYMBOLS = ("0", "1", "u", "v")
_LEE = (0, 1, 2, 1)


class RingElem(enum.IntEnum):
    """Element of Z2 + u*Z2, encoded as the integer a + 2*b."""

    ZERO = 0
    ONE = 1
    U = 2
    V = 3  # 1 + u

    @property
    def unit_bit(self) -> int:
        """The coefficient a of 1."""
        return int(self) & 1

    @property
    def u_bit(self) -> int:
        """The coefficient b of u."""
        return (int(self) >> 1) & 1

    @property
    def is_unit(self) -> bool:
        # units are exactly the elements with a = 1; both square to 1
        return bool(int(self) & 1)

    @property
    def lee_weight(self) -> int:
        return _LEE[int(self)]

    @property
    def symbol(self) -> str:
        return _SYMBOLS[int(self)]

    def psi(self) -> tuple[int, int]:
        """Gray image (b, a XOR b) as a bit pair."""
        a = int(self) & 1
        b = (int(self) >> 1) & 1
        return (b, a ^ b)

    def __add__(self, other) -> "RingElem":
        try:
            other = RingElem(other)
        except ValueError:
            return NotImplemented
        return RingElem(int(self) ^ int(other))

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __neg__(self) -> "RingElem":
        return self

    def __mul__(self, other) -> "RingElem":
        try:
            o = RingElem(other)
        except ValueError:
            # lets MixedVector.__rmul__ pick up scalar * vector
            return NotImplemented
        a = self.unit_bit & o.unit_bit
        b = (self.unit_bit & o.u_bit) ^ (self.u_bit & o.unit_bit)
        return RingElem(a | (b << 1))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return self.symbol

    @classmethod
    def from_bits(cls, a: int, b: int) -> "RingElem":
        return cls((a & 1) | ((b & 1) << 1))


ZERO = RingElem.ZERO
ONE = RingElem.ONE
U = RingElem.U
V = RingElem.V


def parse_ring_token(token: str) -> RingElem:
    try:
        return RingElem(RING_TOKENS[token])
    except KeyError:
        raise ValueError(f"invalid ring token {token!r}") from None

