"""Ring arithmetic over Z2 + u*Z2 with u^2 = 0, checked exhaustively."""

import operator
from functools import reduce

import pytest

from z2zu.ring import (
    ONE,
    U,
    V,
    ZERO,
    RingElem,
    parse_ring_token,
)

ELEMS = list(RingElem)


def test_element_inventory():
    assert ELEMS == [ZERO, ONE, U, V]
    assert int(V) == 3
    assert V == ONE + U


def test_addition_table():
    # characteristic 2: x + x = 0 for every x
    for x in ELEMS:
        assert x + x == ZERO
    assert ONE + U == V
    assert ONE + V == U
    assert U + V == ONE
    assert all(x + ZERO == x for x in ELEMS)


def test_multiplication_table():
    assert U * U == ZERO
    assert V * V == ONE
    assert ONE * ONE == ONE
    assert U * V == U
    assert all(x * ZERO == ZERO for x in ELEMS)
    assert all(x * ONE == x for x in ELEMS)


def test_ring_axioms_exhaustive():
    # 64 triples cover associativity and distributivity completely
    for x in ELEMS:
        for y in ELEMS:
            assert x + y == y + x
            assert x * y == y * x
            for z in ELEMS:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_negation_is_identity():
    for x in ELEMS:
        assert -x == x
        assert x - x == ZERO


def test_units():
    assert [x for x in ELEMS if x.is_unit] == [ONE, V]
    assert ONE * ONE == ONE and V * V == ONE
    assert not U.is_unit and not ZERO.is_unit


def test_lee_weights():
    assert [x.lee_weight for x in ELEMS] == [0, 1, 2, 1]
    assert U.lee_weight == 2


def test_psi_values():
    assert ZERO.psi() == (0, 0)
    assert ONE.psi() == (0, 1)
    assert U.psi() == (1, 1)
    assert V.psi() == (1, 0)


def test_psi_is_additive():
    for x in ELEMS:
        for y in ELEMS:
            px, py = x.psi(), y.psi()
            assert (x + y).psi() == (px[0] ^ py[0], px[1] ^ py[1])


def test_psi_weight_agrees_with_lee():
    for x in ELEMS:
        assert sum(x.psi()) == x.lee_weight


def test_bit_coefficients():
    for x in ELEMS:
        assert RingElem.from_bits(x.unit_bit, x.u_bit) == x
        assert x.unit_bit + 2 * x.u_bit == int(x)


def test_parse_tokens():
    assert parse_ring_token("0") == ZERO
    assert parse_ring_token("1") == ONE
    assert parse_ring_token("u") == U
    assert parse_ring_token("v") == V
    assert parse_ring_token("1+u") == V
    assert parse_ring_token("u+1") == V


@pytest.mark.parametrize("bad", ["2", "U", "w", "1 + u", "", "uu"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_ring_token(bad)


def test_symbols_round_trip():
    for x in ELEMS:
        assert parse_ring_token(x.symbol) == x
    assert str(V) == "v"


def ring_sum(elems):
    return reduce(operator.add, elems, ZERO)


def test_ring_sum():
    # the additive group has exponent 2, so a sum is an XOR-fold
    assert ring_sum([]) == ZERO
    assert ring_sum([ONE, U]) == V
    assert ring_sum([ONE, ONE, U, U]) == ZERO
    assert ring_sum([V, V, V]) == V


def test_helper_functions_accept_ints():
    # the operators take plain encodings on either side
    assert RingElem(1) + 2 == V
    assert RingElem(2) * 2 == ZERO
    assert 3 * RingElem(3) == ONE
    assert RingElem(2).lee_weight == 2
