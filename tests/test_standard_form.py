"""Row reduction to the block form and the (k0, k1, k2) type."""

import importlib
import random

import pytest

from z2zu.core import (
    AmbientShape,
    MixedVector,
    additive_span,
    dual,
    parse_matrix,
    span,
)
from z2zu.errors import InternalVerificationFailure, PreconditionViolation
from z2zu.presets import PRESETS, preset_code
from z2zu.ring import U
from z2zu.search import SearchSpace, enumerate_candidates
from z2zu.standard_form import (
    CodeType,
    StandardFormMatrix,
    standard_form,
    type_of,
)

from conftest import random_code
from standard_form_oracle import standard_form_oracle


def code_of(text):
    shape, rows = parse_matrix(text)
    return span(shape, rows)


# ------------------------------------------------------------- the blocks


def test_block_shape_of_reduced_matrix():
    sf = standard_form(preset_code("5.5"))
    t = sf.code_type
    assert (t.k0, t.k1, t.k2) == (2, 1, 0)
    # k0 rows start with an identity on the binary side and carry only
    # 0/u on the ring side; k1 rows have unit ring pivots
    for i, row in enumerate(sf.rows_k0):
        assert row.bin_bits[i] == 1
        assert all(not e.is_unit for e in row.ring_elems)
    for row in sf.rows_k1:
        assert any(e.is_unit for e in row.ring_elems)
    for row in sf.rows_k2:
        assert all(b == 0 for b in row.bin_bits)
        assert all(not e.is_unit for e in row.ring_elems)


def test_type_exponent_counts_codewords():
    for key in PRESETS:
        code = preset_code(key)
        if not code.is_module():
            code = span(code.shape, code.generators)
        t = standard_form(code).code_type
        assert 2 ** t.exponent == code.cardinality
        assert t.exponent == t.k0 + 2 * t.k1 + t.k2


def test_span_is_preserved():
    for key in ("3.6", "3.8", "4.3a", "5.5", "5.7"):
        code = preset_code(key)
        sf = standard_form(code)
        # the reduced rows live in permuted coordinates; undoing the
        # permutation must give back exactly the same code
        assert span(code.shape, sf.unpermuted_rows) == code


def test_permutations_are_permutations():
    code = preset_code("5.6")
    sf = standard_form(code)
    assert sorted(sf.bin_perm) == list(range(code.shape.alpha))
    assert sorted(sf.ring_perm) == list(range(code.shape.beta))


def test_idempotent_on_reduced_code():
    code = preset_code("3.8")
    sf = standard_form(code)
    again = standard_form(span(code.shape, sf.unpermuted_rows))
    assert again.code_type == sf.code_type


# ------------------------------------------------------- computed triples


@pytest.mark.parametrize("key,triple", [
    ("3.6", (2, 0, 0)),
    ("3.7", (2, 0, 0)),
    ("3.8", (2, 0, 1)),
    ("4.3a", (1, 0, 0)),
    ("4.3b", (1, 0, 0)),
    ("5.5", (2, 1, 0)),
    ("5.6", (3, 1, 0)),
    ("5.7", (3, 1, 0)),
])
def test_reference_types(key, triple):
    assert standard_form(preset_code(key)).code_type.triple == triple


def test_subgroup_reference_module_closure_type():
    sub = preset_code("5.4")
    module = span(sub.shape, sub.generators)
    assert standard_form(module).code_type.triple == (3, 1, 0)


def test_trivial_code_type():
    c = span(AmbientShape(3, 2), [])
    assert type_of(c).triple == (0, 0, 0)


def test_pure_u_row_counts_as_k2():
    c = code_of("1 1 | u u\n")
    # the lone generator has no unit, binary part nonzero: k0 row
    assert type_of(c).triple == (1, 0, 0)
    c = code_of("0 0 | u u\n")
    assert type_of(c).triple == (0, 0, 1)


def test_unit_ring_entry_forces_k1():
    # a unit anywhere on the ring side makes the row R-free
    c = code_of("1 | 1\n")
    t = type_of(c)
    assert t.k1 >= 1
    assert c.cardinality == 4


def test_free_rank_matches_u_multiples(rng):
    # |uC| = 2^k1: the u-image collapses everything except free rows
    from z2zu.core import _u_mul_packed
    for _ in range(25):
        c = random_code(rng, max_alpha=5, max_beta=3)
        t = standard_form(c).code_type
        u_image = {_u_mul_packed(c.shape, w) for w in c.words}
        assert len(u_image) == 2 ** t.k1


def test_type_invariants_random(rng):
    for _ in range(25):
        c = random_code(rng)
        sf = standard_form(c)
        t = sf.code_type
        assert 2 ** t.exponent == c.cardinality
        assert span(c.shape, sf.unpermuted_rows) == c
        assert len(sf.rows) == t.k0 + t.k1 + t.k2


# ------------------------------------------- the three-round oracle


def mixed_random_code(rng, max_alpha, max_beta, max_rows):
    """Span of random rows of three kinds: unconstrained, with u-only
    ring entries, and u-only with a zero binary part, so that all three
    blocks turn up."""
    while True:
        alpha = rng.randrange(max_alpha + 1)
        beta = rng.randrange(max_beta + 1)
        if alpha + beta:
            break
    shape = AmbientShape(alpha, beta)
    u_bits = shape.ring_a_mask << 1
    rows = []
    for _ in range(rng.randrange(1, max_rows + 1)):
        b, r = rng.getrandbits(alpha), rng.getrandbits(2 * beta)
        kind = rng.randrange(3)
        if kind:
            r &= u_bits
        if kind == 2:
            b = 0
        rows.append(MixedVector(shape, b, r))
    return span(shape, rows)


def test_matches_oracle_on_exhaustive_walk():
    space = SearchSpace(alpha=(0, 4), beta=(0, 2), max_rows=3)
    count = 0
    for code in enumerate_candidates(space):
        assert standard_form(code) == standard_form_oracle(code), code
        count += 1
    assert count == 11150


def test_matches_oracle_on_random_codes_and_duals():
    rng = random.Random(2016)
    seen_types = set()
    for _ in range(300):
        code = mixed_random_code(rng, max_alpha=30, max_beta=23, max_rows=8)
        for c in (code, dual(code)):
            sf = standard_form(c)
            assert sf == standard_form_oracle(c), c
            t = sf.code_type
            seen_types.add((t.k0 > 0, t.k1 > 0, t.k2 > 0))
    # every mix of empty and nonempty blocks occurred
    assert len(seen_types) == 8


def test_form_does_not_depend_on_the_generators(rng):
    for _ in range(40):
        code = mixed_random_code(rng, max_alpha=8, max_beta=6, max_rows=5)
        rows = list(code.generators)
        # a redundant row: the sum of two generators times v = 1 + u
        extra = 3 * (rows[0] + rows[-1])
        rng.shuffle(rows)
        rows.insert(rng.randrange(len(rows) + 1), extra)
        other = span(code.shape, rows)
        assert other == code
        assert standard_form(other) == standard_form(code)


def test_lost_row_fails_the_span_check(monkeypatch):
    # rows that span less than the input must not pass as its standard form
    code = preset_code("3.8")
    assert standard_form(code).code_type.exponent > 0
    rows = StandardFormMatrix.unpermuted_rows
    monkeypatch.setattr(StandardFormMatrix, "unpermuted_rows",
                        property(lambda sf: rows.fget(sf)[:-1]))
    with pytest.raises(InternalVerificationFailure):
        standard_form(code)


def test_short_basis_fails_the_size_check(monkeypatch):
    # a reduced basis that lost a row must not pass as the code's type
    code = preset_code("3.8")
    # the module, not the function the package re-exports under its name
    module = importlib.import_module("z2zu.standard_form")
    rref = module._rref
    monkeypatch.setattr(module, "_rref",
                        lambda *args, **kw: rref(*args, **kw)[:-1])
    with pytest.raises(InternalVerificationFailure,
                       match="disagrees with cardinality"):
        standard_form(code)


def test_refuses_bare_subgroup():
    sub = preset_code("5.4")
    with pytest.raises(PreconditionViolation):
        standard_form(sub)


def test_code_type_formatting():
    t = CodeType(8, 4, 3, 1, 0)
    assert t.compact() == "(8,4;3,1,0)"
    assert str(t) == "(8, 4; 3, 1, 0)"
    assert t.as_tuple() == (8, 4, 3, 1, 0)
    assert t.exponent == 5
    assert t.triple == (3, 1, 0)
