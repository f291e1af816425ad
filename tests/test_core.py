"""Vectors, spans, duals, Gray map and the matrix text format."""

import random
import re

import pytest

import z2zu.core
from z2zu.core import (
    _ORTHOGONAL_INT_PAIRS,
    AdditiveCode,
    AmbientShape,
    MixedVector,
    _inner_packed,
    _lee_packed,
    _orthogonal,
    _rref,
    _sigma_packed,
    additive_span,
    dual,
    dual_brute,
    format_matrix,
    format_row,
    gray_image,
    gray_map,
    gray_parameters,
    inner_product,
    lee_weight_vec,
    min_lee_weight,
    parse_matrix,
    scalar_mul,
    span,
    vec_add,
    zero_vector,
)
from z2zu.classify import dual_summary, is_self_dual, is_self_orthogonal
from z2zu.errors import (
    AmbientTooLarge,
    InternalVerificationFailure,
    MatrixParseError,
    PreconditionViolation,
    ShapeMismatch,
    TrivialCode,
)
from z2zu.presets import PRESETS, preset_code
from z2zu.ring import ONE, RING_TOKENS, U, V, ZERO, RingElem
from z2zu.standard_form import standard_form

from conftest import closure_words, random_code


def vec(alpha_bits, ring_elems):
    shape = AmbientShape(len(alpha_bits), len(ring_elems))
    return MixedVector.from_coords(shape, alpha_bits, ring_elems)


# ---------------------------------------------------------------- vectors


def test_shape_derived_sizes():
    s = AmbientShape(7, 1)
    assert s.big_n == 9
    assert s.ambient_size == 2 ** 9
    s0 = AmbientShape(0, 3)
    assert s0.big_n == 6


def test_shape_rejects_negative():
    with pytest.raises(ValueError):
        AmbientShape(-1, 2)


def test_vector_round_trips():
    v = vec([1, 0, 1], [U, V])
    assert v.bin_bits == (1, 0, 1)
    assert v.ring_elems == (U, V)
    assert MixedVector.from_packed(v.shape, v.packed) == v
    assert str(v) == "1 0 1 | u v"


def test_packed_order_is_binary_major():
    # packed values sort binary part first, then ring part
    shape = AmbientShape(1, 1)
    a = MixedVector.from_coords(shape, [0], [V])
    b = MixedVector.from_coords(shape, [1], [ZERO])
    assert a.packed < b.packed


def test_vec_add():
    v = vec([1, 1, 0], [ONE, U])
    w = vec([0, 1, 1], [U, U])
    s = vec_add(v, w)
    assert s.bin_bits == (1, 0, 1)
    assert s.ring_elems == (V, ZERO)
    assert (v + w) == s


def test_vec_add_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        vec_add(vec([1], [U]), vec([1, 0], [U]))


def test_scalar_mul_table():
    v = vec([1, 0], [ONE, U, V])
    # 1 and v act as identity on the binary part, u kills it
    assert scalar_mul(ONE, v) == v
    u_v = scalar_mul(U, v)
    assert u_v.bin_bits == (0, 0)
    assert u_v.ring_elems == (U, ZERO, U)
    vv = scalar_mul(V, v)
    assert vv.bin_bits == (1, 0)
    assert vv.ring_elems == (V, U, ONE)
    assert scalar_mul(ZERO, v).is_zero
    assert U * v == u_v


def test_scalar_mul_is_action(rng):
    # (cd)w == c(dw) and c(v+w) == cv + cw on random vectors
    shape = AmbientShape(3, 2)
    for _ in range(50):
        v = MixedVector(shape, rng.randrange(8), rng.randrange(16))
        w = MixedVector(shape, rng.randrange(8), rng.randrange(16))
        for c in range(4):
            for d in range(4):
                # the product reduces in the ring, not in the integers
                lhs = scalar_mul(RingElem(c) * d, v)
                assert lhs == scalar_mul(c, scalar_mul(d, v))
            assert scalar_mul(c, v + w) == scalar_mul(c, v) + scalar_mul(c, w)


def test_lee_weight_examples():
    assert lee_weight_vec(vec([1, 1, 1, 0, 0, 0, 1], [U])) == 6
    assert lee_weight_vec(zero_vector(AmbientShape(4, 4))) == 0
    # all-ones binary with all-u ring: alpha + 2*beta
    assert lee_weight_vec(vec([1] * 5, [U] * 3)) == 11


def test_lee_packed_is_digit_lee_sum(rng):
    shapes = [AmbientShape(0, 1), AmbientShape(0, 40), AmbientShape(1, 0),
              AmbientShape(70, 0)]
    shapes += [AmbientShape(rng.randrange(1, 70), rng.randrange(1, 40))
               for _ in range(20)]
    for shape in shapes:
        for _ in range(50):
            w = rng.randrange(shape.ambient_size)
            digits = sum(RingElem((w >> (2 * j)) & 3).lee_weight
                         for j in range(shape.beta))
            binary = (w >> (2 * shape.beta)).bit_count()
            assert _lee_packed(shape, w) == binary + digits


def test_gray_map_examples():
    assert gray_map(vec([1, 0], [U])) == (1, 0, 1, 1)
    assert gray_map(vec([], [V])) == (1, 0)
    assert gray_map(zero_vector(AmbientShape(2, 2))) == (0, 0, 0, 0, 0, 0)


def test_gray_weight_is_lee_weight(rng):
    shape = AmbientShape(5, 4)
    for _ in range(200):
        v = MixedVector(shape, rng.randrange(32), rng.randrange(256))
        assert sum(gray_map(v)) == lee_weight_vec(v)


def test_gray_is_isometry(rng):
    # Hamming distance of images equals Lee distance of vectors
    shape = AmbientShape(4, 3)
    for _ in range(200):
        v = MixedVector(shape, rng.randrange(16), rng.randrange(64))
        w = MixedVector(shape, rng.randrange(16), rng.randrange(64))
        gv, gw = gray_map(v), gray_map(w)
        hamming = sum(a ^ b for a, b in zip(gv, gw))
        assert hamming == lee_weight_vec(v + w)


def test_inner_product_values():
    assert inner_product(vec([1, 1], []), vec([1, 1], [])) == ZERO
    assert inner_product(vec([1, 0], []), vec([1, 1], [])) == U
    # binary coordinates contribute u * a_i * b_i
    assert inner_product(vec([1], [ONE]), vec([1], [ONE])) == V
    assert inner_product(vec([], [U]), vec([], [V])) == U


def test_inner_product_bilinear(rng):
    shape = AmbientShape(3, 3)
    for _ in range(100):
        v = MixedVector(shape, rng.randrange(8), rng.randrange(64))
        w = MixedVector(shape, rng.randrange(8), rng.randrange(64))
        x = MixedVector(shape, rng.randrange(8), rng.randrange(64))
        assert inner_product(v + w, x) == inner_product(v, x) + inner_product(w, x)
        assert inner_product(v, w) == inner_product(w, v)


def test_scalar_slides_through_inner_product(rng):
    # (c v) . w == c (v . w); this is what makes the subgroup dual a module
    shape = AmbientShape(3, 2)
    for _ in range(100):
        v = MixedVector(shape, rng.randrange(8), rng.randrange(16))
        w = MixedVector(shape, rng.randrange(8), rng.randrange(16))
        for c in range(4):
            assert inner_product(scalar_mul(c, v), w) == \
                RingElem(c) * inner_product(v, w)


# ---------------------------------------------------------------- spans


def test_span_of_empty_is_trivial():
    c = span(AmbientShape(2, 1), [])
    assert c.cardinality == 1
    assert zero_vector(c.shape) in c


def test_span_contains_scalar_multiples():
    shape = AmbientShape(2, 2)
    g = MixedVector.from_coords(shape, [1, 0], [ONE, U])
    c = span(shape, [g])
    for s in range(4):
        assert scalar_mul(s, g) in c
    assert c.cardinality == 4  # g has a unit coordinate, so R*g is free
    assert c.is_module()


def test_span_closed_under_operations(rng):
    for _ in range(20):
        c = random_code(rng)
        words = list(c)
        for v in words[:8]:
            for w in words[:8]:
                assert v + w in c
            for s in range(4):
                assert scalar_mul(s, v) in c


def test_span_idempotent(rng):
    for _ in range(20):
        c = random_code(rng)
        again = span(c.shape, list(c))
        assert again == c


def test_additive_span_keeps_xor_closure_only():
    shape = AmbientShape(1, 1)
    g = MixedVector.from_coords(shape, [1], [ONE])
    sub = additive_span(shape, [g])
    assert sub.cardinality == 2
    assert not sub.is_module()
    full = span(shape, [g])
    assert full.cardinality == 4
    assert full.is_module()


def test_additive_span_agrees_when_u_closed():
    shape, rows = parse_matrix("1 0 1 | u 0 u\n0 1 1 | u u 0\n")
    assert additive_span(shape, rows) == span(shape, rows)


def test_module_ops_refuse_bare_subgroups():
    shape = AmbientShape(1, 1)
    g = MixedVector.from_coords(shape, [1], [ONE])
    sub = additive_span(shape, [g])
    with pytest.raises(PreconditionViolation):
        dual_brute(sub)
    with pytest.raises(PreconditionViolation):
        dual(sub)


def test_module_test_is_kept_and_every_module_op_still_refuses():
    sub = preset_code("5.4")
    assert sub._module is None
    assert not sub.is_module()
    assert sub._module is False
    ops = (("dual", dual), ("dual_brute", dual_brute),
           ("standard_form", standard_form), ("dual_summary", dual_summary))
    for _ in range(2):  # the second round reads the kept verdict
        for name, op in ops:
            with pytest.raises(PreconditionViolation) as err:
                op(sub)
            assert str(err.value) == (
                f"{name} requires a code closed under multiplication by u; "
                "this one is a bare subgroup (built with additive_span?)")
    module = span(sub.shape, sub.generators)
    assert module.is_module() and module._module is True


def test_reference_subgroup_code_is_not_a_module():
    c16 = preset_code("5.4")
    assert c16.cardinality == 16
    assert not c16.is_module()
    module = span(c16.shape, c16.generators)
    assert module.cardinality == 32
    assert module.is_module()


# ---------------------------------------------------------------- duals


def test_dual_of_self_dual_pair():
    shape, rows = parse_matrix("1 1 |\n")
    c = span(shape, rows)
    d = dual_brute(c)
    assert d == c


def test_dual_example_pair():
    shape, rows = parse_matrix("1 0 |\n")
    c = span(shape, rows)
    d = dual_brute(c)
    assert sorted(format_row(w) for w in d) == ["0 0 |", "0 1 |"]


def test_dual_of_trivial_is_ambient():
    shape = AmbientShape(2, 1)
    d = dual_brute(span(shape, []))
    assert d.cardinality == shape.ambient_size


def test_dual_cardinality_product(rng):
    for _ in range(40):
        c = random_code(rng, max_alpha=5, max_beta=3)
        d = dual_brute(c)
        assert c.cardinality * d.cardinality == c.shape.ambient_size


def test_dual_involution(rng):
    for _ in range(25):
        c = random_code(rng, max_alpha=5, max_beta=3)
        assert dual_brute(dual_brute(c)) == c
        assert dual(dual(c)) == c


def test_dual_from_basis_matches_scan(rng):
    codes = [preset_code(k) for k in PRESETS if preset_code(k).is_module()]
    for alpha in range(6):
        for beta in range(5):
            if alpha + beta == 0:
                continue
            shape = AmbientShape(alpha, beta)
            units = [MixedVector(shape, 1 << i, 0) for i in range(alpha)]
            units += [MixedVector(shape, 0, 1 << 2 * j) for j in range(beta)]
            codes += [span(shape, []), span(shape, units)]
            for _ in range(6):
                rows = [MixedVector(shape, rng.randrange(1 << alpha),
                                    rng.randrange(1 << 2 * beta))
                        for _ in range(rng.randrange(1, 4))]
                codes.append(span(shape, rows))
    shape = AmbientShape(8, 9)  # N = 26, the scan's bound
    codes.append(span(shape, [MixedVector(shape, rng.randrange(1 << 8),
                                          rng.randrange(1 << 18))
                              for _ in range(6)]))
    for c in codes:
        assert dual(c) == dual_brute(c), c
    assert codes[-1].cardinality == 1 << 12


def test_dual_rows_equal_the_pairwise_loop(rng):
    # the binary dual's rows built pair by pair: for each non-pivot bit
    # j, bit j plus the leading bit of each basis row that has bit j
    def pairwise(code):
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
        return _rref(shape, rows, u_closed=False)

    codes = [preset_code(k) for k in PRESETS if preset_code(k).is_module()]
    codes += [random_code(rng, max_alpha=6, max_beta=4) for _ in range(100)]
    for alpha, beta in ((20, 14), (70, 3), (0, 40)):
        shape = AmbientShape(alpha, beta)
        codes.append(span(shape, []))
        words = [rng.randrange(shape.ambient_size) for _ in range(9)]
        codes.append(span(shape, [MixedVector.from_packed(shape, w)
                                  for w in words]))
    for c in codes:
        assert dual(c).basis == pairwise(c), c


def test_dual_checks_orthogonality(monkeypatch):
    # without sigma the rows span the packed code's binary dual: the
    # right size, but not orthogonal under the ring inner product
    monkeypatch.setattr(z2zu.core, "_sigma_packed", lambda shape, w: w)
    with pytest.raises(InternalVerificationFailure):
        dual(preset_code("3.6"))


def ring_inner(v, w):
    """v . w from the coordinates, in RingElem arithmetic: u times the
    binary dot product plus the sum of the ring products."""
    total = U * (sum(a & b for a, b in zip(v.bin_bits, w.bin_bits)) & 1)
    for a, b in zip(v.ring_elems, w.ring_elems):
        total += a * b
    return total


def test_orthogonal_matches_inner_product(rng):
    # both components, alpha = 0 and beta = 0, and N > 64 (two limbs)
    for alpha, beta in ((3, 0), (0, 3), (4, 3), (70, 3), (0, 40), (66, 0),
                        (2, 40)):
        shape = AmbientShape(alpha, beta)
        seen = set()
        for _ in range(60):
            x, y = (rng.randrange(shape.ambient_size) for _ in range(2))
            value = _inner_packed(shape, x, y)
            seen.add(value)
            assert _orthogonal(shape, [x], [y]) == (value == 0)
            assert _orthogonal(shape, [y], [x]) == (value == 0)
        # with no ring part the product is u times a binary dot product
        assert seen == ({0, 1, 2, 3} if beta else {0, 2})
        # batches: a dual basis against its code, then with one bit flipped
        rows = [MixedVector.from_packed(shape, rng.randrange(shape.ambient_size))
                for _ in range(2)]
        code = span(shape, rows)
        xs, ys = list(dual(code).basis), code.basis
        assert _orthogonal(shape, xs, ys)
        for _ in range(10):
            flipped = list(xs)
            flipped[rng.randrange(len(xs))] ^= 1 << rng.randrange(shape.big_n)
            assert _orthogonal(shape, flipped, ys) == (not any(
                _inner_packed(shape, x, y) for x in flipped for y in ys))
    shape = AmbientShape(2, 2)
    assert _orthogonal(shape, [], [5]) and _orthogonal(shape, [5], [])
    # batches on both sides of the pair bound, against the inner product
    # in ring arithmetic (_inner_packed is the small route itself): part
    # of a dual basis against its code, just within the bound and just
    # past it, then with one bit flipped, every bit of the last row
    sizes = set()
    for alpha, beta in ((3, 2), (6, 4), (10, 4), (8, 8), (70, 3)):
        shape = AmbientShape(alpha, beta)
        for n_rows in (1, 2, 3):
            rows = [MixedVector.from_packed(
                        shape, rng.randrange(1, shape.ambient_size))
                    for _ in range(n_rows)]
            code = span(shape, rows)
            ys = code.basis
            vs = [MixedVector.from_packed(shape, y) for y in ys]
            for m in {len(ys), _ORTHOGONAL_INT_PAIRS // len(ys),
                      _ORTHOGONAL_INT_PAIRS // len(ys) + 1}:
                xs = list(dual(code).basis)[:m]
                sizes.add(len(xs) * len(ys))
                assert not any(ring_inner(MixedVector.from_packed(shape, x), v)
                               for x in xs for v in vs)
                assert _orthogonal(shape, xs, ys)
                flips = [(len(xs) - 1, t) for t in range(shape.big_n)]
                flips += [(rng.randrange(len(xs)), rng.randrange(shape.big_n))
                          for _ in range(5)]
                for i, t in flips:
                    flipped = list(xs)
                    flipped[i] ^= 1 << t
                    x = MixedVector.from_packed(shape, flipped[i])
                    assert _orthogonal(shape, flipped, ys) == (
                        not any(ring_inner(x, v) for v in vs))
    assert {_ORTHOGONAL_INT_PAIRS, _ORTHOGONAL_INT_PAIRS + 1} & sizes
    assert min(sizes) <= _ORTHOGONAL_INT_PAIRS < max(sizes)


def test_dual_catches_a_flipped_bit(monkeypatch):
    # every column of 5.6 is balanced or full, so every unit vector
    # meets the code and any one flipped bit of a dual row shows
    code = preset_code("5.6")
    rref = z2zu.core._rref
    for t in range(code.shape.big_n):
        def flip_first_row(shape, rows, u_closed=True, t=t):
            basis = rref(shape, rows, u_closed)
            return basis if u_closed else (basis[0] ^ 1 << t,) + basis[1:]
        monkeypatch.setattr(z2zu.core, "_rref", flip_first_row)
        with pytest.raises(InternalVerificationFailure, match="not orthogonal"):
            dual(code)


def test_self_orthogonality_agrees_with_pairwise_inner_products(rng):
    # the definition: inner_product over every pair of basis rows
    def pairwise(code):
        rows = [MixedVector.from_packed(code.shape, b) for b in code.basis]
        return all(inner_product(g, h) == ZERO for g in rows for h in rows)

    # spans of rows with x.x = 0, so every word has it (x.x is additive
    # and (ux).(ux) = 0): the diagonal pre-test passes and the
    # off-diagonal pairs decide
    def isotropic_code():
        shape = AmbientShape(rng.randrange(5), rng.randrange(1, 4))
        rows = []
        while len(rows) < 3:
            v = MixedVector(shape, rng.randrange(1 << shape.alpha),
                            rng.randrange(1 << (2 * shape.beta)))
            if inner_product(v, v) == ZERO:
                rows.append(v)
        return span(shape, rows)

    # the diagonal vanishes, but (0 1 1 0).(1 0 1 0) = u
    shape, rows = parse_matrix("1 1 0 0 |\n0 1 1 0 |\n")
    odd_pair = span(shape, rows)
    assert not any(_inner_packed(shape, x, x) for x in odd_pair.basis)
    assert not is_self_orthogonal(odd_pair)

    isotropic = [isotropic_code() for _ in range(200)]
    assert {pairwise(c) for c in isotropic} == {True, False}
    codes = [preset_code(k) for k in PRESETS] + isotropic + [odd_pair]
    codes += [random_code(rng, max_alpha=4, max_beta=3) for _ in range(200)]
    verdicts = set()
    for c in codes:
        so = pairwise(c)
        verdicts.add(so)
        assert is_self_orthogonal(c) == so
        assert is_self_dual(c) == (
            so and c.cardinality ** 2 == c.shape.ambient_size)
    assert verdicts == {True, False}


def test_dual_brute_checks_its_scan(monkeypatch):
    # the scan of span{(1 0 |)} is {00, 01}; a read-off basis of the
    # right size but the wrong span is caught by comparing the words
    shape = AmbientShape(2, 0)
    code = span(shape, [MixedVector(shape, 0b10, 0)])
    assert dual_brute(code).basis == (0b01,)
    monkeypatch.setattr(z2zu.core, "_reduced_basis", lambda array: (0b11,))
    with pytest.raises(InternalVerificationFailure, match="read-off basis"):
        dual_brute(code)
    monkeypatch.setattr(z2zu.core, "_reduced_basis", lambda array: ())
    with pytest.raises(InternalVerificationFailure, match="cardinality"):
        dual_brute(code)


def test_dual_is_orthogonal(rng):
    c = random_code(rng, max_alpha=4, max_beta=3)
    d = dual_brute(c)
    for v in list(c)[:10]:
        for w in list(d)[:10]:
            assert inner_product(v, w) == ZERO


def test_dual_respects_ambient_bound():
    shape = AmbientShape(20, 4)  # big_n = 28 > 26
    c = span(shape, [MixedVector(shape, 1, 0)])
    with pytest.raises(AmbientTooLarge):
        dual_brute(c)


# ------------------------------------------------------------- gray image


def test_min_weight_and_gray_parameters():
    # u * (1|u) = 0, so the span is just {0, (1|u)}
    shape, rows = parse_matrix("1 | u\n")
    c = span(shape, rows)
    assert c.cardinality == 2
    assert min_lee_weight(c) == 3
    assert gray_parameters(c) == (3, 1, 3)


def test_min_weight_trivial_code_raises():
    with pytest.raises(TrivialCode):
        min_lee_weight(span(AmbientShape(1, 1), []))


def test_gray_image_is_linear(rng):
    for _ in range(10):
        c = random_code(rng, max_alpha=4, max_beta=3)
        img = gray_image(c)
        words = list(img.words)
        assert len(words) == c.cardinality
        word_set = set(words)
        for a in words[:12]:
            for b in words[:12]:
                assert (a ^ b) in word_set


def test_gray_parameters_of_reference_code():
    assert gray_parameters(preset_code("3.8")) == (14, 3, 8)


# ------------------------------------------------------------ matrix text


def test_parse_round_trip():
    text = "1 0 1 | u 0 u\n0 1 1 | u u 0\n"
    shape, rows = parse_matrix(text)
    assert shape == AmbientShape(3, 3)
    assert format_matrix(rows) == text


def test_parse_accepts_comments_blanks_and_aliases():
    shape, rows = parse_matrix(
        "# leading comment\n\n1 0 | 1+u\n0 1 | u+1   # trailing\n")
    assert shape == AmbientShape(2, 1)
    assert rows[0].ring_elems == (V,)
    assert rows[1].ring_elems == (V,)


def test_parse_alpha_zero_and_beta_zero():
    shape, rows = parse_matrix("| u v\n")
    assert shape == AmbientShape(0, 2)
    shape, rows = parse_matrix("1 1 0 |\n")
    assert shape == AmbientShape(3, 0)


def test_parse_errors_carry_position():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("1 0 | u\n1 | u\n")
    assert err.value.line == 2
    with pytest.raises(MatrixParseError):
        parse_matrix("1 0 u |\n")  # ring token on the binary side
    with pytest.raises(MatrixParseError):
        parse_matrix("1 0 1\n")  # missing separator
    with pytest.raises(MatrixParseError):
        parse_matrix("")  # no rows at all
    with pytest.raises(MatrixParseError):
        parse_matrix("1 | q\n")


def test_parse_rejects_second_separator():
    with pytest.raises(MatrixParseError):
        parse_matrix("1 | u | v\n")


# (text, str(err), err.line, err.col): a missing '|' cites one past the
# last token, a wrong row width cites the row's '|'
PARSE_ERRORS = [
    ("1 0 1\n", "line 1, column 6: row has no '|' separator", 1, 6),
    ("1 0 1   \n", "line 1, column 6: row has no '|' separator", 1, 6),
    ("1 0 | u\n1 1\n", "line 2, column 4: row has no '|' separator", 2, 4),
    ("1 | u | v\n",
     "line 1, column 7: row has more than one '|' separator", 1, 7),
    ("1|u|v\n", "line 1, column 4: row has more than one '|' separator", 1, 4),
    ("1 0 u |\n",
     "line 1, column 5: invalid binary token 'u' (expected 0 or 1)", 1, 5),
    ("12 | u\n",
     "line 1, column 1: invalid binary token '12' (expected 0 or 1)", 1, 1),
    ("1 | q\n", "line 1, column 5: invalid ring token 'q'", 1, 5),
    ("1 | u+u\n", "line 1, column 5: invalid ring token 'u+u'", 1, 5),
    ("1 0 | u\n1 | u\n",
     "line 2, column 3: row has 1+1 columns, expected 2+1", 2, 3),
    ("1 0 | u\n\n# c\n  1 0 | u v\n",
     "line 4, column 7: row has 2+2 columns, expected 2+1", 4, 7),
    ("1 0 | u\r\n1 | u\r\n",
     "line 2, column 3: row has 1+1 columns, expected 2+1", 2, 3),
    ("|\n", "line 1, column 1: ambient needs at least one coordinate", 1, 1),
    ("  |  # c\n",
     "line 1, column 3: ambient needs at least one coordinate", 1, 3),
    ("", "line 1, column 1: no generator rows found", 1, 1),
    ("# only a comment\n\n   \n",
     "line 1, column 1: no generator rows found", 1, 1),
    ("1 0|u\n1|u\n",
     "line 2, column 2: row has 1+1 columns, expected 2+1", 2, 2),
    ("1 0|u\n0 1|x\n", "line 2, column 5: invalid ring token 'x'", 2, 5),
    ("1\t0 | u\n1\t| u\n",
     "line 2, column 3: row has 1+1 columns, expected 2+1", 2, 3),
    ("1\u00a00 | u\n1 | u v\n",
     "line 2, column 3: row has 1+2 columns, expected 2+1", 2, 3),
    ("1\u20030\u2003|\u2003u\n0 1 | q\n",
     "line 2, column 7: invalid ring token 'q'", 2, 7),
    ("1\u00a00\u00a0|\u00a0u\n0\u2003\u2003 1 |\tu\n1 | 1+u\n",
     "line 3, column 3: row has 1+1 columns, expected 2+1", 3, 3),
    ("1 0 1 # | u\n", "line 1, column 6: row has no '|' separator", 1, 6),
]


# Tokens that int(..., 2) reads as a number but that are no single bit,
# so the bulk read of a row must not take them.
NOT_A_BIT_ERRORS = [
    ("10 | u\n",
     "line 1, column 1: invalid binary token '10' (expected 0 or 1)", 1, 1),
    ("1 \uff11 | u\n",
     "line 1, column 3: invalid binary token '\uff11' (expected 0 or 1)", 1, 3),
    ("1 0 | u\n0 1_0 | u\n",
     "line 2, column 3: invalid binary token '1_0' (expected 0 or 1)", 2, 3),
    ("0b1 | u\n",
     "line 1, column 1: invalid binary token '0b1' (expected 0 or 1)", 1, 1),
    ("+1 0 | u\n",
     "line 1, column 1: invalid binary token '+1' (expected 0 or 1)", 1, 1),
    ("1 \u0661 | u\n",
     "line 1, column 3: invalid binary token '\u0661' (expected 0 or 1)", 1, 3),
    ("1 | 10\n", "line 1, column 5: invalid ring token '10'", 1, 5),
    ("1 | u \uff11\n", "line 1, column 7: invalid ring token '\uff11'", 1, 7),
]


# Lines end at "\n" alone: a form feed, vertical tab, U+0085 or U+2028
# inside a row is whitespace, and the lines after it keep their numbers.
LINE_SEPARATOR_ERRORS = [
    ("1 0 | u\x0c0 1 | u v\n",
     "line 1, column 13: row has more than one '|' separator", 1, 13),
    ("1 0 | u\u2028\n1 | u\n",
     "line 2, column 3: row has 1+1 columns, expected 2+1", 2, 3),
    ("1 0 | u\x0b\n0 1\x85| q\n",
     "line 2, column 7: invalid ring token 'q'", 2, 7),
]


@pytest.mark.parametrize("text,message,line,col",
                         PARSE_ERRORS + NOT_A_BIT_ERRORS
                         + LINE_SEPARATOR_ERRORS)
def test_parse_error_message_line_and_column(text, message, line, col):
    with pytest.raises(MatrixParseError) as err:
        parse_matrix(text)
    assert (str(err.value), err.value.line, err.value.col) == (message, line, col)


def test_line_separators_inside_a_row_are_whitespace():
    expected = parse_matrix("1 0 | u\n0 1 | v\n")
    for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        assert parse_matrix(f"1 0 | u{sep}\n0 1{sep}| v\n") == expected, sep


def parse_token_by_token(text):
    """The matrix grammar read one token at a time, with each token's
    column from its own regex match: the reference for parse_matrix."""
    shape, rows = None, []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        found = [(m.group(), m.start() + 1)
                 for m in re.finditer(r"[^\s|]+|\|", raw.split("#", 1)[0])]
        if not found:
            continue
        tokens = [t for t, _ in found]
        if "|" not in tokens:
            last, col = found[-1]
            raise MatrixParseError("row has no '|' separator", lineno,
                                   col + len(last))
        cut = tokens.index("|")
        if "|" in tokens[cut + 1:]:
            raise MatrixParseError("row has more than one '|' separator",
                                   lineno, found[tokens.index("|", cut + 1)][1])
        b = r = 0
        for t, col in found[:cut]:
            if t not in ("0", "1"):
                raise MatrixParseError(
                    f"invalid binary token {t!r} (expected 0 or 1)", lineno, col)
            b = 2 * b + (t == "1")
        for t, col in found[cut + 1:]:
            if t not in RING_TOKENS:
                raise MatrixParseError(f"invalid ring token {t!r}", lineno, col)
            r = 4 * r + RING_TOKENS[t]
        alpha, beta = cut, len(tokens) - cut - 1
        if shape is None:
            try:
                shape = AmbientShape(alpha, beta)
            except ValueError as exc:
                raise MatrixParseError(str(exc), lineno, found[cut][1]) from None
        elif (alpha, beta) != (shape.alpha, shape.beta):
            raise MatrixParseError(
                f"row has {alpha}+{beta} columns, "
                f"expected {shape.alpha}+{shape.beta}", lineno, found[cut][1])
        rows.append(MixedVector(shape, b, r))
    if shape is None:
        raise MatrixParseError("no generator rows found", 1, 1)
    return shape, rows


def parse_outcome(parse, text):
    try:
        return parse(text)
    except MatrixParseError as err:
        return str(err), err.line, err.col


def random_matrix_text(rng, alpha, beta, n_rows, bad=None):
    """Rows of random entries in every ring spelling, joined by mixed
    separators, a glued or spaced '|', and comment and blank lines;
    ``bad`` replaces one random token with itself."""
    seps = (" ", "  ", "\t", "\u00a0", "\u2003", " \t", "\x0c", "\u2028")
    spellings = ("0", "1", "u", "v", "1+u", "u+1")
    rows = [[rng.choice("01") for _ in range(alpha)] + ["|"]
            + [rng.choice(spellings) for _ in range(beta)]
            for _ in range(n_rows)]
    if bad is not None:
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = bad
    lines = []
    for row in rows:
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "# comment | 1 u", "  \t")))
        text = ""
        for i, t in enumerate(row):
            glued = "|" in (t, row[i - 1]) and rng.random() < 0.5
            text += t if i == 0 or glued else rng.choice(seps) + t
        if rng.random() < 0.3:
            text += rng.choice(seps) + "# 1 0 | u"
        lines.append(rng.choice(("", " ", "\u2003")) + text)
    return "\n".join(lines) + rng.choice(("", "\n", "\r\n"))


def test_parse_matrix_equals_the_token_by_token_reader():
    rng = random.Random(36)
    bad_tokens = ("10", "\uff11", "\u0661", "1_0", "0b1", "+1", "2", "00",
                  "u+u", "q", "V", "1+1", "|", "\u00a0")
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        alpha, beta = rng.randint(0, 40), rng.randint(0, 40)
        n_rows = rng.randint(1, 4)
        bad = rng.choice(bad_tokens) if rng.random() < 0.4 else None
        text = random_matrix_text(rng, alpha, beta, n_rows, bad)
        if rng.random() < 0.1:  # a ragged last row
            text += "1 " * rng.randint(0, 2) + "| u\n"
        got = parse_outcome(parse_matrix, text)
        assert got == parse_outcome(parse_token_by_token, text), text
        # CRLF line ends read as "\n" ones, errors cite the same places
        assert parse_outcome(parse_matrix, text.replace("\n", "\r\n")) == got
        outcomes[isinstance(got[0], AmbientShape)] += 1
    # both sides of the comparison are exercised, past 64 bits too
    assert min(outcomes.values()) > 50


def test_parse_inverts_format_on_random_rows():
    rng = random.Random(13)
    for _ in range(200):
        alpha, beta = rng.randint(0, 6), rng.randint(0, 6)
        if alpha + beta == 0:
            continue
        shape = AmbientShape(alpha, beta)
        rows = [
            MixedVector(shape, rng.getrandbits(alpha), rng.getrandbits(2 * beta))
            for _ in range(rng.randint(1, 4))
        ]
        assert parse_matrix(format_matrix(rows)) == (shape, rows)
    shape, rows = parse_matrix("0 | 1+u u+1 v\n")
    assert rows[0].ring_elems == (V, V, V)
    assert format_row(rows[0]) == "0 | v v v"


def test_format_row_empty_sides():
    shape = AmbientShape(0, 1)
    v = MixedVector.from_coords(shape, [], [U])
    assert format_row(v) == "| u"
    shape = AmbientShape(2, 0)
    w = MixedVector.from_coords(shape, [1, 1], [])
    assert format_row(w) == "1 1 |"


# ------------------------------------------------------------- code object


def test_code_equality_ignores_generator_choice():
    shape, rows = parse_matrix("1 0 | u\n0 1 | u\n")
    c1 = span(shape, rows)
    c2 = span(shape, [rows[0] + rows[1], rows[1]])
    assert c1 == c2
    assert hash(c1) == hash(c2)
    assert len(c1) == c1.cardinality


def test_codewords_sorted_and_iterable():
    c = preset_code("4.3a")
    words = list(c)
    assert len(words) == 2
    packed = [w.packed for w in words]
    assert packed == sorted(packed)


def test_contains_rejects_other_shape():
    c = preset_code("4.3a")
    v = zero_vector(AmbientShape(3, 1))
    assert v not in c


def test_membership_and_module_test_match_word_sets(rng):
    # spans and bare additive spans (mostly not u-closed) against a
    # plain word-set closure of the same rows
    modules = 0
    for _ in range(150):
        code = random_code(rng, max_alpha=4, max_beta=3, allow_trivial=True)
        shape = code.shape
        for c, u_closed in ((code, True),
                            (additive_span(shape, code.generators), False)):
            words = closure_words(shape, c.generators, u_closed)
            assert c.cardinality == len(words)
            u_image = {(U * MixedVector.from_packed(shape, w)).packed
                       for w in words}
            assert c.is_module() == (u_image <= words)
            modules += c.is_module()
            for x in range(shape.ambient_size):
                v = MixedVector.from_packed(shape, x)
                assert (v in c) == (x in words)
    assert 150 < modules < 300
