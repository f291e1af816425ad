"""Classification predicates and the one-/two-weight structure checks."""

import sys
from fractions import Fraction

import pytest

from z2zu.classify import (
    classify,
    dual_summary,
    is_formally_self_dual,
    is_projective,
    is_self_dual,
    is_self_orthogonal,
    verify_fsd_even_weight_criterion,
    verify_one_weight_theorems,
    verify_two_weight_relations,
    weight_profile,
    _two_weight_quadratic,
)
from z2zu.core import AmbientShape, MixedVector, dual_brute, parse_matrix, span
from z2zu.errors import (
    InternalVerificationFailure,
    NotOneWeight,
    NotProjective,
    NotTwoWeight,
    PreconditionViolation,
    TrivialCode,
)
from z2zu.presets import preset_code
from z2zu.weights import LeeEnumerator, lee_enumerator


def code_of(text):
    shape, rows = parse_matrix(text)
    return span(shape, rows)


# --------------------------------------------------------- weight profiles


def test_profile_one_weight_lambda():
    p = weight_profile(preset_code("3.6"))
    assert p.is_one_weight and p.weights == (6,)
    assert p.lambda_ == 3
    assert not p.violations
    p = weight_profile(preset_code("3.8"))
    assert p.lambda_ == 2


def test_profile_two_weight():
    p = weight_profile(preset_code("5.5"))
    assert p.is_two_weight
    assert p.counts == ((7, 8), (8, 7))
    assert p.lambda_ is None


def test_profile_violations_for_zero_column_code():
    # single word of weight 1 in a length-2 ambient: lambda*(|C|-1)
    # cannot reach alpha + 2*beta
    p = weight_profile(preset_code("4.3b"))
    assert p.is_one_weight
    assert p.lambda_ is None
    assert p.violations


def test_profile_trivial_raises():
    with pytest.raises(TrivialCode):
        weight_profile(span(AmbientShape(2, 0), []))


# ------------------------------------------------------------ dual summary


def test_dual_summary_brute_route():
    # the dual outnumbers the code, so only the transform gives its counts
    code = preset_code("3.6")
    d = dual_summary(code)
    assert d.source == "macwilliams"
    assert d.dual_code == dual_brute(code)
    assert d.cardinality == 128
    assert (d.b1, d.b2) == (0, 9)
    assert d.min_weight == 2


def test_dual_summary_transform_route():
    # past the scan bound the dual code still comes from the basis
    shape = AmbientShape(28, 0)
    code = span(shape, [MixedVector(shape, (1 << 28) - 1, 0)])
    d = dual_summary(code)
    assert d.source == "macwilliams"
    assert len(d.dual_code.basis) == 27
    assert d.cardinality == 2 ** 27


def test_dual_summary_algebraic_route():
    # the dual is no larger than the code, so its words are counted
    code = preset_code("4.3a")
    d = dual_summary(code)
    assert d.source == "algebraic"
    assert d.dual_code == code
    assert d.enumerator == lee_enumerator(code)


def test_dual_summary_checks_counted_dual(monkeypatch):
    code = preset_code("4.3a")
    enum = lee_enumerator(code)
    wrong = LeeEnumerator.from_counts(2, {0: 1, 1: 1})
    # z2zu.classify on the package is the function of that name.  Only
    # the dual gets the wrong count: were the code's wrong too, its
    # transform would agree with it
    monkeypatch.setattr(sys.modules["z2zu.classify"], "lee_enumerator",
                        lambda c: enum if c is code else wrong)
    with pytest.raises(InternalVerificationFailure):
        dual_summary(code)


def test_dual_summary_refuses_subgroup():
    with pytest.raises(PreconditionViolation):
        dual_summary(preset_code("5.4"))


# ------------------------------------------------------------- projectivity


def test_projectivity_of_references():
    assert is_projective(preset_code("5.5")).projective
    assert is_projective(preset_code("5.7")).projective
    check = is_projective(preset_code("3.6"))
    assert not check.projective
    assert check.dual_min_weight == 2


def test_projective_means_dual_min_weight_three():
    check = is_projective(preset_code("5.5"))
    assert check.dual_min_weight == 3
    check = is_projective(preset_code("5.7"))
    assert check.dual_min_weight == 4


# ------------------------------------------- self-duality and formal duals


def test_self_dual_pair():
    a = preset_code("4.3a")
    assert is_self_orthogonal(a)
    assert is_self_dual(a)
    assert is_formally_self_dual(a)


def test_formally_self_dual_but_not_self_dual():
    b = preset_code("4.3b")
    assert is_formally_self_dual(b)
    assert not is_self_orthogonal(b)
    assert not is_self_dual(b)
    # the stated dual {0 0 |, 0 1 |}
    assert dual_summary(b).dual_code == code_of("0 0 |\n0 1 |\n")


def test_formal_self_duality_needs_square_cardinality():
    assert not is_formally_self_dual(preset_code("3.6"))


def test_classification_report():
    r = classify(preset_code("5.6"))
    assert r.to_json_obj() == {
        "one_lee_weight": False,
        "two_lee_weight": True,
        "projective": True,
        "formally_self_dual": False,
        "self_orthogonal": True,
        "self_dual": False,
        "nonzero_weights": [12, 16],
        "dual_min_lee_weight": 3,
        "dual_source": "macwilliams",
    }


# ------------------------------------------------------- one-weight checks


def test_one_weight_report_internal_code():
    r = verify_one_weight_theorems(preset_code("3.8"))
    assert r.m == 8 and r.lambda_ == 2
    assert r.dual_b1_zero
    assert r.b2_expected == 7  # (14/2)(2-1)
    assert r.b2_matches
    assert r.gray_d_expected == 8
    assert r.gray_params == (14, 3, 8)
    assert r.all_ok


def test_one_weight_report_odd_lambda():
    r = verify_one_weight_theorems(preset_code("3.6"))
    assert r.lambda_ == 3
    assert r.b2_expected == 9
    assert r.all_ok
    assert r.odd_m_is_repetition is None  # m = 6 is even


def test_one_weight_odd_m_repetition():
    # the full-weight two-word code is the only odd-m shape allowed
    c = code_of("1 1 1 | u u\n")
    r = verify_one_weight_theorems(c)
    assert r.m == 7
    assert r.odd_m_is_repetition is True
    assert r.all_ok


def test_one_weight_report_with_violations():
    r = verify_one_weight_theorems(preset_code("4.3b"))
    assert r.violations
    assert not r.all_ok  # dual has a weight-1 word as well
    assert r.odd_m_is_repetition is False


def test_one_weight_rejects_two_weight_code():
    with pytest.raises(NotOneWeight):
        verify_one_weight_theorems(preset_code("5.5"))


def test_even_weight_criterion():
    assert verify_fsd_even_weight_criterion(preset_code("4.3a"))
    assert verify_fsd_even_weight_criterion(preset_code("4.3b"))
    with pytest.raises(PreconditionViolation):
        verify_fsd_even_weight_criterion(preset_code("3.6"))
    with pytest.raises(NotOneWeight):
        verify_fsd_even_weight_criterion(preset_code("5.7"))


# ------------------------------------------------------- two-weight checks


@pytest.mark.parametrize("key,a1,a2", [
    ("5.5", 8, 7),
    ("5.6", 28, 3),
    ("5.7", 30, 1),
])
def test_two_weight_relations_hold(key, a1, a2):
    r = verify_two_weight_relations(preset_code(key))
    assert r.quadratic_ok
    assert r.quadratic_value == 0
    assert (r.a1, r.a2) == (a1, a2)
    assert r.counts_ok
    assert r.pattern_ok  # weights are exactly {N/2, |C|/2}
    assert r.all_ok


def test_two_weight_relations_by_hand():
    # N = 14, |C| = 16, weights 7 and 8:
    #   196 - 14*29 + 56*(15/4) = 0, A7 = 8, A8 = 7
    r = verify_two_weight_relations(preset_code("5.5"))
    assert r.m1 == 7 and r.m2 == 8
    assert r.predicted_a1 == Fraction(8)
    assert r.predicted_a2 == Fraction(7)
    assert r.n_half_weight == 7
    assert r.half_cardinality_weight == 8


def test_two_weight_rejects_one_weight_code():
    with pytest.raises(NotTwoWeight):
        verify_two_weight_relations(preset_code("3.6"))


def test_two_weight_needs_projectivity():
    # two binary blocks: weights {2, 4}, but the dual holds weight-2 words
    c = code_of("1 1 0 0 |\n0 0 1 1 |\n")
    with pytest.raises(NotProjective):
        verify_two_weight_relations(c)


def test_quadratic_witnesses_nonprojective_pair():
    # weights 8 and 9 at N = 16 with 16 words cannot be projective:
    # the quadratic misses zero by exactly 2
    assert _two_weight_quadratic(16, 16, 8, 9) == -2
