"""Classification predicates and the verifiers behind them.

The predicates are the standard ones for additive codes with a Lee
weight: one-weight and two-weight, projective (dual minimum Lee weight
at least 3), formally self-dual (code and dual share an enumerator),
self-orthogonal and self-dual.

For a one-weight code of weight m without zero columns there is a
positive integer lambda with

    m = lambda * |C| / 2        and       alpha + 2*beta = lambda * (|C| - 1);

the two relations pin the Gray image to a [lambda(|C|-1), log2|C|,
lambda|C|/2] code, force B1 = 0 in the dual, give B2 = (N/2)(lambda-1),
and for odd m force the whole code to be {0, (1...1 | u...u)}.  For a
projective two-weight code with weights m1, m2 the counts A_m1, A_m2
are determined by N, |C|, m1, m2, and the weights satisfy one exact
quadratic.  The verifiers below recompute all of this from scratch with
exact arithmetic and report what holds; they never patch a failed
relation silently.

The dual code is read off the code's basis (:func:`z2zu.core.dual`)
and its distribution comes from the MacWilliams transform.  When the
dual is no larger than the code, its words are counted too and the two
distributions are compared; any difference raises
InternalVerificationFailure.  The summary is computed once per code and
kept on it, as its Lee enumerator is, so the verifiers below take the
code alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    AdditiveCode,
    MixedVector,
    _inner_packed,
    _require_module,
    dual,
    gray_parameters,
)
from .errors import (
    InternalVerificationFailure,
    NotOneWeight,
    NotProjective,
    NotTwoWeight,
    PreconditionViolation,
    TrivialCode,
)
from .weights import LeeEnumerator, lee_enumerator, macwilliams

__all__ = [
    "WeightProfile",
    "weight_profile",
    "DualSummary",
    "dual_summary",
    "ProjectivityCheck",
    "is_projective",
    "is_formally_self_dual",
    "is_self_orthogonal",
    "is_self_dual",
    "ClassificationReport",
    "classify",
    "OneWeightReport",
    "verify_one_weight_theorems",
    "TwoWeightReport",
    "verify_two_weight_relations",
    "verify_fsd_even_weight_criterion",
]


@dataclass(frozen=True)
class WeightProfile:
    """Distinct nonzero weights with counts, plus the one-weight lambda.

    ``lambda_`` is filled only when the code has exactly one nonzero
    weight and both defining relations hold with a positive integer;
    any failure is spelled out in ``violations`` instead of being
    silently dropped.
    """

    weights: tuple[int, ...]
    counts: tuple[tuple[int, int], ...]
    lambda_: int | None
    violations: tuple[str, ...]

    @property
    def is_one_weight(self) -> bool:
        return len(self.weights) == 1

    @property
    def is_two_weight(self) -> bool:
        return len(self.weights) == 2


def weight_profile(code: AdditiveCode) -> WeightProfile:
    if code.cardinality < 2:
        raise TrivialCode("weight profile needs a nonzero codeword")
    enum = lee_enumerator(code)
    weights = enum.nonzero_weights()
    counts = tuple((w, enum.count(w)) for w in weights)
    lam: int | None = None
    violations: list[str] = []
    if len(weights) == 1:
        m = weights[0]
        size = code.cardinality
        n = code.shape.big_n
        num = 2 * m
        if num % size:
            violations.append(
                f"2m = {num} is not a multiple of the cardinality {size}"
            )
        else:
            cand = num // size
            if n != cand * (size - 1):
                violations.append(
                    f"alpha + 2*beta = {n} but lambda*(|C|-1) = "
                    f"{cand * (size - 1)} for lambda = {cand}"
                )
            else:
                lam = cand
    return WeightProfile(weights, counts, lam, tuple(violations))


@dataclass(frozen=True)
class DualSummary:
    """Dual weight distribution plus how it was obtained.

    Computed once per code by :func:`dual_summary` and kept on the code.
    """

    enumerator: LeeEnumerator
    # "algebraic" when the dual's words were counted and matched the
    # transform, "macwilliams" when the transform alone gave them
    source: str
    dual_code: AdditiveCode

    @property
    def cardinality(self) -> int:
        return self.enumerator.cardinality()

    @property
    def min_weight(self) -> int | None:
        return self.enumerator.min_nonzero_weight()

    @property
    def b1(self) -> int:
        return self.enumerator.count(1)

    @property
    def b2(self) -> int:
        return self.enumerator.count(2)


def dual_summary(code: AdditiveCode) -> DualSummary:
    """Dual code and distribution by transform, cross-checked by
    counting the dual's words when there are no more than the code's.

    Built once and kept on the code.  On the transform route the exact
    transform is also kept as the dual code's Lee enumerator, so reading
    it builds none of the dual's words.
    """
    if code._dual is None:
        _require_module(code, "dual_summary")
        dual_code = dual(code)
        transformed = macwilliams(lee_enumerator(code), code.cardinality)
        if dual_code.cardinality > code.cardinality:
            dual_code._lee = transformed
            source = "macwilliams"
        elif lee_enumerator(dual_code) != transformed:
            raise InternalVerificationFailure(
                "the dual's counted distribution disagrees with the "
                "MacWilliams transform"
            )
        else:
            source = "algebraic"
        code._dual = DualSummary(transformed, source, dual_code)
    return code._dual


@dataclass(frozen=True)
class ProjectivityCheck:
    projective: bool
    dual_min_weight: int | None
    source: str


def is_projective(code: AdditiveCode) -> ProjectivityCheck:
    """Projective = no dual words of Lee weight 1 or 2."""
    dual = dual_summary(code)
    return ProjectivityCheck(
        dual.b1 == 0 and dual.b2 == 0, dual.min_weight, dual.source
    )


def is_formally_self_dual(code: AdditiveCode) -> bool:
    """Same Lee enumerator as the dual (implies |C| = 2^(N/2))."""
    if code.cardinality * code.cardinality != code.shape.ambient_size:
        return False
    return lee_enumerator(code) == dual_summary(code).enumerator


def is_self_orthogonal(code: AdditiveCode) -> bool:
    """C contained in its dual; the inner product is symmetric and
    additive in each argument, so pairs of basis rows suffice."""
    basis = code.basis
    return not any(
        _inner_packed(code.shape, g, h)
        for i, g in enumerate(basis)
        for h in basis[i:]
    )


def is_self_dual(code: AdditiveCode) -> bool:
    return (
        is_self_orthogonal(code)
        and code.cardinality * code.cardinality == code.shape.ambient_size
    )


@dataclass(frozen=True)
class ClassificationReport:
    one_lee_weight: bool
    two_lee_weight: bool
    projective: bool
    formally_self_dual: bool
    self_orthogonal: bool
    self_dual: bool
    nonzero_weights: tuple[int, ...]
    dual_min_lee_weight: int | None
    dual_source: str

    def to_json_obj(self) -> dict:
        return {
            "one_lee_weight": self.one_lee_weight,
            "two_lee_weight": self.two_lee_weight,
            "projective": self.projective,
            "formally_self_dual": self.formally_self_dual,
            "self_orthogonal": self.self_orthogonal,
            "self_dual": self.self_dual,
            "nonzero_weights": list(self.nonzero_weights),
            "dual_min_lee_weight": self.dual_min_lee_weight,
            "dual_source": self.dual_source,
        }


def classify(code: AdditiveCode) -> ClassificationReport:
    dual = dual_summary(code)
    weights = lee_enumerator(code).nonzero_weights()
    proj = is_projective(code)
    report = ClassificationReport(
        one_lee_weight=len(weights) == 1,
        two_lee_weight=len(weights) == 2,
        projective=proj.projective,
        formally_self_dual=is_formally_self_dual(code),
        self_orthogonal=is_self_orthogonal(code),
        self_dual=is_self_dual(code),
        nonzero_weights=weights,
        dual_min_lee_weight=dual.min_weight,
        dual_source=dual.source,
    )
    if report.self_dual and not (
        report.formally_self_dual and report.self_orthogonal
    ):
        raise InternalVerificationFailure(
            "a self-dual code must be formally self-dual and self-orthogonal"
        )
    return report


@dataclass(frozen=True)
class OneWeightReport:
    """What the one-weight structure results predict and what holds.

    ``b2_expected`` is (N/2)(lambda - 1); it is reported for every
    lambda, and for lambda = 1 it specialises to B2 = 0.  The odd-m
    fields are None when m is even, and the lambda-based fields are
    None when the two defining relations fail (see ``violations``).
    """

    m: int
    lambda_: int | None
    violations: tuple[str, ...]
    dual_b1: int
    dual_b1_zero: bool
    dual_b2: int
    b2_expected: int | None
    b2_matches: bool | None
    odd_m_is_repetition: bool | None
    gray_params: tuple[int, int, int | None]
    gray_d_expected: int | None
    gray_params_ok: bool | None

    @property
    def all_ok(self) -> bool:
        checks = [self.dual_b1_zero]
        if self.b2_matches is not None:
            checks.append(self.b2_matches)
        if self.odd_m_is_repetition is not None:
            checks.append(self.odd_m_is_repetition)
        if self.gray_params_ok is not None:
            checks.append(self.gray_params_ok)
        return not self.violations and all(checks)


def _repetition_word(code: AdditiveCode) -> int:
    """(all ones | all u) in this shape, packed."""
    shape = code.shape
    ones = (1 << shape.alpha) - 1
    all_u = shape.ring_a_mask << 1
    return (ones << (2 * shape.beta)) | all_u


def verify_one_weight_theorems(code: AdditiveCode) -> OneWeightReport:
    profile = weight_profile(code)
    if not profile.is_one_weight:
        raise NotOneWeight(
            f"code has nonzero weights {profile.weights}, expected exactly one"
        )
    dual = dual_summary(code)
    m = profile.weights[0]
    lam = profile.lambda_
    n = code.shape.big_n

    b2_expected: int | None = None
    b2_matches: bool | None = None
    if lam is not None:
        # n*(lam-1) is even: lambda odd makes the factor even, lambda even
        # makes n = lam*(|C|-1) even
        q, r = divmod(n * (lam - 1), 2)
        if r:
            raise InternalVerificationFailure("(N/2)(lambda-1) not integral")
        b2_expected = q
        b2_matches = dual.b2 == b2_expected

    odd_m_is_repetition: bool | None = None
    if m % 2 == 1:
        odd_m_is_repetition = code.basis == (_repetition_word(code),)

    gray = gray_parameters(code)
    gray_d_expected: int | None = None
    gray_ok: bool | None = None
    if lam is not None:
        gray_d_expected = lam * code.cardinality // 2
        k = code.cardinality.bit_length() - 1
        gray_ok = gray == (n, k, gray_d_expected)

    return OneWeightReport(
        m=m,
        lambda_=lam,
        violations=profile.violations,
        dual_b1=dual.b1,
        dual_b1_zero=dual.b1 == 0,
        dual_b2=dual.b2,
        b2_expected=b2_expected,
        b2_matches=b2_matches,
        odd_m_is_repetition=odd_m_is_repetition,
        gray_params=gray,
        gray_d_expected=gray_d_expected,
        gray_params_ok=gray_ok,
    )


@dataclass(frozen=True)
class TwoWeightReport:
    """Exact relations a projective two-weight code must satisfy.

    ``quadratic_value`` is N^2 - N(2 m1 + 2 m2 - 1) + m1 m2 (4 - 4/|C|)
    as an exact rational; it must vanish.  ``predicted_a1``/``a2`` come
    from the closed forms ((|C|/2) N - m_other(|C|-1)) / (m_self -
    m_other).  The pattern fields report which weight (if any) equals
    N/2 and which equals |C|/2.
    """

    m1: int
    m2: int
    a1: int
    a2: int
    quadratic_value: Fraction
    quadratic_ok: bool
    predicted_a1: Fraction
    predicted_a2: Fraction
    counts_ok: bool
    n_half_weight: int | None
    half_cardinality_weight: int | None
    pattern_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.quadratic_ok and self.counts_ok


def _two_weight_quadratic(n: int, size: int, m1: int, m2: int) -> Fraction:
    return (
        Fraction(n * n)
        - n * (2 * m1 + 2 * m2 - 1)
        + m1 * m2 * (4 - Fraction(4, size))
    )


def verify_two_weight_relations(code: AdditiveCode) -> TwoWeightReport:
    enum = lee_enumerator(code)
    weights = enum.nonzero_weights()
    if len(weights) != 2:
        raise NotTwoWeight(
            f"code has nonzero weights {weights}, expected exactly two"
        )
    proj = is_projective(code)
    if not proj.projective:
        raise NotProjective(
            f"dual has minimum Lee weight {proj.dual_min_weight}, need >= 3"
        )
    m1, m2 = weights
    size = code.cardinality
    n = code.shape.big_n
    quad = _two_weight_quadratic(n, size, m1, m2)
    pred_a1 = Fraction(Fraction(size, 2) * n - m2 * (size - 1), m1 - m2)
    pred_a2 = Fraction(Fraction(size, 2) * n - m1 * (size - 1), m2 - m1)
    counts_ok = pred_a1 == enum.count(m1) and pred_a2 == enum.count(m2)
    n_half = next((m for m in weights if 2 * m == n), None)
    half_card = next((m for m in weights if 2 * m == size), None)
    pattern_ok = {m1, m2} == {Fraction(n, 2), Fraction(size, 2)}
    return TwoWeightReport(
        m1=m1,
        m2=m2,
        a1=enum.count(m1),
        a2=enum.count(m2),
        quadratic_value=quad,
        quadratic_ok=quad == 0,
        predicted_a1=pred_a1,
        predicted_a2=pred_a2,
        counts_ok=counts_ok,
        n_half_weight=n_half,
        half_cardinality_weight=half_card,
        pattern_ok=pattern_ok,
    )


def verify_fsd_even_weight_criterion(code: AdditiveCode) -> bool:
    """For a formally self-dual one-weight code:

        m is even  <=>  (1...1 | u...u) is a codeword and alpha is even.

    Returns whether the equivalence holds; raises on codes outside the
    one-weight formally-self-dual scope.
    """
    weights = lee_enumerator(code).nonzero_weights()
    if len(weights) != 1:
        raise NotOneWeight(
            f"code has nonzero weights {weights}, expected exactly one"
        )
    if not is_formally_self_dual(code):
        raise PreconditionViolation("code is not formally self-dual")
    m = weights[0]
    rep = MixedVector.from_packed(code.shape, _repetition_word(code))
    rhs = rep in code and code.shape.alpha % 2 == 0
    return (m % 2 == 0) == rhs
