"""Bundled reference codes and their published parameters.

Each preset carries a generator matrix (in the matrix file grammar)
together with every externally stated quantity for that code: Lee
enumerator, type, Gray-image parameters, dual data and classification
flags.  The ``reproduce`` CLI command recomputes everything from the
matrix and compares.

Most stated types disagree with the ones the standard-form reduction
yields, though the exponent k0 + 2*k1 + k2, and with it the
cardinality, always matches.  3.6 and 3.7 state (1, 0, 1) where the
reduction gives (2, 0, 0): neither span contains a word with zero
binary part and nonzero ring part, so k2 = 0.  5.5, 5.6 and 5.7 state
k1 = 0, but each of those codes contains a word with a unit ring entry
(directly among the printed rows), and u times such a word is nonzero,
so the code has a free rank-one summand and k1 >= 1; equivalently
|uC| = 2 > 1 = 2^0.  The reduction gives (2, 1, 0) and (3, 1, 0) for
the stated (2, 0, 2) and (3, 0, 2).  Every such mismatch is recorded
as a known discrepancy (``type_discrepancy_known``) and reported as
such instead of failing or being patched over.

Preset 5.4 has a deeper wrinkle.  Its printed rows are not u-closed:
u times the first row, (0...0 | u u u u), lies outside the subgroup the
rows generate, because every nonzero subgroup element has nonzero
binary part.  The published cardinality (16), enumerator and Gray
parameters all describe that bare subgroup; the module span has 32
words, an extra weight-1 word among them, and none of the published
numbers.  So 5.4 carries ``module_span = False`` and is spanned with
:func:`additive_span`; the stated type (2, 0, 2) matches the subgroup
cardinality 2^4 but no u-closed code on these rows.  Operations that
need module structure (standard form, duals) refuse the subgroup, which
is why no dual data is asserted for this preset.

The same matrices ship as plain files under ``data/`` at the repository
root; a test keeps the two copies identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AdditiveCode, additive_span, parse_matrix, span

__all__ = ["Preset", "PRESETS", "preset_code"]


@dataclass(frozen=True)
class Preset:
    key: str
    rows: tuple[str, ...]
    alpha: int
    beta: int
    stated_type: tuple[int, int, int] | None  # (k0, k1, k2)
    type_discrepancy_known: bool
    lee_counts: tuple[tuple[int, int], ...]
    lee_poly: str
    gray: tuple[int, int, int]
    gray_optimal: bool
    dual_lee_counts: tuple[tuple[int, int], ...] | None
    dual_gray: tuple[int, int, int] | None
    dual_gray_optimal: bool
    one_weight: bool
    two_weight: bool
    projective: bool | None  # None: not externally stated
    formally_self_dual: bool | None
    self_dual: bool | None
    module_span: bool = True  # rows u-closed; False: subgroup span only

    def matrix_text(self) -> str:
        return "\n".join(self.rows) + "\n"


def preset_code(key: str) -> AdditiveCode:
    """The code whose published data the preset records.

    For u-closed matrices this is the module span; for 5.4 it is the
    bare subgroup span (see the module docstring).
    """
    p = PRESETS[key]
    shape, rows = parse_matrix(p.matrix_text())
    if (shape.alpha, shape.beta) != (p.alpha, p.beta):
        raise AssertionError(f"preset {key} shape mismatch")
    closure = span if p.module_span else additive_span
    return closure(shape, rows)


def _c(d: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(d.items()))


PRESETS: dict[str, Preset] = {
    "3.6": Preset(
        key="3.6",
        rows=(
            "1 1 1 0 0 0 1 | u",
            "0 0 0 1 1 1 1 | u",
        ),
        alpha=7,
        beta=1,
        stated_type=(1, 0, 1),
        type_discrepancy_known=True,
        lee_counts=_c({0: 1, 6: 3}),
        lee_poly="x^9 + 3x^3y^6",
        gray=(9, 2, 6),
        gray_optimal=True,
        dual_lee_counts=None,
        dual_gray=(9, 7, 2),
        dual_gray_optimal=False,
        one_weight=True,
        two_weight=False,
        projective=False,  # dual minimum distance 2
        formally_self_dual=None,
        self_dual=None,
    ),
    "3.7": Preset(
        key="3.7",
        rows=(
            "1 0 1 | u 0 u",
            "0 1 1 | u u 0",
        ),
        alpha=3,
        beta=3,
        stated_type=(1, 0, 1),
        type_discrepancy_known=True,
        lee_counts=_c({0: 1, 6: 3}),
        lee_poly="x^9 + 3x^3y^6",
        gray=(9, 2, 6),
        gray_optimal=True,
        dual_lee_counts=None,
        dual_gray=None,
        dual_gray_optimal=False,
        one_weight=True,
        two_weight=False,
        projective=None,
        formally_self_dual=None,
        self_dual=None,
    ),
    "3.8": Preset(
        key="3.8",
        rows=(
            "1 1 1 1 | u 0 u 0 0",
            "0 0 1 1 | u u 0 u 0",
            "0 0 0 0 | u u u 0 u",
        ),
        alpha=4,
        beta=5,
        stated_type=(2, 0, 1),
        type_discrepancy_known=False,
        lee_counts=_c({0: 1, 8: 7}),
        lee_poly="x^14 + 7x^6y^8",
        gray=(14, 3, 8),
        gray_optimal=True,
        dual_lee_counts=None,
        dual_gray=(14, 11, 2),
        dual_gray_optimal=False,
        one_weight=True,
        two_weight=False,
        projective=False,
        formally_self_dual=None,
        self_dual=None,
    ),
    "4.3a": Preset(
        key="4.3a",
        rows=("1 1 |",),
        alpha=2,
        beta=0,
        stated_type=None,
        type_discrepancy_known=False,
        lee_counts=_c({0: 1, 2: 1}),
        lee_poly="x^2 + y^2",
        gray=(2, 1, 2),
        gray_optimal=False,
        dual_lee_counts=_c({0: 1, 2: 1}),
        dual_gray=(2, 1, 2),
        dual_gray_optimal=False,
        one_weight=True,
        two_weight=False,
        projective=None,
        formally_self_dual=True,
        self_dual=True,
    ),
    "4.3b": Preset(
        key="4.3b",
        rows=("1 0 |",),
        alpha=2,
        beta=0,
        stated_type=None,
        type_discrepancy_known=False,
        lee_counts=_c({0: 1, 1: 1}),
        lee_poly="x^2 + xy",
        gray=(2, 1, 1),
        gray_optimal=False,
        dual_lee_counts=_c({0: 1, 1: 1}),
        dual_gray=(2, 1, 1),
        dual_gray_optimal=False,
        one_weight=True,
        two_weight=False,
        projective=None,
        formally_self_dual=True,
        self_dual=False,
    ),
    "5.4": Preset(
        key="5.4",
        rows=(
            "0 0 0 0 1 1 1 1 | 1 1 1+u 1+u",
            "1 1 0 1 1 0 1 0 | 0 0 u u",
            "1 0 1 1 0 0 1 1 | 0 u 0 u",
            "1 0 0 0 0 0 0 0 | u u u u",
        ),
        alpha=8,
        beta=4,
        stated_type=(2, 0, 2),
        type_discrepancy_known=True,
        module_span=False,
        lee_counts=_c({0: 1, 8: 7, 9: 8}),
        lee_poly="x^16 + 7x^8y^8 + 8x^7y^9",
        gray=(16, 4, 8),
        gray_optimal=True,
        dual_lee_counts=None,
        dual_gray=None,
        dual_gray_optimal=False,
        one_weight=False,
        two_weight=True,
        projective=None,
        formally_self_dual=None,
        self_dual=None,
    ),
    "5.5": Preset(
        key="5.5",
        rows=(
            "1 0 0 1 0 1 | 1 1 1 1",
            "0 1 0 0 1 1 | 0 u 0 u",
            "0 0 1 1 1 1 | 0 0 u u",
            "0 0 0 0 0 0 | u u u u",
        ),
        alpha=6,
        beta=4,
        stated_type=(2, 0, 2),
        type_discrepancy_known=True,
        lee_counts=_c({0: 1, 7: 8, 8: 7}),
        lee_poly="x^14 + 8x^7y^7 + 7x^6y^8",
        gray=(14, 4, 7),
        gray_optimal=True,
        dual_lee_counts=_c(
            {
                0: 1,
                3: 28,
                4: 77,
                5: 112,
                6: 168,
                7: 232,
                8: 203,
                9: 112,
                10: 56,
                11: 28,
                12: 7,
            }
        ),
        dual_gray=(14, 10, 3),
        dual_gray_optimal=True,
        one_weight=False,
        two_weight=True,
        projective=True,
        formally_self_dual=None,
        self_dual=None,
    ),
    "5.6": Preset(
        key="5.6",
        rows=(
            "0 0 0 0 0 0 0 0 | u u u u u u u u",
            "1 1 1 1 1 1 1 1 | 0 0 0 0 u u u u",
            "0 0 0 0 1 1 1 1 | 0 0 u u 0 0 u u",
            "0 0 1 1 0 0 1 1 | 0 u 0 u 0 u 0 u",
            "0 1 0 1 0 1 1 0 | 1+u 1+u 1+u 1+u 1+u 1+u 1+u 1+u",
        ),
        alpha=8,
        beta=8,
        stated_type=(3, 0, 2),
        type_discrepancy_known=True,
        lee_counts=_c({0: 1, 12: 28, 16: 3}),
        lee_poly="x^24 + 28x^12y^12 + 3x^8y^16",
        gray=(24, 5, 12),
        gray_optimal=True,
        dual_lee_counts=_c(
            {
                0: 1,
                3: 64,
                4: 378,
                5: 1344,
                6: 4032,
                7: 10752,
                8: 23439,
                9: 40960,
                10: 60480,
                11: 77952,
                12: 85484,
                13: 77952,
                14: 60480,
                15: 40960,
                16: 23439,
                17: 10752,
                18: 4032,
                19: 1344,
                20: 378,
                21: 64,
                24: 1,
            }
        ),
        dual_gray=(24, 19, 3),
        dual_gray_optimal=True,
        one_weight=False,
        two_weight=True,
        projective=True,
        formally_self_dual=None,
        self_dual=None,
    ),
    "5.7": Preset(
        key="5.7",
        rows=(
            "1 1 1 1 1 1 1 1 | u u u u",
            "1 1 1 1 0 0 0 0 | 0 0 u u",
            "1 1 1 1 0 0 0 0 | u u 0 0",
            "0 0 1 1 0 0 1 1 | 0 u 0 u",
            "0 1 0 1 0 1 0 1 | 1 1 1 1",
        ),
        alpha=8,
        beta=4,
        stated_type=(3, 0, 2),
        type_discrepancy_known=True,
        lee_counts=_c({0: 1, 8: 30, 16: 1}),
        lee_poly="x^16 + 30x^8y^8 + y^16",
        gray=(16, 5, 8),
        gray_optimal=True,
        dual_lee_counts=_c(
            {0: 1, 4: 140, 6: 448, 8: 870, 10: 448, 12: 140, 16: 1}
        ),
        dual_gray=(16, 11, 4),
        dual_gray_optimal=True,
        one_weight=False,
        two_weight=True,
        projective=True,
        formally_self_dual=None,
        self_dual=None,
    ),
}
