"""Every name a package module imports is used in that module, every
module-level private function or constant is used somewhere in the
package, and the package exports exactly the names it binds: the union
of its modules' ``__all__``."""

import ast
import sys
import types
from pathlib import Path

import pytest

import z2zu

SRC = Path(__file__).resolve().parent.parent / "src" / "z2zu"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# the package's exports from before the modules' __all__ became their one
# record; none may be dropped by accident
EXPORTED_BEFORE = (
    "AdditiveCode", "AmbientShape", "AmbientTooLarge", "BinaryCode",
    "ClassificationReport", "ClassificationViolation", "CodeTooLarge",
    "CodeType", "ColumnProfile", "DualSummary", "FsdSurveyReport",
    "InternalVerificationFailure", "LeeEnumerator",
    "MAX_BRUTE_AMBIENT_BITS", "MAX_CODE_WORD_BITS", "MatrixParseError",
    "MixedVector", "NonIntegralTransform", "NotOneWeight", "NotProjective",
    "NotTwoWeight", "ONE", "OPTIMALITY_TABLE", "OneWeightReport", "PRESETS",
    "PowerMoments", "PreconditionViolation", "Preset", "RingElem",
    "SearchHit", "SearchSpace", "ShapeMismatch", "SpaceTooLarge",
    "StandardFormMatrix", "TrivialCode", "TwoWeightReport", "U", "V",
    "WeightProfile", "Z2ZuError", "ZERO", "ZeroColumnPresent",
    "additive_span", "classify", "column_profile", "dual", "dual_brute",
    "dual_summary", "enumerate_candidates", "format_matrix", "format_row",
    "gray_image", "gray_map", "gray_parameters", "hamming_enumerator",
    "inner_product", "is_formally_self_dual", "is_projective",
    "is_self_dual", "is_self_orthogonal", "lee_enumerator",
    "lee_weight_vec", "macwilliams", "min_lee_weight", "optimality_check",
    "parse_matrix", "parse_matrix_file", "parse_ring_token",
    "power_moments", "preset_code", "scalar_mul", "search_with_pruning",
    "span", "standard_form", "type_of", "vec_add",
    "verify_fsd_classification", "verify_fsd_even_weight_criterion",
    "verify_one_weight_theorems", "verify_two_weight_relations",
    "weight_profile", "weight_sum_identity", "zero_vector",
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [
        "os (line 1)"
    ]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and constants that no module
    reads: defining a name or importing it is not a use."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{name} ({module} line {node.lineno})"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(where for name, where in defined.items() if name not in used)


def test_scan_finds_an_unused_private_name():
    assert unreferenced_private_names({
        "a.py": "_DEAD = 1\n_used = 2\ndef _helper():\n    return _used\n",
        "b.py": "from a import _helper\nx = _helper()\n",
    }) == ["_DEAD (a.py line 1)"]
    assert unreferenced_private_names({"a.py": "def _f():\n    pass\n"}) == [
        "_f (a.py line 1)"
    ]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_package_exports_match_its_bindings():
    # z2zu.__all__ is the union of the re-exported modules' __all__, each
    # name listed once and bound to its module's object; the command
    # line (cli, and __main__ that runs it) is not re-exported
    modules = [sys.modules[f"z2zu.{p.stem}"] for p in MODULES
               if p.stem not in ("cli", "__main__")]
    assert len(modules) == 8
    assert sorted(z2zu.__all__) == sorted(
        name for module in modules for name in module.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(z2zu, name) is getattr(module, name), name
    assert set(EXPORTED_BEFORE) <= set(z2zu.__all__)
    assert len(z2zu.__all__) == len(set(z2zu.__all__))
    assert [n for n in z2zu.__all__ if not hasattr(z2zu, n)] == []
    bound = {name for name, value in vars(z2zu).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(z2zu.__all__) == bound
