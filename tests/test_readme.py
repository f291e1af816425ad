"""The README's library example runs, and gives the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    lines = block.splitlines()
    namespace: dict = {}
    stated, got = [], []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
            continue
        # an expression line's comment states its value, before any "->"
        comment = lines[node.end_lineno - 1][node.end_col_offset:]
        stated.append(ast.literal_eval(
            comment.strip().lstrip("#").split("->")[0].strip()))
        got.append(eval(compile(ast.Expression(node.value), "README.md",
                                "eval"), namespace))
    assert stated == ["x^14 + 8x^7y^7 + 7x^6y^8", (14, 4, 7), "(6,4;2,1,0)",
                      0, True]
    assert got == stated
