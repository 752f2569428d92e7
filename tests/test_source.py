"""Source hygiene of the package, checked on its syntax trees.

- No `assert` statement: `python -O` strips them, and the package's
  exactness checks must run in every mode.
- No dead code: every module-level function and class is referenced
  somewhere in src/, tests/ or perfbench/ outside its own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "framecalc"


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees("src/framecalc")
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements (stripped by python -O): {found}"


def test_every_module_level_definition_is_referenced():
    refs = {}
    for path, tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    unused = []
    for path, tree in _trees("src/framecalc"):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            outside = [(p, line) for p, line in refs.get(node.name, [])
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"module-level definitions nothing references: {unused}"
