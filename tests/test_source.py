"""Source hygiene of the package, checked on its syntax trees.

- No `assert` statement: `python -O` strips them, and the package's
  exactness checks must run in every mode.
- No `raise AssertionError`: a failed exactness check raises
  `rings.VerificationError`, which the CLI reports with exit code 1.
- No dead code: every module-level function and class, and every public
  non-dunder method of a class, is referenced somewhere in src/, tests/ or
  perfbench/ outside its own definition.  An attribute (`x.name`) counts
  anywhere; a bare name counts only in the defining module or in a module
  that imports that name, so a local variable of the same name elsewhere
  does not keep a definition alive.
- One elimination kernel: inside the package only `linalg` calls
  `rref_modp`; everything else goes through its solves, kernels and `Span`.
- One product formula: inside the package only `rings` reads the
  structure-constant table `_mul`; every other product goes through
  `ArtinRing.dot` or `RingElem.__mul__`.
- One graded product: `GradedMatrix.__mul__` computes every entry through
  the dots that `displays._product_plan` lays out; `displays.py` has no
  `functools.reduce`, and `__mul__` multiplies nothing itself (no `*`, no
  `__mul__` or `mul`), so it never calls `GradedElem.__mul__`.
- One Witt element layout: inside the package only `witt` calls
  `WittVector(`; every other module builds Witt vectors through
  `WittRing.el` or arithmetic, so only `witt` knows the flat coordinate
  tuple.
- One Witt arithmetic at run time: inside the package `wittpoly.eval_poly`
  is called only by `witt.witt_frobenius`, and `eval_terms` only to build
  `WittRing._frob`; sums, products and negatives run on ghost components,
  and the universal polynomials stay the tests' second route.
- One ghost inversion site: inside the package only `WittRing._miss` and
  `WittRing.neg` call `_from_ghosts`, and only `WittRing.add` and
  `WittRing.mul` call `_miss`; a memo miss with a nonzero top component
  reaches it only through `add` or `mul` on the operands with their top
  components zeroed.
- One memo store: inside the package only `WittRing._keep` writes into the
  Witt operation memo `_memo` or the lifted rows `_rows` (an item
  assignment, `setdefault` or `update`, on the attribute or on a local name
  bound to it), and only `_keep` reads `MEMO_CAP`, so the cap is applied in
  one place.
- One reader of the Witt operation memo: inside the package only `WittRing`
  methods and `witt.frobenius_fixed` read `_memo`, so every sum and product
  that hits the memo goes through `WittRing.add` or `WittRing.mul`, where a
  caller (or a benchmark's tracer) sees it.
- One inverse over a finite local ring: `RingElem.invert` and
  `WittVector.invert` go through `linalg.mat_inverse`, and no other function
  or method of the package is named for inverting, apart from
  `linalg.field_inverse` and three that compute no ring inverse: the
  predicate `linalg.is_invertible`, the preimage
  `deformation.tau_inverse_kernel` and `wittpoly._invert_ghost`, which
  solves the ghost map over Z.
- One value encoder: inside the package only
  `WittKernelCoords.encode_value` maps Witt coordinates to value
  coordinates: it alone reads the map `_value_pos` from flat Witt index to
  value coordinate, which only `WittKernelCoords.__init__` assigns.
- One base change: inside the package only `deformation.base_change`
  applies a call to every entry of a structure matrix (a nested list
  comprehension whose outer loop runs over some `X.phi`); every lift,
  reduction and projection of a display goes through it.
- No dead parameter: every parameter of a module-level function is read in
  its body.  Methods are left out, because the frame classes implement one
  interface whose members need not use every argument.
- No unused import: every name a module imports is used in it; the
  package's `__init__` is exempt, because its imports are the public API.
- No None for a frame value: every method of a frame class in `frames.py`
  (`Frame` and its subclasses) other than `__init__` returns or yields a
  value, and none returns or yields None; the tautological frame's P = 0 is
  the zero of S0.
- One report envelope: in `cli.py` only `_emit` writes the string
  "command", so every report gets its name and default `passed` there.
- One command list: the README's `Commands:` line names exactly the
  commands and ops of `cli.COMMANDS`, in its order.
- No runtime dependency: every import in the package is standard library or
  relative, and a CLI run leaves sympy (a test-only dependency) unloaded.
"""

import ast
import json
import os
import re
import subprocess
import sys
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


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None)


def test_no_bare_assertion_errors():
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees("src/framecalc")
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and _raised_name(node) == "AssertionError"]
    assert not found, f"raise AssertionError in place of VerificationError: {found}"


def test_every_imported_name_is_used():
    unused = []
    for path, tree in _trees("src/framecalc"):
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"imported names the module never uses: {unused}"


def _references():
    """name -> (path, line, counts) of every reference; counts is true for
    an attribute and for a bare name in a module that imports that name
    (`_unreferenced` also takes bare names in the defining module)."""
    refs = {}
    for path, tree in _trees("src", "tests", "perfbench"):
        imported = {alias.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno, True))
            elif isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(
                    (path, node.lineno, node.id in imported))
    return refs


def _unreferenced(refs, path, node, label):
    outside = [(p, line) for p, line, counts in refs.get(node.name, [])
               if (counts or p == path)
               and (p != path or not node.lineno <= line <= node.end_lineno)]
    return [] if outside else [f"{path.name}:{node.lineno} {label}"]


def test_every_module_level_definition_is_referenced():
    refs = _references()
    unused = []
    for path, tree in _trees("src/framecalc"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                unused += _unreferenced(refs, path, node, node.name)
    assert not unused, f"module-level definitions nothing references: {unused}"


def test_every_public_method_is_referenced():
    refs = _references()
    unused = []
    for path, tree in _trees("src/framecalc"):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    unused += _unreferenced(refs, path, node,
                                            f"{cls.name}.{node.name}")
    assert not unused, f"public methods nothing references: {unused}"


def test_only_linalg_references_the_elimination_routine():
    outside = [f"{path.name}:{line}"
               for path, line, _ in _references().get("rref_modp", [])
               if path.parent == PACKAGE and path.name != "linalg.py"]
    assert not outside, f"rref_modp referenced outside linalg: {outside}"


def test_only_rings_reads_the_structure_constant_table():
    outside = [f"{path.name}:{line}"
               for path, line, _ in _references().get("_mul", [])
               if path.parent == PACKAGE and path.name != "rings.py"]
    assert not outside, f"_mul read outside rings: {outside}"


def test_every_graded_matrix_product_entry_is_planned_dots():
    tree = ast.parse((PACKAGE / "displays.py").read_text())
    folds = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "reduce"
                 and getattr(node.value, "id", None) == "functools")
             or (isinstance(node, ast.ImportFrom) and node.module == "functools")]
    assert not folds, f"functools.reduce in displays.py: {folds}"
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "GradedMatrix")
    mul = next(node for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "__mul__")
    products = [node.lineno for node in ast.walk(mul)
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult))
                or (isinstance(node, ast.Attribute) and node.attr in ("__mul__", "mul"))]
    assert not products, f"GradedMatrix.__mul__ multiplies terms itself: {products}"
    assert "_product_plan" in {node.id for node in ast.walk(mul)
                               if isinstance(node, ast.Name)}


def test_only_witt_calls_the_witt_vector_class():
    outside = [f"{path.name}:{node.lineno}"
               for path, tree in _trees("src/framecalc") if path.name != "witt.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and "WittVector" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))]
    assert not outside, f"WittVector called outside witt: {outside}"


def _scoped_nodes(match):
    """(module, enclosing definitions, enclosing statement) of every node
    inside the package for which match(node) holds."""
    found = []

    def visit(node, scope, stmt, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            here = child if isinstance(child, ast.stmt) else stmt
            if match(child):
                found.append((path.name, ".".join(scope), here))
            visit(child, inner, here, path)

    for path, tree in _trees("src/framecalc"):
        visit(tree, (), None, path)
    return found


def _scoped_references(name):
    """`_scoped_nodes` of every reference to `name`."""
    return _scoped_nodes(
        lambda node: (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name))


def test_only_the_frobenius_evaluates_the_witt_polynomials():
    polys = _scoped_references("eval_poly")
    assert {(mod, scope) for mod, scope, _ in polys} == {("witt.py", "witt_frobenius")}
    terms = _scoped_references("eval_terms")
    assert {(mod, scope) for mod, scope, _ in terms} == {("witt.py", "WittRing.__init__")}
    for _, _, stmt in terms:
        assert isinstance(stmt, ast.Assign), ast.unparse(stmt)
        assert [ast.unparse(t) for t in stmt.targets] == ["self._frob"]


def test_only_add_mul_and_neg_invert_the_ghost_map():
    scopes = {(mod, scope) for mod, scope, _ in _scoped_references("_from_ghosts")}
    assert scopes == {("witt.py", "WittRing._miss"), ("witt.py", "WittRing.neg")}, \
        sorted(scopes)
    scopes = {(mod, scope) for mod, scope, _ in _scoped_references("_miss")}
    assert scopes == {("witt.py", "WittRing.add"), ("witt.py", "WittRing.mul")}, \
        sorted(scopes)


_MEMO_STORES = ("_memo", "_rows")


def _memo_writes(fn):
    """Line numbers in fn of the writes into `_memo` or `_rows`: an item
    assignment or a setdefault/update call on the attribute, or on a local
    name that fn binds to it."""
    aliases = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple)
                         else zip(target.elts, getattr(node.value, "elts", ())))
                aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                            and isinstance(v, ast.Attribute) and v.attr in _MEMO_STORES}

    def is_store(node):
        return ((isinstance(node, ast.Attribute) and node.attr in _MEMO_STORES)
                or (isinstance(node, ast.Name) and node.id in aliases))

    return [node.lineno for node in ast.walk(fn)
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and is_store(node.value))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("setdefault", "update", "__setitem__")
                and is_store(node.func.value))]


def test_only_keep_stores_into_the_witt_memo():
    functions = _scoped_nodes(lambda node: isinstance(node, ast.FunctionDef))
    writes = [f"{mod}:{line} {scope + '.' if scope else ''}{fn.name}"
              for mod, scope, fn in functions for line in _memo_writes(fn)]
    assert not writes, f"memo stores outside WittRing._keep: {writes}"
    keep = [fn for mod, scope, fn in functions
            if (mod, scope, fn.name) == ("witt.py", "WittRing", "_keep")]
    assert len(keep) == 1 and any(isinstance(node, ast.Subscript)
                                  and isinstance(node.ctx, ast.Store)
                                  for node in ast.walk(keep[0]))
    scopes = {(mod, scope) for mod, scope, _ in _scoped_references("MEMO_CAP")}
    assert scopes == {("witt.py", ""), ("witt.py", "WittRing._keep")}, sorted(scopes)


def test_only_witt_ring_methods_and_the_frobenius_read_the_memo():
    scopes = {(mod, scope) for mod, scope, _ in _scoped_references("_memo")}
    outside = sorted(f"{mod}:{scope}" for mod, scope in scopes
                     if mod != "witt.py" or not (scope.startswith("WittRing.")
                                                 or scope == "frobenius_fixed"))
    assert not outside, f"_memo read outside WittRing and frobenius_fixed: {outside}"
    assert ("witt.py", "frobenius_fixed") in scopes


def test_every_inverse_goes_through_mat_inverse():
    scopes = {(mod, scope) for mod, scope, _ in _scoped_references("mat_inverse")}
    assert {("rings.py", "RingElem.invert"),
            ("witt.py", "WittVector.invert")} <= scopes
    # every def, nested ones too; rings and witt each define one `invert`
    named = {(path.stem, node.name) for path, tree in _trees("src/framecalc")
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and ("invers" in node.name or "invert" in node.name)}
    assert named == {("linalg", "mat_inverse"), ("linalg", "field_inverse"),
                     ("rings", "invert"), ("witt", "invert"),
                     ("linalg", "is_invertible"),
                     ("deformation", "tau_inverse_kernel"),
                     ("wittpoly", "_invert_ghost")}


def test_only_encode_value_maps_witt_to_value_coordinates():
    refs = _scoped_references("_value_pos")
    scopes = {(mod, scope) for mod, scope, _ in refs}
    assert scopes == {("deformation.py", "WittKernelCoords.__init__"),
                      ("deformation.py", "WittKernelCoords.encode_value")}, sorted(scopes)
    for _, scope, stmt in refs:
        if scope.endswith("__init__"):
            assert isinstance(stmt, ast.Assign), ast.unparse(stmt)
            assert [ast.unparse(t) for t in stmt.targets] == ["self._value_pos"]


def _maps_every_entry_of_phi(node):
    """Whether node is [[... call ... for e in row] for row in X.phi]."""
    if not (isinstance(node, ast.ListComp) and isinstance(node.elt, ast.ListComp)):
        return False
    outer = node.generators[0].iter
    return (isinstance(outer, ast.Attribute) and outer.attr == "phi"
            and any(isinstance(n, ast.Call) for n in ast.walk(node.elt.elt)))


def test_only_base_change_maps_every_entry_of_a_structure_matrix():
    scopes = {(mod, scope) for mod, scope, _ in _scoped_nodes(_maps_every_entry_of_phi)}
    assert scopes == {("deformation.py", "base_change")}


def test_every_function_parameter_is_read():
    unread = []
    for path, tree in _trees("src/framecalc"):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                x for x in (a.vararg, a.kwarg) if x is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{node.name}({arg.arg})"
                       for arg in params if arg.arg not in read]
    assert not unread, f"parameters never read: {unread}"


def _is_none(node):
    return node.value is None or (isinstance(node.value, ast.Constant)
                                  and node.value.value is None)


def test_no_frame_method_returns_none():
    tree = ast.parse((PACKAGE / "frames.py").read_text())
    frame_classes = {"Frame"}
    found = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef)
                and (cls.name in frame_classes
                     or any(getattr(b, "id", None) in frame_classes for b in cls.bases))):
            continue
        frame_classes.add(cls.name)
        for node in cls.body:
            if not isinstance(node, ast.FunctionDef) or node.name == "__init__":
                continue
            outs = [n for n in ast.walk(node) if isinstance(n, (ast.Return, ast.Yield))]
            if not outs or any(_is_none(n) for n in outs):
                found.append(f"frames.py:{node.lineno} {cls.name}.{node.name}")
    assert frame_classes == {"Frame", "WittFrame", "ZipFrame", "RelativeFrame",
                             "TautologicalFrame"}
    assert not found, f"frame methods that return None: {found}"


def test_only_emit_writes_the_report_command():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [f"cli.py:{node.lineno}" for top in tree.body
             if not (isinstance(top, ast.FunctionDef) and top.name == "_emit")
             for node in ast.walk(top)
             if isinstance(node, ast.Constant) and node.value == "command"]
    assert not found, f'"command" written outside cli._emit: {found}'


def test_readme_lists_exactly_the_cli_commands():
    from framecalc.cli import COMMANDS
    block = (ROOT / "README.md").read_text().split("Commands:", 1)[1]
    listed = re.findall(r"`(\w+)(?: \{([\w,]+)\})?`", block.split("\n\n", 1)[0])
    assert listed == [(name, ",".join(ops or ())) for name, _, ops in COMMANDS]


def test_every_import_is_standard_library_or_relative():
    foreign = []
    for path, tree in _trees("src/framecalc"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, f"imports outside the standard library: {foreign}"


def test_witt_add_runs_without_sympy(tmp_path):
    # the README example: [1] + [2] = 0 in W_2(F_3)
    spec = tmp_path / "add.json"
    spec.write_text(json.dumps({"ring": {"p": 3}, "m": 2,
                                "x": [{"1": [1]}, {"1": [0]}],
                                "y": [{"1": [2]}, {"1": [0]}]}))
    code = ("import sys, framecalc\n"
            "from framecalc import cli\n"
            f"code = cli.main(['witt', 'add', '--spec', {str(spec)!r}, "
            f"'--out', {str(tmp_path / 'out.json')!r}])\n"
            "print(code, 'sympy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.stdout.split() == ["0", "False"], run.stdout + run.stderr
