"""Every public function, method and module constant in `src/lcaframes` has a caller.

The README's library quick tour runs as written, no module but `groups`
names a group kind, and the package raises its two error classes only.

A name counts as used when it is referenced somewhere in the package outside
its own definition (as a name or an attribute), or when `lcaframes/__init__.py`
exports it.  The match is by name only, so a method shares its uses with every
other definition of the same name.  Names kept without a caller in the package
are listed below with the reason, and so is every public method name defined
in more than one class, since a caller of one definition hides the others.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcaframes"

KEPT = {
    "filters.TrigPolynomial.eval": "one-point evaluation; a benchmark boundary, used across the tests",
    "filters.CosetPiecewise.eval": "one-point evaluation; a benchmark boundary, used across the tests",
    "charfun.IndicatorGenerator.hat": "one-point evaluation; a benchmark boundary, used across the tests",
    "functions.DiscreteFunction.inner": "the per-translate analysis oracle; a benchmark boundary",
    "functions.DiscreteFunction.translate": "the per-translate analysis oracle and the acceptance tests",
    "verify.ALL_CONDITIONS": "the certified conditions; the CLI tests check a report covers each",
}

SHARED = {
    "eval": "one-point evaluation of each filter representation",
    "eval_many": "array evaluation of each filter representation, and of the UEP matrix over its coset columns",
    "exact_keys": "value keys of each filter representation, and the UEP matrix's key rows made from them",
    "eval_exact": "the exact value a key names, for each filter representation",
    "is_finite": "whether a group (Z_N) or a lattice has finitely many points",
}

GROUP_KINDS = {"CYCLIC", "INTEGERS", "TORUS", "EUCLIDEAN"}


def _definitions(tree: ast.Module):
    """(qualified name, first line, last line) of each public function, method and constant."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.isupper() and not target.id.startswith("_"):
                    yield target.id, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of every name and attribute referenced."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _exports(tree: ast.Module) -> set:
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}


def uncalled_names() -> list:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    exported = _exports(trees.pop("__init__"))
    refs = [(module, name, line) for module, tree in trees.items() for name, line in _references(tree)]
    out = []
    for module, tree in trees.items():
        for qualname, first, last in _definitions(tree):
            name = qualname.split(".")[-1]
            if qualname in exported or name in exported:
                continue
            if not any(n == name and not (m == module and first <= line <= last) for m, n, line in refs):
                out.append(f"{module}.{qualname}")
    return sorted(out)


def shared_method_names() -> set:
    """Public method names defined in more than one class of the package."""
    seen, shared = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, _, _ in _definitions(ast.parse(path.read_text())):
            if "." in qualname:
                name = qualname.split(".")[-1]
                (shared if name in seen else seen).add(name)
    return shared


def test_every_public_name_has_a_caller():
    assert [name for name in uncalled_names() if name not in KEPT] == []


def test_kept_names_still_exist_without_a_caller():
    # a kept name that gains a caller, or is deleted, leaves the list
    assert sorted(KEPT) == [name for name in uncalled_names() if name in KEPT]


def group_kind_uses() -> list:
    """(module, line, name) of every use of a group-kind constant, or of a `.kind` comparison, outside `groups`."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "groups":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                names = [".kind" for side in sides if isinstance(side, ast.Attribute) and side.attr == "kind"]
            out.extend((path.stem, node.lineno, n) for n in names if n in GROUP_KINDS or n == ".kind")
    return sorted(out)


def test_group_kinds_are_decided_in_groups_only():
    # every other module asks the group (is_discrete, is_finite, period, coords) instead of naming a kind
    assert group_kind_uses() == []


def test_method_names_shared_by_classes_are_listed():
    # the caller check above cannot tell such methods apart, so each is kept on purpose
    assert sorted(shared_method_names()) == sorted(SHARED)


def test_every_raise_names_one_of_the_two_error_classes():
    # the class a site raises is its exit code, SchemaError 2 and LcaError 3, and `cli.main` alone maps them
    classes = [n.name for n in ast.parse((PACKAGE / "exceptions.py").read_text()).body if isinstance(n, ast.ClassDef)]
    assert classes == ["LcaError", "SchemaError"]
    others = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:  # a bare raise re-raises
                exc = node.exc
                if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) and exc.func.id in classes):
                    others.append(f"{path.stem}:{node.lineno}")
    assert others == []


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md (library quick tour)", "exec"), {})
