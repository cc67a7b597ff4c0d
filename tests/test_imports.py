"""Module boundaries inside the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gbpd"


def test_no_module_imports_another_modules_private_names():
    # a private helper belongs to its module: another module that needs it
    # needs a public name for it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} import "
                          f"{alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []


# Imports kept only so that the traced benchmark run can patch them by name:
# perfbench/spans.py wraps these module attributes and fails if one is gone.
PATCHED_BY_NAME = {
    ("diagram.py", "make_bisector"),
    ("diagram.py", "param_of_point"),
    ("serialize.py", "make_bisector"),
    ("measure.py", "quad"),
}


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _referenced(nodes) -> set[str]:
    return {n.id for top in nodes for n in ast.walk(top) if isinstance(n, ast.Name)}


def test_every_import_is_used_and_every_private_function_is_called():
    # dead code guard: an import no line of its module uses, or a private
    # module-level function that nothing in its module refers to
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _referenced(n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom)))
        used |= _exported(tree)
        found += [f"{path.name}: unused import {name}" for name in _imported_names(tree)
                  if name not in used and (path.name, name) not in PATCHED_BY_NAME]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                if node.name not in _referenced(n for n in tree.body if n is not node):
                    found.append(f"{path.name}: private function {node.name} is never called")
    assert found == []


def test_patched_names_are_still_bound():
    # the allow-list above names real bindings: drop an entry with its import
    for module, name in sorted(PATCHED_BY_NAME):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        assert name in _imported_names(tree), f"{module}: {name}"


def test_tolerances_are_constants_not_parameters():
    # one value of each tolerance is in use, so each is a float constant of
    # tolerances.py, imported by name: no module imports anything else from
    # it (a set of tolerances to pass around), and no function takes `tol`
    _, *body = ast.parse((SRC / "tolerances.py").read_text(encoding="utf-8")).body
    constants = set()
    for node in body:  # after the docstring, NAME = float only
        assert isinstance(node, ast.Assign) and type(getattr(node.value, "value", None)) is float
        (target,) = node.targets
        assert target.id.isupper()
        constants.add(target.id)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                found += [f"{path.name}: {getattr(node, 'name', 'lambda')} takes tol"
                          for p in params if p is not None and p.arg == "tol"]
            elif isinstance(node, ast.ImportFrom) and node.module == "tolerances":
                found += [f"{path.name}: imports {alias.name} from tolerances"
                          for alias in node.names if alias.name not in constants]
    assert found == []
