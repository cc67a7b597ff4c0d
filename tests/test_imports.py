"""Module boundaries inside the package."""

import ast
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np

from gbpd import diagram, intersect
from gbpd.bisector import bisector_table
from gbpd.cli import random_scene
from gbpd.conic import conic_matrices
from gbpd.geometry import SceneArrays, Window

SRC = Path(__file__).resolve().parent.parent / "src" / "gbpd"
SPANS = SRC.parent.parent / "perfbench" / "spans.py"


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
    ("diagram.py", "pencil_intersections_batch"),
    ("serialize.py", "make_bisector"),
    ("measure.py", "quad"),
}
# Definitions that no module calls, kept for the same tracer: each is a
# batch of one of a pipeline kernel over bisector table rows.
TRACER_BOUND = {
    ("bisector.py", "make_bisector"),
    ("bisector.py", "param_of_point"),
    ("diagram.py", "visible_segments"),
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


def test_span_tracer_sees_the_pooled_vertex_search(monkeypatch):
    # perfbench/spans.py wraps library functions by module attribute; the
    # vertex search calls the pencil through its module's global, so the
    # wrapper counts every chunk, also on the pool's threads (four chunks
    # of at most 64 triples here, on two threads)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, targets, attr, _ in spans.PATCHES:
        for target in targets:
            assert attr in vars(spans._resolve(target)), f"{target}: {attr}"
    gens = random_scene("paper-random", 12, 42, Window(0.0, 0.0, 400.0, 400.0))
    monkeypatch.setattr(intersect, "_TRIPLE_CHUNK", 64)
    tracer = spans.Tracer()
    tracer.install()
    try:
        diagram.build_diagram(gens, threads=2)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    # the kernel's valid slots over all triples, counted directly
    arr, table = SceneArrays(gens), bisector_table(gens)
    center = (0.5 * (arr.px.min() + arr.px.max()), 0.5 * (arr.py.min() + arr.py.max()))
    prep = intersect.prepare_pairs(conic_matrices(table.implicit), arr.scale(), center)
    trip = np.array(list(itertools.combinations(range(12), 3)))
    pair_row = table.pair_rows()
    _, valid = intersect.pencil_intersections_batch(
        pair_row[trip[:, 0], trip[:, 1]], pair_row[trip[:, 0], trip[:, 2]], prep)
    assert metrics["intersect.pencil.calls"] == 4
    assert metrics["intersect.pencil.pairs"] == math.comb(12, 3)
    assert metrics["intersect.pencil.candidates"] == int(valid.sum()) > 0


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


def test_every_public_definition_is_used_or_exported():
    # src/ holds what the pipeline runs: a public module-level function or
    # class is referenced in src/ outside its own definition (an import is
    # not a reference), exported in gbpd.__all__, or tracer-bound above
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    users: dict[str, set] = {}  # name -> the top-level nodes that refer to it
    for tree in trees.values():
        for top in tree.body:
            for n in ast.walk(top):
                name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                if isinstance(n, (ast.Name, ast.Attribute)):
                    users.setdefault(name, set()).add(id(top))
    exported = _exported(trees["__init__.py"])
    found, defined = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add((module, node.name))
                if not users.get(node.name, set()) - {id(node)} and node.name not in exported \
                        and (module, node.name) not in TRACER_BOUND:
                    found.append(f"{module}: {node.name} is neither used in src/ nor exported")
    assert found == []
    assert TRACER_BOUND <= defined
