"""Diagram JSON writer and reader.

The document carries five top-level arrays: ``generators``, ``vertices``,
``edges``, ``adjacency``, ``cells``. The writer formats each row with one
template of its table. Every float is written with 17 significant digits,
which is enough for the parsed value to be bit-identical to the original;
infinite edge parameters are written as the strings ``"inf"`` and
``"-inf"`` since JSON has no literal for them. Reading a document and
writing it again reproduces the bytes exactly.

The reader checks the generator, vertex and edge tables by columns, one
mask per check over a field's values; only the first row that a mask
rejects is checked again, field by field, so the error names that row and
its first faulty field. The edge pairs are classified once, into a bisector
table of one row per edge, and the edge columns become the graph's EDGE
record, its labels decoded by the build's own array pass: a graph read back
from its JSON clips and measures bit for bit like the graph that wrote it.
The cell structure is derived from the edges by ``assemble_graph`` and must
equal the document's ``adjacency`` and ``cells`` rows. InputError is also
raised for a document without generators or with a generator id given
twice, with a row whose fields have the wrong type or shape, edge labels
that name no edge (a NaN label is a number, not a null), a component and
line that name no component of the bisector, or a loop edge with an
endpoint or on a component that does not span a full turn (only an
ellipse's closed loop and a parabola's one arc do). Vertex and edge ids
must equal their positions, edge endpoints must name vertex rows, and
vertices must be equidistant to their generators (``_check_vertex_rows``);
that they lie on their edges is not checked.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re

import numpy as np

from .bisector import bisector_table, make_bisector  # noqa: F401 (for the span tracer)
from .diagram import (EDGE, EDGE_KINDS, LOOP, DiagramGraph, Vertex, assemble_graph,
                      edge_intervals)
from .errors import InputError
from .geometry import Generator, SceneArrays, SymMat2, generator_index
from .tolerances import VERT_REL

SCHEMA_KEYS = ("generators", "vertices", "edges", "adjacency", "cells")
GENERATOR_FIELDS = ("px", "py", "m11", "m12", "m22", "w")
VERTEX_FIELDS = ("id", "x", "y", "gens")
IMPLICIT_FIELDS = ("a11", "a12", "a22", "b11", "b12", "c")
EDGE_FIELDS = ("id", "pair", "kind", "t_a", "t_b", "endpoints")
KIND_CODES = {kind: code for code, kind in enumerate(EDGE_KINDS)}
# the least integer that rounds past the largest float
_INT_LIMIT = 2**1024 - 2**970


# ------------------------------------------------------------------ writing


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        raise InputError("NaN is not representable in diagram JSON")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


# one %-template per table row, each value given as its JSON text
GENERATOR_ROW = '{"id": %s, "px": %s, "py": %s, "m11": %s, "m12": %s, "m22": %s, "w": %s}'
VERTEX_ROW = '{"id": %s, "x": %s, "y": %s, "gens": %s}'
EDGE_ROW = ('{"id": %s, "pair": %s, "a11": %s, "a12": %s, "a22": %s, "b11": %s, "b12": %s, '
            '"c": %s, "kind": "%s", "t_a": %s, "t_b": %s, "endpoints": [%s, %s], "component": %s, '
            '"line": %s}')


def _structure_rows(graph: DiagramGraph) -> tuple[list, list]:
    """The ``adjacency`` and ``cells`` rows of a graph's document."""
    adjacency = [list(pair) for pair in sorted(graph.adjacency)]
    cells = [{"id": gid, "edges": list(graph.cell_edges[gid]),
              "components": [list(comp) for comp in graph.cell_components.get(gid, [])],
              "empty": gid in graph.empty_cells, "alias": graph.aliases.get(gid)}
             for gid in sorted(graph.cell_edges)]
    return adjacency, cells


def diagram_to_json(graph: DiagramGraph) -> str:
    """Serialize a graph; one array element per line."""
    generators = [GENERATOR_ROW % (g.id, *map(_fmt_float, (float(g.p[0]), float(g.p[1]), g.M.m11,
                                                            g.M.m12, g.M.m22, float(g.w))))
                  for g in graph.generators]
    vertices = [VERTEX_ROW % (v.id, _fmt_float(float(v.pos[0])), _fmt_float(float(v.pos[1])),
                              sorted(map(int, v.gens))) for v in graph.vertices]
    # the EDGE columns, NaN (null label) and -1 (no vertex, a curve's line) as null
    edges = [EDGE_ROW % (k, pair, *map(_fmt_float, implicit), EDGE_KINDS[kind],
                         _fmt_float(t_a) if t_a == t_a else "null",
                         _fmt_float(t_b) if t_b == t_b else "null", "null" if a < 0 else a,
                         "null" if b < 0 else b, component, "null" if line < 0 else line)
             for k, (pair, implicit, kind, t_a, t_b, a, b, component, line) in enumerate(zip(
                 graph.edges["pair"].tolist(), graph.table.implicit.tolist(),
                 *(graph.edges[name].tolist() for name in EDGE.names[1:8])))]
    structure = [list(map(json.dumps, rows)) for rows in _structure_rows(graph)]
    tables = [f'"{key}": [\n' + ",\n".join(rows) + "\n]" if rows else f'"{key}": []'
              for key, rows in zip(SCHEMA_KEYS, (generators, vertices, edges, *structure))]
    return "{\n" + ",\n".join(tables) + "\n}\n"


def write_diagram(path, graph: DiagramGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(diagram_to_json(graph))


# ------------------------------------------------------------------ reading


def _fields(row, keys: tuple[str, ...], where: str) -> list:
    """The values of ``keys`` in a document row; a missing one raises InputError."""
    try:
        return [row[key] for key in keys]
    except KeyError as exc:
        raise InputError(f"{where}: missing field {exc.args[0]!r}") from None
    except TypeError:
        raise InputError(f"{where}: a row must be an object") from None


def _number(v, where: str) -> float:
    """A document number as a float; "inf" and "-inf" are infinities."""
    if not _fits(v):
        raise InputError(f"{where}: an integer beyond the floats where a number belongs")
    if type(v) in (float, int) or v in ("inf", "-inf"):
        return float(v)
    raise InputError(f"{where}: {v!r} where a number belongs")


def _fits(v) -> bool:
    """False for an integer beyond the floats, True for any other value."""
    return type(v) is not int or -_INT_LIMIT < v < _INT_LIMIT


def _int(v, where: str, name: str, null: bool = False):
    """A document integer; null reads as None where ``null`` allows it."""
    if type(v) is int or (null and v is None):
        return v
    raise InputError(f"{where}: {name} must be an integer{' or null' * null}, not {v!r}")


def _ints(v, where: str, name: str, count: int | None = None, null: bool = False) -> list:
    """A document array of integers (or nulls where ``null`` allows), of ``count`` entries."""
    if type(v) is list and count in (None, len(v)) and set(map(type, v)) <= (
            {int, type(None)} if null else {int}):
        return v
    size = "" if count is None else f"{count} "
    raise InputError(f"{where}: {name} must be an array of {size}integers{' or nulls' * null}, "
                     f"not {v!r}")


def _check_generator_row(row, k: int) -> None:
    where = f"generators[{k}]"
    gid, *values = _fields(row, ("id", *GENERATOR_FIELDS), where)
    for v in values:
        _number(v, where)
    _int(gid, where, "id")


def _check_vertex_row(row, k: int) -> None:
    where = f"vertices[{k}]"
    vid, x, y, gens = _fields(row, VERTEX_FIELDS, where)
    if _int(vid, where, "id") != k:
        raise InputError(f"{where}: vertex id must be its position {k}")
    _number(x, where)
    _number(y, where)
    _ints(gens, where, "gens")


def _check_edge_row(row, k: int) -> None:
    where = f"edges[{k}]"
    eid, pair, _, t_a, t_b, ends = _fields(row, EDGE_FIELDS, where)
    if _int(eid, where, "id") != k:
        raise InputError(f"{where}: edge id must be its position {k}")
    pair = _ints(pair, where, "pair", 2)
    if pair[0] >= pair[1]:
        raise InputError(f"{where}: pair must hold two generator ids in increasing order")
    _ints(ends, where, "endpoints", 2, null=True)
    _int(row.get("line"), where, "line", null=True)
    _int(row.get("component", 0), where, "component")
    for t in (t_a, t_b):
        if t is not None:
            _number(t, where)


def _reject(check, rows: list, ok: np.ndarray | bool, n: int) -> None:
    """Raise the InputError of the first row that ``ok`` (over ``n`` rows) rejects or misses."""
    k = n if np.all(ok) else int(np.argmin(ok))
    if k < len(rows):
        check(rows[k], k)
        raise AssertionError(f"row {k} fails a column check but passes {check.__name__}")


def _columns(rows: list, keys: tuple[str, ...]) -> list:
    """The columns of ``keys`` over the leading rows that are objects holding them."""
    try:
        return list(zip(*map(operator.itemgetter(*keys), rows))) or [()] * len(keys)
    except (KeyError, TypeError):
        n = next(k for k, row in enumerate(rows)
                 if type(row) is not dict or not row.keys() >= set(keys))
        return _columns(rows[:n], keys)


def _kinds(values: list, kinds: set) -> np.ndarray | bool:
    """Mask of the ``values`` whose type is one of ``kinds``; True where all are."""
    return set(map(type, values)) <= kinds or np.fromiter(
        map(kinds.__contains__, map(type, values)), bool, len(values))


def _positions(ids) -> np.ndarray | bool:
    """Mask of the ids equal to their positions; True where all are."""
    at = range(len(ids))
    return ids == tuple(at) or np.fromiter(map(operator.eq, ids, at), bool)


def _numbers(column, null: bool = False) -> np.ndarray | bool:
    """Mask of the document numbers in ``column``, and nulls where ``null`` allows."""
    ok = _kinds(column, {float, int, type(None)} if null else {float, int})
    ok = ok is True or ok | np.fromiter(map(("inf", "-inf").__contains__, column), bool)
    return ok & (int not in map(type, column) or np.fromiter(map(_fits, column), bool, len(column)))


def _int_lists(column, count: int | None = None, null: bool = False) -> np.ndarray | bool:
    """Mask of the arrays in ``column`` that ``_ints`` takes; True where all are."""
    ok = _kinds(column, {list})
    lists = column if ok is True else [v if is_list else [] for v, is_list in zip(column, ok)]
    size = np.fromiter(map(len, lists), int, len(lists))
    ints = _kinds(list(itertools.chain.from_iterable(lists)), {int, type(None)} if null else {int})
    return ok & (count is None or size == count) & (ints is True or np.bincount(
        np.repeat(np.arange(size.size), size), ~ints, size.size) == 0)


def _floats(values: list) -> np.ndarray:
    """Ints and nulls (NaN) as floats; an int beyond the floats, which names nothing, clamped."""
    try:
        return np.fromiter(map({None: math.nan}.get, values, values), float, len(values))
    except OverflowError:
        return _floats([min(max(v, -1e308), 1e308) if type(v) is int else v for v in values])


def _read_edges(rows: list) -> tuple[np.ndarray, ...]:
    """The ``edges`` columns: (n, 6) floats of the pairs, end vertices, lines and components
    (a null as NaN), the labels as floats and as null masks, and the kind codes (-1 for none)."""
    ids, pair, kind, t_a, t_b, ends = _columns(rows, EDGE_FIELDS)
    line = list(map(dict.get, rows[:len(ids)], itertools.repeat("line")))
    component = list(map(dict.get, rows[:len(ids)], itertools.repeat("component"),
                         itertools.repeat(0)))
    ok = _kinds(ids, {int}) & _positions(ids) & _int_lists(pair, 2)
    # the order of a pair compared as Python ints, which may exceed the floats
    ordered = pair if np.all(ok) else [v if fine else (0, 1) for v, fine in zip(pair, ok)]
    ok = ok & (all(itertools.starmap(operator.lt, ordered)) or np.fromiter(
        itertools.starmap(operator.lt, ordered), bool, len(ordered)))
    ok = ok & _int_lists(ends, 2, null=True) & _kinds(line, {int, type(None)})
    ok = ok & _kinds(component, {int}) & _numbers(t_a, null=True) & _numbers(t_b, null=True)
    _reject(_check_edge_row, rows, ok, len(ids))
    nulls = tuple(np.fromiter(map(operator.is_, t, itertools.repeat(None)), bool, len(t))
                  for t in (t_a, t_b))
    kind = [KIND_CODES.get(k, -1) if type(k) is str else -1 for k in kind]
    cols = _floats([*itertools.chain(*zip(*pair), *zip(*ends)), *line, *component])
    return (cols.reshape(6, -1).T, np.array(t_a, dtype=float), np.array(t_b, dtype=float), nulls,
            np.array(kind, dtype=np.int8))


def _check_vertex_rows(generators: list[Generator], pos: np.ndarray, gens: list) -> None:
    """Raise InputError unless each vertex, at ``pos[k]``, is equidistant to
    its generators ``gens[k]``.

    A vertex x passes when its distances to its generators spread by at
    most VERT_REL (1 + max |d(x)| + m (|x|^2 + max |p|^2)), m the largest
    matrix norm: the build's (1 + |d|) slack, widened by a bound on the
    terms of the bisectors d_i - d_j in scene coordinates, so that a scene
    far from the origin reads back.

    First, each generator's distance terms M p and p.M p - w, those of its
    bisectors' coefficients, must be finite: a generator beyond them would
    overflow the distances below, and its bisectors could not be built.
    """
    if not gens:
        return
    arr = SceneArrays(generators)
    px, py = arr.px, arr.py
    with np.errstate(over="ignore", invalid="ignore"):
        c = px * (arr.m11 * px + arr.m12 * py) + py * (arr.m12 * px + arr.m22 * py) - arr.w
    far = np.flatnonzero(~np.isfinite(c))
    if far.size:
        k = int(far[0])
        raise InputError(f"generators[{k}]: the distance of generator {arr.ids[k]} has "
                         "coefficients beyond the floats")
    count = np.fromiter(map(len, gens), int, len(gens))
    ids = itertools.chain.from_iterable(gens)
    cols = np.fromiter(map(arr.id_to_index.get, ids, itertools.repeat(-1)), int, count.sum())
    unnamed = count < 3
    unnamed[np.repeat(np.arange(count.size), count)[cols < 0]] = True
    if unnamed.any():
        raise InputError(f"vertices[{np.argmax(unnamed)}]: gens must name three or more "
                         "generators")
    starts = np.r_[0, np.cumsum(count)[:-1]]
    d = arr.dist(np.repeat(pos, count, axis=0), cols[:, None])[:, 0]
    spread = np.maximum.reduceat(d, starts) - np.minimum.reduceat(d, starts)
    m = (np.abs(arr.m11) + 2.0 * np.abs(arr.m12) + np.abs(arr.m22)).max()
    terms = m * ((pos * pos).sum(axis=1) + (arr.px * arr.px + arr.py * arr.py).max())
    slack = VERT_REL * (1.0 + np.maximum.reduceat(np.abs(d), starts) + terms)
    bad = np.flatnonzero(~(spread <= slack))
    if bad.size:
        k = int(bad[0])
        raise InputError(f"vertices[{k}]: distances to gens {sorted(gens[k])} spread "
                         f"by {spread[k]:.3g}, more than {slack[k]:.3g}")


def document_to_diagram(doc: dict) -> DiagramGraph:
    parts = _fields(doc, SCHEMA_KEYS, "diagram JSON")
    for key, rows in zip(SCHEMA_KEYS, parts):
        if not isinstance(rows, list):
            raise InputError(f"diagram JSON: {key!r} must be an array")
    generator_rows, vertex_rows, edge_rows, *structure = parts
    ids, *columns = _columns(generator_rows, ("id", *GENERATOR_FIELDS))
    ok = functools.reduce(operator.and_, map(_numbers, columns), _kinds(ids, {int}))
    # each row before the first that a mask rejects validated as a Generator
    generators = []
    passed = len(ids) if np.all(ok) else int(np.argmin(ok))
    values = np.array([column[:passed] for column in columns], dtype=float).reshape(6, -1)
    for k, (gid, (px, py, m11, m12, m22, w)) in enumerate(zip(ids, values.T.tolist())):
        try:
            generators.append(Generator(gid, np.array([px, py]), SymMat2(m11, m12, m22), w))
        except InputError as exc:
            raise InputError(f"generators[{k}]: {exc}") from None
    _reject(_check_generator_row, generator_rows, ok, len(ids))
    if not generators:
        raise InputError("diagram JSON: a diagram needs at least one generator")
    index = generator_index(generators)
    ids, x, y, gens = _columns(vertex_rows, VERTEX_FIELDS)
    ok = _kinds(ids, {int}) & _positions(ids) & _numbers(x) & _numbers(y) & _int_lists(gens)
    _reject(_check_vertex_row, vertex_rows, ok, len(ids))
    pos, gens = np.array([x, y], dtype=float).T.copy(), list(map(frozenset, gens))
    _check_vertex_rows(generators, pos, gens)
    vertices = list(map(Vertex, range(len(gens)), pos, gens))

    cols, t_a, t_b, nulls, kind = _read_edges(edge_rows)
    pair, ends, line, c = cols[:, :2], cols[:, 2:4], cols[:, 4], cols[:, 5]
    # an error names the first row that fails, with the document's values
    a0, a1 = edge_intervals(kind, t_a, t_b, np.isnan(line), nulls)
    bad = np.flatnonzero(~(a0 < a1))
    if bad.size:
        row = edge_rows[bad[0]]
        t_a, t_b = (None if row[key] is None else _number(row[key], "") for key in ("t_a", "t_b"))
        line = row.get("line")
        raise InputError(f"edges[{bad[0]}]: kind {row['kind']!r} with t_a {t_a!r}, t_b {t_b!r} "
                         f"names no {'curve' if line is None else f'line {line}'} edge")
    stray = np.flatnonzero((~np.isnan(ends) & ~((0 <= ends) & (ends < len(vertices)))).any(axis=1))
    if stray.size:
        raise InputError(f"edges[{stray[0]}]: endpoints {edge_rows[stray[0]]['endpoints']} name "
                         "no vertex row")
    known = np.isin(pair, list(index)).all(axis=1)
    if not known.all():
        bad = np.flatnonzero(~known)
        i, j = edge_rows[bad[np.lexsort(pair[bad].T[::-1])[0]]]["pair"]
        raise InputError(f"edge pair ({i}, {j}) references unknown generators")
    # each pair classified once, in id order (ids are below 2**31); row k of
    # the graph's table is edge k's pair
    pair = pair.astype(np.int64)
    _, first, pair_row = np.unique(pair[:, 0] << 31 | pair[:, 1], return_index=True,
                                   return_inverse=True)
    table = bisector_table(generators, tuple([index[g] for g in pair[first, k].tolist()]
                                             for k in (0, 1))).take(pair_row)
    count, lo, hi, _ = table.components(np.arange(len(edge_rows)))
    # a line bisector's components are its lines, a curve's its arcs
    named = (0 <= c) & (c < count) & np.where(table.line_count > 0, line == c, np.isnan(line))
    if not named.all():
        row = edge_rows[int(np.argmin(named))]
        raise InputError(f"edges[{row['id']}]: bisector {tuple(row['pair'])} has no component "
                         f"{row.get('component', 0)} on line {row.get('line')}")
    # a loop is an ellipse's closed loop or a parabola's one arc
    at = np.arange(c.size), c.astype(np.intp)
    full_turn = hi[at] - lo[at] >= 2.0 * math.pi
    bad = np.flatnonzero((kind == LOOP) & ~(np.isnan(ends).all(axis=1) & full_turn))
    if bad.size:
        raise InputError(f"edges[{bad[0]}]: a loop needs null endpoints and a component "
                         "that spans a full turn")
    edges = np.zeros(len(edge_rows), EDGE)
    edges["pair"], edges["kind"], edges["component"] = pair, kind, c
    edges["t_a"], edges["t_b"], edges["a0"], edges["a1"] = t_a, t_b, a0, a1
    edges["node_a"], edges["node_b"], edges["line"] = np.nan_to_num(cols[:, 2:5], nan=-1.0).T
    graph = assemble_graph(generators, vertices, edges, table)
    for key, rows, derived in zip(SCHEMA_KEYS[3:], structure, _structure_rows(graph)):
        if rows != derived:
            k = next((k for k, (got, want) in enumerate(zip(rows, derived)) if got != want),
                     min(len(rows), len(derived)))
            raise InputError(f"diagram JSON: {key}[{k}] is {rows[k : k + 1]}, "
                             f"but the edges give {derived[k : k + 1]}")
    return graph


def diagram_from_json(text: str) -> DiagramGraph:
    try:
        # "-0", the writer's -0.0, reads as the int 0 without the hook; the hook
        # costs a call per integer, so it is set only where such a token is
        neg_zero = re.search(r"-0(?![\d.eE])", text)
        doc = json.loads(text, parse_int=neg_zero and (lambda s: -0.0 if s == "-0" else int(s)))
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise InputError(f"diagram JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("diagram JSON: top level must be an object")
    return document_to_diagram(doc)


def read_diagram(path) -> DiagramGraph:
    with open(path, encoding="utf-8") as fh:
        return diagram_from_json(fh.read())
