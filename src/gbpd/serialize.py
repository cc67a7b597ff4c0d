"""Diagram JSON writer and reader.

The document carries five top-level arrays: ``generators``, ``vertices``,
``edges``, ``adjacency``, ``cells``. Every float is written with 17
significant digits, which is enough for the parsed value to be bit-identical
to the original; infinite edge parameters are written as the strings
``"inf"`` and ``"-inf"`` since JSON has no literal for them. Reading a
document and writing it again reproduces the bytes exactly.

The reader rebuilds a full :class:`DiagramGraph`: the generator pairs of the
edges are classified once, into one bisector table (the construction is
deterministic and a pair gets the same floats in any batch), and the graph
keeps one table row per edge, as a built graph does, so a loaded graph
supports clipping and measurement. Each edge row's types are checked as it
is read; its values become the columns of the graph's EDGE record, whose
labels are decoded in one array pass, the build's own, so a graph read back
from its JSON clips and measures bit for bit like the graph that wrote it.
The other edge checks are array passes over the columns. The cell
structure is derived from the edges by ``assemble_graph``, as the build
derives it, and a document whose ``adjacency`` or ``cells`` rows differ from
the rows the writer would emit for that structure raises InputError. So does
a document without generators or with a generator id given twice, a row
whose fields have the wrong type or shape, an edge whose labels name no edge
(a NaN label is a number, not a null, and names none) or whose component
and line name no component of its bisector, and a loop
edge with an endpoint or on a component that does not span a full turn (only
an ellipse's closed loop and a parabola's one arc do). Vertex and edge ids
must equal their positions, every edge endpoint must name a vertex row, and
every vertex row must be equidistant to its generators (see
``_check_vertex_rows``); that the vertices lie on their edges is not checked
further.
"""

from __future__ import annotations

import itertools
import json
import math
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
IMPLICIT_FIELDS = ("a11", "a12", "a22", "b11", "b12", "c")
EDGE_FIELDS = ("id", "pair", "kind", "t_a", "t_b", "endpoints")
KIND_CODES = {kind: code for code, kind in enumerate(EDGE_KINDS)}


# ------------------------------------------------------------------ writing


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        raise InputError("NaN is not representable in diagram JSON")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _emit(obj) -> str:
    """Inline JSON encoding of one value (17-digit floats, quoted infinities)."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_emit(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise InputError(f"cannot serialize value of type {type(obj).__name__}")


def diagram_to_document(graph: DiagramGraph) -> dict:
    """Plain-python document for a graph (floats kept as floats)."""
    gens = [
        {
            "id": int(g.id),
            "px": float(g.p[0]),
            "py": float(g.p[1]),
            "m11": g.M.m11,
            "m12": g.M.m12,
            "m22": g.M.m22,
            "w": float(g.w),
        }
        for g in graph.generators
    ]
    verts = [
        {
            "id": int(v.id),
            "x": float(v.pos[0]),
            "y": float(v.pos[1]),
            "gens": sorted(int(g) for g in v.gens),
        }
        for v in graph.vertices
    ]
    # the EDGE columns, NaN (null label) and -1 (no vertex, a curve's line) as null
    edges = [
        {
            "id": k,
            "pair": pair,
            **dict(zip(IMPLICIT_FIELDS, implicit)),
            "kind": EDGE_KINDS[kind],
            "t_a": None if t_a != t_a else t_a,
            "t_b": None if t_b != t_b else t_b,
            "endpoints": [None if a < 0 else a, None if b < 0 else b],
            "component": component,
            "line": None if line < 0 else line,
        }
        for k, (pair, implicit, kind, t_a, t_b, a, b, component, line) in enumerate(zip(
            graph.edges["pair"].tolist(), graph.table.implicit.tolist(),
            *(graph.edges[name].tolist() for name in EDGE.names[1:8])))
    ]
    adjacency, cells = _structure_rows(graph)
    return {
        "generators": gens,
        "vertices": verts,
        "edges": edges,
        "adjacency": adjacency,
        "cells": cells,
    }


def _structure_rows(graph: DiagramGraph) -> tuple[list, list]:
    """The ``adjacency`` and ``cells`` rows of a graph's document."""
    adjacency = [list(pair) for pair in sorted(graph.adjacency)]
    cells = [
        {
            "id": gid,
            "edges": list(graph.cell_edges[gid]),
            "components": [list(comp) for comp in graph.cell_components.get(gid, [])],
            "empty": gid in graph.empty_cells,
            "alias": graph.aliases.get(gid),
        }
        for gid in sorted(graph.cell_edges)
    ]
    return adjacency, cells


def diagram_to_json(graph: DiagramGraph) -> str:
    """Serialize a graph; one array element per line."""
    doc = diagram_to_document(graph)
    parts = ["{"]
    for k, key in enumerate(SCHEMA_KEYS):
        rows = doc[key]
        tail = "," if k + 1 < len(SCHEMA_KEYS) else ""
        if not rows:
            parts.append(f'{json.dumps(key)}: []{tail}')
            continue
        parts.append(f'{json.dumps(key)}: [')
        for r, row in enumerate(rows):
            parts.append(_emit(row) + ("," if r + 1 < len(rows) else ""))
        parts.append(f"]{tail}")
    parts.append("}")
    return "\n".join(parts) + "\n"


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
    if type(v) is float:
        return v
    if type(v) is int:
        return float(v)
    if v in ("inf", "-inf"):
        return float(v)
    raise InputError(f"{where}: {v!r} where a number belongs")


def _int(v, where: str, name: str, null: bool = False):
    """A document integer; null reads as None where ``null`` allows it."""
    if type(v) is int or (null and v is None):
        return v
    raise InputError(f"{where}: {name} must be an integer{' or null' * null}, not {v!r}")


def _ints(v, where: str, name: str, count: int | None = None, null: bool = False) -> list:
    """A document array of integers, or nulls where ``null`` allows them, of
    ``count`` entries where given."""
    if type(v) is list and count in (None, len(v)) and set(map(type, v)) <= (
            {int, type(None)} if null else {int}):
        return v
    size = "" if count is None else f"{count} "
    raise InputError(f"{where}: {name} must be an array of {size}integers{' or nulls' * null}, "
                     f"not {v!r}")


def _check_vertex_rows(generators: list[Generator], vertices: list[Vertex]) -> None:
    """Raise InputError unless each vertex is equidistant to its generators.

    A vertex x passes when its distances to its generators spread by at
    most VERT_REL (1 + max |d(x)| + m (|x|^2 + max |p|^2)), m the largest
    matrix norm: the build's (1 + |d|) slack, widened by a bound on the
    terms of the bisectors d_i - d_j in scene coordinates, so that a scene
    far from the origin reads back.
    """
    if not vertices:
        return
    arr = SceneArrays(generators)
    count = np.array([len(v.gens) for v in vertices])
    ids = itertools.chain.from_iterable(v.gens for v in vertices)
    cols = np.fromiter(map(arr.id_to_index.get, ids, itertools.repeat(-1)), int, count.sum())
    unnamed = count < 3
    unnamed[np.repeat(np.arange(count.size), count)[cols < 0]] = True
    if unnamed.any():
        raise InputError(f"vertices[{np.argmax(unnamed)}]: gens must name three or more "
                         "generators")
    starts = np.r_[0, np.cumsum(count)[:-1]]
    pos = np.array([v.pos for v in vertices])
    d = arr.dist(np.repeat(pos, count, axis=0), cols[:, None])[:, 0]
    spread = np.maximum.reduceat(d, starts) - np.minimum.reduceat(d, starts)
    m = (np.abs(arr.m11) + 2.0 * np.abs(arr.m12) + np.abs(arr.m22)).max()
    terms = m * ((pos * pos).sum(axis=1) + (arr.px * arr.px + arr.py * arr.py).max())
    slack = VERT_REL * (1.0 + np.maximum.reduceat(np.abs(d), starts) + terms)
    bad = np.flatnonzero(~(spread <= slack))
    if bad.size:
        k = int(bad[0])
        raise InputError(f"vertices[{k}]: distances to gens {sorted(vertices[k].gens)} spread "
                         f"by {spread[k]:.3g}, more than {slack[k]:.3g}")


def document_to_diagram(doc: dict) -> DiagramGraph:
    parts = _fields(doc, SCHEMA_KEYS, "diagram JSON")
    for key, rows in zip(SCHEMA_KEYS, parts):
        if not isinstance(rows, list):
            raise InputError(f"diagram JSON: {key!r} must be an array")
    generator_rows, vertex_rows, edge_rows, *structure = parts
    generators: list[Generator] = []
    for k, row in enumerate(generator_rows):
        where = f"generators[{k}]"
        gid, *values = _fields(row, ("id", *GENERATOR_FIELDS), where)
        px, py, m11, m12, m22, w = (_number(v, where) for v in values)
        try:
            generators.append(Generator(_int(gid, where, "id"), np.array([px, py]),
                                        SymMat2(m11, m12, m22), w))
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from None
    if not generators:
        raise InputError("diagram JSON: a diagram needs at least one generator")
    index = generator_index(generators)

    vertices: list[Vertex] = []
    for k, row in enumerate(vertex_rows):
        where = f"vertices[{k}]"
        vid, x, y, gens = _fields(row, ("id", "x", "y", "gens"), where)
        if _int(vid, where, "id") != k:
            raise InputError(f"{where}: vertex id must be its position {k}")
        pos = np.array([_number(x, where), _number(y, where)])
        vertices.append(Vertex(k, pos, frozenset(_ints(gens, where, "gens"))))
    _check_vertex_rows(generators, vertices)

    # each row's types checked as it is read, its values collected as floats
    # (a null as NaN, the null labels masked apart from NaN numbers)
    rows, kinds = [], []
    for k, row in enumerate(edge_rows):
        where = f"edges[{k}]"
        eid, pair, kind, t_a, t_b, ends = _fields(row, EDGE_FIELDS, where)
        if _int(eid, where, "id") != k:
            raise InputError(f"{where}: edge id must be its position {k}")
        pair = _ints(pair, where, "pair", 2)
        if pair[0] >= pair[1]:
            raise InputError(f"{where}: pair must hold two generator ids in increasing order")
        a, b = _ints(ends, where, "endpoints", 2, null=True)
        rows.append((pair[0], pair[1], a, b, _int(row.get("line"), where, "line", null=True),
                     _int(row.get("component", 0), where, "component"),
                     math.nan if t_a is None else _number(t_a, where),
                     math.nan if t_b is None else _number(t_b, where), t_a is None, t_b is None))
        kinds.append(KIND_CODES.get(kind, -1) if type(kind) is str else -1)
    try:
        cols = np.array(rows, dtype=float).reshape(-1, 10)
    except OverflowError:  # an integer beyond the floats, which names nothing
        cols = np.array([[min(max(v, -1e308), 1e308) if type(v) is int else v for v in r]
                         for r in rows], dtype=float).reshape(-1, 10)
    pair, ends, line, c = cols[:, :2], cols[:, 2:4], cols[:, 4], cols[:, 5]
    t_a, t_b, kind = cols[:, 6], cols[:, 7], np.array(kinds, dtype=np.int8)
    # an error names the first row that fails, with the document's values
    a0, a1 = edge_intervals(kind, t_a, t_b, np.isnan(line), tuple(cols[:, 8:].T == 1.0))
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
    count, lo, hi, _ = table.components(np.arange(len(rows)))
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
    edges = np.zeros(len(rows), EDGE)
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
    except json.JSONDecodeError as exc:
        raise InputError(f"diagram JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("diagram JSON: top level must be an object")
    return document_to_diagram(doc)


def read_diagram(path) -> DiagramGraph:
    with open(path, encoding="utf-8") as fh:
        return diagram_from_json(fh.read())
