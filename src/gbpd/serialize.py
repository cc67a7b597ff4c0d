"""Diagram JSON writer and reader.

The document carries five top-level arrays: ``generators``, ``vertices``,
``edges``, ``adjacency``, ``cells``. Every float is written with 17
significant digits, which is enough for the parsed value to be bit-identical
to the original; infinite edge parameters are written as the strings
``"inf"`` and ``"-inf"`` since JSON has no literal for them. Reading a
document and writing it again reproduces the bytes exactly.

The reader rebuilds a full :class:`DiagramGraph`: bisector objects are
reconstructed from the generator pairs (the construction is deterministic),
so a loaded graph supports clipping and measurement like a freshly built
one. Only pairs that own visible edges are rebuilt.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bisector import make_bisector, make_bisectors  # noqa: F401 (make_bisector re-exported)
from .conic import alpha_of_param
from .diagram import DiagramGraph, EdgeSegment, Vertex
from .errors import InputError
from .geometry import Generator, SceneArrays, SymMat2
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

SCHEMA_KEYS = ("generators", "vertices", "edges", "adjacency", "cells")


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
    edges = []
    for e in graph.edges:
        imp = graph.bisectors[e.pair].implicit
        edges.append(
            {
                "id": int(e.id),
                "pair": [int(e.pair[0]), int(e.pair[1])],
                "a11": imp.a11,
                "a12": imp.a12,
                "a22": imp.a22,
                "b11": imp.b11,
                "b12": imp.b12,
                "c": imp.c,
                "kind": e.kind,
                "t_a": e.t_a,
                "t_b": e.t_b,
                "endpoints": [e.endpoints[0], e.endpoints[1]],
                "component": int(e.component),
                "line": e.line_index,
            }
        )
    adjacency = [[int(i), int(j)] for i, j in sorted(graph.adjacency)]
    cells = []
    for gid in sorted(graph.cell_edges):
        cells.append(
            {
                "id": int(gid),
                "edges": [int(k) for k in graph.cell_edges[gid]],
                "components": [
                    [int(k) for k in comp] for comp in graph.cell_components.get(gid, [])
                ],
                "empty": gid in graph.empty_cells,
                "alias": graph.aliases.get(gid),
            }
        )
    return {
        "generators": gens,
        "vertices": verts,
        "edges": edges,
        "adjacency": adjacency,
        "cells": cells,
    }


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


def _as_float(v, where: str):
    if v is None:
        return None
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise InputError(f"{where}: unexpected string {v!r} where a number belongs")
    if isinstance(v, bool):
        raise InputError(f"{where}: boolean where a number belongs")
    return float(v)


def _need(row: dict, key: str, where: str):
    if key not in row:
        raise InputError(f"{where}: missing field {key!r}")
    return row[key]


def _edge_alphas(kind: str, t_a, t_b, line_index):
    """Recover the angular interval of a curve edge from its parameters.

    The far point t = inf sits at alpha = pi; intervals entering from it are
    stored with t_a = -inf and start at -pi. Wrapping segments continue past
    pi, so their upper angle is lifted by one turn.
    """
    if line_index is not None or kind == "full_line":
        return None, None
    if kind == "loop":
        return -math.pi, math.pi
    a0 = -math.pi if t_a == -math.inf else alpha_of_param(t_a)
    a1 = alpha_of_param(t_b)
    if kind == "wrap" or a1 < a0:
        a1 += 2.0 * math.pi
    return a0, a1


def document_to_diagram(doc: dict, tol: ToleranceSet = DEFAULT_TOLERANCES) -> DiagramGraph:
    for key in SCHEMA_KEYS:
        if key not in doc:
            raise InputError(f"diagram JSON: missing array {key!r}")

    generators: list[Generator] = []
    for k, row in enumerate(doc["generators"]):
        where = f"generators[{k}]"
        generators.append(
            Generator(
                id=int(_need(row, "id", where)),
                p=np.array(
                    [_as_float(_need(row, "px", where), where),
                     _as_float(_need(row, "py", where), where)]
                ),
                M=SymMat2(
                    _as_float(_need(row, "m11", where), where),
                    _as_float(_need(row, "m12", where), where),
                    _as_float(_need(row, "m22", where), where),
                ),
                w=_as_float(_need(row, "w", where), where),
            )
        )
    by_id = {g.id: g for g in generators}

    vertices: list[Vertex] = []
    for k, row in enumerate(doc["vertices"]):
        where = f"vertices[{k}]"
        vertices.append(
            Vertex(
                id=int(_need(row, "id", where)),
                pos=np.array(
                    [_as_float(_need(row, "x", where), where),
                     _as_float(_need(row, "y", where), where)]
                ),
                gens=frozenset(int(g) for g in _need(row, "gens", where)),
            )
        )

    edges: list[EdgeSegment] = []
    for k, row in enumerate(doc["edges"]):
        where = f"edges[{k}]"
        pair = tuple(int(v) for v in _need(row, "pair", where))
        if len(pair) != 2:
            raise InputError(f"{where}: pair must hold two generator ids")
        kind = str(_need(row, "kind", where))
        t_a = _as_float(_need(row, "t_a", where), where)
        t_b = _as_float(_need(row, "t_b", where), where)
        ends = _need(row, "endpoints", where)
        line_index = row.get("line")
        alpha_a, alpha_b = _edge_alphas(kind, t_a, t_b, line_index)
        edges.append(
            EdgeSegment(
                id=int(_need(row, "id", where)),
                pair=pair,  # type: ignore[arg-type]
                kind=kind,
                t_a=t_a,
                t_b=t_b,
                endpoints=(
                    None if ends[0] is None else int(ends[0]),
                    None if ends[1] is None else int(ends[1]),
                ),
                component=int(row.get("component", 0)),
                line_index=None if line_index is None else int(line_index),
                alpha_a=alpha_a,
                alpha_b=alpha_b,
            )
        )

    adjacency = {tuple(int(v) for v in pair) for pair in doc["adjacency"]}

    cell_edges: dict[int, list[int]] = {}
    cell_components: dict[int, list[list[int]]] = {}
    empty: set[int] = set()
    aliases: dict[int, int] = {}
    for k, row in enumerate(doc["cells"]):
        where = f"cells[{k}]"
        gid = int(_need(row, "id", where))
        if gid not in by_id:
            raise InputError(f"{where}: cell id {gid} has no generator")
        cell_edges[gid] = [int(v) for v in _need(row, "edges", where)]
        cell_components[gid] = [
            [int(v) for v in comp] for comp in _need(row, "components", where)
        ]
        if bool(_need(row, "empty", where)):
            empty.add(gid)
        alias = row.get("alias")
        if alias is not None:
            aliases[gid] = int(alias)
    for g in generators:
        cell_edges.setdefault(g.id, [])
        cell_components.setdefault(g.id, [])

    pairs = sorted({e.pair for e in edges})
    for i, j in pairs:
        if i not in by_id or j not in by_id:
            raise InputError(f"edge pair ({i}, {j}) references unknown generators")
    bisectors = dict(
        zip(pairs, make_bisectors([by_id[i] for i, _ in pairs], [by_id[j] for _, j in pairs], tol))
    )

    kept = [g for g in generators if g.id not in aliases]
    length_scale = SceneArrays(kept).scale() if kept else 1.0
    return DiagramGraph(
        generators=generators,
        vertices=vertices,
        edges=edges,
        bisectors=bisectors,
        cell_edges=cell_edges,
        adjacency=adjacency,  # type: ignore[arg-type]
        cell_components=cell_components,
        empty_cells=frozenset(empty),
        aliases=aliases,
        length_scale=length_scale,
        tol=tol,
    )


def diagram_from_json(text: str, tol: ToleranceSet = DEFAULT_TOLERANCES) -> DiagramGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"diagram JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("diagram JSON: top level must be an object")
    return document_to_diagram(doc, tol)


def read_diagram(path, tol: ToleranceSet = DEFAULT_TOLERANCES) -> DiagramGraph:
    with open(path, encoding="utf-8") as fh:
        return diagram_from_json(fh.read(), tol)
