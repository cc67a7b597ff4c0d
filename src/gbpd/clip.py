"""Clip a diagram to a rectangular window.

Every visible edge segment is cut at its window-boundary crossings and only
the sub-pieces whose interior lies inside the window are kept. The window
boundary itself is chopped at the crossing points and the four corners, and
each boundary arc is assigned to the generator owning its midpoint (on a
tie, from a bisector along the side, the one whose distance falls fastest
into the window). The pieces are then chained into closed per-cell loops
(cell interior on the left), which is exactly the form the area and
perimeter integrators need: outer loops come out counterclockwise, holes
clockwise. A crossing within snap (DEDUP_REL times the window diagonal) of
an earlier node is that node, found through a ``geometry.PointIndex`` of
cell side 2 snap; a vertex within snap of a corner is the corner, so its pieces meet
the border there.

The same pieces carry a bounded cell of the bare graph: `bounded_cell_pieces`
turns each of its edges into one whole-edge piece, with the side test and
the chaining that clipping uses, so measurement has one loop representation.
`flatten_pieces` is the one flattening of pieces into polylines, for the
analytic raster, the SVG and the hole test of measure.

Crossing parameters come from the quadratic x(t) - X u(t) = 0 per window
side (linear for straight edges), so no marching or sampling is involved.
The side quadratics of all curved edges are solved in one batch and the
straight edges' crossings in one array pass. Piece points and tangents come
from one evaluator (``_piece_rows``), whose arc kernel flattening calls on
its span arrays; all read an edge's bisector as its table row, by edge id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import (
    ConicImplicit,
    alphas_of_params,
    homogeneous_at_params,
    line_points,
    points_at_alphas,
    real_quadratic_roots_batch,
)
from .diagram import DiagramGraph, merge_marks, split_at_marks
from .errors import NoSolutionError, SingularParameterError
from .geometry import PointIndex, SceneArrays, Window
from .tolerances import DEDUP_REL, DEN_REL, PARAM_MERGE

TWO_PI = 2.0 * math.pi
_FLATTEN_DEPTH = 14


@dataclass
class ClipNode:
    id: int
    pos: np.ndarray
    kind: str  # "corner" | "vertex" | "crossing"
    boundary_s: float | None = None  # arc position along the window border


@dataclass
class ClipPiece:
    """One boundary piece of a clipped cell.

    Kinds: "arc" (curved bisector piece, params are alphas), "segment"
    (straight bisector piece, params are line parameters) and "boundary"
    (piece of the window border). Stored direction is increasing parameter;
    ``left``/``right`` name the cells on each side in that direction
    (boundary pieces keep the window interior, hence their owner, on the
    left). Closed pieces are full loops with no nodes. Pieces made by
    ``bounded_cell_pieces`` take edge ids as ids and vertex ids as nodes.
    """

    id: int
    kind: str
    pair: tuple[int, int] | None
    edge_id: int | None
    line_index: int | None
    a0: float | None
    a1: float | None
    node_a: int | None
    node_b: int | None
    closed: bool
    left: int | None
    right: int | None
    p0: np.ndarray | None
    p1: np.ndarray | None


@dataclass
class ClippedDiagram:
    window: Window
    graph: DiagramGraph
    nodes: list[ClipNode]
    pieces: list[ClipPiece]
    cells: dict[int, list[list[tuple[int, bool]]]]


def piece_points(graph: DiagramGraph, pieces, f) -> np.ndarray:
    """Points (N, 2) at fraction f[k] in [0, 1] along pieces[k], in its stored direction.

    ``f`` is one fraction per piece, or one for all. The arc and segment
    points come from one ``_piece_rows`` call; an arc point at a singular
    parameter raises SingularParameterError.
    """
    f = np.broadcast_to(np.asarray(f, dtype=float), (len(pieces),))
    out = np.empty((len(pieces), 2))
    border = [k for k, p in enumerate(pieces) if p.kind == "boundary"]
    if border:
        p0 = np.array([pieces[k].p0 for k in border])
        p1 = np.array([pieces[k].p1 for k in border])
        out[border] = p0 + f[border, None] * (p1 - p0)
    rows = [k for k, p in enumerate(pieces) if p.kind != "boundary"]
    a0 = np.array([pieces[k].a0 for k in rows])
    a = a0 + f[rows] * (np.array([pieces[k].a1 for k in rows]) - a0)
    out[rows] = _regular_rows(graph, [pieces[k] for k in rows], a)[:, :2]
    return out


def flatten_pieces(graph: DiagramGraph, pieces, ftol: float) -> list[np.ndarray]:
    """Polylines (M, 2) along pieces in their stored direction, end points included.

    A border or straight piece is its chord. An arc starts from its knots
    (fractions 0, 1/2 and 1; quarters for a closed arc), and each span is
    split at its midpoint until the midpoint lies within ftol of the chord,
    to depth 14. The open spans of all arcs are arrays (arc, f0, f1, end
    points), and each level evaluates their midpoints in one call. A span's
    fate depends only on its own points, so a piece gets the same polyline
    whatever it is flattened with.
    """
    lines: list = [None if p.kind == "arc" else np.array([p.p0, p.p1]) for p in pieces]
    arcs = [k for k, p in enumerate(pieces) if p.kind == "arc"]
    if not arcs:
        return lines
    a0, a1 = np.array([(pieces[k].a0, pieces[k].a1) for k in arcs]).T
    rows = [pieces[k].edge_id for k in arcs]
    chart, u_scale = graph.table.chart[rows], graph.table.u_scale[rows]

    def points(arc, f):
        alpha = a0[arc] + f * (a1[arc] - a0[arc])  # as piece_points
        x, y, _, _, singular = points_at_alphas(chart[arc], u_scale[arc], alpha)
        if singular.any():
            raise SingularParameterError(f"alpha={alpha[singular][0]} lies on the line at infinity")
        return np.column_stack([x, y])

    knots = [[0.0, 0.25, 0.5, 0.75, 1.0] if pieces[k].closed else [0.0, 0.5, 1.0] for k in arcs]
    arc = np.repeat(np.arange(len(arcs)), [len(kn) for kn in knots])
    f = np.concatenate(knots)
    at = points(arc, f)
    # leaves (arc, f0, start point), with every arc's end point as the leaf at f0 = 1
    leaves = [(arc[f == 1.0], f[f == 1.0], at[f == 1.0])]
    # open spans of the current depth, between consecutive knots of one arc
    inner = np.flatnonzero(arc[1:] == arc[:-1])
    arc, f0, f1, p0, p1 = arc[inner], f[inner], f[inner + 1], at[inner], at[inner + 1]
    for _ in range(_FLATTEN_DEPTH):
        if not arc.size:
            break
        fm = 0.5 * (f0 + f1)
        pm = points(arc, fm)
        chord = p1 - p0
        n = np.array([math.hypot(cx, cy) for cx, cy in chord.tolist()])
        near = np.array([math.hypot(dx, dy) for dx, dy in (pm - p0).tolist()])
        cross = chord[:, 0] * (pm[:, 1] - p0[:, 1]) - chord[:, 1] * (pm[:, 0] - p0[:, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(cross) / n
        flat = np.where(n == 0.0, near, dev) <= ftol
        leaves.append((arc[flat], f0[flat], p0[flat]))
        s = ~flat  # split spans: their first halves, then their second halves
        arc, f0, f1, p0, p1 = (np.concatenate(h) for h in ((arc[s], arc[s]), (f0[s], fm[s]),
                               (fm[s], f1[s]), (p0[s], pm[s]), (pm[s], p1[s])))
    # spans at the depth cap stay as they are
    leaf_arc, leaf_f, leaf_p = (np.concatenate(c) for c in zip(*leaves, (arc, f0, p0)))
    order = np.lexsort((leaf_f, leaf_arc))  # by arc, then f0
    cuts = np.cumsum(np.bincount(leaf_arc, minlength=len(arcs)))[:-1]
    for k, line in zip(arcs, np.split(leaf_p[order], cuts)):
        lines[k] = line
    return lines


def loop_polygons(lines, loops) -> list[np.ndarray]:
    """Closed polygon of each loop of (piece id, forward) pairs, from ``lines``
    (piece id -> polyline): each piece up to, not including, its end."""
    return [
        np.concatenate([lines[pid][:-1] if forward else lines[pid][:0:-1] for pid, forward in lp])
        for lp in loops
    ]


def _piece_rows(graph: DiagramGraph, pieces, param: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y, vx, vy) rows (N, 4) of arc and segment pieces at ``param`` (alpha
    for an arc, t for a segment, whose velocity is its line's direction), and
    the mask of rows at a singular parameter; one ``points_at_alphas`` call
    evaluates the arcs and one ``line_points`` call the segments."""
    out = np.empty((len(pieces), 4))
    singular = np.zeros(len(pieces), dtype=bool)
    arcs = [k for k, p in enumerate(pieces) if p.kind == "arc"]
    segments = [k for k, p in enumerate(pieces) if p.kind != "arc"]
    table = graph.table
    if arcs:
        rows = [pieces[k].edge_id for k in arcs]
        *xyv, singular[arcs] = points_at_alphas(table.chart[rows], table.u_scale[rows],
                                                param[arcs])
        out[arcs] = np.column_stack(xyv)
    if segments:
        rows = table.lines[[pieces[k].edge_id for k in segments],
                           [pieces[k].line_index for k in segments]]
        out[segments, :2] = line_points(rows, param[segments])
        out[segments, 2], out[segments, 3] = -rows[:, 1], rows[:, 0]
    return out, singular


def _regular_rows(graph: DiagramGraph, pieces, param: np.ndarray) -> np.ndarray:
    """``_piece_rows`` of pieces that must not meet a singular parameter; one that does raises."""
    rows, singular = _piece_rows(graph, pieces, param)
    if singular.any():
        raise SingularParameterError(f"alpha={param[singular][0]} lies on the line at infinity")
    return rows


def _boundary_s(window: Window, pos: np.ndarray, side: int) -> float:
    w = window.xmax - window.xmin
    h = window.ymax - window.ymin
    if side == 0:  # bottom, left to right
        return float(pos[0] - window.xmin)
    if side == 1:  # right, bottom to top
        return w + float(pos[1] - window.ymin)
    if side == 2:  # top, right to left
        return w + h + float(window.xmax - pos[0])
    return 2 * w + h + float(window.ymax - pos[1])  # left, top to bottom


def _sides(window: Window):
    # (axis, value, other_lo, other_hi, side_index)
    return (
        (1, window.ymin, window.xmin, window.xmax, 0),
        (0, window.xmax, window.ymin, window.ymax, 1),
        (1, window.ymax, window.xmin, window.xmax, 2),
        (0, window.xmin, window.ymin, window.ymax, 3),
    )


def _curve_crossings(graph: DiagramGraph, edges, window: Window, snap: float):
    """Window crossings of curved edges: per edge, a list of (offset from a0, (pos, side)).

    The four side quadratics x^(t) - X u^(t) (y^ for horizontal sides) of
    every edge are solved in one batch. An edge's crossings come in
    candidate order: sides 0-3, roots ascending, then t = inf.
    """
    if not edges:
        return []
    ids = [e.id for e in edges]
    coef = graph.table.chart[ids]
    axis, value, lo, hi, _ = (np.array(col) for col in zip(*_sides(window)))
    # (edge, side, candidate) arrays; a vertical side (axis 0) meets x^, a horizontal one y^
    q = coef[:, 0][:, axis] - value[:, None] * coef[:, None, 0, 2]
    roots, valid, inf_root, everywhere = real_quadratic_roots_batch(q[..., 0], q[..., 1], q[..., 2])
    # a curve lying on the side's line counts as no crossing
    ok = np.concatenate([valid, inf_root[..., None]], axis=-1) & ~everywhere[..., None]
    far = np.full(roots.shape[:2] + (1,), math.inf)
    t = np.where(ok, np.concatenate([roots, far], axis=-1), 0.0)
    x, y, u = (v.reshape(t.shape) for v in homogeneous_at_params(coef, t.reshape(len(edges), -1)))
    ok &= ~(np.abs(u) <= DEN_REL * graph.table.u_scale[ids][:, None, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        px, py = x / u, y / u
    other = np.where((axis == 0)[:, None], py, px)
    ok &= ((lo - snap)[:, None] <= other) & (other <= (hi + snap)[:, None])

    idx = np.flatnonzero(ok)
    edge, side = np.unravel_index(idx, ok.shape)[:2]
    a0 = np.array([e.a0 for e in edges])[edge]
    span = np.array([e.a1 - e.a0 for e in edges])[edge]
    loop = np.array([e.is_loop() for e in edges])[edge]
    off = np.remainder(alphas_of_params(t.ravel()[idx]) - a0, TWO_PI)
    keep = loop | ((-1e-12 <= off) & (off <= span + 1e-12))
    off = np.where(loop, np.remainder(off, TWO_PI), np.minimum(off, span))
    pos = np.column_stack([px.ravel()[idx], py.ravel()[idx]])
    out: list[list] = [[] for _ in edges]
    for k in np.flatnonzero(keep).tolist():
        out[edge[k]].append((float(off[k]), (pos[k], int(side[k]))))
    return out


def _line_crossings(graph: DiagramGraph, edges, window: Window, snap: float):
    """Window crossings of straight edges: per edge, a list of (t, (pos, side)) in side order."""
    out: list[list] = [[] for _ in edges]
    if not edges:
        return out
    rows = graph.table.lines[[e.id for e in edges], [e.line_index for e in edges]]
    la, lb, lc = rows.T
    q0 = (-lc * la, -lc * lb)
    d = (-lb, la)
    t_lo, t_hi = np.array([(e.a0, e.a1) for e in edges]).T
    for axis, value, lo, hi, side in _sides(window):
        dv = d[axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (value - q0[axis]) / dv
            pos = line_points(rows, t)
        other = pos[:, 1 - axis]
        ok = ~(np.abs(dv) < 1e-15) & (t_lo - 1e-12 <= t) & (t <= t_hi + 1e-12)
        ok &= (lo - snap <= other) & (other <= hi + snap)
        for k in np.flatnonzero(ok).tolist():
            out[k].append((float(t[k]), (pos[k], side)))
    return out


def clip_to_window(graph: DiagramGraph, window: Window) -> ClippedDiagram:
    """Cut the diagram against a window and assemble closed cell loops."""
    snap = DEDUP_REL * window.diagonal
    # pieces must be strictly interior: a bisector running along the border
    # itself separates nothing inside the window (ownership ties on the
    # border resolve to the smaller id, matching the rasterizer)
    strict = 1e-12 * window.diagonal
    arc_gap = 2.0 * PARAM_MERGE
    nodes: list[ClipNode] = []

    for k, (cx, cy) in enumerate(window.corners()):
        pos = np.array([cx, cy])
        nodes.append(ClipNode(k, pos, "corner", _boundary_s(window, pos, k)))
    corners = PointIndex(snap, nodes)
    vertex_node: dict[int, int] = {}
    for v in graph.vertices:
        if window.contains(v.pos):
            # a vertex within snap of a corner is that corner, as are the crossings beside it
            nd = corners.near(np.array(v.pos))
            if nd is None:
                nd = ClipNode(len(nodes), np.array(v.pos), "vertex")
                nodes.append(nd)
            vertex_node[v.id] = nd.id
    index = PointIndex(snap, nodes)

    def crossing_node(pos: np.ndarray, side: int) -> int:
        nd = index.near(pos)
        if nd is None:
            nd = ClipNode(len(nodes), pos, "crossing", _boundary_s(window, pos, side))
            nodes.append(nd)
            index.add(nd)
        elif nd.boundary_s is None:
            # a vertex sitting on the border is reused as a boundary node
            nd.boundary_s = _boundary_s(window, nd.pos, side)
        return nd.id

    curved = [e for e in graph.edges if e.is_curve()]
    straight = [e for e in graph.edges if not e.is_curve()]
    crossings = dict(zip((e.id for e in curved), _curve_crossings(graph, curved, window, snap)))
    crossings.update(zip((e.id for e in straight), _line_crossings(graph, straight, window, snap)))

    # candidate pieces in edge order, as (piece, parameter of its
    # containment test, margin of that test)
    candidates: list[tuple[ClipPiece, float, float]] = []

    def candidate(kind, e, a0, a1, na, nb, closed, test, margin=strict):
        piece = ClipPiece(-1, kind, e.pair, e.id, e.line_index, a0, a1, na, nb, closed,
                          None, None, None, None)
        candidates.append((piece, test, margin))

    for e in graph.edges:
        found = crossings[e.id]
        ends = tuple(vertex_node.get(v) if v is not None else None for v in e.endpoints)
        if e.is_curve():
            span = e.a1 - e.a0
            marks = [(off, crossing_node(*at)) for off, at in merge_marks(found, arc_gap)]
            if e.is_loop() and not marks:
                candidate("arc", e, e.a0, e.a1, None, None, True,
                          test=e.a0 + 0.5 * span, margin=0.0)
                continue
            cuts = split_at_marks(marks, 0.0, span, arc_gap, e.is_loop(), ends)
            for off0, off1, n0, n1 in cuts:
                a0 = e.a0 + off0
                a1 = e.a0 + off1
                candidate("arc", e, a0, a1, n0, n1, False, test=0.5 * (a0 + a1))
            continue
        # line parameters are lengths: crossings merge within the snap radius
        marks = [(t, crossing_node(*at)) for t, at in merge_marks(found, snap)]
        for t0, t1, n0, n1 in split_at_marks(marks, e.a0, e.a1, snap, False, ends):
            # a kept piece must be finite; infinite tails are outside any
            # bounded window except for pathological tangencies
            if not (math.isinf(t0) or math.isinf(t1)):
                candidate("segment", e, t0, t1, n0, n1, False, 0.5 * (t0 + t1))

    pieces = _kept_pieces(graph, candidates, window)
    # window border pieces between consecutive boundary nodes
    boundary_nodes = [nd for nd in nodes if nd.boundary_s is not None]
    boundary_nodes.sort(key=lambda nd: nd.boundary_s)
    perimeter = 2.0 * (window.width + window.height)
    m = len(boundary_nodes)
    border: list[ClipPiece] = []
    for k in range(m):
        nd0 = boundary_nodes[k]
        nd1 = boundary_nodes[(k + 1) % m]
        s0 = nd0.boundary_s
        s1 = nd1.boundary_s if k + 1 < m else nd1.boundary_s + perimeter
        if s1 - s0 <= 1e-12 * perimeter:
            continue
        border.append(ClipPiece(len(pieces) + len(border), "boundary", None, None, None, None, None,
                                nd0.id, nd1.id, False, None, None, nd0.pos, nd1.pos))
    if border:
        # each border piece keeps the generator nearest its midpoint on the
        # left; a tie (a bisector along the side) goes to the one whose distance
        # falls fastest along the inward normal (left of p0 -> p1), then by id
        arr = SceneArrays(graph.generators)
        d = arr.dist(np.array([0.5 * (p.p0 + p.p1) for p in border]))
        best = d == d.min(axis=1, keepdims=True)
        for k in np.flatnonzero(best.sum(axis=1) > 1):
            (x0, y0), (x1, y1) = border[k].p0, border[k].p1
            px, py, m11, m12, m22, _ = arr.coef[:, best[k]]
            dx, dy = 0.5 * (x0 + x1) - px, 0.5 * (y0 + y1) - py
            slope = (m11 * dx + m12 * dy) * (y0 - y1) + (m12 * dx + m22 * dy) * (x1 - x0)
            best[k, best[k]] = ~(slope > slope.min())
        owner = np.where(best, arr.ids, arr.ids.max() + 1).min(axis=1)
        for piece, gid in zip(border, owner.tolist()):
            piece.left = gid
    _assign_sides(graph, pieces)
    pieces += border
    cells = _assemble_cells(graph, pieces)
    return ClippedDiagram(window, graph, nodes, pieces, cells)


def _kept_pieces(graph: DiagramGraph, candidates, window: Window) -> list[ClipPiece]:
    """The candidate pieces that lie inside the window, numbered in order.

    A piece is kept when the point at its test parameter is regular and
    inside the window by its margin; a kept piece then gets its end points
    (``_set_ends``). All test points come from one ``_piece_rows`` call.
    """
    rows, singular = _piece_rows(graph, [piece for piece, _, _ in candidates],
                                 np.array([t for _, t, _ in candidates]))
    x, y = rows[:, 0], rows[:, 1]
    m = np.array([margin for _, _, margin in candidates])
    inside = (~singular & (window.xmin + m <= x) & (x <= window.xmax - m)
              & (window.ymin + m <= y) & (y <= window.ymax - m)).tolist()
    pieces = [piece for (piece, _, _), keep in zip(candidates, inside) if keep]
    _set_ends(graph, pieces)
    for k, piece in enumerate(pieces):
        piece.id = k
    return pieces


def _set_ends(graph: DiagramGraph, pieces) -> None:
    """Set p0 and p1 of the segment pieces, and p0 (p1) of the arc pieces with
    a start (end) node; all the points come from one ``_piece_rows`` call."""
    ends = [(p, "p0", p.a0) for p in pieces if p.kind == "segment" or p.node_a is not None]
    ends += [(p, "p1", p.a1) for p in pieces if p.kind == "segment" or p.node_b is not None]
    rows = _regular_rows(graph, [p for p, _, _ in ends], np.array([a for _, _, a in ends]))
    for (piece, field, _), q in zip(ends, rows):
        setattr(piece, field, q[:2])


def _assign_sides(graph: DiagramGraph, pieces) -> None:
    """Fill the (left, right) cell ids of bisector pieces in their stored direction.

    The tangent at a piece's mid-parameter is crossed with the gradient of
    the pair's distance difference, which points into the second cell. All
    points and tangents come from one ``_piece_rows`` call.
    """
    if not pieces:
        return
    x, y, vx, vy = _regular_rows(graph, pieces, np.array([0.5 * (p.a0 + p.a1) for p in pieces])).T
    # ConicImplicit with array fields evaluates one conic per entry
    coeffs = graph.table.implicit[[p.edge_id for p in pieces]]
    gx, gy = ConicImplicit(*coeffs.T).gradient(x, y)
    ahead = (vx * gy - vy * gx < 0.0).tolist()
    for piece, keep_order in zip(pieces, ahead):
        i, j = piece.pair
        piece.left, piece.right = (i, j) if keep_order else (j, i)


def _assemble_cells(
    graph: DiagramGraph, pieces: list[ClipPiece]
) -> dict[int, list[list[tuple[int, bool]]]]:
    """Chain directed pieces into closed loops per cell (interior on left)."""
    by_cell: dict[int, list[tuple[int, bool]]] = {g.id: [] for g in graph.generators}
    for piece in pieces:
        if piece.left is not None:
            by_cell[piece.left].append((piece.id, True))
        if piece.right is not None:
            by_cell[piece.right].append((piece.id, False))
    return {gid: _chain_cell(gid, pieces, directed) for gid, directed in by_cell.items()}


def _chain_cell(gid: int, pieces, directed: list[tuple[int, bool]]) -> list[list[tuple[int, bool]]]:
    """Chain one cell's directed pieces (piece id, forward) into closed loops.

    ``pieces`` maps piece id to piece. A loop follows the pieces end node to
    start node; closed pieces are loops on their own.
    """
    directed = sorted(directed)
    start_map: dict[int, list[tuple[int, bool]]] = {}
    loops: list[list[tuple[int, bool]]] = []
    used: set[tuple[int, bool]] = set()
    for pid, fwd in directed:
        piece = pieces[pid]
        if piece.closed:
            loops.append([(pid, fwd)])
            used.add((pid, fwd))
            continue
        start = piece.node_a if fwd else piece.node_b
        start_map.setdefault(start, []).append((pid, fwd))
    for entry in directed:
        if entry in used or pieces[entry[0]].closed:
            continue
        loop = []
        cur = entry
        while cur not in used:
            used.add(cur)
            loop.append(cur)
            piece = pieces[cur[0]]
            end = piece.node_b if cur[1] else piece.node_a
            nxt = None
            for cand in start_map.get(end, ()):
                if cand not in used:
                    nxt = cand
                    break
            if nxt is None:
                break
            cur = nxt
        # a loop must close back on its starting node
        first = pieces[loop[0][0]]
        start_node = first.node_a if loop[0][1] else first.node_b
        last = pieces[loop[-1][0]]
        end_node = last.node_b if loop[-1][1] else last.node_a
        if start_node != end_node:
            raise NoSolutionError(
                f"cell {gid}: boundary chain does not close (node {end_node} "
                f"has no continuation toward node {start_node})"
            )
        loops.append(loop)
    loops.sort(key=lambda lp: lp[0])
    return loops


def bounded_cell_pieces(
    graph: DiagramGraph, cell: int
) -> tuple[dict[int, ClipPiece], list[list[tuple[int, bool]]]]:
    """Whole-edge pieces and closed loops of one graph cell with finite edges.

    Each edge of the cell becomes one piece whose id is the edge id and
    whose nodes are the edge's vertex ids; a loop edge becomes a closed
    piece. Sides and chaining are those of ``clip_to_window``, so the loops
    hold (piece id, forward) pairs with the cell interior on the left.
    Returns the pieces keyed by id, and the loops.
    """
    pieces: dict[int, ClipPiece] = {}
    for eid in sorted(graph.cell_edges.get(cell, [])):
        e = graph.edges[eid]
        pieces[eid] = ClipPiece(eid, "arc" if e.is_curve() else "segment", e.pair, eid,
                                e.line_index, e.a0, e.a1, *e.endpoints, e.is_loop(),
                                None, None, None, None)
    _set_ends(graph, list(pieces.values()))
    _assign_sides(graph, list(pieces.values()))
    directed = [(eid, piece.left == cell) for eid, piece in pieces.items()]
    return pieces, _chain_cell(cell, pieces, directed)
