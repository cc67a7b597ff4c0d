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

The clip is one array record, in the manner of a doubly-connected edge
list, which this module alone lays out: NODE rows (position, kind,
``boundary_s``, the place along the window border), PIECE rows (edge row,
line, a0 < a1, start and end node, closed, left and right cell in the
stored direction, end points; -1 or NaN where a column says none: the edge
of a border piece, the line of an arc) and the cells' loops as runs of
directed half-pieces (CellLoops). A border piece keeps the window interior,
hence its owner, on the left. The same record carries bounded cells of the
bare graph (`bounded_cell_pieces`: one whole-edge piece per edge, vertex
ids as nodes, the clip's side test and chaining), so measurement has one
loop representation. `flatten_pieces` is the one flattening of pieces into
polylines, for the analytic raster, the SVG and the hole test of measure.

Crossing parameters come from the quadratic x(t) - X u(t) = 0 per window
side (linear for straight edges), so no marching or sampling is involved.
The side quadratics of all curved edges are solved in one batch and the
straight edges' crossings in one array pass. The crossings of all edges
are columns (edge, position, point, side), merged and paired into pieces
in array passes shared with the build's vertex marks (``diagram.merge_runs``
and ``diagram.split_runs``; an edge without crossings is its whole
interval); only the node lookup of the kept crossings goes one by one, as
the near-point index numbers nodes in call order. Each candidate piece is
made once and evaluated once: its point and tangent at its mid-parameter
serve the inside test and the side test. Piece points and tangents come
from one evaluator (``_piece_rows``), which flattening calls on its span
arrays; all read an edge's bisector as its table row, by edge id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import (
    TWO_PI,
    ConicImplicit,
    alphas_of_params,
    homogeneous_at_params,
    line_points,
    points_at_alphas,
    real_quadratic_roots_batch,
)
from .diagram import LOOP, DiagramGraph, merge_runs, split_runs
from .errors import NoSolutionError, SingularParameterError
from .geometry import PointIndex, SceneArrays, Window
from .tolerances import DEDUP_REL, DEN_REL, PARAM_MERGE

_FLATTEN_DEPTH = 14

NODE_KINDS = ("corner", "vertex", "crossing")
NODE = np.dtype([("pos", float, 2), ("kind", np.int8), ("boundary_s", float)])
PIECE = np.dtype([("edge", np.intp), ("line", np.intp), ("a0", float), ("a1", float),
                  ("node_a", np.intp), ("node_b", np.intp), ("closed", bool),
                  ("left", np.intp), ("right", np.intp), ("p0", float, 2), ("p1", float, 2)])
HALF = np.dtype([("piece", np.intp), ("forward", bool)])


def _offsets(counts) -> np.ndarray:
    """Run offsets (K + 1,) of K runs of the given lengths."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.intp)])


@dataclass
class CellLoops:
    """Closed boundary loops of cells, interior on the left, as runs of
    directed half-pieces (HALF rows): loop k is
    ``half[loop_start[k]:loop_start[k + 1]]``, and cell ``cells[c]`` owns the
    loops ``cell_start[c]`` to ``cell_start[c + 1]``, in the order of their
    first half-pieces."""

    cells: np.ndarray
    half: np.ndarray
    loop_start: np.ndarray
    cell_start: np.ndarray

    def runs(self, c: int) -> list[np.ndarray]:
        """The loops of the cell at position c, each a HALF array."""
        ls = self.loop_start
        return [self.half[ls[k]:ls[k + 1]] for k in range(self.cell_start[c], self.cell_start[c + 1])]

    def subset(self, cells) -> CellLoops:
        """The loops of the cell ids ``cells``, the cells in this record's order."""
        want = set(cells)
        keep = np.array([gid in want for gid in self.cells.tolist()], dtype=bool)
        per_cell, per_loop = np.diff(self.cell_start), np.diff(self.loop_start)
        loops = np.repeat(keep, per_cell)
        return CellLoops(self.cells[keep], self.half[np.repeat(loops, per_loop)],
                         _offsets(per_loop[loops]), _offsets(per_cell[keep]))


@dataclass
class ClippedDiagram:
    window: Window
    graph: DiagramGraph
    nodes: np.ndarray  # NODE rows
    pieces: np.ndarray  # PIECE rows
    loops: CellLoops  # of every generator, in graph order


def piece_points(graph: DiagramGraph, pieces: np.ndarray, f) -> np.ndarray:
    """Points (N, 2) at fraction f[k] in [0, 1] along pieces[k] (PIECE rows), in its stored direction.

    ``f`` is one fraction per piece, or one for all. The arc and segment
    points come from one ``_piece_rows`` call; an arc point at a singular
    parameter raises SingularParameterError.
    """
    f = np.broadcast_to(np.asarray(f, dtype=float), (len(pieces),))
    out = np.empty((len(pieces), 2))
    border = pieces["edge"] < 0
    p0, p1 = pieces["p0"][border], pieces["p1"][border]
    out[border] = p0 + f[border, None] * (p1 - p0)
    rows = pieces[~border]
    a = rows["a0"] + f[~border] * (rows["a1"] - rows["a0"])
    out[~border] = _regular_rows(graph, rows["edge"], rows["line"], a)[:, :2]
    return out


def flatten_pieces(graph: DiagramGraph, pieces: np.ndarray, ftol: float) -> list[np.ndarray]:
    """Polylines (M, 2) along pieces (PIECE rows) in their stored direction, end points included.

    A border or straight piece is its chord. An arc starts from its knots
    (fractions 0, 1/2 and 1; quarters for a closed arc), and each span is
    split at its midpoint until the midpoint lies within ftol of the chord,
    to depth 14. The open spans of all arcs are arrays (arc, f0, f1, end
    points), and each level evaluates their midpoints in one call. A span's
    fate depends only on its own points, so a piece gets the same polyline
    whatever it is flattened with.
    """
    lines = list(np.stack([pieces["p0"], pieces["p1"]], axis=1))
    arcs = np.flatnonzero((pieces["edge"] >= 0) & (pieces["line"] < 0))
    if not arcs.size:
        return lines
    sel = pieces[arcs]
    rows, row_lines, a0 = sel["edge"], sel["line"], sel["a0"]
    span = sel["a1"] - a0
    knots = np.where(sel["closed"], 5, 3)
    arc = np.repeat(np.arange(arcs.size), knots)
    f = (np.arange(arc.size) - np.repeat(_offsets(knots)[:-1], knots)) / (knots - 1)[arc]
    at = _regular_rows(graph, rows[arc], row_lines[arc], a0[arc] + f * span[arc])[:, :2]
    # leaves (arc, f0, start point), with every arc's end point as the leaf at f0 = 1
    leaves = [(arc[f == 1.0], f[f == 1.0], at[f == 1.0])]
    # open spans of the current depth, between consecutive knots of one arc
    inner = np.flatnonzero(arc[1:] == arc[:-1])
    arc, f0, f1, p0, p1 = arc[inner], f[inner], f[inner + 1], at[inner], at[inner + 1]
    for _ in range(_FLATTEN_DEPTH):
        if not arc.size:
            break
        fm = 0.5 * (f0 + f1)
        pm = _regular_rows(graph, rows[arc], row_lines[arc], a0[arc] + fm * span[arc])[:, :2]
        chord = p1 - p0
        n = np.hypot(chord[:, 0], chord[:, 1])
        near = np.hypot(pm[:, 0] - p0[:, 0], pm[:, 1] - p0[:, 1])
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
    cuts = np.cumsum(np.bincount(leaf_arc, minlength=arcs.size))[:-1]
    for k, line in zip(arcs.tolist(), np.split(leaf_p[order], cuts)):
        lines[k] = line
    return lines


def loop_polygons(lines, loops) -> list[np.ndarray]:
    """Closed polygon of each loop (a HALF array), from ``lines`` (piece ->
    polyline): each piece up to, not including, its end."""
    return [np.concatenate([lines[p][:-1] if forward else lines[p][:0:-1]
                            for p, forward in lp.tolist()]) for lp in loops]


def _piece_rows(graph: DiagramGraph, rows: np.ndarray, lines: np.ndarray,
                param: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y, vx, vy) rows (N, 4) at ``param`` of pieces on the bisector table
    rows ``rows`` (edge ids), and the mask of rows at a singular parameter.
    Piece k is an arc where ``lines[k]`` is -1 (``param`` an alpha), else a
    segment on line ``lines[k]`` of its row (``param`` a line parameter, the
    velocity the line's direction). One ``points_at_alphas`` call evaluates
    the arcs and one ``line_points`` call the segments."""
    out = np.empty((len(rows), 4))
    singular = np.zeros(len(rows), dtype=bool)
    arcs, segments = np.flatnonzero(lines < 0), np.flatnonzero(lines >= 0)
    table = graph.table
    if arcs.size:
        at = rows[arcs]
        *xyv, singular[arcs] = points_at_alphas(table.chart[at], table.u_scale[at], param[arcs])
        out[arcs] = np.column_stack(xyv)
    if segments.size:
        coef = table.lines[rows[segments], lines[segments]]
        out[segments, :2] = line_points(coef, param[segments])
        out[segments, 2], out[segments, 3] = -coef[:, 1], coef[:, 0]
    return out, singular


def _regular_rows(graph: DiagramGraph, rows: np.ndarray, lines: np.ndarray,
                  param: np.ndarray) -> np.ndarray:
    """``_piece_rows`` (x, y, vx, vy) of pieces, as that takes them, that must
    not meet a singular parameter; one that does raises SingularParameterError.
    Callers holding pieces pass their edge and line columns."""
    out, singular = _piece_rows(graph, rows, lines, param)
    if singular.any():
        raise SingularParameterError(f"alpha={param[singular][0]} lies on the line at infinity")
    return out


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


def _curve_crossings(graph: DiagramGraph, ids: np.ndarray, window: Window, snap: float):
    """Window crossings of the curved edges ``ids``, as columns (edge id,
    offset from a0, point, side).

    The four side quadratics x^(t) - X u^(t) (y^ for horizontal sides) of
    every edge are solved in one batch. The crossings come by edge, each
    edge's in candidate order: sides 0-3, roots ascending, then t = inf.
    """
    coef = graph.table.chart[ids]
    axis, value, lo, hi, _ = (np.array(col) for col in zip(*_sides(window)))
    # (edge, side, candidate) arrays; a vertical side (axis 0) meets x^, a horizontal one y^
    q = coef[:, 0][:, axis] - value[:, None] * coef[:, None, 0, 2]
    roots, valid, inf_root, everywhere = real_quadratic_roots_batch(q[..., 0], q[..., 1], q[..., 2])
    # a curve lying on the side's line counts as no crossing
    ok = np.concatenate([valid, inf_root[..., None]], axis=-1) & ~everywhere[..., None]
    far = np.full(roots.shape[:2] + (1,), math.inf)
    t = np.where(ok, np.concatenate([roots, far], axis=-1), 0.0)
    flat = t.reshape(ids.size, t.shape[1] * t.shape[2])
    x, y, u = (v.reshape(t.shape) for v in homogeneous_at_params(coef, flat))
    ok &= ~(np.abs(u) <= DEN_REL * graph.table.u_scale[ids][:, None, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        px, py = x / u, y / u
    other = np.where((axis == 0)[:, None], py, px)
    ok &= ((lo - snap)[:, None] <= other) & (other <= (hi + snap)[:, None])

    idx = np.flatnonzero(ok)
    edge, side = np.unravel_index(idx, ok.shape)[:2]
    rows = graph.edges[ids[edge]]
    a0, span, loop = rows["a0"], rows["a1"] - rows["a0"], rows["kind"] == LOOP
    off = np.remainder(alphas_of_params(t.ravel()[idx]) - a0, TWO_PI)
    keep = loop | ((-1e-12 <= off) & (off <= span + 1e-12))
    off = np.where(loop, np.remainder(off, TWO_PI), np.minimum(off, span))
    pos = np.column_stack([px.ravel()[idx], py.ravel()[idx]])
    return ids[edge[keep]], off[keep], pos[keep], side[keep]


def _line_crossings(graph: DiagramGraph, ids: np.ndarray, window: Window, snap: float):
    """Window crossings of the straight edges ``ids``, as columns (edge id,
    line parameter, point, side), by edge and each edge's in side order."""
    edges = graph.edges[ids]
    rows = graph.table.lines[ids, edges["line"]]
    la, lb, lc = rows.T
    axis, value, lo, hi, side = (np.array(col) for col in zip(*_sides(window)))
    # (edge, side) arrays: the start -c (a, b) and direction (-b, a) along the side's axis
    q0, dv = np.stack([-lc * la, -lc * lb])[axis].T, np.stack([-lb, la])[axis].T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (value - q0) / dv
        pos = line_points(np.repeat(rows, side.size, axis=0), t.ravel()).reshape(t.shape + (2,))
    other = pos[:, side, 1 - axis]
    ok = ~(np.abs(dv) < 1e-15)
    ok &= (edges["a0"][:, None] - 1e-12 <= t) & (t <= edges["a1"][:, None] + 1e-12)
    ok &= (lo - snap <= other) & (other <= hi + snap)
    edge, at = np.nonzero(ok)
    return ids[edge], t[edge, at], pos[edge, at], side[at]


def clip_to_window(graph: DiagramGraph, window: Window) -> ClippedDiagram:
    """Cut the diagram against a window and assemble closed cell loops.

    The vertices inside the window are found in one ``Window.contains``
    test. The crossings of all edges are columns sorted by (edge,
    position): ``merge_runs`` merges them, each kept one gets its node, and
    ``split_runs`` cuts every edge at its crossings at once, an edge without
    any into its whole interval. The candidate pieces come out in edge
    order, as columns, and are tested in one batch (``_kept_pieces``).
    """
    snap = DEDUP_REL * window.diagonal
    # pieces must be strictly interior: a bisector running along the border
    # itself separates nothing inside the window (ownership ties on the
    # border resolve to the smaller id, matching the rasterizer)
    strict = 1e-12 * window.diagonal
    arc_gap = 2.0 * PARAM_MERGE
    # NODE rows (position, kind, boundary_s), kinds indexing NODE_KINDS
    nodes = [(pos, 0, _boundary_s(window, pos, k)) for k, pos in enumerate(window.corners())]
    corners = PointIndex(snap, ((k, nd[0]) for k, nd in enumerate(nodes)))
    # the node of each vertex id, -1 outside the window and at index -1 (no vertex)
    vertex_node = np.full(len(graph.vertices) + 1, -1, dtype=np.intp)
    inside = window.contains(np.reshape([v.pos for v in graph.vertices], (-1, 2)))
    for k in np.flatnonzero(inside).tolist():
        v = graph.vertices[k]
        # a vertex within snap of a corner is that corner, as are the crossings beside it
        nd = corners.near(np.array(v.pos))
        if nd is None:
            nd = len(nodes)
            nodes.append((np.array(v.pos), 1, math.nan))
        vertex_node[v.id] = nd
    index = PointIndex(snap, ((k, nd[0]) for k, nd in enumerate(nodes)))

    def crossing_node(pos: np.ndarray, side: int) -> int:
        nd = index.near(pos)
        if nd is None:
            nd = len(nodes)
            nodes.append((pos, 2, _boundary_s(window, pos, side)))
            index.add(nd, pos)
        elif math.isnan(nodes[nd][2]):
            # a vertex sitting on the border is reused as a boundary node
            nodes[nd] = (*nodes[nd][:2], _boundary_s(window, nodes[nd][0], side))
        return nd

    edges = graph.edges
    a0, a1, curve, loop = edges["a0"], edges["a1"], edges["line"] < 0, edges["kind"] == LOOP
    edge, pos, point, side = (np.concatenate(c) for c in zip(
        _curve_crossings(graph, np.flatnonzero(curve), window, snap),
        _line_crossings(graph, np.flatnonzero(~curve), window, snap)))
    order = np.lexsort((pos, edge))
    edge, pos, point, side = edge[order], pos[order], point[order], side[order]
    # arc offsets merge within the merge gap, line parameters (lengths) within snap
    gap = np.where(curve, arc_gap, snap)
    kept = merge_runs(edge, pos, gap[edge])
    node = np.array([crossing_node(q, s) for q, s in zip(point[kept], side[kept].tolist())],
                    dtype=np.intp)
    with np.errstate(invalid="ignore"):
        cut, x0, x1, n0, n1 = split_runs(
            edge[kept], pos[kept], node, np.where(curve, 0.0, a0), np.where(curve, a1 - a0, a1),
            gap, curve & loop, vertex_node[edges["node_a"]], vertex_node[edges["node_b"]])
        arc = curve[cut]
        x0, x1 = np.where(arc, a0[cut] + x0, x0), np.where(arc, a0[cut] + x1, x1)
    # a kept piece must be finite (infinite tails are outside any bounded
    # window except for pathological tangencies); a loop without crossings
    # is one closed piece, tested at its mid-parameter 0 with margin 0
    fin = np.flatnonzero(arc | ~(np.isinf(x0) | np.isinf(x1)))
    cut, x0, x1, n0, n1 = cut[fin], x0[fin], x1[fin], n0[fin], n1[fin]
    closed = (loop & (np.bincount(edge[kept], minlength=len(edges)) == 0))[cut]

    nodes = np.array(nodes, dtype=NODE)
    # window border pieces between consecutive boundary nodes
    s = nodes["boundary_s"]
    on = np.flatnonzero(~np.isnan(s))
    on = on[np.argsort(s[on], kind="stable")]
    perimeter = 2.0 * (window.width + window.height)
    s0 = s[on]
    s1 = np.append(s0[1:], s0[0] + perimeter)
    keep = ~(s1 - s0 <= 1e-12 * perimeter)
    # the bisector pieces, then the border's rows
    pieces, mid = _kept_pieces(graph, (cut, edges["line"][cut], x0, x1, n0, n1, closed),
                               0.5 * (x0 + x1), np.where(closed, 0.0, strict), window,
                               int(keep.sum()))
    _assign_sides(graph, pieces[:len(mid)], mid)
    border = pieces[len(mid):]
    border["edge"] = border["line"] = border["right"] = -1
    border["a0"] = border["a1"] = np.nan
    border["node_a"], border["node_b"] = on[keep], np.concatenate([on[1:], on[:1]])[keep]
    p0 = border["p0"] = nodes["pos"][border["node_a"]]
    p1 = border["p1"] = nodes["pos"][border["node_b"]]
    # each border piece keeps the generator nearest its midpoint on the
    # left; a tie (a bisector along the side) goes to the one whose distance
    # falls fastest along the inward normal (left of p0 -> p1), then by id
    arr = SceneArrays(graph.generators)
    d = arr.dist(0.5 * (p0 + p1))
    best = d == d.min(axis=1, keepdims=True)
    for k in np.flatnonzero(best.sum(axis=1) > 1):
        (x0, y0), (x1, y1) = p0[k], p1[k]
        px, py, m11, m12, m22, _ = arr.coef[:, best[k]]
        dx, dy = 0.5 * (x0 + x1) - px, 0.5 * (y0 + y1) - py
        slope = (m11 * dx + m12 * dy) * (y0 - y1) + (m12 * dx + m22 * dy) * (x1 - x0)
        best[k, best[k]] = ~(slope > slope.min())
    border["left"] = np.where(best, arr.ids, arr.ids.max() + 1).min(axis=1)
    return ClippedDiagram(window, graph, nodes, pieces, _chain([g.id for g in graph.generators], pieces))


def _kept_pieces(graph: DiagramGraph, columns: tuple, test: np.ndarray, margin: np.ndarray,
                 window: Window, extra: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidate pieces (``columns``: the PIECE columns up to closed)
    inside the window, as PIECE rows in order with their end points
    (``_end_points``) and no sides yet, then ``extra`` zeroed rows; and the
    kept pieces' (x, y, vx, vy) at ``test``, their mid-parameters. A piece
    is kept when that point is regular and inside the window by its
    ``margin``: one ``_piece_rows`` and one ``Window.contains`` call for all."""
    at, singular = _piece_rows(graph, columns[0], columns[1], test)
    keep = np.flatnonzero(~singular & window.contains(at[:, :2], margin))
    pieces = np.zeros(keep.size + extra, PIECE)
    for name, column in zip(PIECE.names, columns):
        pieces[name][:keep.size] = column[keep]
    _end_points(graph, pieces[:keep.size])
    return pieces, at[keep]


def _end_points(graph: DiagramGraph, pieces: np.ndarray) -> None:
    """Fill p0 and p1 of the segment pieces, and p0 (p1) of the arc pieces
    with a start (end) node, from one ``_piece_rows`` call; the others stay
    NaN."""
    segment = pieces["line"] >= 0
    start = np.flatnonzero(segment | (pieces["node_a"] >= 0))
    end = np.flatnonzero(segment | (pieces["node_b"] >= 0))
    ends = np.concatenate([start, end])
    at = _regular_rows(graph, pieces["edge"][ends], pieces["line"][ends],
                       np.concatenate([pieces["a0"][start], pieces["a1"][end]]))[:, :2]
    pieces["p0"] = pieces["p1"] = np.nan
    pieces["p0"][start], pieces["p1"][end] = at[:start.size], at[start.size:]


def _assign_sides(graph: DiagramGraph, pieces: np.ndarray, mid: np.ndarray) -> None:
    """Fill the left and right cells of bisector pieces in their stored direction.

    ``mid`` holds each piece's (x, y, vx, vy) at its mid-parameter, as
    ``_piece_rows`` gives them: the tangent there is crossed with the
    gradient of the pair's distance difference, which points into the
    second cell of the pair (the table's ``first`` and ``second``).
    """
    x, y, vx, vy = mid.T
    rows, table = pieces["edge"], graph.table
    # ConicImplicit with array fields evaluates one conic per entry
    gx, gy = ConicImplicit(*table.implicit[rows].T).gradient(x, y)
    ahead = vx * gy - vy * gx < 0.0
    ids = np.array([g.id for g in table.generators], dtype=np.intp)
    i, j = ids[table.first[rows]], ids[table.second[rows]]
    pieces["left"], pieces["right"] = np.where(ahead, i, j), np.where(ahead, j, i)


def _chain(cells, pieces: np.ndarray) -> CellLoops:
    """Chain the directed half-pieces of the cell ids ``cells`` into closed
    loops, interior on the left.

    A piece runs forward in its left cell and backward in its right one.
    One sort puts the half-pieces in (cell, piece, forward) order, and a
    second groups the open ones by (cell, start node). A closed piece is a
    loop on its own. Any other loop starts at the first half-piece not yet
    used, and each half-piece's end node leads to the first unused one of its
    cell that leaves that node, in sorted order, until none is left. A loop
    that does not end on its start node raises NoSolutionError.
    """
    cells = np.asarray(cells, dtype=np.intp)
    n = len(pieces)
    side = np.concatenate([pieces["left"], pieces["right"]])
    sorter = np.argsort(cells, kind="stable")
    at = sorter[np.minimum(np.searchsorted(cells, side, sorter=sorter), cells.size - 1)]
    h = np.flatnonzero(cells[at] == side)
    piece, forward, cell = np.tile(np.arange(n), 2)[h], h < n, at[h]
    order = np.lexsort((forward, piece, cell))
    piece, forward, cell = piece[order], forward[order], cell[order]
    a, b = pieces["node_a"][piece], pieces["node_b"][piece]
    start, end = np.where(forward, a, b), np.where(forward, b, a)
    closed = pieces["closed"][piece]
    # open half-pieces keyed by (cell, start node): cell * width + node is one
    # key per pair for the nodes -1 (none) to width - 2
    width = int(max(a.max(initial=-1), b.max(initial=-1))) + 2
    key = cell * width + start
    cand = np.flatnonzero(~closed)
    cand = cand[np.argsort(key[cand], kind="stable")]
    # the group of each half-piece's end node: candidates lo to hi - 1
    lo, hi = (np.searchsorted(key[cand], cell * width + end, side).tolist()
              for side in ("left", "right"))
    cand, closed_l, start_l, end_l = cand.tolist(), closed.tolist(), start.tolist(), end.tolist()
    used = [False] * len(piece)
    # per group of candidates, by its first index: the next one to try
    taken = list(range(len(cand) + 1))
    walk: list[int] = []
    loop_start = [0]
    for first in range(len(piece)):
        if used[first]:
            continue
        cur = first
        while not used[cur]:
            used[cur] = True
            walk.append(cur)
            k, stop = taken[lo[cur]], hi[cur]
            while k < stop and used[cand[k]]:
                k += 1
            taken[lo[cur]] = k
            if k < stop and not closed_l[cur]:
                cur = cand[k]
        if start_l[first] != end_l[cur]:
            node = [None if nd < 0 else nd for nd in (end_l[cur], start_l[first])]
            raise NoSolutionError(
                f"cell {cells[cell[first]]}: boundary chain does not close (node {node[0]} "
                f"has no continuation toward node {node[1]})"
            )
        loop_start.append(len(walk))
    walk = np.array(walk, dtype=np.intp)
    loop_start = np.array(loop_start, dtype=np.intp)
    half = np.zeros(walk.size, HALF)
    half["piece"], half["forward"] = piece[walk], forward[walk]
    per_cell = np.bincount(cell[walk[loop_start[:-1]]], minlength=cells.size)
    return CellLoops(cells, half, loop_start, _offsets(per_cell))


def bounded_cell_pieces(graph: DiagramGraph, cells) -> tuple[np.ndarray, CellLoops]:
    """Whole-edge pieces and closed loops of the graph cells ``cells`` (ids),
    whose edges are finite.

    Each of their edges, in id order, becomes one piece whose nodes are the
    edge's vertex ids; a loop edge becomes a closed piece. Sides and
    chaining are those of ``clip_to_window``, so the loops hold (piece,
    forward) pairs with the cell interior on the left. Returns the PIECE
    rows and the loops.
    """
    ids = sorted({eid for cell in cells for eid in graph.cell_edges.get(cell, [])})
    edges = graph.edges[ids]
    pieces = np.zeros(len(ids), PIECE)
    pieces["edge"], pieces["closed"] = ids, edges["kind"] == LOOP
    for name in ("line", "a0", "a1", "node_a", "node_b"):
        pieces[name] = edges[name]
    _end_points(graph, pieces)
    mid = 0.5 * (pieces["a0"] + pieces["a1"])
    _assign_sides(graph, pieces, _regular_rows(graph, pieces["edge"], pieces["line"], mid))
    return pieces, _chain(cells, pieces)
