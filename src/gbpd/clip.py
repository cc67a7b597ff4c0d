"""Clip a diagram to a rectangular window.

Every visible edge segment is cut at its window-boundary crossings and only
the sub-pieces whose interior lies inside the window are kept. The window
boundary itself is chopped at the crossing points and the four corners, and
each boundary arc is assigned to the generator owning its midpoint. The
pieces are then chained into closed per-cell loops (cell interior on the
left), which is exactly the form the area and perimeter integrators need:
outer loops come out counterclockwise, holes clockwise.

The same pieces carry a bounded cell of the bare graph: `bounded_cell_pieces`
turns each of its edges into one whole-edge piece, with the side test and
the chaining that clipping uses, so measurement has one loop representation.

Crossing parameters come from the quadratic x(t) - X u(t) = 0 per window
side (linear for straight edges), so no marching or sampling is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import alpha_of_param, real_quadratic_roots
from .diagram import DiagramGraph, EdgeSegment
from .errors import NoSolutionError, SingularParameterError
from .geometry import SceneArrays, Window
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

TWO_PI = 2.0 * math.pi


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


def piece_point(graph: DiagramGraph, piece: ClipPiece, f: float) -> np.ndarray:
    """Point at fraction f in [0, 1] along a piece's stored direction."""
    if piece.kind == "boundary":
        return piece.p0 + f * (piece.p1 - piece.p0)
    a = piece.a0 + f * (piece.a1 - piece.a0)
    b = graph.bisectors[piece.pair]
    if piece.kind == "arc":
        return b.param.point_at_alpha(a)
    return b.lines[piece.line_index].point_at(a)


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


def _curve_crossings(b, e: EdgeSegment, window: Window, snap: float, tol: ToleranceSet):
    """Boundary crossings of a curved edge as (offset from alpha_a, pos, side)."""
    p = b.param
    span = e.alpha_b - e.alpha_a
    out = []
    for axis, value, lo, hi, side in _sides(window):
        # axis == 0: vertical side x = value; axis == 1: horizontal y = value
        main = p.xq if axis == 0 else p.yq
        q = tuple(main[k] - value * p.uq[k] for k in range(3))
        roots, inf_root, everywhere = real_quadratic_roots(*q)
        if everywhere:
            continue  # the curve lies on the boundary line; treat as no crossing
        cand = list(roots) + ([math.inf] if inf_root else [])
        for t in cand:
            x, y, u = p.homogeneous_at(t)
            if abs(u) <= tol.den_rel * p.u_scale:
                continue
            pos = np.array([x / u, y / u])
            other = pos[1] if axis == 0 else pos[0]
            if not (lo - snap <= other <= hi + snap):
                continue
            a = alpha_of_param(t)
            off = (a - e.alpha_a) % TWO_PI
            if e.kind == "loop":
                out.append((off % TWO_PI, pos, side))
            elif -1e-12 <= off <= span + 1e-12:
                out.append((min(max(off, 0.0), span), pos, side))
    return out


def _line_crossings(line, t_lo: float, t_hi: float, window: Window, snap: float):
    """Boundary crossings of a straight edge as (t, pos, side)."""
    out = []
    d = line.direction
    q0 = line.anchor
    for axis, value, lo, hi, side in _sides(window):
        dv = d[axis]
        if abs(dv) < 1e-15:
            continue
        t = (value - q0[axis]) / dv
        if not (t_lo - 1e-12 <= t <= t_hi + 1e-12):
            continue
        pos = q0 + t * d
        other = pos[1] if axis == 0 else pos[0]
        if not (lo - snap <= other <= hi + snap):
            continue
        out.append((float(t), pos, side))
    return out


def clip_to_window(
    graph: DiagramGraph, window: Window, tol: ToleranceSet = DEFAULT_TOLERANCES
) -> ClippedDiagram:
    """Cut the diagram against a window and assemble closed cell loops."""
    snap = tol.dedup_rel * window.diagonal
    # pieces must be strictly interior: a bisector running along the border
    # itself separates nothing inside the window (ownership ties on the
    # border resolve to the smaller id, matching the rasterizer)
    strict = 1e-12 * window.diagonal
    arr = SceneArrays(graph.generators)
    nodes: list[ClipNode] = []

    for k, (cx, cy) in enumerate(window.corners()):
        pos = np.array([cx, cy])
        nodes.append(ClipNode(k, pos, "corner", _boundary_s(window, pos, k)))
    vertex_node: dict[int, int] = {}
    for v in graph.vertices:
        if window.contains(v.pos):
            nid = len(nodes)
            nodes.append(ClipNode(nid, np.array(v.pos), "vertex"))
            vertex_node[v.id] = nid

    def crossing_node(pos: np.ndarray, side: int) -> int:
        for nd in nodes:
            if nd.kind != "vertex" and math.hypot(*(nd.pos - pos)) <= snap:
                return nd.id
            if nd.kind == "vertex" and math.hypot(*(nd.pos - pos)) <= snap:
                # vertex sitting on the border: reuse it as a boundary node
                if nd.boundary_s is None:
                    nd.boundary_s = _boundary_s(window, nd.pos, side)
                return nd.id
        nid = len(nodes)
        nodes.append(ClipNode(nid, pos, "crossing", _boundary_s(window, pos, side)))
        return nid

    pieces: list[ClipPiece] = []

    def add_piece(kind, pair, edge_id, line_index, a0, a1, na, nb, closed, p0, p1):
        pieces.append(
            ClipPiece(
                len(pieces), kind, pair, edge_id, line_index, a0, a1, na, nb,
                closed, None, None, p0, p1,
            )
        )

    for e in graph.edges:
        b = graph.bisectors[e.pair]
        if e.is_curve():
            span = e.alpha_b - e.alpha_a
            raw = _curve_crossings(b, e, window, snap, tol)
            raw.sort(key=lambda r: r[0])
            marks: list[tuple[float, int]] = []
            for off, pos, side in raw:
                if marks and off - marks[-1][0] <= 2.0 * tol.param_merge:
                    continue
                marks.append((off, crossing_node(pos, side)))
            if e.kind == "loop":
                if not marks:
                    q = b.param.point_at_alpha(e.alpha_a + 0.5 * span)
                    if window.contains(q):
                        add_piece("arc", e.pair, e.id, None, e.alpha_a, e.alpha_b,
                                  None, None, True, None, None)
                    continue
                if len(marks) > 1 and (marks[0][0] + TWO_PI) - marks[-1][0] <= 2.0 * tol.param_merge:
                    marks.pop()
                cuts = []
                for k in range(len(marks)):
                    off0, n0 = marks[k]
                    off1, n1 = marks[(k + 1) % len(marks)]
                    if k + 1 == len(marks):
                        off1 += TWO_PI
                    cuts.append((off0, off1, n0, n1))
            else:
                end_a = vertex_node.get(e.endpoints[0]) if e.endpoints[0] is not None else None
                end_b = vertex_node.get(e.endpoints[1]) if e.endpoints[1] is not None else None
                bounds = [(0.0, end_a)] + marks + [(span, end_b)]
                cuts = [
                    (bounds[k][0], bounds[k + 1][0], bounds[k][1], bounds[k + 1][1])
                    for k in range(len(bounds) - 1)
                    if bounds[k + 1][0] - bounds[k][0] > 2.0 * tol.param_merge
                ]
            for off0, off1, n0, n1 in cuts:
                a0 = e.alpha_a + off0
                a1 = e.alpha_a + off1
                try:
                    mid = b.param.point_at_alpha(0.5 * (a0 + a1), tol)
                except SingularParameterError:
                    continue
                if not np.all(np.isfinite(mid)) or not window.contains(mid, margin=strict):
                    continue
                p0 = b.param.point_at_alpha(a0, tol) if n0 is not None else None
                p1 = b.param.point_at_alpha(a1, tol) if n1 is not None else None
                add_piece("arc", e.pair, e.id, None, a0, a1, n0, n1, False, p0, p1)
        else:
            line = b.lines[e.line_index]
            t_lo = e.t_a if e.t_a is not None else -math.inf
            t_hi = e.t_b if e.t_b is not None else math.inf
            if e.kind == "full_line":
                t_lo, t_hi = -math.inf, math.inf
            raw = _line_crossings(line, t_lo, t_hi, window, snap)
            raw.sort(key=lambda r: r[0])
            marks = []
            merge_t = tol.dedup_rel * window.diagonal
            for t, pos, side in raw:
                if marks and t - marks[-1][0] <= merge_t:
                    continue
                marks.append((t, crossing_node(pos, side)))
            end_a = vertex_node.get(e.endpoints[0]) if e.endpoints[0] is not None else None
            end_b = vertex_node.get(e.endpoints[1]) if e.endpoints[1] is not None else None
            bounds = [(t_lo, end_a)] + marks + [(t_hi, end_b)]
            for k in range(len(bounds) - 1):
                t0, n0 = bounds[k]
                t1, n1 = bounds[k + 1]
                if not t1 - t0 > merge_t:
                    continue
                if math.isinf(t0) and math.isinf(t1):
                    rep_t = 0.0
                elif math.isinf(t0):
                    rep_t = t1 - 1.0
                elif math.isinf(t1):
                    rep_t = t0 + 1.0
                else:
                    rep_t = 0.5 * (t0 + t1)
                if not window.contains(line.point_at(rep_t), margin=strict):
                    continue
                if math.isinf(t0) or math.isinf(t1):
                    # a kept piece must be finite; infinite tails are outside
                    # any bounded window except for pathological tangencies
                    continue
                add_piece(
                    "segment", e.pair, e.id, e.line_index, t0, t1, n0, n1, False,
                    line.point_at(t0), line.point_at(t1),
                )

    # window border arcs between consecutive boundary nodes
    boundary_nodes = [nd for nd in nodes if nd.boundary_s is not None]
    boundary_nodes.sort(key=lambda nd: nd.boundary_s)
    perimeter = 2.0 * (window.width + window.height)
    m = len(boundary_nodes)
    for k in range(m):
        nd0 = boundary_nodes[k]
        nd1 = boundary_nodes[(k + 1) % m]
        s0 = nd0.boundary_s
        s1 = nd1.boundary_s if k + 1 < m else nd1.boundary_s + perimeter
        if s1 - s0 <= 1e-12 * perimeter:
            continue
        add_piece("boundary", None, None, None, None, None, nd0.id, nd1.id, False,
                  nd0.pos, nd1.pos)

    _assign_sides(pieces, graph, arr, tol)
    cells = _assemble_cells(graph, pieces)
    return ClippedDiagram(window, graph, nodes, pieces, cells)


def _assign_sides(pieces, graph: DiagramGraph, arr: SceneArrays, tol: ToleranceSet) -> None:
    """Fill left/right cell ids for every piece."""
    for piece in pieces:
        if piece.kind == "boundary":
            mid = 0.5 * (piece.p0 + piece.p1)
            d = arr.dist(mid[None])[0]
            dmin = d.min()
            owner = min(int(arr.ids[k]) for k in range(arr.n) if d[k] == dmin)
            piece.left = owner
            piece.right = None
        else:
            piece.left, piece.right = piece_sides(graph, piece, tol)


def piece_sides(graph: DiagramGraph, piece: ClipPiece, tol: ToleranceSet) -> tuple[int, int]:
    """(left, right) cell ids of a bisector piece in its stored direction.

    The tangent at the piece's mid-parameter is crossed with the gradient
    of the pair's distance difference, which points into the second cell.
    """
    b = graph.bisectors[piece.pair]
    a_mid = 0.5 * (piece.a0 + piece.a1)
    if piece.kind == "arc":
        q = b.param.point_at_alpha(a_mid, tol)
        tangent = b.param.velocity_at_alpha(a_mid, tol)
    else:
        line = b.lines[piece.line_index]
        q = line.point_at(a_mid)
        tangent = line.direction
    g = b.implicit.gradient(q[0], q[1])
    cross = tangent[0] * g[1] - tangent[1] * g[0]
    i, j = piece.pair
    return (i, j) if cross < 0.0 else (j, i)


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
    graph: DiagramGraph, cell: int, tol: ToleranceSet = DEFAULT_TOLERANCES
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
        b = graph.bisectors[e.pair]
        if e.is_curve():
            closed = e.kind == "loop"
            p0 = None if closed else b.param.point_at_alpha(e.alpha_a, tol)
            p1 = None if closed else b.param.point_at_alpha(e.alpha_b, tol)
            piece = ClipPiece(eid, "arc", e.pair, eid, None, e.alpha_a, e.alpha_b,
                              *e.endpoints, closed, None, None, p0, p1)
        else:
            line = b.lines[e.line_index]
            piece = ClipPiece(eid, "segment", e.pair, eid, e.line_index, e.t_a, e.t_b,
                              *e.endpoints, False, None, None,
                              line.point_at(e.t_a), line.point_at(e.t_b))
        piece.left, piece.right = piece_sides(graph, piece, tol)
        pieces[eid] = piece
    directed = [(eid, piece.left == cell) for eid, piece in pieces.items()]
    return pieces, _chain_cell(cell, pieces, directed)
