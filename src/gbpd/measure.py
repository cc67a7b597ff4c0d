"""Cell perimeters and areas from the analytic boundary description.

Areas are the contour integral (1/2) oint (x dy - y dx) taken loop by loop:
each boundary loop is traversed with the cell interior on its left, so
outer loops contribute positive area and holes negative, and the per-piece
terms reduce to the familiar vertex shoelace plus curved-bulge corrections.
Lengths are the integral of the parametric speed.

Every curved piece is integrated once per call, in one batched kernel
(`arc_measures`): all arcs are cut at the chart breaks, and each round
evaluates the area and speed integrands of every open piece at the 15
Gauss-Kronrod nodes in one array pass. The error of a piece is QUADPACK's
embedded Kronrod-minus-Gauss estimate, floored at 50 eps times the
integral of |f| for rounding. An arc is done when the summed estimates of
its pieces meet max(quad_abs, 1e-12 |I|) for both integrals; until then
its pieces with the largest estimates are halved. An arc that misses the
target after 30 halvings of a piece, or past 200 pieces, raises
QuadratureError instead of returning an unconverged value.

Clipped diagrams already carry oriented loops. For a bare diagram graph the
edges of each boundary component are chained by shared vertices here, and
orientation is fixed by the side test against the pair's distance gradient;
cells that reach infinity raise UnboundedCellError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Not called here: the traced benchmark run (perfbench/spans.py) wraps the
# name `quad` in this module and fails if it is missing.
from scipy.integrate import quad  # noqa: F401

from .clip import ClippedDiagram
from .conic import chart_coefficients, eval_alpha_batch
from .diagram import DiagramGraph, EdgeSegment
from .errors import (NoSolutionError, NonFiniteSegmentError, QuadratureError,
                     UnboundedCellError)
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class ComponentMeasure:
    """Area and boundary length of one connected piece of a cell."""

    area: float
    perimeter: float


@dataclass(frozen=True)
class CellMeasure:
    cell: int
    area: float
    perimeter: float
    components: tuple[ComponentMeasure, ...]


# ------------------------------------------------------------- quadrature

# Gauss-Kronrod 7-15 pair of QUADPACK's qk15 on [-1, 1]: 15 Kronrod nodes
# and weights, and the Gauss weights of the 7 nodes the two rules share
# (zero at the other 8).
_GK_XP = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245)
_GK_WKP = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
           0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
           0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
           0.204432940075298892414161999234649)
_GK_WK0 = 0.209482141084727828012999174891714
_GK_WGP = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
           0.0, 0.381830050505118944950369775488975, 0.0)
_GK_WG0 = 0.417959183673469387755102040816327
_GK_X = np.array([-x for x in _GK_XP] + [0.0] + list(reversed(_GK_XP)))
_GK_WK = (*_GK_WKP, _GK_WK0, *reversed(_GK_WKP))
_GK_WG = (*_GK_WGP, _GK_WG0, *reversed(_GK_WGP))
_EPS = np.finfo(float).eps

# an arc that still misses its error target when one of its pieces has been
# halved _MAX_DEPTH times, or when it has _MAX_PIECES pieces, raises
# QuadratureError (200 is the subinterval limit the scalar quad calls had)
_MAX_DEPTH = 30
_MAX_PIECES = 200


def _chart_breaks(a0: float, a1: float) -> list[float]:
    """Chart-switch angles (alpha = pi/2 mod pi) strictly inside (a0, a1)."""
    out = []
    k = math.ceil((a0 - _HALF_PI) / math.pi)
    c = _HALF_PI + k * math.pi
    while c < a1:
        if c > a0:
            out.append(c)
        k += 1
        c = _HALF_PI + k * math.pi
    return out


def _node_sum(f: np.ndarray, w) -> np.ndarray:
    # column by column, so each row's sum is the same whatever the batch
    acc = w[0] * f[:, 0]
    for k in range(1, 15):
        acc = acc + w[k] * f[:, k]
    return acc


def _gk15(coef, u_scale, origin, lo, hi, tol: ToleranceSet) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values (M, 2) and QUADPACK error estimates (M, 2) of the
    area integrand about ``origin`` (M, 2) and of the speed, over the
    intervals [lo, hi] of the M rows."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    scale = np.abs(half)
    x, y, vx, vy = eval_alpha_batch(coef, u_scale, center[:, None] + half[:, None] * _GK_X, tol)
    x = x - origin[:, 0:1]
    y = y - origin[:, 1:2]
    res = np.empty((lo.size, 2))
    err = np.empty((lo.size, 2))
    for j, f in enumerate((0.5 * (x * vy - y * vx), np.hypot(vx, vy))):
        resk = _node_sum(f, _GK_WK)
        resabs = _node_sum(np.abs(f), _GK_WK) * scale
        resasc = _node_sum(np.abs(f - 0.5 * resk[:, None]), _GK_WK) * scale
        e = np.abs(resk - _node_sum(f, _GK_WG)) * scale
        nz = (resasc != 0.0) & (e != 0.0)
        e[nz] = resasc[nz] * np.minimum(1.0, (200.0 * e[nz] / resasc[nz]) ** 1.5)
        res[:, j] = resk * half
        err[:, j] = np.maximum(e, 50.0 * _EPS * resabs)
    return res, err


def arc_measures(params, a0, a1, tol: ToleranceSet) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas and lengths of many conic arcs, integrated together.

    Arc k runs along ``params[k]`` from alpha ``a0[k]`` to ``a1[k]``. Its
    area term is the integral of (x y' - y x')/2. It is integrated about
    the arc's mid-alpha point m, which keeps the integrand small where the
    arc is far from the origin, and shifted back by m x (end - start) / 2.
    Its length is the integral of the speed. Each arc is cut at the chart
    breaks, and every round evaluates all new pieces in one array pass of
    the Gauss-Kronrod 7-15 rule. An arc is done once the summed error
    estimates of its pieces meet max(quad_abs, 1e-12 |I|) for both
    integrals; until then its pieces whose estimate exceeds an equal share
    of that target (and always its worst piece) are halved. Decisions and
    sums are per arc, so an arc's result does not depend on the rest of
    the batch. An arc that would need a piece halved more than _MAX_DEPTH
    times, or more than _MAX_PIECES pieces, raises QuadratureError.
    """
    n = len(params)
    out = np.zeros((n, 2))
    if n == 0:
        return out[:, 0], out[:, 1]
    coef = chart_coefficients(params)
    u_scale = np.array([p.u_scale for p in params])
    ends = np.stack([np.asarray(a0, dtype=float), np.asarray(a1, dtype=float)], axis=1)
    # the area is integrated about the arc's mid-alpha point m; the shift
    # back to the coordinate origin is m x (end - start) / 2
    px, py, _, _ = eval_alpha_batch(coef, u_scale, np.column_stack([ends, ends.mean(axis=1)]), tol)
    origin = np.stack([px[:, 2], py[:, 2]], axis=1)
    shift = 0.5 * (px[:, 2] * (py[:, 1] - py[:, 0]) - py[:, 2] * (px[:, 1] - px[:, 0]))
    arc, lo, hi = [], [], []
    for k in range(n):
        cuts = [ends[k, 0], *_chart_breaks(ends[k, 0], ends[k, 1]), ends[k, 1]]
        arc += [k] * (len(cuts) - 1)
        lo += cuts[:-1]
        hi += cuts[1:]
    arc, lo, hi = np.array(arc), np.array(lo), np.array(hi)
    depth = np.zeros(arc.size, dtype=int)
    res, err = _gk15(coef[arc], u_scale[arc], origin[arc], lo, hi, tol)
    while True:
        # bincount adds each arc's pieces in array order, which is alpha order
        tot = np.stack([np.bincount(arc, res[:, j], n) for j in (0, 1)], axis=1)
        tot[:, 0] += shift
        est = np.stack([np.bincount(arc, err[:, j], n) for j in (0, 1)], axis=1)
        target = np.maximum(tol.quad_abs, 1e-12 * np.abs(tot))
        short = est > target
        live = np.unique(arc)
        fin = live[~short[live].any(axis=1)]
        out[fin] = tot[fin]
        if fin.size == live.size:
            return out[:, 0], out[:, 1]
        keep = short[arc].any(axis=1)
        arc, lo, hi, depth, res, err = (v[keep] for v in (arc, lo, hi, depth, res, err))
        count = np.bincount(arc, None, n)
        worst = np.zeros((n, 2))
        np.maximum.at(worst, arc, err)
        share = (target / np.maximum(count, 1)[:, None])[arc]
        split = (short[arc] & ((err > share) | (err == worst[arc]))).any(axis=1)
        pieces = count + np.bincount(arc, split, n)
        over = split & ((depth >= _MAX_DEPTH) | (pieces[arc] > _MAX_PIECES))
        if over.any():
            k = int(arc[over][0])
            raise QuadratureError(
                f"arc {k} (alpha {float(ends[k, 0])!r} to {float(ends[k, 1])!r}) misses its error "
                f"target: estimates {est[k].tolist()}, targets {target[k].tolist()}, "
                f"depth {int(depth[arc == k].max())}, {int(pieces[k])} pieces"
            )
        # each split piece becomes its two halves, in place
        rep = np.where(split, 2, 1)
        arc, lo, hi, depth, res, err = (np.repeat(v, rep, axis=0)
                                        for v in (arc, lo, hi, depth, res, err))
        first = np.repeat(split, rep)
        first[first] = np.tile([True, False], int(split.sum()))
        second = np.roll(first, 1)
        mid = 0.5 * (lo[first] + hi[first])
        hi[first] = mid
        lo[second] = mid
        fresh = first | second
        depth[fresh] += 1
        res[fresh], err[fresh] = _gk15(coef[arc[fresh]], u_scale[arc[fresh]], origin[arc[fresh]],
                                       lo[fresh], hi[fresh], tol)


# -------------------------------------------------------------- edge length


def edge_arc_length(graph: DiagramGraph, e: EdgeSegment,
                    tol: ToleranceSet | None = None) -> float:
    """Length of one edge segment; finite intervals and closed loops only."""
    tol = tol if tol is not None else graph.tol
    b = graph.bisectors[e.pair]
    if e.is_curve():
        if e.kind != "loop" and (e.endpoints[0] is None or e.endpoints[1] is None):
            raise NonFiniteSegmentError(
                f"edge {e.id} runs into a singular parameter; clip it first"
            )
        return float(arc_measures([b.param], [e.alpha_a], [e.alpha_b], tol)[1][0])
    if (
        e.kind == "full_line"
        or e.t_a is None
        or e.t_b is None
        or math.isinf(e.t_a)
        or math.isinf(e.t_b)
    ):
        raise NonFiniteSegmentError(f"edge {e.id} is an unbounded line piece")
    # line parameters are arc length already
    return e.t_b - e.t_a


# ---------------------------------------------------------- loop traversal
#
# Both cell representations reduce to loops of directed primitives. Each
# primitive reports its signed area term (the contour integral along it,
# in traversal direction) and its length; a straight run from q0 to q1
# contributes the shoelace term (x0 y1 - y0 x1) / 2. Endpoints of adjacent
# primitives agree only to vertex-recovery precision, so tiny connector
# chords are inserted between them: an exactly closed contour keeps the
# signed total independent of the coordinate origin.


class _LoopAccum:
    def __init__(self):
        self.area = 0.0
        self.length = 0.0
        self._first = None
        self._prev = None

    def add(self, q0, q1, area_term: float, length_term: float) -> None:
        if self._prev is not None:
            self.area += 0.5 * (self._prev[0] * q0[1] - self._prev[1] * q0[0])
        else:
            self._first = q0
        self.area += area_term
        self.length += length_term
        self._prev = q1

    def close(self) -> tuple[float, float]:
        if self._prev is not None and self._first is not None:
            self.area += 0.5 * (
                self._prev[0] * self._first[1] - self._prev[1] * self._first[0]
            )
        return self.area, self.length


def _chord_term(q0, q1) -> float:
    return 0.5 * (q0[0] * q1[1] - q0[1] * q1[0])


def _clipped_loop_terms(cd: ClippedDiagram, loop, table, tol) -> tuple[float, float]:
    acc = _LoopAccum()
    for pid, forward in loop:
        piece = cd.pieces[pid]
        if piece.kind == "arc":
            param = cd.graph.bisectors[piece.pair].param
            a, s = table[pid]
            if piece.closed:
                acc.area += a if forward else -a
                acc.length += s
                continue
            q0 = piece.p0 if piece.p0 is not None else param.point_at_alpha(piece.a0, tol)
            q1 = piece.p1 if piece.p1 is not None else param.point_at_alpha(piece.a1, tol)
            if not forward:
                q0, q1 = q1, q0
            acc.add(q0, q1, a if forward else -a, s)
        else:
            q0, q1 = (piece.p0, piece.p1) if forward else (piece.p1, piece.p0)
            acc.add(q0, q1, _chord_term(q0, q1),
                    math.hypot(q1[0] - q0[0], q1[1] - q0[1]))
    return acc.close()


def _graph_loop_terms(graph: DiagramGraph, loop, table, tol) -> tuple[float, float]:
    acc = _LoopAccum()
    for e, forward in loop:
        b = graph.bisectors[e.pair]
        if e.is_curve():
            a, s = table[e.id]
            if e.kind == "loop":
                acc.area += a if forward else -a
                acc.length += s
                continue
            q0 = b.param.point_at_alpha(e.alpha_a, tol)
            q1 = b.param.point_at_alpha(e.alpha_b, tol)
            if not forward:
                q0, q1 = q1, q0
            acc.add(q0, q1, a if forward else -a, s)
        else:
            line = b.lines[e.line_index]
            q0, q1 = line.point_at(e.t_a), line.point_at(e.t_b)
            if not forward:
                q0, q1 = q1, q0
            acc.add(q0, q1, _chord_term(q0, q1), e.t_b - e.t_a)
    return acc.close()


def _flatten_clipped_loop(cd: ClippedDiagram, loop, samples: int) -> np.ndarray:
    pts = []
    for pid, forward in loop:
        piece = cd.pieces[pid]
        for k in range(samples):
            f = k / samples
            pts.append(cd.piece_point(piece, f if forward else 1.0 - f))
    return np.array(pts)


def _flatten_graph_loop(graph: DiagramGraph, loop, samples: int) -> np.ndarray:
    pts = []
    for e, forward in loop:
        b = graph.bisectors[e.pair]
        for k in range(samples):
            f = k / samples
            if not forward:
                f = 1.0 - f
            if e.is_curve():
                a = e.alpha_a + f * (e.alpha_b - e.alpha_a)
                pts.append(b.param.point_at_alpha(a, graph.tol))
            else:
                line = b.lines[e.line_index]
                pts.append(line.point_at(e.t_a + f * (e.t_b - e.t_a)))
    return np.array(pts)


def _point_in_polygon(poly: np.ndarray, q) -> bool:
    x, y = float(q[0]), float(q[1])
    inside = False
    n = len(poly)
    for k in range(n):
        x0, y0 = poly[k]
        x1, y1 = poly[(k + 1) % n]
        if (y0 > y) != (y1 > y):
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xc > x:
                inside = not inside
    return inside


def _group_loops(vals, polygons, *, strict: bool, cell: int) -> list[list[int]]:
    """Group loop indices into connected components (outer loop + holes).

    vals[k] = (signed area, length) of loop k; polygons() returns a
    flattened polygon per loop and is called only when there are both outer
    and hole loops. Holes (negative loops) attach to the positive loop
    containing them. With strict=True a hole without an enclosing positive
    loop means the region extends to infinity.
    """
    outers = [k for k in range(len(vals)) if vals[k][0] >= 0.0]
    holes = [k for k in range(len(vals)) if vals[k][0] < 0.0]
    if not outers:
        if strict and holes:
            raise UnboundedCellError(
                f"cell {cell} has only hole loops; it is unbounded"
            )
        return [[k] for k in holes]
    groups = {k: [k] for k in outers}
    polys = polygons() if holes else None
    for k in holes:
        probe = polys[k][0]
        host = None
        for o in outers:
            if _point_in_polygon(polys[o], probe):
                host = o
                break
        if host is None:
            host = max(outers, key=lambda o: vals[o][0])
        groups[host].append(k)
    return [groups[o] for o in outers]


def _assemble_measure(cell: int, vals, groups) -> CellMeasure:
    comps = []
    for grp in groups:
        a = float(sum(vals[k][0] for k in grp))
        ln = float(sum(vals[k][1] for k in grp))
        comps.append(ComponentMeasure(a, ln))
    comps.sort(key=lambda c: (-c.area, c.perimeter))
    return CellMeasure(
        cell,
        float(sum(c.area for c in comps)),
        float(sum(c.perimeter for c in comps)),
        tuple(comps),
    )


# -------------------------------------------------------------- graph cells


def _directed_edge_side(graph: DiagramGraph, e: EdgeSegment, forward: bool,
                        tol: ToleranceSet) -> int:
    """Generator id on the left of edge e traversed in the given direction."""
    b = graph.bisectors[e.pair]
    if e.is_curve():
        a_mid = 0.5 * (e.alpha_a + e.alpha_b)
        point = b.param.point_at_alpha(a_mid, tol)
        tangent = b.param.velocity_at_alpha(a_mid, tol)
    else:
        line = b.lines[e.line_index]
        point = line.point_at(0.5 * (e.t_a + e.t_b))
        tangent = line.direction
    if not forward:
        tangent = -tangent
    g = b.implicit.gradient(point[0], point[1])
    cross = tangent[0] * g[1] - tangent[1] * g[0]
    return e.pair[0] if cross < 0.0 else e.pair[1]


def _chain_component(graph: DiagramGraph, cell: int, edge_ids: list[int],
                     tol: ToleranceSet) -> list[tuple[EdgeSegment, bool]]:
    """Close one boundary component of a graph cell into a directed loop."""
    edges = [graph.edges[eid] for eid in sorted(edge_ids)]
    for e in edges:
        if e.is_curve():
            if e.kind != "loop" and (e.endpoints[0] is None or e.endpoints[1] is None):
                raise UnboundedCellError(
                    f"cell {cell} reaches a singular parameter on edge {e.id}"
                )
        elif (
            e.kind == "full_line"
            or e.t_a is None
            or e.t_b is None
            or math.isinf(e.t_a)
            or math.isinf(e.t_b)
        ):
            raise UnboundedCellError(f"cell {cell} is open along edge {e.id}")

    if len(edges) == 1 and edges[0].kind == "loop":
        e = edges[0]
        return [(e, _directed_edge_side(graph, e, True, tol) == cell)]

    at_vertex: dict[int, list[int]] = {}
    for k, e in enumerate(edges):
        for v in e.endpoints:
            at_vertex.setdefault(v, []).append(k)

    used = [False] * len(edges)
    loop: list[tuple[EdgeSegment, bool]] = []
    k = 0
    forward = True
    while True:
        e = edges[k]
        used[k] = True
        loop.append((e, forward))
        end_v = e.endpoints[1] if forward else e.endpoints[0]
        nxt = [m for m in at_vertex.get(end_v, []) if not used[m]]
        if not nxt:
            break
        k = min(nxt)
        forward = edges[k].endpoints[0] == end_v
    if not all(used):
        raise NoSolutionError(
            f"boundary component of cell {cell} does not chain into one loop"
        )
    start_v = loop[0][0].endpoints[0] if loop[0][1] else loop[0][0].endpoints[1]
    last_e, last_f = loop[-1]
    end_v = last_e.endpoints[1] if last_f else last_e.endpoints[0]
    if start_v != end_v:
        raise NoSolutionError(f"boundary component of cell {cell} does not close")
    if _directed_edge_side(graph, loop[0][0], loop[0][1], tol) != cell:
        loop = [(e, not f) for e, f in reversed(loop)]
    return loop


# ---------------------------------------------------------------- front end


def _cell_loops(g: DiagramGraph | ClippedDiagram, cell: int, tol: ToleranceSet) -> list:
    """Directed boundary loops of one cell, interior on the left.

    Clipped loops hold (piece id, forward) pairs, graph loops (EdgeSegment,
    forward) pairs. An empty list means the cell has no area.
    """
    if isinstance(g, ClippedDiagram):
        return g.cells.get(cell, [])
    if cell in g.empty_cells or cell in g.aliases:
        return []
    comps_edges = g.cell_components.get(cell, [])
    if not comps_edges:
        raise UnboundedCellError(
            f"cell {cell} has no boundary at all; clip to a window first"
        )
    return [_chain_component(g, cell, comp, tol) for comp in comps_edges]


def _arc_table(g: DiagramGraph | ClippedDiagram, loops,
               tol: ToleranceSet) -> dict[int, tuple[float, float]]:
    """(signed area, length) of every curved piece (clipped) or curved edge
    (graph) on the given loops, keyed by piece or edge id; each is
    integrated once, in one call of the batched kernel."""
    arcs = {}
    for loop in loops:
        if isinstance(g, ClippedDiagram):
            for pid, _ in loop:
                piece = g.pieces[pid]
                if piece.kind == "arc":
                    arcs[pid] = (g.graph.bisectors[piece.pair].param, piece.a0, piece.a1)
        else:
            for e, _ in loop:
                if e.is_curve():
                    arcs[e.id] = (g.bisectors[e.pair].param, e.alpha_a, e.alpha_b)
    if not arcs:
        return {}
    params, a0, a1 = zip(*arcs.values())
    areas, lengths = arc_measures(params, a0, a1, tol)
    return {k: (float(a), float(s)) for k, a, s in zip(arcs, areas, lengths)}


def _measure_loops(g: DiagramGraph | ClippedDiagram, cell: int, loops, table,
                   tol: ToleranceSet) -> CellMeasure:
    if not loops:
        return CellMeasure(cell, 0.0, 0.0, ())
    if isinstance(g, ClippedDiagram):
        vals = [_clipped_loop_terms(g, lp, table, tol) for lp in loops]
        groups = _group_loops(vals, lambda: [_flatten_clipped_loop(g, lp, 8) for lp in loops],
                              strict=False, cell=cell)
    else:
        vals = [_graph_loop_terms(g, lp, table, tol) for lp in loops]
        groups = _group_loops(vals, lambda: [_flatten_graph_loop(g, lp, 8) for lp in loops],
                              strict=True, cell=cell)
    return _assemble_measure(cell, vals, groups)


def cell_area(cell: int, g: DiagramGraph | ClippedDiagram,
              tol: ToleranceSet | None = None) -> CellMeasure:
    """Full measure (area, perimeter, per-component breakdown) of one cell.

    Accepts a clipped diagram, or a bare graph when the cell happens to be
    bounded; unbounded graph cells raise UnboundedCellError.
    """
    graph = g.graph if isinstance(g, ClippedDiagram) else g
    tol = tol if tol is not None else graph.tol
    loops = _cell_loops(g, cell, tol)
    return _measure_loops(g, cell, loops, _arc_table(g, loops, tol), tol)


def cell_perimeter(cell: int, g: DiagramGraph | ClippedDiagram,
                   tol: ToleranceSet | None = None) -> float:
    return cell_area(cell, g, tol).perimeter


def measure_cells(g: DiagramGraph | ClippedDiagram,
                  tol: ToleranceSet | None = None) -> dict[int, CellMeasure]:
    """CellMeasure for every generator id, keyed by id.

    Every arc is integrated once for the whole diagram, although it borders
    two cells.
    """
    graph = g.graph if isinstance(g, ClippedDiagram) else g
    tol = tol if tol is not None else graph.tol
    loops = {gen.id: _cell_loops(g, gen.id, tol) for gen in graph.generators}
    table = _arc_table(g, [lp for cell_loops in loops.values() for lp in cell_loops], tol)
    return {gid: _measure_loops(g, gid, lps, table, tol) for gid, lps in loops.items()}
