"""Cell perimeters and areas from the analytic boundary description.

Areas are the contour integral (1/2) oint (x dy - y dx) taken loop by loop:
each boundary loop is traversed with the cell interior on its left, so
outer loops contribute positive area and holes negative, and the per-piece
terms reduce to the familiar vertex shoelace plus curved-bulge corrections.
Lengths are the integral of the parametric speed.

Every curved piece is integrated once per call, in one batched kernel
(`arc_measures`), on the chart rows of its edge in the graph's bisector
table: all arcs are cut at the chart breaks, and each round evaluates the
area and speed integrands of every open piece at the 15 Gauss-Kronrod nodes
in one array pass. The error of a piece is QUADPACK's embedded
Kronrod-minus-Gauss estimate, floored at 50 eps times the integral of |f|
for rounding. An arc is done when the summed estimates of its pieces meet
max(QUAD_ABS, 1e-12 |I|) for both integrals, or for the area the rounding
floor of its integrand where that is larger (see `_gk15`); until then its
pieces with the largest estimates are halved. An arc that misses the target
after 30 halvings of a piece, or past 200 pieces, raises QuadratureError
instead of returning an unconverged value.

Every cell is measured from one loop representation: directed loops of
clip pieces (`clip.ClipPiece`). A clipped diagram carries them already. A
bounded cell of a bare diagram graph is turned into whole-edge pieces by
`clip.bounded_cell_pieces`; a graph cell with no boundary, with an edge
that runs to infinity, or with hole loops only is unbounded and raises
UnboundedCellError. When the cell has more than one outer loop, a hole
loop joins the outer loop that contains its start point, as tested on
`clip.flatten_pieces` polygons of the outer loops at the build's snap
radius; hole loops are not flattened.

`cell_area` and `measure_cells` are one path (`_measure`): the loops of
the cells asked for, one arc table for all of them, then one function per
cell (`_cell_measure`) that groups its loops into components and sums them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Not called here: the traced benchmark run (perfbench/spans.py) wraps the
# name `quad` in this module and fails if it is missing.
from scipy.integrate import quad  # noqa: F401

from .clip import ClippedDiagram, bounded_cell_pieces, flatten_pieces, loop_polygons, piece_points
from .conic import ELLIPSE_CODE, eval_alpha_batch
from .diagram import DiagramGraph, EdgeSegment
from .errors import InputError, NonFiniteSegmentError, QuadratureError, UnboundedCellError
from .tolerances import DEDUP_REL, QUAD_ABS

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


def _gk15(coef, u_scale, origin, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod values (M, 2) and QUADPACK error estimates (M, 2) of the
    area integrand about ``origin`` (M, 2) and of the speed, over the
    intervals [lo, hi] of the M rows, and the rounding floor (M,) of the
    area integral.

    The chart rows shifted to the origin o are x^ - o_x u^ and y^ - o_y u^,
    whose values near the arc cancel terms of about |o| times those of u^.
    Their rounding, over u^, puts eps |o| cond on x and y (cond from
    ``eval_alpha_batch``), so the area integrand (x y' - y x') / 2 carries
    eps cond (|o_x y'| + |o_y x'|) / 2 of noise that no halving removes.
    The floor is 50 times its integral, as QUADPACK floors an estimate at
    50 eps times the integral of |f|.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    scale = np.abs(half)
    # the chart rows x^ - o_x u^ and y^ - o_y u^ give the point relative to
    # the origin directly; subtracting after the division would leave the
    # velocity (dx u - x du) to cancel where x is far larger than x - o_x
    coef = coef.copy()
    coef[:, :, :2] -= origin[:, None, :, None] * coef[:, :, 2:3]
    x, y, vx, vy, cond = eval_alpha_batch(coef, u_scale, center[:, None] + half[:, None] * _GK_X)
    res = np.empty((lo.size, 2))
    err = np.empty((lo.size, 2))
    shifted = 0.5 * cond * (np.abs(origin[:, 0:1] * vy) + np.abs(origin[:, 1:2] * vx))
    floor = 50.0 * _EPS * _node_sum(shifted, _GK_WK) * scale
    for j, f in enumerate((0.5 * (x * vy - y * vx), np.hypot(vx, vy))):
        resk = _node_sum(f, _GK_WK)
        resabs = _node_sum(np.abs(f), _GK_WK) * scale
        resasc = _node_sum(np.abs(f - 0.5 * resk[:, None]), _GK_WK) * scale
        e = np.abs(resk - _node_sum(f, _GK_WG)) * scale
        nz = (resasc != 0.0) & (e != 0.0)
        e[nz] = resasc[nz] * np.minimum(1.0, (200.0 * e[nz] / resasc[nz]) ** 1.5)
        res[:, j] = resk * half
        err[:, j] = np.maximum(e, 50.0 * _EPS * resabs)
    return res, err, floor


def arc_measures(coef, u_scale, a0, a1) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas and lengths of many conic arcs, integrated together.

    Arc k runs from alpha ``a0[k]`` to ``a1[k]`` along the curve with chart
    triples ``coef[k]`` ((N, 2, 3, 3), as a bisector table's ``chart`` rows)
    and denominator scale ``u_scale[k]``. Its area term is the integral of
    (x y' - y x')/2. It is integrated about the arc's mid-alpha point m, and
    shifted back by m x (end - start) / 2. Its length is the integral of the
    speed. Both integrands are evaluated from chart rows shifted to m, so
    neither loses digits to cancellation where the arc is far from the
    origin. Each arc is cut at the chart breaks, and every round evaluates
    all new pieces in one array pass of the Gauss-Kronrod 7-15 rule. An arc
    is done once the summed error estimates of its pieces meet max(QUAD_ABS,
    1e-12 |I|) for both integrals, the area's target raised to the summed
    rounding floor of its pieces where that is larger (far out, with a chord
    pointing nearly at the origin, the area about m is below the rounding of
    its integrand); until then its pieces whose estimate exceeds an equal
    share of that target (and always its worst piece) are halved. Decisions
    and sums are per arc, so an arc's result does not depend on the rest of
    the batch. An arc that would need a piece halved more than _MAX_DEPTH
    times, or more than _MAX_PIECES pieces, raises QuadratureError.
    """
    coef, u_scale = np.asarray(coef, dtype=float), np.asarray(u_scale, dtype=float)
    n = u_scale.size
    out = np.zeros((n, 2))
    if n == 0:
        return out[:, 0], out[:, 1]
    ends = np.stack([np.asarray(a0, dtype=float), np.asarray(a1, dtype=float)], axis=1)
    # the area is integrated about the arc's mid-alpha point m; the shift
    # back to the coordinate origin is m x (end - start) / 2
    px, py, *_ = eval_alpha_batch(coef, u_scale, np.column_stack([ends, ends.mean(axis=1)]))
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
    res, err, rnd = _gk15(coef[arc], u_scale[arc], origin[arc], lo, hi)
    while True:
        # bincount adds each arc's pieces in array order, which is alpha order
        tot = np.stack([np.bincount(arc, res[:, j], n) for j in (0, 1)], axis=1)
        tot[:, 0] += shift
        est = np.stack([np.bincount(arc, err[:, j], n) for j in (0, 1)], axis=1)
        target = np.maximum(QUAD_ABS, 1e-12 * np.abs(tot))
        # no halving lowers an area estimate below the rounding of its integrand
        target[:, 0] = np.maximum(target[:, 0], np.bincount(arc, rnd, n))
        short = est > target
        live = np.unique(arc)
        fin = live[~short[live].any(axis=1)]
        out[fin] = tot[fin]
        if fin.size == live.size:
            return out[:, 0], out[:, 1]
        keep = short[arc].any(axis=1)
        arc, lo, hi, depth, res, err, rnd = (v[keep] for v in (arc, lo, hi, depth, res, err, rnd))
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
        arc, lo, hi, depth, res, err, rnd = (np.repeat(v, rep, axis=0)
                                             for v in (arc, lo, hi, depth, res, err, rnd))
        first = np.repeat(split, rep)
        first[first] = np.tile([True, False], int(split.sum()))
        second = np.roll(first, 1)
        mid = 0.5 * (lo[first] + hi[first])
        hi[first] = mid
        lo[second] = mid
        fresh = first | second
        depth[fresh] += 1
        res[fresh], err[fresh], rnd[fresh] = _gk15(coef[arc[fresh]], u_scale[arc[fresh]],
                                                   origin[arc[fresh]], lo[fresh], hi[fresh])


# -------------------------------------------------------------- edge length


def _bounded(graph: DiagramGraph, e: EdgeSegment) -> bool:
    """True for an edge of finite length. A parabola component with no
    vertex is labelled a loop, as an ellipse is, but it runs through its
    singular parameter to infinity."""
    return e.is_finite() and not (e.is_loop() and graph.table.code[e.id] != ELLIPSE_CODE)


def edge_arc_length(graph: DiagramGraph, e: EdgeSegment) -> float:
    """Length of one edge segment; finite intervals and closed loops only."""
    if not _bounded(graph, e):
        raise NonFiniteSegmentError(f"edge {e.id} runs to infinity; clip it first")
    if e.is_curve():
        t = graph.table
        return float(arc_measures(t.chart[[e.id]], t.u_scale[[e.id]], [e.a0], [e.a1])[1][0])
    # line parameters are arc length already
    return e.a1 - e.a0


# ---------------------------------------------------------- loop traversal
#
# A cell is a list of loops of directed pieces, (piece id, forward) pairs
# into a piece table: the clipped diagram's pieces, or a bounded graph
# cell's whole-edge pieces. Each piece reports its signed area term (the
# contour integral along it, in traversal direction) and its length; a
# straight run from q0 to q1 contributes the shoelace term
# (x0 y1 - y0 x1) / 2. Endpoints of adjacent pieces agree only to
# vertex-recovery precision, so tiny connector chords are inserted between
# them: an exactly closed contour keeps the signed total independent of
# the coordinate origin.


def _chord_term(q0, q1) -> float:
    return 0.5 * (q0[0] * q1[1] - q0[1] * q1[0])


def _loop_terms(pieces, loop, table) -> tuple[float, float]:
    area = length = 0.0
    first = prev = None
    for pid, forward in loop:
        piece = pieces[pid]
        q0, q1 = (piece.p0, piece.p1) if forward else (piece.p1, piece.p0)
        if piece.kind == "arc":
            a, s = table[pid]
            a = a if forward else -a
            if piece.closed:
                area += a
                length += s
                continue
        else:
            a, s = _chord_term(q0, q1), math.hypot(q1[0] - q0[0], q1[1] - q0[1])
        if prev is not None:
            area += _chord_term(prev, q0)  # connector from the last piece's end
        else:
            first = q0
        area += a
        length += s
        prev = q1
    if prev is not None and first is not None:
        area += _chord_term(prev, first)
    return area, length


def _point_in_polygon(poly: np.ndarray, q) -> bool:
    """Even-odd test of q against the closed polygon (M, 2), all edges in one pass."""
    x, y = float(q[0]), float(q[1])
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(poly, -1, axis=0).T
    hit = (y0 > y) != (y1 > y)
    xc = x0[hit] + (y - y0[hit]) * (x1[hit] - x0[hit]) / (y1[hit] - y0[hit])
    return bool(np.count_nonzero(xc > x) % 2)


# ---------------------------------------------------------------- front end


def _cell_loops(g: DiagramGraph | ClippedDiagram, cell: int) -> tuple:
    """(pieces, loops) of one cell: the piece table, indexed by piece id,
    and the directed boundary loops, interior on the left. No loops means
    the cell has no area.
    """
    if isinstance(g, ClippedDiagram):
        return g.pieces, g.cells.get(cell, [])
    if cell in g.empty_cells or cell in g.aliases:
        return {}, []
    edge_ids = g.cell_edges.get(cell, [])
    if not edge_ids:
        raise UnboundedCellError(
            f"cell {cell} has no boundary at all; clip to a window first"
        )
    for eid in sorted(edge_ids):
        if not _bounded(g, g.edges[eid]):
            raise UnboundedCellError(f"cell {cell} is open along edge {eid}")
    return bounded_cell_pieces(g, cell)


def _arc_table(graph: DiagramGraph, cells) -> dict[int, tuple[float, float]]:
    """(signed area, length) of every curved piece on the loops of the given
    (pieces, loops) cells, keyed by piece id; each is integrated once, in
    one call of the batched kernel."""
    arcs = {}
    for pieces, loops in cells:
        for loop in loops:
            for pid, _ in loop:
                piece = pieces[pid]
                if piece.kind == "arc":
                    arcs[pid] = (piece.edge_id, piece.a0, piece.a1)
    if not arcs:
        return {}
    rows, a0, a1 = (list(col) for col in zip(*arcs.values()))
    areas, lengths = arc_measures(graph.table.chart[rows], graph.table.u_scale[rows], a0, a1)
    return {k: (float(a), float(s)) for k, a, s in zip(arcs, areas, lengths)}


def _hole_test(graph: DiagramGraph, pieces, loops, outers, holes) -> tuple[list, list]:
    """Polygons of the ``outers`` loops, their pieces flattened to the build's
    snap radius, and per ``holes`` loop the point its polygon would start
    with, unflattened: the start of its first piece in traversal direction,
    for an arc ``piece_points`` at fraction 0 (forward) or 1 (backward), as
    ``flatten_pieces`` begins and ends it."""
    ids = sorted({pid for k in outers for pid, _ in loops[k]})
    lines = flatten_pieces(graph, [pieces[k] for k in ids], DEDUP_REL * graph.length_scale)
    heads = [(pieces[loops[k][0][0]], loops[k][0][1]) for k in holes]
    arcs = [(p, fw) for p, fw in heads if p.kind == "arc"]
    at = iter(piece_points(graph, [p for p, _ in arcs], [0.0 if fw else 1.0 for _, fw in arcs]))
    return (loop_polygons(dict(zip(ids, lines)), [loops[k] for k in outers]),
            [next(at) if p.kind == "arc" else p.p0 if fw else p.p1 for p, fw in heads])


def _cell_measure(graph: DiagramGraph, cell: int, pieces, loops, table,
                  *, strict: bool) -> CellMeasure:
    """Measure of one cell from its loops, by component: an outer loop
    (positive signed area) and its holes (negative).

    A hole joins the first outer loop whose ``_hole_test`` polygon contains
    its probe, or the largest one if none does; a single outer loop takes
    every hole, and only more than one outer loop flattens. Without outer
    loops each hole is a component of its own, or, with strict (bare graph
    cells), the cell is unbounded and raises UnboundedCellError. No loops
    means no area.
    """
    vals = [_loop_terms(pieces, lp, table) for lp in loops]
    outers = [k for k in range(len(vals)) if vals[k][0] >= 0.0]
    holes = [k for k in range(len(vals)) if vals[k][0] < 0.0]
    if strict and holes and not outers:
        raise UnboundedCellError(f"cell {cell} has only hole loops; it is unbounded")
    groups = {k: [k] for k in outers or holes}
    if len(outers) == 1:
        groups[outers[0]] += holes
    elif outers and holes:
        polys, probes = _hole_test(graph, pieces, loops, outers, holes)
        largest = max(outers, key=lambda o: vals[o][0])
        for k, probe in zip(holes, probes):
            groups[next((o for o, poly in zip(outers, polys) if _point_in_polygon(poly, probe)),
                        largest)].append(k)
    comps = sorted((ComponentMeasure(float(sum(vals[k][0] for k in grp)),
                                     float(sum(vals[k][1] for k in grp)))
                    for grp in groups.values()), key=lambda c: (-c.area, c.perimeter))
    return CellMeasure(cell, float(sum(c.area for c in comps)),
                       float(sum(c.perimeter for c in comps)), tuple(comps))


def _measure(g: DiagramGraph | ClippedDiagram, cells) -> dict[int, CellMeasure]:
    """CellMeasure of each cell id in ``cells``, keyed by id; every arc on
    their loops is integrated once, although it borders two cells."""
    graph = g.graph if isinstance(g, ClippedDiagram) else g
    stray = [cell for cell in cells if cell not in graph.cell_edges]
    if stray:
        raise InputError(f"cell {stray[0]} names no generator")
    loops = {cell: _cell_loops(g, cell) for cell in cells}
    table = _arc_table(graph, loops.values())
    return {cell: _cell_measure(graph, cell, *loops[cell], table, strict=graph is g)
            for cell in loops}


def cell_area(cell: int, g: DiagramGraph | ClippedDiagram) -> CellMeasure:
    """Full measure (area, perimeter, per-component breakdown) of one cell.

    Accepts a clipped diagram, or a bare graph when the cell is bounded;
    unbounded graph cells raise UnboundedCellError, unknown ids InputError.
    """
    return _measure(g, [cell])[cell]


def cell_perimeter(cell: int, g: DiagramGraph | ClippedDiagram) -> float:
    return cell_area(cell, g).perimeter


def measure_cells(g: DiagramGraph | ClippedDiagram) -> dict[int, CellMeasure]:
    """CellMeasure for every generator id, keyed by id."""
    graph = g.graph if isinstance(g, ClippedDiagram) else g
    return _measure(g, [gen.id for gen in graph.generators])
