"""Cell perimeters and areas from the analytic boundary description.

Areas are the contour integral (1/2) oint (x dy - y dx) taken loop by loop:
each boundary loop is traversed with the cell interior on its left, so
outer loops contribute positive area and holes negative, and the per-piece
terms reduce to the familiar vertex shoelace plus curved-bulge corrections.
Lengths are the integral of the parametric speed.

Every curved piece is measured once per call, in one batched kernel
(`arc_measures`), on the chart rows of its edge in the graph's bisector
table. All arcs are first cut at every multiple of pi/16 strictly inside
them (the chart breaks pi/2 + k pi among them), and the area term of each
cut piece has a closed form (`conic.piece_areas`). The length, an elliptic
integral, is adaptive Gauss-Kronrod quadrature of the speed: each round
evaluates every open piece at the 15 nodes in one array pass, and an arc is
done when the summed QUADPACK estimates of its pieces meet max(QUAD_ABS,
1e-12 |I|); until then its pieces with the largest estimates are halved.
On the benchmark scenes a call takes a median of 2 passes and at most 4. An
arc that misses the target after 30 halvings of a piece, or past 200 pieces
(the cut pieces count), raises QuadratureError instead of returning an
unconverged value.

Every cell is measured from one loop representation, the clip record of
`clip.py`: PIECE rows, and per cell its loops as runs of directed
half-pieces. A clipped diagram carries them already. The bounded cells of a
bare diagram graph become whole-edge records through
`clip.bounded_cell_pieces`; a graph cell with no boundary, with an edge
that runs to infinity, or with hole loops only is unbounded and raises
UnboundedCellError. When the cell has more than one outer loop, a hole
loop joins the outer loop that contains its start point, as tested on
`clip.flatten_pieces` polygons of the outer loops at the build's snap
radius; hole loops are not flattened.

`cell_area` and `measure_cells` are one path (`_measure`): the loops of
the cells asked for, the sums of all of them in one array pass
(`_loop_sums`, every arc on them integrated in one call of the batched
kernel), then one function per cell with loops (`_cell_measure`) that
groups its loops into components and adds them up. A cell with no loop
measures zero and costs no call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Not called here: the traced benchmark run (perfbench/spans.py) wraps the
# name `quad` in this module and fails if it is missing.
from scipy.integrate import quad  # noqa: F401

from .clip import ClippedDiagram, bounded_cell_pieces, flatten_pieces, loop_polygons, piece_points
from .conic import ELLIPSE_CODE, piece_areas, points_at_alphas
from .diagram import LOOP, DiagramGraph
from .errors import (InputError, NonFiniteSegmentError, QuadratureError, SingularParameterError,
                     UnboundedCellError)
from .tolerances import DEDUP_REL, QUAD_ABS

# every arc is cut at each multiple of this step strictly inside it before
# the first pass; the chart breaks pi/2 + k pi are among those multiples
_CUT_STEP = math.pi / 16


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
# the Kronrod and Gauss weights, as the rows of `_column_sums`
_GK_W = np.array([_GK_WK, _GK_WG])

# an arc that still misses its error target when one of its pieces has been
# halved _MAX_DEPTH times, or when it has _MAX_PIECES pieces, raises
# QuadratureError (200 is the subinterval limit the scalar quad calls had)
_MAX_DEPTH = 30
_MAX_PIECES = 200


def _arc_points(coef, u_scale, alpha):
    """``points_at_alphas`` of arcs, which reach no singular parameter: one
    that does raises SingularParameterError. Returns (x, y, vx, vy)."""
    x, y, vx, vy, singular = points_at_alphas(coef, u_scale, alpha)
    if singular.any():
        raise SingularParameterError("an alpha of the batch lies on the line at infinity")
    return x, y, vx, vy


def _gk15(coef, u_scale, lo, hi) -> np.ndarray:
    """Kronrod values and QUADPACK error estimates of the speed integral
    over the M intervals [lo, hi], as rows (M, 2).

    The Kronrod and Gauss sums are one ``_column_sums`` pass, and the
    residual sum that needs the Kronrod value a second. The speed is not
    negative, so the Kronrod sum is also QUADPACK's sum of |f|.
    """
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    scale = np.abs(half)
    _, _, vx, vy = _arc_points(coef, u_scale, center[:, None] + half[:, None] * _GK_X)
    f = np.hypot(vx, vy)
    resk, resg = _column_sums(f, _GK_W)
    resasc = _column_sums(np.abs(f - 0.5 * resk[:, None]), _GK_W[:1])[0] * scale
    e = np.abs(resk - resg) * scale
    nz = (resasc != 0.0) & (e != 0.0)
    e[nz] = resasc[nz] * np.minimum(1.0, (200.0 * e[nz] / resasc[nz]) ** 1.5)
    return np.column_stack([resk * half,
                            np.maximum(e, 50.0 * np.finfo(float).eps * (resk * scale))])


def _column_sums(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sums (S, M) of the node values f (M, 15) with the weights w (S, 15),
    column by column, so each row's sum is the same whatever the batch."""
    acc = w[:, 0, None] * f[:, 0]
    for k in range(1, 15):
        acc = acc + w[:, k, None] * f[:, k]
    return acc


def arc_measures(coef, u_scale, a0, a1) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas and lengths of many conic arcs, computed together.

    Arc k runs from alpha ``a0[k]`` to ``a1[k]`` along the curve with chart
    triples ``coef[k]`` ((N, 2, 3, 3), as a bisector table's ``chart`` rows)
    and denominator scale ``u_scale[k]``. Both measures use the chart rows
    shifted to the arc's mid-alpha point m, so neither loses digits to
    cancellation far from the origin. The arcs are cut in one array pass at
    every multiple of _CUT_STEP strictly inside (a0, a1), chart breaks among
    them. The area term, the integral of (x y' - y x')/2, is the sum of the
    cut pieces' ``piece_areas`` about m, shifted back by m x (end - start)/2.

    The length is integrated in rounds on a float table (lo, hi, value,
    estimate) and an int table (arc, depth) of the open pieces, grouped by
    arc in alpha order, starting from the cut pieces at depth 0. A round
    evaluates the new pieces in one Gauss-Kronrod 7-15 pass; an arc is done
    once its pieces' summed estimates meet max(QUAD_ABS, 1e-12 |I|), and
    otherwise its pieces whose estimate exceeds an equal share of that
    target, and always its worst piece, are halved. Decisions and sums are
    per arc, so an arc's result does not depend on the batch. An arc that
    would need a piece halved more than _MAX_DEPTH times, or more than
    _MAX_PIECES pieces, raises QuadratureError.
    """
    coef, u_scale = np.asarray(coef, dtype=float), np.asarray(u_scale, dtype=float)
    n = u_scale.size
    length = np.zeros(n)
    if n == 0:
        return length, length
    a0, a1 = np.asarray(a0, dtype=float), np.asarray(a1, dtype=float)
    ends = np.stack([a0, a1], axis=1)
    px, py, *_ = _arc_points(coef, u_scale, np.column_stack([ends, ends.mean(axis=1)]))
    shift = 0.5 * (px[:, 2] * (py[:, 1] - py[:, 0]) - py[:, 2] * (px[:, 1] - px[:, 0]))
    # chart rows relative to m: x^ - m_x u^ and y^ - m_y u^ give the point
    # relative to m directly; subtracting after the division would leave the
    # velocity (dx u - x du) to cancel where x is far larger than x - m_x
    coef = coef.copy()
    coef[:, :, :2] -= np.stack([px[:, 2], py[:, 2]], axis=1)[:, None, :, None] * coef[:, :, 2:3]
    # try j of arc k is (k0 + j) step, k0 = floor(a0 / step); floor(span /
    # step) + 2 tries reach every multiple of the step before a1
    k0 = np.floor(a0 / _CUT_STEP)
    tries = np.maximum(np.floor((a1 - a0) / _CUT_STEP) + 2, 0).astype(np.intp)
    of = np.repeat(np.arange(n), tries)
    j = np.arange(of.size) - np.repeat(np.cumsum(tries) - tries, tries)
    cut = (k0[of] + j) * _CUT_STEP
    inner = (cut > a0[of]) & (cut < a1[of])
    # arc k's pieces run from a0 through its cuts to a1
    per_arc = np.bincount(of[inner], None, n) + 1
    start = np.cumsum(per_arc) - per_arc
    arc = np.repeat(np.arange(n), per_arc)
    joint = np.flatnonzero(arc[1:] == arc[:-1])  # pieces that end on a cut
    table = np.empty((arc.size, 4))  # lo, hi, length, estimate
    table[start, 0] = a0
    table[start + per_arc - 1, 1] = a1
    table[joint, 1] = table[joint + 1, 0] = cut[inner]
    # bincount adds each arc's pieces in array order, which is alpha order
    area = np.bincount(arc, piece_areas(coef[arc], table[:, 0], table[:, 1]), n) + shift
    ints = np.column_stack([arc, np.zeros_like(arc)])  # arc, depth
    fresh = np.arange(arc.size)  # the pieces to evaluate
    while True:
        of = ints[fresh, 0]
        table[fresh, 2:] = _gk15(coef[of], u_scale[of], table[fresh, 0], table[fresh, 1])
        arc = ints[:, 0]
        tot, est = np.bincount(arc, table[:, 2], n), np.bincount(arc, table[:, 3], n)
        target = np.maximum(QUAD_ABS, 1e-12 * np.abs(tot))
        short = est > target
        live = np.flatnonzero(np.bincount(arc, None, n) > 0)
        fin = live[~short[live]]
        length[fin] = tot[fin]
        if fin.size == live.size:
            return area, length
        keep = short[arc]
        table, ints = table[keep], ints[keep]
        arc, depth, err = ints[:, 0], ints[:, 1], table[:, 3]
        count = np.bincount(arc, None, n)
        # the worst estimate of each arc, over its run of pieces
        runs = count[count > 0]
        worst = np.repeat(np.maximum.reduceat(err, np.cumsum(runs) - runs), runs)
        split = (err > (target / np.maximum(count, 1))[arc]) | (err == worst)
        pieces = count + np.bincount(arc, split, n)
        over = split & ((depth >= _MAX_DEPTH) | (pieces[arc] > _MAX_PIECES))
        if over.any():
            k = int(arc[over][0])
            raise QuadratureError(
                f"arc {k} (alpha {float(ends[k, 0])!r} to {float(ends[k, 1])!r}) misses its error "
                f"target: estimate {float(est[k])!r}, target {float(target[k])!r}, "
                f"depth {int(depth[arc == k].max())}, {int(pieces[k])} pieces"
            )
        # each split piece becomes its two halves, in place
        rep = np.where(split, 2, 1)
        table, ints = np.repeat(table, rep, axis=0), np.repeat(ints, rep, axis=0)
        first = np.flatnonzero(split) + np.arange(int(split.sum()))
        table[first, 1] = table[first + 1, 0] = 0.5 * (table[first, 0] + table[first, 1])
        fresh = np.concatenate([first, first + 1])
        ints[fresh, 1] += 1


# -------------------------------------------------------------- edge length


def _bounded(graph: DiagramGraph, ids) -> np.ndarray:
    """Mask of the edges ``ids`` of finite length: an ellipse's loop, a curve
    piece with a vertex at both ends, or a line piece with two finite ends.
    A parabola component with no vertex is labelled a loop, as an ellipse
    is, but it runs through its singular parameter to infinity."""
    e = graph.edges[ids]
    finite = np.where(e["line"] < 0, (e["node_a"] >= 0) & (e["node_b"] >= 0),
                      np.isfinite(e["a0"]) & np.isfinite(e["a1"]))
    return finite | ((e["kind"] == LOOP) & (graph.table.code[ids] == ELLIPSE_CODE))


def edge_arc_length(graph: DiagramGraph, edge: int) -> float:
    """Length of the edge ``edge`` (its row of ``graph.edges``); finite
    intervals and closed loops only."""
    if not _bounded(graph, [edge])[0]:
        raise NonFiniteSegmentError(f"edge {edge} runs to infinity; clip it first")
    line, a0, a1 = graph.edges[["line", "a0", "a1"]][edge].tolist()
    if line < 0:
        t = graph.table
        return float(arc_measures(t.chart[[edge]], t.u_scale[[edge]], [a0], [a1])[1][0])
    # line parameters are arc length already
    return a1 - a0


# ---------------------------------------------------------------- loop sums


def _loop_sums(graph: DiagramGraph, pieces: np.ndarray, loops) -> tuple[np.ndarray, np.ndarray]:
    """Signed area and length of every loop of ``loops`` (a CellLoops over
    the PIECE rows ``pieces``).

    A half-piece's area term is the contour integral along it: an arc's
    from ``arc_measures`` (each arc integrated once, in one call), a straight
    run's from q0 to q1 the shoelace term (x0 y1 - y0 x1) / 2. Adjacent
    pieces' ends agree only to vertex-recovery precision, so a connector
    chord joins each piece's end to the next one's start: an exactly closed
    contour keeps the signed total independent of the coordinate origin. A
    loop's area is summed strictly left to right from 0.0 (first piece term,
    then connector and piece term in turn, then the connector back to its
    start; none for a closed arc), its length over its pieces. Each loop is a
    row of one zero-padded array, which ``np.cumsum`` adds in that order.
    """
    half = loops.half
    p = pieces[half["piece"]]
    forward = half["forward"][:, None]
    q0, q1 = np.where(forward, p["p0"], p["p1"]), np.where(forward, p["p1"], p["p0"])
    area = 0.5 * (q0[:, 0] * q1[:, 1] - q0[:, 1] * q1[:, 0])
    length = np.zeros(len(half))
    arc = (p["edge"] >= 0) & (p["line"] < 0)
    run = ~arc
    length[run] = np.hypot(q1[run, 0] - q0[run, 0], q1[run, 1] - q0[run, 1])
    if arc.any():
        ids, inv = np.unique(half["piece"][arc], return_inverse=True)
        one = pieces[ids]
        a, s = arc_measures(graph.table.chart[one["edge"]], graph.table.u_scale[one["edge"]],
                            one["a0"], one["a1"])
        area[arc] = np.where(forward[arc, 0], a[inv], -a[inv])
        length[arc] = s[inv]
    # the connector into each half-piece from the end of the one before it in its loop
    count = np.diff(loops.loop_start)
    at = np.arange(len(half)) - np.repeat(loops.loop_start[:-1], count)
    prev = np.arange(len(half)) - 1
    prev[loops.loop_start[:-1]] += count
    link = 0.5 * (q1[prev, 0] * q0[:, 1] - q1[prev, 1] * q0[:, 0])
    link[p["closed"]] = 0.0
    # columns: 0.0, then piece term j at 2 j + 1 and the connector into it at
    # 2 j, the first piece's connector last, at 2 count
    loop = np.repeat(np.arange(count.size), count)
    terms = np.zeros((2, count.size, 2 * count.max(initial=0) + 1))
    terms[0, loop, 2 * at + 1] = area
    terms[0, loop, np.where(at == 0, 2 * count[loop], 2 * at)] = link
    terms[1, loop, 2 * at + 1] = length
    sums = np.cumsum(terms, axis=2)[:, :, -1]
    return sums[0], sums[1]


def _point_in_polygon(poly: np.ndarray, q) -> bool:
    """Even-odd test of q against the closed polygon (M, 2), all edges in one pass."""
    x, y = float(q[0]), float(q[1])
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(poly, -1, axis=0).T
    hit = (y0 > y) != (y1 > y)
    xc = x0[hit] + (y - y0[hit]) * (x1[hit] - x0[hit]) / (y1[hit] - y0[hit])
    return bool(np.count_nonzero(xc > x) % 2)


# ---------------------------------------------------------------- front end


def _check_bounded(graph: DiagramGraph, cell: int) -> None:
    """Raise UnboundedCellError for a bare-graph cell, neither empty nor an
    alias, with no boundary or with an edge that runs to infinity."""
    if cell in graph.empty_cells or cell in graph.aliases:
        return
    edge_ids = graph.cell_edges.get(cell, [])
    if not edge_ids:
        raise UnboundedCellError(f"cell {cell} has no boundary at all; clip to a window first")
    open_ = np.flatnonzero(~_bounded(graph, edge_ids))
    if open_.size:
        raise UnboundedCellError(f"cell {cell} is open along edge {edge_ids[open_[0]]}")


def _hole_test(graph: DiagramGraph, pieces, runs, outers, holes) -> tuple[list, np.ndarray]:
    """Polygons of the ``outers`` loops of ``runs``, their pieces flattened to
    the build's snap radius, and per ``holes`` loop the point its polygon
    would start with, unflattened: the start of its first piece in traversal
    direction, for an arc ``piece_points`` at fraction 0 (forward) or 1
    (backward), as ``flatten_pieces`` begins and ends it."""
    ids = np.unique(np.concatenate([runs[k]["piece"] for k in outers]))
    lines = dict(zip(ids.tolist(), flatten_pieces(graph, pieces[ids], DEDUP_REL * graph.length_scale)))
    head = np.concatenate([runs[k][:1] for k in holes])
    first, forward = pieces[head["piece"]], head["forward"]
    probes = np.where(forward[:, None], first["p0"], first["p1"])
    arc = (first["edge"] >= 0) & (first["line"] < 0)
    probes[arc] = piece_points(graph, first[arc], np.where(forward[arc], 0.0, 1.0))
    return loop_polygons(lines, [runs[k] for k in outers]), probes


def _cell_measure(graph: DiagramGraph, cell: int, pieces, runs, area, length,
                  *, strict: bool) -> CellMeasure:
    """Measure of one cell from the sums ``area`` and ``length`` of its loops,
    by component: an outer loop (positive signed area) and its holes
    (negative). ``runs()`` gives the loops, as HALF arrays.

    A hole joins the first outer loop whose ``_hole_test`` polygon contains
    its probe, or the largest one if none does; a single outer loop takes
    every hole, and only more than one outer loop flattens. Without outer
    loops each hole is a component of its own, or, with strict (bare graph
    cells), the cell is unbounded and raises UnboundedCellError.
    """
    outers = [k for k in range(len(area)) if area[k] >= 0.0]
    holes = [k for k in range(len(area)) if area[k] < 0.0]
    if strict and holes and not outers:
        raise UnboundedCellError(f"cell {cell} has only hole loops; it is unbounded")
    groups = {k: [k] for k in outers or holes}
    if len(outers) == 1:
        groups[outers[0]] += holes
    elif outers and holes:
        polys, probes = _hole_test(graph, pieces, runs(), outers, holes)
        largest = max(outers, key=lambda o: area[o])
        for k, probe in zip(holes, probes):
            groups[next((o for o, poly in zip(outers, polys) if _point_in_polygon(poly, probe)),
                        largest)].append(k)
    comps = sorted((ComponentMeasure(float(sum(area[k] for k in grp)),
                                     float(sum(length[k] for k in grp)))
                    for grp in groups.values()), key=lambda c: (-c.area, c.perimeter))
    return CellMeasure(cell, float(sum(c.area for c in comps)),
                       float(sum(c.perimeter for c in comps)), tuple(comps))


def _measure(g: DiagramGraph | ClippedDiagram, cells) -> dict[int, CellMeasure]:
    """CellMeasure of each cell id in ``cells``, keyed by id; every arc on
    their loops is integrated once, although it borders two cells. A cell
    with no loop has no area."""
    graph = g.graph if isinstance(g, ClippedDiagram) else g
    stray = [cell for cell in cells if cell not in graph.cell_edges]
    if stray:
        raise InputError(f"cell {stray[0]} names no generator")
    if isinstance(g, ClippedDiagram):
        pieces, loops = g.pieces, g.loops.subset(cells)
    else:
        for cell in cells:
            _check_bounded(g, cell)
        pieces, loops = bounded_cell_pieces(g, cells)
    # numpy scalars, which Python's sum adds in order
    area, length = (list(v) for v in _loop_sums(graph, pieces, loops))
    cs = loops.cell_start.tolist()
    out = {cell: _cell_measure(graph, cell, pieces, lambda c=c: loops.runs(c),
                               area[cs[c]:cs[c + 1]], length[cs[c]:cs[c + 1]], strict=graph is g)
           if cs[c] < cs[c + 1] else CellMeasure(cell, 0.0, 0.0, ())
           for c, cell in enumerate(loops.cells.tolist())}
    return {cell: out[cell] for cell in cells}


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
