"""Cell perimeters and areas from the analytic boundary description.

Areas are the contour integral (1/2) oint (x dy - y dx) taken loop by loop:
each boundary loop is traversed with the cell interior on its left, so
outer loops contribute positive area and holes negative, and the per-piece
terms reduce to the familiar vertex shoelace plus curved-bulge corrections.
Lengths are the integral of the parametric speed.

Every curved piece is measured once per call, in one batched kernel
(`arc_measures`), on the chart rows of its edge in the graph's bisector
table, and both measures are closed forms: the area term of each piece of
the arc between chart breaks (`conic.piece_areas`) and the length, an
incomplete elliptic integral (`conic.arc_lengths`). Nothing iterates.

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
(`_loop_sums`, every arc on them measured in one call of the batched
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
from .conic import ELLIPSE_CODE, arc_lengths, piece_areas, points_at_alphas
from .diagram import LOOP, DiagramGraph
from .errors import InputError, NonFiniteSegmentError, SingularParameterError, UnboundedCellError
from .tolerances import DEDUP_REL


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


# ------------------------------------------------------------- arcs


def arc_measures(coef, u_scale, a0, a1) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas and lengths of many conic arcs, computed together.

    Arc k runs from alpha ``a0[k]`` to ``a1[k]`` along the curve with chart
    triples ``coef[k]`` ((N, 2, 3, 3), as a bisector table's ``chart`` rows)
    and denominator scale ``u_scale[k]``; an arc that reaches the line at
    infinity raises SingularParameterError. Both measures use the chart rows
    shifted to the arc's mid-alpha point m, so neither loses digits far from
    the origin: the area term, the integral of (x y' - y x')/2, is the sum of
    ``piece_areas`` about m over the arc cut at the chart breaks pi/2 + k pi,
    shifted back by m x (end - start)/2, and the length is ``arc_lengths``.
    Every value is computed per arc, whatever the batch.
    """
    coef, u_scale = np.asarray(coef, dtype=float), np.asarray(u_scale, dtype=float)
    n = u_scale.size
    if n == 0:
        return np.zeros(0), np.zeros(0)
    a0, a1 = np.asarray(a0, dtype=float), np.asarray(a1, dtype=float)
    ends = np.stack([a0, a1], axis=1)
    px, py, _, _, singular = points_at_alphas(coef, u_scale, np.column_stack([ends, ends.mean(axis=1)]))
    if singular.any():
        raise SingularParameterError("an alpha of the batch lies on the line at infinity")
    shift = 0.5 * (px[:, 2] * (py[:, 1] - py[:, 0]) - py[:, 2] * (px[:, 1] - px[:, 0]))
    # chart rows relative to m: x^ - m_x u^ and y^ - m_y u^ give the point
    # relative to m directly; subtracting after the division would leave the
    # velocity (dx u - x du) to cancel where x is far larger than x - m_x
    coef = coef.copy()
    coef[:, :, :2] -= np.stack([px[:, 2], py[:, 2]], axis=1)[:, None, :, None] * coef[:, :, 2:3]
    # break j of arc k is pi/2 + (k0 + j) pi; floor(span / pi) + 2 tries
    # reach every break before a1
    k0 = np.floor((a0 - 0.5 * math.pi) / math.pi)
    tries = np.maximum(np.floor((a1 - a0) / math.pi) + 2, 0).astype(np.intp)
    of = np.repeat(np.arange(n), tries)
    j = np.arange(of.size) - np.repeat(np.cumsum(tries) - tries, tries)
    cut = 0.5 * math.pi + (k0[of] + j) * math.pi
    inner = (cut > a0[of]) & (cut < a1[of])
    # arc k's pieces run from a0 through its breaks to a1
    per_arc = np.bincount(of[inner], None, n) + 1
    start = np.cumsum(per_arc) - per_arc
    arc = np.repeat(np.arange(n), per_arc)
    joint = np.flatnonzero(arc[1:] == arc[:-1])  # pieces that end on a break
    lo, hi = np.empty(arc.size), np.empty(arc.size)
    lo[start], hi[start + per_arc - 1] = a0, a1
    hi[joint] = lo[joint + 1] = cut[inner]
    # bincount adds each arc's pieces in array order, which is alpha order
    area, length = np.bincount(arc, piece_areas(coef[arc], lo, hi), n) + shift, arc_lengths(coef, a0, a1)
    if not np.isfinite(length).all():
        raise SingularParameterError("an arc of the batch crosses the line at infinity")
    return area, length


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
    from ``arc_measures`` (each arc measured once, in one call), a straight
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
    their loops is measured once, although it borders two cells. A cell
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
