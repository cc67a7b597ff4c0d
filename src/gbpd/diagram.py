"""Full diagram construction: vertices, visible edge segments, topology.

The construction follows six steps:

1. Classify every pairwise bisector once, as one row of a bisector table
   (``bisector.bisector_table``: one stacked eigen-decomposition, curves
   parametrized and line pairs split in array form). No bisector object
   exists yet.
2. Find the candidate vertices, the globally minimal pencil intersections
   of the bisector pairs (E_ij, E_ik) of all generator triples, sorted by x,
   then y (``intersect.vertex_candidates``, which holds the triple sweep).
3. Cluster the candidates through a ``geometry.PointIndex``: a candidate
   joins the cluster of least id within the dedup radius, else starts one.
4. Polish all vertices with Newton steps in one array pass over the
   implicit rows of their incident pairs (every pair of a vertex's
   generators, found through the table's pair rows), then recover each
   vertex's parameters on those rows, on the same incidences: one
   ``params_of_points`` call covers every (vertex, curved bisector)
   incidence, and one array pass every (vertex, line) pair. The result is
   the vertex marks as columns (table row, component, position, vertex),
   sorted by row, component and position.
5. Decide visibility in one pass over all table rows. All components are
   cut at their marks at once (``merge_runs`` and ``split_runs``, which
   the clip shares for its window crossings); one without marks is one
   whole piece.
   A piece is kept when its representative point has the component's
   generator pair as its two nearest (``intersect.two_nearest``: the
   minimality screen of step 2, likely winner first, with the pair's
   columns skipped). The representatives of all pieces come from one level
   loop (each level one array evaluation of the pieces still unresolved;
   only a lopsided piece at a singular end goes past the first). The
   visible pieces become the graph's edges, one EDGE row each, their labels
   encoded in one array pass; the pass also returns each edge's table row,
   and the graph keeps those rows (row k for edge k, ``BisectorTable.take``).
   No bisector or edge object is built.
6. Assemble the edge/vertex graph: ``assemble_graph`` derives adjacency,
   per-cell edge lists, per-cell boundary components (one
   ``connected_components`` pass) and the empty cells from the EDGE
   columns, for the build and for the JSON reader alike.

Every batched step repeats the operation order of its one-input form, so
the diagram does not depend on how the work is batched.

Curve bookkeeping happens on the circular alpha domain (alpha = 2 atan t),
where an ellipse is a plain circle, a hyperbola two arcs between its
singular parameters, and the point at t = +-inf is an ordinary interior
point. An edge is published as labels in t, and its interval is decoded
from those labels, by the same array pass for a built graph and for one
read back from its JSON, so the two carry the same bits (see
``edge_intervals``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# the benchmark's span tracer patches make_bisector, param_of_point and
# pencil_intersections_batch here by name; nothing here calls them
from .bisector import (  # noqa: F401
    BisectorTable,
    bisector_table,
    make_bisector,
    param_of_point,
    params_of_points,
)
from .conic import (
    TWO_PI,
    ConicImplicit,
    alphas_of_params,
    line_points,
    params_of_alphas,
    points_at_alphas,
    wrap_angles,
)
from .errors import NoSolutionError
from .geometry import Generator, PointIndex, SceneArrays, generator_index
from .intersect import pencil_intersections_batch, two_nearest, vertex_candidates  # noqa: F401
from .tolerances import DEDUP_REL, PARAM_MERGE


@dataclass
class Vertex:
    """Diagram vertex: equidistant to >= 3 generators, globally minimal."""

    id: int
    pos: np.ndarray
    gens: frozenset[int]


# An EDGE row is one edge of the graph, row k edge k: its generator pair (i
# < j), its labels (kind, an index into EDGE_KINDS, and t_a, t_b, NaN where
# a label is null), its end vertices (-1 for none), its component and line
# (-1 on a curve) on the pair's bisector, and its parameter interval a0 < a1
# as in clip.PIECE: alphas of a curve piece (a1 = a0 + span, span <= 2 pi) or
# line parameters of a line piece, infinite at the open end of a ray.
EDGE_KINDS = ("interval", "wrap", "loop", "full_line")
INTERVAL, WRAP, LOOP, FULL_LINE = range(len(EDGE_KINDS))
EDGE = np.dtype([("pair", np.intp, 2), ("kind", np.int8), ("t_a", float), ("t_b", float),
                 ("node_a", np.intp), ("node_b", np.intp), ("component", np.intp),
                 ("line", np.intp), ("a0", float), ("a1", float)])


# ------------------------------------------------------------- edge labels
#
# ``_curve_labels`` encodes curve pieces' alpha intervals as labels, and
# ``edge_intervals`` decodes the labels of any edges, built or read back
# from JSON, into their parameter intervals; both are elementwise, so the
# bits do not depend on the batch. "interval" is t_a < t_b (infinities
# allowed on line rays), "wrap" runs through the t = inf point (t_b <=
# t_a), "loop" is an entire ellipse or parabola component and "full_line"
# a whole line. The far point t = inf sits at alpha = pi; an
# interval entering from it is labelled t_a = -inf and decodes to alpha -pi.


def _curve_labels(a0: np.ndarray, a1: np.ndarray,
                  ended: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kind, t_a, t_b) of the curve pieces on the alpha intervals (a0, a1 =
    a0 + span); a full turn is a loop unless ``ended`` marks a vertex at an end."""
    lo = wrap_angles(a0)
    hi = lo + (a1 - a0)
    loop = (hi - lo >= TWO_PI - 1e-15) & ~ended
    kind = np.where(loop, LOOP, np.where((lo < math.pi) & (math.pi < hi), WRAP, INTERVAL))
    t_a = np.where(lo == math.pi, -math.inf, params_of_alphas(lo))
    t_b = params_of_alphas(hi)
    t_a[loop] = t_b[loop] = math.nan
    return kind, t_a, t_b


def edge_intervals(kind: np.ndarray, t_a: np.ndarray, t_b: np.ndarray, curve: np.ndarray,
                   null: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The parameter intervals (a0, a1) of edges with these labels, NaN
    where the labels name no edge.

    ``curve`` masks the edges on curves, the others lie on lines; ``null``
    masks the null t_a and t_b labels (by default the NaN ones). A curve
    interval spans the alphas 2 atan t of t_a and t_b, lifted by one turn
    when it wraps through pi; a loop spans (-pi, pi). A line interval
    is (t_a, t_b), a full line (-inf, inf).
    """
    null_a, null_b = (np.isnan(t_a), np.isnan(t_b)) if null is None else null
    numbers, nulls = ~null_a & ~null_b, null_a & null_b
    a0, a1 = np.full(kind.size, math.nan), np.full(kind.size, math.nan)
    full = ~curve & (kind == FULL_LINE) & nulls
    a0[full], a1[full] = -math.inf, math.inf
    seg = ~curve & (kind == INTERVAL) & numbers
    a0[seg], a1[seg] = t_a[seg], t_b[seg]
    loop = curve & (kind == LOOP) & nulls
    a0[loop], a1[loop] = -math.pi, math.pi
    arc = np.flatnonzero(curve & ((kind == INTERVAL) | (kind == WRAP)) & numbers)
    lo = np.where(t_a[arc] == -math.inf, -math.pi, alphas_of_params(t_a[arc]))
    hi = alphas_of_params(t_b[arc])
    a0[arc], a1[arc] = lo, np.where((kind[arc] == WRAP) | (hi < lo), hi + TWO_PI, hi)
    return a0, a1


@dataclass
class DiagramGraph:
    """A diagram: its edges as EDGE rows, and row k of ``table`` is the bisector of edge k."""

    generators: list[Generator]
    vertices: list[Vertex]
    edges: np.ndarray
    table: BisectorTable
    cell_edges: dict[int, list[int]]
    adjacency: set[tuple[int, int]]
    cell_components: dict[int, list[list[int]]]
    empty_cells: frozenset[int]
    aliases: dict[int, int]
    length_scale: float

    def neighbors(self, gid: int) -> set[int]:
        pair = self.edges["pair"]
        return set(pair[pair[:, 0] == gid, 1].tolist()) | set(pair[pair[:, 1] == gid, 0].tolist())


# ------------------------------------------------------- candidate vertices


def _dedup_generators(generators: list[Generator]) -> tuple[list[Generator], dict[int, int]]:
    """Alias generators with identical (p, M, w) to the smallest id."""
    by_key: dict[tuple, int] = {}
    aliases: dict[int, int] = {}
    kept: list[Generator] = []
    for g in sorted(generators, key=lambda g: g.id):
        key = (g.p[0], g.p[1], g.M.m11, g.M.m12, g.M.m22, g.w)
        if key in by_key:
            aliases[g.id] = by_key[key]
        else:
            by_key[key] = g.id
            kept.append(g)
    return kept, aliases


def _cluster_vertices(kept: list[Generator], cand: np.ndarray, trip: np.ndarray,
                      length_scale: float) -> list[Vertex]:
    """Vertices of the candidates (K, 2) of triples ``trip`` (K, 3) into ``kept``, in
    order: each joins the vertex of least id within the dedup radius, else starts one.

    The candidates are hashed to the grid cells of a ``PointIndex`` in one pass.
    One with no other candidate in the 3 x 3 cells around its own can neither
    join a vertex nor be joined, so it starts one without a lookup; only the
    others walk the index, in candidate order.
    """
    radius = DEDUP_REL * length_scale
    # cells as PointIndex keys them, (x, y) as one complex key sorted lexicographically
    cells = np.floor(cand / (2.0 * radius)) @ np.array([1.0, 1j])
    keys, count = np.unique(cells, return_counts=True)
    around = cells[:, None] + np.array([dx + 1j * dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    at = np.minimum(np.searchsorted(keys, around), keys.size - 1)
    walk = np.where(keys[at] == around, count[at], 0).sum(axis=1) > 1
    ids = np.array([g.id for g in kept], dtype=np.int64)[trip].tolist()
    vertices, index = [], PointIndex(radius)
    for pos, members, crowded in zip(cand, ids, walk.tolist()):
        found = index.near(pos) if crowded else None
        if found is None:
            found = len(vertices)
            vertices.append(Vertex(found, pos, frozenset()))
            if crowded:
                index.add(found, pos)
        vertices[found].gens |= set(members)
    return vertices


def _pairs(width: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(run, i, j) of every i < j < ``width[run]``, runs in order and each run's
    pairs in lexicographic order, from the fixed pair table of the widest run."""
    first, second = np.triu_indices(int(width.max(initial=0)), 1)
    run, k = np.nonzero(second < width[:, None])
    return run, first[k], second[k]


def _incidences(vertices: list[Vertex], table: BisectorTable,
                pair_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vertex index, table row) of every pair of each vertex's generators,
    vertices in order and each vertex's pairs in order; ``pair_row`` is
    ``table.pair_rows()``."""
    index = generator_index(table.generators)
    degree = np.array([len(v.gens) for v in vertices], dtype=np.intp)
    # each vertex's generator indices in id order, padded to the widest vertex
    gens = np.zeros((degree.size, int(degree.max(initial=0))), dtype=np.intp)
    gens[np.arange(gens.shape[1]) < degree[:, None]] = [
        index[g] for v in vertices for g in sorted(v.gens)]
    vi, a, b = _pairs(degree)
    return vi.astype(np.int64), pair_row[gens[vi, a], gens[vi, b]].astype(np.int64)


def _polish_vertices(
    vertex_pos: np.ndarray,
    table: BisectorTable,
    row_vertex: np.ndarray,
    rows: np.ndarray,
    length_scale: float,
) -> None:
    """Newton-refine each vertex position (rows of ``vertex_pos`` (V, 2), in
    place) on its two best-conditioned bisectors.

    The eigen route used for pencil intersections leaves a relative error a
    few orders above machine precision; two or three Newton steps on a
    transversal pair of implicit equations close that gap. All vertices are
    refined at once, on the implicit rows of their incidences (vertex
    ``row_vertex[k]`` on table row ``rows[k]``, as ``_incidences`` gives
    them): the best pair of a vertex is the first pair of its incident
    bisectors with the largest gradient sine. A vertex whose polish ends
    non-finite or farther than the dedup radius stays where it was.
    """
    max_step = DEDUP_REL * length_scale
    # one row per (vertex, incident bisector), one combo per pair of such rows
    starts = np.flatnonzero(np.r_[True, row_vertex[1:] != row_vertex[:-1], True])
    run, i, j = _pairs(np.diff(starts))
    if not run.size:
        return
    ka, kb = starts[run] + i, starts[run] + j
    c = table.implicit[rows]
    pos = vertex_pos[row_vertex]
    # ConicImplicit with array fields evaluates one conic per entry
    gx, gy = ConicImplicit(*c.T).gradient(pos[:, 0], pos[:, 1])
    norm = np.hypot(gx, gy)
    usable = (norm[ka] != 0.0) & (norm[kb] != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sine = np.abs(gx[ka] * gy[kb] - gy[ka] * gx[kb]) / (norm[ka] * norm[kb])
    # per vertex, the first combo of largest sine (ties keep the earlier one)
    owner = row_vertex[ka]
    order = np.lexsort((np.arange(ka.size), -sine, ~usable, owner))
    first = order[np.r_[True, owner[order[1:]] != owner[order[:-1]]]]
    # near-parallel gradients mean a tangential contact; leave those alone
    first = first[usable[first] & ~(sine[first] < 1e-6)]
    c1, c2 = ConicImplicit(*c[ka[first]].T), ConicImplicit(*c[kb[first]].T)
    x0, y0 = pos[ka[first], 0], pos[ka[first], 1]
    x, y = x0.copy(), y0.copy()
    live = np.ones(first.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(3):
            f1, f2 = c1.evaluate(x, y), c2.evaluate(x, y)
            (g1x, g1y), (g2x, g2y) = c1.gradient(x, y), c2.gradient(x, y)
            det = g1x * g2y - g1y * g2x
            live &= det != 0.0
            x = np.where(live, x + (-f1 * g2y + f2 * g1y) / det, x)
            y = np.where(live, y + (f1 * g2x - f2 * g1x) / det, y)
        ok = np.isfinite(x) & np.isfinite(y) & (np.hypot(x - x0, y - y0) <= max_step)
    vertex_pos[owner[first[ok]]] = np.column_stack([x, y])[ok]


# ------------------------------------------------------ visibility testing


def _curve_representatives(
    coef: np.ndarray, u_scale: np.ndarray, mid: np.ndarray, anchor: np.ndarray,
    whole: np.ndarray, length_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Representative points (N, 2) of curve pieces, and the mask of those found.

    Piece k lies on the curve with chart triples ``coef[k]`` (rows of
    ``BisectorTable.chart``) and denominator scale ``u_scale[k]``.

    Level j evaluates the unresolved pieces in one ``points_at_alphas`` call
    at anchor + (mid - anchor) 0.5^j, or at mid where anchor == mid. A
    regular point resolves a ``whole`` piece; other pieces need it finite
    and within 1e6 (1 + length_scale) of the origin. Only pieces with
    anchor != mid go on to the next level, for at most 60 levels.
    """
    points = np.full((mid.size, 2), math.nan)
    has_rep = np.zeros(mid.size, dtype=bool)
    limit = 1e6 * (1.0 + length_scale)
    open_ = np.arange(mid.size)
    for level in range(60):
        if open_.size == 0:
            break
        m, a = mid[open_], anchor[open_]
        alpha = np.where(a != m, a + (m - a) * 0.5**level, m)
        x, y, _, _, singular = points_at_alphas(coef[open_], u_scale[open_], alpha)
        with np.errstate(invalid="ignore"):
            sane = np.isfinite(x) & np.isfinite(y) & (np.maximum(np.abs(x), np.abs(y)) <= limit)
        ok = ~singular & (whole[open_] | sane)
        points[open_[ok]] = np.column_stack([x, y])[ok]
        has_rep[open_[ok]] = True
        open_ = open_[~ok & (a != m)]
    return points, has_rep


# ------------------------------------------------------ marks and pieces
#
# The build cuts each component at its vertex marks, the clip each edge at
# its window crossings: marks as columns sorted by (group, position), one
# group per component or edge, merged and split in array passes.


def merge_runs(group: np.ndarray, pos: np.ndarray, gap) -> np.ndarray:
    """Keep mask of sorted marks: a group's first mark is kept, a later one
    dropped when pos - pos[last kept before it] <= gap (one or one per mark).

    Each pass recomputes every mark's last kept predecessor from the last
    pass's mask; a mark's fate depends only on the marks before it, so the
    loop ends on the greedy mask, at the first pass that changes nothing.
    """
    first = np.diff(group, prepend=group[:1] - 1) != 0
    keep = np.ones(pos.size, dtype=bool)
    while True:
        prev = np.r_[0, np.maximum.accumulate(np.where(keep, np.arange(pos.size), 0))][:-1]
        with np.errstate(invalid="ignore"):
            again = first | ~(pos - pos[prev] <= gap)
        if (again == keep).all():
            return keep
        keep = again


def split_runs(group, pos, payload, lo, hi, gap, closed, end_a, end_b) -> tuple:
    """Pieces (group, x0, x1, payload0, payload1) of each group g < lo.size,
    in order, cut at its marks (pos, payload; sorted by group, then pos).

    The other arguments are indexed by group. A group without marks is the
    one piece (lo, hi). An open group's pieces run from lo (payload end_a)
    through its marks to hi (payload end_b), those no longer than gap
    dropped. A closed group pairs its marks circularly on the alpha circle:
    a last mark within gap of the first one a turn later is its duplicate,
    and the last piece runs on to the first mark plus 2 pi.
    """
    count = np.bincount(group, minlength=lo.size)
    first = np.cumsum(count) - count
    ring, ends = np.flatnonzero(closed & (count > 0)), np.flatnonzero(~closed | (count == 0))
    f, last = first[ring], first[ring] + count[ring] - 1
    keep = np.ones(pos.size, dtype=bool)
    keep[last[(last > f) & ((pos[f] + TWO_PI) - pos[last] <= gap[ring])]] = False
    bound = np.concatenate([ends, group[keep], ends, ring])
    x = np.concatenate([lo[ends], pos[keep], hi[ends], pos[f] + TWO_PI])
    load = np.concatenate([end_a[ends], payload[keep], end_b[ends], payload[f]])
    order = np.argsort(bound, kind="stable")  # heads, then marks, then tails
    bound, x, load = bound[order], x[order], load[order]
    at = np.flatnonzero(bound[1:] == bound[:-1])
    at = at[closed[bound[at]] | (x[at + 1] - x[at] > gap[bound[at]])]
    return bound[at], x[at], x[at + 1], load[at], load[at + 1]


def _visible_pieces(
    table: BisectorTable,
    rows: np.ndarray,
    marks: tuple[np.ndarray, ...],
    arr: SceneArrays,
    length_scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visible pieces of the bisectors ``rows`` of ``table``, decided together.

    ``marks`` are the mark columns of ``_recover_params`` on ``rows``. All
    components are cut at once (``split_runs``), curve marks merged within
    2 PARAM_MERGE first; one without marks is one whole piece. A curve piece
    probes from its alpha midpoint toward its other end if exactly that end
    is a singular parameter. A line piece is probed at its midpoint, a whole
    line at t = 0, a ray a step of max(1, |t|) in from its finite end t (a
    unit step from a vertex far out changes the distances there by less than
    the two-nearest slack VERT_REL (1 + |d|)). The curve representatives of
    all pieces come from one level loop (``_curve_representatives``), the
    line ones from one ``line_points`` call, and all are decided by one
    ``intersect.two_nearest`` call. ``arr`` holds every generator of ``table``.

    Returns (the visible pieces as EDGE rows, by row, component and start;
    their rows of ``table``; the mask over all candidate pieces of those
    without a representative). A piece without a representative is
    dropped: a whole component whose midpoint is a singular parameter, or
    an interval where no probe gives a finite point within 1e6 (1 +
    length_scale) of the origin.
    """
    count, lo, hi, closed = table.components(rows)
    owner = np.repeat(np.arange(rows.size), count)
    start = np.cumsum(count) - count
    ci = np.arange(owner.size) - np.repeat(start, count)
    row, lo, hi, closed = rows[owner], lo[owner, ci], hi[owner, ci], closed[owner]
    line = table.line_count[row] > 0
    # cut the components at their marks, a mark's group its component
    offset = np.full(table.first.size, -1, dtype=np.int64)
    offset[rows] = start
    m_row, m_comp, m_pos, m_vertex = marks
    group = offset[m_row] + m_comp
    kept = merge_runs(group, m_pos, 2.0 * PARAM_MERGE) | line[group]
    none = np.full(owner.size, -1)
    pieces = split_runs(group[kept], m_pos[kept], m_vertex[kept], lo, hi,
                        np.where(line, PARAM_MERGE, 2.0 * PARAM_MERGE), closed, none, none)
    # a component without marks, or left without a piece, is tested whole
    lost = np.flatnonzero(np.bincount(pieces[0], minlength=owner.size) == 0)
    comp, x0, x1, v0, v1 = (np.concatenate(c) for c in zip(
        pieces, (lost, lo[lost], hi[lost], none[lost], none[lost])))
    whole = np.bincount(group[kept], minlength=owner.size) == 0
    whole[lost] = True
    with np.errstate(invalid="ignore"):
        # a ray is probed a step of max(1, |t|) in from its finite end t
        probe = np.where(np.isinf(x0), x1 - np.maximum(1.0, np.abs(x1)),
                         np.where(np.isinf(x1), x0 + np.maximum(1.0, np.abs(x0)), 0.5 * (x0 + x1)))
        s_lo = ~closed[comp] & (np.abs(x0 - lo[comp]) <= 1e-15)
        s_hi = ~closed[comp] & (np.abs(x1 - hi[comp]) <= 1e-15)
    probe[np.isinf(x0) & np.isinf(x1)] = 0.0
    anchor = np.where(s_lo & ~s_hi, x1, np.where(s_hi & ~s_lo, x0, probe))
    ends = np.column_stack([v0, v1]).astype(np.intp)
    row, ci, line = row[comp], ci[comp], line[comp]

    points = np.full((comp.size, 2), math.nan)
    has_rep = line.copy()
    points[line] = line_points(table.lines[row[line], ci[line]], probe[line])
    curve = np.flatnonzero(~line)
    points[curve], has_rep[curve] = _curve_representatives(
        table.chart[row[curve]], table.u_scale[row[curve]], probe[curve], anchor[curve],
        whole[comp[curve]], length_scale)
    gen = np.array([arr.id_to_index[g.id] for g in table.generators], dtype=np.int64)
    idx = np.stack([gen[table.first[row]], gen[table.second[row]]], axis=1)
    decided = np.flatnonzero(has_rep)
    shown = decided[two_nearest(points[decided], idx[decided], arr)]
    # a component's edges in the order of their starts: the line parameter,
    # or the alpha of a curve piece wrapped to (-pi, pi], the far point at pi
    begin = x0[shown]
    begin[~line[shown]] = wrap_angles(begin[~line[shown]])
    shown = shown[np.lexsort((begin, ci[shown], row[shown]))]
    x0, x1, ends, curve = x0[shown], x1[shown], ends[shown], ~line[shown]
    # a curve piece's labels encode its alphas; a line piece's are its line
    # parameters, and a whole line's are null, as are its end vertices
    kind, t_a, t_b = np.full(shown.size, INTERVAL), x0.copy(), x1.copy()
    kind[curve], t_a[curve], t_b[curve] = _curve_labels(x0[curve], x1[curve],
                                                        (ends[curve] >= 0).any(axis=1))
    full = ~curve & np.isinf(x0) & np.isinf(x1)
    kind[full], t_a[full], t_b[full], ends[full] = FULL_LINE, math.nan, math.nan, -1
    edges = np.zeros(shown.size, EDGE)
    edges["pair"], edges["kind"], edges["t_a"], edges["t_b"] = arr.ids[idx[shown]], kind, t_a, t_b
    edges["node_a"], edges["node_b"] = ends.T
    edges["component"], edges["line"] = ci[shown], np.where(curve, -1, ci[shown])
    edges["a0"], edges["a1"] = edge_intervals(kind, t_a, t_b, curve)
    return edges, row[shown], ~has_rep


def visible_segments(
    gi: Generator,
    gj: Generator,
    vertex_params: dict[int, list[tuple[float, int | None]]],
    scene,
    length_scale: float | None = None,
) -> np.ndarray:
    """Visible pieces of the bisector of gi and gj, given vertex parameters per component.

    ``vertex_params`` maps component index -> list of (t, vertex id) with t
    in parameter space (math.inf marks the curve's far point); line
    components use the line's own linear parameter. Returns EDGE rows. A
    batch of one of the build's visibility pass, its entries made marks as
    ``_recover_params`` makes them; the build does not call it, and it stays
    because the benchmark's span tracer patches it by name.
    """
    arr = scene if isinstance(scene, SceneArrays) else SceneArrays(list(scene))
    if length_scale is None:
        length_scale = arr.scale()
    table, one = bisector_table([gi, gj]), np.zeros(1, dtype=np.int64)
    entries = np.array([(c, t, -1 if vid is None else vid) for c, found in vertex_params.items()
                        for t, vid in found], dtype=[("c", np.intp), ("t", float), ("v", np.intp)])
    comp, pos, split = entries["c"], entries["t"], np.ones(entries.size, dtype=bool)
    if not table.line_count[0]:
        _, lo, hi, closed = table.components(one)
        _, pos, split = _arc_marks(alphas_of_params(pos), lo[0, comp], hi[0, comp], closed[0])
    marks = _sorted_marks(np.zeros(comp.size, dtype=np.int64), comp, pos, entries["v"], split)
    return _visible_pieces(table, one, marks, arr, length_scale)[0]


# ------------------------------------------------------------ full pipeline


def _arc_marks(alpha, lo, hi, closed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(off, lo + off, split) of alphas on curve components (lo, hi): off
    from lo round the circle, and whether the mark splits the component (on
    a closed loop, or strictly inside the span)."""
    with np.errstate(invalid="ignore"):
        off = np.remainder(alpha - lo, TWO_PI)
        return off, lo + off, closed | ((0.0 < off) & (off < hi - lo))


def _sorted_marks(row, comp, pos, vertex, split) -> tuple[np.ndarray, ...]:
    """The columns (row, component, position, vertex) of the marks that
    split, sorted by row, component and position; ties keep their order."""
    keep = np.flatnonzero(split)
    keep = keep[np.lexsort((pos[keep], comp[keep], row[keep]))]
    return row[keep], comp[keep], pos[keep], vertex[keep]


def _recover_params(
    vertices: list[Vertex],
    table: BisectorTable,
    owner: np.ndarray,
    rows: np.ndarray,
    eps: float,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The vertex marks on the incidences (``_incidences``: vertex
    ``owner[k]`` on table row ``rows[k]``), each vertex's id its index.

    Curve parameters come from one ``params_of_points`` call over every
    (vertex, curved bisector) incidence, each on the first component that
    holds its alpha (one array pass), at the position of ``_arc_marks``;
    line parameters, their own positions, from one array pass over every
    (vertex, line) pair. Returns (the ``_sorted_marks`` columns, ties in
    incidence, then parameter order; the mask of the incidences that found
    no parameter: no point of the curve, or of any line of the bisector,
    lies within eps of the vertex).
    """
    pos = np.array([v.pos for v in vertices], dtype=float).reshape(-1, 2)[owner]
    count, lo, hi, closed = table.components(rows)
    lines = table.line_count[rows]
    # a curve's components are its arcs (two at most), a line bisector's its lines
    curves = np.flatnonzero(count > lines)
    ts, found = params_of_points(table.chart[rows[curves]], table.u_scale[rows[curves]],
                                 pos[curves], eps)
    k = curves[np.nonzero(found)[0]]
    off, at, split = _arc_marks(alphas_of_params(ts[found])[:, None], lo[k], hi[k],
                                closed[k, None])
    # a missing second component spans (-inf, inf), which holds no alpha
    hold = closed[k, None] | ((0.0 <= off) & (off <= hi[k] - lo[k]))
    got = np.flatnonzero(hold.any(axis=1))
    c, k = hold.argmax(axis=1)[got], k[got]
    # one entry per (incidence, line)
    lk = np.repeat(np.arange(rows.size), lines)
    lc = np.arange(lk.size) - np.repeat(np.cumsum(lines) - lines, lines)
    la, lb, l0 = table.lines[rows[lk], lc].T
    px, py = pos[lk, 0], pos[lk, 1]
    on_line = np.flatnonzero(np.abs(la * px + lb * py + l0) <= eps)
    t_line = (px + l0 * la) * -lb + (py + l0 * lb) * la
    miss = np.ones(rows.size, dtype=bool)
    miss[k] = miss[lk[on_line]] = False
    inc = np.concatenate([k, lk[on_line]])
    return _sorted_marks(rows[inc], np.concatenate([c, lc[on_line]]),
                         np.concatenate([at[got, c], t_line[on_line]]), owner[inc],
                         np.concatenate([split[got, c], np.ones(on_line.size, dtype=bool)])), miss


def build_diagram(generators: list[Generator], threads: int = 1) -> DiagramGraph:
    """Construct the diagram graph for a scene.

    Two steps drop geometry they cannot place, and each reports it as a
    mask that the build does not use: ``_recover_params`` returns ``miss``
    over the (vertex, bisector) incidences that found no parameter, so the
    vertex does not split that bisector; ``_visible_pieces`` returns the
    mask of candidate pieces without a representative point (a whole
    component whose midpoint is a singular parameter, or an interval with
    no finite probe), which are left out of the edges. The graph holds each
    edge's row of the all-pairs table. A repeated generator id raises
    InputError before any other work.
    """
    if not generators:
        raise NoSolutionError("a scene needs at least one generator")
    generator_index(generators)
    kept, _ = _dedup_generators(list(generators))
    arr = SceneArrays(kept)
    length_scale = arr.scale()

    # every pairwise bisector as one table row, classified once; the kept
    # generators are in id order, so the rows are in pair order
    table = bisector_table(kept)
    pair_row = table.pair_rows()

    cand, trip = vertex_candidates(arr, table.implicit, pair_row, threads)
    vertices = _cluster_vertices(kept, cand, trip, length_scale)
    owner, rows = _incidences(vertices, table, pair_row)
    pos = np.array([v.pos for v in vertices], dtype=float).reshape(-1, 2)
    _polish_vertices(pos, table, owner, rows, length_scale)
    # the vertices in (x, y) order, their incidences regrouped with them
    order = np.lexsort((pos[:, 1], pos[:, 0]))
    owner = np.argsort(order)[owner]
    regroup = np.argsort(owner, kind="stable")
    owner, rows = owner[regroup], rows[regroup]
    vertices = [Vertex(vid, pos[k], vertices[k].gens) for vid, k in enumerate(order.tolist())]

    marks, _recovery_miss = _recover_params(vertices, table, owner, rows,
                                            1e-7 * (1.0 + length_scale))
    edges, rows, _no_representative = _visible_pieces(
        table, np.arange(table.first.size), marks, arr, length_scale
    )
    return assemble_graph(generators, vertices, edges, table.take(rows))


def assemble_graph(generators: list[Generator], vertices: list[Vertex], edges: np.ndarray,
                   table: BisectorTable) -> DiagramGraph:
    """Diagram graph of ``edges`` (EDGE rows, ids their positions) and
    ``table``, row k for edge k.

    Derives the aliases, the length scale and the cell structure; the build
    and the JSON reader both assemble their graphs here. A cell's boundary
    components join its edges at shared end vertices, each sorted and in the
    order of its smallest edge: one ``connected_components`` pass over the
    (cell, edge) incidences and the (cell, vertex) keys of their ends. A
    cell without edges is empty, except where there is no edge at all: then
    the kept generator nearest a point away from the centres (the smallest
    id on a tie, as in ``oracle.rasterize``) owns the plane.
    """
    kept, aliases = _dedup_generators(list(generators))
    arr = SceneArrays(kept)
    n = len(edges)
    # the (cell, edge) incidences by cell, then edge, and one key per (cell,
    # vertex) of their ends as further graph nodes; an incidence's row links
    # it to its keys, and the key rows are empty
    cell, edge = edges["pair"].T.ravel(), np.tile(np.arange(n), 2)
    order = np.lexsort((edge, cell))
    cell, edge = cell[order], edge[order]
    ends = np.stack([edges["node_a"], edges["node_b"]], axis=1)[edge]
    count = (ends >= 0).sum(axis=1)
    inc = np.repeat(np.arange(2 * n), count)
    rank = np.cumsum(np.diff(cell, prepend=-1) != 0)
    key = np.unique(rank[inc] * (len(vertices) + 1) + ends[ends >= 0], return_inverse=True)[1]
    indptr = np.r_[0, np.cumsum(count), np.full(inc.size, inc.size)]
    links = csr_matrix((np.ones(inc.size), 2 * n + key, indptr), shape=(2 * n + inc.size,) * 2)
    label = connected_components(links, directed=False)[1][:2 * n]
    # a component is keyed by its first incidence, which holds its smallest
    # edge; the cell's later components start after it
    _, first, comp = np.unique(label, return_index=True, return_inverse=True)
    first = first[comp]
    regroup = np.argsort(first, kind="stable")
    cell_edges: dict[int, list[int]] = {g.id: [] for g in generators}
    cell_edges.update(_runs(cell, edge))
    cell_components: dict[int, list[list[int]]] = {g.id: [] for g in generators}
    cells = cell.tolist()
    for at, eids in _runs(first[regroup], edge[regroup]):
        cell_components[cells[at]].append(eids)
    empty = {gid for gid, eids in cell_edges.items() if not eids}
    if not n:
        empty.discard(int(arr.ids[arr.dist(arr.coef[:2].max(axis=1) + arr.scale()).argmin()]))
    return DiagramGraph(
        generators=list(generators),
        vertices=vertices,
        edges=edges,
        table=table,
        cell_edges=cell_edges,
        adjacency=set(map(tuple, edges["pair"].tolist())),
        cell_components=cell_components,
        empty_cells=frozenset(empty),
        aliases=aliases,
        length_scale=arr.scale(),
    )


def _runs(keys: np.ndarray, values: np.ndarray) -> list[tuple[int, list[int]]]:
    """(key, values) of each run of equal non-negative ``keys``."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()
    keys, values = keys.tolist(), values.tolist()
    return [(keys[lo], values[lo:hi]) for lo, hi in zip(starts, starts[1:] + [len(values)])]
