"""Full diagram construction: vertices, visible edge segments, topology.

The construction follows six steps:

1. Classify every pairwise bisector once, as one row of a bisector table
   (``bisector.bisector_table``: one stacked eigen-decomposition, curves
   parametrized and line pairs split in array form). No bisector object
   exists yet.
2. Intersect the bisector pair (E_ij, E_ik) of every generator triple for
   candidate vertices. Each bisector's conic is framed, scaled and given
   its determinant and adjugate once, from the table's implicit rows
   (``intersect.prepare_pairs``); a triple only gathers the rows of its two
   bisectors.
3. Keep candidates whose triple distance is the global minimum over all
   generators. A candidate leaves as soon as its likely winner (from a grid
   made once per build) or a block of generators proves it is not minimal,
   a decision the full scan would also make, so the kept set is the full
   scan's (see ``intersect.globally_minimal``).
4. Polish all vertices with Newton steps in one array pass over the
   implicit rows of their incident pairs (every pair of a vertex's
   generators, found through the table's pair rows), then recover each
   vertex's parameters on those rows: one ``params_of_points`` call covers
   every (vertex, curved bisector) incidence, and one array pass every
   (vertex, line) pair. The result is a set of vertex marks by table row
   and component.
5. Decide visibility in one pass over all table rows. Every component is
   one whole piece in array form; only a component that keeps a mark
   inside it is split at its marks (per-component interval bookkeeping).
   A piece is kept when its representative point has the component's
   generator pair as its two nearest. The representatives of all pieces
   come from one level loop (each level one array evaluation of the
   pieces still unresolved; only a lopsided piece at a singular end goes
   past the first). The graph keeps the table row of each edge (row k for
   edge k, ``BisectorTable.take``); no bisector object is built.
6. Assemble the edge/vertex graph: ``assemble_graph`` derives adjacency,
   per-cell edge lists and per-cell boundary components from the edges,
   for the build and for the JSON reader alike.

The triple loop is the O(n^3) heart and runs through the vectorized pencil
kernel in the fewest chunks of at most _TRIPLE_CHUNK triples, cut to equal
sizes so that the pool's threads get equal shares. A chunk is a range of
ranks in the lexicographic triple order and builds its own triples from
the O(n^2) pair arrays; no array over all C(n, 3) triples exists. The
minimality screen takes a chunk's candidates in one pass of long array
calls, which the pool's threads overlap. A chunk's pencil and minimality
temporaries peak at about 0.86 KB per triple (tracemalloc, paper-random
n=100), so the sweep holds about threads x _TRIPLE_CHUNK x 0.86 KB,
however many triples there are. The chunk count depends on the triple
count only. Chunks are independent and merged in rank order, so results
are identical for any thread count. Every batched step repeats the
operation order of its one-input form, so the diagram does not depend on
how the work is batched.

Curve bookkeeping happens on the circular alpha domain (alpha = 2 atan t),
where an ellipse is a plain circle, a hyperbola two arcs between its
singular parameters, and the point at t = +-inf is an ordinary interior
point. An EdgeSegment is published as labels in t, and its interval is
decoded from those labels, so a graph read back from its JSON carries the
same bits as the graph that wrote it (see ``_edge_interval``).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# the benchmark's span tracer patches make_bisector and param_of_point in this
# module by name, so they stay imported though nothing here calls them
from .bisector import (  # noqa: F401
    BisectorTable,
    bisector_table,
    make_bisector,
    param_of_point,
    params_of_points,
)
from .conic import (
    ConicImplicit,
    alpha_of_param,
    conic_matrices,
    line_points,
    param_of_alpha,
    points_at_alphas,
    wrap_angle,
    wrap_angles,
)
from .errors import InputError, NoSolutionError
from .geometry import Generator, SceneArrays, generator_index, hypots
from .intersect import PreparedPairs, globally_minimal, pencil_intersections_batch, prepare_pairs
from .tolerances import DEDUP_REL, PARAM_MERGE, VERT_REL

TWO_PI = 2.0 * math.pi
_TRIPLE_CHUNK = 8192
# points per visibility test: its (16, 4,096) blocks are 512 KB, small enough
# for the allocator to reuse freed memory instead of faulting in fresh pages
_POINT_CHUNK = 4096


@dataclass
class Vertex:
    """Diagram vertex: equidistant to >= 3 generators, globally minimal."""

    id: int
    pos: np.ndarray
    gens: frozenset[int]


@dataclass
class EdgeSegment:
    """Visible piece of one bisector component.

    An edge is published as its labels: kind plus t values. Kinds:
    "interval" (t_a < t_b, infinities allowed on line rays), "wrap" (through
    the t = inf point, so t_b <= t_a), "loop" (entire ellipse) and
    "full_line". Endpoints are vertex ids, or None for unbounded ends and
    closed pieces. ``a0`` < ``a1`` is the edge's parameter interval, decoded
    from the labels (``_edge_interval``): alphas of a curve piece (a1 = a0 +
    span, span <= 2 pi) or line parameters of a line piece, with infinite
    ends on rays.
    """

    id: int
    pair: tuple[int, int]
    kind: str
    t_a: float | None
    t_b: float | None
    endpoints: tuple[int | None, int | None]
    component: int
    line_index: int | None = None
    a0: float = field(init=False)
    a1: float = field(init=False)

    def __post_init__(self):
        self.a0, self.a1 = _edge_interval(self.kind, self.t_a, self.t_b, self.line_index)

    def is_curve(self) -> bool:
        return self.line_index is None

    def is_loop(self) -> bool:
        return self.kind == "loop"

    def is_finite(self) -> bool:
        """True for a closed loop or a piece with two finite ends."""
        if self.is_curve():
            return self.is_loop() or None not in self.endpoints
        return math.isfinite(self.a0) and math.isfinite(self.a1)


# ------------------------------------------------------------- edge labels
#
# The edge label format, (kind, t_a, t_b) with the line index, is known to
# this module alone: ``_curve_labels`` encodes a curve piece's alpha
# interval, and ``_edge_interval`` decodes the labels of any edge, built or
# read back from JSON, into its parameter interval. The far point t = inf
# sits at alpha = pi; an interval entering from it is labelled t_a = -inf
# and decodes to alpha -pi.


def _curve_labels(a0: float, a1: float, ends: tuple) -> tuple[str, float | None, float | None]:
    """(kind, t_a, t_b) of the curve piece on the alpha interval (a0, a1 = a0 + span)."""
    lo = wrap_angle(a0)
    hi = lo + (a1 - a0)
    if hi - lo >= TWO_PI - 1e-15 and ends == (None, None):
        return "loop", None, None
    t_a = -math.inf if lo == math.pi else param_of_alpha(lo)
    return "wrap" if lo < math.pi < hi else "interval", t_a, param_of_alpha(hi)


def _edge_interval(kind: str, t_a, t_b, line: int | None) -> tuple[float, float]:
    """The parameter interval (a0, a1) of an edge with these labels.

    A curve interval spans alpha_of_param(t_a) to alpha_of_param(t_b),
    lifted by one turn when it wraps through pi; a loop spans (-pi, pi). A
    line interval is (t_a, t_b), a full line (-inf, inf). Labels that name
    no edge raise InputError.
    """
    numbers = isinstance(t_a, (int, float)) and isinstance(t_b, (int, float))
    a0 = a1 = math.nan
    if line is not None:
        if kind == "full_line" and t_a is None and t_b is None:
            a0, a1 = -math.inf, math.inf
        elif kind == "interval" and numbers:
            a0, a1 = t_a, t_b
    elif kind == "loop" and t_a is None and t_b is None:
        a0, a1 = -math.pi, math.pi
    elif kind in ("interval", "wrap") and numbers:
        a0 = -math.pi if t_a == -math.inf else alpha_of_param(t_a)
        a1 = alpha_of_param(t_b)
        if kind == "wrap" or a1 < a0:
            a1 += TWO_PI
    if not a0 < a1:
        shape = "curve" if line is None else f"line {line}"
        raise InputError(f"kind {kind!r} with t_a {t_a!r}, t_b {t_b!r} names no {shape} edge")
    return a0, a1


@dataclass
class DiagramGraph:
    """A diagram: its edges, and row k of ``table`` is the bisector of edge k."""

    generators: list[Generator]
    vertices: list[Vertex]
    edges: list[EdgeSegment]
    table: BisectorTable
    cell_edges: dict[int, list[int]]
    adjacency: set[tuple[int, int]]
    cell_components: dict[int, list[list[int]]]
    empty_cells: frozenset[int]
    aliases: dict[int, int]
    length_scale: float

    def neighbors(self, gid: int) -> set[int]:
        out = set()
        for a, b in self.adjacency:
            if a == gid:
                out.add(b)
            elif b == gid:
                out.add(a)
        return out


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


class _TripleOrder:
    """The index triples i < j < k < n in lexicographic order, built by rank range.

    The pairs (j, k) of ``np.triu_indices`` are in lexicographic order, so
    the pairs that follow a first index i are the suffix starting at the
    first pair with j = i + 1. ``start[i]`` is the rank of the first triple
    with first index i. Only the O(n^2) pair arrays are held; the rows of a
    range are built when asked for.
    """

    def __init__(self, n: int):
        self.pj, self.pk = np.triu_indices(n, 1)
        first = np.arange(max(n - 2, 0))
        counts = (n - 1 - first) * (n - 2 - first) // 2  # pairs (j, k) with j > i
        self.start = np.concatenate([[0], np.cumsum(counts)])
        self.suffix = np.cumsum(n - 1 - first)  # first pair with j = i + 1
        self.count = int(self.start[-1])

    def ranges(self, parts: int) -> list[tuple[int, int]]:
        """``parts`` rank ranges [lo, hi) that cover the order, as
        ``np.array_split`` cuts it: sizes differ by one at most, the longer
        ranges first."""
        if parts == 0:
            return []
        size, extra = divmod(self.count, parts)
        bounds = np.cumsum([0] + [size + 1] * extra + [size] * (parts - extra))
        return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The triples of ranks lo to hi - 1, shape (hi - lo, 3), int64."""
        rank = np.arange(lo, hi)
        i = np.searchsorted(self.start, rank, side="right") - 1
        pair = rank - self.start[i] + self.suffix[i]
        return np.stack([i, self.pj[pair], self.pk[pair]], axis=1).astype(np.int64, copy=False)


def _candidate_chunk(
    chunk: np.ndarray,
    prep: PreparedPairs,
    pair_row: np.ndarray,
    arr: SceneArrays,
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex candidates for one chunk of index triples.

    Returns (points (K, 2), triple indices (K, 3)) for candidates that are
    equidistant to their triple and globally minimal.
    """
    ti, tj, tk = chunk[:, 0], chunk[:, 1], chunk[:, 2]
    pts, valid = pencil_intersections_batch(pair_row[ti, tj], pair_row[ti, tk], prep)
    slot = np.flatnonzero(valid)  # triple t, slot s at 4 t + s
    if slot.size == 0:
        return np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64)
    cand = np.take(pts.reshape(-1, 2), slot, axis=0)  # (K, 2)
    trip = np.take(chunk, slot // 4, axis=0)  # (K, 3)
    keep = globally_minimal(cand, trip, arr)
    return cand[keep], trip[keep]


def _collect_vertices(
    kept: list[Generator],
    arr: SceneArrays,
    prep: PreparedPairs,
    pair_row: np.ndarray,
    threads: int,
) -> list[Vertex]:
    order = _TripleOrder(len(kept))
    # chunk sizes differ by one triple at most; a chunk builds its own triples
    ranges = order.ranges(-(-order.count // _TRIPLE_CHUNK))
    arr.winner_grid  # read-only state of the minimality screen, made before the pool starts

    def run(r: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        return _candidate_chunk(order.rows(*r), prep, pair_row, arr)

    if threads <= 1 or len(ranges) <= 1:
        results = [run(r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, ranges))
    cand = np.concatenate([np.zeros((0, 2))] + [r[0] for r in results])
    trip = np.concatenate([np.zeros((0, 3), dtype=np.int64)] + [r[1] for r in results])
    # canonical order, then cluster within the dedup radius
    order = np.lexsort((cand[:, 1], cand[:, 0]))
    cand = cand[order]
    trip = trip[order]
    radius = DEDUP_REL * prep.length_scale
    vertices: list[Vertex] = []
    open_clusters: list[tuple[np.ndarray, set[int]]] = []  # (pos, gen ids)
    for pos, (i, j, k) in zip(cand, trip):
        ids = {kept[i].id, kept[j].id, kept[k].id}
        matched = False
        still_open = []
        for cpos, cgens in open_clusters:
            if pos[0] - cpos[0] > radius:
                vertices.append(Vertex(-1, cpos, frozenset(cgens)))
                continue
            still_open.append((cpos, cgens))
            if not matched and math.hypot(pos[0] - cpos[0], pos[1] - cpos[1]) <= radius:
                cgens.update(ids)
                matched = True
        open_clusters = still_open
        if not matched:
            open_clusters.append((pos, ids))
    for cpos, cgens in open_clusters:
        vertices.append(Vertex(-1, cpos, frozenset(cgens)))
    return vertices


def _incidences(vertices: list[Vertex], table: BisectorTable,
                pair_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vertex index, table row) of every pair of each vertex's generators,
    vertices in order and each vertex's pairs in order; ``pair_row`` is
    ``table.pair_rows()``."""
    index = {g.id: k for k, g in enumerate(table.generators)}
    found = np.array([(vi, pair_row[index[a], index[b]]) for vi, v in enumerate(vertices)
                      for a, b in itertools.combinations(sorted(v.gens), 2)],
                     dtype=np.int64).reshape(-1, 2)
    return found[:, 0], found[:, 1]


def _polish_vertices(
    vertices: list[Vertex],
    table: BisectorTable,
    pair_row: np.ndarray,
    length_scale: float,
) -> None:
    """Newton-refine each vertex on its two best-conditioned bisectors.

    The eigen route used for pencil intersections leaves a relative error a
    few orders above machine precision; two or three Newton steps on a
    transversal pair of implicit equations close that gap. All vertices are
    refined at once, on the implicit rows of their incident table rows: the
    best pair of a vertex is the first pair of its incident bisectors with
    the largest gradient sine.
    """
    max_step = DEDUP_REL * length_scale
    # one row per (vertex, incident bisector), one combo per pair of such rows
    row_vertex, rows = _incidences(vertices, table, pair_row)
    starts = np.flatnonzero(np.r_[True, row_vertex[1:] != row_vertex[:-1], True])
    combos = [k for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist())
              for k in itertools.combinations(range(lo, hi), 2)]
    if not combos:
        return
    c = table.implicit[rows]
    pos = np.array([v.pos for v in vertices], dtype=float)[row_vertex]
    # ConicImplicit with array fields evaluates one conic per entry
    gx, gy = ConicImplicit(*c.T).gradient(pos[:, 0], pos[:, 1])
    norm = hypots(gx, gy)
    ka, kb = np.array(combos).T
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
    moved = zip(owner[first].tolist(), x.tolist(), y.tolist(), (x - x0).tolist(), (y - y0).tolist())
    for vi, xv, yv, dx, dy in moved:
        if math.isfinite(xv) and math.isfinite(yv) and math.hypot(dx, dy) <= max_step:
            vertices[vi].pos = np.array([xv, yv])


# ------------------------------------------------------ visibility testing


def _two_nearest(points: np.ndarray, idx_i, idx_j, arr: SceneArrays) -> np.ndarray:
    """Per point k of (N, 2): True iff idx_i[k], idx_j[k] attain the two smallest distances.

    ``idx_i`` and ``idx_j`` are generator index arrays (N,), or one index
    each for all points. A point passes when max(d_i, d_j) <= d3 + VERT_REL
    (1 + |d3|), d3 its smallest distance to the other generators; the scan
    for d3 (``SceneArrays.screened_min``) drops a point as soon as a block
    of generators proves it fails.
    """
    if arr.n <= 2:
        return np.ones(points.shape[0], dtype=bool)
    n = points.shape[0]
    pair = np.stack([np.broadcast_to(idx_i, (n,)), np.broadcast_to(idx_j, (n,))], axis=1)
    d = arr.dist(points, pair)
    di, dj = d[:, 0], d[:, 1]
    far = np.where(dj > di, dj, di)
    alive, d3 = arr.screened_min(points, far, VERT_REL, skip=pair)
    visible = np.zeros(n, dtype=bool)
    visible[alive] = far[alive] <= d3 + VERT_REL * (1.0 + np.abs(d3))
    return visible


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


def merge_marks(marks: list[tuple], gap: float) -> list[tuple]:
    """Marks (position, payload) sorted by position, each dropped that lies
    within ``gap`` of the last one kept."""
    merged: list[tuple] = []
    for mark in sorted(marks, key=lambda m: m[0]):
        if merged and mark[0] - merged[-1][0] <= gap:
            continue
        merged.append(mark)
    return merged


def split_at_marks(marks: list[tuple], lo: float, hi: float, gap: float, closed: bool,
                   ends: tuple = (None, None)) -> list[tuple]:
    """Pieces (x0, x1, payload0, payload1) between sorted marks (position, payload).

    ``closed`` pairs the marks circularly on the alpha circle: a last mark
    within ``gap`` of the first one a turn later is dropped as its
    duplicate, and the last piece runs on to the first mark plus 2 pi.
    Otherwise the pieces run from ``lo`` through the marks to ``hi``, with
    ``ends`` as the payloads of ``lo`` and ``hi``, and pieces no longer than
    ``gap`` are dropped.
    """
    if closed:
        if len(marks) > 1 and (marks[0][0] + TWO_PI) - marks[-1][0] <= gap:
            marks = marks[:-1]
        return [
            (x0, x1 + TWO_PI if k + 1 == len(marks) else x1, p0, p1)
            for k, ((x0, p0), (x1, p1)) in enumerate(zip(marks, marks[1:] + marks[:1]))
        ]
    bounds = [(lo, ends[0]), *marks, (hi, ends[1])]
    return [(x0, x1, p0, p1) for (x0, p0), (x1, p1) in zip(bounds, bounds[1:]) if x1 - x0 > gap]


def ray_parameter(t0: float, t1: float) -> float:
    """Line parameter representing the piece (t0, t1): its midpoint, a step
    of max(1, |t|) in from the finite end t of a ray, or 0 for the whole line.

    A unit step from a vertex far out changes the distances there by less
    than the two-nearest slack VERT_REL (1 + |d|), so both halves of the
    line would pass; the step grows with the ray's start.
    """
    if math.isinf(t0) and math.isinf(t1):
        return 0.0
    if math.isinf(t0):
        return t1 - max(1.0, abs(t1))
    if math.isinf(t1):
        return t0 + max(1.0, abs(t0))
    return 0.5 * (t0 + t1)


def _split_component(
    entries: list[tuple[float, int | None]], lo: float, hi: float, closed: bool, line: bool,
) -> list[tuple]:
    """Pieces (x0, x1, v0, v1, mid, anchor) of one component between its
    vertex marks ``entries`` (t, vertex id, in vertex order), or [] when no
    mark lies inside the component.

    A line component splits at its marks' line parameters, and a piece is
    probed at its ``ray_parameter``. A curve component (lo, hi) splits in
    alpha at the marks strictly inside it (any mark, on a closed loop); a
    piece probes from its alpha midpoint toward anchor: its other end if
    exactly one end is a singular parameter, else the midpoint.
    """
    if line:
        marks = sorted(entries, key=lambda m: m[0])
        pieces = split_at_marks(marks, -math.inf, math.inf, PARAM_MERGE, False) if marks else []
        return [(t0, t1, v0, v1, t, t) for t0, t1, v0, v1 in pieces
                for t in (ray_parameter(t0, t1),)]
    span = hi - lo
    marks = []
    for t_val, vid in entries:
        off = (alpha_of_param(t_val) - lo) % TWO_PI
        if closed or 0.0 < off < span:
            marks.append((lo + off, vid))
    if not marks:
        return []
    gap = 2.0 * PARAM_MERGE
    out = []
    for a0, a1, v0, v1 in split_at_marks(merge_marks(marks, gap), lo, hi, gap, closed):
        s_lo = not closed and abs(a0 - lo) <= 1e-15
        s_hi = not closed and abs(a1 - hi) <= 1e-15
        mid = 0.5 * (a0 + a1)
        out.append((a0, a1, v0, v1, mid,
                    a1 if s_lo and not s_hi else a0 if s_hi and not s_lo else mid))
    return out


def _two_nearest_rows(
    points: np.ndarray, has_rep: np.ndarray, idx: np.ndarray, arr: SceneArrays
) -> np.ndarray:
    """Mask of the rows k of points (N, 2) with a representative (``has_rep``)
    whose generator pair idx[k] (N, 2) attains the two smallest distances; one
    ``_two_nearest`` test per ``_POINT_CHUNK`` such rows."""
    decided = np.flatnonzero(has_rep)
    visible = np.zeros(points.shape[0], dtype=bool)
    for lo in range(0, decided.size, _POINT_CHUNK):
        rows = decided[lo : lo + _POINT_CHUNK]
        visible[rows] = _two_nearest(points[rows], idx[rows, 0], idx[rows, 1], arr)
    return visible


def _visible_pieces(
    table: BisectorTable,
    rows: np.ndarray,
    marks: dict[int, dict[int, list[tuple[float, int | None]]]],
    arr: SceneArrays,
    length_scale: float,
) -> tuple[list[EdgeSegment], np.ndarray]:
    """Visible pieces of the bisectors ``rows`` of ``table``, decided together.

    ``marks[row][c]`` lists the vertex marks (t, vertex id) of component c
    of a row, in vertex order. Every component is one whole piece, in array
    form: a line probed at t = 0, a closed curve at alpha 0, an open one at
    the middle of its alpha span. Only a component that keeps a mark after
    the in-span filter is split, by ``_split_component``. The curve
    representatives of all pieces come from one level loop
    (``_curve_representatives``), the line representatives from one
    ``line_points`` call, and all are decided by one two-nearest test per
    ``_POINT_CHUNK`` points. ``arr`` holds every generator of ``table``.

    Returns (the visible pieces as EdgeSegments, by row, component and
    start; the mask over all candidate pieces of those without a
    representative). A piece without a representative is dropped: a whole
    component whose midpoint is a singular parameter, or an interval where
    no probe gives a finite point within 1e6 (1 + length_scale) of the
    origin.
    """
    count, lo, hi, closed = table.components(rows)
    owner = np.repeat(np.arange(rows.size), count)
    start = np.cumsum(count) - count
    ci = np.arange(owner.size) - np.repeat(start, count)
    row, lo, hi, closed = rows[owner], lo[owner, ci], hi[owner, ci], closed[owner]
    line = table.line_count[row] > 0
    mid = np.zeros(owner.size)
    arc = ~(line | closed)
    mid[arc] = 0.5 * (lo[arc] + hi[arc])
    # split the marked components; marks name rows of ``rows`` only
    offset = np.full(table.first.size, -1, dtype=np.int64)
    offset[rows] = start
    whole = np.ones(owner.size, dtype=bool)
    split: list[tuple] = []  # (x0, x1, v0, v1, mid, anchor) of _split_component
    split_comp: list[int] = []
    for r, by_comp in marks.items():
        for c, entries in by_comp.items():
            k = int(offset[r]) + c
            pieces = _split_component(entries, lo[k].item(), hi[k].item(), bool(closed[k]),
                                      bool(line[k]))
            whole[k] = not pieces
            split += pieces
            split_comp += [k] * len(pieces)
    keep = np.flatnonzero(whole)
    comp = np.concatenate([keep, np.array(split_comp, dtype=np.int64)])
    cut = np.array([(x0, x1, m, a) for x0, x1, _, _, m, a in split], dtype=float).reshape(-1, 4)
    x0, x1, probe, anchor = (np.concatenate([whole_form[keep], split_form])
                             for whole_form, split_form in zip((lo, hi, mid, mid), cut.T))
    ends = [(None, None)] * keep.size + [(v0, v1) for _, _, v0, v1, _, _ in split]
    row, ci, line = row[comp], ci[comp], line[comp]

    points = np.full((comp.size, 2), math.nan)
    has_rep = line.copy()
    points[line] = line_points(table.lines[row[line], ci[line]], probe[line])
    curve = np.flatnonzero(~line)
    points[curve], has_rep[curve] = _curve_representatives(
        table.chart[row[curve]], table.u_scale[row[curve]], probe[curve], anchor[curve],
        curve < keep.size, length_scale)
    gen = np.array([arr.id_to_index[g.id] for g in table.generators], dtype=np.int64)
    idx = np.stack([gen[table.first[row]], gen[table.second[row]]], axis=1)
    shown = np.flatnonzero(_two_nearest_rows(points, has_rep, idx, arr))
    # a component's edges in the order of their starts: the line parameter,
    # or the alpha of a curve piece wrapped to (-pi, pi], the far point at pi
    begin = x0[shown]
    begin[~line[shown]] = wrap_angles(begin[~line[shown]])
    shown = shown[np.lexsort((begin, ci[shown], row[shown]))]
    segments = [
        _piece_segment((i, j), c if is_line else None, c, a0, a1, *ends[k])
        for k, (i, j), c, is_line, a0, a1 in zip(
            shown.tolist(), arr.ids[idx[shown]].tolist(), ci[shown].tolist(),
            line[shown].tolist(), x0[shown].tolist(), x1[shown].tolist())
    ]
    return segments, ~has_rep


def visible_segments(
    gi: Generator,
    gj: Generator,
    vertex_params: dict[int, list[tuple[float, int | None]]],
    scene,
    length_scale: float | None = None,
) -> list[EdgeSegment]:
    """Visible pieces of the bisector of gi and gj, given vertex parameters per component.

    ``vertex_params`` maps component index -> list of (t, vertex id) with t
    in parameter space (math.inf marks the curve's far point); line
    components use the line's own linear parameter. Components without
    entries are tested whole at one representative each. Returned segments
    have id -1; the diagram assembly assigns canonical ids. A batch of one
    of the build's visibility pass, over a one-row table of the bisector's
    generator pair; the build does not call it, and it stays because the
    benchmark's span tracer patches it by name.
    """
    arr = scene if isinstance(scene, SceneArrays) else SceneArrays(list(scene))
    if length_scale is None:
        length_scale = arr.scale()
    table = bisector_table([gi, gj])
    return _visible_pieces(table, np.zeros(1, dtype=np.int64), {0: vertex_params}, arr,
                           length_scale)[0]


def _piece_segment(
    pair: tuple[int, int], line: int | None, ci: int, x0: float, x1: float,
    v0: int | None, v1: int | None,
) -> EdgeSegment:
    """EdgeSegment of the piece (x0, x1) of component ``ci`` of the bisector
    of ``pair``, a component on line ``line`` or, with None, a curve."""
    if line is None:
        kind, t_a, t_b = _curve_labels(x0, x1, (v0, v1))
        return EdgeSegment(-1, pair, kind, t_a, t_b, (v0, v1), ci)
    if math.isinf(x0) and math.isinf(x1):
        return EdgeSegment(-1, pair, "full_line", None, None, (None, None), ci, line)
    return EdgeSegment(-1, pair, "interval", x0, x1, (v0, v1), ci, line)


# ------------------------------------------------------------ full pipeline


def _recover_params(
    vertices: list[Vertex],
    table: BisectorTable,
    pair_row: np.ndarray,
    eps: float,
) -> tuple[dict[int, dict[int, list[tuple[float, int | None]]]], np.ndarray]:
    """Each vertex's parameters on its incident bisectors, by table row and component.

    The incidences are the pairs of each vertex's generators
    (``_incidences``). Curve parameters come from one ``params_of_points``
    call over every (vertex, curved bisector) incidence; line parameters
    from one array pass over every (vertex, line) pair. Returns (marks,
    miss): marks[row][c] lists (t, vertex id) in vertex order, and ``miss``
    masks the incidences (vertices in order, then their pairs in order) that
    found no parameter: no point of the curve, or of any line of the
    bisector, lies within eps of the vertex.
    """
    owner, rows = _incidences(vertices, table, pair_row)
    pos = np.array([v.pos for v in vertices], dtype=float).reshape(-1, 2)[owner]
    ids = [vertices[vi].id for vi in owner.tolist()]
    count, lo, hi, closed = table.components(rows)
    lines = table.line_count[rows]
    # a curve's components are its arcs, a line bisector's its lines
    curves = np.flatnonzero(count > lines)
    count, lo, hi, closed = (a.tolist() for a in (count, lo, hi, closed))
    miss = np.ones(rows.size, dtype=bool)
    marks: dict[int, dict[int, list[tuple[float, int | None]]]] = {}

    def add(k: int, c: int, t_val: float) -> None:
        marks.setdefault(int(rows[k]), {}).setdefault(c, []).append((t_val, ids[k]))
        miss[k] = False

    if curves.size:
        ts, found = params_of_points(table.chart[rows[curves]], table.u_scale[rows[curves]],
                                     pos[curves], eps)
        for k, t_row, hit in zip(curves.tolist(), ts.tolist(), found.tolist()):
            for t_val in (t for t, f in zip(t_row, hit) if f):
                a = alpha_of_param(t_val)
                # the first component that holds alpha
                for c in range(count[k]):
                    if closed[k] or 0.0 <= (a - lo[k][c]) % TWO_PI <= hi[k][c] - lo[k][c]:
                        add(k, c, t_val)
                        break
    # one entry per (incidence, line)
    lk = np.repeat(np.arange(rows.size), lines)
    lc = np.arange(lk.size) - np.repeat(np.cumsum(lines) - lines, lines)
    la, lb, l0 = table.lines[rows[lk], lc].T
    px, py = pos[lk, 0], pos[lk, 1]
    on_line = np.abs(la * px + lb * py + l0) <= eps
    t_line = (px + l0 * la) * -lb + (py + l0 * lb) * la
    for k, c, hit, t_val in zip(lk.tolist(), lc.tolist(), on_line.tolist(), t_line.tolist()):
        if hit:
            add(k, c, t_val)
    return marks, miss


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
    center = (
        0.5 * (float(arr.px.min()) + float(arr.px.max())),
        0.5 * (float(arr.py.min()) + float(arr.py.max())),
    )

    # every pairwise bisector as one table row, classified once; the kept
    # generators are in id order, so the rows are in pair order
    table = bisector_table(kept)
    prep = prepare_pairs(conic_matrices(table.implicit), length_scale, center)
    pair_row = table.pair_rows()

    vertices = _collect_vertices(kept, arr, prep, pair_row, threads)
    _polish_vertices(vertices, table, pair_row, length_scale)
    vertices.sort(key=lambda v: (v.pos[0], v.pos[1]))
    for vid, v in enumerate(vertices):
        v.id = vid

    marks, _recovery_miss = _recover_params(vertices, table, pair_row, 1e-7 * (1.0 + length_scale))
    edges, _no_representative = _visible_pieces(
        table, np.arange(table.first.size), marks, arr, length_scale
    )
    for eid, e in enumerate(edges):
        e.id = eid
    index = arr.id_to_index
    rows = [pair_row[index[a], index[b]] for a, b in (e.pair for e in edges)]
    return assemble_graph(generators, vertices, edges, table.take(rows))


def assemble_graph(generators: list[Generator], vertices: list[Vertex], edges: list[EdgeSegment],
                   table: BisectorTable) -> DiagramGraph:
    """Diagram graph of ``edges``, ids their positions, and ``table``, row k for edge k.

    Derives the aliases, the length scale and the cell structure (adjacency,
    cell edge lists, boundary components, empty cells); the build and the
    JSON reader both assemble their graphs here.
    """
    kept, aliases = _dedup_generators(list(generators))
    adjacency = {e.pair for e in edges}
    cell_edges: dict[int, list[int]] = {g.id: [] for g in generators}
    for e in edges:
        cell_edges[e.pair[0]].append(e.id)
        cell_edges[e.pair[1]].append(e.id)
    ends = [e.endpoints for e in edges]
    cell_components = {gid: _boundary_components(eids, ends) for gid, eids in cell_edges.items()}
    empty = frozenset(
        gid for gid, eids in cell_edges.items() if not eids and len(generators) >= 2
    )
    return DiagramGraph(
        generators=list(generators),
        vertices=vertices,
        edges=edges,
        table=table,
        cell_edges=cell_edges,
        adjacency=adjacency,
        cell_components=cell_components,
        empty_cells=empty,
        aliases=aliases,
        length_scale=SceneArrays(kept).scale(),
    )


def _boundary_components(edge_ids: list[int], ends: list[tuple]) -> list[list[int]]:
    """Group a cell's edges into connected components via shared vertices.

    ``ends[e]`` holds the endpoint vertex ids of edge e. Components come in
    the order of their smallest edge id, each sorted.
    """
    by_vertex: dict[int, list[int]] = {}
    for eid in edge_ids:
        for vid in ends[eid]:
            if vid is not None:
                by_vertex.setdefault(vid, []).append(eid)
    seen: set[int] = set()
    groups = []
    for eid in sorted(edge_ids):
        if eid in seen:
            continue
        seen.add(eid)
        group, stack = [], [eid]
        while stack:
            cur = stack.pop()
            group.append(cur)
            for vid in ends[cur]:
                for other in by_vertex.get(vid, ()):
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        groups.append(sorted(group))
    return groups
