"""Full diagram construction: vertices, visible edge segments, topology.

The construction follows six steps:

1. Build all pairwise bisectors in one batch (``make_bisectors``: one
   stacked eigen-decomposition, array-level parametrization).
2. Intersect the bisector pair (E_ij, E_ik) of every generator triple for
   candidate vertices.
3. Keep candidates whose triple distance is the global minimum over all
   generators. The generators are scanned in blocks with a running minimum,
   and a candidate leaves as soon as one block proves it is not minimal;
   that drop is a decision the full scan would also make, so the kept set
   is the full scan's (see ``_globally_minimal``).
4. Polish all vertices with Newton steps in one array pass, then recover
   each vertex's parameters on its incident bisectors: one
   ``params_of_points`` call covers every (vertex, curved bisector)
   incidence, and one array pass every (vertex, line) pair.
5. Split every bisector component at its vertex parameters (per-bisector
   interval bookkeeping) and keep the pieces whose representative point has
   the component's generator pair as its two nearest. The representatives
   of all pieces of all bisectors are evaluated as arrays and decided
   together, one distance evaluation per chunk of points.
6. Assemble the edge/vertex graph with adjacency, per-cell edge lists and
   per-cell boundary components.

The triple loop is the O(n^3) heart and runs through the vectorized pencil
kernel in fixed-size chunks. Chunks are independent and merged in index
order, so results are identical for any thread count. Every batched step
repeats the operation order of its one-input form, so the diagram does not
depend on how the work is batched.

Curve bookkeeping happens on the circular alpha domain (alpha = 2 atan t),
where an ellipse is a plain circle, a hyperbola two arcs between its
singular parameters, and the point at t = +-inf is an ordinary interior
point. Only the published EdgeSegment labels convert back to t values.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# make_bisector and param_of_point are not called here; they stay bound because
# the benchmark's span tracer patches them in this module by name
from .bisector import (  # noqa: F401
    Bisector,
    make_bisector,
    make_bisectors,
    param_of_point,
    params_of_points,
)
from .conic import (
    ConicImplicit,
    alpha_of_param,
    chart_coefficients,
    conic_matrices,
    param_of_alpha,
    points_at_alphas,
    wrap_angle,
)
from .errors import NoSolutionError, SingularParameterError
from .geometry import Generator, SceneArrays
from .intersect import pencil_intersections_batch
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

TWO_PI = 2.0 * math.pi
_TRIPLE_CHUNK = 32768
_POINT_CHUNK = 16384
_GEN_BLOCK = 16


@dataclass
class Vertex:
    """Diagram vertex: equidistant to >= 3 generators, globally minimal."""

    id: int
    pos: np.ndarray
    gens: frozenset[int]


@dataclass
class EdgeSegment:
    """Visible piece of one bisector component.

    Kinds: "interval" (t_a < t_b, infinities allowed on line rays),
    "wrap" (through the t = inf point, so t_b <= t_a), "loop" (entire
    ellipse) and "full_line". Endpoints are vertex ids, or None for
    unbounded ends and closed pieces. Curve pieces also carry their alpha
    interval (alpha_b = alpha_a + span, span <= 2 pi).
    """

    id: int
    pair: tuple[int, int]
    kind: str
    t_a: float | None
    t_b: float | None
    endpoints: tuple[int | None, int | None]
    component: int
    line_index: int | None = None
    alpha_a: float | None = None
    alpha_b: float | None = None

    def is_curve(self) -> bool:
        return self.alpha_a is not None

    def is_finite(self) -> bool:
        """True for a closed loop or a piece with two finite ends."""
        if self.is_curve():
            return self.kind == "loop" or None not in self.endpoints
        return (self.kind != "full_line" and self.t_a is not None and self.t_b is not None
                and math.isfinite(self.t_a) and math.isfinite(self.t_b))


@dataclass
class DiagramGraph:
    generators: list[Generator]
    vertices: list[Vertex]
    edges: list[EdgeSegment]
    bisectors: dict[tuple[int, int], Bisector]
    cell_edges: dict[int, list[int]]
    adjacency: set[tuple[int, int]]
    cell_components: dict[int, list[list[int]]]
    empty_cells: frozenset[int]
    aliases: dict[int, int]
    length_scale: float
    tol: ToleranceSet

    def edge_bisector(self, e: EdgeSegment) -> Bisector:
        return self.bisectors[e.pair]

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


def _triple_arrays(n: int) -> np.ndarray:
    """All index triples i < j < k < n, in lexicographic order, shape (C(n, 3), 3).

    The pairs (j, k) of ``np.triu_indices`` are in lexicographic order, so
    the pairs that follow a first index i are the suffix starting at the
    first pair with j = i + 1.
    """
    if n < 3:
        return np.zeros((0, 3), dtype=np.int64)
    pj, pk = np.triu_indices(n, 1)
    first = np.arange(n - 2)
    counts = (n - 1 - first) * (n - 2 - first) // 2  # pairs (j, k) with j > i
    suffix = np.cumsum(n - 1 - first)  # first pair with j = i + 1
    block = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rows = np.arange(int(counts.sum())) + np.repeat(suffix - block, counts)
    return np.stack([np.repeat(first, counts), pj[rows], pk[rows]], axis=1).astype(np.int64)


def _globally_minimal(
    cand: np.ndarray, trip: np.ndarray, arr: SceneArrays, tol: ToleranceSet
) -> np.ndarray:
    """Keep mask of candidates whose triple distance is the global minimum.

    A candidate is kept iff d_trip - d_min <= vert_rel (1 + |d_min|), with
    d_trip its smallest distance to its three triple generators and d_min
    the smallest distance to any generator. The generators are scanned in
    blocks of _GEN_BLOCK columns with a running minimum m >= d_min, and a
    candidate is dropped as soon as d_trip - m > 2 vert_rel (1 + |m|).
    Lowering m by some delta raises the left side by delta and the right side
    by at most 2 vert_rel delta, so such a candidate fails the final test too;
    the factor 2 covers the rounding of both sides. Candidates that are
    never dropped are decided with the full minimum, which is the same float
    as a full scan gives.
    """
    d_trip = arr.dist(cand, trip).min(axis=1)
    m = np.full(cand.shape[0], np.inf)
    alive = np.arange(cand.shape[0])
    for lo in range(0, arr.n, _GEN_BLOCK):
        m_alive = np.minimum(
            m[alive], arr.dist(cand[alive], np.arange(lo, min(lo + _GEN_BLOCK, arr.n))).min(axis=1)
        )
        m[alive] = m_alive
        dropped = d_trip[alive] - m_alive > 2.0 * tol.vert_rel * (1.0 + np.abs(m_alive))
        alive = alive[~dropped]
        if alive.size == 0:
            break
    keep = np.zeros(cand.shape[0], dtype=bool)
    d_min = m[alive]
    keep[alive] = d_trip[alive] - d_min <= tol.vert_rel * (1.0 + np.abs(d_min))
    return keep


def _candidate_chunk(
    chunk: np.ndarray,
    pair_mats: np.ndarray,
    pair_row: np.ndarray,
    arr: SceneArrays,
    length_scale: float,
    center: tuple[float, float],
    tol: ToleranceSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex candidates for one chunk of index triples.

    Returns (points (K, 2), triple indices (K, 3)) for candidates that are
    equidistant to their triple and globally minimal.
    """
    ti, tj, tk = chunk[:, 0], chunk[:, 1], chunk[:, 2]
    d1 = pair_mats[pair_row[ti, tj]]
    d2 = pair_mats[pair_row[ti, tk]]
    pts, valid = pencil_intersections_batch(d1, d2, length_scale, tol, center)
    t_idx, slot = np.nonzero(valid)
    if t_idx.size == 0:
        return np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64)
    cand = pts[t_idx, slot]  # (K, 2)
    trip = chunk[t_idx]  # (K, 3)
    keep = np.concatenate(
        [
            _globally_minimal(cand[lo : lo + _POINT_CHUNK], trip[lo : lo + _POINT_CHUNK], arr, tol)
            for lo in range(0, cand.shape[0], _POINT_CHUNK)
        ]
    )
    return cand[keep], trip[keep]


def _collect_vertices(
    kept: list[Generator],
    arr: SceneArrays,
    pair_mats: np.ndarray,
    pair_row: np.ndarray,
    length_scale: float,
    center: tuple[float, float],
    tol: ToleranceSet,
    threads: int,
) -> list[Vertex]:
    n = len(kept)
    triples = _triple_arrays(n)
    chunks = [
        triples[lo : lo + _TRIPLE_CHUNK] for lo in range(0, triples.shape[0], _TRIPLE_CHUNK)
    ]
    if not chunks:
        results = []
    elif threads <= 1 or len(chunks) == 1:
        results = [
            _candidate_chunk(c, pair_mats, pair_row, arr, length_scale, center, tol)
            for c in chunks
        ]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(
                    lambda c: _candidate_chunk(
                        c, pair_mats, pair_row, arr, length_scale, center, tol
                    ),
                    chunks,
                )
            )
    cand_list = [r[0] for r in results if r[0].shape[0]]
    trip_list = [r[1] for r in results if r[1].shape[0]]
    if not cand_list:
        return []
    cand = np.concatenate(cand_list)
    trip = np.concatenate(trip_list)
    # canonical order, then cluster within the dedup radius
    order = np.lexsort((cand[:, 1], cand[:, 0]))
    cand = cand[order]
    trip = trip[order]
    radius = tol.dedup_rel * length_scale
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


def _polish_vertices(
    vertices: list[Vertex],
    bisectors: dict[tuple[int, int], Bisector],
    length_scale: float,
    tol: ToleranceSet,
) -> None:
    """Newton-refine each vertex on its two best-conditioned bisectors.

    The eigen route used for pencil intersections leaves a relative error a
    few orders above machine precision; two or three Newton steps on a
    transversal pair of implicit equations close that gap. All vertices are
    refined at once: the best pair of a vertex is the first pair of its
    incident bisectors with the largest gradient sine.
    """
    max_step = tol.dedup_rel * length_scale
    # one row per (vertex, incident bisector), one combo per pair of such rows
    coeffs: list[tuple[float, ...]] = []
    row_vertex: list[int] = []
    combo_a: list[int] = []
    combo_b: list[int] = []
    for vi, v in enumerate(vertices):
        pairs = [p for p in itertools.combinations(sorted(v.gens), 2) if p in bisectors]
        if len(pairs) < 2:
            continue
        base = len(coeffs)
        coeffs.extend(bisectors[p].implicit.coeffs() for p in pairs)
        row_vertex.extend([vi] * len(pairs))
        for ka, kb in itertools.combinations(range(base, base + len(pairs)), 2):
            combo_a.append(ka)
            combo_b.append(kb)
    if not combo_a:
        return
    c = np.array(coeffs)
    pos = np.array([vertices[vi].pos for vi in row_vertex], dtype=float)
    # ConicImplicit with array fields evaluates one conic per entry
    gx, gy = ConicImplicit(*c.T).gradient(pos[:, 0], pos[:, 1])
    norm = np.array([math.hypot(a, b) for a, b in zip(gx.tolist(), gy.tolist())])
    ka, kb = np.array(combo_a), np.array(combo_b)
    usable = (norm[ka] != 0.0) & (norm[kb] != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sine = np.abs(gx[ka] * gy[kb] - gy[ka] * gx[kb]) / (norm[ka] * norm[kb])
    # per vertex, the first combo of largest sine (ties keep the earlier one)
    owner = np.array(row_vertex)[ka]
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


def _two_nearest(
    points: np.ndarray, idx_i, idx_j, arr: SceneArrays, tol: ToleranceSet
) -> np.ndarray:
    """Per point k of (N, 2): True iff idx_i[k], idx_j[k] attain the two smallest distances.

    ``idx_i`` and ``idx_j`` are generator index arrays (N,), or one index
    each for all points.
    """
    if arr.n <= 2:
        return np.ones(points.shape[0], dtype=bool)
    d = arr.dist(points)
    rows = np.arange(points.shape[0])
    di, dj = d[rows, idx_i], d[rows, idx_j]
    d[rows, idx_i] = np.inf
    d[rows, idx_j] = np.inf
    d3 = d.min(axis=1)
    return np.where(dj > di, dj, di) <= d3 + tol.vert_rel * (1.0 + np.abs(d3))


def _probe_alphas(a_lo: float, a_hi: float, lo_singular: bool, hi_singular: bool):
    """The alphas tried, in order, for a representative strictly inside (a_lo, a_hi).

    The midpoint works unless an endpoint is a singular parameter and the
    interval is lopsided; then the probes move geometrically closer to the
    finite end.
    """
    mid = 0.5 * (a_lo + a_hi)
    anchor = mid
    if lo_singular and not hi_singular:
        anchor = a_hi
    elif hi_singular and not lo_singular:
        anchor = a_lo
    for k in range(60):
        yield anchor + (mid - anchor) * (0.5**k) if anchor != mid else mid


def _arc_representative(
    b: Bisector, a_lo: float, a_hi: float, lo_singular: bool, hi_singular: bool,
    length_scale: float, tol: ToleranceSet,
) -> np.ndarray | None:
    """Finite representative point strictly inside an alpha interval.

    Tries the probes of ``_probe_alphas`` until the denominator and the
    coordinates are sane.
    """
    assert b.param is not None
    limit = 1e6 * (1.0 + length_scale)
    for alpha in _probe_alphas(a_lo, a_hi, lo_singular, hi_singular):
        try:
            q = b.param.point_at_alpha(alpha, tol)
        except SingularParameterError:
            continue
        if np.all(np.isfinite(q)) and max(abs(q[0]), abs(q[1])) <= limit:
            return q
        if not (lo_singular or hi_singular):
            return None
    return None


def _candidate_pieces(
    b: Bisector, vertex_params: dict[int, list[tuple[float, int | None]]], tol: ToleranceSet
) -> tuple[list[EdgeSegment], list]:
    """Split each component of a bisector at its vertex parameters.

    Returns the candidate pieces and, per piece, what locates its
    representative: a point for a line piece, and for a curve piece the
    tuple (alpha, a_lo, a_hi, lo_singular, hi_singular, whole) with the
    alpha to try first. A whole component (``whole`` set) is represented by
    its midpoint whenever that is not a singular parameter.
    """
    pieces: list[EdgeSegment] = []
    reps: list = []
    for ci, comp in enumerate(b.components):
        entries = list(vertex_params.get(ci, ()))
        if comp.kind == "line":
            line = b.lines[comp.line_index]
            params = sorted(entries, key=lambda e: e[0])
            if not params:
                reps.append(line.point_at(0.0))
                pieces.append(
                    EdgeSegment(-1, b.pair, "full_line", None, None, (None, None), ci, comp.line_index)
                )
                continue
            ts = [p[0] for p in params]
            vids = [p[1] for p in params]
            bounds = [-math.inf] + ts + [math.inf]
            ends: list[int | None] = [None] + vids + [None]
            for k in range(len(bounds) - 1):
                t0, t1 = bounds[k], bounds[k + 1]
                if t1 - t0 <= tol.param_merge:
                    continue
                if math.isinf(t0):
                    rep_t = t1 - 1.0
                elif math.isinf(t1):
                    rep_t = t0 + 1.0
                else:
                    rep_t = 0.5 * (t0 + t1)
                reps.append(line.point_at(rep_t))
                pieces.append(
                    EdgeSegment(
                        -1, b.pair, "interval", t0, t1, (ends[k], ends[k + 1]), ci, comp.line_index
                    )
                )
            continue

        # curve component: work in alpha
        whole = (comp.midpoint(), comp.lo, comp.hi, False, False, True)
        if not entries:
            reps.append(whole)
            pieces.append(_whole_component_segment(b, ci))
            continue

        # vertex alphas, positioned inside the component's (lo, hi) frame
        span = comp.hi - comp.lo
        marks: list[tuple[float, int | None]] = []
        for t_val, vid in entries:
            a = alpha_of_param(t_val)
            off = (a - comp.lo) % TWO_PI
            if comp.closed:
                marks.append((comp.lo + off, vid))
            elif 0.0 < off < span:
                marks.append((comp.lo + off, vid))
        marks.sort(key=lambda m: m[0])
        merged: list[tuple[float, int | None]] = []
        for a, vid in marks:
            if merged and a - merged[-1][0] <= 2.0 * tol.param_merge:
                continue
            merged.append((a, vid))
        if not merged:
            reps.append(whole)
            pieces.append(_whole_component_segment(b, ci))
            continue

        if comp.closed:
            # circular splitting: segment k runs from mark k to mark k+1
            if len(merged) > 1:
                first_a, last_a = merged[0][0], merged[-1][0]
                if (first_a + TWO_PI) - last_a <= 2.0 * tol.param_merge:
                    merged.pop()
            intervals = []
            for k in range(len(merged)):
                a0, v0 = merged[k]
                if len(merged) == 1:
                    intervals.append((a0, a0 + TWO_PI, v0, v0))
                    break
                a1, v1 = merged[(k + 1) % len(merged)]
                if k + 1 == len(merged):
                    a1 += TWO_PI
                intervals.append((a0, a1, v0, v1))
            singular_flags = [(False, False)] * len(intervals)
        else:
            bounds_a = [comp.lo] + [m[0] for m in merged] + [comp.hi]
            bound_v: list[int | None] = [None] + [m[1] for m in merged] + [None]
            intervals = [
                (bounds_a[k], bounds_a[k + 1], bound_v[k], bound_v[k + 1])
                for k in range(len(bounds_a) - 1)
                if bounds_a[k + 1] - bounds_a[k] > 2.0 * tol.param_merge
            ]
            singular_flags = [
                (abs(a0 - comp.lo) <= 1e-15, abs(a1 - comp.hi) <= 1e-15)
                for (a0, a1, _, _) in intervals
            ]

        for (a0, a1, v0, v1), (s_lo, s_hi) in zip(intervals, singular_flags):
            reps.append((next(_probe_alphas(a0, a1, s_lo, s_hi)), a0, a1, s_lo, s_hi, False))
            pieces.append(_curve_segment(b, ci, a0, a1, v0, v1))
    return pieces, reps


def _visible_pieces(
    bisectors: list[Bisector],
    vertex_params: list[dict[int, list[tuple[float, int | None]]]],
    arr: SceneArrays,
    tol: ToleranceSet,
    length_scale: float,
) -> tuple[list[EdgeSegment], np.ndarray]:
    """Visible pieces of many bisectors, decided together.

    ``vertex_params[k]`` holds the vertex parameters of ``bisectors[k]`` by
    component. The curve representatives of all candidate pieces are
    evaluated as arrays at their first probe; a lopsided piece whose first
    probe fails falls back to the probe loop of ``_arc_representative``.
    All representatives are then decided by one two-nearest test per
    ``_POINT_CHUNK`` points.

    Returns (visible pieces in bisector, component and piece order; the
    mask over all candidate pieces of those without a representative). A
    piece without a representative is dropped: a whole component whose
    midpoint is a singular parameter, or an interval where no probe gives a
    finite point within 1e6 (1 + length_scale) of the origin.
    """
    pieces: list[EdgeSegment] = []
    owner: list[int] = []
    reps: list = []
    for k, (b, params) in enumerate(zip(bisectors, vertex_params)):
        segs, b_reps = _candidate_pieces(b, params, tol)
        pieces.extend(segs)
        reps.extend(b_reps)
        owner.extend([k] * len(segs))
    points = np.full((len(pieces), 2), math.nan)
    has_rep = np.array([not isinstance(rep, tuple) for rep in reps], dtype=bool)
    for r in np.flatnonzero(has_rep).tolist():
        points[r] = reps[r]
    curve = np.flatnonzero(~has_rep)
    if curve.size:
        spec = [reps[r] for r in curve.tolist()]
        params = [bisectors[owner[r]].param for r in curve.tolist()]
        x, y, _, _, singular = points_at_alphas(
            chart_coefficients(params), np.array([p.u_scale for p in params]),
            np.array([sp[0] for sp in spec]), tol,
        )
        whole = np.array([sp[5] for sp in spec], dtype=bool)
        limit = 1e6 * (1.0 + length_scale)
        with np.errstate(invalid="ignore"):
            sane = np.isfinite(x) & np.isfinite(y) & (np.maximum(np.abs(x), np.abs(y)) <= limit)
        ok = ~singular & (whole | sane)
        points[curve[ok]] = np.column_stack([x, y])[ok]
        has_rep[curve[ok]] = True
        # a lopsided interval at a singular end probes closer to its finite end
        for c in np.flatnonzero(~ok & ~whole).tolist():
            _, a0, a1, s_lo, s_hi, _ = spec[c]
            if s_lo or s_hi:
                b = bisectors[owner[curve[c]]]
                q = _arc_representative(b, a0, a1, s_lo, s_hi, length_scale, tol)
                if q is not None:
                    points[curve[c]] = q
                    has_rep[curve[c]] = True
    decided = np.flatnonzero(has_rep)
    pair_idx = np.array(
        [(arr.id_to_index[b.i], arr.id_to_index[b.j]) for b in bisectors], dtype=np.int64
    ).reshape(-1, 2)
    idx = pair_idx[np.array(owner, dtype=np.int64)[decided]]
    visible = np.zeros(len(pieces), dtype=bool)
    for lo in range(0, decided.size, _POINT_CHUNK):
        rows = decided[lo : lo + _POINT_CHUNK]
        visible[rows] = _two_nearest(
            points[rows], idx[lo : lo + _POINT_CHUNK, 0], idx[lo : lo + _POINT_CHUNK, 1], arr, tol
        )
    return [seg for seg, ok in zip(pieces, visible.tolist()) if ok], ~has_rep


def visible_segments(
    b: Bisector,
    vertex_params: dict[int, list[tuple[float, int | None]]],
    scene,
    tol: ToleranceSet = DEFAULT_TOLERANCES,
    length_scale: float | None = None,
) -> list[EdgeSegment]:
    """Visible pieces of a bisector, given vertex parameters per component.

    ``vertex_params`` maps component index -> list of (t, vertex id) with t
    in parameter space (math.inf marks the curve's far point); line
    components use the line's own linear parameter. Components without
    entries are tested whole at one representative each. Returned segments
    have id -1; the diagram assembly assigns canonical ids. A batch of one
    of the build's visibility decision.
    """
    arr = scene if isinstance(scene, SceneArrays) else SceneArrays(list(scene))
    if length_scale is None:
        length_scale = arr.scale()
    return _visible_pieces([b], [vertex_params], arr, tol, length_scale)[0]


def _whole_component_segment(b: Bisector, ci: int) -> EdgeSegment:
    comp = b.components[ci]
    if comp.closed:
        return EdgeSegment(-1, b.pair, "loop", None, None, (None, None), ci, None, -math.pi, math.pi)
    return _curve_segment(b, ci, comp.lo, comp.hi, None, None)


def _curve_segment(
    b: Bisector, ci: int, a0: float, a1: float, v0: int | None, v1: int | None
) -> EdgeSegment:
    """Build a curve EdgeSegment from an alpha interval (a1 = a0 + span)."""
    lo = wrap_angle(a0)
    hi = lo + (a1 - a0)
    if hi - lo >= TWO_PI - 1e-15 and v0 is None and v1 is None:
        return EdgeSegment(-1, b.pair, "loop", None, None, (None, None), ci, None, lo, hi)
    wraps = lo < math.pi < hi
    t_a = param_of_alpha(lo)
    t_b = param_of_alpha(hi)
    if wraps:
        kind = "wrap"
    else:
        kind = "interval"
        if math.isinf(t_a) and lo >= math.pi:
            t_a = -math.inf  # interval starting at the far point, entering from below
    return EdgeSegment(-1, b.pair, kind, t_a, t_b, (v0, v1), ci, None, lo, hi)


# ------------------------------------------------------------ full pipeline


def _recover_params(
    vertices: list[Vertex],
    bisectors: dict[tuple[int, int], Bisector],
    eps: float,
    tol: ToleranceSet,
) -> tuple[dict[tuple[int, int], dict[int, list[tuple[float, int | None]]]], np.ndarray]:
    """Each vertex's parameters on its incident bisectors, by bisector component.

    Curve parameters come from one ``params_of_points`` call over every
    (vertex, curved bisector) incidence; line parameters from one array pass
    over every (vertex, line) pair. Returns (params_by_pair, miss):
    params_by_pair[pair][ci] lists (t, vertex id) in vertex order, and
    ``miss`` masks the incidences (vertices in order, then their pairs in
    order) that found no parameter: no point of the curve, or of any line of
    the bisector, lies within eps of the vertex.
    """
    incidences = [
        (v, b)
        for v in vertices
        for pair in itertools.combinations(sorted(v.gens), 2)
        if (b := bisectors.get(pair)) is not None
    ]
    miss = np.ones(len(incidences), dtype=bool)
    params_by_pair: dict[tuple[int, int], dict[int, list[tuple[float, int | None]]]] = {}

    def add(k: int, ci: int, t_val: float) -> None:
        v, b = incidences[k]
        params_by_pair.setdefault(b.pair, {}).setdefault(ci, []).append((t_val, v.id))
        miss[k] = False

    curves = [k for k, (_, b) in enumerate(incidences) if b.param is not None]
    if curves:
        params = [incidences[k][1].param for k in curves]
        ts, found = params_of_points(
            chart_coefficients(params),
            np.array([p.u_scale for p in params]),
            np.array([incidences[k][0].pos for k in curves]),
            eps,
            tol,
        )
        for k, row, hit in zip(curves, ts.tolist(), found.tolist()):
            components = incidences[k][1].components
            for t_val in (t for t, f in zip(row, hit) if f):
                a = alpha_of_param(t_val)
                for ci, comp in enumerate(components):
                    if comp.contains_alpha(a):
                        add(k, ci, t_val)
                        break
    rows = [
        (k, ci, b.lines[comp.line_index])
        for k, (_, b) in enumerate(incidences)
        if b.param is None
        for ci, comp in enumerate(b.components)
    ]
    if rows:
        la, lb, lc = (np.array([getattr(r[2], f) for r in rows]) for f in "abc")
        pos = np.array([incidences[r[0]][0].pos for r in rows])
        px, py = pos[:, 0], pos[:, 1]
        on_line = np.abs(la * px + lb * py + lc) <= eps
        t_line = (px + lc * la) * -lb + (py + lc * lb) * la
        for (k, ci, _), hit, t_val in zip(rows, on_line.tolist(), t_line.tolist()):
            if hit:
                add(k, ci, t_val)
    return params_by_pair, miss




def build_diagram(
    generators: list[Generator],
    tol: ToleranceSet = DEFAULT_TOLERANCES,
    threads: int = 1,
) -> DiagramGraph:
    """Construct the diagram graph for a scene.

    Two steps drop geometry they cannot place, and each reports it as a
    mask that the build does not use: ``_recover_params`` returns ``miss``
    over the (vertex, bisector) incidences that found no parameter, so the
    vertex does not split that bisector; ``_visible_pieces`` returns the
    mask of candidate pieces without a representative point (a whole
    component whose midpoint is a singular parameter, or an interval with
    no finite probe), which are left out of the edges.
    """
    if not generators:
        raise NoSolutionError("a scene needs at least one generator")
    kept, aliases = _dedup_generators(list(generators))
    arr = SceneArrays(kept)
    length_scale = arr.scale()
    center = (
        0.5 * (float(arr.px.min()) + float(arr.px.max())),
        0.5 * (float(arr.py.min()) + float(arr.py.max())),
    )
    n = len(kept)

    # all pairwise bisectors (classification included), in one batch
    pi, pj = np.triu_indices(n, 1)
    pair_list = make_bisectors([kept[i] for i in pi], [kept[j] for j in pj], tol)
    bisectors: dict[tuple[int, int], Bisector] = {b.pair: b for b in pair_list}
    pair_mats = conic_matrices(np.array([b.implicit.coeffs() for b in pair_list]))
    pair_row = np.full((n, n), -1, dtype=np.int64)
    pair_row[pi, pj] = pair_row[pj, pi] = np.arange(pi.size)

    vertices = _collect_vertices(
        kept, arr, pair_mats, pair_row, length_scale, center, tol, threads
    )
    _polish_vertices(vertices, bisectors, length_scale, tol)
    vertices.sort(key=lambda v: (v.pos[0], v.pos[1]))
    for vid, v in enumerate(vertices):
        v.id = vid

    params_by_pair, _recovery_miss = _recover_params(
        vertices, bisectors, 1e-7 * (1.0 + length_scale), tol
    )
    ordered = [bisectors[pair] for pair in sorted(bisectors)]
    edges, _no_representative = _visible_pieces(
        ordered, [params_by_pair.get(b.pair, {}) for b in ordered], arr, tol, length_scale
    )

    # canonical ordering and id assignment
    def edge_key(e: EdgeSegment):
        a = e.alpha_a if e.alpha_a is not None else (e.t_a if e.t_a is not None else 0.0)
        if not math.isfinite(a):
            a = -1e300 if a < 0 else 1e300
        return (e.pair, e.component, a)

    edges.sort(key=edge_key)
    for eid, e in enumerate(edges):
        e.id = eid

    adjacency = {e.pair for e in edges}
    cell_edges: dict[int, list[int]] = {g.id: [] for g in generators}
    for e in edges:
        cell_edges[e.pair[0]].append(e.id)
        cell_edges[e.pair[1]].append(e.id)

    cell_components = {
        gid: _boundary_components(eids, edges) for gid, eids in cell_edges.items()
    }
    empty = frozenset(
        gid for gid, eids in cell_edges.items() if not eids and len(generators) >= 2
    )
    return DiagramGraph(
        generators=list(generators),
        vertices=vertices,
        edges=edges,
        bisectors=bisectors,
        cell_edges=cell_edges,
        adjacency=adjacency,
        cell_components=cell_components,
        empty_cells=empty,
        aliases=aliases,
        length_scale=length_scale,
        tol=tol,
    )


def _boundary_components(edge_ids: list[int], edges: list[EdgeSegment]) -> list[list[int]]:
    """Group a cell's edges into connected components via shared vertices."""
    if not edge_ids:
        return []
    parent = {eid: eid for eid in edge_ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    by_vertex: dict[int, list[int]] = {}
    for eid in edge_ids:
        for vid in edges[eid].endpoints:
            if vid is not None:
                by_vertex.setdefault(vid, []).append(eid)
    for eids in by_vertex.values():
        for other in eids[1:]:
            union(eids[0], other)
    groups: dict[int, list[int]] = {}
    for eid in edge_ids:
        groups.setdefault(find(eid), []).append(eid)
    return [sorted(groups[root]) for root in sorted(groups)]
