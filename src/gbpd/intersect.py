"""Conic-conic intersection by pencil degeneration, ownership tests, vertex search.

Two conics C1, C2 (homogeneous symmetric 3x3 matrices) span the pencil
C1 + lam C2. Every member passes through all intersection points, and the
members with det(C1 + lam C2) = 0 factor into at most two lines, so the
intersection reduces to line-conic quadratics: find a real root lam of the
determinant cubic, split that degenerate member into lines, cut the lines
with one of the inputs, and keep points that satisfy both implicit equations.

The cubic has up to three real roots; the member whose adjugate has the
largest negative pivot is kept, since that pivot value measures how cleanly
the member factors into two real lines (it is minus the squared homogeneous
weight of the lines' common point). A member whose pivot is positive is a
complex line pair through one real point, which is then the only possible
real intersection and is emitted directly.

Everything is written over a batch axis, and the batch axis comes last
(lane-major), so every array operation runs along contiguous lanes.
``prepare_pairs`` does the work of one conic (frame, scaling, determinant,
adjugate), so the diagram build does it once per bisector, and stores each
matrix as a column of 9 rows (entry (i, j) in row 3 i + j, shape (9, P)).
``pencil_intersections_batch`` takes only column indices into the prepared
conics, gathers two (9, T) blocks for the pairs (E_ij, E_ik) of T generator
triples, and works on (3, T) roots and (4, T) candidate slots from there.
``conic_conic_intersections`` prepares its two conics and is a batch of one.

Both keep rules of the diagram build live here, and both ask whether some
generators are the nearest, through one screen (``SceneArrays.screened_min``:
each point's likely winner first, then blocks of generators), which drops a
point only where the full scan would. ``globally_minimal`` keeps a candidate
vertex whose three generators are the nearest, and ``two_nearest`` an edge
piece whose two generators are the two nearest; each allows the slack
VERT_REL (1 + |d|).

The vertex search (``vertex_candidates``) runs the pencil on the pairs
(E_ij, E_ik) of every generator triple i < j < k, in the frame of the
generators' bounding-box center and ``SceneArrays.scale``, and keeps what
``globally_minimal`` keeps. It is the O(n^3) heart of the build and runs in
the fewest chunks of at most _TRIPLE_CHUNK triples, cut to equal sizes so
that the pool's threads get equal shares. A chunk is a range of ranks in
the lexicographic triple order and builds its own triples from the O(n^2)
pair arrays; no array over all C(n, 3) triples exists. The minimality
screen takes a chunk's candidates in one pass of long array calls, which
the pool's threads overlap. A chunk's pencil and minimality temporaries
peak at about 0.86 KB per triple (tracemalloc, paper-random n=100), so the
sweep holds about threads x _TRIPLE_CHUNK x 0.86 KB, however many triples
there are. The chunk count depends on the triple count only. Chunks are
independent and merged in rank order, then sorted by x and y, so the result
is identical for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .conic import ConicImplicit, conic_matrices
from .errors import InputError, OverlappingConicsError
from .geometry import SceneArrays
from .tolerances import DEDUP_REL, RES_REL, VERT_REL

# determinant magnitude (after max-abs normalization) below which an input
# conic counts as already degenerate and is used as the pencil member itself
_DET_REL = 1e-10
# relative discriminant clamp: slightly negative discriminants from roundoff
# are treated as tangencies instead of missed intersections
_DISC_CLAMP = 1e-10
# points per visibility test: its (16, 4,096) blocks are 512 KB, small enough
# for the allocator to reuse freed memory instead of faulting in fresh pages
_POINT_CHUNK = 4096
_TRIPLE_CHUNK = 8192


def _adj3(m: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactors) of matrices given as rows m[3 i + j],
    (9, ...) -> (9, ...); adj(M) M = det(M) I."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    return np.stack([
        m11 * m22 - m12 * m21, -(m01 * m22 - m02 * m21), m01 * m12 - m02 * m11,
        -(m10 * m22 - m12 * m20), m00 * m22 - m02 * m20, -(m00 * m12 - m02 * m10),
        m10 * m21 - m11 * m20, -(m00 * m21 - m01 * m20), m00 * m11 - m01 * m10,
    ])


def _adj3_diagonal(m: np.ndarray) -> np.ndarray:
    """Diagonal of :func:`_adj3`, (9, ...) -> (3, ...)."""
    return np.stack([m[3 * j + j] * m[3 * k + k] - m[3 * j + k] * m[3 * k + j]
                     for j, k in ((1, 2), (0, 2), (0, 1))])


def _skew(p: np.ndarray) -> np.ndarray:
    """Cross-product matrices of homogeneous points, (3, ...) -> rows (9, ...)."""
    zero = np.zeros_like(p[0])
    return np.stack([zero, -p[2], p[1], p[2], zero, -p[0], -p[1], p[0], zero])


def _trace_of_product(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """trace(b a) of matrices given as rows (9, ...): each row of b summed
    from 0.0, then the rows in order, which is how np.einsum("tij,tji->t")
    sums the point-major form, so the two give the same bits."""
    rows = [0.0 + b[3 * i] * a[i] + b[3 * i + 1] * a[3 + i] + b[3 * i + 2] * a[6 + i]
            for i in range(3)]
    return rows[0] + rows[1] + rows[2]


def _argmax0(a: np.ndarray) -> np.ndarray:
    """``a.argmax(axis=0)``, ties and nans alike, in passes over a short first axis."""
    hit = (a == np.maximum.reduce(a)) | np.isnan(a)
    idx = np.full(a.shape[1:], a.shape[0] - 1)
    for k in range(a.shape[0] - 2, -1, -1):
        idx = np.where(hit[k], k, idx)
    return idx


def _real_cubic_roots(c3, c2, c1, c0):
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0, batched: (T,) -> (3, T).

    Single-real-root cases are padded by repetition. The leading
    coefficient must be bounded away from zero (the caller only evaluates
    the result where both pencil ends are nondegenerate). Two Newton sweeps
    polish the closed-form roots.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = c2 / c3
        b = c1 / c3
        c = c0 / c3
        p = b - a * a / 3.0
        q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
        delta = 0.25 * q * q + p**3 / 27.0

        # one real root (delta > 0): Cardano
        sq = np.sqrt(np.maximum(delta, 0.0))
        u = np.cbrt(-0.5 * q + sq)
        v = np.cbrt(-0.5 * q - sq)
        y_single = u + v

        # three real roots (delta <= 0): trigonometric form
        pm = np.sqrt(np.maximum(-p / 3.0, 0.0))
        pm_safe = np.where(pm > 0.0, pm, 1.0)
        arg = np.clip(1.5 * q / (p * pm_safe), -1.0, 1.0)
        arg = np.where(pm > 0.0, arg, 0.0)
        theta = np.arccos(arg) / 3.0
        ks = np.array([0.0, 1.0, 2.0])[:, None]
        y_triple = 2.0 * pm * np.cos(theta - 2.0 * math.pi * ks / 3.0)

        y = np.where(delta > 0.0, y_single, y_triple)
        x = y - a / 3.0

        # Newton polish on the original cubic
        for _ in range(2):
            f = ((c3 * x + c2) * x + c1) * x + c0
            df = (3.0 * c3 * x + 2.0 * c2) * x + c1
            step = np.where(np.abs(df) > 0.0, f / np.where(df == 0.0, 1.0, df), 0.0)
            x = x - step
    return x


class PreparedPairs(NamedTuple):
    """Conic r in the frame x = length_scale * xh + center, scaled to max-abs
    entry 1, as column r of ``a`` (9, P): its entries in row-major order
    (a[3 i + j] is entry (i, j)); whether it was nonzero, det(a) and the
    adjugate ``adj`` in the same (9, P) layout."""

    a: np.ndarray
    nonzero: np.ndarray
    det: np.ndarray
    adj: np.ndarray
    length_scale: float
    center: tuple[float, float]


def prepare_pairs(
    pair_mats: np.ndarray,
    length_scale: float,
    center: tuple[float, float],
) -> PreparedPairs:
    """The per-conic work of the pencil kernel, for P conics given as 3x3 matrices.

    ``length_scale`` and ``center`` define a similarity frame for the scene.
    Conic coefficients of bisectors are internally unbalanced (the constant
    term carries two powers of the coordinate magnitude), which starves the
    determinant cubic of precision; the kernel therefore works in the frame
    x = length_scale * xh + center, where quadratic, linear and constant
    parts are comparable, and maps the results back. A length scale that is
    not positive and finite, or a center that is not finite, names no frame
    and raises InputError.
    """
    h = float(length_scale)
    cx, cy = float(center[0]), float(center[1])
    if not 0.0 < h < math.inf:
        raise InputError(f"length_scale must be positive and finite, not {h!r}")
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise InputError(f"center must be finite, not {(cx, cy)!r}")
    frame = np.array([[h, 0.0, cx], [0.0, h, cy], [0.0, 0.0, 1.0]])
    d = np.einsum("ba,tbc,cd->tad", frame, np.asarray(pair_mats, dtype=float), frame)
    d = d.reshape(-1, 9)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.abs(d).max(axis=1)
        a = np.ascontiguousarray((d / np.where(s > 0.0, s, 1.0)[:, None]).T)
        adj = _adj3(a)
        # the cofactor expansion along the first row
        det = a[0] * adj[0] + a[1] * adj[3] + a[2] * adj[6]
        return PreparedPairs(a, s > 0.0, det, adj, h, (cx, cy))


def _pencil_member(a1, a2, d1, d2, prepared):
    """The degenerate member of each pencil a1 + lam a2 (rows (9, T)) whose
    adjugate has the largest negative pivot, a degenerate input being its
    own member. Returns (member, other), the conic its lines are cut with."""
    adj1, adj2 = np.take(prepared.adj, d1, axis=1), np.take(prepared.adj, d2, axis=1)
    det1, det2 = prepared.det[d1], prepared.det[d2]
    deg1 = np.abs(det1) <= _DET_REL
    deg2 = np.abs(det2) <= _DET_REL
    # determinant cubic det(a1 + lam a2), solved where both ends are nondegenerate
    safe = np.where(~deg1 & ~deg2, det2, 1.0)
    roots = _real_cubic_roots(safe, _trace_of_product(adj2, a1), _trace_of_product(adj1, a2), det1)
    diag = np.stack([_adj3_diagonal(a1 + lam * a2) for lam in roots], axis=1)  # (3, 3 roots, T)
    piv3 = _argmax0(np.abs(diag))
    bpp3 = np.take_along_axis(diag, piv3[None], axis=0)[0]
    best = _argmax0(-bpp3)
    member = a1 + np.take_along_axis(roots, best[None], axis=0) * a2
    return np.where(deg1, a1, np.where(deg2, a2, member)), np.where(deg1, a2, a1)


def _member_lines(member):
    """Split each degenerate member (rows (9, T)) into two lines.

    Returns (lines, real_split, p_raw): the coefficients (a, b, c) of the
    two lines, (3, 2, T); whether the member is a real line pair; and the
    pivot column of its adjugate, (3, T), the homogeneous common point.
    """
    badj = _adj3(member)
    diag = badj[::4]  # rows 0, 4, 8
    piv = _argmax0(np.abs(diag))
    bpp = np.take_along_axis(diag, piv[None], axis=0)[0]
    b_scale = np.abs(member).max(axis=0) ** 2
    p_raw = np.take_along_axis(badj.reshape(3, 3, -1), piv[None, None], axis=1)[:, 0]
    beta = np.sqrt(np.maximum(-bpp, 0.0))
    cmat = member + _skew(p_raw / np.where(beta > 0.0, beta, 1.0))
    ij = _argmax0(np.abs(cmat))
    cmat = cmat.reshape(3, 3, -1)
    l_line = np.take_along_axis(cmat, (ij // 3)[None, None], axis=0)[0]
    m_line = np.take_along_axis(cmat, (ij % 3)[None, None], axis=1)[:, 0]
    return np.stack([l_line, m_line], axis=1), bpp <= 1e-12 * b_scale, p_raw


def _cut_lines(lines, other, usable):
    """Cut both lines (3, 2, T) of each pair with the conic ``other`` (rows
    (9, T)), where ``usable``. Returns (x, y, valid), (4, T) each: slot
    2 line + root."""
    la, lb, lc = lines
    a00, a01, a11, cc = other[0], other[1], other[4], other[8]
    bx = 2.0 * other[2]
    by = 2.0 * other[5]
    n = np.hypot(la, lb)
    line_ok = usable & (n > 1e-12 * np.abs(lc)) & (n > 0.0)
    n_safe = np.where(n > 0.0, n, 1.0)
    an, bn, cn = la / n_safe, lb / n_safe, lc / n_safe
    q0x, q0y = -cn * an, -cn * bn
    dx, dy = -bn, an
    qa = a00 * dx * dx + 2.0 * a01 * dx * dy + a11 * dy * dy
    qb = (
        2.0 * (a00 * q0x * dx + a01 * (q0x * dy + q0y * dx) + a11 * q0y * dy)
        + bx * dx
        + by * dy
    )
    qc = (
        a00 * q0x * q0x
        + 2.0 * a01 * q0x * q0y
        + a11 * q0y * q0y
        + bx * q0x
        + by * q0y
        + cc
    )
    qs = np.abs(qa) + np.abs(qb) + np.abs(qc)
    disc = qb * qb - 4.0 * qa * qc
    dscale = qb * qb + np.abs(4.0 * qa * qc)
    disc = np.where((disc < 0.0) & (disc >= -_DISC_CLAMP * dscale), 0.0, disc)
    sq = np.sqrt(np.maximum(disc, 0.0))
    quad = np.abs(qa) > 1e-14 * qs
    lin = ~quad & (np.abs(qb) > 1e-14 * qs)
    qq = -0.5 * (qb + np.where(qb >= 0.0, sq, -sq))
    r1 = np.where(quad, qq / np.where(quad, qa, 1.0), np.nan)
    qq_ok = quad & (np.abs(qq) > 0.0)
    r2 = np.where(qq_ok, qc / np.where(qq_ok, qq, 1.0), r1)
    r1 = np.where(lin, -qc / np.where(lin, qb, 1.0), r1)
    r2 = np.where(quad, r2, np.nan)
    r = np.stack([r1, r2], axis=1)  # (2 lines, 2 roots, T)
    ok = (line_ok & (disc >= 0.0))[:, None] & np.isfinite(r)
    x = np.where(ok, q0x[:, None] + r * dx[:, None], np.nan)
    y = np.where(ok, q0y[:, None] + r * dy[:, None], np.nan)
    return x.reshape(4, -1), y.reshape(4, -1), ok.reshape(4, -1)


def _polish_slots(a1, a2, x, y, valid):
    """Newton polish of the slots (4, T) on the 2x2 implicit system of each
    pair's conics (rows (9, T)), then the residual filter and the per-pair
    dedup. Returns (x, y, valid)."""
    # each pair's conics as ConicImplicit fields (T,), broadcast over the slots
    c1, c2 = (ConicImplicit(d[0], d[1], d[4], 2.0 * d[2], 2.0 * d[5], d[8]) for d in (a1, a2))
    for _ in range(3):
        f1 = c1.evaluate(x, y)
        f2 = c2.evaluate(x, y)
        # 2 (a00 x + a01 y + a02) rounds differently from ConicImplicit.gradient
        f1x = 2.0 * (a1[0] * x + a1[1] * y + a1[2])
        f1y = 2.0 * (a1[1] * x + a1[4] * y + a1[5])
        f2x = 2.0 * (a2[0] * x + a2[1] * y + a2[2])
        f2y = 2.0 * (a2[1] * x + a2[4] * y + a2[5])
        det = f1x * f2y - f1y * f2x
        det_scale = np.abs(f1x * f2y) + np.abs(f1y * f2x)
        ok = valid & (np.abs(det) > 1e-12 * det_scale) & np.isfinite(det)
        det_safe = np.where(ok, det, 1.0)
        step_x = (f1 * f2y - f2 * f1y) / det_safe
        step_y = (f1x * f2 - f2x * f1) / det_safe
        x = np.where(ok, x - step_x, x)
        y = np.where(ok, y - step_y, y)

    f1 = c1.evaluate(x, y)
    f2 = c2.evaluate(x, y)
    r1s = c1.residual_scale(x, y)
    r2s = c2.residual_scale(x, y)
    valid &= np.isfinite(x) & np.isfinite(y)
    valid &= (np.abs(f1) <= RES_REL * r1s) & (np.abs(f2) <= RES_REL * r2s)

    # per-pair dedup (unit frame, so the radius is just DEDUP_REL)
    for hi in range(1, 4):
        for lo in range(hi):
            close = valid[hi] & valid[lo] & (np.hypot(x[hi] - x[lo], y[hi] - y[lo]) <= DEDUP_REL)
            valid[hi] &= ~close
    return x, y, valid


def pencil_intersections_batch(
    d1: np.ndarray,
    d2: np.ndarray,
    prepared: PreparedPairs,
) -> tuple[np.ndarray, np.ndarray]:
    """Intersection candidates for T conic pairs, columns (d1[t], d2[t]) of ``prepared``.

    Returns (points, valid) with shapes (T, 4, 2) and (T, 4). Valid points
    satisfy both implicit equations within the scaled residual tolerance and
    are deduplicated within DEDUP_REL * length_scale per pair, in the
    prepared frame. Pairs with coincident zero sets produce no valid points
    (their intersection is not a finite set).

    The work runs lane-major, with the pair axis last: a matrix is 9 rows
    of T lanes, the four candidate slots are 4 rows. Each stage is its own
    function, so that its temporaries are freed when it returns.
    """
    h = prepared.length_scale
    cx, cy = prepared.center
    a1, a2 = np.take(prepared.a, d1, axis=1), np.take(prepared.a, d2, axis=1)
    nonzero = prepared.nonzero[d1] & prepared.nonzero[d2]
    with np.errstate(divide="ignore", invalid="ignore"):
        member, other = _pencil_member(a1, a2, d1, d2, prepared)
        lines, real_split, p_raw = _member_lines(member)
        x, y, valid = _cut_lines(lines, other, nonzero & real_split)
        # the polish below sets the chunk's peak memory; the members go first
        del member, other, lines

        # complex line pair: its single real point is the only candidate
        fb = nonzero & ~real_split
        hn = np.abs(p_raw).max(axis=0)
        fb_ok = fb & (np.abs(p_raw[2]) > 1e-12 * np.where(hn > 0.0, hn, 1.0))
        h2 = np.where(fb_ok, p_raw[2], 1.0)
        x[0] = np.where(fb_ok, p_raw[0] / h2, x[0])
        y[0] = np.where(fb_ok, p_raw[1] / h2, y[0])
        valid[0] |= fb_ok

        x, y, valid = _polish_slots(a1, a2, x, y, valid)

    # back to scene coordinates
    pts = np.empty((len(d1), 4, 2))
    pts[:, :, 0] = (h * x + cx).T
    pts[:, :, 1] = (h * y + cy).T
    return pts, np.ascontiguousarray(valid.T)


def conic_conic_intersections(
    c1: ConicImplicit,
    c2: ConicImplicit,
    length_scale: float = 1.0,
    center: tuple[float, float] = (0.0, 0.0),
) -> list[np.ndarray]:
    """All real intersection points of two conics, deduplicated and sorted.

    Raises OverlappingConicsError when the zero sets coincide (proportional
    coefficient matrices, or a whole-plane conic): the intersection is then
    not a finite point set. For conics living far from the origin pass the
    scene frame (length_scale, center); see prepare_pairs.
    """
    d1 = c1.matrix3()
    d2 = c2.matrix3()
    s1 = float(np.abs(d1).max())
    s2 = float(np.abs(d2).max())
    if s1 == 0.0 or s2 == 0.0:
        raise OverlappingConicsError("a whole-plane conic overlaps every conic")
    n1 = d1 / s1
    n2 = d2 / s2
    if min(np.abs(n1 - n2).max(), np.abs(n1 + n2).max()) <= 1e-12:
        raise OverlappingConicsError("conics share their zero set")
    prep = prepare_pairs(np.stack([d1, d2]), length_scale, center)
    pts, valid = pencil_intersections_batch(np.array([0]), np.array([1]), prep)
    found = [np.array(pts[0, k]) for k in range(4) if valid[0, k]]
    found.sort(key=lambda q: (q[0], q[1]))
    return found


def globally_minimal(cand: np.ndarray, trip: np.ndarray, arr: SceneArrays) -> np.ndarray:
    """Keep mask of candidates whose triple distance is the global minimum.

    A candidate is kept iff d_trip - d_min <= VERT_REL (1 + |d_min|), with
    d_trip its smallest distance to its triple generators (the indices in
    its row of ``trip``) and d_min the smallest distance to any generator,
    found by ``SceneArrays.screened_min``. d_trip is a running minimum of
    three (K,) columns, the bits of their ``min``.
    """
    x, y = np.ascontiguousarray(cand.T)
    d_trip = arr.lane_dist(x, y, trip[:, 0])
    for c in (1, 2):
        d_trip = np.minimum(d_trip, arr.lane_dist(x, y, trip[:, c]))
    alive, d_min = arr.screened_min(cand, d_trip)
    keep = np.zeros(cand.shape[0], dtype=bool)
    keep[alive] = d_trip[alive] - d_min <= VERT_REL * (1.0 + np.abs(d_min))
    return keep


def two_nearest(points: np.ndarray, pair: np.ndarray, arr: SceneArrays) -> np.ndarray:
    """Mask of the points k of (N, 2) where the generators pair[k] (N, 2) attain
    the two smallest distances.

    A point passes when max(d_i, d_j) <= d3 + VERT_REL (1 + |d3|), d3 its
    smallest distance to the other generators, found by
    ``SceneArrays.screened_min`` with the pair's columns skipped. The points
    go in chunks of _POINT_CHUNK.
    """
    visible = np.ones(points.shape[0], dtype=bool)
    if arr.n <= 2:
        return visible
    for lo in range(0, points.shape[0], _POINT_CHUNK):
        pts, cols = points[lo : lo + _POINT_CHUNK], pair[lo : lo + _POINT_CHUNK]
        d = arr.dist(pts, cols)
        far = np.where(d[:, 1] > d[:, 0], d[:, 1], d[:, 0])
        alive, d3 = arr.screened_min(pts, far, skip=cols)
        ok = np.zeros(pts.shape[0], dtype=bool)
        ok[alive] = far[alive] <= d3 + VERT_REL * (1.0 + np.abs(d3))
        visible[lo : lo + _POINT_CHUNK] = ok
    return visible


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


def _candidate_chunk(chunk: np.ndarray, prep: PreparedPairs, pair_row: np.ndarray,
                     arr: SceneArrays) -> tuple[np.ndarray, np.ndarray]:
    """Vertex candidates (points (K, 2), triples (K, 3)) of a chunk of index
    triples (T, 3): equidistant to their triple and globally minimal."""
    ti, tj, tk = chunk[:, 0], chunk[:, 1], chunk[:, 2]
    pts, valid = pencil_intersections_batch(pair_row[ti, tj], pair_row[ti, tk], prep)
    slot = np.flatnonzero(valid)  # triple t, slot s at 4 t + s
    if slot.size == 0:
        return np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64)
    cand = np.take(pts.reshape(-1, 2), slot, axis=0)  # (K, 2)
    trip = np.take(chunk, slot // 4, axis=0)  # (K, 3)
    keep = globally_minimal(cand, trip, arr)
    return cand[keep], trip[keep]


def vertex_candidates(arr: SceneArrays, implicit: np.ndarray, pair_row: np.ndarray,
                      threads: int) -> tuple[np.ndarray, np.ndarray]:
    """The kept vertex candidates of a scene, (points (K, 2), triples (K, 3)),
    sorted by x, then y.

    ``arr`` holds the generators, ``implicit`` the implicit rows of their
    pairwise bisectors and ``pair_row[i, j]`` the row of the bisector of
    generators i < j (``BisectorTable.pair_rows``); a triple row holds its
    i < j < k. A pool of ``threads`` threads gives the same bits as one.
    """
    center = (0.5 * (float(arr.px.min()) + float(arr.px.max())),
              0.5 * (float(arr.py.min()) + float(arr.py.max())))
    prep = prepare_pairs(conic_matrices(implicit), arr.scale(), center)
    order = _TripleOrder(arr.n)
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
    by_xy = np.lexsort((cand[:, 1], cand[:, 0]))
    return cand[by_xy], trip[by_xy]
