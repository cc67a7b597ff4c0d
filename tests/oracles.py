"""Independent brute-force oracles for the test suite.

These deliberately avoid the package's analytic machinery: intersections are
found by sign-change scanning plus Newton refinement on the raw implicit
equations, arc lengths by dense polylines, areas by pixel counting. Slow and
simple on purpose.
"""

import math

import numpy as np
from scipy.integrate import quad


def grid_conic_intersections(c1, c2, box, n=500, newton_iters=40):
    """Marching-grid intersection oracle.

    Scans an n x n grid over box = (x0, y0, x1, y1) for cells in which both
    implicit functions change sign among the cell corners, runs a 2x2 Newton
    iteration from each candidate cell center, and returns the deduplicated
    converged points inside the box.
    """
    x0, y0, x1, y1 = box
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    f1 = np.sign(c1.evaluate(gx, gy))
    f2 = np.sign(c2.evaluate(gx, gy))

    def changes(sgn):
        corners = np.stack(
            [sgn[:-1, :-1], sgn[1:, :-1], sgn[:-1, 1:], sgn[1:, 1:]], axis=0
        )
        return (corners.min(axis=0) < 0) & (corners.max(axis=0) > 0)

    cand = np.argwhere(changes(f1) & changes(f2))
    points = []
    for ci, cj in cand:
        px = 0.5 * (xs[ci] + xs[ci + 1])
        py = 0.5 * (ys[cj] + ys[cj + 1])
        pt = _newton_2x2(c1, c2, px, py, newton_iters)
        if pt is None:
            continue
        qx, qy = pt
        if not (x0 <= qx <= x1 and y0 <= qy <= y1):
            continue
        if all(math.hypot(qx - ox, qy - oy) > 1e-5 for ox, oy in points):
            points.append((qx, qy))
    points.sort()
    return [np.array(p) for p in points]


def _newton_2x2(c1, c2, x, y, iters):
    for _ in range(iters):
        v1 = c1.evaluate(x, y)
        v2 = c2.evaluate(x, y)
        g1 = c1.gradient(x, y)
        g2 = c2.gradient(x, y)
        det = g1[0] * g2[1] - g1[1] * g2[0]
        if abs(det) < 1e-14 * (abs(g1[0] * g2[1]) + abs(g1[1] * g2[0]) + 1e-300):
            return None
        dx = (v1 * g2[1] - v2 * g1[1]) / det
        dy = (g1[0] * v2 - g2[0] * v1) / det
        x, y = x - dx, y - dy
        if abs(dx) + abs(dy) < 1e-13 * (1.0 + abs(x) + abs(y)):
            break
    ok = abs(c1.evaluate(x, y)) <= 1e-9 * c1.residual_scale(x, y) and abs(
        c2.evaluate(x, y)
    ) <= 1e-9 * c2.residual_scale(x, y)
    return (x, y) if ok else None


def polyline_arc_length(point_fn, t0, t1, samples=1_000_000):
    """Dense chord-sum arc length of a parametric curve on [t0, t1]."""
    ts = np.linspace(t0, t1, samples)
    pts = np.array([point_fn(t) for t in ts])
    seg = np.diff(pts, axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())


def marching_squares_length(F, h):
    """Length of the linearly interpolated F = 0 contour on a square grid.

    F[i, j] is the field sampled at (i*h, j*h). Crossings are placed by
    linear interpolation along grid edges; saddle squares are split by the
    sign of the corner average. Converges to the true contour length as
    h -> 0 for smooth F, which makes it an independent perimeter oracle.
    """
    F = np.asarray(F, dtype=float)
    neg = F < 0
    c00 = neg[:-1, :-1]
    c10 = neg[1:, :-1]
    c11 = neg[1:, 1:]
    c01 = neg[:-1, 1:]
    active = np.argwhere((c00 | c10 | c11 | c01) & ~(c00 & c10 & c11 & c01))
    total = 0.0
    for i, j in active:
        # CCW corners A(0,0) B(1,0) C(1,1) D(0,1) in index units
        fs = (F[i, j], F[i + 1, j], F[i + 1, j + 1], F[i, j + 1])
        ps = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        cross = []
        for k in range(4):
            fa, fb = fs[k], fs[(k + 1) % 4]
            if (fa < 0) != (fb < 0):
                t = fa / (fa - fb)
                pa, pb = ps[k], ps[(k + 1) % 4]
                cross.append((pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1])))
        if len(cross) == 2:
            total += math.hypot(cross[0][0] - cross[1][0], cross[0][1] - cross[1][1])
        elif len(cross) == 4:
            # saddle: corner signs alternate; the center sign picks the pairing
            center_neg = (fs[0] + fs[1] + fs[2] + fs[3]) < 0
            if center_neg == (fs[0] < 0):
                pairs = ((0, 1), (2, 3))
            else:
                pairs = ((3, 0), (1, 2))
            for a, b in pairs:
                total += math.hypot(cross[a][0] - cross[b][0], cross[a][1] - cross[b][1])
    return total * h


def radical_center(p1, w1, p2, w2, p3, w3):
    """Closed-form vertex of three Laguerre generators (M = I).

    The radical axis of (i, j) is 2 (p_j - p_i) . x = |p_j|^2 - |p_i|^2 +
    w_i - w_j; the three axes meet in one point for non-collinear centers.
    """
    a1 = 2.0 * (p2 - p1)
    b1 = float(p2 @ p2 - p1 @ p1) + w1 - w2
    a2 = 2.0 * (p3 - p1)
    b2 = float(p3 @ p3 - p1 @ p1) + w1 - w3
    det = a1[0] * a2[1] - a1[1] * a2[0]
    if abs(det) < 1e-12:
        return None
    return np.array([(b1 * a2[1] - b2 * a1[1]) / det, (a1[0] * b2 - a2[0] * b1) / det])


# ------------------------------------------------- one-at-a-time references
#
# The builder evaluates bisectors, global minimality and the two-nearest
# visibility test as array operations over many inputs at once. The loops
# below are the one-input forms those kernels replaced, kept verbatim (same
# operations in the same order) so tests can require bit-identical results.


def _sym2_eigh_scalar(m11, m12, m22):
    mean = 0.5 * (m11 + m22)
    half_gap = math.hypot(0.5 * (m11 - m22), m12)
    lo, hi = mean - half_gap, mean + half_gap
    scale = max(abs(lo), abs(hi))
    if half_gap <= 1e-12 * scale or scale == 0.0:
        return np.array([lo, hi]), np.eye(2)
    cand1 = np.array([m12, hi - m11])
    cand2 = np.array([hi - m22, m12])
    v = cand1 if cand1 @ cand1 >= cand2 @ cand2 else cand2
    v = v / math.hypot(v[0], v[1])
    v_lo = np.array([-v[1], v[0]])
    return np.array([lo, hi]), np.column_stack([v_lo, v])


def _triple_congruence_scalar(triple, r):
    c2, c1, c0 = triple
    q = np.array([[c2, 0.5 * c1], [0.5 * c1, c0]])
    qq = r.T @ q @ r
    return (float(qq[0, 0]), float(qq[0, 1] + qq[1, 0]), float(qq[1, 1]))


def _parametrize_rank3_scalar(evals, evecs, tol):
    """Rank-3 branch: (xq, yq, uq, singular, class name) or None when empty."""
    pos = int((evals > 0.0).sum())
    if pos == 3 or pos == 0:
        return None
    if pos == 1:
        evals = -evals
    order = list(np.argsort(-evals))
    lam = evals[order]
    t_mat = evecs[:, order]
    mu = 1.0 / np.sqrt(np.abs(lam))
    w = np.array([[-mu[0], 0.0, mu[0]], [0.0, 2.0 * mu[1], 0.0], [mu[2], 0.0, mu[2]]])
    triples = t_mat @ w
    uq = triples[2]
    eps, vecs = _sym2_eigh_scalar(float(uq[0]), float(0.5 * uq[1]), float(uq[2]))
    order2 = [0, 1] if abs(eps[0]) >= abs(eps[1]) else [1, 0]
    eps1, eps2 = float(eps[order2[0]]), float(eps[order2[1]])
    r = vecs[:, order2]
    if np.linalg.det(r) < 0.0:
        r = np.column_stack([r[:, 0], -r[:, 1]])
    xq = _triple_congruence_scalar(triples[0], r)
    yq = _triple_congruence_scalar(triples[1], r)
    if abs(eps2) <= tol.class_rel * abs(eps1):
        return xq, yq, (eps1, 0.0, 0.0), (0.0,), "Parabola"
    if eps1 * eps2 > 0.0:
        return xq, yq, (eps1, 0.0, eps2), (), "Ellipse"
    s = math.sqrt(-eps2 / eps1)
    return xq, yq, (eps1, 0.0, eps2), (-s, s), "Hyperbola"


def bisector_frame_scalar(gi, gj, tol):
    """Pair-frame parametrization of a curved bisector, one pair at a time.

    Returns (scene-coordinate implicit coefficients, (xq, yq, uq, singular,
    class name)) with the triples mapped back to scene coordinates, or None
    in place of the second item when the bisector is not a rank-3 curve.
    """
    if gi.id > gj.id:
        gi, gj = gj, gi

    def implicit(pi, mi, wi, pj, mj, wj):
        mi_pi = np.array([mi[0] * pi[0] + mi[1] * pi[1], mi[1] * pi[0] + mi[2] * pi[1]])
        mj_pj = np.array([mj[0] * pj[0] + mj[1] * pj[1], mj[1] * pj[0] + mj[2] * pj[1]])
        return (
            mi[0] - mj[0],
            mi[1] - mj[1],
            mi[2] - mj[2],
            -2.0 * (mi_pi[0] - mj_pj[0]),
            -2.0 * (mi_pi[1] - mj_pj[1]),
            float(pi @ mi_pi) - float(pj @ mj_pj) - wi + wj,
        )

    mi = (gi.M.m11, gi.M.m12, gi.M.m22)
    mj = (gj.M.m11, gj.M.m12, gj.M.m22)
    scene = implicit(gi.p, mi, gi.w, gj.p, mj, gj.w)
    c = 0.5 * (gi.p + gj.p)
    sep = max(
        abs(float(gi.p[0] - c[0])),
        abs(float(gi.p[1] - c[1])),
        abs(float(gj.p[0] - c[0])),
        abs(float(gj.p[1] - c[1])),
        abs(float(c[0])) * 1e-8,
        abs(float(c[1])) * 1e-8,
    )
    h = 2.0 ** math.ceil(math.log2(sep)) if sep > 1.0 else 1.0
    if h != 1.0 or c[0] != 0.0 or c[1] != 0.0:
        hat = implicit(
            (gi.p - c) / h, tuple(h * h * m for m in mi), gi.w,
            (gj.p - c) / h, tuple(h * h * m for m in mj), gj.w,
        )
    else:
        hat = scene
    a11, a12, a22, b11, b12, cc = hat
    d = np.array([[a11, a12, 0.5 * b11], [a12, a22, 0.5 * b12], [0.5 * b11, 0.5 * b12, cc]])
    if float(np.abs(d).max()) == 0.0:
        return scene, None
    evals, evecs = np.linalg.eigh(d)
    amax = float(np.abs(evals).max())
    if int((np.abs(evals) > tol.rank_rel * amax).sum()) != 3:
        return scene, None
    rep = _parametrize_rank3_scalar(evals, evecs, tol)
    if rep is None:
        return scene, None
    xq, yq, uq, singular, name = rep
    xq = tuple(h * xq[k] + c[0] * uq[k] for k in range(3))
    yq = tuple(h * yq[k] + c[1] * uq[k] for k in range(3))
    return scene, (xq, yq, uq, singular, name)


def full_scan_minimal(cand, trip, arr, tol):
    """Keep mask of the global-minimality filter by a full (K, n) distance scan."""
    d = arr.dist(cand)
    rows = np.arange(cand.shape[0])
    d_trip = np.minimum(
        d[rows, trip[:, 0]], np.minimum(d[rows, trip[:, 1]], d[rows, trip[:, 2]])
    )
    d_min = d.min(axis=1)
    return d_trip - d_min <= tol.vert_rel * (1.0 + np.abs(d_min))


def two_nearest_point(point, idx_i, idx_j, arr, tol):
    """True iff generators (idx_i, idx_j) attain the two smallest distances at one point."""
    d = arr.dist(point[None, :])[0]
    di, dj = d[idx_i], d[idx_j]
    if arr.n <= 2:
        return True
    mask = np.ones(arr.n, bool)
    mask[[idx_i, idx_j]] = False
    d3 = float(d[mask].min())
    return max(di, dj) <= d3 + tol.vert_rel * (1.0 + abs(d3))


def _quad_over_arc(f, a0, a1, tol):
    """scipy quad on [a0, a1], told about the chart breaks alpha = pi/2 mod pi."""
    k = math.ceil((a0 - 0.5 * math.pi) / math.pi)
    breaks = [c for c in (0.5 * math.pi + (k + i) * math.pi for i in range(8)) if a0 < c < a1]
    val, _ = quad(f, a0, a1, points=breaks or None, limit=200,
                  epsabs=tol.quad_abs, epsrel=1e-12)
    return val


def quad_arc_length(param, a0, a1, tol):
    """Arc length by scalar adaptive quadrature of the speed (reference)."""

    def speed(a):
        v = param.velocity_at_alpha(a, tol)
        return math.hypot(v[0], v[1])

    return _quad_over_arc(speed, a0, a1, tol)


def quad_arc_area(param, a0, a1, tol):
    """Integral of (x y' - y x') / 2 along the arc by scalar quadrature (reference)."""

    def f(a):
        p = param.point_at_alpha(a, tol)
        v = param.velocity_at_alpha(a, tol)
        return 0.5 * (p[0] * v[1] - p[1] * v[0])

    return _quad_over_arc(f, a0, a1, tol)
