"""Independent brute-force oracles for the test suite.

These deliberately avoid the package's analytic machinery: intersections are
found by sign-change scanning plus Newton refinement on the raw implicit
equations, arc lengths by dense polylines, areas by pixel counting. Slow and
simple on purpose.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import ndimage
from scipy.integrate import quad

from gbpd import clip as gclip
from gbpd import measure as gmeasure
from gbpd.clip import flatten_pieces, loop_polygons
from gbpd.conic import (ConicImplicit, alpha_of_param, eval_alpha_batch, line_points,
                        param_of_alpha, points_at_alphas, wrap_angle)
from gbpd.diagram import EDGE_KINDS, merge_marks, split_at_marks
from gbpd.errors import InputError, NoSolutionError, QuadratureError, SingularParameterError
from gbpd.geometry import _GEN_BLOCK as GEN_BLOCK
from gbpd.geometry import PointIndex, SceneArrays
from gbpd.intersect import _DET_REL as DET_REL, _DISC_CLAMP as DISC_CLAMP
from gbpd.measure import CellMeasure, ComponentMeasure
from gbpd.oracle import LabelImage, _image_frame
from gbpd.tolerances import (CLASS_REL, DEDUP_REL, DEN_REL, PARAM_MERGE, QUAD_ABS, RANK_REL,
                             RES_REL, VERT_REL)


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
# The builder evaluates bisectors, global minimality, vertex parameters,
# polish and the two-nearest visibility test as array operations over many
# inputs at once. The loops below are the one-input forms those kernels
# replaced, kept verbatim (same operations in the same order) so tests can
# require bit-identical results.


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


def _parametrize_rank3_scalar(evals, evecs):
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
    if abs(eps2) <= CLASS_REL * abs(eps1):
        return xq, yq, (eps1, 0.0, 0.0), (0.0,), "Parabola"
    if eps1 * eps2 > 0.0:
        return xq, yq, (eps1, 0.0, eps2), (), "Ellipse"
    s = math.sqrt(-eps2 / eps1)
    return xq, yq, (eps1, 0.0, eps2), (-s, s), "Hyperbola"


def bisector_frame_scalar(gi, gj):
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
    if int((np.abs(evals) > RANK_REL * amax).sum()) != 3:
        return scene, None
    rep = _parametrize_rank3_scalar(evals, evecs)
    if rep is None:
        return scene, None
    xq, yq, uq, singular, name = rep
    xq = tuple(h * xq[k] + c[0] * uq[k] for k in range(3))
    yq = tuple(h * yq[k] + c[1] * uq[k] for k in range(3))
    return scene, (xq, yq, uq, singular, name)


def full_scan_minimal(cand, trip, arr):
    """Keep mask of the global-minimality filter by a full (K, n) distance scan."""
    d = arr.dist(cand)
    rows = np.arange(cand.shape[0])
    d_trip = np.minimum(
        d[rows, trip[:, 0]], np.minimum(d[rows, trip[:, 1]], d[rows, trip[:, 2]])
    )
    d_min = d.min(axis=1)
    return d_trip - d_min <= VERT_REL * (1.0 + np.abs(d_min))


# The point-major forms of the two triple-sweep kernels, as they stood before
# the kernels went lane-major (batch axis last); the kernels must equal them
# bit for bit.


def _adj3_point_major(m):
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1]
    out[..., 0, 1] = -(m[..., 0, 1] * m[..., 2, 2] - m[..., 0, 2] * m[..., 2, 1])
    out[..., 0, 2] = m[..., 0, 1] * m[..., 1, 2] - m[..., 0, 2] * m[..., 1, 1]
    out[..., 1, 0] = -(m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
    out[..., 1, 1] = m[..., 0, 0] * m[..., 2, 2] - m[..., 0, 2] * m[..., 2, 0]
    out[..., 1, 2] = -(m[..., 0, 0] * m[..., 1, 2] - m[..., 0, 2] * m[..., 1, 0])
    out[..., 2, 0] = m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]
    out[..., 2, 1] = -(m[..., 0, 0] * m[..., 2, 1] - m[..., 0, 1] * m[..., 2, 0])
    out[..., 2, 2] = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return out


def _adj3_diagonal_point_major(m):
    return np.stack([m[..., j, j] * m[..., k, k] - m[..., j, k] * m[..., k, j]
                     for j, k in ((1, 2), (0, 2), (0, 1))], axis=-1)


def _skew_point_major(p):
    out = np.zeros(p.shape + (3,))
    out[..., 0, 1] = -p[..., 2]
    out[..., 0, 2] = p[..., 1]
    out[..., 1, 0] = p[..., 2]
    out[..., 1, 2] = -p[..., 0]
    out[..., 2, 0] = -p[..., 1]
    out[..., 2, 1] = p[..., 0]
    return out


def _real_cubic_roots_point_major(c3, c2, c1, c0):
    with np.errstate(divide="ignore", invalid="ignore"):
        a = c2 / c3
        b = c1 / c3
        c = c0 / c3
        p = b - a * a / 3.0
        q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
        delta = 0.25 * q * q + p**3 / 27.0
        sq = np.sqrt(np.maximum(delta, 0.0))
        u = np.cbrt(-0.5 * q + sq)
        v = np.cbrt(-0.5 * q - sq)
        y_single = u + v
        pm = np.sqrt(np.maximum(-p / 3.0, 0.0))
        pm_safe = np.where(pm > 0.0, pm, 1.0)
        arg = np.clip(1.5 * q / (p * pm_safe), -1.0, 1.0)
        arg = np.where(pm > 0.0, arg, 0.0)
        theta = np.arccos(arg) / 3.0
        ks = np.array([0.0, 1.0, 2.0])
        y_triple = 2.0 * pm[:, None] * np.cos(theta[:, None] - 2.0 * math.pi * ks[None, :] / 3.0)
        single = (delta > 0.0)[:, None]
        y = np.where(single, y_single[:, None], y_triple)
        x = y - (a / 3.0)[:, None]
        c3e, c2e, c1e, c0e = (arr[:, None] for arr in (c3, c2, c1, c0))
        for _ in range(2):
            f = ((c3e * x + c2e) * x + c1e) * x + c0e
            df = (3.0 * c3e * x + 2.0 * c2e) * x + c1e
            step = np.where(np.abs(df) > 0.0, f / np.where(df == 0.0, 1.0, df), 0.0)
            x = x - step
    return x


def pencil_intersections_point_major(d1, d2, prepared):
    """``intersect.pencil_intersections_batch`` on (T, 3, 3) matrices and (T, 4) slots."""
    t_count = len(d1)
    h = prepared.length_scale
    cx, cy = prepared.center
    a1, a2 = (prepared.a[:, d].T.reshape(-1, 3, 3) for d in (d1, d2))
    adj1, adj2 = (prepared.adj[:, d].T.reshape(-1, 3, 3) for d in (d1, d2))
    det1, det2 = prepared.det[d1], prepared.det[d2]
    nonzero = prepared.nonzero[d1] & prepared.nonzero[d2]

    with np.errstate(divide="ignore", invalid="ignore"):
        deg1 = np.abs(det1) <= DET_REL
        deg2 = np.abs(det2) <= DET_REL
        use_pencil = ~deg1 & ~deg2
        cubic = (
            det2,
            np.einsum("tij,tji->t", adj2, a1),
            np.einsum("tij,tji->t", adj1, a2),
            det1,
        )
        safe = np.where(use_pencil, cubic[0], 1.0)
        roots = _real_cubic_roots_point_major(safe, cubic[1], cubic[2], cubic[3])
        members = a1[:, None] + roots[:, :, None, None] * a2[:, None]
        diag = _adj3_diagonal_point_major(members)
        piv3 = np.abs(diag).argmax(axis=2)
        bpp3 = np.take_along_axis(diag, piv3[:, :, None], axis=2)[:, :, 0]
        best = np.argmax(-bpp3, axis=1)
        member = members[np.arange(t_count), best]
        member = np.where(deg1[:, None, None], a1, np.where(deg2[:, None, None], a2, member))
        other = np.where(deg1[:, None, None], a2, a1)

        badj = _adj3_point_major(member)
        diag = np.diagonal(badj, axis1=1, axis2=2)
        piv = np.abs(diag).argmax(axis=1)
        bpp = np.take_along_axis(diag, piv[:, None], axis=1)[:, 0]
        b_scale = np.abs(member).reshape(t_count, 9).max(axis=1) ** 2
        p_raw = np.take_along_axis(badj, piv[:, None, None], axis=2)[:, :, 0]

        real_split = bpp <= 1e-12 * b_scale
        beta = np.sqrt(np.maximum(-bpp, 0.0))
        p_vec = p_raw / np.where(beta > 0.0, beta, 1.0)[:, None]
        cmat = member + _skew_point_major(p_vec)
        flat = np.abs(cmat).reshape(t_count, 9)
        ij = flat.argmax(axis=1)
        i_star, j_star = ij // 3, ij % 3
        l_line = np.take_along_axis(cmat, i_star[:, None, None], axis=1)[:, 0, :]
        m_line = np.take_along_axis(cmat, j_star[:, None, None], axis=2)[:, :, 0]
        lines = np.stack([l_line, m_line], axis=1)

        a00 = other[:, 0, 0]
        a01 = other[:, 0, 1]
        a11 = other[:, 1, 1]
        bx = 2.0 * other[:, 0, 2]
        by = 2.0 * other[:, 1, 2]
        cc = other[:, 2, 2]

        pts = np.full((t_count, 4, 2), np.nan)
        valid = np.zeros((t_count, 4), bool)
        for li in range(2):
            la = lines[:, li, 0]
            lb = lines[:, li, 1]
            lc = lines[:, li, 2]
            n = np.hypot(la, lb)
            line_ok = nonzero & real_split & (n > 1e-12 * np.abs(lc)) & (n > 0.0)
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
            disc = np.where((disc < 0.0) & (disc >= -DISC_CLAMP * dscale), 0.0, disc)
            sq = np.sqrt(np.maximum(disc, 0.0))
            quad_ = np.abs(qa) > 1e-14 * qs
            lin = ~quad_ & (np.abs(qb) > 1e-14 * qs)
            qq = -0.5 * (qb + np.where(qb >= 0.0, sq, -sq))
            r1 = np.where(quad_, qq / np.where(quad_, qa, 1.0), np.nan)
            qq_ok = quad_ & (np.abs(qq) > 0.0)
            r2 = np.where(qq_ok, qc / np.where(qq_ok, qq, 1.0), r1)
            r1 = np.where(lin, -qc / np.where(lin, qb, 1.0), r1)
            r2 = np.where(quad_, r2, np.nan)
            root_ok = line_ok & (disc >= 0.0)
            for ri, roots_li in enumerate((r1, r2)):
                slot = 2 * li + ri
                ok = root_ok & np.isfinite(roots_li)
                pts[:, slot, 0] = np.where(ok, q0x + roots_li * dx, np.nan)
                pts[:, slot, 1] = np.where(ok, q0y + roots_li * dy, np.nan)
                valid[:, slot] = ok

        fb = nonzero & ~real_split
        hpt = p_raw
        hn = np.abs(hpt).max(axis=1)
        fb_ok = fb & (np.abs(hpt[:, 2]) > 1e-12 * np.where(hn > 0.0, hn, 1.0))
        h2 = np.where(fb_ok, hpt[:, 2], 1.0)
        pts[:, 0, 0] = np.where(fb_ok, hpt[:, 0] / h2, pts[:, 0, 0])
        pts[:, 0, 1] = np.where(fb_ok, hpt[:, 1] / h2, pts[:, 0, 1])
        valid[:, 0] = valid[:, 0] | fb_ok

        x = pts[:, :, 0]
        y = pts[:, :, 1]
        c1, c2 = (ConicImplicit(d[:, None, 0, 0], d[:, None, 0, 1], d[:, None, 1, 1],
                                2.0 * d[:, None, 0, 2], 2.0 * d[:, None, 1, 2], d[:, None, 2, 2])
                  for d in (a1, a2))
        for _ in range(3):
            f1 = c1.evaluate(x, y)
            f2 = c2.evaluate(x, y)
            f1x = 2.0 * (a1[:, None, 0, 0] * x + a1[:, None, 0, 1] * y + a1[:, None, 0, 2])
            f1y = 2.0 * (a1[:, None, 0, 1] * x + a1[:, None, 1, 1] * y + a1[:, None, 1, 2])
            f2x = 2.0 * (a2[:, None, 0, 0] * x + a2[:, None, 0, 1] * y + a2[:, None, 0, 2])
            f2y = 2.0 * (a2[:, None, 0, 1] * x + a2[:, None, 1, 1] * y + a2[:, None, 1, 2])
            det = f1x * f2y - f1y * f2x
            det_scale = np.abs(f1x * f2y) + np.abs(f1y * f2x)
            ok = valid & (np.abs(det) > 1e-12 * det_scale) & np.isfinite(det)
            det_safe = np.where(ok, det, 1.0)
            step_x = (f1 * f2y - f2 * f1y) / det_safe
            step_y = (f1x * f2 - f2x * f1) / det_safe
            x = np.where(ok, x - step_x, x)
            y = np.where(ok, y - step_y, y)
        pts[:, :, 0] = x
        pts[:, :, 1] = y

        f1 = c1.evaluate(x, y)
        f2 = c2.evaluate(x, y)
        r1s = c1.residual_scale(x, y)
        r2s = c2.residual_scale(x, y)
        valid &= np.isfinite(x) & np.isfinite(y)
        valid &= (np.abs(f1) <= RES_REL * r1s) & (np.abs(f2) <= RES_REL * r2s)

        for hi in range(1, 4):
            for lo in range(hi):
                both = valid[:, hi] & valid[:, lo]
                close = both & (np.hypot(x[:, hi] - x[:, lo], y[:, hi] - y[:, lo]) <= DEDUP_REL)
                valid[:, hi] = valid[:, hi] & ~close

        pts[:, :, 0] = h * x + cx
        pts[:, :, 1] = h * y + cy
    return pts, valid


def likely_winner_scalar(arr, point):
    """The ``arr.winner_grid`` generator at the grid node nearest one point,
    each coordinate rounded to its node half to even and clamped to the grid."""
    lo, step, winner = arr.winner_grid
    last = winner.shape[0] - 1
    ix, iy = (min(max(round((float(point[a]) - lo[a]) / step[a]), 0), last) for a in (0, 1))
    return int(winner[iy, ix])


def screened_min_point_major(arr, points, bound, skip=None):
    """``SceneArrays.screened_min`` on (N, c) distance blocks, gathering the
    points still alive from the full arrays at every block; each point's
    likely winner (``likely_winner_scalar``) is a block of its own, (N, 1),
    before the others."""
    m = np.full(points.shape[0], np.inf)
    alive = np.arange(points.shape[0])
    # each block as (N, c) columns, one row per point
    blocks = [np.array([[likely_winner_scalar(arr, q)] for q in points]).reshape(-1, 1)]
    blocks += [np.tile(np.arange(lo, min(lo + GEN_BLOCK, arr.n)), (points.shape[0], 1))
               for lo in range(0, arr.n, GEN_BLOCK)]
    for cols in blocks:
        cols = cols[alive]
        d = arr.dist(points[alive], cols)
        if skip is not None:
            d[(cols[:, :, None] == skip[alive][:, None, :]).any(axis=2)] = np.inf
        m_alive = np.minimum(m[alive], d.min(axis=1))
        m[alive] = m_alive
        alive = alive[~(bound[alive] - m_alive > 2.0 * VERT_REL * (1.0 + np.abs(m_alive)))]
        if alive.size == 0:
            break
    return alive, m[alive]


def two_nearest_point(point, idx_i, idx_j, arr):
    """True iff generators (idx_i, idx_j) attain the two smallest distances at one point."""
    d = arr.dist(point[None, :])[0]
    di, dj = d[idx_i], d[idx_j]
    if arr.n <= 2:
        return True
    mask = np.ones(arr.n, bool)
    mask[[idx_i, idx_j]] = False
    d3 = float(d[mask].min())
    return max(di, dj) <= d3 + VERT_REL * (1.0 + abs(d3))


def cluster_sweep(cand, trip, ids, radius):
    """Vertex clusters (position, generator ids) of the candidates (K, 2) of
    triples ``trip`` (K, 3) (indices into ``ids``) by an open-cluster sweep,
    as the build clustered before it went through a point index: in
    lexicographic order, a candidate joins the first open cluster within
    radius by hypot, and a cluster closes once a candidate lies more than
    radius past it in x. Clusters come in the order they were opened."""
    order = np.lexsort((cand[:, 1], cand[:, 0]))
    closed, open_clusters = [], []  # (pos, gen ids)
    for pos, (i, j, k) in zip(cand[order], trip[order]):
        members = {ids[i], ids[j], ids[k]}
        matched = False
        still_open = []
        for cpos, cgens in open_clusters:
            if pos[0] - cpos[0] > radius:
                closed.append((cpos, cgens))
                continue
            still_open.append((cpos, cgens))
            if not matched and math.hypot(pos[0] - cpos[0], pos[1] - cpos[1]) <= radius:
                cgens.update(members)
                matched = True
        open_clusters = still_open
        if not matched:
            open_clusters.append((pos, members))
    return closed + open_clusters


def polish_vertices_scalar(vertices, implicits, length_scale):
    """Newton-refine each vertex on its two best-conditioned bisectors, one at a time.

    ``implicits`` maps a generator id pair to its bisector's ConicImplicit.
    """
    max_step = DEDUP_REL * length_scale
    for v in vertices:
        pairs = [p for p in itertools.combinations(sorted(v.gens), 2) if p in implicits]
        if len(pairs) < 2:
            continue
        x0, y0 = float(v.pos[0]), float(v.pos[1])
        best = None
        for pa, pb in itertools.combinations(pairs, 2):
            g1 = implicits[pa].gradient(x0, y0)
            g2 = implicits[pb].gradient(x0, y0)
            n1 = math.hypot(g1[0], g1[1])
            n2 = math.hypot(g2[0], g2[1])
            if n1 == 0.0 or n2 == 0.0:
                continue
            sine = abs(g1[0] * g2[1] - g1[1] * g2[0]) / (n1 * n2)
            if best is None or sine > best[0]:
                best = (sine, pa, pb)
        if best is None or best[0] < 1e-6:
            continue
        c1 = implicits[best[1]]
        c2 = implicits[best[2]]
        x, y = x0, y0
        for _ in range(3):
            f1 = c1.evaluate(x, y)
            f2 = c2.evaluate(x, y)
            g1 = c1.gradient(x, y)
            g2 = c2.gradient(x, y)
            det = g1[0] * g2[1] - g1[1] * g2[0]
            if det == 0.0:
                break
            x += (-f1 * g2[1] + f2 * g1[1]) / det
            y += (f1 * g2[0] - f2 * g1[0]) / det
        if math.isfinite(x) and math.isfinite(y) and math.hypot(x - x0, y - y0) <= max_step:
            v.pos = np.array([x, y])


def _project_param_scalar(p, v, t):
    """Gauss-Newton projection of v onto the curve near parameter t, one point."""
    if not math.isfinite(t):
        return t
    alpha = alpha_of_param(t)
    best_alpha, best_d2 = alpha, None
    for _ in range(3):
        try:
            q = point_at_alpha_scalar(p, alpha)
            dv = velocity_at_alpha_scalar(p, alpha)
        except SingularParameterError:
            break
        rx, ry = v[0] - q[0], v[1] - q[1]
        d2 = rx * rx + ry * ry
        if best_d2 is None or d2 < best_d2:
            best_alpha, best_d2 = alpha, d2
        n2 = dv[0] * dv[0] + dv[1] * dv[1]
        if n2 <= 0.0:
            break
        alpha = alpha + (rx * dv[0] + ry * dv[1]) / n2
    else:
        try:
            q = point_at_alpha_scalar(p, alpha)
            rx, ry = v[0] - q[0], v[1] - q[1]
            d2 = rx * rx + ry * ry
            if best_d2 is None or d2 < best_d2:
                best_alpha = alpha
        except SingularParameterError:
            pass
    return param_of_alpha(best_alpha)


def param_of_point_scalar(p, v, eps):
    """Parameters of one point on one curve; None where nothing lies within eps."""
    v = np.asarray(v, dtype=float)
    qx = tuple(p.xq[k] - v[0] * p.uq[k] for k in range(3))
    qy = tuple(p.yq[k] - v[1] * p.uq[k] for k in range(3))
    candidates = []
    inf_candidate = True
    for q in (qx, qy):
        roots, inf_root, everywhere = real_quadratic_roots_scalar(*q)
        if not everywhere:
            candidates.extend(roots)
            inf_candidate = inf_candidate and inf_root
    if inf_candidate:
        candidates.append(math.inf)
    accepted = []
    for t in candidates:
        x, y, u = homogeneous_at_scalar(p, t)
        if abs(u) <= DEN_REL * p.u_scale:
            continue
        if math.hypot(x / u - v[0], y / u - v[1]) <= eps:
            accepted.append(_project_param_scalar(p, v, t))
    if not accepted:
        return None
    return merge_params_scalar(accepted)


def merge_params_scalar(accepted):
    """Sort parameters by alpha and drop near-duplicates, circularly."""
    # merge duplicates in alpha space (handles inf and near-equal finite t)
    accepted = sorted(accepted, key=alpha_of_param)
    merged = []
    for t in accepted:
        if merged:
            prev = merged[-1]
            da = abs(wrap_angle(alpha_of_param(t) - alpha_of_param(prev)))
            if da <= PARAM_MERGE * 10.0 or (
                math.isfinite(t)
                and math.isfinite(prev)
                and abs(t - prev) <= PARAM_MERGE * (1.0 + abs(t) + abs(prev))
            ):
                continue
        merged.append(t)
    # the list is circular: first and last may also coincide
    if len(merged) > 1:
        da = abs(wrap_angle(alpha_of_param(merged[0]) - alpha_of_param(merged[-1])))
        if da <= PARAM_MERGE * 10.0:
            merged.pop()
    return merged


def _quad_over_arc(f, a0, a1):
    """scipy quad on [a0, a1], told about the chart breaks alpha = pi/2 mod pi."""
    k = math.ceil((a0 - 0.5 * math.pi) / math.pi)
    breaks = [c for c in (0.5 * math.pi + (k + i) * math.pi for i in range(8)) if a0 < c < a1]
    val, _ = quad(f, a0, a1, points=breaks or None, limit=200,
                  epsabs=QUAD_ABS, epsrel=1e-12)
    return val


def quad_arc_length(param, a0, a1):
    """Arc length by scalar adaptive quadrature of the speed (reference)."""

    def speed(a):
        v = velocity_at_alpha_scalar(param, a)
        return math.hypot(v[0], v[1])

    return _quad_over_arc(speed, a0, a1)


def quad_arc_area(param, a0, a1):
    """Integral of (x y' - y x') / 2 along the arc by scalar quadrature (reference)."""

    def f(a):
        p = point_at_alpha_scalar(param, a)
        v = velocity_at_alpha_scalar(param, a)
        return 0.5 * (p[0] * v[1] - p[1] * v[0])

    return _quad_over_arc(f, a0, a1)


# ------------------------------------------- scalar conic evaluation (reference)
#
# The package evaluates conics in batches only (gbpd.conic's
# real_quadratic_roots_batch, homogeneous_at_params and points_at_alphas),
# over the rows of a bisector table. These one-value forms are what the
# batches must equal bit for bit: a quadratic coefficient triple (c2, c1, c0)
# is evaluated by Horner's rule in chart 0 for |t| <= 1 (|alpha| <= pi/2) and
# in the t -> -1/t chart otherwise, whose triple is (c0, -c1, c2). They read
# a curve as its chart-0 triples xq, yq, uq and denominator scale u_scale,
# and a line as its coefficients a, b, c: ``row_curve`` and ``row_line`` hand
# them those numbers of one table row, unchanged.


class RowCurve(NamedTuple):
    xq: tuple
    yq: tuple
    uq: tuple
    u_scale: float


class RowLine(NamedTuple):
    a: float
    b: float
    c: float


def row_curve(table, row):
    """The curve of row ``row`` of a bisector table, as the references read it."""
    xq, yq, uq = (tuple(q) for q in table.chart[row, 0].tolist())
    return RowCurve(xq, yq, uq, float(table.u_scale[row]))


def row_line(table, row, c):
    """Line c of row ``row`` of a bisector table."""
    return RowLine(*table.lines[row, c].tolist())


def real_quadratic_roots_scalar(a, b, c, rel=1e-13):
    """Real roots of a t^2 + b t + c as (roots, inf_is_root, identically_zero)."""
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        return [], True, True
    if abs(a) <= rel * scale:
        # degree drop: the homogenized form vanishes at (t : 1) = (1 : 0)
        if abs(b) <= rel * scale:
            return [], True, False
        return [-c / b], True, False
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return [], False, False
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b if b != 0.0 else 1.0))
    r1 = q / a
    r2 = c / q if q != 0.0 else r1
    return sorted((r1, r2)), False, False


def _eval_triple(triple, s):
    return (triple[0] * s + triple[1]) * s + triple[2]


def _derivative_triple(triple, s):
    return 2.0 * triple[0] * s + triple[1]


def _chart_triples(p, chart):
    if chart == 0:
        return p.xq, p.yq, p.uq
    return tuple((q[2], -q[1], q[0]) for q in (p.xq, p.yq, p.uq))


def homogeneous_at_scalar(p, t):
    """(X, Y, U) of a parametrized conic at parameter t, chart chosen by |t|."""
    if math.isinf(t):
        return (p.xq[0], p.yq[0], p.uq[0])
    if abs(t) <= 1.0:
        return tuple(_eval_triple(q, t) for q in _chart_triples(p, 0))
    return tuple(_eval_triple(q, -1.0 / t) for q in _chart_triples(p, 1))


def line_point_scalar(line, t):
    """Point q + t d of a normalized line, q = -c (a, b) and d = (-b, a)."""
    return np.array([-line.c * line.a - t * line.b, -line.c * line.b + t * line.a])


def _chart_of_alpha(alpha):
    a = wrap_angle(alpha)
    if abs(a) <= 0.5 * math.pi:
        return 0, math.tan(0.5 * a)
    return 1, math.tan(0.5 * a - 0.5 * math.pi)


def point_at_alpha_scalar(p, alpha):
    chart, s = _chart_of_alpha(alpha)
    tx, ty, tu = _chart_triples(p, chart)
    u = _eval_triple(tu, s)
    if abs(u) <= DEN_REL * p.u_scale:
        raise SingularParameterError(f"alpha={alpha} lies on the line at infinity")
    return np.array([_eval_triple(tx, s) / u, _eval_triple(ty, s) / u])


def velocity_at_alpha_scalar(p, alpha):
    """d(x, y)/d alpha; ds/dalpha = (1 + s^2)/2 in either chart."""
    chart, s = _chart_of_alpha(alpha)
    tx, ty, tu = _chart_triples(p, chart)
    x, y, u = _eval_triple(tx, s), _eval_triple(ty, s), _eval_triple(tu, s)
    if abs(u) <= DEN_REL * p.u_scale:
        raise SingularParameterError(f"alpha={alpha} lies on the line at infinity")
    dx, dy, du = (_derivative_triple(q, s) for q in (tx, ty, tu))
    f = 0.5 * (1.0 + s * s) / (u * u)
    return np.array([(dx * u - x * du) * f, (dy * u - y * du) * f])


def _window_sides(window):
    # (axis, value, other_lo, other_hi, side): bottom, right, top, left
    return (
        (1, window.ymin, window.xmin, window.xmax, 0),
        (0, window.xmax, window.ymin, window.ymax, 1),
        (1, window.ymax, window.xmin, window.xmax, 2),
        (0, window.xmin, window.ymin, window.ymax, 3),
    )


def curve_crossings_scalar(p, e, window, snap):
    """Window crossings of one curved edge on the curve p as (offset from a0,
    pos, side), in candidate order: sides 0-3, roots ascending, then t = inf."""
    span = e.a1 - e.a0
    out = []
    for axis, value, lo, hi, side in _window_sides(window):
        main = p.xq if axis == 0 else p.yq
        q = tuple(main[k] - value * p.uq[k] for k in range(3))
        roots, inf_root, everywhere = real_quadratic_roots_scalar(*q)
        if everywhere:
            continue
        for t in list(roots) + ([math.inf] if inf_root else []):
            x, y, u = homogeneous_at_scalar(p, t)
            if abs(u) <= DEN_REL * p.u_scale:
                continue
            pos = np.array([x / u, y / u])
            other = pos[1] if axis == 0 else pos[0]
            if not (lo - snap <= other <= hi + snap):
                continue
            off = (alpha_of_param(t) - e.a0) % (2.0 * math.pi)
            if e.kind == "loop":
                out.append((off % (2.0 * math.pi), pos, side))
            elif -1e-12 <= off <= span + 1e-12:
                out.append((min(max(off, 0.0), span), pos, side))
    return out


def line_crossings_scalar(line, t_lo, t_hi, window, snap):
    """Window crossings of one straight edge as (t, pos, side), in side order."""
    out = []
    d = np.array([-line.b, line.a])
    q0 = np.array([-line.c * line.a, -line.c * line.b])
    for axis, value, lo, hi, side in _window_sides(window):
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


class NodeScan:
    """The clip's node snap as a scan of every point, in the interface of
    ``gbpd.geometry.PointIndex``: ``near(pos)`` is the least key whose point
    lies within snap of pos, by the clip's test."""

    def __init__(self, snap, points=()):
        self.snap = snap
        self.points = list(points)

    def add(self, key, pos):
        self.points.append((key, pos))

    def near(self, pos):
        for key, at in sorted(self.points, key=lambda kp: kp[0]):
            if math.hypot(*(at - pos)) <= self.snap:
                return key
        return None


def piece_point_scalar(graph, piece, f):
    """Point at fraction f along a clip piece's stored direction."""
    if piece.kind == "boundary":
        return piece.p0 + f * (piece.p1 - piece.p0)
    a = piece.a0 + f * (piece.a1 - piece.a0)
    if piece.kind == "arc":
        return point_at_alpha_scalar(row_curve(graph.table, piece.edge_id), a)
    return line_point_scalar(row_line(graph.table, piece.edge_id, piece.line_index), a)


def flatten_piece_scalar(graph, piece, ftol):
    """Recursive chord-deviation flattening of one piece, end point included."""
    if piece.kind != "arc":
        return [piece.p0, piece.p1]
    knots = [0.0, 0.25, 0.5, 0.75, 1.0] if piece.closed else [0.0, 0.5, 1.0]
    pts = [piece_point_scalar(graph, piece, f) for f in knots]
    out = []

    def refine(f0, f1, p0, p1, depth):
        out.append(p0)
        if depth >= 14:
            return
        fm = 0.5 * (f0 + f1)
        pm = piece_point_scalar(graph, piece, fm)
        chord = p1 - p0
        n = math.hypot(chord[0], chord[1])
        if n == 0.0:
            dev = math.hypot(*(pm - p0))
        else:
            dev = abs(chord[0] * (pm[1] - p0[1]) - chord[1] * (pm[0] - p0[0])) / n
        if dev <= ftol:
            return
        out.pop()
        refine(f0, fm, p0, pm, depth + 1)
        refine(fm, f1, pm, p1, depth + 1)

    for k in range(len(knots) - 1):
        refine(knots[k], knots[k + 1], pts[k], pts[k + 1], 0)
    return out + [pts[-1]]


# ------------------------------------------------ curve representatives
#
# The build finds the representative point of every curve piece with one
# level loop over all pieces. This is the per-piece probe sequence it
# replaced: the midpoint, or, for a lopsided interval with one singular
# end, probes moving geometrically toward the finite end.


def probe_alphas_scalar(a_lo, a_hi, lo_singular, hi_singular):
    """The alphas tried, in order, for a representative strictly inside (a_lo, a_hi)."""
    mid = 0.5 * (a_lo + a_hi)
    anchor = mid
    if lo_singular and not hi_singular:
        anchor = a_hi
    elif hi_singular and not lo_singular:
        anchor = a_lo
    for k in range(60):
        yield anchor + (mid - anchor) * (0.5**k) if anchor != mid else mid


def arc_representative_scalar(p, a_lo, a_hi, lo_singular, hi_singular, length_scale):
    """First probe point of a curve piece that is regular, finite and within
    1e6 (1 + length_scale) of the origin, or None."""
    limit = 1e6 * (1.0 + length_scale)
    for alpha in probe_alphas_scalar(a_lo, a_hi, lo_singular, hi_singular):
        try:
            q = point_at_alpha_scalar(p, alpha)
        except SingularParameterError:
            continue
        if np.all(np.isfinite(q)) and max(abs(q[0]), abs(q[1])) <= limit:
            return q
        if not (lo_singular or hi_singular):
            return None
    return None


# ---------------------------------------------- graph assembly and hole test
#
# The loop forms of the cell-component grouping and of the even-odd hole
# test, which the package now runs as a vertex-keyed search and as one
# array pass.


# ------------------------------------------------------------ edge objects
#
# The graph's edges as one object each, with the labels encoded and decoded
# one edge at a time by scalar math calls: the bit-for-bit reference of the
# EDGE record's array passes.

TWO_PI = 2.0 * math.pi


def curve_labels(a0, a1, ends):
    """(kind, t_a, t_b) of the curve piece on the alpha interval (a0, a1 = a0 + span)."""
    lo = wrap_angle(a0)
    hi = lo + (a1 - a0)
    if hi - lo >= TWO_PI - 1e-15 and ends == (None, None):
        return "loop", None, None
    t_a = -math.inf if lo == math.pi else param_of_alpha(lo)
    return "wrap" if lo < math.pi < hi else "interval", t_a, param_of_alpha(hi)


def edge_interval(kind, t_a, t_b, line):
    """The parameter interval (a0, a1) of an edge with these labels; labels
    that name no edge raise InputError."""
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
class EdgeSegment:
    """One edge: its labels, endpoints (vertex ids, None for none),
    component and line (None on a curve), and its interval a0 < a1 decoded
    from the labels by ``edge_interval``."""

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
        self.a0, self.a1 = edge_interval(self.kind, self.t_a, self.t_b, self.line_index)

    def is_curve(self):
        return self.line_index is None

    def is_loop(self):
        return self.kind == "loop"

    def is_finite(self):
        """True for a closed loop or a piece with two finite ends."""
        if self.is_curve():
            return self.is_loop() or None not in self.endpoints
        return math.isfinite(self.a0) and math.isfinite(self.a1)


def edge_segments(edges):
    """EdgeSegments of EDGE rows, row k as edge k: the columns' -1 and NaN
    read as None, the interval decoded from the labels anew."""
    def opt(v):
        return None if v < 0 else v

    return [EdgeSegment(k, tuple(pair), EDGE_KINDS[kind], None if t_a != t_a else t_a,
                        None if t_b != t_b else t_b, (opt(na), opt(nb)), comp, opt(line))
            for k, (pair, kind, t_a, t_b, na, nb, comp, line) in enumerate(zip(
                edges["pair"].tolist(),
                *(edges[n].tolist() for n in ("kind", "t_a", "t_b", "node_a", "node_b",
                                              "component", "line"))))]


def piece_segment(pair, line, ci, x0, x1, v0, v1):
    """EdgeSegment of the visible piece (x0, x1) of component ``ci`` of the
    bisector of ``pair``, a component on line ``line`` or, with None, a curve."""
    if line is None:
        return EdgeSegment(-1, pair, *curve_labels(x0, x1, (v0, v1)), (v0, v1), ci)
    if math.isinf(x0) and math.isinf(x1):
        return EdgeSegment(-1, pair, "full_line", None, None, (None, None), ci, line)
    return EdgeSegment(-1, pair, "interval", x0, x1, (v0, v1), ci, line)


def boundary_components_union_find(edge_ids, edges):
    """Group a cell's edges into connected components via shared vertices (union-find)."""
    if not edge_ids:
        return []
    parent = {eid: eid for eid in edge_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    by_vertex = {}
    for eid in edge_ids:
        for vid in edges[eid].endpoints:
            if vid is not None:
                by_vertex.setdefault(vid, []).append(eid)
    for eids in by_vertex.values():
        for other in eids[1:]:
            union(eids[0], other)
    groups = {}
    for eid in edge_ids:
        groups.setdefault(find(eid), []).append(eid)
    return [sorted(groups[root]) for root in sorted(groups)]


def point_in_polygon_scalar(poly, q):
    """Even-odd test of q against the closed polygon poly, one edge at a time."""
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


# ------------------------------------------------------- per-cell raster
#
# The analytic raster paints every pixel in one scanline pass over the clip
# pieces. This is the fill it replaced: each cell's loop polygons filled
# even-odd, row by row, contested pixels to the smallest id, and pixels
# left unlabelled filled from their nearest labelled neighbour.


def rasterize_cells_per_cell(cd, width, height, counts=None):
    """Label image of the clipped diagram cd, filled one cell at a time.

    With a dict ``counts``, adds the number of pixels inside the polygons
    of more than one cell ("contested") and the number that no cell covers
    ("repaired") to it.
    """
    px = cd.window.width / width
    origin = np.array([cd.window.xmin, cd.window.ymin])
    ids = tuple(sorted(g.id for g in cd.graph.generators))
    labels = np.full((height, width), -1, dtype=np.int32)
    covered = np.zeros((height, width), dtype=np.int32)
    xs = origin[0] + (np.arange(width) + 0.5) * px
    lines = flatten_pieces(cd.graph, cd.pieces, px / 20.0)
    position = {gid: c for c, gid in enumerate(cd.loops.cells.tolist())}
    for gid in ids:
        polys = [p for p in loop_polygons(lines, cd.loops.runs(position[gid])) if len(p) >= 3]
        if not polys:
            continue
        edges_a = np.concatenate(polys)
        edges_b = np.concatenate([np.roll(p, -1, axis=0) for p in polys])
        ymin = min(float(p[:, 1].min()) for p in polys)
        ymax = max(float(p[:, 1].max()) for p in polys)
        iy0 = max(0, int(math.floor((ymin - origin[1]) / px - 0.5)))
        iy1 = min(height - 1, int(math.ceil((ymax - origin[1]) / px - 0.5)))
        ya, yb = edges_a[:, 1], edges_b[:, 1]
        for iy in range(iy0, iy1 + 1):
            y = origin[1] + (iy + 0.5) * px
            hit = (ya > y) != (yb > y)
            if not hit.any():
                continue
            a, b = edges_a[hit], edges_b[hit]
            xc = a[:, 0] + (y - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
            xc.sort()
            inside = (np.searchsorted(xc, xs) % 2) == 1
            covered[iy] += inside
            row = labels[iy]
            row[inside & (row == -1)] = gid
    missing = labels < 0
    if counts is not None:
        counts["contested"] = counts.get("contested", 0) + int((covered > 1).sum())
        counts["repaired"] = counts.get("repaired", 0) + int(missing.sum())
    if missing.any() and not missing.all():
        _, (ii, jj) = ndimage.distance_transform_edt(missing, return_indices=True)
        labels = labels[ii, jj]
    return LabelImage(width, height, origin, px, labels, ids)


# ------------------------------------------------- per-row scanline raster
#
# The analytic raster fills every row in one accumulate pass over an event
# image. This is the per-row form it replaced, which must give the same
# labels: one searchsorted of the pixel centres into each row's sorted
# crossings.


def rasterize_cells_per_row(cd, width, height):
    """Label image of the clipped diagram cd, one row at a time: a pixel takes
    the east cell of the last crossing of its row strictly left of its centre."""
    origin, px = _image_frame(cd.window, width, height)
    ids = tuple(sorted(g.id for g in cd.graph.generators))
    xs = origin[0] + (np.arange(width) + 0.5) * px
    ys = origin[1] + (np.arange(height) + 0.5) * px
    lines = flatten_pieces(cd.graph, cd.pieces, px / 20.0)
    a = np.concatenate([ln[:-1] for ln in lines])
    b = np.concatenate([ln[1:] for ln in lines])
    sides = np.repeat(np.column_stack([cd.pieces["left"], cd.pieces["right"]]),
                      [len(ln) - 1 for ln in lines], axis=0)
    east = np.where(b[:, 1] > a[:, 1], sides[:, 1], sides[:, 0])
    r0 = np.searchsorted(ys, np.minimum(a[:, 1], b[:, 1]))
    r1 = np.searchsorted(ys, np.maximum(a[:, 1], b[:, 1]))
    seg = np.repeat(np.arange(len(a)), r1 - r0)
    row = np.arange(seg.size) - np.repeat(np.cumsum(r1 - r0) - r1, r1 - r0)
    y, sa, sb = ys[row], a[seg], b[seg]
    xc = sa[:, 0] + (y - sa[:, 1]) * (sb[:, 0] - sa[:, 0]) / (sb[:, 1] - sa[:, 1])
    order = np.lexsort((xc, row))
    xc, east, row = xc[order], east[seg[order]], row[order]
    bounds = np.searchsorted(row, np.arange(height + 1))
    labels = np.empty((height, width), dtype=np.int32)
    for iy in range(height):
        k = bounds[iy] + np.searchsorted(xc[bounds[iy]:bounds[iy + 1]], xs)
        labels[iy] = np.where(k > bounds[iy], east[k - 1], -1)
    return LabelImage(width, height, origin, px, labels, ids)


# ------------------------------------------------- quadrature rounds
#
# The arc-measure kernel keeps its open pieces as one packed table and takes
# the node sums of a round in stacked passes. This is the round loop it
# replaced, which must give the same bits and the same QuadratureError: the
# arcs cut at their chart breaks one by one, seven filtered and repeated
# piece arrays, and one column pass per node sum. The caps are read from
# gbpd.measure when the loop runs, so a test that patches them patches both.


def _chart_breaks(a0, a1):
    out = []
    k = math.ceil((a0 - 0.5 * math.pi) / math.pi)
    c = 0.5 * math.pi + k * math.pi
    while c < a1:
        if c > a0:
            out.append(c)
        k += 1
        c = 0.5 * math.pi + k * math.pi
    return out


def _node_sum(f, w):
    acc = w[0] * f[:, 0]
    for k in range(1, 15):
        acc = acc + w[k] * f[:, k]
    return acc


def _gk15_columns(coef, u_scale, origin, lo, hi):
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    scale = np.abs(half)
    coef = coef.copy()
    coef[:, :, :2] -= origin[:, None, :, None] * coef[:, :, 2:3]
    x, y, vx, vy, cond = eval_alpha_batch(coef, u_scale, center[:, None] + half[:, None] * gmeasure._GK_X)
    res = np.empty((lo.size, 2))
    err = np.empty((lo.size, 2))
    eps = np.finfo(float).eps
    wk, wg = gmeasure._GK_WK, gmeasure._GK_WG
    shifted = 0.5 * cond * (np.abs(origin[:, 0:1] * vy) + np.abs(origin[:, 1:2] * vx))
    floor = 50.0 * eps * _node_sum(shifted, wk) * scale
    for j, f in enumerate((0.5 * (x * vy - y * vx), np.hypot(vx, vy))):
        resk = _node_sum(f, wk)
        resabs = _node_sum(np.abs(f), wk) * scale
        resasc = _node_sum(np.abs(f - 0.5 * resk[:, None]), wk) * scale
        e = np.abs(resk - _node_sum(f, wg)) * scale
        nz = (resasc != 0.0) & (e != 0.0)
        e[nz] = resasc[nz] * np.minimum(1.0, (200.0 * e[nz] / resasc[nz]) ** 1.5)
        res[:, j] = resk * half
        err[:, j] = np.maximum(e, 50.0 * eps * resabs)
    return res, err, floor


def arc_measures_rounds(coef, u_scale, a0, a1):
    """``gbpd.measure.arc_measures`` as a loop of per-array rounds (reference)."""
    coef, u_scale = np.asarray(coef, dtype=float), np.asarray(u_scale, dtype=float)
    n = u_scale.size
    out = np.zeros((n, 2))
    if n == 0:
        return out[:, 0], out[:, 1]
    ends = np.stack([np.asarray(a0, dtype=float), np.asarray(a1, dtype=float)], axis=1)
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
    res, err, rnd = _gk15_columns(coef[arc], u_scale[arc], origin[arc], lo, hi)
    while True:
        tot = np.stack([np.bincount(arc, res[:, j], n) for j in (0, 1)], axis=1)
        tot[:, 0] += shift
        est = np.stack([np.bincount(arc, err[:, j], n) for j in (0, 1)], axis=1)
        target = np.maximum(QUAD_ABS, 1e-12 * np.abs(tot))
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
        over = split & ((depth >= gmeasure._MAX_DEPTH) | (pieces[arc] > gmeasure._MAX_PIECES))
        if over.any():
            k = int(arc[over][0])
            raise QuadratureError(
                f"arc {k} (alpha {float(ends[k, 0])!r} to {float(ends[k, 1])!r}) misses its error "
                f"target: estimates {est[k].tolist()}, targets {target[k].tolist()}, "
                f"depth {int(depth[arc == k].max())}, {int(pieces[k])} pieces"
            )
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
        res[fresh], err[fresh], rnd[fresh] = _gk15_columns(
            coef[arc[fresh]], u_scale[arc[fresh]], origin[arc[fresh]], lo[fresh], hi[fresh])


# ---------------------------------------------------------- object clip
#
# The clip is one array record: pieces as columns, cell loops as runs of
# half-pieces. These are the objects it replaced, which must give the same
# text (``clip_text_objects`` prints the form of ``clip_text`` in
# ``scripts/output_digests.py``) and the same measures bit for bit: nodes
# and pieces as dataclasses, the per-cell dict walk that chained them, and
# the loop sums taken piece by piece. ``clip_to_window_per_edge`` is the
# object clip with every edge through the per-edge loop, candidates as
# pieces, and the sides from a second evaluation of the kept pieces.


@dataclass
class ClipNode:
    id: int
    pos: np.ndarray
    kind: str  # "corner" | "vertex" | "crossing"
    boundary_s: float | None = None  # arc position along the window border


@dataclass
class ClipPiece:
    """One boundary piece of a clipped cell: kind "arc" (params are alphas),
    "segment" (line parameters) or "boundary" (window border), None where a
    field does not apply; stored direction is increasing parameter."""

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
class ClipObjects:
    window: object
    graph: object
    nodes: list
    pieces: list
    cells: dict  # cell id -> loops, each a list of (piece id, forward)


def piece_kinds(pieces):
    """Kind of each PIECE row: "boundary", "arc" or "segment"."""
    kinds = np.where(pieces["line"] < 0, "arc", "segment")
    return np.where(pieces["edge"] < 0, "boundary", kinds).tolist()


def loop_lists(loops):
    """Each cell id's loops (a CellLoops) as lists of (piece, forward) pairs."""
    return {gid: [lp.tolist() for lp in loops.runs(c)] for c, gid in enumerate(loops.cells.tolist())}


def piece_objects(pieces, edges=None):
    """ClipPieces of PIECE rows, numbered in order; the pairs come from ``edges``."""
    out = []
    pairs = [] if edges is None else [tuple(pair) for pair in edges["pair"].tolist()]
    for k, (kind, row) in enumerate(zip(piece_kinds(pieces), pieces.tolist())):
        edge, line, a0, a1, na, nb, closed, left, right, p0, p1 = row
        bisector = edge >= 0
        out.append(ClipPiece(
            k, kind, pairs[edge] if bisector and edges is not None else None,
            edge if bisector else None, None if line < 0 else line,
            a0 if bisector else None, a1 if bisector else None,
            None if na < 0 else na, None if nb < 0 else nb, closed,
            None if left < 0 else left, None if right < 0 else right,
            None if np.isnan(p0).any() else p0, None if np.isnan(p1).any() else p1))
    return out


def _hexes(values):
    if values is None:
        return "-"
    return ",".join(float(v).hex() for v in np.ravel(np.asarray(values, dtype=float)))


def clip_text_objects(ref):
    """The text form of an object clip, as ``clip_text`` prints a record."""
    rows = [f"node {nd.id} {nd.kind} {_hexes(nd.pos)} {_hexes(nd.boundary_s)}" for nd in ref.nodes]
    rows += [
        f"piece {p.id} {p.kind} {p.pair} {p.edge_id} {p.line_index} {_hexes(p.a0)} {_hexes(p.a1)} "
        f"{p.node_a} {p.node_b} {p.closed} {p.left} {p.right} {_hexes(p.p0)} {_hexes(p.p1)}"
        for p in ref.pieces
    ]
    rows += [f"cell {gid} {loops}" for gid, loops in sorted(ref.cells.items())]
    return "\n".join(rows)


def _table_rows(pieces):
    """The table rows and line indices of arc and segment pieces."""
    return (np.array([p.edge_id for p in pieces], dtype=np.intp),
            np.array([-1 if p.kind == "arc" else p.line_index for p in pieces], dtype=np.intp))


def _set_ends(graph, pieces):
    """Set p0 and p1 of the segment pieces, and p0 (p1) of the arc pieces with
    a start (end) node, from one evaluation."""
    ends = [(p, "p0", p.a0) for p in pieces if p.kind == "segment" or p.node_a is not None]
    ends += [(p, "p1", p.a1) for p in pieces if p.kind == "segment" or p.node_b is not None]
    at = gclip._regular_rows(graph, *_table_rows([p for p, _, _ in ends]),
                             np.array([a for _, _, a in ends], dtype=float))
    for (piece, field, _), q in zip(ends, at):
        setattr(piece, field, q[:2])


def chain_cell(gid, pieces, directed):
    """Chain one cell's directed pieces (piece id, forward) into closed loops:
    a loop follows the pieces end node to start node, taking at each node the
    first unused piece in sorted order; closed pieces are loops on their own."""
    directed = sorted(directed)
    start_map = {}
    loops = []
    used = set()
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


def assemble_cells(cells, pieces):
    """Loops of each cell id of ``cells``: every piece forward in its left
    cell and backward in its right one, chained cell by cell."""
    by_cell = {gid: [] for gid in cells}
    for piece in pieces:
        if piece.left in by_cell:
            by_cell[piece.left].append((piece.id, True))
        if piece.right in by_cell:
            by_cell[piece.right].append((piece.id, False))
    return {gid: chain_cell(gid, pieces, directed) for gid, directed in by_cell.items()}


def clip_to_window_per_edge(graph, window):
    """``gbpd.clip.clip_to_window`` as objects, with every edge through the per-edge loop (reference)."""
    snap = DEDUP_REL * window.diagonal
    strict = 1e-12 * window.diagonal
    arc_gap = 2.0 * PARAM_MERGE
    nodes = []
    for k, (cx, cy) in enumerate(window.corners()):
        pos = np.array([cx, cy])
        nodes.append(ClipNode(k, pos, "corner", gclip._boundary_s(window, pos, k)))
    corners = PointIndex(snap, ((nd.id, nd.pos) for nd in nodes))
    vertex_node = {}
    for v in graph.vertices:
        if window.contains(v.pos):
            nd = corners.near(np.array(v.pos))
            if nd is None:
                nd = len(nodes)
                nodes.append(ClipNode(nd, np.array(v.pos), "vertex"))
            vertex_node[v.id] = nd
    index = PointIndex(snap, ((nd.id, nd.pos) for nd in nodes))

    def crossing_node(pos, side):
        nd = index.near(pos)
        if nd is None:
            nd = len(nodes)
            nodes.append(ClipNode(nd, pos, "crossing", gclip._boundary_s(window, pos, side)))
            index.add(nd, pos)
        elif nodes[nd].boundary_s is None:
            nodes[nd].boundary_s = gclip._boundary_s(window, nodes[nd].pos, side)
        return nd

    edges = edge_segments(graph.edges)
    curved = [e.id for e in edges if e.is_curve()]
    straight = [e.id for e in edges if not e.is_curve()]
    crossings = {**gclip._curve_crossings(graph, np.array(curved, dtype=np.intp), window, snap),
                 **gclip._line_crossings(graph, np.array(straight, dtype=np.intp), window, snap)}
    candidates = []

    def candidate(kind, e, a0, a1, na, nb, closed, test, margin=strict):
        piece = ClipPiece(-1, kind, e.pair, e.id, e.line_index, a0, a1, na, nb, closed,
                          None, None, None, None)
        candidates.append((piece, test, margin))

    for e in edges:
        found = crossings.get(e.id, [])
        ends = tuple(vertex_node.get(v) if v is not None else None for v in e.endpoints)
        if e.is_curve():
            span = e.a1 - e.a0
            marks = [(off, crossing_node(*at)) for off, at in merge_marks(found, arc_gap)]
            if e.is_loop() and not marks:
                candidate("arc", e, e.a0, e.a1, None, None, True,
                          test=e.a0 + 0.5 * span, margin=0.0)
                continue
            for off0, off1, n0, n1 in split_at_marks(marks, 0.0, span, arc_gap, e.is_loop(), ends):
                a0 = e.a0 + off0
                a1 = e.a0 + off1
                candidate("arc", e, a0, a1, n0, n1, False, test=0.5 * (a0 + a1))
            continue
        marks = [(t, crossing_node(*at)) for t, at in merge_marks(found, snap)]
        for t0, t1, n0, n1 in split_at_marks(marks, e.a0, e.a1, snap, False, ends):
            if not (math.isinf(t0) or math.isinf(t1)):
                candidate("segment", e, t0, t1, n0, n1, False, 0.5 * (t0 + t1))

    # the inside test as it was: one evaluation of all candidates at their
    # test parameters, then ids in order and end points for the kept ones
    xy, singular = gclip._piece_rows(graph, *_table_rows([p for p, _, _ in candidates]),
                                     np.array([t for _, t, _ in candidates]))
    inside = ~singular & window.contains(xy[:, :2], np.array([m for _, _, m in candidates]))
    pieces = [piece for (piece, _, _), keep in zip(candidates, inside.tolist()) if keep]
    _set_ends(graph, pieces)
    for k, piece in enumerate(pieces):
        piece.id = k
    boundary_nodes = sorted((nd for nd in nodes if nd.boundary_s is not None),
                            key=lambda nd: nd.boundary_s)
    perimeter = 2.0 * (window.width + window.height)
    m = len(boundary_nodes)
    border = []
    for k in range(m):
        nd0 = boundary_nodes[k]
        nd1 = boundary_nodes[(k + 1) % m]
        s0 = nd0.boundary_s
        s1 = nd1.boundary_s if k + 1 < m else nd1.boundary_s + perimeter
        if s1 - s0 <= 1e-12 * perimeter:
            continue
        border.append(ClipPiece(len(pieces) + len(border), "boundary", None, None, None, None,
                                None, nd0.id, nd1.id, False, None, None, nd0.pos, nd1.pos))
    if border:
        arr = SceneArrays(graph.generators)
        d = arr.dist(np.array([0.5 * (p.p0 + p.p1) for p in border]))
        best = d == d.min(axis=1, keepdims=True)
        for k in np.flatnonzero(best.sum(axis=1) > 1):
            (x0, y0), (x1, y1) = border[k].p0, border[k].p1
            px, py, m11, m12, m22, _ = arr.coef[:, best[k]]
            dx, dy = 0.5 * (x0 + x1) - px, 0.5 * (y0 + y1) - py
            slope = (m11 * dx + m12 * dy) * (y0 - y1) + (m12 * dx + m22 * dy) * (x1 - x0)
            best[k, best[k]] = ~(slope > slope.min())
        owner = np.where(best, arr.ids, arr.ids.max() + 1).min(axis=1)
        for piece, gid in zip(border, owner.tolist()):
            piece.left = gid
    if pieces:
        # sides from a second evaluation, at each kept piece's mid-parameter
        mid = np.array([0.5 * (p.a0 + p.a1) for p in pieces])
        xy, singular = gclip._piece_rows(graph, *_table_rows(pieces), mid)
        if singular.any():
            raise SingularParameterError(f"alpha={mid[singular][0]} lies on the line at infinity")
        x, y, vx, vy = xy.T
        gx, gy = ConicImplicit(*graph.table.implicit[[p.edge_id for p in pieces]].T).gradient(x, y)
        for piece, keep_order in zip(pieces, (vx * gy - vy * gx < 0.0).tolist()):
            i, j = piece.pair
            piece.left, piece.right = (i, j) if keep_order else (j, i)
    pieces += border
    cells = assemble_cells([g.id for g in graph.generators], pieces)
    return ClipObjects(window, graph, nodes, pieces, cells)


# The measure sums every loop of the record in one array pass. This is the
# per-cell form it replaced: each loop summed piece by piece from 0.0, one
# connector chord between consecutive pieces and one back to the start, and
# the loops grouped per cell, with the scalar flattening, piece points and
# even-odd test in the hole test.


def _chord_term(q0, q1):
    return 0.5 * (q0[0] * q1[1] - q0[1] * q1[0])


def loop_terms(pieces, loop, table):
    """(signed area, length) of one loop of (piece id, forward), the arcs' terms from ``table``."""
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


def measure_cells_per_piece(ref):
    """``measure_cells`` of an object clip, loop by loop and piece by piece;
    every arc on the loops integrated once, in one ``arc_measures`` call."""
    graph, pieces = ref.graph, ref.pieces
    arcs = {pid: (pieces[pid].edge_id, pieces[pid].a0, pieces[pid].a1)
            for loops in ref.cells.values() for lp in loops for pid, _ in lp
            if pieces[pid].kind == "arc"}
    table = {}
    if arcs:
        rows, a0, a1 = (list(col) for col in zip(*arcs.values()))
        areas, lengths = gmeasure.arc_measures(graph.table.chart[rows], graph.table.u_scale[rows],
                                               a0, a1)
        table = {k: (float(a), float(s)) for k, a, s in zip(arcs, areas, lengths)}
    out = {}
    for gid, loops in ref.cells.items():
        vals = [loop_terms(pieces, lp, table) for lp in loops]
        outers = [k for k in range(len(vals)) if vals[k][0] >= 0.0]
        holes = [k for k in range(len(vals)) if vals[k][0] < 0.0]
        groups = {k: [k] for k in outers or holes}
        if len(outers) == 1:
            groups[outers[0]] += holes
        elif outers and holes:
            ftol = DEDUP_REL * graph.length_scale
            lines = {pid: np.array(flatten_piece_scalar(graph, pieces[pid], ftol))
                     for k in outers for pid, _ in loops[k]}
            polys = [np.concatenate([lines[pid][:-1] if fw else lines[pid][:0:-1]
                                     for pid, fw in loops[k]]) for k in outers]
            largest = max(outers, key=lambda o: vals[o][0])
            for k in holes:
                pid, fw = loops[k][0]
                piece = pieces[pid]
                if piece.kind == "arc":
                    probe = piece_point_scalar(graph, piece, 0.0 if fw else 1.0)
                else:
                    probe = piece.p0 if fw else piece.p1
                groups[next((o for o, poly in zip(outers, polys)
                             if point_in_polygon_scalar(poly, probe)), largest)].append(k)
        comps = sorted((ComponentMeasure(float(sum(vals[k][0] for k in grp)),
                                         float(sum(vals[k][1] for k in grp)))
                        for grp in groups.values()), key=lambda c: (-c.area, c.perimeter))
        out[gid] = CellMeasure(gid, float(sum(c.area for c in comps)),
                               float(sum(c.perimeter for c in comps)), tuple(comps))
    return out


# ------------------------------------------------------- bisector samples


def sample_points(table, row, count=64, line_span=100.0):
    """Evenly spread points over every component of bisector row ``row``.

    Each component gets count // (number of components) points: a curve
    component in alpha, kept 2% of its span away from singular ends, a line
    component over t in [-line_span, line_span]. A sample at a singular
    parameter raises SingularParameterError. Empty and whole-plane rows give
    no points.
    """
    rows = np.array([row])
    n, lo, hi, closed = (a[0].tolist() for a in table.components(rows))
    pts = []
    per = max(1, count // max(1, n))
    for c in range(n):
        if table.line_count[row] > 0:
            t = np.linspace(-line_span, line_span, per)
            pts.extend(line_points(np.repeat(table.lines[row, c][None], per, axis=0), t))
            continue
        margin = 0.0 if closed else 0.02 * (hi[c] - lo[c])
        alpha = np.linspace(lo[c] + margin, hi[c] - margin, per, endpoint=not closed)
        x, y, _, _, singular = points_at_alphas(np.repeat(table.chart[rows], per, axis=0),
                                                np.full(per, table.u_scale[row]), alpha)
        if singular.any():
            raise SingularParameterError(f"alpha={alpha[singular][0]} lies on the line at infinity")
        pts.extend(np.column_stack([x, y]))
    return pts


# ---------------------------------------------------------- raster counts


@dataclass(frozen=True)
class RasterStats:
    counts: dict[int, int]
    junctions: np.ndarray  # (k, 2) window coordinates of 2x2 corners with >= 3 labels


def raster_cell_stats(img: LabelImage) -> RasterStats:
    lab = img.labels
    vals, cnt = np.unique(lab, return_counts=True)
    counts = {int(v): int(c) for v, c in zip(vals, cnt) if v >= 0}
    stack = np.stack([lab[:-1, :-1], lab[:-1, 1:], lab[1:, :-1], lab[1:, 1:]])
    stack = np.sort(stack, axis=0)
    distinct = 1 + (stack[1:] != stack[:-1]).sum(axis=0)
    jy, jx = np.nonzero(distinct >= 3)
    pts = np.stack(
        [
            img.origin[0] + (jx + 1.0) * img.pixel_size,
            img.origin[1] + (jy + 1.0) * img.pixel_size,
        ],
        axis=1,
    )
    return RasterStats(counts, pts)
