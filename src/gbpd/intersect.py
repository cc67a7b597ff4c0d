"""Conic-conic intersection via pencil degeneration, and the vertex test.

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

Everything is written over a batch axis. ``prepare_pairs`` does the work of
one conic (frame, scaling, determinant, adjugate), so the diagram build does
it once per bisector; ``pencil_intersections_batch`` takes only row indices
into prepared conics, gathers two rows per pair (E_ij, E_ik) of every
generator triple and does the rest. ``conic_conic_intersections`` prepares
its two conics and is a batch of one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .conic import ConicImplicit
from .errors import InputError, OverlappingConicsError
from .geometry import SceneArrays
from .tolerances import DEDUP_REL, RES_REL, VERT_REL

# determinant magnitude (after max-abs normalization) below which an input
# conic counts as already degenerate and is used as the pencil member itself
_DET_REL = 1e-10
# relative discriminant clamp: slightly negative discriminants from roundoff
# are treated as tangencies instead of missed intersections
_DISC_CLAMP = 1e-10


def _adj3(m: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactors), batched; adj(M) M = det(M) I."""
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


def _adj3_diagonal(m: np.ndarray) -> np.ndarray:
    """Diagonal of :func:`_adj3`, batched: (..., 3, 3) -> (..., 3)."""
    return np.stack([m[..., j, j] * m[..., k, k] - m[..., j, k] * m[..., k, j]
                     for j, k in ((1, 2), (0, 2), (0, 1))], axis=-1)


def _skew(p: np.ndarray) -> np.ndarray:
    """Cross-product matrices of homogeneous points, batched (..., 3)."""
    out = np.zeros(p.shape + (3,))
    out[..., 0, 1] = -p[..., 2]
    out[..., 0, 2] = p[..., 1]
    out[..., 1, 0] = p[..., 2]
    out[..., 1, 2] = -p[..., 0]
    out[..., 2, 0] = -p[..., 1]
    out[..., 2, 1] = p[..., 0]
    return out


def _real_cubic_roots(c3, c2, c1, c0):
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0, batched.

    Returns (T, 3) with single-real-root cases padded by repetition. The
    leading coefficient must be bounded away from zero (the caller only
    evaluates the result where both pencil ends are nondegenerate). Two
    Newton sweeps polish the closed-form roots.
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
        ks = np.array([0.0, 1.0, 2.0])
        y_triple = 2.0 * pm[:, None] * np.cos(theta[:, None] - 2.0 * math.pi * ks[None, :] / 3.0)

        single = (delta > 0.0)[:, None]
        y = np.where(single, y_single[:, None], y_triple)
        x = y - (a / 3.0)[:, None]

        # Newton polish on the original cubic
        c3e, c2e, c1e, c0e = (arr[:, None] for arr in (c3, c2, c1, c0))
        for _ in range(2):
            f = ((c3e * x + c2e) * x + c1e) * x + c0e
            df = (3.0 * c3e * x + 2.0 * c2e) * x + c1e
            step = np.where(np.abs(df) > 0.0, f / np.where(df == 0.0, 1.0, df), 0.0)
            x = x - step
    return x


class PreparedPairs(NamedTuple):
    """Row r: conic r in the frame x = length_scale * xh + center, scaled to
    max-abs entry 1 (``a``), whether it was nonzero, and det and adj of a."""

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
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.abs(d).reshape(-1, 9).max(axis=1)
        a = d / np.where(s > 0.0, s, 1.0)[:, None, None]
        adj = _adj3(a)
        # the cofactor expansion along the first row
        det = a[:, 0, 0] * adj[:, 0, 0] + a[:, 0, 1] * adj[:, 1, 0] + a[:, 0, 2] * adj[:, 2, 0]
        return PreparedPairs(a, s > 0.0, det, adj, h, (cx, cy))


def pencil_intersections_batch(
    d1: np.ndarray,
    d2: np.ndarray,
    prepared: PreparedPairs,
) -> tuple[np.ndarray, np.ndarray]:
    """Intersection candidates for T conic pairs, rows (d1[t], d2[t]) of ``prepared``.

    Returns (points, valid) with shapes (T, 4, 2) and (T, 4). Valid points
    satisfy both implicit equations within the scaled residual tolerance and
    are deduplicated within DEDUP_REL * length_scale per pair, in the
    prepared frame. Pairs with coincident zero sets produce no valid points
    (their intersection is not a finite set).
    """
    t_count = len(d1)
    h = prepared.length_scale
    cx, cy = prepared.center
    a1, a2 = prepared.a[d1], prepared.a[d2]
    adj1, adj2 = prepared.adj[d1], prepared.adj[d2]
    det1, det2 = prepared.det[d1], prepared.det[d2]
    nonzero = prepared.nonzero[d1] & prepared.nonzero[d2]

    with np.errstate(divide="ignore", invalid="ignore"):
        deg1 = np.abs(det1) <= _DET_REL
        deg2 = np.abs(det2) <= _DET_REL
        use_pencil = ~deg1 & ~deg2

        # determinant cubic det(a1 + lam a2) and its best degenerate member
        cubic = (
            det2,
            np.einsum("tij,tji->t", adj2, a1),
            np.einsum("tij,tji->t", adj1, a2),
            det1,
        )
        safe = np.where(use_pencil, cubic[0], 1.0)
        roots = _real_cubic_roots(safe, cubic[1], cubic[2], cubic[3])
        members = a1[:, None] + roots[:, :, None, None] * a2[:, None]  # (T, 3, 3, 3)
        diag = _adj3_diagonal(members)  # (T, 3, 3)
        piv3 = np.abs(diag).argmax(axis=2)
        bpp3 = np.take_along_axis(diag, piv3[:, :, None], axis=2)[:, :, 0]
        best = np.argmax(-bpp3, axis=1)
        member = members[np.arange(t_count), best]

        # degenerate inputs are their own degenerate member
        member = np.where(deg1[:, None, None], a1, np.where(deg2[:, None, None], a2, member))
        other = np.where(deg1[:, None, None], a2, a1)

        badj = _adj3(member)
        diag = np.diagonal(badj, axis1=1, axis2=2)  # (T, 3)
        piv = np.abs(diag).argmax(axis=1)
        bpp = np.take_along_axis(diag, piv[:, None], axis=1)[:, 0]
        b_scale = np.abs(member).reshape(t_count, 9).max(axis=1) ** 2
        p_raw = np.take_along_axis(badj, piv[:, None, None], axis=2)[:, :, 0]  # (T, 3)

        real_split = bpp <= 1e-12 * b_scale
        beta = np.sqrt(np.maximum(-bpp, 0.0))
        p_vec = p_raw / np.where(beta > 0.0, beta, 1.0)[:, None]
        cmat = member + _skew(p_vec)
        flat = np.abs(cmat).reshape(t_count, 9)
        ij = flat.argmax(axis=1)
        i_star, j_star = ij // 3, ij % 3
        l_line = np.take_along_axis(cmat, i_star[:, None, None], axis=1)[:, 0, :]
        m_line = np.take_along_axis(cmat, j_star[:, None, None], axis=2)[:, :, 0]
        lines = np.stack([l_line, m_line], axis=1)  # (T, 2, 3)

        # cut each line with the other conic
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
            root_ok = line_ok & (disc >= 0.0)
            for ri, roots_li in enumerate((r1, r2)):
                slot = 2 * li + ri
                ok = root_ok & np.isfinite(roots_li)
                pts[:, slot, 0] = np.where(ok, q0x + roots_li * dx, np.nan)
                pts[:, slot, 1] = np.where(ok, q0y + roots_li * dy, np.nan)
                valid[:, slot] = ok

        # complex line pair: its single real point is the only candidate
        fb = nonzero & ~real_split
        hpt = p_raw
        hn = np.abs(hpt).max(axis=1)
        fb_ok = fb & (np.abs(hpt[:, 2]) > 1e-12 * np.where(hn > 0.0, hn, 1.0))
        h2 = np.where(fb_ok, hpt[:, 2], 1.0)
        pts[:, 0, 0] = np.where(fb_ok, hpt[:, 0] / h2, pts[:, 0, 0])
        pts[:, 0, 1] = np.where(fb_ok, hpt[:, 1] / h2, pts[:, 0, 1])
        valid[:, 0] = valid[:, 0] | fb_ok

        # Newton polish on the 2x2 implicit system, then residual filter
        x = pts[:, :, 0]
        y = pts[:, :, 1]
        # each pair's conics as ConicImplicit fields (T, 1), broadcast over the slots
        c1, c2 = (ConicImplicit(d[:, None, 0, 0], d[:, None, 0, 1], d[:, None, 1, 1],
                                2.0 * d[:, None, 0, 2], 2.0 * d[:, None, 1, 2], d[:, None, 2, 2])
                  for d in (a1, a2))
        for _ in range(3):
            f1 = c1.evaluate(x, y)
            f2 = c2.evaluate(x, y)
            # 2 (a00 x + a01 y + a02) rounds differently from ConicImplicit.gradient
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
        with np.errstate(invalid="ignore"):
            valid &= np.isfinite(x) & np.isfinite(y)
            valid &= (np.abs(f1) <= RES_REL * r1s) & (np.abs(f2) <= RES_REL * r2s)

        # per-pair dedup (unit frame, so the radius is just DEDUP_REL)
        radius = DEDUP_REL
        for hi in range(1, 4):
            for lo in range(hi):
                both = valid[:, hi] & valid[:, lo]
                close = both & (
                    np.hypot(x[:, hi] - x[:, lo], y[:, hi] - y[:, lo]) <= radius
                )
                valid[:, hi] = valid[:, hi] & ~close

        # back to scene coordinates
        pts[:, :, 0] = h * x + cx
        pts[:, :, 1] = h * y + cy

    return pts, valid


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
    found by ``SceneArrays.screened_min``: a candidate leaves the scan as
    soon as a block of generators proves it fails, and the others are
    decided with the full minimum.
    """
    d_trip = arr.dist(cand, trip).min(axis=1)
    alive, d_min = arr.screened_min(cand, d_trip, VERT_REL)
    keep = np.zeros(cand.shape[0], dtype=bool)
    keep[alive] = d_trip[alive] - d_min <= VERT_REL * (1.0 + np.abs(d_min))
    return keep

