"""Bisector conics between generator pairs, as the rows of one table.

The locus of points equidistant to generators i and j,

    (q - p_i)^T M_i (q - p_i) - w_i = (q - p_j)^T M_j (q - p_j) - w_j,

expands to an implicit conic with quadratic part A = M_i - M_j, linear part
B = -2 (M_i p_i - M_j p_j) and constant p_i^T M_i p_i - p_j^T M_j p_j -
w_i + w_j. Equal matrices give the straight power-diagram bisector; unequal
matrices give ellipses, parabolas, hyperbolas, or degenerate line pairs.

:func:`bisector_table` is the one kernel: it builds the implicit
coefficients, the pair frames and the rescaled implicit of all P pairs as
array operations, classifies all of them with one stacked
``np.linalg.eigh``, and parametrizes every curve and splits every line
bisector in array form (``conic.classify_rows``). The result is a
:class:`BisectorTable`, one array row per pair, and it is the only form a
bisector takes: the diagram build reads it, and a diagram graph keeps the
rows of its edges (``BisectorTable.take``). Every array step applies
elementwise numpy ufuncs in the one-pair operation order, and steps that
go through BLAS or LAPACK use the stacked form of the same call, so a pair
gets the same floats whatever batch it is in. :func:`make_bisector` is a
one-row table and :func:`bisector_implicit` the implicit conic of one pair.

A row's connected components are arrays too (``BisectorTable.components``):
curve components are arcs of the circular alpha domain delimited by
singular parameters (an ellipse is one closed loop, a parabola one open
arc, a hyperbola two branches), and each line of a degenerate bisector is
a component of its own.

:func:`params_of_points` recovers the curve parameters of many (curve,
point) pairs at once: root solving, the acceptance tests, Gauss-Newton
projection and duplicate merging all run as array operations of
elementwise ufuncs, so every parameter is the float the one-point form
gives. :func:`param_of_point` is a batch of one.

Nothing in the package calls :func:`make_bisector` or :func:`param_of_point`
(nor ``diagram.visible_segments``): the benchmark's span tracer patches them
by name, so they stay, each a batch of one of its kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import (
    TWO_PI,
    ELLIPSE_CODE,
    HYPERBOLA_CODE,
    PARABOLA_CODE,
    ConicImplicit,
    alphas_of_params,
    charts_of_triples,
    classify_rows,
    homogeneous_at_params,
    params_of_alphas,
    points_at_alphas,
    real_quadratic_roots_batch,
    wrap_angles,
)
from .errors import InputError, NoSolutionError
from .geometry import Generator, SceneArrays, as_point, row_dot
from .tolerances import DEN_REL, PARAM_MERGE


def _implicit_rows(gi: np.ndarray, gj: np.ndarray) -> np.ndarray:
    """Implicit coefficient rows (a11, a12, a22, b11, b12, c) of P bisectors.

    ``gi`` and ``gj`` are generator rows (px, py, m11, m12, m22, w), as
    ``SceneArrays(...).coef.T`` holds them.
    """
    mi_pi = np.stack(
        [gi[:, 2] * gi[:, 0] + gi[:, 3] * gi[:, 1], gi[:, 3] * gi[:, 0] + gi[:, 4] * gi[:, 1]],
        axis=1,
    )
    mj_pj = np.stack(
        [gj[:, 2] * gj[:, 0] + gj[:, 3] * gj[:, 1], gj[:, 3] * gj[:, 0] + gj[:, 4] * gj[:, 1]],
        axis=1,
    )
    c = row_dot(gi[:, 0:2], mi_pi) - row_dot(gj[:, 0:2], mj_pj) - gi[:, 5] + gj[:, 5]
    return np.stack(
        [
            gi[:, 2] - gj[:, 2],
            gi[:, 3] - gj[:, 3],
            gi[:, 4] - gj[:, 4],
            -2.0 * (mi_pi[:, 0] - mj_pj[:, 0]),
            -2.0 * (mi_pi[:, 1] - mj_pj[:, 1]),
            c,
        ],
        axis=1,
    )


def bisector_implicit(gi: Generator, gj: Generator) -> ConicImplicit:
    """Implicit conic of the (i, j) bisector; coefficients are exact arithmetic."""
    cols = SceneArrays([gi, gj]).coef.T
    row = _implicit_rows(cols[:1], cols[1:])[0]
    return ConicImplicit(*row.tolist())


def _pair_frames(gi: np.ndarray, gj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Similarity frames local to P generator pairs: centers (P, 2) and scales (P,).

    The scale is a power of two so that rescaling generator data is exact;
    classifying the bisector in this frame keeps the conic matrix entries
    balanced regardless of where the scene sits in the plane.
    """
    c = 0.5 * (gi[:, 0:2] + gj[:, 0:2])
    sep = np.abs(
        np.stack([gi[:, 0] - c[:, 0], gi[:, 1] - c[:, 1], gj[:, 0] - c[:, 0], gj[:, 1] - c[:, 1]])
    ).max(axis=0)
    sep = np.maximum(sep, np.maximum(np.abs(c[:, 0]) * 1e-8, np.abs(c[:, 1]) * 1e-8))
    h = np.ones_like(sep)
    far = sep > 1.0
    h[far] = 2.0 ** np.ceil(np.log2(sep[far]))
    return c, h


def _rescaled(g: np.ndarray, c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Generator rows in the pair frames: centers (p - c) / h, matrices h^2 M."""
    hh = (h * h)[:, None]
    return np.concatenate([(g[:, 0:2] - c) / h[:, None], hh * g[:, 2:5], g[:, 5:6]], axis=1)


@dataclass(frozen=True)
class BisectorTable:
    """The bisectors of P generator pairs as arrays, one row per pair.

    Row k is the bisector of ``generators[first[k]]`` and
    ``generators[second[k]]``, whose ids increase. ``implicit`` (P, 6) holds
    the implicit rows in scene coordinates and ``code`` (P,) the class codes
    (indices into ``conic.CLASSES``). A curve's row of ``chart`` (P, 2, 3,
    3, as ``conic.charts_of_triples`` lays it out) holds its chart triples,
    ``u_scale`` their denominator scale and ``singular`` the s of its
    singular parameters (+-s for a hyperbola, 0 for a parabola). A line
    bisector's first ``line_count`` rows of ``lines`` (P, 2, 3) are its
    lines (a, b, c). Unused entries are zero.
    """

    generators: list[Generator]
    first: np.ndarray
    second: np.ndarray
    implicit: np.ndarray
    code: np.ndarray
    chart: np.ndarray
    u_scale: np.ndarray
    singular: np.ndarray
    lines: np.ndarray
    line_count: np.ndarray

    def components(self, rows: np.ndarray):
        """The components of the bisectors ``rows`` (R,), as arrays.

        Returns (count (R,), lo (R, 2), hi (R, 2), closed (R,)): component c
        < count[r] of row r spans (lo[r, c], hi[r, c]). An ellipse is one
        closed loop (-pi, pi); a parabola one arc from its singular alpha 0
        round to 2 pi; a hyperbola two branches between its singular alphas
        a1 < a2, (a1, a2) and (a2, a1 + 2 pi); each line is a component
        (-inf, inf).
        """
        code = self.code[rows]
        closed, parabola, hyperbola = (code == ELLIPSE_CODE, code == PARABOLA_CODE,
                                       code == HYPERBOLA_CODE)
        count = self.line_count[rows] + closed + parabola + 2 * hyperbola
        lo = np.full((rows.size, 2), -math.inf)
        hi = np.full((rows.size, 2), math.inf)
        lo[closed, 0], hi[closed, 0] = -math.pi, math.pi
        lo[parabola, 0], hi[parabola, 0] = 0.0, 0.0 + TWO_PI
        hyp = np.flatnonzero(hyperbola)
        s = self.singular[rows[hyp]]
        ends = np.stack([alphas_of_params(-s), alphas_of_params(s)], axis=1)
        a1, a2 = ends.min(axis=1, initial=math.inf), ends.max(axis=1, initial=-math.inf)
        lo[hyp] = np.stack([a1, a2], axis=1)
        hi[hyp] = np.stack([a2, a1 + TWO_PI], axis=1)
        return count, lo, hi, closed

    def take(self, rows) -> BisectorTable:
        """The table whose row k is row ``rows[k]`` of this one."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        return BisectorTable(self.generators, *(a[rows] for a in (
            self.first, self.second, self.implicit, self.code, self.chart, self.u_scale,
            self.singular, self.lines, self.line_count)))

    def pair_rows(self) -> np.ndarray:
        """(n, n) matrix of the row of each pair of generator indices, -1 where none."""
        n = len(self.generators)
        out = np.full((n, n), -1, dtype=np.int64)
        out[self.first, self.second] = out[self.second, self.first] = np.arange(self.first.size)
        return out


def bisector_table(
    generators,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> BisectorTable:
    """The bisectors of generator pairs, all at once, as a :class:`BisectorTable`.

    ``pairs`` holds two index arrays into ``generators``, default every pair
    i < j in ``np.triu_indices`` order; each pair is ordered by id. The
    implicit forms are exact scene-coordinate arithmetic. Classification
    and parametrization run once per pair, in pair-local similarity frames
    (the distance difference is frame-invariant when centers shift by c and
    matrices pick up h^2), which keeps the result accurate far from the
    origin; the representations are mapped back affinely.
    """
    arr = SceneArrays(generators)
    if pairs is None:
        pairs = np.triu_indices(arr.n, 1)
    ids = arr.ids
    first, second = (np.asarray(p, dtype=np.int64).reshape(-1) for p in pairs)
    same = np.flatnonzero(ids[first] == ids[second])
    if same.size:
        raise InputError(f"pair {same[0]}: both generators have id {ids[first[same[0]]]}; a "
                         "bisector needs two distinct ids")
    swap = ids[first] > ids[second]
    first, second = np.where(swap, second, first), np.where(swap, first, second)
    ci, cj = arr.coef.T[first], arr.coef.T[second]
    with np.errstate(over="ignore", invalid="ignore"):
        implicit = _implicit_rows(ci, cj)
        c, h = _pair_frames(ci, cj)
        # an identity frame keeps the scene implicit as is (p - c would turn -0.0 into +0.0)
        moved = (h != 1.0) | (c[:, 0] != 0.0) | (c[:, 1] != 0.0)
        hat = np.where(moved[:, None], _implicit_rows(_rescaled(ci, c, h), _rescaled(cj, c, h)),
                       implicit)
    bad = np.flatnonzero(~np.isfinite(np.concatenate([implicit, hat], axis=1)).all(axis=1))
    if bad.size:
        k = bad[0]
        raise InputError(f"pair {k}: the bisector of generators {ids[first[k]]} and "
                         f"{ids[second[k]]} has coefficients beyond the floats")
    rows = classify_rows(hat, 2.0, frame=(h, c))
    chart = charts_of_triples(rows.triples)
    u = np.abs(rows.triples[:, 2])
    return BisectorTable(arr.generators, first, second, implicit, rows.code, chart,
                         u[:, 0] + u[:, 1] + u[:, 2], rows.singular, rows.lines, rows.line_count)


def make_bisector(gi: Generator, gj: Generator) -> BisectorTable:
    """The bisector of one generator pair: a one-row :func:`bisector_table`."""
    return bisector_table([gi, gj])


def _project_params(coef, u_scale, v, t) -> np.ndarray:
    """Polish near-hit parameters t (N,) by projecting the points v (N, 2) onto their curves.

    Three Gauss-Newton steps on the squared distance in alpha space; the raw
    quadratic roots carry coordinate-scale roundoff, the projected parameter
    pins the curve point to v at machine precision. A row keeps the best
    iterate it reached and stops at a singular parameter or a vanishing
    velocity. Infinite parameters are kept as they are, so wrap bookkeeping
    stays exact.
    """
    out = t.copy()
    rows = np.flatnonzero(np.isfinite(t))
    if rows.size == 0:
        return out
    coef, u_scale, vx, vy = coef[rows], u_scale[rows], v[rows, 0], v[rows, 1]
    alpha = alphas_of_params(t[rows])
    best_alpha, best_d2 = alpha.copy(), np.zeros(rows.size)
    have = np.zeros(rows.size, dtype=bool)  # best_d2 holds a value
    live = np.ones(rows.size, dtype=bool)
    for step in range(4):
        x, y, dvx, dvy, singular = points_at_alphas(coef, u_scale, alpha)
        live &= ~singular
        rx, ry = vx - x, vy - y
        d2 = rx * rx + ry * ry
        better = live & (~have | (d2 < best_d2))
        best_alpha = np.where(better, alpha, best_alpha)
        if step == 3:
            break  # the point of the last step is only compared
        best_d2 = np.where(better, d2, best_d2)
        have |= better
        n2 = dvx * dvx + dvy * dvy
        live &= ~(n2 <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(live, alpha + (rx * dvx + ry * dvy) / n2, alpha)
    out[rows] = params_of_alphas(best_alpha)
    return out


def _merge_params(ts, alphas, found) -> np.ndarray:
    """Drop near-duplicates from rows of parameters sorted by alpha.

    Each found entry is compared with the last kept one of its row and
    dropped when the two are within 10 PARAM_MERGE in alpha or within
    PARAM_MERGE relative in t; then the row's last kept entry is dropped
    when it comes within 10 PARAM_MERGE of its first across the wrap.
    """
    keep = found.copy()
    rows = np.flatnonzero(found.sum(axis=1) > 1)
    if rows.size == 0:
        return keep
    ts, alphas, found = ts[rows], np.where(found[rows], alphas[rows], 0.0), found[rows]
    near = PARAM_MERGE * 10.0
    prev_t, prev_a = ts[:, 0], alphas[:, 0]
    last = np.zeros(rows.size, dtype=np.int64)
    for k in range(1, int(found.sum(axis=1).max())):
        t = ts[:, k]
        with np.errstate(invalid="ignore"):
            close_t = np.abs(t - prev_t) <= PARAM_MERGE * (1.0 + np.abs(t) + np.abs(prev_t))
        same_t = np.isfinite(t) & np.isfinite(prev_t) & close_t
        kept = found[:, k] & ~((np.abs(wrap_angles(alphas[:, k] - prev_a)) <= near) | same_t)
        keep[rows, k] = kept
        prev_t = np.where(kept, t, prev_t)
        prev_a = np.where(kept, alphas[:, k], prev_a)
        last = np.where(kept, k, last)
    # the rows are circular: the first and the last kept entry may coincide
    wrap = (last > 0) & (np.abs(wrap_angles(alphas[:, 0] - prev_a)) <= near)
    keep[rows[wrap], last[wrap]] = False
    return keep


def params_of_points(coef, u_scale, points, eps):
    """Parameters t (inf allowed) of N (curve, point) pairs whose curve point lies within eps.

    Row k pairs the curve with chart triples ``coef[k]`` (N, 2, 3, 3, rows
    of ``BisectorTable.chart``) and denominator scale ``u_scale[k]`` with
    the point ``points[k]``. For every row at once: solve the two quadratics
    x^(t) - v_x u^(t) = 0 and y^(t) - v_y u^(t) = 0, take the union of their
    real roots (plus the infinite parameter when both leading coefficients
    vanish), keep candidates whose curve point is within eps (scalar or
    (N,)) of v, project them onto the curve and merge duplicates in alpha.

    Returns (ts (N, 5), found (N, 5)): row k's parameters are
    ``ts[k][found[k]]``, in alpha order. A row with no found entry is a miss:
    its point lies on its curve within eps nowhere.
    """
    v = np.asarray(points, dtype=float).reshape(-1, 2)
    n = v.shape[0]
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (n,))
    cand = np.empty((n, 5))
    valid = np.zeros((n, 5), dtype=bool)
    far_root = np.ones(n, dtype=bool)
    for k in range(2):
        q = coef[:, 0, k] - v[:, k, None] * coef[:, 0, 2]
        roots, ok, inf_root, _ = real_quadratic_roots_batch(q[:, 0], q[:, 1], q[:, 2])
        cand[:, 2 * k : 2 * k + 2] = roots
        valid[:, 2 * k : 2 * k + 2] = ok
        far_root &= inf_root
    cand[:, 4] = math.inf
    valid[:, 4] = far_root
    x, y, u = homogeneous_at_params(coef, cand)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = valid & ~(np.abs(u) <= DEN_REL * u_scale[:, None])
        ex, ey = x / u - v[:, 0, None], y / u - v[:, 1, None]
    r, c = np.nonzero(ok)
    near = np.hypot(ex[r, c], ey[r, c])
    hit = near <= eps[r]
    r, c = r[hit], c[hit]
    ts = np.full((n, 5), math.nan)
    ts[r, c] = _project_params(coef[r], u_scale[r], v[r], cand[r, c])
    alphas = np.full((n, 5), math.inf)  # misses sort last
    alphas[r, c] = alphas_of_params(ts[r, c])
    order = np.argsort(alphas, axis=1, kind="stable")
    found = np.zeros((n, 5), dtype=bool)
    found[r, c] = True
    ts, alphas, found = (np.take_along_axis(a, order, axis=1) for a in (ts, alphas, found))
    return ts, _merge_params(ts, alphas, found)


def param_of_point(table: BisectorTable, row: int, v, eps: float) -> list[float]:
    """All parameters t (math.inf allowed) of curve row ``row`` of ``table``
    whose curve point lies within eps of v.

    A batch of one of :func:`params_of_points`. Raises NoSolutionError when
    nothing qualifies.
    """
    v = as_point(v)
    rows = [row]
    ts, found = params_of_points(table.chart[rows], table.u_scale[rows], v[None], eps)
    if not found[0].any():
        raise NoSolutionError(f"point {tuple(v)} does not lie on the curve within {eps}")
    return ts[0][found[0]].tolist()
