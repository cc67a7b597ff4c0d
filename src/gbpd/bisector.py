"""Bisector conics between generator pairs.

The locus of points equidistant to generators i and j,

    (q - p_i)^T M_i (q - p_i) - w_i = (q - p_j)^T M_j (q - p_j) - w_j,

expands to an implicit conic with quadratic part A = M_i - M_j, linear part
B = -2 (M_i p_i - M_j p_j) and constant p_i^T M_i p_i - p_j^T M_j p_j -
w_i + w_j. Equal matrices give the straight power-diagram bisector; unequal
matrices give ellipses, parabolas, hyperbolas, or degenerate line pairs.

A bisector also carries its connected components in parameter space. Curve
components are arcs of the circular alpha domain delimited by singular
parameters (an ellipse is one closed loop, a parabola one open arc, a
hyperbola two branches); each line of a degenerate bisector is a component
of its own.

:func:`make_bisectors` is the one kernel: it builds the implicit
coefficients, the pair frames and the rescaled implicit of all P pairs as
array operations, classifies all of them with one stacked
``np.linalg.eigh`` and parametrizes every curve in array form
(``conic.classify_and_parametrize_batch``). Only the rare rank-deficient
pairs (line bisectors) go through a per-pair loop. Every array step repeats
the one-pair operation order, and steps that go through BLAS or LAPACK use
the stacked form of the same call, so a pair gets the same floats whatever
batch it is in; :func:`make_bisector` and :func:`bisector_implicit` are
batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import (
    CURVE_CLASSES,
    ConicClass,
    ConicImplicit,
    LineParam,
    ParametrizedConic,
    alpha_of_param,
    classify_and_parametrize_batch,
    param_of_alpha,
    real_quadratic_roots,
    wrap_angle,
)
from .errors import NoSolutionError, SingularParameterError
from .geometry import Generator, as_point, row_dot
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

TWO_PI = 2.0 * math.pi


def _generator_columns(gens) -> np.ndarray:
    """Rows (px, py, m11, m12, m22, w), one per generator."""
    return np.array(
        [(g.p[0], g.p[1], g.M.m11, g.M.m12, g.M.m22, g.w) for g in gens], dtype=float
    ).reshape(-1, 6)


def _implicit_rows(gi: np.ndarray, gj: np.ndarray) -> np.ndarray:
    """Implicit coefficient rows (a11, a12, a22, b11, b12, c) of P bisectors.

    ``gi`` and ``gj`` are generator rows from :func:`_generator_columns`.
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
    row = _implicit_rows(_generator_columns([gi]), _generator_columns([gj]))[0]
    return ConicImplicit(*row.tolist())


@dataclass(frozen=True)
class BisectorComponent:
    """One connected piece of a bisector's point set.

    Curve pieces ("arc") live on the circular alpha domain: the piece covers
    alpha in (lo, hi) with hi - lo <= 2 pi, wrapping through pi as needed;
    ``closed`` marks the full loop of an ellipse. Line pieces ("line") cover
    all of R on the line with the stored index.
    """

    kind: str  # "arc" or "line"
    lo: float
    hi: float
    closed: bool = False
    line_index: int | None = None

    def midpoint(self) -> float:
        """Representative parameter: alpha for arcs, t for lines."""
        if self.kind == "line":
            return 0.0
        if self.closed:
            return 0.0
        return 0.5 * (self.lo + self.hi)

    def contains_alpha(self, alpha: float) -> bool:
        if self.kind != "arc":
            return False
        if self.closed:
            return True
        span = self.hi - self.lo
        off = (alpha - self.lo) % TWO_PI
        return 0.0 <= off <= span


def _curve_components(param: ParametrizedConic) -> tuple[BisectorComponent, ...]:
    cls = param.conic_class
    if cls is ConicClass.ELLIPSE:
        return (BisectorComponent("arc", -math.pi, math.pi, closed=True),)
    if cls is ConicClass.PARABOLA:
        a0 = param.singular_alphas[0]
        return (BisectorComponent("arc", a0, a0 + TWO_PI),)
    # hyperbola: branches split by the two singular parameters +-s
    a1, a2 = sorted(param.singular_alphas)
    return (
        BisectorComponent("arc", a1, a2),
        BisectorComponent("arc", a2, a1 + TWO_PI),
    )


@dataclass(frozen=True)
class Bisector:
    """Bisector of the generator pair (i, j) with i < j."""

    i: int
    j: int
    gi: Generator
    gj: Generator
    implicit: ConicImplicit
    conic_class: ConicClass
    param: ParametrizedConic | None
    lines: tuple[LineParam, ...]
    components: tuple[BisectorComponent, ...]

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)

    def point_at_alpha(self, alpha: float, tol: ToleranceSet = DEFAULT_TOLERANCES) -> np.ndarray:
        assert self.param is not None
        return self.param.point_at_alpha(alpha, tol)

    def is_empty(self) -> bool:
        return self.conic_class is ConicClass.EMPTY

    def is_whole_plane(self) -> bool:
        return self.conic_class is ConicClass.WHOLE_PLANE


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


def make_bisectors(
    gens_i,
    gens_j,
    tol: ToleranceSet = DEFAULT_TOLERANCES,
) -> list[Bisector]:
    """Bisectors of the pairs (gens_i[k], gens_j[k]), all at once.

    The implicit forms are exact scene-coordinate arithmetic. Classification
    and parametrization run in pair-local similarity frames (the distance
    difference is frame-invariant when centers shift by c and matrices pick
    up h^2), which keeps the result accurate far from the origin; the
    representations are mapped back affinely.
    """
    pairs = []
    for gi, gj in zip(gens_i, gens_j, strict=True):
        if gi.id == gj.id:
            raise ValueError("bisector requires distinct generator ids")
        pairs.append((gi, gj) if gi.id < gj.id else (gj, gi))
    if not pairs:
        return []
    ci = _generator_columns([gi for gi, _ in pairs])
    cj = _generator_columns([gj for _, gj in pairs])
    implicit = _implicit_rows(ci, cj)
    c, h = _pair_frames(ci, cj)
    # an identity frame keeps the scene implicit as is (p - c would turn -0.0 into +0.0)
    moved = (h != 1.0) | (c[:, 0] != 0.0) | (c[:, 1] != 0.0)
    hat =np.where(moved[:, None], _implicit_rows(_rescaled(ci, c, h), _rescaled(cj, c, h)), implicit)
    reps = classify_and_parametrize_batch(hat, tol, 2.0, frame=(h, c))
    out = []
    for (gi, gj), coeffs, rep in zip(pairs, implicit.tolist(), reps):
        if isinstance(rep, ParametrizedConic):
            param, lines, components = rep, (), _curve_components(rep)
        else:
            param, lines = None, rep.lines
            components = tuple(
                BisectorComponent("line", -math.inf, math.inf, line_index=k)
                for k in range(len(rep.lines))
            )
        out.append(
            Bisector(
                i=gi.id,
                j=gj.id,
                gi=gi,
                gj=gj,
                implicit=ConicImplicit(*coeffs),
                conic_class=rep.conic_class,
                param=param,
                lines=lines,
                components=components,
            )
        )
    return out


def make_bisector(
    gi: Generator,
    gj: Generator,
    tol: ToleranceSet = DEFAULT_TOLERANCES,
) -> Bisector:
    """Build the full bisector representation for a generator pair.

    A batch of one of :func:`make_bisectors`.
    """
    return make_bisectors([gi], [gj], tol)[0]


def _project_param(p: ParametrizedConic, v, t: float, tol: ToleranceSet) -> float:
    """Polish a near-hit parameter by projecting v onto the curve.

    Gauss-Newton on the squared distance in alpha space; the raw quadratic
    roots carry coordinate-scale roundoff, the projected parameter pins the
    curve point to v at machine precision. The infinite parameter is kept
    as is so wrap bookkeeping stays exact.
    """
    if not math.isfinite(t):
        return t
    alpha = alpha_of_param(t)
    best_alpha, best_d2 = alpha, None
    for _ in range(3):
        try:
            q = p.point_at_alpha(alpha, tol)
            dv = p.velocity_at_alpha(alpha, tol)
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
            q = p.point_at_alpha(alpha, tol)
            rx, ry = v[0] - q[0], v[1] - q[1]
            d2 = rx * rx + ry * ry
            if best_d2 is None or d2 < best_d2:
                best_alpha = alpha
        except SingularParameterError:
            pass
    return param_of_alpha(best_alpha)


def param_of_point(
    p: ParametrizedConic,
    v,
    eps: float,
    tol: ToleranceSet = DEFAULT_TOLERANCES,
) -> list[float]:
    """All parameters t (math.inf allowed) whose curve point lies within eps of v.

    Solves the two quadratics x^(t) - v_x u^(t) = 0 and y^(t) - v_y u^(t) = 0,
    takes the union of their real roots (plus the infinite parameter when both
    leading coefficients vanish), and keeps candidates whose curve point is
    within eps of v. Raises NoSolutionError when nothing qualifies.
    """
    v = as_point(v)
    qx = tuple(p.xq[k] - v[0] * p.uq[k] for k in range(3))
    qy = tuple(p.yq[k] - v[1] * p.uq[k] for k in range(3))
    candidates: list[float] = []
    inf_candidate = True
    for q in (qx, qy):
        roots, inf_root, everywhere = real_quadratic_roots(*q)
        if not everywhere:
            candidates.extend(roots)
            inf_candidate = inf_candidate and inf_root
    if inf_candidate:
        candidates.append(math.inf)
    accepted: list[float] = []
    for t in candidates:
        x, y, u = p.homogeneous_at(t)
        if abs(u) <= tol.den_rel * p.u_scale:
            continue
        if math.hypot(x / u - v[0], y / u - v[1]) <= eps:
            accepted.append(_project_param(p, v, t, tol))
    if not accepted:
        raise NoSolutionError(f"point {tuple(v)} does not lie on the curve within {eps}")
    # merge duplicates in alpha space (handles inf and near-equal finite t)
    accepted.sort(key=alpha_of_param)
    merged: list[float] = []
    for t in accepted:
        if merged:
            prev = merged[-1]
            da = abs(wrap_angle(alpha_of_param(t) - alpha_of_param(prev)))
            if da <= tol.param_merge * 10.0 or (
                math.isfinite(t)
                and math.isfinite(prev)
                and abs(t - prev) <= tol.param_merge * (1.0 + abs(t) + abs(prev))
            ):
                continue
        merged.append(t)
    # the list is circular: first and last may also coincide
    if len(merged) > 1:
        da = abs(wrap_angle(alpha_of_param(merged[0]) - alpha_of_param(merged[-1])))
        if da <= tol.param_merge * 10.0:
            merged.pop()
    return merged


def alphas_of_point(
    b: Bisector, v, eps: float, tol: ToleranceSet = DEFAULT_TOLERANCES
) -> list[float]:
    """Parameters of a point on a curved bisector, in alpha space."""
    assert b.param is not None
    return [alpha_of_param(t) for t in param_of_point(b.param, v, eps, tol)]


def bisector_has_points(b: Bisector) -> bool:
    return b.conic_class in CURVE_CLASSES or len(b.lines) > 0


def sample_points(
    b: Bisector,
    count: int = 64,
    line_span: float = 100.0,
    tol: ToleranceSet = DEFAULT_TOLERANCES,
) -> list[np.ndarray]:
    """Evenly spread points over every component of a bisector.

    Curve components are sampled in alpha with a margin away from singular
    parameters; line components over t in [-line_span, line_span]. Empty and
    whole-plane bisectors yield no points.
    """
    if not bisector_has_points(b):
        return []
    pts: list[np.ndarray] = []
    per = max(1, count // max(1, len(b.components)))
    for comp in b.components:
        if comp.kind == "line":
            line = b.lines[comp.line_index]
            for t in np.linspace(-line_span, line_span, per):
                pts.append(line.point_at(float(t)))
        else:
            span = comp.hi - comp.lo
            margin = 0.0 if comp.closed else 0.02 * span
            alphas = np.linspace(comp.lo + margin, comp.hi - margin, per, endpoint=not comp.closed)
            for a in alphas:
                pts.append(b.point_at_alpha(float(a), tol))
    return pts
