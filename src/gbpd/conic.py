"""Implicit conics, affine classification, and rational parametrization.

A conic is stored as the six coefficients of

    a11 x^2 + 2 a12 xy + a22 y^2 + b11 x + b12 y + c = 0.

Rank-3 conics get a rational-quadratic parametrization x(t) = x^(t)/u^(t),
y(t) = y^(t)/u^(t) obtained by diagonalizing the homogeneous 3x3 matrix,
normalizing the eigenvalue signs to (+, +, -) and pushing the canonical
parametrization of x~^2 + y~^2 - u~^2 = 0 through the eigenvector frame.
Rank-deficient conics split into at most two real lines.

The parameter t runs over the projective line: every conic has one point at
t = +-inf. We wrap t into the angle alpha = 2 atan(t), so the parameter
domain becomes a circle with the infinite parameter at alpha = pi. A second
coefficient chart (the substitution t -> -1/t) evaluates the neighborhood of
alpha = pi with arguments of magnitude <= 1, so no evaluation ever feeds a
huge t into a polynomial.

The parametrization is always rotated in parameter space so that u^(t) has no
linear term. Singular parameters (roots of u^, where the curve reaches the
line at infinity) then sit symmetrically: none for an ellipse, a double root
at t = 0 for a parabola, a pair +-s with s <= 1 for a hyperbola. In
particular t = inf is never singular.

Conics are classified and represented as arrays only: ``classify_rows``
gives the class codes, coefficient triples, singular parameters and lines
of P conics at once (``ConicRows``), and every evaluation (quadratic roots,
homogeneous points at parameters, points and velocities at alphas, areas
of arc pieces, line points) is a kernel over rows of numpy ufuncs. The
one-value forms of the root and point evaluations, which the kernels must
equal bit for bit, are test references (tests/oracles.py).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import sym2_eigh
from .tolerances import CLASS_REL, DEN_REL, RANK_REL

_HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi
# a leading coefficient at most this far below the largest one drops the degree
_ROOT_REL = 1e-13


class ConicClass(enum.Enum):
    ELLIPSE = "Ellipse"
    HYPERBOLA = "Hyperbola"
    PARABOLA = "Parabola"
    SINGLE_LINE = "SingleLine"
    TWO_PARALLEL_LINES = "TwoParallelLines"
    TWO_INTERSECTING_LINES = "TwoIntersectingLines"
    EMPTY = "Empty"
    WHOLE_PLANE = "WholePlane"


@dataclass(frozen=True)
class ConicImplicit:
    """Coefficients of a11 x^2 + 2 a12 xy + a22 y^2 + b11 x + b12 y + c."""

    a11: float
    a12: float
    a22: float
    b11: float
    b12: float
    c: float

    def evaluate(self, x, y):
        """Implicit value; accepts scalars or numpy arrays."""
        return (
            self.a11 * x * x
            + 2.0 * self.a12 * x * y
            + self.a22 * y * y
            + self.b11 * x
            + self.b12 * y
            + self.c
        )

    def residual_scale(self, x, y):
        """1 + sum of absolute term magnitudes; divisor for scaled residuals."""
        return (
            1.0
            + abs(self.a11 * x * x)
            + abs(2.0 * self.a12 * x * y)
            + abs(self.a22 * y * y)
            + abs(self.b11 * x)
            + abs(self.b12 * y)
            + abs(self.c)
        )

    def gradient(self, x, y) -> np.ndarray:
        return np.array(
            [
                2.0 * self.a11 * x + 2.0 * self.a12 * y + self.b11,
                2.0 * self.a12 * x + 2.0 * self.a22 * y + self.b12,
            ]
        )

    def matrix3(self) -> np.ndarray:
        """Homogeneous symmetric matrix with halved linear terms."""
        return conic_matrices(np.array([self.coeffs()]))[0]

    def coeffs(self) -> tuple[float, float, float, float, float, float]:
        return (self.a11, self.a12, self.a22, self.b11, self.b12, self.c)


def conic_matrices(coeffs: np.ndarray) -> np.ndarray:
    """Homogeneous matrices (P, 3, 3) of P conics given as rows (a11, a12, a22, b11, b12, c)."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 6)
    a11, a12, a22, b11, b12, c = coeffs.T
    d = np.empty((coeffs.shape[0], 3, 3))
    d[:, 0, 0] = a11
    d[:, 0, 1] = d[:, 1, 0] = a12
    d[:, 1, 1] = a22
    d[:, 0, 2] = d[:, 2, 0] = 0.5 * b11
    d[:, 1, 2] = d[:, 2, 1] = 0.5 * b12
    d[:, 2, 2] = c
    return d


def line_points(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points (N, 2) q + t d of the lines ``rows`` (N, 3) at t (N,).

    A row (a, b, c) is a normalized line ax + by + c = 0 (a^2 + b^2 = 1):
    q = -c (a, b) is its point nearest the origin and d = (-b, a) its unit
    direction, so t is the line's arc length parameter.
    """
    a, b, c = rows.T
    return np.column_stack([-c * a - t * b, -c * b + t * a])


def real_quadratic_roots_batch(a, b, c):
    """Real roots of the quadratics a t^2 + b t + c (entries of a, b, c), projective-aware.

    For inputs of shape S, returns (roots S + (2,), root_valid S + (2,),
    inf_is_root S, identically_zero S). A quadratic's roots are its valid
    entries, ascending. A leading coefficient that vanishes relative to the
    largest coefficient makes t = inf a root of the homogenized quadratic
    (a degree drop) and leaves at most one valid root, in entry 0. Each
    quadratic is solved elementwise, independent of the others.
    """
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    everywhere = scale == 0.0
    drop = ~everywhere & (np.abs(a) <= _ROOT_REL * scale)
    linear = drop & ~(np.abs(b) <= _ROOT_REL * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        real = ~everywhere & ~drop & ~(disc < 0.0)
        q = -0.5 * (b + np.copysign(np.sqrt(disc), np.where(b != 0.0, b, 1.0)))
        r1 = q / a
        r2 = np.where(q != 0.0, c / q, r1)
        lo = np.where(linear, -c / b, np.where(r2 < r1, r2, r1))
    roots = np.stack([lo, np.where(r2 < r1, r1, r2)], axis=-1)
    return roots, np.stack([real | linear, real], axis=-1), everywhere | drop, everywhere


# ------------------------------------------------------- parameter algebra

# Quadratic coefficient triples (c2, c1, c0) represent c2 t^2 + c1 t + c0.
# As a quadratic form on the homogeneous parameter (t, 1) the triple is the
# symmetric matrix [[c2, c1/2], [c1/2, c0]]; substituting t = (r00 s + r01)/
# (r10 s + r11) is the congruence R^T Q R.


def _triple_congruences(triples: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows (c2, c1, c0) of (P, 3) pushed through the congruences r (P, 2, 2)."""
    q = np.empty((triples.shape[0], 2, 2))
    q[:, 0, 0] = triples[:, 0]
    q[:, 0, 1] = q[:, 1, 0] = 0.5 * triples[:, 1]
    q[:, 1, 1] = triples[:, 2]
    qq = np.matmul(np.matmul(r.transpose(0, 2, 1), q), r)
    return np.stack([qq[:, 0, 0], qq[:, 0, 1] + qq[:, 1, 0], qq[:, 1, 1]], axis=1)


def charts_of_triples(triples: np.ndarray) -> np.ndarray:
    """Chart triples (P, 2, 3, 3) of P conics given by their xq, yq, uq rows (P, 3, 3)."""
    base = np.asarray(triples, dtype=float).reshape(-1, 3, 3)
    # the substitution t = -1/s maps (c2, c1, c0) to (c0, -c1, c2), exact in floats
    return np.stack([base, base[:, :, ::-1] * np.array([1.0, -1.0, 1.0])], axis=1)


def _chart_rows(c: np.ndarray, s: np.ndarray):
    """x^, y^, u^ and their s-derivatives from chart triples c (..., 3, 3) at s (...)."""
    x, y, u = ((c[..., r, 0] * s + c[..., r, 1]) * s + c[..., r, 2] for r in range(3))
    dx, dy, du = (2.0 * c[..., r, 0] * s + c[..., r, 1] for r in range(3))
    return x, y, u, dx, dy, du


def _point_velocity(x, y, u, dx, dy, du, s):
    """Curve point and d/dalpha velocity from chart values; ds/dalpha = (1 + s^2)/2."""
    f = 0.5 * (1.0 + s * s) / (u * u)
    return x / u, y / u, (dx * u - x * du) * f, (dy * u - y * du) * f


# numpy runs its scalar fallback, which rounds tan and arctan differently
# from its SIMD kernels, on an array of negative stride: the angle maps and
# the evaluator are never given a reversed view.


def wrap_angles(alpha: np.ndarray) -> np.ndarray:
    """Each entry of ``alpha`` wrapped to (-pi, pi]: exact, as np.fmod is and
    the one shift by 2 pi that follows, so alpha = +-pi, +-3 pi give pi."""
    a = np.fmod(alpha, TWO_PI)
    a = np.where(a > math.pi, a - TWO_PI, a)
    return np.where(a <= -math.pi, a + TWO_PI, a)


def alphas_of_params(t: np.ndarray) -> np.ndarray:
    """alpha = 2 atan(t) of each entry; the infinite parameter maps to pi."""
    return np.where(np.isinf(t), math.pi, 2.0 * np.arctan(t))


def params_of_alphas(alpha: np.ndarray) -> np.ndarray:
    """t = tan(alpha / 2) of each entry, after wrapping; alpha = pi gives t = inf."""
    a = wrap_angles(alpha)
    return np.where(a == math.pi, math.inf, np.tan(0.5 * a))


def homogeneous_at_params(coef: np.ndarray, t: np.ndarray):
    """Homogeneous points (X, Y, U) of conic ``coef[k]`` (N, 2, 3, 3) at every t[k, j] of t (N, K).

    The curve point is (X/U, Y/U). Returns (X, Y, U), each (N, K); |t| <= 1
    evaluates chart 0 at t, |t| > 1 chart 1 at -1/t, and t = +-inf gives
    the leading coefficients.
    """
    inner = np.abs(t) <= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(inner, t, -1.0 / t)
    c = np.where(inner[..., None, None], coef[:, None, 0], coef[:, None, 1])
    x, y, u, _, _, _ = _chart_rows(c, s)
    at_inf = np.isinf(t)
    return tuple(np.where(at_inf, coef[:, None, 0, r, 0], val) for r, val in enumerate((x, y, u)))


def points_at_alphas(coef: np.ndarray, u_scale: np.ndarray, alpha: np.ndarray):
    """Points and d/dalpha velocities of N conics at alphas.

    Row k of ``alpha`` ((N,) or (N, K)) is evaluated on conic ``coef[k]``
    (N, 2, 3, 3, from ``charts_of_triples``) with denominator scale
    ``u_scale[k]``: after wrapping to (-pi, pi], chart 0 at s = tan(alpha/2)
    for |alpha| <= pi/2, chart 1 at s = tan(alpha/2 - pi/2) otherwise. Each
    value is computed elementwise, so it does not depend on the others.
    Returns (x, y, vx, vy, singular), each shaped as ``alpha``.
    ``singular`` marks the alphas on the line at infinity (denominator
    within DEN_REL u_scale of zero), whose values are not to be used.
    """
    a = wrap_angles(alpha)
    far = np.abs(a) > _HALF_PI
    s = np.tan(np.where(far, 0.5 * a - _HALF_PI, 0.5 * a))
    lead = (len(coef),) + (1,) * (a.ndim - 1)
    coef = np.reshape(coef, lead[:1] + (2,) + lead[1:] + (3, 3))
    c = np.where(far[..., None, None], coef[:, 1], coef[:, 0])
    x, y, u, dx, dy, du = _chart_rows(c, s)
    singular = np.abs(u) <= DEN_REL * np.reshape(u_scale, lead)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (*_point_velocity(x, y, u, dx, dy, du, s), singular)


# (-1)^n (2n + 2)/(2n + 3), n = 16 down to 0: the series of `piece_areas`
# in q = k^2/D^2, whose next term is below eps relative for |q| < 1/10
_SERIES = [(-1) ** n * (2 * n + 2) / (2 * n + 3) for n in range(16, -1, -1)]


def piece_areas(coef: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Contour integrals (1/2) int (x dy - y dx) of N conic pieces, in closed form.

    Piece k runs from alpha ``a0[k]`` to ``a1[k]`` on conic ``coef[k]``
    (N, 2, 3, 3) within the chart of its mid alpha, s0 <= s1 there, and
    reaches no singular parameter. It is its chord term (x0 y1 - y0 x1)/2
    plus the segment between chord and curve, which in the Bezier form of
    the piece (Farin, "Curves and Surfaces for CAGD", on conics) is
    det(H0, B, H1) E/2: H0, H1 are the homogeneous ends and B the blossom
    H(s0, s1), signed so that U0 > 0, and with D = B_u and k^2 = U0 U1 - D^2,

        E = (theta/k - D/(U0 U1))/k^2,

    theta = atan2(k, D) on an ellipse (k^2 > 0) and theta/k =
    atanh(|k|/D)/|k| on a hyperbola (k^2 < 0, where D > 0). Where D > 0 and
    |k^2| < D^2/10, parabolas among them, E is the series sum_n (-1)^n
    (2n + 2)/(2n + 3) (k^2/D^2)^n / D^3. As U = u0 + u2 s^2 has no linear
    term, k^2 = u0 u2 (s1 - s0)^2, and det(H0, B, H1) = -det(C) (s1 - s0)^3
    / 2 for the chart rows C, so neither cancels on a short piece.
    """
    a = wrap_angles(np.stack([a0, a1, 0.5 * (a0 + a1)]))
    far = np.abs(a[2]) > _HALF_PI
    s0, s1 = np.tan(0.5 * a[:2] - np.where(far, _HALF_PI, 0.0))
    c = np.where(far[:, None, None], coef[:, 1], coef[:, 0])
    (x0, y0, u0, *_), (x1, y1, u1, *_) = (_chart_rows(c, s) for s in (s0, s1))
    sign = np.where(u0 < 0.0, -1.0, 1.0)
    d = sign * (c[:, 2, 0] * (s0 * s1) + c[:, 2, 2])
    w = s1 - s0
    k2 = c[:, 2, 0] * c[:, 2, 2] * (w * w)
    bulge = -0.25 * sign * (c[:, 2] * np.cross(c[:, 0], c[:, 1])).sum(axis=1) * (w * w * w)
    k = np.sqrt(np.abs(k2))
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(k2 > 0.0, np.arctan2(k, d), np.arctanh(k / d))
        closed = (theta / k - d / (u0 * u1)) / k2
        e = np.where((d > 0.0) & (np.abs(k2) < 0.1 * d * d),
                     np.polyval(_SERIES, k2 / (d * d)) / (d * d * d), closed)
    return 0.5 * (x0 / u0 * (y1 / u1) - y0 / u0 * (x1 / u1)) + bulge * e


# ---------------------------------------------------------- classification

# class codes: a conic of class CLASSES[k] has code k
CLASSES = tuple(ConicClass)
_CODE = {cls: k for k, cls in enumerate(CLASSES)}
ELLIPSE_CODE, PARABOLA_CODE, HYPERBOLA_CODE = (
    _CODE[cls] for cls in (ConicClass.ELLIPSE, ConicClass.PARABOLA, ConicClass.HYPERBOLA))


class ConicRows(NamedTuple):
    """P classified conics as arrays (see :func:`classify_rows`).

    ``code`` (P,) holds class codes (indices into CLASSES). A curve's row of
    ``triples`` (P, 3, 3) holds its coefficient triples xq, yq, uq; a
    hyperbola's singular parameters are -``singular`` and +``singular``, a
    parabola's is 0. A line conic's first ``line_count`` rows of ``lines``
    (P, 2, 3) are its normalized lines (a, b, c). Unused entries are zero.
    """

    code: np.ndarray
    triples: np.ndarray
    singular: np.ndarray
    lines: np.ndarray
    line_count: np.ndarray


def _parametrize_rank3(evals: np.ndarray, evecs: np.ndarray):
    """Parametrize R rank-3 conics from their eigen-decompositions (R, 3), (R, 3, 3).

    Returns coefficient triples xq, yq, uq (each (R, 3)), a class code per
    row and the singular parameter s of each hyperbola (+-s). Rows whose
    eigenvalues share one sign are imaginary ellipses (class EMPTY).
    """
    pos = (evals > 0.0).sum(axis=1)
    code = np.full(evals.shape[0], _CODE[ConicClass.EMPTY])
    evals = np.where((pos == 1)[:, None], -evals, evals)
    order = np.argsort(-evals, axis=1)  # two positives first, negative last
    lam = np.take_along_axis(evals, order, axis=1)
    t_mat = np.take_along_axis(evecs, order[:, None, :], axis=2)
    mu = 1.0 / np.sqrt(np.abs(lam))
    # canonical triples for x~ = (1 - t^2) mu1, y~ = 2 t mu2, u~ = (1 + t^2) mu3
    w = np.zeros((evals.shape[0], 3, 3))
    w[:, 0, 0] = -mu[:, 0]
    w[:, 0, 2] = mu[:, 0]
    w[:, 1, 1] = 2.0 * mu[:, 1]
    w[:, 2, 0] = w[:, 2, 2] = mu[:, 2]
    triples = np.matmul(t_mat, w)  # rows X, Y, U; columns t^2, t, 1
    uq = triples[:, 2]
    eps, vecs = sym2_eigh(uq[:, 0], 0.5 * uq[:, 1], uq[:, 2])
    swap = ~(np.abs(eps[:, 0]) >= np.abs(eps[:, 1]))
    eps1 = np.where(swap, eps[:, 1], eps[:, 0])
    eps2 = np.where(swap, eps[:, 0], eps[:, 1])
    r = np.where(swap[:, None, None], vecs[:, :, ::-1], vecs)
    flip = np.linalg.det(r) < 0.0
    r[flip, :, 1] = -r[flip, :, 1]
    xq = _triple_congruences(triples[:, 0], r)
    yq = _triple_congruences(triples[:, 1], r)
    parabola = np.abs(eps2) <= CLASS_REL * np.abs(eps1)
    ellipse = ~parabola & (eps1 * eps2 > 0.0)
    real = (pos == 1) | (pos == 2)
    hyperbola = real & ~parabola & ~ellipse
    code[real & parabola] = PARABOLA_CODE
    code[real & ellipse] = ELLIPSE_CODE
    code[hyperbola] = HYPERBOLA_CODE
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(hyperbola, np.sqrt(-eps2 / eps1), 0.0)
    zero = np.zeros_like(eps1)
    unique = np.stack([eps1, zero, np.where(parabola, zero, eps2)], axis=1)
    return xq, yq, unique, code, s


def _normalized_lines(lines: np.ndarray, usable: np.ndarray):
    """Lines (..., 3) scaled to a^2 + b^2 = 1 with a leading-sign canonical
    normal, so that equal lines compare equal up to roundoff; entries
    outside ``usable`` come back as they are."""
    a, b, c = lines[..., 0], lines[..., 1], lines[..., 2]
    n = np.where(usable, np.hypot(a, b), 1.0)
    a, b, c = a / n, b / n, c / n
    flip = usable & ((a < 0.0) | ((a == 0.0) & (b < 0.0)))
    return np.where(flip[..., None], -np.stack([a, b, c], axis=-1), np.stack([a, b, c], axis=-1))


def _deficient_rows(evals, evecs, scale, length_scale: float):
    """Class codes (R,), lines (R, 2, 3) and line counts (R,) of R conics of rank < 3.

    With lam_pos > 0 > lam_neg a rank-2 matrix equals u u^T - w w^T for u =
    sqrt(lam_pos) v_pos, w = sqrt(-lam_neg) v_neg, the symmetric product of
    the line covectors u + w and u - w; same-sign eigenvalues leave a single
    real point or nothing. A rank-1 matrix is the square of the line of its
    eigenvector. A line whose (a, b) vanishes against c is the line at
    infinity and is dropped; a zero matrix is the whole plane.
    """
    amax = np.abs(evals).max(axis=1)
    keep = np.abs(evals) > RANK_REL * amax[:, None]
    rank = np.where(scale == 0.0, 0, keep.sum(axis=1))
    ev = np.where(keep, evals, 0.0)

    def column(k):
        return np.take_along_axis(evecs, k[:, None, None], axis=2)[:, :, 0]

    i_pos, i_neg = ev.argmax(axis=1), ev.argmin(axis=1)
    lam_pos = np.take_along_axis(ev, i_pos[:, None], axis=1)[:, 0]
    lam_neg = np.take_along_axis(ev, i_neg[:, None], axis=1)[:, 0]
    split = (rank == 2) & ~(lam_pos <= 0.0) & ~(lam_neg >= 0.0)
    with np.errstate(invalid="ignore"):
        u = np.sqrt(np.where(split, lam_pos, 0.0))[:, None] * column(i_pos)
        w = np.sqrt(np.where(split, -lam_neg, 0.0))[:, None] * column(i_neg)
    single = column(np.abs(evals).argmax(axis=1))
    lines = np.where(split[:, None, None], np.stack([u + w, u - w], axis=1),
                     np.stack([single, single], axis=1))
    usable = np.stack([split | (rank == 1), split], axis=1)
    affine = usable & ~(np.hypot(lines[..., 0], lines[..., 1]) * length_scale
                        <= DEN_REL * np.abs(lines[..., 2]))
    lines = _normalized_lines(lines, affine)
    # the affine lines first
    second_only = ~affine[:, 0] & affine[:, 1]
    lines[second_only, 0] = lines[second_only, 1]
    count = affine.sum(axis=1)
    (a1, b1, c1), (a2, b2, c2) = lines[:, 0].T, lines[:, 1].T
    parallel = np.abs(a1 * b2 - b1 * a2) <= 1e-12
    same = np.abs(c1 - c2) <= 1e-12 * (1.0 + np.abs(c1) + np.abs(c2))
    code = np.select(
        [rank == 0, count == 0, count == 1, parallel & same, parallel],
        [_CODE[cls] for cls in (ConicClass.WHOLE_PLANE, ConicClass.EMPTY,
                                ConicClass.SINGLE_LINE, ConicClass.SINGLE_LINE,
                                ConicClass.TWO_PARALLEL_LINES)],
        _CODE[ConicClass.TWO_INTERSECTING_LINES],
    )
    return code, lines, count


def classify_rows(
    coeffs: np.ndarray,
    length_scale: float = 1.0,
    frame: tuple[np.ndarray, np.ndarray] | None = None,
) -> ConicRows:
    """Classify and represent P conics given as rows (a11, a12, a22, b11, b12, c).

    One stacked ``np.linalg.eigh`` serves every conic. The rank-3 ones
    (every curve) are parametrized, and the rank-deficient ones (line
    pairs, single lines, nothing, everything) split into lines, as array
    operations; each step is the stacked form of the one-conic computation,
    so a conic gets the same floats alone or in a batch.

    ``frame = (h, c)`` ((P,) scales, (P, 2) centers) says that row k is
    written in the coordinates (x - c_k) / h_k; the returned representations
    are mapped back to x. ``length_scale`` is a characteristic coordinate
    magnitude of the (framed) input, used only to decide whether a split
    line is the line at infinity.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 6)
    d = conic_matrices(coeffs)
    p = d.shape[0]
    code = np.empty(p, dtype=np.int64)
    triples = np.zeros((p, 3, 3))
    singular = np.zeros(p)
    lines = np.zeros((p, 2, 3))
    count = np.zeros(p, dtype=np.int64)
    scale = np.abs(d).max(axis=(1, 2), initial=0.0)
    evals, evecs = np.linalg.eigh(d)
    amax = np.abs(evals).max(axis=1, initial=0.0)
    rank3 = ((np.abs(evals) > RANK_REL * amax[:, None]).sum(axis=1) == 3) & (scale != 0.0)

    if frame is not None:
        frame = np.asarray(frame[0], dtype=float), np.asarray(frame[1], dtype=float)

    rows = np.flatnonzero(rank3)
    if rows.size:
        xq, yq, uq, code[rows], singular[rows] = _parametrize_rank3(evals[rows], evecs[rows])
        if frame is not None:
            h, c = frame[0][rows], frame[1][rows]
            xq = h[:, None] * xq + c[:, 0:1] * uq
            yq = h[:, None] * yq + c[:, 1:2] * uq
        triples[rows] = np.stack([xq, yq, uq], axis=1)

    rows = np.flatnonzero(~rank3)
    if rows.size:
        code[rows], found, count[rows] = _deficient_rows(evals[rows], evecs[rows], scale[rows],
                                                         length_scale)
        if frame is not None:
            h, c = frame[0][rows], frame[1][rows]
            a, b = found[..., 0], found[..., 1]
            moved = h[:, None] * found[..., 2] - a * c[:, 0:1] - b * c[:, 1:2]
            found = _normalized_lines(np.stack([a, b, moved], axis=-1),
                                      np.arange(2) < count[rows, None])
        lines[rows] = np.where((np.arange(2) < count[rows, None])[..., None], found, 0.0)
    return ConicRows(code, triples, singular, lines, count)

