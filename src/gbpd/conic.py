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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SingularParameterError
from .geometry import sym2_eigh
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet

_HALF_PI = 0.5 * math.pi


class ConicClass(enum.Enum):
    ELLIPSE = "Ellipse"
    HYPERBOLA = "Hyperbola"
    PARABOLA = "Parabola"
    SINGLE_LINE = "SingleLine"
    TWO_PARALLEL_LINES = "TwoParallelLines"
    TWO_INTERSECTING_LINES = "TwoIntersectingLines"
    EMPTY = "Empty"
    WHOLE_PLANE = "WholePlane"


LINE_CLASSES = frozenset(
    {ConicClass.SINGLE_LINE, ConicClass.TWO_PARALLEL_LINES, ConicClass.TWO_INTERSECTING_LINES}
)
CURVE_CLASSES = frozenset({ConicClass.ELLIPSE, ConicClass.HYPERBOLA, ConicClass.PARABOLA})


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

    @staticmethod
    def from_matrix3(d) -> "ConicImplicit":
        d = np.asarray(d, dtype=float)
        return ConicImplicit(
            d[0, 0], 0.5 * (d[0, 1] + d[1, 0]), d[1, 1], d[0, 2] + d[2, 0], d[1, 2] + d[2, 1], d[2, 2]
        )

    def coeff_scale(self) -> float:
        return max(
            abs(self.a11), abs(self.a12), abs(self.a22), abs(self.b11), abs(self.b12), abs(self.c)
        )

    def negated(self) -> "ConicImplicit":
        return ConicImplicit(-self.a11, -self.a12, -self.a22, -self.b11, -self.b12, -self.c)

    def coeffs(self) -> tuple[float, float, float, float, float, float]:
        return (self.a11, self.a12, self.a22, self.b11, self.b12, self.c)

    def quad_discriminant(self) -> float:
        """a12^2 - a11 a22: negative for ellipses, zero parabola, positive hyperbola."""
        return self.a12 * self.a12 - self.a11 * self.a22


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


def line_as_conic(a: float, b: float, c: float) -> ConicImplicit:
    """The line ax + by + c = 0 as a (rank <= 2) conic."""
    return ConicImplicit(0.0, 0.0, 0.0, a, b, c)


@dataclass(frozen=True)
class LineParam:
    """Line ax + by + c = 0 with unit normal and a linear parametrization.

    Coefficients are normalized (a^2 + b^2 = 1, leading-sign canonical) so
    equal lines compare equal up to roundoff. Points are q + t d with d the
    unit direction (-b, a); the parameter of a point is its projection.
    """

    a: float
    b: float
    c: float

    @staticmethod
    def from_implicit(a: float, b: float, c: float) -> "LineParam":
        n = math.hypot(a, b)
        if n == 0.0:
            raise InputError("line coefficients (a, b) must not both vanish")
        a, b, c = a / n, b / n, c / n
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c = -a, -b, -c
        return LineParam(a, b, c)

    @property
    def anchor(self) -> np.ndarray:
        """Point on the line closest to the origin."""
        return np.array([-self.c * self.a, -self.c * self.b])

    @property
    def direction(self) -> np.ndarray:
        return np.array([-self.b, self.a])

    def point_at(self, t: float) -> np.ndarray:
        return np.array([-self.c * self.a - t * self.b, -self.c * self.b + t * self.a])

    def param_of(self, v) -> float:
        return float((v[0] + self.c * self.a) * -self.b + (v[1] + self.c * self.b) * self.a)

    def signed_distance(self, v) -> float:
        return float(self.a * v[0] + self.b * v[1] + self.c)

    def as_conic(self) -> ConicImplicit:
        return line_as_conic(self.a, self.b, self.c)


@dataclass(frozen=True)
class DegenerateConic:
    """Rank-deficient conic: up to two real lines, or nothing, or everything."""

    conic_class: ConicClass
    lines: tuple[LineParam, ...]


def real_quadratic_roots_batch(a, b, c, rel: float = 1e-13):
    """:func:`real_quadratic_roots` of N quadratics (rows of a, b, c), as arrays.

    Returns (roots (N, 2), root_valid (N, 2), inf_is_root (N,),
    identically_zero (N,)). A row's roots are its valid entries, ascending;
    a degree drop leaves one valid root in column 0. Every value is the
    float the one-quadratic form gives.
    """
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    everywhere = scale == 0.0
    drop = ~everywhere & (np.abs(a) <= rel * scale)
    linear = drop & ~(np.abs(b) <= rel * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        real = ~everywhere & ~drop & ~(disc < 0.0)
        q = -0.5 * (b + np.copysign(np.sqrt(disc), np.where(b != 0.0, b, 1.0)))
        r1 = q / a
        r2 = np.where(q != 0.0, c / q, r1)
        lo = np.where(linear, -c / b, np.where(r2 < r1, r2, r1))
    roots = np.stack([lo, np.where(r2 < r1, r1, r2)], axis=1)
    return roots, np.stack([real | linear, real], axis=1), everywhere | drop, everywhere


def real_quadratic_roots(a: float, b: float, c: float, rel: float = 1e-13):
    """Real roots of a t^2 + b t + c, projective-aware.

    Returns (roots, inf_is_root, identically_zero). A vanishing leading
    coefficient (relative to the largest coefficient) marks t = inf as a
    root of the homogenized quadratic.
    """
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


def _rotate_pi_triple(triple) -> tuple[float, float, float]:
    # substitution t = -1/s: (c2, c1, c0) -> (c0, -c1, c2)
    c2, c1, c0 = triple
    return (c0, -c1, c2)


def _eval_triple(triple, t: float) -> float:
    return (triple[0] * t + triple[1]) * t + triple[2]


def _derivative_triple(triple, t: float) -> float:
    return 2.0 * triple[0] * t + triple[1]


def wrap_angle(alpha: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.remainder(alpha, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


def alpha_of_param(t: float) -> float:
    """alpha = 2 atan(t); the infinite parameter maps to pi."""
    if math.isinf(t):
        return math.pi
    return 2.0 * math.atan(t)


def param_of_alpha(alpha: float) -> float:
    a = wrap_angle(alpha)
    if a == math.pi:
        return math.inf
    return math.tan(0.5 * a)


@dataclass(frozen=True)
class ParametrizedConic:
    """Rational parametrization of a rank-3 conic.

    ``xq, yq, uq`` are coefficient triples of x^(t), y^(t), u^(t); the curve
    point is (x^/u^, y^/u^). ``singular_params`` are the real roots of u^(t)
    (one entry for a parabola's double root). By construction uq has no
    linear term, so singular parameters come in symmetric pairs inside
    [-1, 1] and t = inf is always a regular point.
    """

    xq: tuple[float, float, float]
    yq: tuple[float, float, float]
    uq: tuple[float, float, float]
    singular_params: tuple[float, ...]
    conic_class: ConicClass

    def __post_init__(self):
        object.__setattr__(self, "_rot", tuple(_rotate_pi_triple(q) for q in (self.xq, self.yq, self.uq)))
        object.__setattr__(self, "_u_scale", sum(abs(v) for v in self.uq))

    @property
    def u_scale(self) -> float:
        return self._u_scale

    @property
    def singular_alphas(self) -> tuple[float, ...]:
        return tuple(alpha_of_param(t) for t in self.singular_params)

    def _chart_of_alpha(self, alpha: float) -> tuple[int, float]:
        a = wrap_angle(alpha)
        if abs(a) <= _HALF_PI:
            return 0, math.tan(0.5 * a)
        return 1, math.tan(0.5 * a - _HALF_PI)

    def _triples(self, chart: int):
        return (self.xq, self.yq, self.uq) if chart == 0 else self._rot

    def homogeneous_at(self, t: float) -> tuple[float, float, float]:
        """(X, Y, U) with the curve point (X/U, Y/U), chart chosen by |t|."""
        if math.isinf(t):
            return (self.xq[0], self.yq[0], self.uq[0])
        if abs(t) <= 1.0:
            tx, ty, tu = self.xq, self.yq, self.uq
            s = t
        else:
            tx, ty, tu = self._rot
            s = -1.0 / t
        return (_eval_triple(tx, s), _eval_triple(ty, s), _eval_triple(tu, s))

    def point_at(self, t: float, tol: ToleranceSet = DEFAULT_TOLERANCES) -> np.ndarray:
        x, y, u = self.homogeneous_at(t)
        if abs(u) <= tol.den_rel * self._u_scale:
            raise SingularParameterError(f"parameter t={t} lies on the line at infinity")
        return np.array([x / u, y / u])

    def point_at_alpha(self, alpha: float, tol: ToleranceSet = DEFAULT_TOLERANCES) -> np.ndarray:
        chart, s = self._chart_of_alpha(alpha)
        tx, ty, tu = self._triples(chart)
        u = _eval_triple(tu, s)
        if abs(u) <= tol.den_rel * self._u_scale:
            raise SingularParameterError(f"alpha={alpha} lies on the line at infinity")
        return np.array([_eval_triple(tx, s) / u, _eval_triple(ty, s) / u])

    def u_at_alpha(self, alpha: float) -> float:
        chart, s = self._chart_of_alpha(alpha)
        return _eval_triple(self._triples(chart)[2], s)

    def velocity_at_alpha(self, alpha: float, tol: ToleranceSet = DEFAULT_TOLERANCES) -> np.ndarray:
        """d(x, y)/d alpha; smooth across the chart switch."""
        chart, s = self._chart_of_alpha(alpha)
        tx, ty, tu = self._triples(chart)
        x, y, u = _eval_triple(tx, s), _eval_triple(ty, s), _eval_triple(tu, s)
        if abs(u) <= tol.den_rel * self._u_scale:
            raise SingularParameterError(f"alpha={alpha} lies on the line at infinity")
        dx, dy, du = _derivative_triple(tx, s), _derivative_triple(ty, s), _derivative_triple(tu, s)
        # ds/dalpha = (1 + s^2)/2 in either chart
        f = 0.5 * (1.0 + s * s) / (u * u)
        return np.array([(dx * u - x * du) * f, (dy * u - y * du) * f])


def chart_coefficients(params) -> np.ndarray:
    """Chart triples of P parametrized conics as one (P, 2, 3, 3) array.

    Entry [k, chart, row] is the (c2, c1, c0) triple of x^, y^, u^ (rows
    0, 1, 2) of conic k in chart 0 (s = tan(alpha/2)) or in chart 1 (the
    t -> -1/t rotation, s = tan(alpha/2 - pi/2)).
    """
    base = np.array([(p.xq, p.yq, p.uq) for p in params], dtype=float).reshape(-1, 3, 3)
    # the rotation (c2, c1, c0) -> (c0, -c1, c2) of _rotate_pi_triple, exact in floats
    return np.stack([base, base[:, :, ::-1] * np.array([1.0, -1.0, 1.0])], axis=1)


def eval_alpha_batch(coef: np.ndarray, u_scale: np.ndarray, alpha: np.ndarray,
                     tol: ToleranceSet = DEFAULT_TOLERANCES):
    """Points and d/dalpha velocities of many conics at many alphas.

    The array form of ``point_at_alpha`` and ``velocity_at_alpha``: row k
    of ``alpha`` (P, K) is evaluated on conic ``coef[k]`` (P, 2, 3, 3, from
    ``chart_coefficients``) with denominator scale ``u_scale[k]``. Each
    value is computed elementwise, so it does not depend on the other rows.
    Returns (x, y, vx, vy), each (P, K).
    """
    a = np.remainder(alpha + math.pi, 2.0 * math.pi) - math.pi
    far = np.abs(a) > _HALF_PI
    s = np.tan(np.where(far, 0.5 * a - _HALF_PI, 0.5 * a))
    c = np.where(far[:, :, None, None], coef[:, None, 1], coef[:, None, 0])
    x, y, u, dx, dy, du = _chart_rows(c, s)
    if np.any(np.abs(u) <= tol.den_rel * u_scale[:, None]):
        raise SingularParameterError("an alpha of the batch lies on the line at infinity")
    return _point_velocity(x, y, u, dx, dy, du, s)


def _chart_rows(c: np.ndarray, s: np.ndarray):
    """x^, y^, u^ and their s-derivatives from chart triples c (..., 3, 3) at s (...)."""
    x, y, u = ((c[..., r, 0] * s + c[..., r, 1]) * s + c[..., r, 2] for r in range(3))
    dx, dy, du = (2.0 * c[..., r, 0] * s + c[..., r, 1] for r in range(3))
    return x, y, u, dx, dy, du


def _point_velocity(x, y, u, dx, dy, du, s):
    """Curve point and d/dalpha velocity from chart values; ds/dalpha = (1 + s^2)/2."""
    f = 0.5 * (1.0 + s * s) / (u * u)
    return x / u, y / u, (dx * u - x * du) * f, (dy * u - y * du) * f


# The kernels below feed values that reach the diagram JSON, so they keep
# the scalar code's floats: math.remainder, math.tan and math.atan run per
# entry, because np.remainder is a floored modulo and np.tan and np.arctan
# round differently from math.tan and math.atan on some inputs.


def wrap_angles(alpha: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` of each entry of a 1-D array.

    math.remainder(a, 2 pi) is a itself for |a| <= pi (the quotient rounds
    to 0, ties to even), so only the other entries go through it.
    """
    a = np.array(alpha, dtype=float)
    out = np.flatnonzero(~(np.abs(a) <= math.pi))
    a[out] = [math.remainder(v, 2.0 * math.pi) for v in a[out].tolist()]
    return np.where(a <= -math.pi, a + 2.0 * math.pi, a)


def alphas_of_params(t: np.ndarray) -> np.ndarray:
    """:func:`alpha_of_param` of each entry of a 1-D array."""
    atan = np.array([math.atan(v) for v in t.tolist()], dtype=float)
    return np.where(np.isinf(t), math.pi, 2.0 * atan)


def params_of_alphas(alpha: np.ndarray) -> np.ndarray:
    """:func:`param_of_alpha` of each entry of a 1-D array."""
    a = wrap_angles(alpha)
    tan = np.array([math.tan(v) for v in (0.5 * a).tolist()], dtype=float)
    return np.where(a == math.pi, math.inf, tan)


def homogeneous_at_params(coef: np.ndarray, t: np.ndarray):
    """``homogeneous_at`` of conic ``coef[k]`` (N, 2, 3, 3) at every t[k, j] of t (N, K).

    Returns (X, Y, U), each (N, K); |t| > 1 goes through the t -> -1/t
    chart and t = +-inf gives the leading coefficients.
    """
    inner = np.abs(t) <= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(inner, t, -1.0 / t)
    c = np.where(inner[..., None, None], coef[:, None, 0], coef[:, None, 1])
    x, y, u, _, _, _ = _chart_rows(c, s)
    at_inf = np.isinf(t)
    return tuple(np.where(at_inf, coef[:, None, 0, r, 0], val) for r, val in enumerate((x, y, u)))


def points_at_alphas(coef: np.ndarray, u_scale: np.ndarray, alpha: np.ndarray,
                     tol: ToleranceSet = DEFAULT_TOLERANCES):
    """Points and velocities of N conics at one alpha each, as the scalar methods give them.

    Row k is ``point_at_alpha`` and ``velocity_at_alpha`` of conic
    ``coef[k]`` (N, 2, 3, 3, from ``chart_coefficients``) at ``alpha[k]``.
    Returns (x, y, vx, vy, singular); where ``singular`` is set, the scalar
    methods raise SingularParameterError and the row's values are not used.
    """
    a = wrap_angles(alpha)
    far = ~(np.abs(a) <= _HALF_PI)
    arg = np.where(far, 0.5 * a - _HALF_PI, 0.5 * a)
    s = np.array([math.tan(v) for v in arg.tolist()], dtype=float)
    x, y, u, dx, dy, du = _chart_rows(np.where(far[:, None, None], coef[:, 1], coef[:, 0]), s)
    singular = np.abs(u) <= tol.den_rel * u_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        return (*_point_velocity(x, y, u, dx, dy, du, s), singular)


def eval_param(p: ParametrizedConic, t: float, tol: ToleranceSet = DEFAULT_TOLERANCES) -> np.ndarray:
    """Cartesian point at parameter t; singular-parameter error if u^(t) ~ 0."""
    return p.point_at(t, tol)


def residual_polynomial(conic: ConicImplicit, p: ParametrizedConic) -> np.ndarray:
    """Coefficients (degree 4 down to 0) of F(x^, y^) pulled back through u^.

    Substituting the parametrization into the implicit form and clearing the
    denominator gives a quartic polynomial in t that must vanish identically;
    its five coefficients are returned for symbolic (coefficient-level) checks.
    """
    xq, yq, uq = np.array(p.xq), np.array(p.yq), np.array(p.uq)
    out = conic.a11 * np.convolve(xq, xq)
    out = out + 2.0 * conic.a12 * np.convolve(xq, yq)
    out = out + conic.a22 * np.convolve(yq, yq)
    out = out + conic.b11 * np.convolve(xq, uq)
    out = out + conic.b12 * np.convolve(yq, uq)
    out = out + conic.c * np.convolve(uq, uq)
    return out


# ---------------------------------------------------------- classification


def _lines_from_rank2(evals: np.ndarray, evecs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Split a rank-2 homogeneous conic sum(lam_k v_k v_k^T) into two lines.

    With lam_pos > 0 > lam_neg the matrix equals u u^T - w w^T for
    u = sqrt(lam_pos) v_pos, w = sqrt(-lam_neg) v_neg, which factors as the
    symmetric product of the line covectors u + w and u - w. Same-sign
    eigenvalues mean the zero set is a single point (or empty): no real lines.
    """
    i_pos = int(np.argmax(evals))
    i_neg = int(np.argmin(evals))
    if evals[i_pos] <= 0.0 or evals[i_neg] >= 0.0:
        return None
    u = math.sqrt(evals[i_pos]) * evecs[:, i_pos]
    w = math.sqrt(-evals[i_neg]) * evecs[:, i_neg]
    return u + w, u - w


def _affine_line(coeffs: np.ndarray, length_scale: float, tol: ToleranceSet) -> LineParam | None:
    """Build a LineParam, or None for the line at infinity ((a, b) ~ 0)."""
    a, b, c = float(coeffs[0]), float(coeffs[1]), float(coeffs[2])
    if math.hypot(a, b) * length_scale <= tol.den_rel * abs(c):
        return None
    return LineParam.from_implicit(a, b, c)


def _classify_lines(lines: list[LineParam]) -> ConicClass:
    if len(lines) == 0:
        return ConicClass.EMPTY
    if len(lines) == 1:
        return ConicClass.SINGLE_LINE
    l1, l2 = lines
    cross = abs(l1.a * l2.b - l1.b * l2.a)
    if cross <= 1e-12:
        # same normal direction: either genuinely parallel or the same line twice
        if abs(l1.c - l2.c) <= 1e-12 * (1.0 + abs(l1.c) + abs(l2.c)):
            return ConicClass.SINGLE_LINE
        return ConicClass.TWO_PARALLEL_LINES
    return ConicClass.TWO_INTERSECTING_LINES


# _parametrize_rank3 class codes
_EMPTY, _PARABOLA, _ELLIPSE, _HYPERBOLA = range(4)
_RANK3_CLASS = {
    _PARABOLA: ConicClass.PARABOLA,
    _ELLIPSE: ConicClass.ELLIPSE,
    _HYPERBOLA: ConicClass.HYPERBOLA,
}


def _parametrize_rank3(evals: np.ndarray, evecs: np.ndarray, tol: ToleranceSet):
    """Parametrize R rank-3 conics from their eigen-decompositions (R, 3), (R, 3, 3).

    Returns coefficient triples xq, yq, uq (each (R, 3)), a class code per
    row and the singular parameter s of each hyperbola (+-s). Rows whose
    eigenvalues share one sign are imaginary ellipses (code _EMPTY).
    """
    pos = (evals > 0.0).sum(axis=1)
    code = np.full(evals.shape[0], _EMPTY)
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
    parabola = np.abs(eps2) <= tol.class_rel * np.abs(eps1)
    ellipse = ~parabola & (eps1 * eps2 > 0.0)
    real = (pos == 1) | (pos == 2)
    code[real & parabola] = _PARABOLA
    code[real & ellipse] = _ELLIPSE
    code[real & ~parabola & ~ellipse] = _HYPERBOLA
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(-eps2 / eps1)
    zero = np.zeros_like(eps1)
    unique = np.stack([eps1, zero, np.where(parabola, zero, eps2)], axis=1)
    return xq, yq, unique, code, s


def _classify_deficient(
    evals: np.ndarray, evecs: np.ndarray, tol: ToleranceSet, length_scale: float
) -> DegenerateConic:
    """Line representation of a conic whose homogeneous matrix has rank < 3."""
    amax = float(np.abs(evals).max())
    keep = np.abs(evals) > tol.rank_rel * amax
    rank = int(keep.sum())
    if rank == 2:
        ev = np.where(keep, evals, 0.0)
        pair = _lines_from_rank2(ev, evecs)
        if pair is None:
            # complex line pair: zero set is a single real point (or empty)
            return DegenerateConic(ConicClass.EMPTY, ())
        lines = [ln for ln in (_affine_line(v, length_scale, tol) for v in pair) if ln is not None]
        return DegenerateConic(_classify_lines(lines), tuple(lines))
    if rank == 1:
        idx = int(np.argmax(np.abs(evals)))
        line = _affine_line(evecs[:, idx], length_scale, tol)
        if line is None:
            # (line at infinity)^2 = 0: no affine points
            return DegenerateConic(ConicClass.EMPTY, ())
        return DegenerateConic(ConicClass.SINGLE_LINE, (line,))
    return DegenerateConic(ConicClass.WHOLE_PLANE, ())


def classify_and_parametrize_batch(
    coeffs: np.ndarray,
    tol: ToleranceSet = DEFAULT_TOLERANCES,
    length_scale: float = 1.0,
    frame: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[ParametrizedConic | DegenerateConic]:
    """Classify and represent P conics given as rows (a11, a12, a22, b11, b12, c).

    One stacked ``np.linalg.eigh`` serves every conic, and the rank-3 ones
    (every curve) are parametrized as array operations; only rank-deficient
    conics (line pairs, single lines, nothing, everything) take a per-conic
    path. Each step is the stacked form of the one-conic computation, so a
    conic gets the same floats alone or in a batch.

    ``frame = (h, c)`` ((P,) scales, (P, 2) centers) says that row k is
    written in the coordinates (x - c_k) / h_k; the returned representations
    are mapped back to x. ``length_scale`` is a characteristic coordinate
    magnitude of the (framed) input, used only to decide whether a split
    line is the line at infinity.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 6)
    d = conic_matrices(coeffs)
    out: list[ParametrizedConic | DegenerateConic | None] = [None] * d.shape[0]
    if not out:
        return []
    scale = np.abs(d).max(axis=(1, 2))
    evals, evecs = np.linalg.eigh(d)
    amax = np.abs(evals).max(axis=1)
    rank3 = ((np.abs(evals) > tol.rank_rel * amax[:, None]).sum(axis=1) == 3) & (scale != 0.0)

    rows = np.flatnonzero(rank3)
    xq, yq, uq, code, s = _parametrize_rank3(evals[rows], evecs[rows], tol)
    if frame is not None:
        h, c = frame
        hr = np.asarray(h, dtype=float)[rows, None]
        cr = np.asarray(c, dtype=float)[rows]
        xq = hr * xq + cr[:, 0:1] * uq
        yq = hr * yq + cr[:, 1:2] * uq
        # framed triples stay numpy scalars, as the one-conic affine map left them
        xs, ys = [tuple(q) for q in xq], [tuple(q) for q in yq]
    else:
        xs, ys = [tuple(q) for q in xq.tolist()], [tuple(q) for q in yq.tolist()]
    us, ss = uq.tolist(), s.tolist()
    for k, row in enumerate(rows.tolist()):
        kind = int(code[k])
        if kind == _EMPTY:
            # imaginary ellipse: no real points
            out[row] = DegenerateConic(ConicClass.EMPTY, ())
            continue
        if kind == _PARABOLA:
            singular: tuple[float, ...] = (0.0,)
        elif kind == _ELLIPSE:
            singular = ()
        else:
            singular = (-ss[k], ss[k])
        out[row] = ParametrizedConic(xs[k], ys[k], tuple(us[k]), singular, _RANK3_CLASS[kind])

    for row in np.flatnonzero(~rank3).tolist():
        if scale[row] == 0.0:
            rep = DegenerateConic(ConicClass.WHOLE_PLANE, ())
        else:
            rep = _classify_deficient(evals[row], evecs[row], tol, length_scale)
        if frame is not None and rep.lines:
            h, c = float(frame[0][row]), np.asarray(frame[1][row], dtype=float)
            lines = tuple(
                LineParam.from_implicit(ln.a, ln.b, h * ln.c - ln.a * c[0] - ln.b * c[1])
                for ln in rep.lines
            )
            rep = DegenerateConic(rep.conic_class, lines)
        out[row] = rep
    return out  # type: ignore[return-value]


def classify_and_parametrize(
    conic: ConicImplicit,
    tol: ToleranceSet = DEFAULT_TOLERANCES,
    length_scale: float = 1.0,
) -> ParametrizedConic | DegenerateConic:
    """Classify a conic and produce its parametric or line representation.

    A batch of one of :func:`classify_and_parametrize_batch`.
    """
    return classify_and_parametrize_batch(np.array([conic.coeffs()]), tol, length_scale)[0]
