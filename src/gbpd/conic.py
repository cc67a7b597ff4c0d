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
homogeneous points at parameters, points and velocities at alphas, line
points) is a kernel over rows. The one-value forms of these evaluations,
which the kernels must equal bit for bit, are test references
(tests/oracles.py); only the scalar angle maps stay here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularParameterError
from .geometry import hypots, sym2_eigh
from .tolerances import CLASS_REL, DEN_REL, RANK_REL

_HALF_PI = 0.5 * math.pi
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


def charts_of_triples(triples: np.ndarray) -> np.ndarray:
    """Chart triples (P, 2, 3, 3) of P conics given by their xq, yq, uq rows (P, 3, 3)."""
    base = np.asarray(triples, dtype=float).reshape(-1, 3, 3)
    # the substitution t = -1/s maps (c2, c1, c0) to (c0, -c1, c2), exact in floats
    return np.stack([base, base[:, :, ::-1] * np.array([1.0, -1.0, 1.0])], axis=1)


# eval_alpha_batch stays apart from points_at_alphas, which runs math.tan per
# entry: on the 15 Gauss-Kronrod nodes of every arc piece that made
# measure_cells 31% slower (0.224 s to 0.294 s over the 39 benchmark clip
# windows, 2-vCPU machine) and moved 736 of its 2,224 areas and perimeters,
# by up to 1.6e-11 relative.
def eval_alpha_batch(coef: np.ndarray, u_scale: np.ndarray, alpha: np.ndarray):
    """Points and d/dalpha velocities of many conics at many alphas.

    Row k of ``alpha`` (P, K) is evaluated on conic ``coef[k]`` (P, 2, 3,
    3, chart triples as ``charts_of_triples`` lays them out) with
    denominator scale ``u_scale[k]``. Each value is computed elementwise, so
    it does not depend on the other rows. An alpha on the line at infinity
    raises SingularParameterError.
    Returns (x, y, vx, vy, cond), each (P, K). ``cond`` is the condition
    number of the denominator u^ at s, the sum of its terms' magnitudes
    over |u^|: where it is large, u^ cancels, and the rounding of its
    chart rows' values grows by that factor relative to those values.
    """
    a = np.remainder(alpha + math.pi, 2.0 * math.pi) - math.pi
    far = np.abs(a) > _HALF_PI
    s = np.tan(np.where(far, 0.5 * a - _HALF_PI, 0.5 * a))
    c = np.where(far[:, :, None, None], coef[:, None, 1], coef[:, None, 0])
    x, y, u, dx, dy, du = _chart_rows(c, s)
    if np.any(np.abs(u) <= DEN_REL * u_scale[:, None]):
        raise SingularParameterError("an alpha of the batch lies on the line at infinity")
    u_terms = (np.abs(c[..., 2, 0] * s) + np.abs(c[..., 2, 1])) * np.abs(s) + np.abs(c[..., 2, 2])
    return (*_point_velocity(x, y, u, dx, dy, du, s), u_terms / np.abs(u))


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
# the floats of the one-value forms above and of the scalar chart-triple
# evaluation (kept as a test reference in tests/oracles.py): math.remainder,
# math.tan and math.atan run per entry, because np.remainder is a floored
# modulo and np.tan and np.arctan round differently from math.tan and
# math.atan on some inputs. The angle maps are the scalar maps per entry;
# wrap_angles keeps an array path, since every points_at_alphas call runs it.


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
    alpha = 2.0 * np.array([math.atan(v) for v in t.tolist()], dtype=float)
    return np.where(np.isinf(t), math.pi, alpha)


def params_of_alphas(alpha: np.ndarray) -> np.ndarray:
    """:func:`param_of_alpha` of each entry of a 1-D array."""
    return np.array([param_of_alpha(v) for v in alpha.tolist()], dtype=float)


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
    """Points and d/dalpha velocities of N conics at one alpha each.

    Row k evaluates conic ``coef[k]`` (N, 2, 3, 3, from
    ``charts_of_triples``) at ``alpha[k]``: chart 0 at s = tan(alpha/2)
    for |alpha| <= pi/2 after wrapping, chart 1 at s = tan(alpha/2 - pi/2)
    otherwise. Returns (x, y, vx, vy, singular); ``singular`` marks rows
    whose denominator is within DEN_REL u_scale of zero, whose values are
    not to be used.
    """
    a = wrap_angles(alpha)
    far = ~(np.abs(a) <= _HALF_PI)
    arg = np.where(far, 0.5 * a - _HALF_PI, 0.5 * a)
    s = np.array([math.tan(v) for v in arg.tolist()], dtype=float)
    x, y, u, dx, dy, du = _chart_rows(np.where(far[:, None, None], coef[:, 1], coef[:, 0]), s)
    singular = np.abs(u) <= DEN_REL * u_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        return (*_point_velocity(x, y, u, dx, dy, du, s), singular)


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
    n = np.where(usable, hypots(a, b), 1.0)
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
    affine = usable & ~(hypots(lines[..., 0], lines[..., 1]) * length_scale
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
    with ``math`` functions per entry where numpy rounds differently, so a
    conic gets the same floats alone or in a batch.

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

