"""Generators, distance functions, and ellipse geometry.

A generator is a weighted ellipse: a center ``p``, a positive definite 2x2
matrix ``M`` and a scalar weight ``w``. The induced distance to a point ``x``
is the shifted quadratic form ``(x - p)^T M (x - p) - w``, which may be
negative. Every point of the plane is assigned to the generator of smallest
distance; the resulting cells form the generalized balanced power diagram.

Points are plain numpy arrays of shape (2,). The symmetric matrix is stored
as its three independent entries, so symmetry holds by construction.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import InputError, NonRenderableContour
from .tolerances import VERT_REL

Point = np.ndarray

# relative eigenvalue gap below which an ellipse counts as a circle (angle tied to 0)
_CIRCLE_TIE_REL = 1e-12
# generator columns per block of SceneArrays.screened_min
_GEN_BLOCK = 16
# nodes per axis of SceneArrays.winner_grid
_GRID_NODES = 24
# label images store generator ids as int32
_MAX_ID = 2**31 - 1


def as_point(x) -> Point:
    q = np.asarray(x, dtype=float)
    if q.shape != (2,):
        raise InputError(f"expected a 2d point, got shape {q.shape}")
    return q


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix stored as (m11, m12, m22)."""

    m11: float
    m12: float
    m22: float

    def __post_init__(self):
        object.__setattr__(self, "m11", float(self.m11))
        object.__setattr__(self, "m12", float(self.m12))
        object.__setattr__(self, "m22", float(self.m22))

    @staticmethod
    def identity() -> "SymMat2":
        return SymMat2(1.0, 0.0, 1.0)

    @staticmethod
    def isotropic(value: float) -> "SymMat2":
        return SymMat2(value, 0.0, value)

    @staticmethod
    def from_matrix(arr) -> "SymMat2":
        a = np.asarray(arr, dtype=float)
        if a.shape != (2, 2):
            raise InputError(f"expected a 2x2 matrix, got shape {a.shape}")
        if not math.isclose(a[0, 1], a[1, 0], rel_tol=1e-9, abs_tol=1e-12):
            raise InputError("matrix is not symmetric")
        return SymMat2(float(a[0, 0]), 0.5 * float(a[0, 1] + a[1, 0]), float(a[1, 1]))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m12, self.m22]])

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m12

    def is_positive_definite(self) -> bool:
        return self.m11 > 0.0 and self.det() > 0.0

    def quadratic(self, v) -> float:
        """v^T M v for a single vector."""
        vx, vy = float(v[0]), float(v[1])
        return self.m11 * vx * vx + 2.0 * self.m12 * vx * vy + self.m22 * vy * vy

    def inverse(self) -> "SymMat2":
        d = self.det()
        if d == 0.0:
            raise InputError("matrix is singular")
        return SymMat2(self.m22 / d, -self.m12 / d, self.m11 / d)

    def rotated(self, theta: float) -> "SymMat2":
        """Congruence R M R^T with R the rotation by theta."""
        c, s = math.cos(theta), math.sin(theta)
        m11 = c * c * self.m11 - 2 * c * s * self.m12 + s * s * self.m22
        m22 = s * s * self.m11 + 2 * c * s * self.m12 + c * c * self.m22
        m12 = c * s * (self.m11 - self.m22) + (c * c - s * s) * self.m12
        return SymMat2(m11, m12, m22)

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form spectral decomposition; a batch of one of :func:`sym2_eigh`."""
        evals, evecs = sym2_eigh(np.array([self.m11]), np.array([self.m12]), np.array([self.m22]))
        return evals[0], evecs[0]


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, k) arrays.

    Goes through the same BLAS dot as ``a[r] @ b[r]`` on each row, so the
    result matches the one-vector product bit for bit (a hand-written sum of
    products rounds differently where BLAS fuses multiply and add).
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def hypots(x, y) -> np.ndarray:
    """``math.hypot`` of each entry pair of two arrays of one shape.

    ``np.hypot`` rounds differently on some inputs, so the scalar function
    runs per entry.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.fromiter(map(math.hypot, x.ravel().tolist(), y.ravel().tolist()), dtype=float,
                       count=x.size).reshape(x.shape)


def sym2_eigh(m11: np.ndarray, m12: np.ndarray, m22: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectral decomposition of N symmetric 2x2 matrices.

    Returns eigenvalues ascending, shape (N, 2), and matrices whose columns
    are the corresponding unit eigenvectors, shape (N, 2, 2), mirroring
    ``numpy.linalg.eigh``. Uses the trace/determinant formula; for
    (near-)equal eigenvalues the basis is tied to the coordinate axes.
    ``math.hypot`` is kept per entry because ``np.hypot`` rounds differently.
    """
    m11, m12, m22 = (np.asarray(m, dtype=float) for m in (m11, m12, m22))
    mean = 0.5 * (m11 + m22)
    half_gap = np.array(
        [math.hypot(a, b) for a, b in zip((0.5 * (m11 - m22)).tolist(), m12.tolist())]
    ).reshape(m11.shape)
    lo, hi = mean - half_gap, mean + half_gap
    scale = np.maximum(np.abs(lo), np.abs(hi))
    tie = (half_gap <= _CIRCLE_TIE_REL * scale) | (scale == 0.0)
    # eigenvector for hi from the better-conditioned of the two rows
    cand1 = np.stack([m12, hi - m11], axis=1)
    cand2 = np.stack([hi - m22, m12], axis=1)
    v = np.where((row_dot(cand1, cand1) >= row_dot(cand2, cand2))[:, None], cand1, cand2)
    norm = np.array([math.hypot(x, y) for x, y in v.tolist()]).reshape(m11.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = v / norm[:, None]
    evecs = np.empty((m11.shape[0], 2, 2))
    evecs[:, 0, 0] = -v[:, 1]
    evecs[:, 1, 0] = v[:, 0]
    evecs[:, :, 1] = v
    evecs[tie] = np.eye(2)
    return np.stack([lo, hi], axis=1), evecs


@dataclass(frozen=True)
class Generator:
    """Weighted elliptical generator: id, center p, matrix M, weight w."""

    id: int
    p: Point
    M: SymMat2
    w: float

    def __post_init__(self):
        # ids index label images and key the diagram's maps; numpy integers
        # are stored as int
        if isinstance(self.id, bool) or not isinstance(self.id, numbers.Integral):
            raise InputError(f"generator {self.id!r}: id must be an integer")
        object.__setattr__(self, "id", int(self.id))
        # label images mark the background with -1
        if not 0 <= self.id <= _MAX_ID:
            raise InputError(f"generator {self.id}: id must be in 0..{_MAX_ID}")
        object.__setattr__(self, "p", as_point(self.p))
        if not np.all(np.isfinite(self.p)):
            raise InputError(f"generator {self.id}: center is not finite")
        if not (math.isfinite(self.M.m11) and math.isfinite(self.M.m12) and math.isfinite(self.M.m22)):
            raise InputError(f"generator {self.id}: matrix is not finite")
        if not self.M.is_positive_definite():
            raise InputError(f"generator {self.id}: matrix is not positive definite")
        if not math.isfinite(self.w):
            raise InputError(f"generator {self.id}: weight is not finite")

    def with_weight(self, w: float) -> "Generator":
        return Generator(self.id, self.p.copy(), self.M, w)


def generator_index(generators: Sequence[Generator]) -> dict[int, int]:
    """Position of each generator id; an id given twice raises InputError."""
    index: dict[int, int] = {}
    for k, g in enumerate(generators):
        if index.setdefault(g.id, k) != k:
            raise InputError(f"generators[{k}]: duplicate generator id {g.id}, first at "
                             f"generators[{index[g.id]}]")
    return index


def dist_g(x, g: Generator) -> float:
    """Generator distance (x - p)^T M (x - p) - w. May be negative."""
    d = as_point(x) - g.p
    return g.M.quadratic(d) - g.w


DistanceKind = Literal["voronoi", "laguerre", "mw"]


def special_distances(x, g: Generator, kind: DistanceKind) -> float:
    """Classical distances recovered from a generator's parameters.

    ``voronoi``  Euclidean distance ||x - p|| (M and w ignored).
    ``laguerre`` power distance ||x - p||^2 - w, reading w as a squared radius.
    ``mw``       squared multiplicatively weighted distance (||x - p|| / sigma)^2
                 with sigma read from M = (1/sigma^2) I. The textbook form is
                 the square root of this; both induce the same diagram, and the
                 squared form is the one the generator distance reproduces.
    """
    d = as_point(x) - g.p
    if kind == "voronoi":
        return float(math.hypot(d[0], d[1]))
    if kind == "laguerre":
        return float(d @ d) - g.w
    if kind == "mw":
        iso = abs(g.M.m11 - g.M.m22) <= 1e-12 * max(abs(g.M.m11), abs(g.M.m22))
        if not iso or abs(g.M.m12) > 1e-12 * abs(g.M.m11):
            raise InputError("mw distance requires an isotropic matrix (1/sigma^2) I")
        return g.M.m11 * float(d @ d)
    raise InputError(f"unknown distance kind {kind!r}")


@dataclass(frozen=True)
class EllipseGeom:
    """Axis-aligned description of a generator's elliptical contour."""

    center: Point
    theta: float  # angle of the major semi-axis, in [0, pi)
    semi_axes: tuple[float, float]  # (major, minor), major >= minor


def generator_to_ellipse(g: Generator, scaled: bool = True) -> EllipseGeom:
    """Contour ellipse of a generator.

    The matrix decomposes as M = U diag(1/a1, 1/a2) U^T; the contour at
    distance 1 is the ellipse with semi-axis lengths sqrt((1 + w) a_k) along
    the columns of U. With ``scaled=False`` the weight factor is dropped and
    the bare (p, M) ellipse with semi-axes sqrt(a_k) is returned.
    """
    factor = 1.0 + g.w if scaled else 1.0
    if factor <= 0.0:
        raise NonRenderableContour(
            f"generator {g.id}: contour undefined for weight {g.w} (needs 1 + w > 0)"
        )
    evals, evecs = g.M.eigh()
    # semi-axes are 1/sqrt(eigenvalue of M); the major axis follows the
    # eigenvector of the smaller eigenvalue
    major = math.sqrt(factor / evals[0])
    minor = math.sqrt(factor / evals[1])
    v = evecs[:, 0]
    if v[1] < 0.0 or (v[1] == 0.0 and v[0] < 0.0):
        v = -v
    theta = math.atan2(v[1], v[0]) % math.pi
    if abs(evals[1] - evals[0]) <= _CIRCLE_TIE_REL * abs(evals[1]):
        theta = 0.0
    return EllipseGeom(center=g.p.copy(), theta=theta, semi_axes=(major, minor))


def ellipse_to_matrix(e: EllipseGeom) -> SymMat2:
    """Inverse of :func:`generator_to_ellipse` for w = 0: rebuild M from axes."""
    a_major, a_minor = e.semi_axes
    c, s = math.cos(e.theta), math.sin(e.theta)
    u = np.array([[c, -s], [s, c]])
    lam = np.diag([1.0 / (a_major * a_major), 1.0 / (a_minor * a_minor)])
    return SymMat2.from_matrix(u @ lam @ u.T)


@dataclass(frozen=True)
class Window:
    """Axis-aligned clipping rectangle."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (0.0 < self.width < math.inf and 0.0 < self.height < math.inf):
            raise InputError("window must satisfy xmin < xmax and ymin < ymax at a finite size")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def area(self) -> float:
        return self.width * self.height

    def contains(self, q, margin=0.0):
        """Whether the point q (x, y) lies inside the window by ``margin``;
        for points (..., 2) and margins broadcasting to (...), a mask."""
        x, y = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
        return ((self.xmin + margin <= x) & (x <= self.xmax - margin)
                & (self.ymin + margin <= y) & (y <= self.ymax - margin))

    def corners(self) -> np.ndarray:
        """Counterclockwise corner list starting at (xmin, ymin)."""
        return np.array(
            [
                [self.xmin, self.ymin],
                [self.xmax, self.ymin],
                [self.xmax, self.ymax],
                [self.xmin, self.ymax],
            ]
        )


class SceneArrays:
    """Column view of a generator list for vectorized distance evaluation."""

    def __init__(self, generators: Sequence[Generator]):
        self.generators = list(generators)
        n = len(self.generators)
        self.ids = np.array([g.id for g in self.generators], dtype=int)
        self.coef = np.array([[g.p[0], g.p[1], g.M.m11, g.M.m12, g.M.m22, g.w]
                              for g in self.generators]).reshape(n, 6).T.copy()
        self.px, self.py, self.m11, self.m12, self.m22, self.w = self.coef
        self.n = n
        self.id_to_index = {g.id: k for k, g in enumerate(self.generators)}

    def dist(self, points, cols=None) -> np.ndarray:
        """Distances from points (N, 2) to generators.

        Returns (N, n) for every generator. ``cols`` restricts the
        generators: a 1-D index array gives (N, len(cols)) with the same
        columns for every point, a 2-D (N, c) array gives each point its own
        c generators. Every entry is the same float whichever form asks.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cols = np.arange(self.n) if cols is None else np.asarray(cols)
        if cols.ndim == 1:
            cols = cols[None, :]
        return self.lane_dist(pts[:, 0:1], pts[:, 1:2], cols)

    def lane_dist(self, x, y, cols) -> np.ndarray:
        """Distances from points (x, y) to the generators ``cols``, the three
        broadcast together: x, y (N,) and cols (c, 1) or (c, N) give (c, N),
        the point axis last. ``dist`` is this with the point axis first, so
        every entry is the same float either way."""
        px, py, m11, m12, m22, w = np.take(self.coef, cols, axis=1)
        dx = x - px
        dy = y - py
        return m11 * dx * dx + 2.0 * m12 * dx * dy + m22 * dy * dy - w

    @functools.cached_property
    def winner_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, step, winner): nodes lo + (ix, iy) step over the centers' box,
        and at each a generator of smallest distance, winner[iy, ix] (one
        ``lane_dist`` pass); the build makes it before its pool starts."""
        lo = self.coef[:2].min(axis=1)
        span = self.coef[:2].max(axis=1) - lo
        step = np.where(span > 0.0, span / (_GRID_NODES - 1), 1.0)
        gx, gy = np.meshgrid(*(lo[:, None] + np.arange(_GRID_NODES) * step[:, None]))
        d = self.lane_dist(gx.ravel(), gy.ravel(), np.arange(self.n)[:, None])
        return lo, step, d.argmin(axis=0).reshape(gx.shape)

    def screened_min(self, points, bound, skip=None):
        """Smallest distance d from each point (N, 2) to the generators, where it matters.

        A caller keeps point k only if bound[k] - d <= VERT_REL (1 + |d|), in
        either rounding (as that difference or as bound[k] <= d + VERT_REL (1
        + |d|)), with d over the generators other than the columns
        ``skip[k]`` (``skip`` (N, s), or None for all). Each point's likely
        winner, the ``winner_grid`` generator at its nearest node, is a first
        block of one column; then the generators are scanned in blocks of
        _GEN_BLOCK columns. A running minimum m >= d drops a point as soon
        as bound[k] - m > 2 VERT_REL (1 + |m|). Lowering m by some delta
        raises the left side by delta and the right side by at most VERT_REL
        delta, so such a point fails the test too; the factor 2 covers the
        rounding of both sides. ``skip`` masks the likely winner where it is
        one of the point's own columns. Returns (the indices of the points
        never dropped, their d), each d the value a full scan gives (a float
        minimum is exact in any order).

        A block is evaluated as (c, N) distances and reduced over the
        generator axis; the arrays of the points still alive are compacted
        after each block that drops some.
        """
        alive = np.arange(points.shape[0])
        x, y = np.ascontiguousarray(points.T)
        skip = None if skip is None else skip.T
        m = np.full(alive.size, np.inf)
        grid_lo, step, winner = self.winner_grid
        ix, iy = (np.fmin(np.fmax(np.rint((v - grid_lo[a]) / step[a]), 0.0), _GRID_NODES - 1)
                  .astype(np.intp) for a, v in enumerate((x, y)))
        blocks = [winner[iy, ix][None]]  # made before any compaction
        blocks += [np.arange(lo, min(lo + _GEN_BLOCK, self.n))[:, None]
                   for lo in range(0, self.n, _GEN_BLOCK)]
        for cols in blocks:
            d = self.lane_dist(x, y, cols)
            if skip is not None:
                d[(cols[:, None] == skip).any(axis=1)] = np.inf
            m = np.minimum(m, d.min(axis=0))
            keep = ~(bound - m > 2.0 * VERT_REL * (1.0 + np.abs(m)))
            if not keep.all():
                alive, x, y, bound, m = alive[keep], x[keep], y[keep], bound[keep], m[keep]
                skip = None if skip is None else skip[:, keep]
                if alive.size == 0:
                    break
        return alive, m

    def scale(self) -> float:
        """Characteristic length: diagonal of the center bounding box (>= 1)."""
        if self.n == 0:
            return 1.0
        dx = float(self.px.max() - self.px.min())
        dy = float(self.py.max() - self.py.min())
        return max(math.hypot(dx, dy), 1.0)


class PointIndex:
    """Keys by the grid cell of side 2 radius of their points: a point within
    radius of pos by a hypot test, rounding included, is in the 3 x 3 cells
    around pos's; ``near`` gives the least key among them."""

    def __init__(self, radius: float, points=()):
        self.radius = radius
        self.cells: dict[tuple[int, int], list] = {}
        for key, pos in points:
            self.add(key, pos)

    def _cell(self, pos) -> tuple[int, int]:
        return math.floor(pos[0] / (2.0 * self.radius)), math.floor(pos[1] / (2.0 * self.radius))

    def add(self, key, pos) -> None:
        self.cells.setdefault(self._cell(pos), []).append((key, pos))

    def near(self, pos):
        i, j = self._cell(pos)
        return min((key for di in (-1, 0, 1) for dj in (-1, 0, 1)
                    for key, at in self.cells.get((i + di, j + dj), ())
                    if math.hypot(*(at - pos)) <= self.radius), default=None)


SCENE_CSV_HEADER = ["id", "px", "py", "m11", "m12", "m22", "w"]


def load_scene(path) -> list[Generator]:
    """Read generators from CSV with header id,px,py,m11,m12,m22,w."""
    generators: list[Generator] = []
    seen: set[int] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty scene file") from None
        if [h.strip() for h in header] != SCENE_CSV_HEADER:
            raise InputError(
                f"{path}: line 1: expected header {','.join(SCENE_CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != 7:
                raise InputError(f"{path}: line {lineno}: expected 7 fields, got {len(row)}")
            try:
                gid = int(row[0])
                vals = [float(f) for f in row[1:]]
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from None
            if gid in seen:
                raise InputError(f"{path}: line {lineno}: duplicate generator id {gid}")
            seen.add(gid)
            try:
                generators.append(
                    Generator(
                        id=gid,
                        p=np.array(vals[0:2]),
                        M=SymMat2(vals[2], vals[3], vals[4]),
                        w=vals[5],
                    )
                )
            except InputError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from None
    return generators


def save_scene(path, generators: Iterable[Generator]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCENE_CSV_HEADER)
        for g in generators:
            fields = [g.p[0], g.p[1], g.M.m11, g.M.m12, g.M.m22, g.w]
            writer.writerow([int(g.id)] + [repr(float(v)) for v in fields])
