"""Brute-force raster reference and label-image utilities.

The rasterizer assigns every pixel center to the generator with the
smallest distance value, ties to the smallest id. It is deliberately
independent of the analytic pipeline so the two can be compared:
rasterize_cells() paints the same picture from the clipped analytic
boundaries instead, in one scanline pass over the flattened clip pieces,
whose left and right cells say which cell lies past each crossing; and
compare_labels() reports where the two disagree and how far the
disagreements sit from the analytic edges.

Label images use mathematical row order: row iy holds the pixels at
y = origin_y + (iy + 0.5) * pixel_size, so row 0 is the bottom of the
window. PGM files store rows in that same order for exact round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .clip import ClippedDiagram, flatten_pieces
from .errors import DimensionMismatchError, InputError, NoSolutionError
from .geometry import SceneArrays, Window

# distance entries (pixels x generators) per block of rasterize
_DIST_CHUNK = 1 << 19
# pixels per block of rasterize_cells' event image
_FILL_CHUNK = 1 << 18


@dataclass
class LabelImage:
    """Integer label per pixel; -1 marks background (no label)."""

    width: int
    height: int
    origin: np.ndarray
    pixel_size: float
    labels: np.ndarray  # (height, width) int32, row 0 at the window bottom
    ids: tuple[int, ...]

    def pixel_centers_x(self) -> np.ndarray:
        return self.origin[0] + (np.arange(self.width) + 0.5) * self.pixel_size

    def pixel_centers_y(self) -> np.ndarray:
        return self.origin[1] + (np.arange(self.height) + 0.5) * self.pixel_size


def _image_frame(window: Window, width: int, height: int) -> tuple[np.ndarray, float]:
    if width < 1 or height < 1:
        raise InputError("raster dimensions must be at least 1x1")
    px = window.width / width
    py = window.height / height
    if abs(px - py) > 1e-9 * max(px, py):
        raise InputError(
            f"non-square pixels: {px:.6g} x {py:.6g}; "
            "choose width/height matching the window aspect"
        )
    return np.array([window.xmin, window.ymin]), px


def rasterize(generators, window: Window, width: int, height: int) -> LabelImage:
    """Distance-argmin label image at pixel centers; ties to smallest id."""
    origin, px = _image_frame(window, width, height)
    gens = sorted(generators, key=lambda g: g.id)
    if not gens:
        raise NoSolutionError("a scene needs at least one generator")
    arr = SceneArrays(gens)
    ids = arr.ids.astype(np.int32)
    xs = origin[0] + (np.arange(width) + 0.5) * px
    ys = origin[1] + (np.arange(height) + 0.5) * px
    labels = np.empty((height, width), dtype=np.int32)
    rows_per_chunk = max(1, _DIST_CHUNK // (max(1, arr.n) * width))
    for y0 in range(0, height, rows_per_chunk):
        y1 = min(height, y0 + rows_per_chunk)
        gx, gy = np.meshgrid(xs, ys[y0:y1], indexing="xy")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        d = arr.dist(pts)
        # argmin returns the first minimum; generators are sorted by id,
        # so exact ties go to the smallest id
        labels[y0:y1] = ids[np.argmin(d, axis=1)].reshape(y1 - y0, width)
    return LabelImage(width, height, origin, px, labels, tuple(int(i) for i in ids))


# ------------------------------------------------- analytic rasterization


def rasterize_cells(cd: ClippedDiagram, width: int, height: int) -> LabelImage:
    """Label image painted from the analytic cell boundaries in one scanline pass.

    Every piece is flattened once, to pixel_size / 20, and cut into
    segments. A segment crosses the pixel rows whose center y satisfies
    min(ya, yb) <= y < max(ya, yb), and the cell east of it (on its +x
    side) is the piece's right cell where it runs upward, its left cell
    otherwise. A pixel takes the east cell of the last crossing of its row
    strictly left of its center. The left window border crosses every row
    at x = xmin with the window's cell to its east, so every pixel gets a
    label; -1 would mark a pixel with no crossing to its left.

    The crossings are sorted by row, then x. Each one marks the first pixel
    center strictly right of it; the last crossing to mark a pixel writes
    its rank there in an event image, and a running maximum along each row
    carries the latest rank to every pixel until the next mark. The event
    image is filled in blocks of rows, at most _FILL_CHUNK pixels each, so
    the memory it adds stays bounded at any raster size.
    """
    origin, px = _image_frame(cd.window, width, height)
    ids = tuple(sorted(g.id for g in cd.graph.generators))
    xs = origin[0] + (np.arange(width) + 0.5) * px
    ys = origin[1] + (np.arange(height) + 0.5) * px
    lines = flatten_pieces(cd.graph, cd.pieces, px / 20.0)
    a = np.concatenate([ln[:-1] for ln in lines])
    b = np.concatenate([ln[1:] for ln in lines])
    # (left, right) cells of each segment's piece; no cell lies right of the border
    sides = np.repeat([(p.left, -1 if p.right is None else p.right) for p in cd.pieces],
                      [len(ln) - 1 for ln in lines], axis=0)
    east = np.where(b[:, 1] > a[:, 1], sides[:, 1], sides[:, 0])
    # segment k crosses the rows r0[k] <= iy < r1[k]: one crossing per (segment, row)
    r0 = np.searchsorted(ys, np.minimum(a[:, 1], b[:, 1]))
    r1 = np.searchsorted(ys, np.maximum(a[:, 1], b[:, 1]))
    seg = np.repeat(np.arange(len(a)), r1 - r0)
    row = np.arange(seg.size) - np.repeat(np.cumsum(r1 - r0) - r1, r1 - r0)
    y, sa, sb = ys[row], a[seg], b[seg]
    xc = sa[:, 0] + (y - sa[:, 1]) * (sb[:, 0] - sa[:, 0]) / (sb[:, 1] - sa[:, 1])
    order = np.lexsort((xc, row))
    xc, row = xc[order], row[order]
    # rank k + 1 names crossing k in sorted order, 0 no crossing
    lookup = np.concatenate([[-1], east[seg[order]]]).astype(np.int32)
    # the first pixel center strictly right of each crossing; of the crossings
    # that mark one pixel, the last in sorted order marks it
    col = np.searchsorted(xs, xc, side="right")
    mark = np.append((row[1:] != row[:-1]) | (col[1:] != col[:-1]), True) & (col < width)
    rank = np.flatnonzero(mark)
    row, col = row[rank], col[rank]
    labels = np.empty((height, width), dtype=np.int32)
    step = max(1, _FILL_CHUNK // width)
    starts = np.arange(0, height, step)
    bounds = np.searchsorted(row, np.append(starts, height))
    for y0, k0, k1 in zip(starts.tolist(), bounds[:-1], bounds[1:]):
        event = np.zeros((min(step, height - y0), width), dtype=np.int32)
        event[row[k0:k1] - y0, col[k0:k1]] = rank[k0:k1] + 1
        np.maximum.accumulate(event, axis=1, out=event)
        labels[y0:y0 + step] = lookup[event]
    return LabelImage(width, height, origin, px, labels, ids)


# ----------------------------------------------------------- comparisons


@dataclass(frozen=True)
class MismatchStats:
    pixels: int
    mismatched: int
    fraction: float
    near_edge_mismatched: int
    near_edge_fraction: float
    distance_hist: tuple[int, ...]


def label_edges(img: LabelImage) -> np.ndarray:
    """Boolean mask of pixels that touch a different label (4-neighborhood)."""
    lab = img.labels
    edge = np.zeros_like(lab, dtype=bool)
    edge[:, :-1] |= lab[:, :-1] != lab[:, 1:]
    edge[:, 1:] |= lab[:, :-1] != lab[:, 1:]
    edge[:-1, :] |= lab[:-1, :] != lab[1:, :]
    edge[1:, :] |= lab[:-1, :] != lab[1:, :]
    return edge


def compare_labels(a: LabelImage, b: LabelImage) -> MismatchStats:
    """Mismatch statistics of b against a; edge distances measured in a."""
    if (a.width, a.height) != (b.width, b.height):
        raise DimensionMismatchError(
            f"label images differ in size: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    diff = a.labels != b.labels
    count = int(diff.sum())
    total = a.width * a.height
    if count == 0:
        return MismatchStats(total, 0, 0.0, 0, 1.0, ())
    dist = ndimage.distance_transform_edt(~label_edges(a))
    dmis = dist[diff]
    near = int((dmis <= 1.5).sum())
    hist = np.bincount(np.floor(dmis).astype(int))
    return MismatchStats(
        total,
        count,
        count / total,
        near,
        near / count,
        tuple(int(v) for v in hist),
    )


# ------------------------------------------------------------------- PGM


def write_pgm(img: LabelImage, path: str) -> None:
    """ASCII PGM (P2): values are indices into the sorted id list, background n."""
    n = len(img.ids)
    top = max([int(img.labels.max()), *img.ids, 0])
    remap = np.full(top + 2, n, dtype=np.int32)
    for k, gid in enumerate(img.ids):
        if gid >= 0:
            remap[gid] = k
    vals = np.where(img.labels < 0, n, remap[np.maximum(img.labels, 0)])
    with open(path, "w") as fh:
        fh.write("P2\n")
        fh.write(
            "# gbpd origin %.17g %.17g pixel %.17g ids %s\n"
            % (
                img.origin[0],
                img.origin[1],
                img.pixel_size,
                ",".join(str(i) for i in img.ids),
            )
        )
        fh.write(f"{img.width} {img.height}\n{n}\n")
        for row in vals:
            fh.write(" ".join(str(int(v)) for v in row))
            fh.write("\n")


def read_pgm(path: str) -> LabelImage:
    """Label image of a P2 file as ``write_pgm`` writes it; a malformed one raises InputError."""
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != "P2":
            raise InputError(f"{path}: not an ASCII PGM (P2) file")
        origin = np.zeros(2)
        pixel = 1.0
        ids: tuple[int, ...] = ()
        try:
            line = fh.readline()
            while line.startswith("#"):
                parts = line[1:].split()
                if parts[:1] == ["gbpd"]:
                    origin = np.array([float(parts[2]), float(parts[3])])
                    pixel = float(parts[5])
                    ids = tuple(int(s) for s in parts[7].split(","))
                line = fh.readline()
            width, height = (int(s) for s in line.split())
            maxval = int(fh.readline())
            data = np.array(fh.read().split(), dtype=np.int32).reshape(height, width)
        except (ValueError, IndexError, OverflowError) as exc:
            raise InputError(f"{path}: malformed P2 file: {exc}") from None
    if width <= 0 or height <= 0 or (data < 0).any() or (data > maxval).any():
        raise InputError(f"{path}: malformed P2 file: sizes must be positive, pixels 0 to maxval")
    if ids and len(ids) != maxval:
        raise InputError(f"{path}: malformed P2 file: {len(ids)} ids for maxval {maxval}")
    ids = ids or tuple(range(maxval))
    labels = np.array(list(ids) + [-1], dtype=np.int32)[data]
    return LabelImage(width, height, origin, pixel, labels, ids)
