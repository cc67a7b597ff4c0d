"""Raster reference checks: labels, stats, file round-trip, cross validation."""

import math

import numpy as np
import pytest

from gbpd import oracle
from gbpd.clip import clip_to_window
from gbpd.diagram import build_diagram
from gbpd.errors import DimensionMismatchError
from gbpd.geometry import Generator, SymMat2, Window
from gbpd.measure import measure_cells
from gbpd.oracle import (
    LabelImage,
    compare_labels,
    rasterize,
    rasterize_cells,
    read_pgm,
    write_pgm,
)

from oracles import radical_center, raster_cell_stats, rasterize_cells_per_cell

I = SymMat2(1.0, 0.0, 1.0)


def iso(gid, x, y, w=0.0):
    return Generator(gid, np.array([x, y], float), I, w)


def aniso_scene(rng, n, lo=0.0, hi=100.0):
    gens = []
    for k in range(n):
        p = rng.uniform(lo, hi, size=2)
        if k % 2 == 1:
            a1 = rng.uniform(3.0, 10.0) ** 2
            a2 = rng.uniform(1.0, 3.0) ** 2
            m = SymMat2(1.0 / a1, 0.0, 1.0 / a2).rotated(rng.uniform(0.0, math.pi))
        else:
            m = I
        gens.append(Generator(k, p, m, rng.uniform(0.0, 5.0)))
    return gens


def test_single_generator_uniform():
    img = rasterize([iso(3, 5.0, 5.0)], Window(0.0, 0.0, 10.0, 10.0), 32, 32)
    assert (img.labels == 3).all()
    stats = raster_cell_stats(img)
    assert stats.counts == {3: 32 * 32}
    assert len(stats.junctions) == 0


def test_symmetric_halves_and_tie_column():
    img = rasterize(
        [iso(0, 1.0, 1.0), iso(1, 2.0, 1.0)], Window(0.0, 0.0, 4.0, 2.0), 4, 2
    )
    # pixel centers x = 0.5, 1.5, 2.5, 3.5; the x = 1.5 column ties -> id 0
    assert img.labels[:, :2].max() == 0
    assert img.labels[:, 2:].min() == 1
    big = rasterize(
        [iso(0, 100.0, 200.0), iso(1, 300.0, 200.0)],
        Window(0.0, 0.0, 400.0, 400.0),
        400,
        400,
    )
    counts = raster_cell_stats(big).counts
    assert counts == {0: 80000, 1: 80000}


@pytest.mark.parametrize("entries", [1, 7 * 11 * 60 + 7, 1 << 40])
def test_labels_do_not_depend_on_block_size(monkeypatch, entries):
    # one-row blocks, blocks of seven rows with a short last one, and one block;
    # the scene has exact ties: generators 0 and 1 mirror each other about the
    # pixel-center column x = 30.5, and generator 10 repeats generator 5
    rng = np.random.default_rng(11)
    gens = [iso(0, 20.5, 25.0, 400.0), iso(1, 40.5, 25.0, 400.0)] + aniso_scene(rng, 8)[2:]
    gens = [Generator(k, g.p, g.M, g.w) for k, g in enumerate(gens)]
    gens.append(Generator(10, gens[5].p.copy(), gens[5].M, gens[5].w))
    win = Window(0.0, 0.0, 60.0, 50.0)
    reference = rasterize(gens, win, 60, 50).labels
    monkeypatch.setattr(oracle, "_DIST_CHUNK", entries)
    labels = rasterize(gens, win, 60, 50).labels
    assert labels.tobytes() == reference.tobytes()
    assert 5 in labels and 10 not in labels
    tie = labels[:, 30][np.abs(np.arange(50) + 0.5 - 25.0) < 3.0]
    assert (tie == 0).all()


def test_weight_shift_leaves_labels():
    rng = np.random.default_rng(2)
    gens = aniso_scene(rng, 9)
    win = Window(0.0, 0.0, 100.0, 100.0)
    a = rasterize(gens, win, 200, 200)
    shifted = [Generator(g.id, g.p, g.M, g.w + 17.0) for g in gens]
    b = rasterize(shifted, win, 200, 200)
    assert (a.labels == b.labels).all()


def test_resolution_refinement_counts():
    rng = np.random.default_rng(8)
    gens = aniso_scene(rng, 6)
    win = Window(0.0, 0.0, 100.0, 100.0)
    lo = rasterize(gens, win, 200, 200)
    hi = rasterize(gens, win, 400, 400)
    cd = clip_to_window(build_diagram(gens), win)
    perims = {gid: cm.perimeter for gid, cm in measure_cells(cd).items()}
    c_lo = raster_cell_stats(lo).counts
    c_hi = raster_cell_stats(hi).counts
    for gid, n_lo in c_lo.items():
        n_hi = c_hi.get(gid, 0)
        # boundary band scales with perimeter in pixels
        band = perims[gid] / hi.pixel_size + 16.0
        assert abs(n_hi - 4.0 * n_lo) <= 6.0 * band


def test_junctions_cluster_at_circumcenter():
    gens = [iso(0, 30.0, 30.0), iso(1, 70.0, 30.0), iso(2, 50.0, 64.64101615137755)]
    win = Window(0.0, 0.0, 100.0, 100.0)
    img = rasterize(gens, win, 500, 500)
    stats = raster_cell_stats(img)
    assert len(stats.junctions) >= 1
    # circumcenter of the equilateral-ish triangle
    cc = radical_center(gens[0].p, 0.0, gens[1].p, 0.0, gens[2].p, 0.0)
    d = np.hypot(stats.junctions[:, 0] - cc[0], stats.junctions[:, 1] - cc[1])
    assert (d <= 1.5 * img.pixel_size).all()


def test_compare_labels_counts_and_errors():
    rng = np.random.default_rng(3)
    gens = aniso_scene(rng, 5)
    win = Window(0.0, 0.0, 100.0, 100.0)
    a = rasterize(gens, win, 120, 120)
    same = compare_labels(a, a)
    assert same.mismatched == 0 and same.fraction == 0.0
    b = LabelImage(a.width, a.height, a.origin, a.pixel_size, a.labels.copy(), a.ids)
    flat = b.labels.ravel()
    flat[[5, 77, 300, 301, 302, 9000, 14000]] ^= 1
    st = compare_labels(a, b)
    assert st.mismatched == 7
    with pytest.raises(DimensionMismatchError):
        compare_labels(a, rasterize(gens, win, 60, 60))


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    gens = aniso_scene(rng, 5)
    img = rasterize(gens, Window(-3.0, 2.0, 17.0, 22.0), 40, 40)
    img.labels[0, :3] = -1  # background pixels survive the trip
    path = tmp_path / "labels.pgm"
    write_pgm(img, str(path))
    back = read_pgm(str(path))
    assert back.width == img.width and back.height == img.height
    assert back.ids == img.ids
    assert np.allclose(back.origin, img.origin)
    assert back.pixel_size == img.pixel_size
    assert (back.labels == img.labels).all()
    head = path.read_text().splitlines()
    assert head[0] == "P2"
    assert head[2] == "40 40" and head[3] == "5"


def test_analytic_raster_matches_brute_force_laguerre():
    rng = np.random.default_rng(14)
    gens = [
        Generator(k, rng.uniform(15.0, 85.0, size=2), I, rng.uniform(0.0, 10.0))
        for k in range(7)
    ]
    win = Window(0.0, 0.0, 100.0, 100.0)
    brute = rasterize(gens, win, 300, 300)
    analytic = rasterize_cells(clip_to_window(build_diagram(gens), win), 300, 300)
    st = compare_labels(analytic, brute)
    assert st.fraction <= 0.01
    assert st.near_edge_fraction == 1.0


def test_analytic_raster_matches_brute_force_aniso():
    rng = np.random.default_rng(15)
    gens = aniso_scene(rng, 10)
    win = Window(0.0, 0.0, 100.0, 100.0)
    brute = rasterize(gens, win, 400, 400)
    analytic = rasterize_cells(clip_to_window(build_diagram(gens), win), 400, 400)
    st = compare_labels(analytic, brute)
    assert st.fraction <= 0.01
    assert st.near_edge_fraction >= 0.99
    # pixel counts agree with analytic areas for big cells
    counts = raster_cell_stats(brute).counts
    px_area = brute.pixel_size ** 2
    cd = clip_to_window(build_diagram(gens), win)
    for gid, cm in measure_cells(cd).items():
        n_px = counts.get(gid, 0)
        if n_px >= 10000:
            assert abs(cm.area - n_px * px_area) <= 0.005 * cm.area


def _raster_case(name):
    if name == "lattice":
        # 4x4 unit lattice at 0.5 px: every vertex and edge runs through pixel centers
        gens = [iso(4 * i + j, float(i), float(j)) for i in range(4) for j in range(4)]
        return gens, Window(-0.25, -0.25, 3.75, 3.75), 8
    seed, shift = {"aniso-3": (3, 0.0), "aniso-17": (17, 0.0), "aniso-29": (29, 0.0),
                   "aniso-29-shifted": (29, 1e5)}[name]
    gens = [Generator(g.id, g.p + [shift, -shift], g.M, g.w)
            for g in aniso_scene(np.random.default_rng(seed), 10)]
    return gens, Window(shift, -shift, shift + 100.0, 100.0 - shift), 400


@pytest.mark.parametrize("name", ["lattice", "aniso-3", "aniso-17", "aniso-29",
                                  "aniso-29-shifted"])
def test_scanline_raster_matches_per_cell_fill(name):
    # seeds 3, 17 and 29 have cells with hole loops
    gens, win, res = _raster_case(name)
    cd = clip_to_window(build_diagram(gens), win)
    got = rasterize_cells(cd, res, res)
    counts = {}
    ref = rasterize_cells_per_cell(cd, res, res, counts)
    assert got.ids == ref.ids and got.pixel_size == ref.pixel_size
    assert np.array_equal(got.origin, ref.origin)
    assert got.labels.dtype == ref.labels.dtype
    assert np.array_equal(got.labels, ref.labels)
    assert (got.labels >= 0).all()
    assert counts == {"contested": 0, "repaired": 0}
