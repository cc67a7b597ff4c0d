"""Acceptance suite: nine end-to-end criteria with fixed seeds.

Every test prints one summary line with the measured quantities next to
their thresholds, so `pytest tests/test_acceptance.py -s` reads as a
checklist. Each criterion pits the analytic engine against an independent
oracle (brute-force rasters, marching grids, closed forms) rather than
against its own internals.
"""

import math
import time

import numpy as np
import pytest

from gbpd.bisector import bisector_table, make_bisector, sample_points
from gbpd.cli import random_scene
from gbpd.clip import clip_to_window
from gbpd.conic import CLASSES, ConicClass
from gbpd.diagram import build_diagram
from gbpd.errors import OverlappingConicsError
from gbpd.geometry import Generator, SceneArrays, SymMat2, Window, dist_g
from gbpd.intersect import conic_conic_intersections, is_gbpd_vertex
from gbpd.measure import cell_area, measure_cells
from gbpd.oracle import compare_labels, raster_cell_stats, rasterize, rasterize_cells
from gbpd.serialize import diagram_to_json

from oracles import edge_bisector, grid_conic_intersections, radical_center

WIN400 = Window(0.0, 0.0, 400.0, 400.0)


def iso(gid, x, y, m=1.0, w=0.0):
    return Generator(gid, np.array([x, y], dtype=float), SymMat2.isotropic(m), w)


@pytest.fixture(scope="module")
def dense_scene():
    return random_scene("paper-random", 148, 42, WIN400)


@pytest.fixture(scope="module")
def dense_build(dense_scene):
    t0 = time.perf_counter()
    graph = build_diagram(dense_scene, threads=1)
    return graph, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dense_clip(dense_build):
    graph, _ = dense_build
    return clip_to_window(graph, WIN400)


@pytest.fixture(scope="module")
def dense_measures(dense_clip):
    return measure_cells(dense_clip)


# ----------------------------------------------------------- criterion 1


def test_oracle_equivalence_dense_scene(dense_scene, dense_build, dense_clip):
    """148 generators: analytic raster vs brute-force labeling at 400x400."""
    graph, elapsed = dense_build
    analytic = rasterize_cells(dense_clip, 400, 400)
    brute = rasterize(dense_scene, WIN400, 400, 400)
    stats = compare_labels(analytic, brute)
    assert stats.fraction <= 0.01
    assert stats.near_edge_fraction >= 0.99
    assert elapsed <= 60.0
    print(
        f"[criterion 1] PASS  mismatch {stats.fraction:.5f} (<= 0.01), "
        f"near-edge {stats.near_edge_fraction:.5f} (>= 0.99), "
        f"build {elapsed:.1f}s (<= 60s), {len(graph.vertices)} vertices"
    )


# ----------------------------------------------------------- criterion 2


def _pair_for_seed(seed):
    """Two generators; every seventh pair shares a matrix, every eleventh is
    isotropic, so the degenerate line classes get exercised too."""
    rng = np.random.default_rng(seed)
    gens = []
    for i in range(2):
        px, py = rng.uniform(0.0, 100.0, 2)
        theta = rng.uniform(0.0, math.pi)
        major = rng.uniform(10.0, 20.0)
        minor = min(max(rng.uniform(0.5, 10.0), 0.5), major)
        m = SymMat2(1.0 / major**2, 0.0, 1.0 / minor**2).rotated(theta)
        w = rng.uniform(0.0, 50.0)
        gens.append(Generator(i, np.array([px, py]), m, w))
    if seed % 11 == 0:
        gens = [iso(g.id, g.p[0], g.p[1], m=1.0, w=g.w) for g in gens]
    elif seed % 7 == 0:
        gens[1] = Generator(1, gens[1].p, gens[0].M, gens[1].w)
    return gens


def test_bisector_residuals():
    """1000 random pairs, 64 sampled points each: implicit value and the
    two generator distances must agree to 1e-8 (scaled)."""
    worst_imp = 0.0
    worst_gap = 0.0
    n_points = 0
    for seed in range(1, 1001):
        g0, g1 = _pair_for_seed(seed)
        b = make_bisector(g0, g1)
        for q in sample_points(b, 64, line_span=100.0):
            x, y = float(q[0]), float(q[1])
            imp = abs(b.implicit.evaluate(x, y)) / b.implicit.residual_scale(x, y)
            d0 = dist_g(q, g0)
            d1 = dist_g(q, g1)
            gap = abs(d0 - d1) / (1.0 + max(abs(d0), abs(d1)))
            worst_imp = max(worst_imp, imp)
            worst_gap = max(worst_gap, gap)
            n_points += 1
    assert n_points >= 60000
    assert worst_imp <= 1e-8
    assert worst_gap <= 1e-8
    print(
        f"[criterion 2] PASS  {n_points} points on 1000 bisectors, "
        f"worst implicit residual {worst_imp:.2e} (<= 1e-08 scaled), "
        f"worst distance gap {worst_gap:.2e} (<= 1e-08 scaled)"
    )


# ----------------------------------------------------------- criterion 3


def _resolvable(v, img, ids):
    """True iff each listed generator owns a pixel center within 1.5 px of v.

    A vertex whose third cell pinches down to a sub-pixel wedge has no
    raster junction to match; requiring local pixel ownership keeps the
    comparison to vertices the grid can actually represent.
    """
    col = (v[0] - img.origin[0]) / img.pixel_size - 0.5
    row = (v[1] - img.origin[1]) / img.pixel_size - 0.5
    r0 = max(int(math.floor(row)) - 2, 0)
    r1 = min(int(math.ceil(row)) + 3, img.height)
    c0 = max(int(math.floor(col)) - 2, 0)
    c1 = min(int(math.ceil(col)) + 3, img.width)
    owned = set()
    for r in range(r0, r1):
        for c in range(c0, c1):
            if math.hypot(r - row, c - col) <= 1.5:
                owned.add(int(img.labels[r, c]))
    return ids <= owned


def test_vertex_suite():
    """100 scenes of 20 generators: equidistance, global minimality, and
    agreement with raster junctions at 1000x1000."""
    worst_eq = 0.0
    n_vert = 0
    inside = 0
    resolvable = 0
    worst_junc = 0.0
    for k in range(100):
        gens = random_scene("paper-random", 20, 1000 + k, WIN400)
        graph = build_diagram(gens)
        arr = SceneArrays(gens)
        img = rasterize(gens, WIN400, 1000, 1000)
        junctions = raster_cell_stats(img).junctions
        for v in graph.vertices:
            ids = sorted(v.gens)
            d = arr.dist(v.pos[None, :])[0][ids]
            scale = 1.0 + float(np.abs(d).max())
            worst_eq = max(worst_eq, float(d.max() - d.min()) / scale)
            assert is_gbpd_vertex(v.pos, ids, arr)
            n_vert += 1
            x, y = float(v.pos[0]), float(v.pos[1])
            if not (0.0 <= x <= 400.0 and 0.0 <= y <= 400.0):
                continue
            inside += 1
            if not _resolvable((x, y), img, set(ids)):
                continue
            resolvable += 1
            gap = np.hypot(junctions[:, 0] - x, junctions[:, 1] - y).min()
            worst_junc = max(worst_junc, float(gap) / img.pixel_size)
    assert worst_eq <= 1e-8
    assert worst_junc <= 1.5
    coverage = resolvable / inside
    assert coverage >= 0.85
    print(
        f"[criterion 3] PASS  {n_vert} vertices, equidistance {worst_eq:.2e} "
        f"(<= 1e-08 scaled), all globally minimal, junction match "
        f"{worst_junc:.2f}px (<= 1.5px) on {resolvable}/{inside} "
        f"raster-resolvable ({coverage:.0%}, >= 85%)"
    )


# ----------------------------------------------------------- criterion 4


def test_laguerre_degeneration():
    """100 isotropic scenes: line bisectors only, vertices on the closed-form
    radical centers.

    Near-collinear triples sit at the float64 conditioning floor: the
    closed form itself moves by ~5e-12/sine under one-ulp input changes,
    so the absolute 1e-9 bound applies to triples whose radical axes meet
    at sine >= 0.01 and the conditioning-scaled product bounds the rest.
    """
    worst_dev = 0.0
    worst_scaled = 0.0
    n_well = 0
    n_ill = 0
    for k in range(100):
        rng = np.random.default_rng(4000 + k)
        gens = []
        for i in range(20):
            px, py = rng.uniform(0.0, 400.0, 2)
            w = rng.uniform(0.0, 50.0)
            gens.append(Generator(i, np.array([px, py]), SymMat2(1.0, 0.0, 1.0), w))
        graph = build_diagram(gens)
        # every pair's class code, and the bisector of every edge
        table = bisector_table(gens)
        assert table.code.size == 190
        assert all(CLASSES[c] is ConicClass.SINGLE_LINE for c in table.code.tolist())
        assert all(edge_bisector(graph, e.id).conic_class is ConicClass.SINGLE_LINE
                   for e in graph.edges)
        by_id = {g.id: g for g in gens}
        for v in graph.vertices:
            ga, gb, gc = (by_id[i] for i in sorted(v.gens)[:3])
            rc = radical_center(ga.p, ga.w, gb.p, gb.w, gc.p, gc.w)
            n1 = gb.p - ga.p
            n2 = gc.p - ga.p
            sine = abs(n1[0] * n2[1] - n1[1] * n2[0]) / (
                math.hypot(*n1) * math.hypot(*n2)
            )
            if rc is None:
                n_ill += 1
                continue
            dev = float(np.hypot(*(v.pos - rc)))
            if sine >= 0.01:
                worst_dev = max(worst_dev, dev)
                n_well += 1
            else:
                worst_scaled = max(worst_scaled, dev * sine)
                n_ill += 1
    assert worst_dev <= 1e-9
    assert worst_scaled <= 1e-9
    coverage = n_well / (n_well + n_ill)
    assert coverage >= 0.95
    print(
        f"[criterion 4] PASS  all bisectors single lines, {n_well + n_ill} "
        f"vertices vs radical centers: worst {worst_dev:.2e} (<= 1e-09), "
        f"{n_ill} near-collinear triples bounded by dev*sine "
        f"{worst_scaled:.2e} (<= 1e-09), coverage {coverage:.1%} (>= 95%)"
    )


# ----------------------------------------------------------- criterion 5


def test_weight_shift_invariance():
    """Adding 17 to every weight must not move vertices, adjacency, or any
    raster label."""
    gens = random_scene("paper-random", 24, 5, WIN400)
    shifted = [g.with_weight(g.w + 17.0) for g in gens]
    g1 = build_diagram(gens)
    g2 = build_diagram(shifted)
    assert len(g1.vertices) == len(g2.vertices)
    v1 = sorted((float(v.pos[0]), float(v.pos[1])) for v in g1.vertices)
    v2 = sorted((float(v.pos[0]), float(v.pos[1])) for v in g2.vertices)
    worst = max(math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in zip(v1, v2))
    assert worst <= 1e-9
    assert g1.adjacency == g2.adjacency
    r1 = rasterize(gens, WIN400, 400, 400)
    r2 = rasterize(shifted, WIN400, 400, 400)
    assert np.array_equal(r1.labels, r2.labels)
    print(
        f"[criterion 5] PASS  w += 17 on 24 generators: {len(v1)} vertices "
        f"moved {worst:.2e} (<= 1e-09), adjacency identical, "
        f"400x400 labels exactly equal"
    )


# ----------------------------------------------------------- criterion 6


def test_measure_suite(dense_scene, dense_clip, dense_measures):
    """Closed-form disk, window partition of areas, and raster pixel counts."""
    # concentric pair: generator 0 owns exactly the unit disk
    disk = build_diagram([iso(0, 0.0, 0.0, m=2.0, w=1.0), iso(1, 0.0, 0.0)])
    m0 = cell_area(0, disk)
    err_a = abs(m0.area - math.pi)
    err_p = abs(m0.perimeter - 2.0 * math.pi)
    assert err_a <= 1e-9
    assert err_p <= 1e-9

    # clipped cell areas must partition each window
    worst_sum = 0.0
    scenes = [(dense_scene, dense_measures)]
    for seed in (2000, 2001, 2002, 2003):
        sc = random_scene("paper-random", 16, seed, WIN400)
        scenes.append((sc, measure_cells(clip_to_window(build_diagram(sc), WIN400))))
    for sc, measures in scenes:
        total = sum(m.area for m in measures.values())
        worst_sum = max(worst_sum, abs(total - WIN400.area()) / WIN400.area())
    assert worst_sum <= 1e-6

    # analytic areas vs brute pixel counts at 2000x2000 on the dense scene
    img = rasterize(dense_scene, WIN400, 2000, 2000)
    px_area = img.pixel_size**2
    counts = raster_cell_stats(img).counts
    n_big = 0
    worst_px = 0.0
    for cid, count in counts.items():
        if count < 10_000:
            continue
        n_big += 1
        rel = abs(count * px_area - dense_measures[cid].area) / dense_measures[cid].area
        worst_px = max(worst_px, rel)
    assert n_big >= 50
    assert worst_px <= 0.005
    print(
        f"[criterion 6] PASS  disk area err {err_a:.2e}, perimeter err "
        f"{err_p:.2e} (<= 1e-09), window partition err {worst_sum:.2e} "
        f"(<= 1e-06 rel, 5 scenes), pixel-count err {worst_px:.4f} "
        f"(<= 0.005, {n_big} cells >= 10k px)"
    )


# ----------------------------------------------------------- criterion 7


def test_phenomenology_scenes():
    """Constructed scenes must surface empty, one-neighbor, lens, and
    disconnected cells through the graph's own reporting."""
    # two empty cells: one pushed out by w = -100, one concentric inside a
    # host with a steeper matrix (their bisector degenerates to a point)
    gens = list(random_scene("paper-random", 16, 7, WIN400))
    g10 = gens[10]
    gens[10] = Generator(g10.id, g10.p, g10.M, -100.0)
    host = gens[3]
    inner = SymMat2(4.0 * host.M.m11, 4.0 * host.M.m12, 4.0 * host.M.m22)
    gens.append(Generator(16, host.p.copy(), inner, host.w))
    graph = build_diagram(gens)
    assert graph.empty_cells == frozenset({10, 16})

    # concentric pair: the inner disk cell touches exactly one neighbor
    one = build_diagram(
        [iso(0, 0.0, 0.0, m=2.0, w=1.0), iso(1, 0.0, 0.0), iso(2, 10.0, 0.0), iso(3, -10.0, 7.0)]
    )
    assert one.neighbors(0) == {1}

    # a tight generator between two equal rivals: lens cell, two vertices
    lens = build_diagram([iso(0, 0.0, 0.0, m=4.0), iso(1, -5.0, 0.0), iso(2, 5.0, 0.0)])
    assert lens.neighbors(0) == {1, 2}
    assert len(lens.vertices) == 2
    assert all(v.gens == frozenset({0, 1, 2}) for v in lens.vertices)

    # an elongated generator pinched shut in the middle: two components
    strip = [
        Generator(0, np.array([0.0, 0.0]), SymMat2(0.02, 0.0, 1.0), 0.0),
        iso(1, 0.0, 2.0, w=6.0),
        iso(2, 0.0, -2.0, w=6.0),
    ]
    cd = clip_to_window(build_diagram(strip), Window(-16.0, -8.0, 16.0, 8.0))
    parts = measure_cells(cd)
    assert len(parts[0].components) == 2
    assert len(parts[1].components) == 1
    print(
        "[criterion 7] PASS  empty cells {10, 16} flagged, one-neighbor "
        "cell reported, lens cell has 2 vertices and 2 neighbors, pinched "
        "cell splits into 2 components"
    )


# ----------------------------------------------------------- criterion 8


def test_conic_intersection_oracle():
    """100 random bisector pairs vs a marching-grid sign-change oracle."""
    box = (-50.0, -50.0, 150.0, 150.0)
    win = Window(0.0, 0.0, 100.0, 100.0)
    worst = 0.0
    n_pts = 0
    max_count = 0
    for k in range(100):
        gens = random_scene("paper-random", 4, 3000 + k, win)
        b1 = make_bisector(gens[0], gens[1])
        b2 = make_bisector(gens[2], gens[3])
        try:
            ana = conic_conic_intersections(
                b1.implicit, b2.implicit, length_scale=100.0, center=(50.0, 50.0)
            )
        except OverlappingConicsError:
            continue
        assert len(ana) <= 4
        max_count = max(max_count, len(ana))
        grid = grid_conic_intersections(b1.implicit, b2.implicit, box)
        # compare inside the grid's reach; a 1-unit margin keeps points the
        # grid cannot bracket off the books
        for p in ana:
            if not (-49.0 < p[0] < 149.0 and -49.0 < p[1] < 149.0):
                continue
            gap = min(float(np.hypot(*(p - q))) for q in grid)
            worst = max(worst, gap)
            n_pts += 1
        for q in grid:
            gap = min(
                (float(np.hypot(*(q - p))) for p in ana), default=math.inf
            )
            worst = max(worst, gap)
    assert n_pts >= 100
    assert worst <= 1e-6
    print(
        f"[criterion 8] PASS  {n_pts} intersections over 100 pairs, worst "
        f"oracle gap {worst:.2e} (<= 1e-06), max count {max_count} (<= 4)"
    )


# ----------------------------------------------------------- criterion 9


def test_thread_determinism(dense_scene, dense_build, dense_clip, dense_measures):
    """Single-threaded and 4-thread builds must be byte-identical."""
    g1, _ = dense_build
    g4 = build_diagram(dense_scene, threads=4)
    j1 = diagram_to_json(g1)
    j4 = diagram_to_json(g4)
    assert j1 == j4
    cd4 = clip_to_window(g4, WIN400)
    r1 = rasterize_cells(dense_clip, 400, 400)
    r4 = rasterize_cells(cd4, 400, 400)
    assert np.array_equal(r1.labels, r4.labels)
    m4 = measure_cells(cd4)
    assert dense_measures.keys() == m4.keys()
    for cid, m in dense_measures.items():
        assert m.area == m4[cid].area
        assert m.perimeter == m4[cid].perimeter
        assert len(m.components) == len(m4[cid].components)
    print(
        f"[criterion 9] PASS  threads 1 vs 4: {len(j1)}-byte diagrams "
        f"identical, 400x400 rasters identical, all {len(m4)} cell "
        f"measures bit-equal"
    )
