"""SVG rendering checks: structure, determinism, geometric fidelity."""

import math
import re

import numpy as np

from gbpd.clip import clip_to_window
from gbpd.diagram import build_diagram
from gbpd.geometry import Generator, SymMat2, Window, dist_g
from gbpd.render import render_svg

WIN = Window(0.0, 0.0, 100.0, 100.0)


def scene(seed=5, n=10):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        a1 = rng.uniform(4.0, 8.0) ** 2
        a2 = rng.uniform(1.5, 4.0) ** 2
        m = SymMat2(1.0 / a1, 0.0, 1.0 / a2).rotated(rng.uniform(0.0, math.pi))
        out.append(Generator(k, rng.uniform(10.0, 90.0, 2), m, float(rng.uniform(0.0, 8.0))))
    return out


def test_svg_structure_and_determinism():
    cd = clip_to_window(build_diagram(scene()), WIN)
    svg = render_svg(cd, 500, vertex_markers=True)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == (cd.pieces["edge"] >= 0).sum()
    assert svg.count("<ellipse") == len(cd.graph.generators)
    assert svg == render_svg(cd, 500, vertex_markers=True)


def test_all_coordinates_inside_viewport():
    cd = clip_to_window(build_diagram(scene(seed=9)), WIN)
    svg = render_svg(cd, 640)
    height = int(re.search(r'height="(\d+)"', svg).group(1))
    slack = 0.51  # half a px of snap slop on clipped endpoints
    for pts in re.findall(r'points="([^"]+)"', svg):
        for pair in pts.split():
            x, y = map(float, pair.split(","))
            assert -slack <= x <= 640 + slack
            assert -slack <= y <= height + slack


def test_polyline_points_lie_on_bisectors():
    # every flattened vertex must sit on the conic it renders: equal distance
    # to the owning pair in world coordinates
    gens = scene(seed=2, n=8)
    cd = clip_to_window(build_diagram(gens), WIN)
    by_id = {g.id: g for g in gens}
    width = 800
    s = width / WIN.width
    svg = render_svg(cd, width, ellipses=False)
    drawn = re.findall(r'points="([^"]+)"', svg)
    edges = cd.pieces["edge"][cd.pieces["edge"] >= 0].tolist()
    assert len(drawn) == len(edges)
    checked = 0
    for edge, pts in zip(edges, drawn):
        gi, gj = (by_id[gid] for gid in cd.graph.edges["pair"][edge].tolist())
        for pair in pts.split():
            xs, ys = map(float, pair.split(","))
            x = WIN.xmin + xs / s
            y = WIN.ymax - ys / s
            # 0.001 px output quantization plus the 0.1 px chord budget
            assert abs(dist_g((x, y), gi) - dist_g((x, y), gj)) < 0.3 / s * 50.0
            checked += 1
    assert checked > 100


def test_chord_tolerance_tightens_flattening():
    cd = clip_to_window(build_diagram(scene(seed=4)), WIN)
    loose = render_svg(cd, 400, chord_tol_px=2.0)
    tight = render_svg(cd, 400, chord_tol_px=0.05)
    assert tight.count(",") > loose.count(",")


def test_y_axis_points_down():
    # a generator near the window top must land near small svg y
    gens = [
        Generator(0, np.array([50.0, 95.0]), SymMat2.identity(), 0.0),
        Generator(1, np.array([50.0, 5.0]), SymMat2.identity(), 0.0),
    ]
    cd = clip_to_window(build_diagram(gens), WIN)
    svg = render_svg(cd, 200, ellipses=False)
    circles = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg)
    assert float(circles[0][1]) < 20.0  # y=95 world -> 10 px from the top
    assert float(circles[1][1]) > 180.0


def test_labels_and_marker_toggles():
    cd = clip_to_window(build_diagram(scene(seed=6, n=4)), WIN)
    plain = render_svg(cd, 300)
    full = render_svg(cd, 300, vertex_markers=True, labels=True)
    assert "<text" not in plain
    assert full.count("<text") == 4
    assert full.count("<circle") > plain.count("<circle")


def test_generator_without_contour_is_skipped():
    # generator 1 has 1 + w <= 0, so it has no contour to draw; the others do
    gens = scene(n=4)
    gens[1] = gens[1].with_weight(-2.0)
    svg = render_svg(clip_to_window(build_diagram(gens), WIN), 500)
    centres = re.findall(r'<ellipse [^>]*translate\(([-\d.]+) ([-\d.]+)\)', svg)
    scale = 500 / WIN.width  # y points down
    want = [(g.p[0] * scale, (WIN.ymax - g.p[1]) * scale) for g in gens if g.id != 1]
    assert len(centres) == len(want)
    for (x, y), (wx, wy) in zip(centres, want):
        assert abs(float(x) - wx) <= 1e-3 and abs(float(y) - wy) <= 1e-3
