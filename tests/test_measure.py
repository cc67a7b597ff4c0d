"""Perimeter and area checks against closed forms and brute-force oracles."""

import math

import numpy as np
import pytest

from gbpd import measure as gmeasure
from gbpd.cli import random_scene
from gbpd.clip import clip_to_window, loop_polygons
from gbpd.conic import CLASSES, ConicClass
from gbpd.diagram import build_diagram
from gbpd.errors import InputError, NonFiniteSegmentError, NoSolutionError, UnboundedCellError
from gbpd.geometry import Generator, SceneArrays, SymMat2, Window
from gbpd.measure import cell_area, cell_perimeter, edge_arc_length, measure_cells
from gbpd.serialize import diagram_from_json, diagram_to_json

from oracles import (
    clip_to_window_per_edge,
    edge_segments,
    loop_lists,
    marching_squares_length,
    measure_cells_per_piece,
    piece_kinds,
    point_at_alpha_scalar,
    polyline_arc_length,
    row_curve,
)

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


def concentric_pair():
    g0 = Generator(0, np.zeros(2), SymMat2(2.0, 0.0, 2.0), 1.0)
    g1 = Generator(1, np.zeros(2), I, 0.0)
    return [g0, g1]


# ----------------------------------------------------------- edge lengths


def test_circle_edge_length():
    graph = build_diagram(concentric_pair())
    loops = [e for e in edge_segments(graph.edges) if e.kind == "loop"]
    assert len(loops) == 1
    assert abs(edge_arc_length(graph, loops[0].id) - 2.0 * math.pi) <= 1e-9


def test_straight_edge_length_five():
    # two mirrored generators whose bisector runs through (0,0) and (3,4),
    # flanked so that exactly that segment is the visible edge
    r = math.sqrt(7.25)
    gens = [
        iso(0, 2.3, 1.4),
        iso(1, 0.7, 2.6),
        iso(2, -0.6 * r, -0.8 * r),
        iso(3, 3.0 + 0.6 * r, 4.0 + 0.8 * r),
    ]
    graph = build_diagram(gens)
    seg = [
        e
        for e in edge_segments(graph.edges)
        if e.pair == (0, 1) and e.endpoints[0] is not None and e.endpoints[1] is not None
    ]
    assert len(seg) == 1
    assert abs(edge_arc_length(graph, seg[0].id) - 5.0) <= 1e-7


def test_unbounded_edges_raise():
    graph = build_diagram([iso(0, 0.0, 0.0), iso(1, 2.0, 0.0)])
    with pytest.raises(NonFiniteSegmentError):
        edge_arc_length(graph, 0)
    g0 = Generator(0, np.zeros(2), SymMat2(2.0, 0.0, 0.5), 0.0)
    graph2 = build_diagram([g0, iso(1, 3.0, 0.0)])
    open_curve = [e for e in edge_segments(graph2.edges) if e.is_curve() and None in e.endpoints]
    assert open_curve
    with pytest.raises(NonFiniteSegmentError, match=f"edge {open_curve[0].id} runs to infinity"):
        edge_arc_length(graph2, open_curve[0].id)


def test_arc_length_against_polyline_oracle():
    rng = np.random.default_rng(11)
    graph = build_diagram(aniso_scene(rng, 8))
    checked = 0
    for e in edge_segments(graph.edges):
        if not e.is_curve() or e.kind == "loop" or None in e.endpoints:
            continue
        if e.a1 - e.a0 < 0.05:
            continue
        curve = row_curve(graph.table, e.id)
        ref = polyline_arc_length(
            lambda a: point_at_alpha_scalar(curve, a), e.a0, e.a1, samples=40_001
        )
        val = edge_arc_length(graph, e.id)
        assert abs(val - ref) <= 1e-6 * ref
        checked += 1
        if checked >= 6:
            break
    assert checked >= 3


def test_arc_length_polyline_high_resolution():
    rng = np.random.default_rng(12)
    graph = build_diagram(aniso_scene(rng, 8))
    best = None
    for e in edge_segments(graph.edges):
        if e.is_curve() and e.kind != "loop" and None not in e.endpoints:
            span = e.a1 - e.a0
            if 0.2 <= span <= 2.0 and (best is None or span < best.a1 - best.a0):
                best = e
    assert best is not None
    curve = row_curve(graph.table, best.id)
    ref = polyline_arc_length(
        lambda a: point_at_alpha_scalar(curve, a), best.a0, best.a1, samples=1_000_001
    )
    val = edge_arc_length(graph, best.id)
    assert abs(val - ref) <= 1e-7 * ref


# ------------------------------------------------------- closed-form cells


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_disk_cell_graph_and_clipped(shift):
    # far from the origin the arc kernel must not lose the speed integrand
    # to cancellation: the unit disk at (1e6, 1e6) is measured like at 0
    gens = [Generator(g.id, g.p + shift, g.M, g.w) for g in concentric_pair()]
    graph = build_diagram(gens)

    cm = cell_area(0, graph)
    assert abs(cm.area - math.pi) <= 1e-9
    assert abs(cm.perimeter - 2.0 * math.pi) <= 1e-9
    assert len(cm.components) == 1

    with pytest.raises(UnboundedCellError):
        cell_area(1, graph)

    window = Window(shift - 3.0, shift - 3.0, shift + 3.0, shift + 3.0)
    cd = clip_to_window(graph, window)
    cm0 = cell_area(0, cd)
    cm1 = cell_area(1, cd)
    assert abs(cm0.area - math.pi) <= 1e-9
    assert abs(cm0.perimeter - 2.0 * math.pi) <= 1e-9
    # enclosing cell loses exactly the disk
    assert abs(cm1.area - (36.0 - math.pi)) <= 1e-9
    assert abs(cm1.perimeter - (24.0 + 2.0 * math.pi)) <= 1e-9
    assert len(cm1.components) == 1
    assert abs(cm0.area + cm1.area - window.area()) <= 1e-12 * window.area()


@pytest.mark.parametrize("preset", ["paper-random", "paper-weights", "isotropic"])
def test_graph_cells_match_clipped_cells(preset):
    # a bounded graph cell measures like the same cell clipped to a window
    # that holds it whole
    checked = 0
    for n in (8, 16):
        for seed in (1010, 1011):
            graph = build_diagram(random_scene(preset, n, seed, Window(0.0, 0.0, 400.0, 400.0)))
            pos = np.array([v.pos for v in graph.vertices])
            lo, hi = pos.min(axis=0), pos.max(axis=0)
            pad = 100.0 + float((hi - lo).max())
            cd = clip_to_window(graph, Window(lo[0] - pad, lo[1] - pad, hi[0] + pad, hi[1] + pad))
            cells = loop_lists(cd.loops)
            bounded = {}
            edges = edge_segments(graph.edges)
            for gen in graph.generators:
                if not all(edges[eid].is_finite() for eid in graph.cell_edges[gen.id]):
                    with pytest.raises(UnboundedCellError):
                        cell_area(gen.id, graph)
                    continue
                try:
                    cm = bounded[gen.id] = cell_area(gen.id, graph)
                except UnboundedCellError:
                    continue
                if any(cd.pieces["edge"][pid] < 0 for lp in cells[gen.id] for pid, _ in lp):
                    continue
                ref = cell_area(gen.id, cd)
                assert abs(cm.area - ref.area) <= 1e-12 * max(1.0, abs(ref.area))
                assert abs(cm.perimeter - ref.perimeter) <= 1e-12 * max(1.0, ref.perimeter)
                assert len(cm.components) == len(ref.components)
                checked += 1
            # the bounded cells measured together, on one record whose pieces
            # they share, give each cell its own measure
            if bounded:
                assert gmeasure._measure(graph, list(bounded)) == bounded
    assert checked >= 10


def test_cell_id_that_names_no_generator_raises_input_error():
    # a bare graph said "no boundary at all", a clip gave a zero measure
    graph = build_diagram([iso(0, 0.0, 0.0), iso(1, 4.0, 0.0), iso(2, 1.0, 3.0)])
    clipped = clip_to_window(graph, Window(-10.0, -10.0, 10.0, 10.0))
    for g in (graph, clipped):
        with pytest.raises(InputError, match="cell 999 names no generator"):
            cell_area(999, g)
        with pytest.raises(InputError):
            cell_perimeter(-1, g)


def test_cell_with_ray_is_unbounded():
    graph = build_diagram([iso(0, 0.0, 0.0), iso(1, 4.0, 0.0), iso(2, 1.0, 3.0)])
    assert any(not e.is_curve() and not e.is_finite() for e in edge_segments(graph.edges))
    for gid in range(3):
        with pytest.raises(UnboundedCellError):
            cell_area(gid, graph)
    with pytest.raises(UnboundedCellError):
        measure_cells(graph)


def test_parabola_loop_is_unbounded():
    # a whole parabola component is labelled "loop", as an ellipse is, but
    # it runs through its singular parameter (alpha 0) to infinity
    gens = [iso(0, 0.0, 0.0), Generator(1, (3.0, 0.0), SymMat2(1.0, 0.0, 2.0), 0.0)]
    built = build_diagram(gens)
    text = diagram_to_json(built)
    # the reader takes the loop, whose one arc spans a full turn, as built
    for graph in (built, diagram_from_json(text)):
        assert [e.kind for e in edge_segments(graph.edges)] == ["loop"]
        assert CLASSES[graph.table.code[0]] is ConicClass.PARABOLA
        with pytest.raises(NonFiniteSegmentError):
            edge_arc_length(graph, 0)
        for gid in (0, 1):
            with pytest.raises(UnboundedCellError):
                cell_area(gid, graph)
        window = Window(-10.0, -10.0, 10.0, 10.0)
        total = sum(m.area for m in measure_cells(clip_to_window(graph, window)).values())
        assert abs(total - window.area()) <= 1e-9 * window.area()
        assert diagram_to_json(graph) == text


def test_half_window_cells():
    gens = [iso(0, 150.0, 200.0), iso(1, 250.0, 200.0)]
    cd = clip_to_window(build_diagram(gens), Window(0.0, 0.0, 400.0, 400.0))
    for gid in (0, 1):
        cm = cell_area(gid, cd)
        assert abs(cm.area - 80000.0) <= 1e-6 * 80000.0
        assert abs(cm.perimeter - 1200.0) <= 1e-9 * 1200.0
    assert cell_perimeter(0, cd) == cell_area(0, cd).perimeter


def test_empty_cell_measures_zero():
    g0 = Generator(0, np.zeros(2), SymMat2(2.0, 0.0, 2.0), -100.0)
    g1 = Generator(1, np.zeros(2), I, 0.0)
    graph = build_diagram([g0, g1])
    assert 0 in graph.empty_cells
    assert cell_area(0, graph) == cell_area(0, graph).__class__(0, 0.0, 0.0, ())
    cd = clip_to_window(graph, Window(-2.0, -2.0, 2.0, 2.0))
    assert cell_area(0, cd).area == 0.0
    assert abs(cell_area(1, cd).area - 16.0) <= 1e-9


@pytest.mark.parametrize("m1", [SymMat2(2.0, 0.0, 2.0), I], ids=["nested", "identical"])
def test_cell_owning_the_whole_plane_is_not_empty(m1):
    # no bisector is visible, so one cell is the plane: generator 0 is
    # nearer everywhere but at the shared centre, or generator 1 is its alias
    graph = build_diagram([Generator(0, np.zeros(2), I, 0.0), Generator(1, np.zeros(2), m1, 0.0)])
    assert len(graph.edges) == 0 and graph.empty_cells == {1}
    with pytest.raises(UnboundedCellError):
        cell_area(0, graph)
    measures = measure_cells(clip_to_window(graph, Window(-5.0, -5.0, 5.0, 5.0)))
    assert [measures[k].area for k in (0, 1)] == [100.0, 0.0]
    text = diagram_to_json(graph)
    assert diagram_to_json(diagram_from_json(text)) == text


# ------------------------------------------------------------- invariants


def shifted_scene(seed, shift):
    """The n=10 scene of ``seed`` and the 100x100 window, moved by (shift, -shift)."""
    move = np.array([shift, -shift])
    gens = [Generator(g.id, g.p + move, g.M, g.w)
            for g in aniso_scene(np.random.default_rng(seed), 10)]
    return gens, Window(shift, -shift, shift + 100.0, -shift + 100.0)


@pytest.mark.parametrize("shift", [
    1e5,
    # far out the clip's crossings and vertices no longer meet, and a cell's
    # boundary chain does not close
    pytest.param(1e6, marks=pytest.mark.xfail(strict=True, raises=NoSolutionError,
                                              reason="chains far from the origin do not close")),
])
@pytest.mark.parametrize("seed", [3, 17, 29])
def test_shifted_clipped_areas_sum_to_window(seed, shift):
    gens, window = shifted_scene(seed, shift)
    measures = measure_cells(clip_to_window(build_diagram(gens), window))
    total = sum(cm.area for cm in measures.values())
    assert abs(total - window.area()) <= 1e-6 * window.area()


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_measures_with_holes_match_per_piece_reference(seed):
    # cells with holes, and seed 3's cell 9 with two outer loops and a hole:
    # the record's loop sums and hole test against the object clip's, bit for bit
    graph = build_diagram(aniso_scene(np.random.default_rng(seed), 10))
    window = Window(0.0, 0.0, 100.0, 100.0)
    got = measure_cells(clip_to_window(graph, window))
    ref = measure_cells_per_piece(clip_to_window_per_edge(graph, window))
    assert got.keys() == ref.keys()
    for gid, m in got.items():
        assert [v.hex() for v in (m.area, m.perimeter)] == [
            v.hex() for v in (ref[gid].area, ref[gid].perimeter)]
        assert [(c.area.hex(), c.perimeter.hex()) for c in m.components] == [
            (c.area.hex(), c.perimeter.hex()) for c in ref[gid].components]


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_clipped_areas_sum_to_window(seed):
    rng = np.random.default_rng(seed)
    gens = aniso_scene(rng, 10)
    window = Window(0.0, 0.0, 100.0, 100.0)
    cd = clip_to_window(build_diagram(gens), window)
    measures = measure_cells(cd)
    assert set(measures) == {g.id for g in gens}
    total = sum(cm.area for cm in measures.values())
    assert abs(total - window.area()) <= 1e-6 * window.area()
    for cm in measures.values():
        assert cm.area >= -1e-9
        assert cm.perimeter >= 0.0
        for comp in cm.components:
            assert comp.area >= -1e-9


def polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_single_outer_loop_takes_its_holes_unflattened(monkeypatch):
    # seed 3: cell 3 has one outer loop and two holes, cell 9 two outer
    # loops and one hole; only the second needs the hole-test polygons, and
    # only those of its outer loops
    gens = aniso_scene(np.random.default_rng(3), 10)
    cd = clip_to_window(build_diagram(gens), Window(0.0, 0.0, 100.0, 100.0))
    calls = []
    kernel = gmeasure.flatten_pieces

    def counting(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(gmeasure, "flatten_pieces", counting)
    cm = cell_area(3, cd)
    position = cd.loops.cells.tolist()
    assert len(cd.loops.runs(position.index(3))) == 3 and len(cm.components) == 1
    assert calls == []
    assert len(cell_area(9, cd).components) == 2
    lines = kernel(cd.graph, cd.pieces, 1e-3)
    loops = cd.loops.runs(position.index(9))
    outer = [lp for lp in loops if polygon_area(loop_polygons(lines, [lp])[0]) > 0.0]
    assert len(loops) == 3 and len(outer) == 2
    # one call, with the pieces of the outer loops, each once, in piece order
    assert len(calls) == 1
    assert calls[0].tobytes() == cd.pieces[np.unique(np.concatenate(outer)["piece"])].tobytes()


def test_laguerre_area_equals_vertex_shoelace():
    rng = np.random.default_rng(5)
    gens = [
        Generator(k, rng.uniform(10.0, 90.0, size=2), I, rng.uniform(0.0, 12.0))
        for k in range(8)
    ]
    cd = clip_to_window(build_diagram(gens), Window(0.0, 0.0, 100.0, 100.0))
    assert "arc" not in piece_kinds(cd.pieces)
    for gid, loops in loop_lists(cd.loops).items():
        if not loops:
            continue
        shoelace = 0.0
        for loop in loops:
            for pid, forward in loop:
                p0, p1 = cd.pieces["p0"][pid], cd.pieces["p1"][pid]
                q0, q1 = (p0, p1) if forward else (p1, p0)
                shoelace += 0.5 * (q0[0] * q1[1] - q0[1] * q1[0])
        cm = cell_area(gid, cd)
        assert abs(cm.area - shoelace) <= 1e-9 * max(1.0, shoelace)


def test_area_invariant_under_rigid_motion():
    ring = [Generator(0, np.zeros(2), I, 0.0)]
    for k in range(4):
        ang = 0.5 * math.pi * k + 0.3
        p = 6.0 * np.array([math.cos(ang), math.sin(ang)])
        m = SymMat2(0.25, 0.0, 0.5).rotated(0.7 * k)
        ring.append(Generator(k + 1, p, m, 1.0))
    base = cell_area(0, build_diagram(ring))

    th = 0.31
    c, s = math.cos(th), math.sin(th)
    R = np.array([[c, -s], [s, c]])
    shift = np.array([13.7, -8.2])
    moved = []
    for g in ring:
        m = np.array([[g.M.m11, g.M.m12], [g.M.m12, g.M.m22]])
        rm = R @ m @ R.T
        moved.append(
            Generator(g.id, R @ g.p + shift, SymMat2(rm[0, 0], rm[0, 1], rm[1, 1]), g.w)
        )
    got = cell_area(0, build_diagram(moved))
    assert abs(got.area - base.area) <= 1e-8 * base.area
    assert abs(got.perimeter - base.perimeter) <= 1e-8 * base.perimeter
    assert len(got.components) == len(base.components) == 1


def test_translated_window_matches():
    rng = np.random.default_rng(23)
    gens = aniso_scene(rng, 8)
    cd0 = clip_to_window(build_diagram(gens), Window(0.0, 0.0, 100.0, 100.0))
    shift = np.array([250.0, -40.0])
    moved = [Generator(g.id, g.p + shift, g.M, g.w) for g in gens]
    cd1 = clip_to_window(
        build_diagram(moved), Window(250.0, -40.0, 350.0, 60.0)
    )
    m0 = measure_cells(cd0)
    m1 = measure_cells(cd1)
    for gid in m0:
        assert abs(m0[gid].area - m1[gid].area) <= 1e-8 * max(1.0, m0[gid].area)
        assert abs(m0[gid].perimeter - m1[gid].perimeter) <= 1e-8 * max(
            1.0, m0[gid].perimeter
        )


def test_perimeter_against_contour_oracle():
    rng = np.random.default_rng(41)
    gens = aniso_scene(rng, 12)
    window = Window(0.0, 0.0, 100.0, 100.0)
    cd = clip_to_window(build_diagram(gens), window)
    arr = SceneArrays(gens)

    n = 501
    xs = np.linspace(0.0, 100.0, n)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    dists = arr.dist(grid)

    checked = 0
    for gid, loops in loop_lists(cd.loops).items():
        if not loops:
            continue
        if any(cd.pieces["edge"][pid] < 0 for lp in loops for pid, _ in lp):
            continue
        cm = cell_area(gid, cd)
        if cm.area < 20.0:
            continue
        col = arr.id_to_index[gid]
        others = np.delete(dists, col, axis=1).min(axis=1)
        field = (dists[:, col] - others).reshape(n, n)
        ref = marching_squares_length(field, xs[1] - xs[0])
        assert abs(cm.perimeter - ref) <= 0.02 * ref
        checked += 1
    assert checked >= 1


def test_reversed_generator_order_same_areas():
    rng = np.random.default_rng(7)
    gens = aniso_scene(rng, 6)
    window = Window(0.0, 0.0, 100.0, 100.0)
    m0 = measure_cells(clip_to_window(build_diagram(gens), window))
    m1 = measure_cells(clip_to_window(build_diagram(list(reversed(gens))), window))
    for gid in m0:
        assert abs(m0[gid].area - m1[gid].area) <= 1e-9 * max(1.0, m0[gid].area)
