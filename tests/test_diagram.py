"""Diagram construction: vertices, visibility, topology, determinism."""

import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gbpd import Generator, SymMat2
from gbpd import diagram as gdiagram
from gbpd import intersect as gintersect
from gbpd.cli import random_scene as preset_scene
from gbpd.clip import clip_to_window
from gbpd.bisector import bisector_implicit, bisector_table, param_of_point
from gbpd.conic import CLASSES, ConicClass, alpha_of_param, line_points, points_at_alphas
from gbpd.diagram import EDGE_KINDS, build_diagram, visible_segments
from gbpd.geometry import SceneArrays, Window, dist_g
from gbpd.measure import measure_cells
from gbpd.serialize import diagram_to_json

from oracles import boundary_components_union_find, curve_labels, edge_segments, radical_center

I = SymMat2.identity()


def iso(gid, x, y, w=0.0):
    return Generator(gid, (x, y), I, w)


def kinds(edges):
    return [EDGE_KINDS[k] for k in edges["kind"].tolist()]


def pairs(edges):
    return [tuple(pair) for pair in edges["pair"].tolist()]


def degrees(d):
    """Edge ends at each vertex id."""
    ends = np.concatenate([d.edges["node_a"], d.edges["node_b"]])
    return np.bincount(ends[ends >= 0], minlength=len(d.vertices)).tolist()


def random_scene(rng, n, aniso=True):
    gens = []
    for k in range(n):
        x, y = rng.uniform(0, 100, 2)
        if aniso and k % 2:
            th = rng.uniform(0, math.pi)
            a1 = rng.uniform(3, 10) ** 2
            a2 = rng.uniform(1, 3) ** 2
            m = SymMat2(1 / a1, 0, 1 / a2).rotated(th)
        else:
            m = I
        gens.append(Generator(k, (x, y), m, rng.uniform(0, 5)))
    return gens


def test_two_generators_single_full_line():
    d = build_diagram([iso(0, 0, 0), iso(1, 2, 0)])
    assert len(d.vertices) == 0
    assert len(d.edges) == 1
    assert kinds(d.edges) == ["full_line"]
    assert pairs(d.edges) == [(0, 1)]
    assert d.adjacency == {(0, 1)}
    assert d.cell_components[0] == [[0]]
    assert d.cell_components[1] == [[0]]
    assert not d.empty_cells


def test_concentric_pair_closed_loop_edge():
    # 2 I vs I at the same center, w = (1, 0): bisector is x^2 + y^2 = 1
    g0 = Generator(0, (0, 0), SymMat2.isotropic(2.0), 1.0)
    g1 = Generator(1, (0, 0), I, 0.0)
    d = build_diagram([g0, g1])
    assert len(d.edges) == 1
    assert kinds(d.edges) == ["loop"]
    assert CLASSES[d.table.code[0]] is ConicClass.ELLIPSE
    x, y, _, _, singular = points_at_alphas(d.table.chart[[0]], d.table.u_scale[[0]],
                                            np.array([0.7]))
    assert not singular[0]
    assert math.hypot(x[0], y[0]) == pytest.approx(1.0, abs=1e-12)


def test_one_neighbor_cell():
    # concentric pair plus a distant generator: the inner cell keeps exactly
    # one neighbor and a single closed boundary loop
    g0 = Generator(0, (0, 0), SymMat2.isotropic(2.0), 1.0)
    g1 = Generator(1, (0, 0), I, 0.0)
    g2 = iso(2, 100, 0)
    d = build_diagram([g0, g1, g2])
    assert d.neighbors(0) == {1}
    assert d.neighbors(1) == {0, 2}
    loops = d.cell_edges[0]
    assert len(loops) == 1 and kinds(d.edges[loops]) == ["loop"]
    assert d.cell_components[0] == [loops]
    # the (1, 2) bisector is the full power line x = 50
    e12 = [k for k, pair in enumerate(pairs(d.edges)) if pair == (1, 2)]
    assert len(e12) == 1 and kinds(d.edges[e12]) == ["full_line"]


def test_equilateral_triangle_rays():
    h = 2.0 * math.sqrt(3.0)
    d = build_diagram([iso(0, 0, 0), iso(1, 4, 0), iso(2, 2, h)])
    assert len(d.vertices) == 1
    v = d.vertices[0]
    assert v.gens == frozenset({0, 1, 2})
    assert np.allclose(v.pos, [2.0, 2.0 / math.sqrt(3.0)], atol=1e-9)
    assert len(d.edges) == 3
    assert kinds(d.edges) == ["interval"] * 3
    for e in d.edges:
        assert sorted(x < 0 for x in (e["node_a"], e["node_b"])) == [False, True]
        assert math.isinf(e["t_a"]) or math.isinf(e["t_b"])
    assert d.adjacency == {(0, 1), (0, 2), (1, 2)}
    for gid in range(3):
        assert len(d.cell_components[gid]) == 1


def test_square_grid_degree_four_vertex():
    d = build_diagram([iso(0, 0, 0), iso(1, 1, 0), iso(2, 0, 1), iso(3, 1, 1)])
    assert len(d.vertices) == 1
    v = d.vertices[0]
    assert v.gens == frozenset({0, 1, 2, 3})
    assert np.allclose(v.pos, [0.5, 0.5], atol=1e-9)
    # diagonal pairs never become adjacent
    assert d.adjacency == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert len(d.edges) == 4
    # vertex degree: four edge ends
    assert degrees(d) == [4]


def test_empty_cell_flag():
    h = 2.0 * math.sqrt(3.0)
    gens = [iso(0, 0, 0), iso(1, 4, 0), iso(2, 2, h), iso(3, 2, 1.2, w=-100.0)]
    d = build_diagram(gens)
    assert 3 in d.empty_cells
    assert d.cell_edges[3] == []
    assert not d.neighbors(3)


def test_identical_generators_alias():
    gens = [iso(0, 0, 0), iso(1, 3, 0), iso(2, 0, 0)]  # 2 duplicates 0
    d = build_diagram(gens)
    assert d.aliases == {2: 0}
    assert 2 in d.empty_cells
    assert d.adjacency == {(0, 1)}


def test_hyperbola_branch_visibility():
    g0 = Generator(0, (0, 0), SymMat2(2.0, 0.0, 0.5), 0.0)
    g1 = Generator(1, (3, 0), I, 0.0)
    d2 = build_diagram([g0, g1])
    assert CLASSES[d2.table.code[0]] is ConicClass.HYPERBOLA
    assert len(d2.edges) == 2  # both branches visible with two generators
    # left apex of the hyperbola (x + 3)^2 - y^2 / 2 = 18
    apex = np.array([-3.0 - math.sqrt(18.0), 0.0])
    assert abs(bisector_implicit(g0, g1).evaluate(apex[0], apex[1])) < 1e-9

    def covers(diagram, point):
        rows = [k for k, pair in enumerate(pairs(diagram.edges)) if pair == (0, 1)]
        t = param_of_point(diagram.table, rows[0], point, 1e-6)[0]
        a = alpha_of_param(t)
        for e in diagram.edges[rows]:
            if e["line"] >= 0:
                continue
            off = (a - e["a0"]) % (2 * math.pi)
            if off <= e["a1"] - e["a0"]:
                return True
        return False

    assert covers(d2, apex)
    # a generator sitting on the left apex hides that branch
    d3 = build_diagram([g0, g1, iso(2, apex[0], apex[1])])
    assert not covers(d3, apex)
    right = np.array([-3.0 + math.sqrt(18.0), 0.0])
    assert covers(d3, right)


def test_weight_shift_invariance():
    rng = np.random.default_rng(7)
    gens = random_scene(rng, 12)
    d1 = build_diagram(gens)
    d2 = build_diagram([g.with_weight(g.w + 17.0) for g in gens])
    assert d1.adjacency == d2.adjacency
    assert len(d1.vertices) == len(d2.vertices)
    scale = 1e-9 * (1.0 + d1.length_scale)
    for v1, v2 in zip(d1.vertices, d2.vertices):
        assert math.hypot(*(v1.pos - v2.pos)) <= scale
        assert v1.gens == v2.gens
    assert pairs(d1.edges) == pairs(d2.edges) and kinds(d1.edges) == kinds(d2.edges)
    assert d1.edges["component"].tolist() == d2.edges["component"].tolist()


def test_laguerre_vertices_are_radical_centers():
    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 50, (10, 2))
    ws = rng.uniform(0, 30, 10)
    gens = [Generator(k, pts[k], I, ws[k]) for k in range(10)]
    d = build_diagram(gens)
    # all 45 pairs by class code, and the bisector of every edge
    table = bisector_table(gens)
    assert table.code.size == 45
    assert all(CLASSES[c] is ConicClass.SINGLE_LINE for c in table.code.tolist())
    assert all(CLASSES[c] is ConicClass.SINGLE_LINE for c in d.table.code.tolist())
    assert d.vertices, "expected at least one vertex in a 10-site scene"
    for v in d.vertices:
        ids = sorted(v.gens)[:3]
        rc = radical_center(
            pts[ids[0]], ws[ids[0]], pts[ids[1]], ws[ids[1]], pts[ids[2]], ws[ids[2]]
        )
        assert rc is not None
        assert math.hypot(v.pos[0] - rc[0], v.pos[1] - rc[1]) <= 1e-9 * (1 + np.abs(rc).max())


def test_vertex_degree_at_least_three():
    rng = np.random.default_rng(3)
    gens = random_scene(rng, 14)
    d = build_diagram(gens)
    assert d.vertices
    for vid, deg in enumerate(degrees(d)):
        assert deg >= 3, f"vertex {vid} has degree {deg}"


def test_edge_midpoints_are_two_nearest():
    rng = np.random.default_rng(11)
    gens = random_scene(rng, 10)
    d = build_diagram(gens)
    arr = SceneArrays(gens)
    checked = 0
    for e in edge_segments(d.edges):
        rows = [e.id]
        if e.is_curve():
            span = e.a1 - e.a0
            x, y, _, _, singular = points_at_alphas(d.table.chart[rows], d.table.u_scale[rows],
                                                    np.array([e.a0 + 0.37 * span]))
            q = np.array([x[0], y[0]])
            if singular[0] or not np.all(np.isfinite(q)) or np.abs(q).max() > 1e7:
                continue
        else:
            if e.kind == "full_line":
                t = 0.0
            elif math.isinf(e.t_a):
                t = e.t_b - 1.0
            elif math.isinf(e.t_b):
                t = e.t_a + 1.0
            else:
                t = 0.5 * (e.t_a + e.t_b)
            q = line_points(d.table.lines[rows, e.line_index], np.array([t]))[0]
        dists = arr.dist(q[None])[0]
        ii, jj = arr.id_to_index[e.pair[0]], arr.id_to_index[e.pair[1]]
        others = np.delete(dists, [ii, jj])
        slack = 1e-7 * (1.0 + abs(dists.min()))
        assert max(dists[ii], dists[jj]) <= others.min() + slack
        checked += 1
    assert checked >= len(d.edges) * 0.9


def test_determinism_across_threads_and_runs():
    rng = np.random.default_rng(5)
    gens = random_scene(rng, 16)

    def snapshot(d):
        return (
            [(v.pos[0], v.pos[1], tuple(sorted(v.gens))) for v in d.vertices],
            d.edges.tobytes(),
            sorted(d.adjacency),
        )

    s1 = snapshot(build_diagram(gens, threads=1))
    s2 = snapshot(build_diagram(gens, threads=4))
    s3 = snapshot(build_diagram(gens, threads=1))
    assert s1 == s2  # bitwise identical across thread counts
    assert s1 == s3


@pytest.mark.parametrize("chunk", [1000, 7919, 32768])
def test_triple_chunking_does_not_change_the_diagram(monkeypatch, chunk):
    # the dense benchmark scene (59,640 triples) in 60, 8 and 2 chunks; the
    # default cuts the same 8 as 7919, so that case varies the threads alone
    gens = preset_scene("paper-random", 72, 42, Window(0.0, 0.0, 400.0, 400.0))
    reference = diagram_to_json(build_diagram(gens, threads=2))
    monkeypatch.setattr(gintersect, "_TRIPLE_CHUNK", chunk)
    for threads in (1, 2):
        assert diagram_to_json(build_diagram(gens, threads=threads)) == reference


def test_triple_sweep_memory_does_not_grow_with_the_triple_count(monkeypatch):
    # paper-random n=100 has 161,700 triples, 3.9 MB as one int64 array of
    # indices; in 1,024-triple chunks the whole sweep must peak below that
    window = Window(0.0, 0.0, 400.0, 400.0)
    chunk_size = gintersect._TRIPLE_CHUNK
    monkeypatch.setattr(gintersect, "_TRIPLE_CHUNK", 1024)
    # tracemalloc looks up the line of every allocation, and CPython 3.11
    # scans a function's line table for it unless the code object keeps a
    # line array, which it gets when entered under a profiler: one small
    # profiled build keeps the traced sweep below 3 s
    sys.setprofile(lambda *args: None)
    try:
        build_diagram(preset_scene("paper-random", 8, 42, window))
    finally:
        sys.setprofile(None)
    peaks, per_triple = [], []
    search, candidates = gintersect.vertex_candidates, gintersect._candidate_chunk

    def traced(*args):
        tracemalloc.start()
        try:
            out = search(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    def chunk_peak(chunk, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = candidates(chunk, *args)
        per_triple.append((tracemalloc.get_traced_memory()[1] - before) / len(chunk))
        return out

    monkeypatch.setattr(gdiagram, "vertex_candidates", traced)
    build_diagram(preset_scene("paper-random", 100, 42, window))
    assert len(peaks) == 1
    assert peaks[0] < 161_700 * 3 * 8

    # at the build's own chunk size (the dense n=72 scene makes 8 chunks),
    # every chunk's temporaries peak within 10% of the per-triple figure
    # that the docstring of the sweep's module and README give
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    figures = {float(k) for text in (gintersect.__doc__, readme)
               for k in re.findall(r"about ([\d.]+) KB per triple", " ".join(text.split()))}
    assert len(figures) == 1
    documented = 1000.0 * figures.pop()
    monkeypatch.setattr(gintersect, "_TRIPLE_CHUNK", chunk_size)
    monkeypatch.setattr(gintersect, "_candidate_chunk", chunk_peak)
    build_diagram(preset_scene("paper-random", 72, 42, window))
    assert len(per_triple) == 8
    assert 0.9 * documented <= min(per_triple) and max(per_triple) <= 1.1 * documented


def test_far_ray_representative_keeps_vertex_degree_three():
    # vertex 0 of this scene lies about 12,480 out, where three nearly
    # parallel radical axes meet; a unit step along a ray from there left
    # both halves of one line visible, and the vertex got four edges
    window = Window(0.0, 0.0, 400.0, 400.0)
    d = build_diagram(preset_scene("isotropic", 16, 1015, window))
    assert np.abs(d.vertices[0].pos).max() > 1e4
    degree = degrees(d)
    assert all(degree[v.id] == 3 for v in d.vertices if len(v.gens) == 3)
    total = sum(m.area for m in measure_cells(clip_to_window(d, window)).values())
    assert abs(total - window.width * window.height) <= 1e-6 * window.width * window.height


def test_visible_segments_direct_call():
    gens = [iso(0, 0, 0), iso(1, 2, 0)]
    segs = visible_segments(*gens, {0: [(0.0, None)]}, gens)
    assert len(segs) == 2
    labels = sorted(segs[["t_a", "t_b"]].tolist())
    assert labels[0][0] == -math.inf and labels[1][1] == math.inf


def test_single_generator_scene():
    d = build_diagram([iso(0, 5, 5)])
    assert len(d.edges) == 0
    assert d.vertices == []
    assert not d.empty_cells


# ------------------------------------------------ the edge record (EDGE rows)


def hexes(values):
    return [float(v).hex() for v in values]


def test_edge_record_matches_reference_objects(digest_graphs):
    # the array label encode and decode against one scalar call per edge, bit
    # for bit, on the 45 digest scenes, built and read back from their JSON
    graphs, labels = digest_graphs
    assert len(graphs) == 45 and labels
    for (a0, a1, ended), (kind, t_a, t_b) in labels:
        ref = [curve_labels(x0, x1, (0, 0) if e else (None, None))
               for x0, x1, e in zip(a0.tolist(), a1.tolist(), ended.tolist())]
        assert [EDGE_KINDS[k] for k in kind.tolist()] == [r[0] for r in ref]
        nulls = [math.nan if v is None else v for r in ref for v in r[1:]]
        assert hexes(np.column_stack([t_a, t_b]).ravel()) == hexes(nulls)
    for name, built, read in graphs:
        assert read.edges.tobytes() == built.edges.tobytes(), name
        for g in (built, read):
            objects = edge_segments(g.edges)
            e = g.edges
            assert hexes(e["a0"]) == hexes(o.a0 for o in objects), name
            assert hexes(e["a1"]) == hexes(o.a1 for o in objects), name
            assert hexes(e["t_a"]) == hexes(math.nan if o.t_a is None else o.t_a for o in objects)
            assert hexes(e["t_b"]) == hexes(math.nan if o.t_b is None else o.t_b for o in objects)


def assert_graph_invariants(g):
    """The graph's invariants, each one array pass over its EDGE rows."""
    e = g.edges
    ends = np.concatenate([e["node_a"], e["node_b"]])
    pair = np.concatenate([e["pair"], e["pair"]])
    # a vertex of d generators has d incident edge ends
    degree = np.array([len(v.gens) for v in g.vertices], dtype=int)
    assert np.bincount(ends[ends >= 0], minlength=degree.size).tolist() == degree.tolist()
    # an edge's pair lies in the gens of both its end vertices
    gens = np.full((degree.size, max(degree, default=0)), -1)
    for k, v in enumerate(g.vertices):
        gens[k, :degree[k]] = sorted(v.gens)
    held = gens[ends[ends >= 0]][:, :, None] == pair[ends >= 0][:, None, :]
    assert held.any(axis=1).all()
    # adjacency is the set of pairs; a cell's edges are the rows whose pair
    # holds it, in increasing order; an empty cell has no edge
    assert g.adjacency == set(map(tuple, e["pair"].tolist()))
    ids = np.array([gen.id for gen in g.generators])
    holds = (e["pair"][None, :, :] == ids[:, None, None]).any(axis=2)
    assert g.cell_edges == {gid: np.flatnonzero(row).tolist()
                            for gid, row in zip(ids.tolist(), holds)}
    assert not holds[np.isin(ids, list(g.empty_cells))].any()
    return int((degree == 4).sum())


def test_graph_invariants_on_digest_scenes(digest_graphs):
    graphs, _ = digest_graphs
    four = 0
    for name, built, read in graphs:
        for g in (built, read):
            four += assert_graph_invariants(g)
            objects = edge_segments(g.edges)
            assert g.cell_components == {
                gid: boundary_components_union_find(eids, objects)
                for gid, eids in g.cell_edges.items()}, name
    # the lattice's vertices are of degree 4
    assert four > 0
