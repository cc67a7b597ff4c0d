"""Batched clip crossings, piece points and flattening, and the indexed node
snap, against their references, bit for bit.

The clip solves the window-side quadratics of all curved edges in one batch
and the straight edges' crossings in one array pass, and finds the node a
crossing snaps to through a grid index; flattening refines all pieces level
by level, one evaluation of all open spans per level. These properties
require the results to equal, float bit for float bit, what the
one-at-a-time references and the node scan in ``oracles.py`` give.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbpd import Window
from gbpd import clip as gclip
from gbpd import oracle as goracle
from gbpd.cli import random_scene
from gbpd.clip import NODE_KINDS, clip_to_window, flatten_pieces, piece_points
from gbpd.diagram import build_diagram, merge_marks, ray_parameter, split_at_marks
from gbpd.geometry import PointIndex
from gbpd.measure import measure_cells
from gbpd.oracle import rasterize_cells
from gbpd.tolerances import DEDUP_REL

from conftest import CASES, CLIP_CASES
from oracles import (
    NodeScan,
    clip_text_objects,
    clip_to_window_per_edge,
    curve_crossings_scalar,
    edge_segments,
    flatten_piece_scalar,
    line_crossings_scalar,
    measure_cells_per_piece,
    piece_kinds,
    piece_objects,
    piece_point_scalar,
    row_curve,
    row_line,
)

# the text form of the clip record that the output digests print
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from output_digests import clip_text  # noqa: E402

WINDOW = Window(0.0, 0.0, 400.0, 400.0)


def bits(values):
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=float))]


def test_shared_splitting_rule():
    two_pi = 2.0 * math.pi
    gap = 1e-9
    marks = merge_marks([(2.0, "c"), (1.0, "a"), (1.0 + 0.5 * gap, "b"), (3.0, "d")], gap)
    assert marks == [(1.0, "a"), (2.0, "c"), (3.0, "d")]
    # open: lo -> marks -> hi with the end payloads; pieces up to gap long drop out
    assert split_at_marks(marks, 0.0, 3.0 + 0.5 * gap, gap, False, ("lo", "hi")) == [
        (0.0, 1.0, "lo", "a"), (1.0, 2.0, "a", "c"), (2.0, 3.0, "c", "d"),
    ]
    # closed: pairs run circularly, the last one a turn on
    assert split_at_marks(marks, None, None, gap, True) == [
        (1.0, 2.0, "a", "c"), (2.0, 3.0, "c", "d"), (3.0, 1.0 + two_pi, "d", "a"),
    ]
    # a last mark within gap of the first one a turn later is its duplicate
    wrapped = marks + [(1.0 + two_pi - 0.5 * gap, "e")]
    closed = split_at_marks(marks, None, None, gap, True)
    assert split_at_marks(wrapped, None, None, gap, True) == closed
    assert split_at_marks([(0.5, "a")], None, None, gap, True) == [(0.5, 0.5 + two_pi, "a", "a")]
    # the line-ray representative: a step of max(1, |t|) in from a ray's finite end t
    rays = ((-math.inf, math.inf), (-math.inf, 2.0), (2.0, math.inf), (1.0, 2.0),
            (-math.inf, 0.5), (-3.0, math.inf))
    assert [ray_parameter(*t) for t in rays] == [0.0, 0.0, 4.0, 1.5, -0.5, 0.0]


def crossing_bits(found):
    return [(bits([x]), bits(pos), side) for x, pos, side in found]


@pytest.mark.parametrize("name", CASES)
def test_batched_crossings_match_scalar(graphs, name):
    graph, window = graphs[name]
    snap = DEDUP_REL * window.diagonal
    edges = edge_segments(graph.edges)
    curved = [e for e in edges if e.is_curve()]
    straight = [e for e in edges if not e.is_curve()]
    got_curved = gclip._curve_crossings(graph, np.array([e.id for e in curved], dtype=np.intp),
                                        window, snap)
    got_straight = gclip._line_crossings(graph, np.array([e.id for e in straight], dtype=np.intp),
                                         window, snap)
    total = 0
    for e in curved:
        found = got_curved.get(e.id, [])
        ref = curve_crossings_scalar(row_curve(graph.table, e.id), e, window, snap)
        assert crossing_bits((x, *at) for x, at in found) == crossing_bits(ref)
        total += len(ref)
    for e in straight:
        found = got_straight.get(e.id, [])
        line = row_line(graph.table, e.id, e.line_index)
        ref = line_crossings_scalar(line, e.a0, e.a1, window, snap)
        assert crossing_bits((x, *at) for x, at in found) == crossing_bits(ref)
        total += len(ref)
    assert (total == 0) == (name == "no-edge-inside")
    # an edge's crossings do not depend on the other edges of the batch
    alone = [gclip._curve_crossings(graph, np.array([e.id]), window, snap).get(e.id, [])
             for e in curved[::-1]][::-1]
    assert [crossing_bits((x, *at) for x, at in f) for f in alone] == [
        crossing_bits((x, *at) for x, at in got_curved.get(e.id, [])) for e in curved
    ]


@pytest.mark.parametrize("name", CASES)
def test_batched_flattening_matches_scalar(graphs, name):
    graph, window = graphs[name]
    cd = clip_to_window(graph, window)
    # the isotropic preset shares one matrix: its bisectors are lines
    assert "arc" in piece_kinds(cd.pieces) or name.startswith((
        "isotropic", "line-through-corners", "vertex-on-border", "no-edge-inside"))
    # the raster's px / 20 at 400 px is the second; measure's hole test uses the last
    ftols = [window.width / 10.0, window.width / 400.0 / 20.0, window.width / 800.0 * 0.1,
             DEDUP_REL * graph.length_scale]
    if name == "loop-across-border":
        ftols.append(0.0)  # every span refines to the depth cap
    objects = piece_objects(cd.pieces, graph.edges)
    for ftol in ftols:
        lines = flatten_pieces(cd.graph, cd.pieces, ftol)
        for piece, line in zip(objects, lines):
            assert bits(line) == bits(flatten_piece_scalar(cd.graph, piece, ftol))
        alone = [flatten_pieces(cd.graph, cd.pieces[k:k + 1], ftol)[0]
                 for k in reversed(range(len(cd.pieces)))][::-1]
        assert [bits(line) for line in alone] == [bits(line) for line in lines]


@st.composite
def snap_point_sets(draw):
    """(snap, points): clusters of points around centres on the index's cell
    borders, at exactly snap from the centre, one ulp either side, or
    anywhere within 2 snap, in a drawn order."""
    snap = draw(st.sampled_from([DEDUP_REL * WINDOW.diagonal, 2.0 ** -20, 0.1]))
    shift = draw(st.sampled_from([0.0, -1e5]))
    radii = (st.sampled_from([snap, math.nextafter(snap, 0.0), math.nextafter(snap, math.inf)])
             | st.floats(0.0, 2.0 * snap))
    directions = (st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8)])
                  | st.floats(0.0, 2.0 * math.pi).map(lambda a: (math.cos(a), math.sin(a))))
    points = []
    for _ in range(draw(st.integers(1, 5))):
        centre = shift + 2.0 * snap * np.array(draw(st.tuples(st.integers(-3, 3),
                                                              st.integers(-3, 3))), dtype=float)
        points.append(centre)
        for _ in range(draw(st.integers(0, 6))):
            points.append(centre + draw(radii) * np.array(draw(directions)))
    return snap, draw(st.permutations(points))


@given(snap_point_sets())
@settings(max_examples=150, deadline=None)
def test_node_index_matches_scan(case):
    snap, points = case
    index, scan = PointIndex(snap), NodeScan(snap)
    got, ref = [], []
    for pos in points:
        got.append(index.near(pos))
        ref.append(scan.near(pos))
        if ref[-1] is None:  # a new node, as the clip adds a crossing
            index.add(len(scan.points), pos)
            scan.add(len(scan.points), pos)
    assert got == ref


def node_bits(cd):
    return [(k, NODE_KINDS[kind], bits(pos), bits([s]))
            for k, (pos, kind, s) in enumerate(cd.nodes.tolist())]


@pytest.mark.parametrize("name", CASES)
def test_clip_nodes_match_scan(graphs, name, monkeypatch):
    graph, window = graphs[name]
    cd = clip_to_window(graph, window)
    monkeypatch.setattr(gclip, "PointIndex", NodeScan)
    ref = clip_to_window(graph, window)
    assert node_bits(cd) == node_bits(ref)
    assert cd.pieces[["node_a", "node_b"]].tolist() == ref.pieces[["node_a", "node_b"]].tolist()
    if name == "vertex-on-border":
        # the left side's crossings snap to the vertex, which becomes a boundary
        # node at its place on the border: 2 w + h, then down from the top
        (k,) = np.flatnonzero(cd.nodes["kind"] == NODE_KINDS.index("vertex"))
        assert cd.nodes["boundary_s"][k] == 2 * 5 + 10 + (5 - 0.25)
        snap = DEDUP_REL * window.diagonal
        gap = np.hypot(*(np.delete(cd.nodes["pos"], k, axis=0) - cd.nodes["pos"][k]).T)
        assert (gap > snap).all()


@pytest.mark.parametrize("name", CASES)
def test_batched_piece_points_match_scalar(graphs, name):
    graph, window = graphs[name]
    cd = clip_to_window(graph, window)
    rng = np.random.default_rng(3)
    objects = piece_objects(cd.pieces, graph.edges)
    rows = [(k, f) for k in range(len(cd.pieces)) for f in (0.0, 1.0, *rng.uniform(0.0, 1.0, 3))]
    got = piece_points(cd.graph, cd.pieces[[k for k, _ in rows]], np.array([f for _, f in rows]))
    ref = [piece_point_scalar(cd.graph, objects[k], f) for k, f in rows]
    assert bits(got) == bits(ref)


def test_each_piece_flattened_once_per_raster(monkeypatch):
    graph = build_diagram(random_scene("paper-weights", 24, 42, WINDOW))
    cd = clip_to_window(graph, Window(90.0, 100.0, 290.0, 300.0))
    calls = []
    kernel = goracle.flatten_pieces

    def counting(graph_, pieces, ftol):
        calls.append(pieces)
        return kernel(graph_, pieces, ftol)

    monkeypatch.setattr(goracle, "flatten_pieces", counting)
    rasterize_cells(cd, 100, 100)
    uses = cd.loops.half["piece"].tolist()
    assert len(uses) > len(set(uses))  # most pieces border two cells
    # one call, with every piece of the record once
    assert len(calls) == 1
    assert calls[0].tobytes() == cd.pieces.tobytes()


@pytest.mark.parametrize("name", CLIP_CASES)
def test_clip_matches_per_edge_reference(graphs, name):
    # the record and the object clip print the same text: nodes, pieces and
    # loops, every float as its hex form
    graph, window = graphs[name]
    cd = clip_to_window(graph, window)
    assert clip_text(cd) == clip_text_objects(clip_to_window_per_edge(graph, window))
    arcs = np.array(piece_kinds(cd.pieces)) == "arc"
    if name == "loop-inside":
        assert cd.pieces["closed"][arcs].tolist() == [True]
    if name == "no-edge-inside":
        assert (cd.pieces["edge"] < 0).all()


def test_clip_matches_per_edge_reference_on_reload_queries(reload_query):
    graph, windows = reload_query
    for window in windows:
        cd = clip_to_window(graph, window)
        assert clip_text(cd) == clip_text_objects(clip_to_window_per_edge(graph, window))


@pytest.mark.parametrize("seed", range(1010, 1020))
def test_clip_matches_per_edge_reference_on_small_batch(seed):
    for preset in ("paper-random", "paper-weights", "isotropic"):
        graph = build_diagram(random_scene(preset, 16, seed, WINDOW))
        cd = clip_to_window(graph, WINDOW)
        assert clip_text(cd) == clip_text_objects(clip_to_window_per_edge(graph, WINDOW))


def measure_bits(measures):
    return [(gid, bits([m.area, m.perimeter]), [bits([c.area, c.perimeter]) for c in m.components])
            for gid, m in measures.items()]


@pytest.mark.parametrize("name", CLIP_CASES)
def test_measures_match_per_piece_reference(graphs, name):
    # the loop sums of the record, in one array pass, against the object
    # clip's loops summed piece by piece, bit for bit
    graph, window = graphs[name]
    ref = measure_cells_per_piece(clip_to_window_per_edge(graph, window))
    assert measure_bits(measure_cells(clip_to_window(graph, window))) == measure_bits(ref)


def test_measures_match_per_piece_reference_on_reload_queries(reload_query):
    graph, windows = reload_query
    for window in windows:
        ref = measure_cells_per_piece(clip_to_window_per_edge(graph, window))
        assert measure_bits(measure_cells(clip_to_window(graph, window))) == measure_bits(ref)


def test_clip_evaluates_each_piece_once(graphs, reload_query, monkeypatch):
    # one evaluation of all candidate pieces (inside test and sides), one of
    # the kept pieces' end points
    calls = []
    kernel = gclip._piece_rows

    def counting(*args):
        calls.append(len(args[1]))
        return kernel(*args)

    monkeypatch.setattr(gclip, "_piece_rows", counting)
    reload, windows = reload_query
    for graph, window in [*((reload, w) for w in windows), graphs["dense"]]:
        calls.clear()
        cd = clip_to_window(graph, window)
        assert len(calls) == 2
        assert calls[0] >= (cd.pieces["edge"] >= 0).sum() > 0
