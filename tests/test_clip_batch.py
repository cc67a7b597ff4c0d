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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbpd import Generator, SymMat2, Window
from gbpd import clip as gclip
from gbpd import oracle as goracle
from gbpd.cli import PRESETS, random_scene
from gbpd.clip import ClipNode, clip_to_window, flatten_pieces, piece_points
from gbpd.diagram import build_diagram, merge_marks, ray_parameter, split_at_marks
from gbpd.geometry import PointIndex
from gbpd.oracle import rasterize_cells
from gbpd.tolerances import DEDUP_REL

from oracles import (
    NodeScan,
    clip_to_window_per_edge,
    curve_crossings_scalar,
    flatten_piece_scalar,
    line_crossings_scalar,
    piece_point_scalar,
    row_curve,
    row_line,
)

WINDOW = Window(0.0, 0.0, 400.0, 400.0)
SHIFT = (1e5, -1e5)
I = SymMat2.identity()


def bits(values):
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=float))]


def iso(gid, x, y, w=0.0):
    return Generator(gid, (x, y), I, w)


def _case(name):
    """(generators, window) of a named test case."""
    preset, _, shifted = name.partition("+shift")
    if preset in PRESETS:
        gens = random_scene(preset, 12, 3, WINDOW)
        if not shifted:
            return gens, WINDOW
        moved = [Generator(g.id, g.p + np.array(SHIFT), g.M, g.w) for g in gens]
        return moved, Window(SHIFT[0], SHIFT[1], SHIFT[0] + 400.0, SHIFT[1] + 400.0)
    if name == "loop-across-border":
        disk = Generator(0, (0, 0), SymMat2.isotropic(2.0), 1.0)
        return [disk, iso(1, 0, 0)], Window(0, -2, 2, 2)
    if name == "line-through-corners":
        return [iso(0, 0, 0), iso(1, 10, 0)], Window(0, -5, 5, 5)
    if name == "vertex-on-border":
        # the three bisectors meet at (0, 0.25), on the window's left side; one runs inside
        return [iso(0, 0.75, 1.25), iso(1, 0.75, -0.75), iso(2, -1.25, 0.25)], Window(0, -5, 5, 5)
    if name == "dense":
        return random_scene("paper-random", 72, 42, WINDOW), WINDOW
    if name == "loop-inside":
        disk = Generator(0, (0, 0), SymMat2.isotropic(2.0), 1.0)
        return [disk, iso(1, 0, 0)], Window(-2, -2, 2, 2)
    if name.startswith("border-tie"):
        # the bisector x = 0 of generators 0 and 1 runs along the window's left or right side
        window = Window(0, -5, 5, 5) if name == "border-tie-left" else Window(-5, -5, 0, 5)
        return [iso(0, -1, 1), iso(1, 1, 1), iso(2, 0, -1)], window
    assert name == "no-edge-inside"
    return [iso(0, 0, 0), iso(1, 100, 0)], Window(-1, -1, 1, 1)


CASES = [*PRESETS, *(p + "+shift" for p in PRESETS), "loop-across-border",
         "line-through-corners", "vertex-on-border", "no-edge-inside", "dense"]
# more windows for the clip against its per-edge reference: a whole ellipse
# loop inside the window, and a bisector along a window side
CLIP_CASES = [*CASES, "loop-inside", "border-tie-left", "border-tie-right"]


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


@pytest.fixture(scope="module")
def graphs():
    return {name: (build_diagram(_case(name)[0]), _case(name)[1]) for name in CLIP_CASES}


def crossing_bits(found):
    return [(bits([x]), bits(pos), side) for x, pos, side in found]


@pytest.mark.parametrize("name", CASES)
def test_batched_crossings_match_scalar(graphs, name):
    graph, window = graphs[name]
    snap = DEDUP_REL * window.diagonal
    curved = [e for e in graph.edges if e.is_curve()]
    straight = [e for e in graph.edges if not e.is_curve()]
    got_curved = gclip._curve_crossings(graph, curved, window, snap)
    got_straight = gclip._line_crossings(graph, straight, window, snap)
    total = 0
    for e, found in zip(curved, got_curved):
        ref = curve_crossings_scalar(row_curve(graph.table, e.id), e, window, snap)
        assert crossing_bits((x, *at) for x, at in found) == crossing_bits(ref)
        total += len(ref)
    for e, found in zip(straight, got_straight):
        line = row_line(graph.table, e.id, e.line_index)
        ref = line_crossings_scalar(line, e.a0, e.a1, window, snap)
        assert crossing_bits((x, *at) for x, at in found) == crossing_bits(ref)
        total += len(ref)
    assert (total == 0) == (name == "no-edge-inside")
    # an edge's crossings do not depend on the other edges of the batch
    alone = [gclip._curve_crossings(graph, [e], window, snap)[0] for e in curved[::-1]][::-1]
    assert [crossing_bits((x, *at) for x, at in f) for f in alone] == [
        crossing_bits((x, *at) for x, at in f) for f in got_curved
    ]


@pytest.mark.parametrize("name", CASES)
def test_batched_flattening_matches_scalar(graphs, name):
    graph, window = graphs[name]
    cd = clip_to_window(graph, window)
    arcs = [p for p in cd.pieces if p.kind == "arc"]
    # the isotropic preset shares one matrix: its bisectors are lines
    assert arcs or name.startswith(("isotropic", "line-through-corners", "vertex-on-border",
                                    "no-edge-inside"))
    # the raster's px / 20 at 400 px is the second; measure's hole test uses the last
    ftols = [window.width / 10.0, window.width / 400.0 / 20.0, window.width / 800.0 * 0.1,
             DEDUP_REL * graph.length_scale]
    if name == "loop-across-border":
        ftols.append(0.0)  # every span refines to the depth cap
    for ftol in ftols:
        lines = flatten_pieces(cd.graph, cd.pieces, ftol)
        for piece, line in zip(cd.pieces, lines):
            assert bits(line) == bits(flatten_piece_scalar(cd.graph, piece, ftol))
        alone = [flatten_pieces(cd.graph, [p], ftol)[0] for p in cd.pieces[::-1]][::-1]
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
        found, expected = index.near(pos), scan.near(pos)
        got.append(None if found is None else found.id)
        ref.append(None if expected is None else expected.id)
        if expected is None:  # a new node, as the clip adds a crossing
            node = ClipNode(len(scan.nodes), pos, "crossing")
            index.add(node)
            scan.add(node)
    assert got == ref


def node_bits(cd):
    return [(nd.id, nd.kind, bits(nd.pos), None if nd.boundary_s is None else bits([nd.boundary_s]))
            for nd in cd.nodes]


@pytest.mark.parametrize("name", CASES)
def test_clip_nodes_match_scan(graphs, name, monkeypatch):
    graph, window = graphs[name]
    cd = clip_to_window(graph, window)
    monkeypatch.setattr(gclip, "PointIndex", NodeScan)
    ref = clip_to_window(graph, window)
    assert node_bits(cd) == node_bits(ref)
    assert [(p.node_a, p.node_b) for p in cd.pieces] == [(p.node_a, p.node_b) for p in ref.pieces]
    if name == "vertex-on-border":
        # the left side's crossings snap to the vertex, which becomes a boundary
        # node at its place on the border: 2 w + h, then down from the top
        (vertex,) = [nd for nd in cd.nodes if nd.kind == "vertex"]
        assert vertex.boundary_s == 2 * 5 + 10 + (5 - 0.25)
        snap = DEDUP_REL * window.diagonal
        assert all(math.hypot(*(nd.pos - vertex.pos)) > snap for nd in cd.nodes if nd is not vertex)


@pytest.mark.parametrize("name", CASES)
def test_batched_piece_points_match_scalar(graphs, name):
    graph, window = graphs[name]
    cd = clip_to_window(graph, window)
    rng = np.random.default_rng(3)
    rows = [(p, f) for p in cd.pieces for f in (0.0, 1.0, *rng.uniform(0.0, 1.0, 3))]
    got = piece_points(cd.graph, [p for p, _ in rows], np.array([f for _, f in rows]))
    ref = [piece_point_scalar(cd.graph, p, f) for p, f in rows]
    assert bits(got) == bits(ref)


def test_each_piece_flattened_once_per_raster(monkeypatch):
    graph = build_diagram(random_scene("paper-weights", 24, 42, WINDOW))
    cd = clip_to_window(graph, Window(90.0, 100.0, 290.0, 300.0))
    calls = []
    kernel = goracle.flatten_pieces

    def counting(graph_, pieces, ftol):
        calls.append([p.id for p in pieces])
        return kernel(graph_, pieces, ftol)

    monkeypatch.setattr(goracle, "flatten_pieces", counting)
    rasterize_cells(cd, 100, 100)
    uses = [pid for loops in cd.cells.values() for lp in loops for pid, _ in lp]
    assert len(uses) > len(set(uses))  # most pieces border two cells
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted(set(calls[0]))
    assert set(uses) <= set(calls[0])


def clip_bits(cd):
    """Nodes, pieces and cells of a clipped diagram, every float as its hex form."""
    def opt(v):
        return None if v is None else bits(v)
    pieces = [(p.id, p.kind, p.pair, p.edge_id, p.line_index, opt(p.a0), opt(p.a1), p.node_a,
               p.node_b, p.closed, p.left, p.right, opt(p.p0), opt(p.p1)) for p in cd.pieces]
    return node_bits(cd), pieces, cd.cells


@pytest.mark.parametrize("name", CLIP_CASES)
def test_clip_matches_per_edge_reference(graphs, name):
    # the batched probe of crossing-free edges leaves out only edges whose one
    # candidate piece the per-edge loop would drop
    graph, window = graphs[name]
    cd = clip_to_window(graph, window)
    assert clip_bits(cd) == clip_bits(clip_to_window_per_edge(graph, window))
    if name == "loop-inside":
        assert [p.closed for p in cd.pieces if p.kind == "arc"] == [True]
    if name == "no-edge-inside":
        assert all(p.kind == "boundary" for p in cd.pieces)


def test_clip_matches_per_edge_reference_on_reload_queries(reload_query):
    graph, windows = reload_query
    for window in windows:
        cd = clip_to_window(graph, window)
        assert clip_bits(cd) == clip_bits(clip_to_window_per_edge(graph, window))


@pytest.mark.parametrize("seed", range(1010, 1020))
def test_clip_matches_per_edge_reference_on_small_batch(seed):
    for preset in ("paper-random", "paper-weights", "isotropic"):
        graph = build_diagram(random_scene(preset, 16, seed, WINDOW))
        cd = clip_to_window(graph, WINDOW)
        assert clip_bits(cd) == clip_bits(clip_to_window_per_edge(graph, WINDOW))


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
        assert calls[0] >= sum(p.kind != "boundary" for p in cd.pieces) > 0
