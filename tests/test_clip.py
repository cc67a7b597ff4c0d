"""Window clipping: crossings, boundary arcs, per-cell loop assembly."""

import itertools
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from gbpd import Generator, NoSolutionError, SymMat2, Window
from gbpd import clip as gclip
from gbpd import measure as gmeasure
from gbpd.cli import random_scene
from gbpd.clip import NODE_KINDS, PIECE, clip_to_window
from gbpd.conic import points_at_alphas
from gbpd.diagram import build_diagram
from gbpd.measure import measure_cells

from conftest import CLIP_CASES
from oracles import chain_cell, loop_lists, piece_kinds, piece_objects

I = SymMat2.identity()


def iso(gid, x, y, w=0.0):
    return Generator(gid, (x, y), I, w)


def node_kinds(cd):
    return [NODE_KINDS[k] for k in cd.nodes["kind"].tolist()]


def check_well_formed(cd):
    """Structural invariants every clipped diagram must satisfy."""
    p, loops = cd.pieces, cd.loops
    piece, fwd = loops.half["piece"], loops.half["forward"]
    count = np.diff(loops.loop_start)
    # a closed piece is a loop on its own
    closed = p["closed"][piece]
    assert (count[np.repeat(np.arange(count.size), count)][closed] == 1).all()
    # chain closes: consecutive directed pieces share nodes
    nxt = np.arange(piece.size) + 1
    nxt[loops.loop_start[1:] - 1] -= count
    end = np.where(fwd, p["node_b"][piece], p["node_a"][piece])
    start = np.where(fwd, p["node_a"][piece], p["node_b"][piece])
    breaks = np.flatnonzero((end != start[nxt]) & ~closed)
    assert not breaks.size, f"loop breaks at piece {piece[breaks[:1]]}"
    # each border piece bounds one cell, each open bisector piece two
    use = np.bincount(piece, minlength=len(p))
    border = p["edge"] < 0
    assert (use[border] == 1).all(), f"boundary pieces used {use[border]} times"
    assert (use[~border & ~p["closed"]] == 2).all(), f"interior pieces used {use[~border]} times"


def test_single_generator_full_window():
    d = build_diagram([iso(0, 5, 5)])
    cd = clip_to_window(d, Window(0, 0, 10, 8))
    assert len(cd.nodes) == 4
    assert len(cd.pieces) == 4
    assert piece_kinds(cd.pieces) == ["boundary"] * 4 and (cd.pieces["left"] == 0).all()
    cells = loop_lists(cd.loops)
    assert len(cells[0]) == 1
    assert len(cells[0][0]) == 4
    check_well_formed(cd)


def test_two_cells_split_by_line():
    d = build_diagram([iso(0, 0, 0), iso(1, 2, 0)])
    cd = clip_to_window(d, Window(-3, -3, 5, 3))
    crossings = cd.nodes[cd.nodes["kind"] == NODE_KINDS.index("crossing")]
    assert len(crossings) == 2
    assert (abs(crossings["pos"][:, 0] - 1.0) < 1e-9).all()
    (seg,) = cd.pieces[cd.pieces["line"] >= 0]
    assert {int(seg["left"]), int(seg["right"])} == {0, 1}
    cells = loop_lists(cd.loops)
    assert len(cells[0]) == 1 and len(cells[1]) == 1
    check_well_formed(cd)


def test_concentric_hole_loops():
    g0 = Generator(0, (0, 0), SymMat2.isotropic(2.0), 1.0)
    g1 = Generator(1, (0, 0), I, 0.0)
    d = build_diagram([g0, g1])
    cd = clip_to_window(d, Window(-2, -2, 2, 2))
    kinds = piece_kinds(cd.pieces)
    (arc,) = [k for k, kind in enumerate(kinds) if kind == "arc"]
    assert cd.pieces["closed"][arc]
    cells = loop_lists(cd.loops)
    # inner cell: a single loop holding the closed arc
    assert cells[0] == [[(arc, True)]] or cells[0] == [[(arc, False)]]
    # outer cell: the same arc reversed (hole) plus the window border loop
    assert len(cells[1]) == 2
    flat = [entry for loop in cells[1] for entry in loop]
    assert (arc, True) in flat or (arc, False) in flat
    border_loop = [lp for lp in cells[1] if len(lp) == 4]
    assert border_loop and all(kinds[pid] == "boundary" for pid, _ in border_loop[0])
    check_well_formed(cd)
    # orientation: the inner cell's loop is counterclockwise (interior left)
    pid, fwd = cells[0][0][0]
    piece = cd.pieces[pid]
    a = piece["a0"] + 0.25 * (piece["a1"] - piece["a0"])
    rows = [piece["edge"]]
    x, y, vx, vy, singular = points_at_alphas(d.table.chart[rows], d.table.u_scale[rows],
                                              np.array([a]))
    assert not singular[0]
    q, v = (x[0], y[0]), np.array([vx[0], vy[0]])
    if not fwd:
        v = -v
    # CCW around the origin: position x velocity > 0
    assert q[0] * v[1] - q[1] * v[0] > 0


def test_half_disk_when_loop_crosses_border():
    g0 = Generator(0, (0, 0), SymMat2.isotropic(2.0), 1.0)
    g1 = Generator(1, (0, 0), I, 0.0)
    d = build_diagram([g0, g1])
    cd = clip_to_window(d, Window(0, -2, 2, 2))
    crossings = cd.nodes["pos"][cd.nodes["kind"] == NODE_KINDS.index("crossing")]
    crossings = crossings[np.argsort(crossings[:, 1])]
    assert len(crossings) == 2
    assert np.allclose(crossings[0], [0, -1], atol=1e-9)
    assert np.allclose(crossings[1], [0, 1], atol=1e-9)
    cells = loop_lists(cd.loops)
    assert len(cells[0]) == 1
    kinds = piece_kinds(cd.pieces)
    assert sorted(kinds[pid] for pid, _ in cells[0][0]) == ["arc", "boundary"]
    check_well_formed(cd)


def test_equilateral_clip_structure():
    h = 2.0 * math.sqrt(3.0)
    d = build_diagram([iso(0, 0, 0), iso(1, 4, 0), iso(2, 2, h)])
    cd = clip_to_window(d, Window(-2, -2, 6, 6))
    assert node_kinds(cd).count("vertex") == 1
    assert node_kinds(cd).count("crossing") == 3
    cells = loop_lists(cd.loops)
    for gid in range(3):
        assert len(cells[gid]) == 1
    check_well_formed(cd)


def test_window_inside_single_cell_of_pair():
    d = build_diagram([iso(0, 0, 0), iso(1, 100, 0)])
    cd = clip_to_window(d, Window(-1, -1, 1, 1))
    assert set(piece_kinds(cd.pieces)) == {"boundary"}
    cells = loop_lists(cd.loops)
    assert len(cells[0]) == 1
    assert cells[1] == []
    check_well_formed(cd)


def test_random_scene_well_formed():
    rng = np.random.default_rng(19)
    gens = []
    for k in range(12):
        x, y = rng.uniform(0, 100, 2)
        if k % 2:
            th = rng.uniform(0, math.pi)
            a1 = rng.uniform(3, 10) ** 2
            a2 = rng.uniform(1, 3) ** 2
            m = SymMat2(1 / a1, 0, 1 / a2).rotated(th)
        else:
            m = I
        gens.append(Generator(k, (x, y), m, rng.uniform(0, 5)))
    d = build_diagram(gens)
    cd = clip_to_window(d, Window(0, 0, 100, 100))
    check_well_formed(cd)
    # piece endpoints coincide with their node positions
    for end in ("a", "b"):
        nid, pos = cd.pieces["node_" + end], cd.pieces["p0" if end == "a" else "p1"]
        gap = np.hypot(*(cd.nodes["pos"][nid[nid >= 0]] - pos[nid >= 0]).T)
        assert (gap <= 1e-6 * cd.window.diagonal).all()


def test_node_snap_through_corner():
    # bisector x = 5 passes exactly through two window corners
    d = build_diagram([iso(0, 0, 0), iso(1, 10, 0)])
    cd = clip_to_window(d, Window(0, -5, 5, 5))
    # crossings coincide with corners: no separate crossing nodes
    assert "crossing" not in node_kinds(cd)
    check_well_formed(cd)


def test_vertex_within_snap_of_a_corner_takes_the_corner():
    # three unit-distance generators put their vertex at the origin; a corner
    # 1.4e-9 away is within the snap radius, and the crossings beside the
    # vertex snap to that corner, so the vertex must be the corner too
    for angles in ((30, 150, 270), (10, 100, 230), (60, 170, 300)):
        gens = [iso(k, math.cos(math.radians(a)), math.sin(math.radians(a)))
                for k, a in enumerate(angles)]
        d = build_diagram(gens)
        (vertex,) = d.vertices
        assert math.hypot(*vertex.pos) < 1e-15
        for window in (Window(-1e-9, -1e-9, 5, 5), Window(1e-12, 1e-12, 5, 5)):
            cd = clip_to_window(d, window)
            assert "vertex" not in node_kinds(cd)
            check_well_formed(cd)
            total = sum(m.area for m in measure_cells(cd).values())
            assert abs(total - window.area()) <= 1e-12 * window.area()


def test_bisector_along_a_window_side_gives_the_side_to_the_inside_cell():
    # the bisector of generators 0 and 1 is x = 0: on the side x = 0 both
    # are nearest, and the side belongs to the one whose cell lies inside
    d = build_diagram([iso(0, -1, 1), iso(1, 1, 1), iso(2, 0, -1)])
    total = 0.0
    for window, inside in ((Window(0, -5, 5, 5), 1), (Window(-5, -5, 0, 5), 0)):
        cd = clip_to_window(d, window)
        check_well_formed(cd)
        x = window.xmin if inside else window.xmax
        p = cd.pieces
        side = p[(p["edge"] < 0) & (p["p0"][:, 0] == x) & (p["p1"][:, 0] == x)]
        assert len(side) and set(side["left"].tolist()) <= {inside, 2}
        areas = {gid: m.area for gid, m in measure_cells(cd).items()}
        assert areas[1 - inside] == 0.0
        total += sum(areas.values())
    assert abs(total - 100.0) <= 1e-12 * 100.0


def euler_terms(cd):
    """(V - E + F, C) of a clip, by array passes over its record: V its nodes
    in use and one per closed piece, E its pieces, F its cell components and
    C the connected components of its pieces."""
    p = cd.pieces
    closed = p["closed"]
    # a closed piece has no node: it gets a vertex of its own, after the nodes
    own = len(cd.nodes) + np.cumsum(closed) - 1
    a, b = np.where(closed, own, p["node_a"]), np.where(closed, own, p["node_b"])
    size = len(cd.nodes) + int(closed.sum())
    used = np.zeros(size, dtype=bool)
    used[a] = used[b] = True
    links = coo_matrix((np.ones(len(p)), (a, b)), shape=(size, size))
    _, label = connected_components(links, directed=False)
    faces = sum(len(m.components) for m in measure_cells(cd).values())
    return int(used.sum()) - len(p) + faces, np.unique(label[used]).size


def check_loop_orientation(cd):
    """Every cell with loops has one of positive signed area."""
    area, _ = gmeasure._loop_sums(cd.graph, cd.pieces, cd.loops)
    first = cd.loops.cell_start[:-1][np.diff(cd.loops.cell_start) > 0]
    assert (np.maximum.reduceat(area, first) > 0.0).all()


def check_euler_and_orientation(cd):
    euler, components = euler_terms(cd)
    assert euler == components
    check_loop_orientation(cd)


@pytest.mark.parametrize("preset, n", [("paper-random", 72), ("paper-weights", 64),
                                       ("isotropic", 32)])
def test_euler_relation_holds_on_the_clip(preset, n):
    window = Window(0.0, 0.0, 400.0, 400.0)
    check_euler_and_orientation(clip_to_window(build_diagram(random_scene(preset, n, 42, window)),
                                               window))


@pytest.mark.parametrize("name", CLIP_CASES)
def test_euler_and_loop_orientation_on_clip_cases(graphs, name):
    check_euler_and_orientation(clip_to_window(*graphs[name]))


def test_euler_and_loop_orientation_on_reload_queries(reload_query):
    graph, windows = reload_query
    for window in windows:
        check_euler_and_orientation(clip_to_window(graph, window))


# ------------------------------------------------- the walk on synthetic records
#
# No clipped cell of the digest scenes leaves a node by more than one
# half-piece, so these records pin the first-unused rule against the
# object walk: pieces (node a, node b, closed, left cell, right cell).

X, Y, Z = 0, 1, 2
FIGURE_EIGHT = [(X, Y, False, 0, 1), (Y, X, False, 0, 1), (X, Z, False, 0, 1),
                (Z, X, False, 0, 1)]
CLOSED_BESIDE_OPEN = [(X, Y, False, 0, 1), (-1, -1, True, 1, 0), (Y, Z, False, 0, 1),
                      (Z, X, False, 0, 1), (-1, -1, True, 0, 1)]


def synthetic(rows):
    pieces = np.zeros(len(rows), PIECE)
    for name, column in zip(("node_a", "node_b", "closed", "left", "right"), zip(*rows)):
        pieces[name] = column
    return pieces


def reference_walk(cells, pieces):
    objects = piece_objects(pieces)
    return {gid: chain_cell(gid, objects, [(k, True) for k, p in enumerate(objects) if p.left == gid]
                            + [(k, False) for k, p in enumerate(objects) if p.right == gid])
            for gid in cells}


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_walk_matches_reference_through_a_figure_eight(order):
    # both cells leave node X twice; cell 0 walks one loop through it, cell 1
    # splits it in two, or not, by the order of its pieces
    pieces = synthetic([FIGURE_EIGHT[k] for k in order])
    got = loop_lists(gclip._chain([0, 1], pieces))
    assert got == reference_walk([0, 1], pieces)
    assert sum(len(lp) for lp in got[0]) == sum(len(lp) for lp in got[1]) == 4


def test_walk_matches_reference_with_closed_pieces_beside_an_open_loop():
    pieces = synthetic(CLOSED_BESIDE_OPEN)
    got = loop_lists(gclip._chain([0, 1], pieces))
    assert got == reference_walk([0, 1], pieces)
    # the closed pieces are loops of their own, in sorted order among the open one
    assert got[0] == [[(0, True), (2, True), (3, True)], [(1, False)], [(4, True)]]


@pytest.mark.parametrize("cells", [[0, 1], [0], [1]])
def test_unclosed_chain_raises_as_the_reference(cells):
    # the dead end's node leads to no candidate, also past the last of them
    pieces = synthetic([(X, Y, False, 0, 1), (Y, Z, False, 0, 1)])
    with pytest.raises(NoSolutionError, match="boundary chain does not close") as got:
        gclip._chain(cells, pieces)
    with pytest.raises(NoSolutionError) as ref:
        reference_walk(cells, pieces)
    assert str(got.value) == str(ref.value)
