"""Window clipping: crossings, boundary arcs, per-cell loop assembly."""

import math
from collections import Counter

import numpy as np

from gbpd import Generator, SymMat2, Window
from gbpd.clip import clip_to_window
from gbpd.conic import points_at_alphas
from gbpd.diagram import build_diagram

I = SymMat2.identity()


def iso(gid, x, y, w=0.0):
    return Generator(gid, (x, y), I, w)


def check_well_formed(cd):
    """Structural invariants every clipped diagram must satisfy."""
    interior_use = Counter()
    boundary_use = Counter()
    for gid, loops in cd.cells.items():
        for loop in loops:
            # chain closes: consecutive directed pieces share nodes
            for k, (pid, fwd) in enumerate(loop):
                piece = cd.pieces[pid]
                if piece.closed:
                    assert len(loop) == 1
                    continue
                npid, nfwd = loop[(k + 1) % len(loop)]
                np_piece = cd.pieces[npid]
                end = piece.node_b if fwd else piece.node_a
                nxt_start = np_piece.node_a if nfwd else np_piece.node_b
                assert end == nxt_start, f"cell {gid} loop breaks at piece {pid}"
                if piece.kind == "boundary":
                    boundary_use[pid] += 1
                else:
                    interior_use[pid] += 1
    for piece in cd.pieces:
        if piece.kind == "boundary":
            assert boundary_use[piece.id] == 1, f"boundary piece {piece.id} used {boundary_use[piece.id]}x"
        elif not piece.closed:
            assert interior_use[piece.id] == 2, f"interior piece {piece.id} used {interior_use[piece.id]}x"


def test_single_generator_full_window():
    d = build_diagram([iso(0, 5, 5)])
    cd = clip_to_window(d, Window(0, 0, 10, 8))
    assert len(cd.nodes) == 4
    assert len(cd.pieces) == 4
    assert all(p.kind == "boundary" and p.left == 0 for p in cd.pieces)
    assert len(cd.cells[0]) == 1
    assert len(cd.cells[0][0]) == 4
    check_well_formed(cd)


def test_two_cells_split_by_line():
    d = build_diagram([iso(0, 0, 0), iso(1, 2, 0)])
    cd = clip_to_window(d, Window(-3, -3, 5, 3))
    crossings = [n for n in cd.nodes if n.kind == "crossing"]
    assert len(crossings) == 2
    for n in crossings:
        assert abs(n.pos[0] - 1.0) < 1e-9
    segs = [p for p in cd.pieces if p.kind == "segment"]
    assert len(segs) == 1
    assert {segs[0].left, segs[0].right} == {0, 1}
    assert len(cd.cells[0]) == 1 and len(cd.cells[1]) == 1
    check_well_formed(cd)


def test_concentric_hole_loops():
    g0 = Generator(0, (0, 0), SymMat2.isotropic(2.0), 1.0)
    g1 = Generator(1, (0, 0), I, 0.0)
    d = build_diagram([g0, g1])
    cd = clip_to_window(d, Window(-2, -2, 2, 2))
    arcs = [p for p in cd.pieces if p.kind == "arc"]
    assert len(arcs) == 1 and arcs[0].closed
    # inner cell: a single loop holding the closed arc
    assert cd.cells[0] == [[(arcs[0].id, True)]] or cd.cells[0] == [[(arcs[0].id, False)]]
    # outer cell: the same arc reversed (hole) plus the window border loop
    assert len(cd.cells[1]) == 2
    flat = [entry for loop in cd.cells[1] for entry in loop]
    assert (arcs[0].id, True) in flat or (arcs[0].id, False) in flat
    border_loop = [lp for lp in cd.cells[1] if len(lp) == 4]
    assert border_loop and all(cd.pieces[pid].kind == "boundary" for pid, _ in border_loop[0])
    check_well_formed(cd)
    # orientation: the inner cell's loop is counterclockwise (interior left)
    pid, fwd = cd.cells[0][0][0]
    piece = cd.pieces[pid]
    a = piece.a0 + 0.25 * (piece.a1 - piece.a0)
    rows = [piece.edge_id]
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
    crossings = sorted(
        (n for n in cd.nodes if n.kind == "crossing"), key=lambda n: n.pos[1]
    )
    assert len(crossings) == 2
    assert np.allclose(crossings[0].pos, [0, -1], atol=1e-9)
    assert np.allclose(crossings[1].pos, [0, 1], atol=1e-9)
    assert len(cd.cells[0]) == 1
    loop = cd.cells[0][0]
    kinds = sorted(cd.pieces[pid].kind for pid, _ in loop)
    assert kinds == ["arc", "boundary"]
    check_well_formed(cd)


def test_equilateral_clip_structure():
    h = 2.0 * math.sqrt(3.0)
    d = build_diagram([iso(0, 0, 0), iso(1, 4, 0), iso(2, 2, h)])
    cd = clip_to_window(d, Window(-2, -2, 6, 6))
    vnodes = [n for n in cd.nodes if n.kind == "vertex"]
    assert len(vnodes) == 1
    crossings = [n for n in cd.nodes if n.kind == "crossing"]
    assert len(crossings) == 3
    for gid in range(3):
        assert len(cd.cells[gid]) == 1
    check_well_formed(cd)


def test_window_inside_single_cell_of_pair():
    d = build_diagram([iso(0, 0, 0), iso(1, 100, 0)])
    cd = clip_to_window(d, Window(-1, -1, 1, 1))
    assert all(p.kind == "boundary" for p in cd.pieces)
    assert len(cd.cells[0]) == 1
    assert cd.cells[1] == []
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
    for p in cd.pieces:
        for nid, pos in ((p.node_a, p.p0), (p.node_b, p.p1)):
            if nid is None or pos is None:
                continue
            assert math.hypot(*(cd.nodes[nid].pos - pos)) <= 1e-6 * cd.window.diagonal


def test_node_snap_through_corner():
    # bisector x = 5 passes exactly through two window corners
    d = build_diagram([iso(0, 0, 0), iso(1, 10, 0)])
    cd = clip_to_window(d, Window(0, -5, 5, 5))
    # crossings coincide with corners: no separate crossing nodes
    assert all(n.kind != "crossing" for n in cd.nodes)
    check_well_formed(cd)
