"""Batched build kernels against their one-at-a-time forms, bit for bit.

The builder computes bisectors, global minimality, vertex polish, vertex
parameters and the two-nearest visibility test as array operations over
many inputs at once. These properties require the batched results to equal,
float bit for float bit, what the one-input computation gives.
"""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gbpd import diagram, intersect
from gbpd.bisector import (
    _merge_params,
    bisector_implicit,
    bisector_table,
    make_bisector,
    param_of_point,
    params_of_points,
)
from gbpd.cli import PRESETS, random_scene
from gbpd.conic import (
    CLASSES,
    ELLIPSE_CODE,
    HYPERBOLA_CODE,
    PARABOLA_CODE,
    ConicClass,
    ConicImplicit,
    alphas_of_params,
    conic_matrices,
    homogeneous_at_params,
    line_points,
    params_of_alphas,
    points_at_alphas,
    real_quadratic_roots_batch,
    wrap_angles,
)
from gbpd.diagram import (
    EDGE,
    _curve_representatives,
    _dedup_generators,
    _incidences,
    _polish_vertices,
    _recover_params,
    _visible_pieces,
    build_diagram,
    visible_segments,
)
from gbpd.errors import NoSolutionError, SingularParameterError
from gbpd.geometry import Generator, SceneArrays, SymMat2, Window
from gbpd.intersect import (
    _argmax0,
    _TripleOrder,
    globally_minimal,
    pencil_intersections_batch,
    prepare_pairs,
    two_nearest,
)
from gbpd.measure import _point_in_polygon
from gbpd.tolerances import DEDUP_REL, VERT_REL

from test_intersect import pencil_scenes

from oracles import (
    alpha_of_param,
    arc_representative_scalar,
    bisector_frame_scalar,
    boundary_components_union_find,
    edge_segments,
    cluster_sweep,
    full_scan_minimal,
    line_point_scalar,
    mark_list,
    merge_params_scalar,
    param_of_alpha,
    param_of_point_scalar,
    pencil_intersections_point_major,
    point_at_alpha_scalar,
    point_in_polygon_scalar,
    polish_vertices_scalar,
    real_quadratic_roots_scalar,
    recover_params_dict,
    RowLine,
    row_curve,
    sample_points,
    screened_min_point_major,
    split_component,
    two_nearest_point,
    velocity_at_alpha_scalar,
    wrap_angle,
)

WINDOW = Window(0.0, 0.0, 400.0, 400.0)
CURVE_CODES = (ELLIPSE_CODE, HYPERBOLA_CODE, PARABOLA_CODE)


def bits(values):
    return [float(v).hex() for v in values]


def pair_table(gens_i, gens_j):
    """One table whose row k is the bisector of (gens_i[k], gens_j[k])."""
    p = len(gens_i)
    return bisector_table(list(gens_i) + list(gens_j), (np.arange(p), p + np.arange(p)))


def table_row_fields(table, k, count, lo, hi, closed):
    """Every field of row k of a bisector table with its components (count,
    lo, hi, closed), floats as their exact hex form."""
    gi, gj = table.generators[table.first[k]], table.generators[table.second[k]]
    return (
        (gi.id, gj.id),
        CLASSES[table.code[k]],
        bits(table.implicit[k]),
        bits(table.chart[k].ravel()),
        float(table.u_scale[k]).hex(),
        float(table.singular[k]).hex(),
        [bits(ln) for ln in table.lines[k, : table.line_count[k]]],
        [bits((lo[c], hi[c])) for c in range(count)],
        bool(closed),
    )


def row_fields(table):
    """``table_row_fields`` of every row of a table, its components found in one batch."""
    rows = np.arange(table.first.size)
    components = table.components(rows)
    return [table_row_fields(table, k, *(a[k] for a in components)) for k in rows.tolist()]


@st.composite
def scenes(draw):
    """A random preset scene plus a concentric and an equal-matrix generator.

    The extra generators give nested elliptic bisectors (same center, other
    matrix) and straight ones (same matrix, other center); the shift moves
    the scene far from the origin.
    """
    preset = draw(st.sampled_from(PRESETS))
    n = draw(st.integers(min_value=2, max_value=9))
    gens = random_scene(preset, n, draw(st.integers(0, 10_000)), WINDOW)
    g0 = gens[0]
    gens.append(Generator(n, g0.p.copy(), SymMat2(2.0 * g0.M.m11, 0.5 * g0.M.m12, g0.M.m22), 1.0))
    gens.append(Generator(n + 1, g0.p + np.array([37.0, -11.0]), g0.M, g0.w + 2.0))
    shift = draw(st.sampled_from([0.0, 1e6, -3.5e6]))
    if shift:
        gens = [Generator(g.id, g.p + shift, g.M, g.w) for g in gens]
    return gens


@given(scenes(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_batched_bisectors_match_one_pair_at_a_time(gens, rnd):
    pairs = [(gi, gj) for k, gi in enumerate(gens) for gj in gens[k + 1 :]]
    rnd.shuffle(pairs)
    # either order inside a pair: the kernel sorts each pair by id
    pairs = [(gj, gi) if rnd.random() < 0.5 else (gi, gj) for gi, gj in pairs]
    batch = pair_table([p[0] for p in pairs], [p[1] for p in pairs])
    fields = row_fields(batch)
    assert len(fields) == len(pairs)
    for k, (gi, gj) in enumerate(pairs):
        assert fields[k] == row_fields(make_bisector(gi, gj))[0]
        # and the one-pair formulas the kernel vectorizes, for every curve
        implicit, ref = bisector_frame_scalar(gi, gj)
        assert bits(batch.implicit[k]) == bits(implicit)
        if ref is None:
            assert batch.code[k] not in CURVE_CODES
        else:
            xq, yq, uq, singular, name = ref
            assert bits(batch.chart[k, 0].ravel()) == bits((*xq, *yq, *uq))
            # the table keeps s of a hyperbola's (-s, s) and 0 of a parabola's (0,)
            assert float(batch.singular[k]).hex() == float(singular[-1] if singular else 0.0).hex()
            assert CLASSES[batch.code[k]].value == name


@given(scenes(), st.sampled_from([0.0, 1e6]), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_table_rows_match_one_pair_bisectors(gens, shift, rnd):
    # the scene (concentric and equal-matrix generators, shifts up to 3.5e6)
    # plus an isotropic scene of line pairs, moved by 0 or 1e6, in shuffled
    # order: the table orders each pair by id
    iso = random_scene("isotropic", 4, rnd.randrange(10_000), WINDOW)
    gens = gens + [Generator(100 + g.id, g.p + shift, g.M, g.w) for g in iso]
    rnd.shuffle(gens)
    table = bisector_table(gens)
    rows = np.arange(table.first.size)
    assert rows.size == len(gens) * (len(gens) - 1) // 2
    for k, fields in enumerate(row_fields(table)):
        assert fields == row_fields(make_bisector(gens[table.first[k]], gens[table.second[k]]))[0]
    lines = table.line_count > 0
    assert lines.sum() >= 6  # the isotropic pairs at least


def test_batched_bisectors_cover_rank_deficient_pairs():
    # equal matrices give straight bisectors, an equal center and matrix an
    # empty one: both go through the array line split inside a batch
    gens = random_scene("isotropic", 6, 3, WINDOW)
    gens.append(Generator(6, gens[0].p.copy(), gens[0].M, gens[0].w + 1.0))
    firsts, seconds = gens[:5] + [gens[6]], gens[1:6] + [gens[0]]
    batch = pair_table(firsts, seconds)
    assert not np.isin(batch.code, CURVE_CODES).any()
    assert (batch.line_count > 0).tolist() == [True] * 5 + [False]
    for gi, gj, fields in zip(firsts, seconds, row_fields(batch)):
        assert fields == row_fields(make_bisector(gi, gj))[0]
    assert row_fields(pair_table([], [])) == []


@st.composite
def candidate_sets(draw):
    """Scene, candidate points and triples, with ties and near-threshold gaps.

    ``paper-weights`` scenes have weights in (-1, 3), so points near a
    center have negative distances. A copy of one generator with its weight
    lowered by delta is delta farther than the original everywhere, which
    puts candidates whose triple holds the copy right around the
    vert_rel (1 + |d_min|) threshold.
    """
    n = draw(st.integers(min_value=3, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    gens = random_scene("paper-weights", n, int(rng.integers(1 << 30)), WINDOW)
    centers = np.array([g.p for g in gens])
    near = centers[rng.integers(n, size=20)] + rng.normal(scale=0.3, size=(20, 2))
    pts = np.concatenate([rng.uniform(0.0, 400.0, size=(40, 2)), near])
    arr0 = SceneArrays(gens)
    d = arr0.dist(pts)
    nearest = np.argsort(d, axis=1)
    x0 = int(rng.integers(pts.shape[0]))
    k0 = int(nearest[x0, 0])
    factor = draw(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 2.001, 3.0]))
    delta = factor * VERT_REL * (1.0 + abs(float(d[x0, k0])))
    g = gens[k0]
    gens.append(Generator(n, g.p.copy(), g.M, g.w - delta))
    arr = SceneArrays(gens)
    # random triples, the three nearest, and the shifted copy with two far ones
    rand = np.array([np.sort(rng.choice(n, size=3, replace=False)) for _ in pts])
    best = np.sort(nearest[:, :3], axis=1)
    probe = np.array([[int(nearest[x0, -2]), int(nearest[x0, -1]), n]])
    cand = np.concatenate([pts, pts, pts[x0 : x0 + 1]])
    trip = np.concatenate([rand, best, probe]).astype(np.int64)
    return cand, trip, arr


def farthest_grid(arr):
    """``arr.winner_grid`` with the farthest generator at every node: the
    likely-winner test then drops as few candidates as it can."""
    lo, step, winner = arr.winner_grid
    iy, ix = np.indices(winner.shape)
    nodes = np.column_stack([(lo[0] + ix * step[0]).ravel(), (lo[1] + iy * step[1]).ravel()])
    return lo, step, arr.dist(nodes).argmax(axis=1).reshape(winner.shape)


@given(candidate_sets())
@settings(max_examples=80, deadline=None)
def test_early_exit_filter_matches_full_scan(case):
    # with the likely winners of the scene's own grid, then with the
    # farthest generator at every node
    cand, trip, arr = case
    keep = globally_minimal(cand, trip, arr)
    assert keep.tolist() == full_scan_minimal(cand, trip, arr).tolist()
    arr.winner_grid = farthest_grid(arr)
    assert globally_minimal(cand, trip, arr).tolist() == keep.tolist()
    # the three nearest generators always pass
    half = (cand.shape[0] - 1) // 2
    assert keep[half : 2 * half].all()


def test_minimality_screen_evaluates_few_distances_per_candidate(monkeypatch):
    # the benchmark's dense scene (paper-random n=72, seed 42): every
    # distance the minimality screen evaluates, over its 181,748 candidates;
    # the block scan alone took 19.9 per candidate, the likely winner first
    # takes about 6.35
    counts = {"distances": 0, "candidates": 0}
    screening = False
    lane_dist = SceneArrays.lane_dist

    def counted(self, x, y, cols):
        out = lane_dist(self, x, y, cols)
        counts["distances"] += out.size if screening else 0
        return out

    def screen(cand, trip, arr):
        nonlocal screening
        counts["candidates"] += cand.shape[0]
        screening = True
        try:
            return globally_minimal(cand, trip, arr)
        finally:
            screening = False

    monkeypatch.setattr(SceneArrays, "lane_dist", counted)
    monkeypatch.setattr(intersect, "globally_minimal", screen)
    build_diagram(random_scene("paper-random", 72, 42, WINDOW))
    assert counts["candidates"] == 181_748
    assert counts["distances"] <= 7 * counts["candidates"]


def test_visibility_screen_evaluates_few_distances_per_point(monkeypatch):
    # the benchmark's dense scene (paper-random n=72, seed 42): every
    # distance the visibility pass evaluates, over the points it screens;
    # without the likely winner first the block scan took 28.3 per point
    counts = {"distances": 0, "points": 0}
    screening = False
    lane_dist, visible_pieces, nearest = SceneArrays.lane_dist, diagram._visible_pieces, two_nearest

    def counted(self, x, y, cols):
        out = lane_dist(self, x, y, cols)
        counts["distances"] += out.size if screening else 0
        return out

    def visible(*args):
        nonlocal screening
        screening = True
        try:
            return visible_pieces(*args)
        finally:
            screening = False

    def screen(points, pair, arr):
        counts["points"] += points.shape[0]
        return nearest(points, pair, arr)

    monkeypatch.setattr(SceneArrays, "lane_dist", counted)
    monkeypatch.setattr(diagram, "_visible_pieces", visible)
    monkeypatch.setattr(diagram, "two_nearest", screen)
    build_diagram(random_scene("paper-random", 72, 42, WINDOW))
    assert counts["points"] > 0
    assert counts["distances"] <= 16 * counts["points"]


@pytest.mark.parametrize("scene", ["merging", "dense"])
def test_vertex_clusters_match_the_open_cluster_sweep(scene, monkeypatch):
    # merging: the four centres on one circle give four candidates at its
    # centre, which are one vertex of degree 4; dense: the benchmark's n=72
    # scene, whose candidates are all apart
    if scene == "merging":
        centres = [(0, 0), (4, 0), (4, 4), (0, 4), (9, 1), (-3, 6)]
        gens = [Generator(k, c, SymMat2.identity(), 0.0) for k, c in enumerate(centres)]
    else:
        gens = random_scene("paper-random", 72, 42, WINDOW)
    chunks, clusters = [], []
    candidate_chunk, cluster = intersect._candidate_chunk, diagram._cluster_vertices

    def recorded(*args):
        chunks.append(candidate_chunk(*args))
        return chunks[-1]

    def clustered(kept, cand, trip, length_scale):
        out = cluster(kept, cand, trip, length_scale)
        # the polish replaces positions afterwards; keep the clustered ones
        clusters.append(([g.id for g in kept], length_scale,
                         [(bits(v.pos), sorted(v.gens)) for v in out]))
        return out

    monkeypatch.setattr(intersect, "_candidate_chunk", recorded)
    monkeypatch.setattr(diagram, "_cluster_vertices", clustered)
    build_diagram(gens)
    ((ids, length_scale, got),) = clusters
    cand, trip = (np.concatenate([c[k] for c in chunks]) for k in (0, 1))
    want = cluster_sweep(cand, trip, ids, DEDUP_REL * length_scale)
    assert got == [(bits(pos), sorted(members)) for pos, members in want]
    if scene == "merging":
        assert (len(cand), sorted(len(m) for _, m in got)) == (7, [3, 3, 3, 4])
    else:
        assert len(got) == len(cand)


@given(st.integers(1, 9), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_lane_argmax_matches_numpy(rows, lanes, data):
    # ties, signed zeros, infinities and nans, in every position of the first axis
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan])
    a = np.array(data.draw(st.lists(values, min_size=rows * lanes * 2, max_size=rows * lanes * 2)))
    a = a.reshape(rows, lanes, 2)
    assert _argmax0(a).tolist() == a.argmax(axis=0).tolist()


def assert_same_pencil(d1, d2, prep):
    got = pencil_intersections_batch(d1, d2, prep)
    want = pencil_intersections_point_major(d1, d2, prep)
    assert got[0].shape == want[0].shape and got[1].shape == want[1].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])


@given(pencil_scenes())
@settings(max_examples=60, deadline=None)
def test_lane_major_pencil_matches_point_major(scene):
    # line, concentric line-pair and curve bisectors, far from the origin,
    # each conic paired with every other one in both orders
    gens, length_scale, center = scene
    mats = [bisector_implicit(gi, gj).matrix3() for gi, gj in itertools.combinations(gens, 2)]
    prep = prepare_pairs(np.array(mats), length_scale, center)
    d1, d2 = np.array([(r1, r2) for r1 in range(len(mats)) for r2 in range(len(mats))
                       if r1 != r2]).T
    assert_same_pencil(d1, d2, prep)


def test_lane_major_pencil_matches_point_major_on_the_dense_scene():
    # the first chunk of the benchmark's dense build (paper-random n=72, seed 42)
    kept, _ = _dedup_generators(random_scene("paper-random", 72, 42, WINDOW))
    arr = SceneArrays(kept)
    center = (0.5 * (arr.px.min() + arr.px.max()), 0.5 * (arr.py.min() + arr.py.max()))
    table = bisector_table(kept)
    prep = prepare_pairs(conic_matrices(table.implicit), arr.scale(), center)
    trip = _TripleOrder(len(kept)).rows(0, 8192)
    pair_row = table.pair_rows()
    assert_same_pencil(pair_row[trip[:, 0], trip[:, 1]], pair_row[trip[:, 0], trip[:, 2]], prep)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 40])
@pytest.mark.parametrize("skipping", [False, True])
def test_screened_min_matches_point_major(n, skipping):
    # one generator block, a block and one column, and a few blocks; each
    # point with bounds at its minimum, on the drop threshold of the full
    # minimum, one ulp either side of it, and well past it; with the grid's
    # own likely winners, a random generator at each node (at times a
    # skipped one) and the farthest one
    rng = np.random.default_rng(n)
    arr = SceneArrays(random_scene("paper-weights", n, 1000 + n, WINDOW))
    pts = rng.uniform(0.0, 400.0, size=(60, 2))
    d = arr.dist(pts)
    skip = np.sort(rng.integers(n, size=(60, 2)), axis=1) if skipping else None
    lo, step, winner = arr.winner_grid
    grids = [arr.winner_grid, (lo, step, rng.integers(n, size=winner.shape)), farthest_grid(arr)]
    if skipping:
        d[np.arange(60)[:, None], skip] = np.inf
    d_min = d.min(axis=1)
    edge = d_min + 2.0 * VERT_REL * (1.0 + np.abs(d_min))
    bound = np.concatenate([d_min, edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf),
                            d_min + 1.0])
    pts, d_min = np.tile(pts, (5, 1)), np.tile(d_min, 5)
    skip = None if skip is None else np.tile(skip, (5, 1))
    for grid in grids:
        arr.winner_grid = grid
        # n = 1 with a skip leaves no generator: d and the bounds are inf
        with np.errstate(invalid="ignore"):
            alive, m = arr.screened_min(pts, bound, skip)
            want_alive, want_m = screened_min_point_major(arr, pts, bound, skip)
        assert alive.tolist() == want_alive.tolist()
        assert m.tobytes() == want_m.tobytes()
        # the survivors carry the full minimum, and at least every point
        # bounded by it survives
        assert m.tobytes() == d_min[alive].tobytes()
        assert set(range(60)) <= set(alive.tolist())


@given(
    st.sampled_from(PRESETS),
    st.integers(2, 40),
    st.integers(0, 10_000),
    st.sampled_from([None, 0.5, 0.999, 1.0, 1.001, 2.0]),
)
@settings(max_examples=60, deadline=None)
def test_batched_two_nearest_matches_per_point(preset, n, seed, factor):
    # past 16 generators the scan runs in several blocks, so a pair's own
    # columns (skipped) and a point's drop can fall in a later block
    gens = random_scene(preset, n, seed, WINDOW)
    rng = np.random.default_rng(seed)
    pairs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False)) for _ in range(3)]
    # points on the (i, j) bisector are where the decision is close
    curves = [
        np.array(sample_points(make_bisector(gens[i], gens[j]), 0, count=32))
        .reshape(-1, 2) for i, j in pairs
    ]
    if factor is not None and curves[0].size:
        # a copy of generator i that is delta nearer everywhere: at the first
        # point on the (i, j) bisector, delta is factor times the vert_rel
        # threshold, so that point and its neighbours sit right around it
        i, j = pairs[0]
        d = float(SceneArrays(gens).dist(curves[0][:1])[0, i])
        delta = factor * VERT_REL * (1.0 + abs(d))
        gens.append(Generator(n, gens[i].p.copy(), gens[i].M, gens[i].w + delta))
        pairs += [pairs[0], (n, j)]
        curves += [curves[0][:1], curves[0]]
    arr = SceneArrays(gens)
    pts, idx_i, idx_j = [], [], []
    for (i, j), on_curve in zip(pairs, curves):
        rows = np.concatenate([rng.uniform(-50.0, 450.0, size=(10, 2)), on_curve])
        pts.append(rows)
        idx_i += [i] * rows.shape[0]
        idx_j += [j] * rows.shape[0]
    pts = np.concatenate(pts)
    got = two_nearest(pts, np.column_stack([idx_i, idx_j]), arr)
    ref = [bool(two_nearest_point(p, i, j, arr)) for p, i, j in zip(pts, idx_i, idx_j)]
    assert got.tolist() == ref
    # one pair for every point
    assert two_nearest(pts, np.tile([idx_i[0], idx_j[0]], (len(pts), 1)), arr).tolist() == [
        bool(two_nearest_point(p, idx_i[0], idx_j[0], arr)) for p in pts
    ]


@pytest.mark.parametrize("n", range(13))
def test_triple_arrays_match_combinations(n):
    # the rank ranges of any chunk count, each built on its own, concatenate
    # to all triples in lexicographic order, cut as np.array_split cuts them
    ref = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    order = _TripleOrder(n)
    assert order.count == ref.shape[0]
    for parts in sorted({1, 2, 7, order.count} - {0}):
        ranges = order.ranges(parts)
        assert len(ranges) == parts
        chunks = [order.rows(lo, hi) for lo, hi in ranges]
        assert all(c.dtype == np.int64 and c.shape == (hi - lo, 3)
                   for c, (lo, hi) in zip(chunks, ranges))
        got = np.concatenate(chunks)
        assert (got == ref).all()
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == [len(c) for c in np.array_split(ref, parts)]
    assert order.ranges(0) == []


# ------------------------------------------------------- parameter recovery


def test_batched_quadratic_roots_match_scalar():
    rng = np.random.default_rng(5)
    rows = [
        (0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (0.0, 3.0, -1.5), (1e-15, 3.0, -1.5),
        (1.0, -2.0, 1.0), (1.0, 0.0, 1.0), (1.0, 0.0, -4.0), (-0.0, -0.0, 1.0),
        (2.0, 0.0, 0.0), (1e-300, 1e-300, 1e-300), (1.0, 1e8, 1.0),
        (3.0, 0.0, -7.0), (3.0, -0.0, -7.0),
    ] + [tuple(r) for r in rng.normal(size=(200, 3)) * rng.choice([1e-6, 1.0, 1e6], size=(200, 1))]
    a, b, c = np.array(rows).T
    roots, ok, inf_root, everywhere = real_quadratic_roots_batch(a, b, c)
    for k, row in enumerate(rows):
        ref_roots, ref_inf, ref_everywhere = real_quadratic_roots_scalar(*row)
        assert [float(r).hex() for r in roots[k][ok[k]]] == [float(r).hex() for r in ref_roots]
        assert (bool(inf_root[k]), bool(everywhere[k])) == (ref_inf, ref_everywhere)


def test_batched_angle_maps_match_scalar():
    rng = np.random.default_rng(9)
    alpha = np.concatenate([
        [0.0, -0.0, math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, 0.5 * math.pi, 1e6, -7.25],
        rng.uniform(-20.0, 20.0, size=300),
    ])
    assert bits(wrap_angles(alpha)) == bits(wrap_angle(a) for a in alpha.tolist())
    assert bits(params_of_alphas(alpha)) == bits(param_of_alpha(a) for a in alpha.tolist())
    t = np.concatenate([[math.inf, -math.inf, 0.0, 1.0, -1.0], np.tan(alpha)])
    assert bits(alphas_of_params(t)) == bits(alpha_of_param(v) for v in t.tolist())
    # points and velocities of a hyperbola, singular parameters included
    hyp = make_bisector(*random_scene("paper-random", 2, 3, WINDOW))
    assert CLASSES[hyp.code[0]] is ConicClass.HYPERBOLA
    s = float(hyp.singular[0])
    probe = np.concatenate([alpha, [alpha_of_param(-s), alpha_of_param(s)]])
    p = row_curve(hyp, 0)
    x, y, vx, vy, singular = points_at_alphas(
        np.repeat(hyp.chart, probe.size, axis=0), np.full(probe.size, p.u_scale), probe
    )
    assert singular[-2:].all()
    for k, a in enumerate(probe.tolist()):
        try:
            q, v = point_at_alpha_scalar(p, a), velocity_at_alpha_scalar(p, a)
        except SingularParameterError:
            assert singular[k]
            continue
        assert not singular[k]
        assert bits((x[k], y[k], vx[k], vy[k])) == bits((*q, *v))


@given(st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(-1e6, 1e6),
                          st.floats(-1e15, 1e15)), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_line_points_match_scalar(rows):
    lines = np.array([(math.cos(th), math.sin(th), c) for th, c, _ in rows])
    t = np.array([r[2] for r in rows])
    got = line_points(lines, t)
    for k, tk in enumerate(t.tolist()):
        assert bits(got[k]) == bits(line_point_scalar(RowLine(*lines[k].tolist()), tk))


def far_point(table, k):
    """The point at t = inf of curve row k (never singular)."""
    x, y, u = (v[0, 0] for v in homogeneous_at_params(table.chart[[k]], np.array([[math.inf]])))
    return np.array([x / u, y / u])


def recovery_probes(table, k, rng):
    """Points to recover on curve row k: samples, its far point, points near
    singular parameters (the ends of its open components), and points pushed
    off the curve."""
    pts = list(sample_points(table, k, count=24))
    pts.append(far_point(table, k))
    count, lo, _, closed = (a[0] for a in table.components(np.array([k])))
    ends = [] if closed else lo[:count].tolist()
    alpha = np.array([a + d for a in ends for d in (1e-2, -1e-2, 1e-3, -1e-3, 1e-4, -1e-4)])
    x, y, _, _, singular = points_at_alphas(np.repeat(table.chart[[k]], alpha.size, axis=0),
                                            np.full(alpha.size, table.u_scale[k]), alpha)
    pts += list(np.column_stack([x, y])[~singular])
    c = ConicImplicit(*table.implicit[k])
    off = []
    for q in pts[:6]:
        g = c.gradient(q[0], q[1])
        off.append(q + 5.0 * g / math.hypot(g[0], g[1]) + rng.normal(scale=0.1, size=2))
    return pts, off


def certainly_off(c, q, eps):
    """True when no point of the conic c lies within eps of q.

    |F| changes by at most eps (|grad F(q)| + 2 |A| eps) over an eps-disk,
    with |A| a bound on the quadratic part's norm; a factor 2 covers rounding.
    """
    g = c.gradient(q[0], q[1])
    quad_norm = abs(c.a11) + 2.0 * abs(c.a12) + abs(c.a22)
    bound = 2.0 * eps * (math.hypot(g[0], g[1]) + 2.0 * quad_norm * eps)
    return abs(c.evaluate(q[0], q[1])) > bound


def as_bits(ts, found):
    return [None if not f.any() else bits(t[f]) for t, f in zip(ts, found)]


@given(scenes(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_batched_param_recovery_matches_scalar(gens, seed):
    rng = np.random.default_rng(seed)
    eps = 1e-7 * (1.0 + SceneArrays(gens).scale())
    # every pair with the first generator (concentric and equal-matrix ones
    # included) and every consecutive pair
    firsts, seconds = [gens[0]] * (len(gens) - 1) + gens[1:-1], gens[1:] + gens[2:]
    table = pair_table(firsts, seconds)
    rows, points, must_miss = [], [], []
    for k in np.flatnonzero(np.isin(table.code, CURVE_CODES)).tolist():
        on, off = recovery_probes(table, k, rng)
        rows += [k] * (len(on) + len(off))
        points += on + off
        c = ConicImplicit(*table.implicit[k])
        must_miss += [False] * len(on) + [certainly_off(c, q, eps) for q in off]
    if not points:
        return
    points = np.array(points)
    coef, u_scale = table.chart[rows], table.u_scale[rows]
    got = as_bits(*params_of_points(coef, u_scale, points, eps))
    ref = []
    for k, q in zip(rows, points):
        r = param_of_point_scalar(row_curve(table, k), q, eps)
        ref.append(None if r is None else bits(r))
    assert got == ref
    assert all(g is None for g, m in zip(got, must_miss) if m)
    assert any(g is not None for g in got)
    # the batch reversed, and batches of one
    backwards = params_of_points(coef[::-1], u_scale[::-1], points[::-1], eps)
    assert as_bits(*backwards) == got[::-1]
    for k, q, g in zip(rows, points, got):
        try:
            one = bits(param_of_point(table, k, q, eps))
        except NoSolutionError:
            one = None
        assert one == g


@given(st.lists(st.sampled_from([
    math.inf, -math.inf, 0.0, -0.0, 1e-12, -1e-12, 0.3, 0.3 + 1e-12, 0.3 * (1.0 + 2e-9),
    1e12, -1e12, 1e15, -1e15, 3e9, -3e9, math.tan(0.5 * math.pi - 1e-11),
]), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_batched_merge_matches_scalar(accepted):
    # rows as the kernel hands them over: sorted by alpha, found entries first
    order = sorted(range(len(accepted)), key=lambda k: alpha_of_param(accepted[k]))
    ts = np.full((1, 5), math.nan)
    alphas = np.full((1, 5), math.inf)
    ts[0, : len(order)] = [accepted[k] for k in order]
    alphas[0, : len(order)] = [alpha_of_param(accepted[k]) for k in order]
    found = np.arange(5)[None, :] < len(order)
    keep = _merge_params(ts, alphas, found)
    assert bits(ts[0][keep[0]]) == bits(merge_params_scalar(accepted))


def test_param_recovery_far_from_origin_and_at_the_far_point():
    # shifted copies of one scene: every recovery agrees with the scalar form
    for shift in (0.0, 1e6, -3.5e6):
        scene = random_scene("paper-weights", 6, 4, WINDOW)
        gens = [Generator(g.id, g.p + shift, g.M, g.w) for g in scene]
        eps = 1e-7 * (1.0 + SceneArrays(gens).scale())
        table = pair_table(gens[:-1], gens[1:])
        assert np.isin(table.code, CURVE_CODES).all()
        for k in range(table.first.size):
            far = far_point(table, k)
            ts, found = params_of_points(table.chart[[k]], table.u_scale[[k]], far[None], eps)
            ref = param_of_point_scalar(row_curve(table, k), far, eps)
            assert as_bits(ts, found) == [bits(ref)]
            assert math.inf in ts[0][found[0]].tolist()


# ------------------------------------------------------------------ polish


def all_pairs(gens):
    """The bisector table of a scene's generators (aliases dropped, as the
    build drops them) and its pair rows."""
    table = bisector_table(_dedup_generators(list(gens))[0])
    return table, table.pair_rows()


def recover_columns(vertices, table, pair_row, eps):
    """``_recover_params`` of the vertices on the pairs of their generators."""
    return _recover_params(vertices, table, *_incidences(vertices, table, pair_row), eps)


def mark_hexes(columns):
    """Mark columns (row, component, position, vertex id) as tuples, positions as hex."""
    return [(int(r), int(c), float(x).hex(), int(v)) for r, c, x, v in zip(*columns)]


def incident_implicits(table, pair_row, vertices):
    """The implicit conics of the table rows of every pair of each vertex's
    generators, by generator id pair: the pairs the build polishes on."""
    _, rows = _incidences(vertices, table, pair_row)
    ids = [g.id for g in table.generators]
    return {(ids[table.first[r]], ids[table.second[r]]): ConicImplicit(*table.implicit[r])
            for r in np.unique(rows).tolist()}


def assert_polish_matches_scalar(gens, vertices, length_scale):
    """The batched polish of ``vertices`` on the table rows equals the scalar
    polish on the implicit conics of the same pairs, bit for bit."""
    table, pair_row = all_pairs(gens)
    batch, scalar = np.array([v.pos for v in vertices]), copy.deepcopy(vertices)
    _polish_vertices(batch, table, *_incidences(vertices, table, pair_row), length_scale)
    polish_vertices_scalar(scalar, incident_implicits(table, pair_row, vertices), length_scale)
    assert [bits(p) for p in batch] == [bits(v.pos) for v in scalar]


@given(scenes(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_batched_polish_matches_scalar(gens, seed):
    graph = build_diagram(gens)
    if not graph.vertices:
        return
    rng = np.random.default_rng(seed)
    # push the vertices off; the larger pushes exceed the step bound and stay put
    moved = []
    for v, scale in zip(graph.vertices, itertools.cycle([1e-9, 1e-6, 1e-2, 10.0])):
        w = copy.copy(v)
        w.pos = v.pos + rng.normal(size=2) * scale * graph.length_scale
        moved.append(w)
    assert_polish_matches_scalar(gens, moved, graph.length_scale)


@pytest.mark.parametrize("turn", [0.0, 0.3, 0.7])
def test_batched_polish_handles_many_generator_vertices(turn):
    # four equal circles on a turned square meet in one vertex of four
    # generators; its six line bisectors tie in gradient sine, and at a turn
    # of 0.7 the tied pairs polish to different floats, so the first must win
    center = np.array([5.3, 2.7])
    angles = [turn + k * math.pi / 2 for k in range(4)]
    corners = [center + 7.0 * np.array([math.cos(a), math.sin(a)]) for a in angles]
    gens = [Generator(k, p, SymMat2.identity(), 0.0) for k, p in enumerate(corners)]
    gens.append(Generator(4, center + np.array([30.0, 4.0]), SymMat2.identity(), 0.0))
    graph = build_diagram(gens)
    four = max(graph.vertices, key=lambda v: len(v.gens))
    assert len(four.gens) == 4
    table, pair_row = all_pairs(gens)
    pairs = incident_implicits(table, pair_row, [four])
    assert sorted(pairs) == list(itertools.combinations(range(4), 2))
    moved = copy.deepcopy(graph.vertices)
    for v in moved:
        v.pos = v.pos + np.array([1e-7, -2e-7])
    assert_polish_matches_scalar(gens, moved, graph.length_scale)


# -------------------------------------------------------------- visibility


def edge_fields(edges):
    """Each EDGE row's fields, floats as hex (a null label as nan)."""
    return [(tuple(pair), kind, bits([t_a, t_b]), (na, nb), comp, line, bits([a0, a1]))
            for pair, kind, t_a, t_b, na, nb, comp, line, a0, a1 in zip(
                edges["pair"].tolist(), *(edges[name].tolist() for name in EDGE.names[1:]))]


@given(scenes())
@settings(max_examples=25, deadline=None)
def test_cross_bisector_visibility_matches_per_bisector(gens):
    # the one pass over every table row, on the mark columns, against
    # per-pair batches of one on the dict-form marks, and against the build
    graph = build_diagram(gens)
    table, pair_row = all_pairs(gens)
    arr = SceneArrays(table.generators)
    eps = 1e-7 * (1.0 + graph.length_scale)
    marks = recover_params_dict(graph.vertices, table, pair_row, eps)[0]
    columns, _ = recover_columns(graph.vertices, table, pair_row, eps)
    assert mark_hexes(columns) == mark_hexes(zip(*mark_list(marks, table)))
    each = [
        fields
        for row, (i, j) in enumerate(zip(table.first.tolist(), table.second.tolist()))
        for fields in edge_fields(visible_segments(table.generators[i], table.generators[j],
                                                   marks.get(row, {}), arr, graph.length_scale))
    ]
    together, together_rows, _ = _visible_pieces(table, np.arange(table.first.size), columns, arr,
                                                 graph.length_scale)
    assert edge_fields(together) == each
    assert edge_fields(graph.edges) == each
    # row k of the graph's table is the full table's row of edge k's pair
    rows = np.array([pair_row[arr.id_to_index[i], arr.id_to_index[j]]
                     for i, j in graph.edges["pair"].tolist()], dtype=np.int64).reshape(-1)
    assert together_rows.tolist() == rows.tolist()
    mine, full = graph.table.components(np.arange(rows.size)), table.components(rows)
    assert [table_row_fields(graph.table, k, *(a[k] for a in mine)) for k in range(rows.size)] == [
        table_row_fields(table, r, *(a[k] for a in full)) for k, r in enumerate(rows.tolist())]


def test_tracer_bound_wrappers_match_their_kernels():
    # make_bisector, param_of_point and visible_segments stay for the span
    # tracer; each is a batch of one of its kernel, bit for bit
    gens = random_scene("paper-weights", 7, 4, WINDOW)
    graph = build_diagram(gens)
    table, pair_row = all_pairs(gens)
    arr = SceneArrays(table.generators)
    full = row_fields(table)
    for k, (i, j) in enumerate(zip(table.first.tolist(), table.second.tolist())):
        gi, gj = table.generators[i], table.generators[j]
        assert row_fields(make_bisector(gj, gi)) == row_fields(bisector_table([gi, gj]))
        assert row_fields(make_bisector(gi, gj)) == [full[k]]
    # recovery of every vertex on its curved bisectors, and of points off them
    eps = 1e-7 * (1.0 + graph.length_scale)
    owner, rows = _incidences(graph.vertices, table, pair_row)
    curve = np.isin(table.code[rows], CURVE_CODES)
    points = np.array([v.pos for v in graph.vertices])[owner[curve]]
    points = np.concatenate([points, points + 1.0])
    rows = np.concatenate([rows[curve], rows[curve]])
    ts, found = params_of_points(table.chart[rows], table.u_scale[rows], points, eps)
    hit = found.any(axis=1)
    assert curve.sum() > 0 and hit[: curve.sum()].all() and not hit[curve.sum() :].any()
    for k, q, t, f in zip(rows.tolist(), points, ts, found):
        if f.any():
            assert bits(param_of_point(table, k, q, eps)) == bits(t[f])
        else:
            with pytest.raises(NoSolutionError):
                param_of_point(table, k, q, eps)
    # visibility of every pair with its vertex marks, and the default length
    # scale: the wrapper's dict-form marks against the recovery's columns
    marks = recover_params_dict(graph.vertices, table, pair_row, eps)[0]
    columns, _ = recover_columns(graph.vertices, table, pair_row, eps)
    for k, (i, j) in enumerate(zip(table.first.tolist(), table.second.tolist())):
        one = make_bisector(table.generators[i], table.generators[j])
        mine = columns[0] == k
        row_marks = (np.zeros(mine.sum(), dtype=np.int64), *(c[mine] for c in columns[1:]))
        kernel, _, _ = _visible_pieces(one, np.zeros(1, dtype=np.int64), row_marks, arr,
                                       arr.scale())
        wrapped = visible_segments(table.generators[i], table.generators[j], marks.get(k, {}),
                                   table.generators)
        assert edge_fields(wrapped) == edge_fields(kernel)


def test_line_probes_follow_the_ray_rule():
    # the isotropic preset's bisectors are lines: each split line piece is
    # probed at the reference split's ray_parameter, a whole line at t = 0
    gens = random_scene("isotropic", 16, 1010, WINDOW)
    graph = build_diagram(gens)
    table, pair_row = all_pairs(gens)
    marks = recover_params_dict(graph.vertices, table, pair_row,
                                1e-7 * (1.0 + graph.length_scale))[0]
    pieces = []  # (t0, t1, probe), by row and component
    for row in range(table.first.size):
        for c in range(int(table.line_count[row])):
            split = split_component(marks.get(row, {}).get(c, []), -math.inf, math.inf, False,
                                    True)
            pieces += [(p[0], p[1], p[4]) for p in split] or [(-math.inf, math.inf, 0.0)]
    # whole lines, rays from both ends, and segments between vertices
    assert {(math.isinf(p[0]), math.isinf(p[1])) for p in pieces} == {
        (True, True), (True, False), (False, True), (False, False)}
    calls = []
    points = diagram.line_points
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagram, "line_points", lambda rows, t: calls.append(t) or points(rows, t))
        build_diagram(gens)
    assert len(calls) == 1 and bits(calls[0]) == bits(p[2] for p in pieces)


def components_of(b):
    """(count, lo (2,), hi (2,), closed) of the one row of a one-row table."""
    return tuple(a[0] for a in b.components(np.zeros(1, dtype=np.int64)))


def lopsided_case():
    """A hyperbola branch split by a vertex mark just past its singular start.

    The piece's midpoint lies beyond the 1e6 (1 + length_scale) limit, and
    a probe closer to the mark gives its representative. Returns the
    generators, their one-row bisector table and the vertex parameters.
    """
    gens = [
        Generator(0, (0, 0), SymMat2(2.0, 0.0, 0.5), 0.0),
        Generator(1, (3, 0), SymMat2.identity(), 0.0),
    ]
    b = make_bisector(*gens)
    lo_alpha = float(components_of(b)[1][0])
    limit = 2e6  # length_scale 1

    def reach(d):
        x, y, _, _, singular = points_at_alphas(b.chart, b.u_scale, np.array([lo_alpha + d]))
        assert not singular[0]
        return max(abs(x[0]), abs(y[0]))

    near, far = 1e-12, 1e-1
    for _ in range(100):  # reach(d) falls as d grows; aim at 1.5 limit
        mid = math.sqrt(near * far)
        near, far = (mid, far) if reach(mid) > 1.5 * limit else (near, mid)
    assert reach(far) > limit > reach(1.75 * far)
    return gens, b, {0: [(param_of_alpha(lo_alpha + 2.0 * far), None)]}


def test_lopsided_piece_at_a_singular_end_probes_toward_its_vertex():
    gens, b, vparams = lopsided_case()
    segs = visible_segments(*gens, vparams, gens, 1.0)
    assert segs["component"].tolist() == [0, 0, 1]
    _, lo, hi, _ = (np.asarray(a).tolist() for a in components_of(b))
    assert segs["a0"][0] == lo[0] and segs[["node_a", "node_b"]][0].tolist() == (-1, -1)
    # a mark exactly at the branch's singular start: recovery puts it on the
    # branch (its in-span test holds at an end), and the split's strict
    # in-span filter drops it, so the branch is the unmarked whole component
    s = float(b.singular[0])
    end = next(t for t in (-s, s) if alpha_of_param(t) == lo[0])
    assert 0.0 <= (alpha_of_param(end) - lo[0]) % (2.0 * math.pi) <= hi[0] - lo[0]
    at_end = {0: [(end, None)]}
    assert split_component(at_end[0], lo[0], hi[0], False, False) == []
    plain = edge_fields(visible_segments(*gens, {}, gens, 1.0))
    assert edge_fields(visible_segments(*gens, at_end, gens, 1.0)) == plain
    assert [fields[4] for fields in plain] == [0, 1]
    # one piece, probed at its midpoint
    assert assert_probe_levels_match_scalar(gens, b, at_end, 1.0) == 0


def recorded_probes(gens, vparams, length_scale):
    """(probe, anchor, whole) of every call of ``diagram._curve_representatives``
    that ``visible_segments`` of the two generators and ``vparams`` makes."""
    calls = []
    represent = diagram._curve_representatives

    def recorded(coef, u_scale, mid, anchor, whole, scale):
        calls.append((mid, anchor, whole))
        return represent(coef, u_scale, mid, anchor, whole, scale)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagram, "_curve_representatives", recorded)
        visible_segments(*gens, vparams, gens, length_scale)
    return calls


def assert_probe_levels_match_scalar(gens, b, vparams, length_scale):
    """The pieces of a one-row curve table, split at ``vparams`` by
    ``visible_segments``, are probed as the reference split gives them, and
    the level loop's representatives equal the scalar probe sequence's, bit
    for bit (a whole component's: its midpoint's, alpha 0 on a closed
    loop). Returns the number of lopsided pieces (one singular end)."""
    count, lo, hi, closed = (np.asarray(a).tolist() for a in components_of(b))
    pieces = []  # (component, x0, x1, mid, anchor, whole), by component
    for ci in range(count):
        split = split_component(vparams.get(ci, []), lo[ci], hi[ci], closed, False)
        mid = 0.0 if closed else 0.5 * (lo[ci] + hi[ci])
        pieces += [(ci, p[0], p[1], p[4], p[5], False) for p in split] or [
            (ci, lo[ci], hi[ci], mid, mid, True)]
    _, _, _, mid, anchor, whole = (np.array(col) for col in zip(*pieces))
    [(probe_got, anchor_got, whole_got)] = recorded_probes(gens, vparams, length_scale)
    assert bits(probe_got) == bits(mid) and bits(anchor_got) == bits(anchor)
    assert whole_got.tolist() == whole.tolist()
    points, has_rep = _curve_representatives(
        np.repeat(b.chart, len(pieces), axis=0), np.repeat(b.u_scale, len(pieces)),
        mid, anchor, whole, length_scale,
    )
    p = row_curve(b, 0)
    lopsided = 0
    for (ci, a0, a1, m, _, is_whole), q, found in zip(pieces, points, has_rep.tolist()):
        s_lo = not closed and abs(a0 - lo[ci]) <= 1e-15
        s_hi = not closed and abs(a1 - hi[ci]) <= 1e-15
        if is_whole:
            try:
                ref = point_at_alpha_scalar(p, m)
            except SingularParameterError:
                ref = None
        else:
            ref = arc_representative_scalar(p, a0, a1, s_lo, s_hi, length_scale)
        assert found == (ref is not None)
        if found:
            assert bits(q) == bits(ref)
        lopsided += s_lo != s_hi
    return lopsided


def test_probe_levels_match_scalar_on_a_lopsided_piece():
    gens, b, vparams = lopsided_case()
    # the branch splits into two lopsided pieces; the other branch is whole
    assert assert_probe_levels_match_scalar(gens, b, vparams, 1.0) == 2


@st.composite
def hyperbola_marks(draw):
    """Two generators with a hyperbolic bisector, and vertex marks near both
    singular ends of each branch, unshifted or shifted by 1e5."""
    a, b = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    theta = draw(st.floats(0.0, math.pi))
    mi = SymMat2(a, 0.0, b).rotated(theta)
    mj = SymMat2(a * draw(st.floats(0.1, 0.9)), 0.0, b * draw(st.floats(1.1, 10.0)))
    shift = draw(st.sampled_from([0.0, 1e5]))
    centers = [np.array([draw(st.floats(-50.0, 50.0)) + shift, draw(st.floats(-50.0, 50.0))])
               for _ in range(2)]
    gens = [Generator(k, c, m, draw(st.floats(-5.0, 5.0)))
            for k, (c, m) in enumerate(zip(centers, (mi, mj)))]
    bis = make_bisector(*gens)
    assume(bis.code[0] == HYPERBOLA_CODE)
    count, lo, hi, _ = (np.asarray(a).tolist() for a in components_of(bis))
    vparams = {}
    for ci in range(count):
        # offsets above the 2e-9 merge gap, so no end piece is dropped
        d_lo, d_hi = (draw(st.floats(1.0, 9.9)) * 10.0 ** -draw(st.integers(1, 8))
                      for _ in range(2))
        # both marks inside the branch, in order; a mark past the far end marks nothing
        assume(d_lo + d_hi < hi[ci] - lo[ci])
        vparams[ci] = [(param_of_alpha(lo[ci] + d_lo), None),
                       (param_of_alpha(hi[ci] - d_hi), None)]
    return gens, bis, vparams


@given(hyperbola_marks())
@settings(max_examples=40, deadline=None)
def test_probe_levels_match_scalar_near_singular_ends(case):
    gens, b, vparams = case
    # each branch: two lopsided end pieces and the piece between the marks
    assert assert_probe_levels_match_scalar(gens, b, vparams, SceneArrays(gens).scale()) == 4


def test_visibility_is_the_same_in_small_point_chunks(monkeypatch):
    gens = random_scene("paper-weights", 12, 8, WINDOW)
    graph = build_diagram(gens)
    monkeypatch.setattr(intersect, "_POINT_CHUNK", 7)
    again = build_diagram(gens)
    assert edge_fields(again.edges) == edge_fields(graph.edges)


# -------------------------------------------- graph assembly and hole test


@given(scenes())
@settings(max_examples=15, deadline=None)
def test_cell_components_match_union_find(gens):
    graph = build_diagram(gens)
    edges = edge_segments(graph.edges)
    for gid, eids in graph.cell_edges.items():
        assert graph.cell_components[gid] == boundary_components_union_find(eids, edges)


@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=10),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.floats(0.1, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_array_hole_test_matches_loop(corners, probe, scale):
    # integer corners and probes at half steps hit horizontal edges and ties
    poly = np.array(corners, dtype=float) * scale
    q = np.array(probe, dtype=float) * 0.5 * scale
    assert _point_in_polygon(poly, q) == point_in_polygon_scalar(poly, q)


# ------------------------------------------------- nothing dropped silently


def benchmark_scenes():
    """The scenes of the benchmark's workloads: 30 small ones, dense and reload-query."""
    for seed in range(1010, 1020):
        for preset in ("paper-random", "paper-weights", "isotropic"):
            yield random_scene(preset, 16, seed, WINDOW)
    yield random_scene("paper-random", 72, 42, WINDOW)
    yield random_scene("paper-weights", 64, 42, WINDOW)


def test_no_recovery_miss_or_missing_representative_on_benchmark_scenes():
    for gens in benchmark_scenes():
        graph = build_diagram(gens)
        table, pair_row = all_pairs(gens)
        arr = SceneArrays(table.generators)
        eps = 1e-7 * (1.0 + graph.length_scale)
        marks, miss = recover_columns(graph.vertices, table, pair_row, eps)
        assert not miss.any()
        # one parameter per incidence, one incidence per pair of a vertex's
        # generators, and each parameter a mark that splits its component
        assert miss.size == sum(math.comb(len(v.gens), 2) for v in graph.vertices)
        assert marks[0].size == miss.size
        # every row through the one visibility pass
        edges, _, no_rep = _visible_pieces(table, np.arange(table.first.size), marks, arr,
                                           graph.length_scale)
        assert not no_rep.any()
        assert len(edges) == len(graph.edges)
