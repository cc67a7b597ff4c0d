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

from gbpd import diagram
from gbpd.bisector import (
    _merge_params,
    bisector_table,
    make_bisector,
    param_of_point,
    params_of_points,
    sample_points,
)
from gbpd.cli import PRESETS, random_scene
from gbpd.conic import (
    CLASSES,
    CURVE_CLASSES,
    ConicClass,
    LineParam,
    alpha_of_param,
    alphas_of_params,
    chart_coefficients,
    line_points,
    line_rows,
    param_of_alpha,
    params_of_alphas,
    points_at_alphas,
    real_quadratic_roots_batch,
    wrap_angle,
    wrap_angles,
)
from gbpd.diagram import (
    _curve_representatives,
    _dedup_generators,
    _incidences,
    _polish_vertices,
    _recover_params,
    _split_component,
    _TripleOrder,
    _two_nearest,
    _visible_pieces,
    build_diagram,
    visible_segments,
)
from gbpd.errors import NoSolutionError, SingularParameterError
from gbpd.geometry import Generator, SceneArrays, SymMat2, Window
from gbpd.intersect import globally_minimal
from gbpd.measure import _point_in_polygon
from gbpd.tolerances import VERT_REL

from oracles import (
    arc_representative_scalar,
    bisector_frame_scalar,
    boundary_components_union_find,
    full_scan_minimal,
    line_point_scalar,
    merge_params_scalar,
    param_of_point_scalar,
    point_at_alpha_scalar,
    point_in_polygon_scalar,
    polish_vertices_scalar,
    real_quadratic_roots_scalar,
    two_nearest_point,
    velocity_at_alpha_scalar,
)

WINDOW = Window(0.0, 0.0, 400.0, 400.0)


def bits(values):
    return [float(v).hex() for v in values]


def pair_bisectors(gens_i, gens_j):
    """The bisector objects of the pairs (gens_i[k], gens_j[k]), from one table."""
    p = len(gens_i)
    table = bisector_table(list(gens_i) + list(gens_j), (np.arange(p), p + np.arange(p)))
    return table.bisectors(np.arange(p))


def bisector_fields(b):
    """Every field of a bisector, floats as their exact hex form."""
    param = None
    if b.param is not None:
        p = b.param
        param = (bits(p.xq), bits(p.yq), bits(p.uq), bits(p.singular_params), p.conic_class)
    return (
        b.i,
        b.j,
        bits(b.implicit.coeffs()),
        b.conic_class,
        param,
        [bits((ln.a, ln.b, ln.c)) for ln in b.lines],
        [(c.kind, bits((c.lo, c.hi)), c.closed, c.line_index) for c in b.components],
    )


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
    batch = pair_bisectors([p[0] for p in pairs], [p[1] for p in pairs])
    assert len(batch) == len(pairs)
    for (gi, gj), b in zip(pairs, batch):
        assert bisector_fields(b) == bisector_fields(make_bisector(gi, gj))
        # and the one-pair formulas the kernel vectorizes, for every curve
        implicit, ref = bisector_frame_scalar(gi, gj)
        assert bits(b.implicit.coeffs()) == bits(implicit)
        if ref is None:
            assert b.param is None
        else:
            xq, yq, uq, singular, name = ref
            assert (bits(b.param.xq), bits(b.param.yq), bits(b.param.uq)) == (
                bits(xq), bits(yq), bits(uq)
            )
            assert bits(b.param.singular_params) == bits(singular)
            assert b.conic_class.value == name


def table_row_fields(table, k, count, lo, hi, closed):
    """The fields of row k of a bisector table, as ``one_pair_fields`` lays them out."""
    cls = CLASSES[table.code[k]]
    gi, gj = table.generators[table.first[k]], table.generators[table.second[k]]
    curve = table.line_count[k] == 0
    kind = "arc" if curve else "line"
    return (
        (gi.id, gj.id),
        cls,
        bits(table.implicit[k]),
        bits(table.chart[k].ravel()) if cls in CURVE_CLASSES else None,
        float(table.u_scale[k]).hex() if cls in CURVE_CLASSES else None,
        bits([-table.singular[k], table.singular[k]]) if cls is ConicClass.HYPERBOLA else None,
        [bits(ln) for ln in table.lines[k, : table.line_count[k]]],
        [(kind, bits((lo[c], hi[c])), bool(closed) and curve, None if curve else c)
         for c in range(count)],
    )


def one_pair_fields(b):
    """The same fields of a bisector object."""
    p = b.param
    return (
        b.pair,
        b.conic_class,
        bits(b.implicit.coeffs()),
        None if p is None else bits(chart_coefficients([p]).ravel()),
        None if p is None else float(p.u_scale).hex(),
        bits(p.singular_params) if b.conic_class is ConicClass.HYPERBOLA else None,
        [bits((ln.a, ln.b, ln.c)) for ln in b.lines],
        [(c.kind, bits((c.lo, c.hi)), c.closed, c.line_index) for c in b.components],
    )


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
    components = table.components(rows)
    for k in rows.tolist():
        one = make_bisector(gens[table.first[k]], gens[table.second[k]])
        assert table_row_fields(table, k, *(a[k] for a in components)) == one_pair_fields(one)
        assert bisector_fields(table.bisectors([k])[0]) == bisector_fields(one)
    lines = table.line_count > 0
    assert lines.sum() >= 6  # the isotropic pairs at least


def test_batched_bisectors_cover_rank_deficient_pairs():
    # equal matrices give straight bisectors, an equal center and matrix an
    # empty one: both go through the array line split inside a batch
    gens = random_scene("isotropic", 6, 3, WINDOW)
    gens.append(Generator(6, gens[0].p.copy(), gens[0].M, gens[0].w + 1.0))
    firsts, seconds = gens[:5] + [gens[6]], gens[1:6] + [gens[0]]
    batch = pair_bisectors(firsts, seconds)
    assert all(b.param is None for b in batch)
    assert [bool(b.lines) for b in batch] == [True] * 5 + [False]
    for gi, gj, b in zip(firsts, seconds, batch):
        assert bisector_fields(b) == bisector_fields(make_bisector(gi, gj))
    assert pair_bisectors([], []) == []


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


@given(candidate_sets())
@settings(max_examples=80, deadline=None)
def test_early_exit_filter_matches_full_scan(case):
    cand, trip, arr = case
    keep = globally_minimal(cand, trip, arr)
    assert keep.tolist() == full_scan_minimal(cand, trip, arr).tolist()
    # the three nearest generators always pass
    half = (cand.shape[0] - 1) // 2
    assert keep[half : 2 * half].all()


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
        np.array(sample_points(make_bisector(gens[i], gens[j]), count=32))
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
    got = _two_nearest(pts, np.array(idx_i), np.array(idx_j), arr)
    ref = [bool(two_nearest_point(p, i, j, arr)) for p, i, j in zip(pts, idx_i, idx_j)]
    assert got.tolist() == ref
    # one pair for every point
    assert _two_nearest(pts, idx_i[0], idx_j[0], arr).tolist() == [
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
    assert hyp.conic_class is ConicClass.HYPERBOLA
    probe = np.concatenate([alpha, np.array(hyp.param.singular_alphas)])
    p = hyp.param
    x, y, vx, vy, singular = points_at_alphas(
        chart_coefficients([p] * probe.size), np.full(probe.size, p.u_scale), probe
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
    lines = [LineParam.from_implicit(math.cos(th), math.sin(th), c) for th, c, _ in rows]
    t = np.array([r[2] for r in rows])
    got = line_points(line_rows(lines), t)
    for k, (line, tk) in enumerate(zip(lines, t.tolist())):
        want = line_point_scalar(line, tk)
        assert bits(got[k]) == bits(want)
        assert bits(line.point_at(tk)) == bits(want)


def recovery_probes(b, rng):
    """Points to recover on a curved bisector: samples, its far point, points
    near singular parameters, and points pushed off the curve."""
    p = b.param
    pts = list(sample_points(b, count=24))
    pts.append(p.point_at(math.inf))
    for a in p.singular_alphas:
        for d in (1e-2, -1e-2, 1e-3, -1e-3, 1e-4, -1e-4):
            try:
                pts.append(p.point_at_alpha(a + d))
            except SingularParameterError:
                pass
    off = []
    for q in pts[:6]:
        g = b.implicit.gradient(q[0], q[1])
        off.append(q + 5.0 * g / math.hypot(g[0], g[1]) + rng.normal(scale=0.1, size=2))
    return pts, off


def certainly_off(b, q, eps):
    """True when no point of the conic lies within eps of q.

    |F| changes by at most eps (|grad F(q)| + 2 |A| eps) over an eps-disk,
    with |A| a bound on the quadratic part's norm; a factor 2 covers rounding.
    """
    c = b.implicit
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
    curves = [b for b in pair_bisectors(firsts, seconds) if b.param is not None]
    params, points, must_miss = [], [], []
    for b in curves:
        on, off = recovery_probes(b, rng)
        params += [b.param] * (len(on) + len(off))
        points += on + off
        must_miss += [False] * len(on) + [certainly_off(b, q, eps) for q in off]
    if not points:
        return
    points = np.array(points)
    coef, u_scale = chart_coefficients(params), np.array([p.u_scale for p in params])
    got = as_bits(*params_of_points(coef, u_scale, points, eps))
    ref = []
    for p, q in zip(params, points):
        r = param_of_point_scalar(p, q, eps)
        ref.append(None if r is None else bits(r))
    assert got == ref
    assert all(g is None for g, m in zip(got, must_miss) if m)
    assert any(g is not None for g in got)
    # the batch reversed, and batches of one
    backwards = params_of_points(coef[::-1], u_scale[::-1], points[::-1], eps)
    assert as_bits(*backwards) == got[::-1]
    for p, q, g in zip(params, points, got):
        try:
            one = bits(param_of_point(p, q, eps))
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
        for b in pair_bisectors(gens[:-1], gens[1:]):
            far = b.param.point_at(math.inf)
            coef, u_scale = chart_coefficients([b.param]), np.array([b.param.u_scale])
            ts, found = params_of_points(coef, u_scale, far[None], eps)
            assert as_bits(ts, found) == [bits(param_of_point_scalar(b.param, far, eps))]
            assert math.inf in ts[0][found[0]].tolist()


# ------------------------------------------------------------------ polish


def all_pairs(gens):
    """The bisector table of a scene's generators (aliases dropped, as the
    build drops them) and its pair rows."""
    table = bisector_table(_dedup_generators(list(gens))[0])
    return table, table.pair_rows()


def incident_objects(table, pair_row, vertices):
    """The objects of the table rows of every pair of each vertex's
    generators, by pair: the pairs the build polishes on."""
    _, rows = _incidences(vertices, table, pair_row)
    return {b.pair: b for b in table.bisectors(np.unique(rows))}


def assert_polish_matches_scalar(gens, vertices, length_scale):
    """The batched polish of ``vertices`` on the table rows equals the scalar
    polish on the objects of the same pairs, bit for bit."""
    table, pair_row = all_pairs(gens)
    batch, scalar = copy.deepcopy(vertices), copy.deepcopy(vertices)
    _polish_vertices(batch, table, pair_row, length_scale)
    polish_vertices_scalar(scalar, incident_objects(table, pair_row, vertices), length_scale)
    assert [bits(v.pos) for v in batch] == [bits(v.pos) for v in scalar]


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
    pairs = incident_objects(table, pair_row, [four])
    assert sorted(pairs) == list(itertools.combinations(range(4), 2))
    moved = copy.deepcopy(graph.vertices)
    for v in moved:
        v.pos = v.pos + np.array([1e-7, -2e-7])
    assert_polish_matches_scalar(gens, moved, graph.length_scale)


# -------------------------------------------------------------- visibility


def edge_fields(e):
    return (e.pair, e.kind, bits([e.t_a or 0.0, e.t_b or 0.0]), e.t_a is None, e.t_b is None,
            e.endpoints, e.component, e.line_index, bits([e.a0, e.a1]))


@given(scenes())
@settings(max_examples=25, deadline=None)
def test_cross_bisector_visibility_matches_per_bisector(gens):
    # the one pass over every table row against per-pair batches of one,
    # and against the build
    graph = build_diagram(gens)
    table, pair_row = all_pairs(gens)
    arr = SceneArrays(table.generators)
    eps = 1e-7 * (1.0 + graph.length_scale)
    marks, _ = _recover_params(graph.vertices, table, pair_row, eps)
    ordered = table.bisectors(np.arange(table.first.size))
    each = [
        edge_fields(e)
        for row, b in enumerate(ordered)
        for e in visible_segments(b, marks.get(row, {}), arr, graph.length_scale)
    ]
    together, _ = _visible_pieces(table, np.arange(table.first.size), marks, arr,
                                  graph.length_scale)
    assert [edge_fields(e) for e in together] == each
    assert [edge_fields(e) for e in graph.edges] == each
    # row k of the graph's table is the full table's row of edge k's pair
    rows = np.array([pair_row[arr.id_to_index[i], arr.id_to_index[j]]
                     for i, j in (e.pair for e in graph.edges)], dtype=np.int64)
    mine, full = graph.table.components(np.arange(rows.size)), table.components(rows)
    assert [table_row_fields(graph.table, k, *(a[k] for a in mine)) for k in range(rows.size)] == [
        table_row_fields(table, r, *(a[k] for a in full)) for k, r in enumerate(rows.tolist())]


def lopsided_case():
    """A hyperbola branch split by a vertex mark just past its singular start.

    The piece's midpoint lies beyond the 1e6 (1 + length_scale) limit, and
    a probe closer to the mark gives its representative. Returns the
    generators, their bisector, the vertex parameters and the mark offset
    ``far`` from the singular start.
    """
    gens = [
        Generator(0, (0, 0), SymMat2(2.0, 0.0, 0.5), 0.0),
        Generator(1, (3, 0), SymMat2.identity(), 0.0),
    ]
    b = make_bisector(*gens)
    lo_alpha = b.components[0].lo
    limit = 2e6  # length_scale 1

    def reach(d):
        q = b.param.point_at_alpha(lo_alpha + d)
        return max(abs(q[0]), abs(q[1]))

    near, far = 1e-12, 1e-1
    for _ in range(100):  # reach(d) falls as d grows; aim at 1.5 limit
        mid = math.sqrt(near * far)
        near, far = (mid, far) if reach(mid) > 1.5 * limit else (near, mid)
    assert reach(far) > limit > reach(1.75 * far)
    return gens, b, {0: [(param_of_alpha(lo_alpha + 2.0 * far), None)]}


def test_lopsided_piece_at_a_singular_end_probes_toward_its_vertex():
    gens, b, vparams = lopsided_case()
    segs = visible_segments(b, vparams, gens, 1.0)
    assert [s.component for s in segs] == [0, 0, 1]
    assert segs[0].a0 == b.components[0].lo and segs[0].endpoints == (None, None)
    # a mark exactly at the branch's singular start: recovery puts it on the
    # branch (contains_alpha holds at an end), and the split's strict
    # in-span filter drops it, so the branch is the unmarked whole component
    comp = b.components[0]
    end = next(t for t in b.param.singular_params if alpha_of_param(t) == comp.lo)
    assert comp.contains_alpha(alpha_of_param(end))
    at_end = {0: [(end, None)]}
    assert _split_component(at_end[0], comp.lo, comp.hi, False, False) == []
    plain = [edge_fields(e) for e in visible_segments(b, {}, gens, 1.0)]
    assert [edge_fields(e) for e in visible_segments(b, at_end, gens, 1.0)] == plain
    assert [s[6] for s in plain] == [0, 1]
    # one piece, probed at its midpoint
    assert assert_probe_levels_match_scalar(b, at_end, 1.0) == 0


def assert_probe_levels_match_scalar(b, vparams, length_scale):
    """The level loop's representatives of a curve bisector's pieces equal
    the scalar probe sequence's, bit for bit (a whole component's: its
    midpoint's). Returns the number of lopsided pieces (one singular end)."""
    pieces = []  # (component, x0, x1, mid, anchor, whole)
    for ci, comp in enumerate(b.components):
        split = _split_component(vparams.get(ci, []), comp.lo, comp.hi, comp.closed, False)
        pieces += [(ci, p[0], p[1], p[4], p[5], False) for p in split] or [
            (ci, comp.lo, comp.hi, comp.midpoint(), comp.midpoint(), True)]
    _, _, _, mid, anchor, whole = (np.array(col) for col in zip(*pieces))
    points, has_rep = _curve_representatives(
        chart_coefficients([b.param] * len(pieces)), np.full(len(pieces), b.param.u_scale),
        mid, anchor, whole, length_scale,
    )
    lopsided = 0
    for (ci, a0, a1, _, _, is_whole), q, found in zip(pieces, points, has_rep.tolist()):
        comp = b.components[ci]
        s_lo = not comp.closed and abs(a0 - comp.lo) <= 1e-15
        s_hi = not comp.closed and abs(a1 - comp.hi) <= 1e-15
        if is_whole:
            try:
                ref = point_at_alpha_scalar(b.param, comp.midpoint())
            except SingularParameterError:
                ref = None
        else:
            ref = arc_representative_scalar(b.param, a0, a1, s_lo, s_hi, length_scale)
        assert found == (ref is not None)
        if found:
            assert bits(q) == bits(ref)
        lopsided += s_lo != s_hi
    return lopsided


def test_probe_levels_match_scalar_on_a_lopsided_piece():
    _, b, vparams = lopsided_case()
    # the branch splits into two lopsided pieces; the other branch is whole
    assert assert_probe_levels_match_scalar(b, vparams, 1.0) == 2


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
    assume(bis.conic_class is ConicClass.HYPERBOLA)
    vparams = {}
    for ci, comp in enumerate(bis.components):
        # offsets above the 2e-9 merge gap, so no end piece is dropped
        d_lo, d_hi = (draw(st.floats(1.0, 9.9)) * 10.0 ** -draw(st.integers(1, 8))
                      for _ in range(2))
        vparams[ci] = [(param_of_alpha(comp.lo + d_lo), None),
                       (param_of_alpha(comp.hi - d_hi), None)]
    return gens, bis, vparams


@given(hyperbola_marks())
@settings(max_examples=40, deadline=None)
def test_probe_levels_match_scalar_near_singular_ends(case):
    gens, b, vparams = case
    # each branch: two lopsided end pieces and the piece between the marks
    assert assert_probe_levels_match_scalar(b, vparams, SceneArrays(gens).scale()) == 4


def test_visibility_is_the_same_in_small_point_chunks(monkeypatch):
    gens = random_scene("paper-weights", 12, 8, WINDOW)
    graph = build_diagram(gens)
    monkeypatch.setattr(diagram, "_POINT_CHUNK", 7)
    again = build_diagram(gens)
    assert [edge_fields(e) for e in again.edges] == [edge_fields(e) for e in graph.edges]


# -------------------------------------------- graph assembly and hole test


@given(scenes())
@settings(max_examples=15, deadline=None)
def test_cell_components_match_union_find(gens):
    graph = build_diagram(gens)
    for gid, eids in graph.cell_edges.items():
        assert graph.cell_components[gid] == boundary_components_union_find(eids, graph.edges)


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
        marks, miss = _recover_params(graph.vertices, table, pair_row, eps)
        assert not miss.any()
        # one parameter per incidence, one incidence per pair of a vertex's generators
        assert miss.size == sum(math.comb(len(v.gens), 2) for v in graph.vertices)
        assert sum(len(e) for by_comp in marks.values() for e in by_comp.values()) == miss.size
        # every row through the one visibility pass
        edges, no_rep = _visible_pieces(table, np.arange(table.first.size), marks, arr,
                                        graph.length_scale)
        assert not no_rep.any()
        assert len(edges) == len(graph.edges)
