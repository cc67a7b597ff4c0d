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
from hypothesis import given, settings
from hypothesis import strategies as st

from gbpd import diagram
from gbpd.bisector import (
    _merge_params,
    make_bisector,
    make_bisectors,
    param_of_point,
    params_of_points,
    sample_points,
)
from gbpd.cli import PRESETS, random_scene
from gbpd.conic import (
    ConicClass,
    alpha_of_param,
    alphas_of_params,
    chart_coefficients,
    param_of_alpha,
    params_of_alphas,
    points_at_alphas,
    real_quadratic_roots,
    real_quadratic_roots_batch,
    wrap_angle,
    wrap_angles,
)
from gbpd.diagram import (
    _globally_minimal,
    _polish_vertices,
    _recover_params,
    _triple_arrays,
    _two_nearest,
    _visible_pieces,
    build_diagram,
    visible_segments,
)
from gbpd.errors import NoSolutionError, SingularParameterError
from gbpd.geometry import Generator, SceneArrays, SymMat2, Window
from gbpd.tolerances import DEFAULT_TOLERANCES as TOL

from oracles import (
    bisector_frame_scalar,
    full_scan_minimal,
    merge_params_scalar,
    param_of_point_scalar,
    polish_vertices_scalar,
    two_nearest_point,
)

WINDOW = Window(0.0, 0.0, 400.0, 400.0)


def bits(values):
    return [float(v).hex() for v in values]


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
    batch = make_bisectors([p[0] for p in pairs], [p[1] for p in pairs], TOL)
    assert len(batch) == len(pairs)
    for (gi, gj), b in zip(pairs, batch):
        assert bisector_fields(b) == bisector_fields(make_bisector(gi, gj, TOL))
        # and the one-pair formulas the kernel vectorizes, for every curve
        implicit, ref = bisector_frame_scalar(gi, gj, TOL)
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


def test_batched_bisectors_cover_rank_deficient_pairs():
    # equal matrices give straight bisectors, an equal center and matrix an
    # empty one: both take the per-pair fallback inside a batch
    gens = random_scene("isotropic", 6, 3, WINDOW)
    gens.append(Generator(6, gens[0].p.copy(), gens[0].M, gens[0].w + 1.0))
    firsts, seconds = gens[:5] + [gens[6]], gens[1:6] + [gens[0]]
    batch = make_bisectors(firsts, seconds, TOL)
    assert all(b.param is None for b in batch)
    assert [bool(b.lines) for b in batch] == [True] * 5 + [False]
    for gi, gj, b in zip(firsts, seconds, batch):
        assert bisector_fields(b) == bisector_fields(make_bisector(gi, gj, TOL))
    assert make_bisectors([], [], TOL) == []


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
    delta = factor * TOL.vert_rel * (1.0 + abs(float(d[x0, k0])))
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
    keep = _globally_minimal(cand, trip, arr, TOL)
    assert keep.tolist() == full_scan_minimal(cand, trip, arr, TOL).tolist()
    # the three nearest generators always pass
    half = (cand.shape[0] - 1) // 2
    assert keep[half : 2 * half].all()


@given(st.sampled_from(PRESETS), st.integers(2, 12), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_batched_two_nearest_matches_per_point(preset, n, seed):
    gens = random_scene(preset, n, seed, WINDOW)
    arr = SceneArrays(gens)
    rng = np.random.default_rng(seed)
    pts, idx_i, idx_j = [], [], []
    for _ in range(3):
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        # points on the (i, j) bisector are where the decision is close
        on_curve = sample_points(make_bisector(gens[i], gens[j], TOL), count=32, tol=TOL)
        rows = np.concatenate(
            [rng.uniform(-50.0, 450.0, size=(10, 2)), np.array(on_curve).reshape(-1, 2)]
        )
        pts.append(rows)
        idx_i += [i] * rows.shape[0]
        idx_j += [j] * rows.shape[0]
    pts = np.concatenate(pts)
    got = _two_nearest(pts, np.array(idx_i), np.array(idx_j), arr, TOL)
    ref = [bool(two_nearest_point(p, i, j, arr, TOL)) for p, i, j in zip(pts, idx_i, idx_j)]
    assert got.tolist() == ref
    # one pair for every point
    assert _two_nearest(pts, idx_i[0], idx_j[0], arr, TOL).tolist() == [
        bool(two_nearest_point(p, idx_i[0], idx_j[0], arr, TOL)) for p in pts
    ]


@pytest.mark.parametrize("n", range(13))
def test_triple_arrays_match_combinations(n):
    got = _triple_arrays(n)
    ref = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    assert got.dtype == np.int64
    assert got.shape == ref.shape
    assert (got == ref).all()


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
        ref_roots, ref_inf, ref_everywhere = real_quadratic_roots(*row)
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
    hyp = make_bisector(*random_scene("paper-random", 2, 3, WINDOW), TOL)
    assert hyp.conic_class is ConicClass.HYPERBOLA
    probe = np.concatenate([alpha, np.array(hyp.param.singular_alphas)])
    p = hyp.param
    x, y, vx, vy, singular = points_at_alphas(
        chart_coefficients([p] * probe.size), np.full(probe.size, p.u_scale), probe, TOL
    )
    assert singular[-2:].all()
    for k, a in enumerate(probe.tolist()):
        try:
            q, v = p.point_at_alpha(a, TOL), p.velocity_at_alpha(a, TOL)
        except SingularParameterError:
            assert singular[k]
            continue
        assert not singular[k]
        assert bits((x[k], y[k], vx[k], vy[k])) == bits((*q, *v))


def recovery_probes(b, rng):
    """Points to recover on a curved bisector: samples, its far point, points
    near singular parameters, and points pushed off the curve."""
    p = b.param
    pts = list(sample_points(b, count=24, tol=TOL))
    pts.append(p.point_at(math.inf, TOL))
    for a in p.singular_alphas:
        for d in (1e-2, -1e-2, 1e-3, -1e-3, 1e-4, -1e-4):
            try:
                pts.append(p.point_at_alpha(a + d, TOL))
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
    curves = [b for b in make_bisectors(firsts, seconds, TOL) if b.param is not None]
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
    got = as_bits(*params_of_points(coef, u_scale, points, eps, TOL))
    ref = []
    for p, q in zip(params, points):
        r = param_of_point_scalar(p, q, eps, TOL)
        ref.append(None if r is None else bits(r))
    assert got == ref
    assert all(g is None for g, m in zip(got, must_miss) if m)
    assert any(g is not None for g in got)
    # the batch reversed, and batches of one
    backwards = params_of_points(coef[::-1], u_scale[::-1], points[::-1], eps, TOL)
    assert as_bits(*backwards) == got[::-1]
    for p, q, g in zip(params, points, got):
        try:
            one = bits(param_of_point(p, q, eps, TOL))
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
    keep = _merge_params(ts, alphas, found, TOL)
    assert bits(ts[0][keep[0]]) == bits(merge_params_scalar(accepted, TOL))


def test_param_recovery_far_from_origin_and_at_the_far_point():
    # shifted copies of one scene: every recovery agrees with the scalar form
    for shift in (0.0, 1e6, -3.5e6):
        scene = random_scene("paper-weights", 6, 4, WINDOW)
        gens = [Generator(g.id, g.p + shift, g.M, g.w) for g in scene]
        eps = 1e-7 * (1.0 + SceneArrays(gens).scale())
        for b in make_bisectors(gens[:-1], gens[1:], TOL):
            far = b.param.point_at(math.inf, TOL)
            coef, u_scale = chart_coefficients([b.param]), np.array([b.param.u_scale])
            ts, found = params_of_points(coef, u_scale, far[None], eps, TOL)
            assert as_bits(ts, found) == [bits(param_of_point_scalar(b.param, far, eps, TOL))]
            assert math.inf in ts[0][found[0]].tolist()


# ------------------------------------------------------------------ polish


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
    batch, scalar = copy.deepcopy(moved), copy.deepcopy(moved)
    _polish_vertices(batch, graph.bisectors, graph.length_scale, TOL)
    polish_vertices_scalar(scalar, graph.bisectors, graph.length_scale, TOL)
    assert [bits(v.pos) for v in batch] == [bits(v.pos) for v in scalar]


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
    assert max(len(v.gens) for v in graph.vertices) == 4
    moved = copy.deepcopy(graph.vertices)
    for v in moved:
        v.pos = v.pos + np.array([1e-7, -2e-7])
    batch, scalar = copy.deepcopy(moved), copy.deepcopy(moved)
    _polish_vertices(batch, graph.bisectors, graph.length_scale, TOL)
    polish_vertices_scalar(scalar, graph.bisectors, graph.length_scale, TOL)
    assert [bits(v.pos) for v in batch] == [bits(v.pos) for v in scalar]


# -------------------------------------------------------------- visibility


def edge_fields(e):
    alphas = None if e.alpha_a is None else bits([e.alpha_a, e.alpha_b])
    return (e.pair, e.kind, bits([e.t_a or 0.0, e.t_b or 0.0]), e.t_a is None, e.t_b is None,
            e.endpoints, e.component, e.line_index, alphas)


@given(scenes())
@settings(max_examples=25, deadline=None)
def test_cross_bisector_visibility_matches_per_bisector(gens):
    graph = build_diagram(gens)
    arr = SceneArrays([g for g in graph.generators if g.id not in graph.aliases])
    eps = 1e-7 * (1.0 + graph.length_scale)
    params, _ = _recover_params(graph.vertices, graph.bisectors, eps, TOL)
    ordered = [graph.bisectors[p] for p in sorted(graph.bisectors)]
    vparams = [params.get(b.pair, {}) for b in ordered]
    each = [
        edge_fields(e)
        for b, vp in zip(ordered, vparams)
        for e in visible_segments(b, vp, arr, TOL, graph.length_scale)
    ]
    together, _ = _visible_pieces(ordered, vparams, arr, TOL, graph.length_scale)
    assert [edge_fields(e) for e in together] == each
    assert sorted(each) == sorted(edge_fields(e) for e in graph.edges)


def test_lopsided_piece_at_a_singular_end_probes_toward_its_vertex():
    # a hyperbola branch split by a vertex mark just past its singular start:
    # the piece's midpoint lies beyond the 1e6 (1 + length_scale) limit, and
    # a probe closer to the mark gives its representative
    gens = [
        Generator(0, (0, 0), SymMat2(2.0, 0.0, 0.5), 0.0),
        Generator(1, (3, 0), SymMat2.identity(), 0.0),
    ]
    b = make_bisector(*gens, TOL)
    lo_alpha = b.components[0].lo
    limit = 2e6  # length_scale 1

    def reach(d):
        q = b.param.point_at_alpha(lo_alpha + d, TOL)
        return max(abs(q[0]), abs(q[1]))

    near, far = 1e-12, 1e-1
    for _ in range(100):  # reach(d) falls as d grows; aim at 1.5 limit
        mid = math.sqrt(near * far)
        near, far = (mid, far) if reach(mid) > 1.5 * limit else (near, mid)
    assert reach(far) > limit > reach(1.75 * far)
    segs = visible_segments(b, {0: [(param_of_alpha(lo_alpha + 2.0 * far), None)]}, gens, TOL, 1.0)
    assert [s.component for s in segs] == [0, 0, 1]
    assert segs[0].alpha_a == lo_alpha and segs[0].endpoints == (None, None)


def test_visibility_is_the_same_in_small_point_chunks(monkeypatch):
    gens = random_scene("paper-weights", 12, 8, WINDOW)
    graph = build_diagram(gens)
    monkeypatch.setattr(diagram, "_POINT_CHUNK", 7)
    again = build_diagram(gens)
    assert [edge_fields(e) for e in again.edges] == [edge_fields(e) for e in graph.edges]


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
        arr = SceneArrays(gens)
        eps = 1e-7 * (1.0 + graph.length_scale)
        params, miss = _recover_params(graph.vertices, graph.bisectors, eps, TOL)
        assert not miss.any()
        # one parameter per incidence
        assert sum(len(e) for by_comp in params.values() for e in by_comp.values()) == miss.size
        ordered = [graph.bisectors[p] for p in sorted(graph.bisectors)]
        vparams = [params.get(b.pair, {}) for b in ordered]
        edges, no_rep = _visible_pieces(ordered, vparams, arr, TOL, graph.length_scale)
        assert not no_rep.any()
        assert len(edges) == len(graph.edges)
