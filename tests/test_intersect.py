"""Conic-conic intersection (pencil method) and vertex membership."""

import math

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbpd import Generator, InputError, OverlappingConicsError, SceneArrays, SymMat2
from gbpd.bisector import bisector_implicit
from gbpd.conic import ConicImplicit
from gbpd.intersect import (
    conic_conic_intersections,
    globally_minimal,
    pencil_intersections_batch,
    prepare_pairs,
)

from oracles import grid_conic_intersections, radical_center


def gen(gid, p, m11, m12, m22, w=0.0):
    return Generator(gid, np.array(p, dtype=float), SymMat2(m11, m12, m22), w)


def random_generator(rng, gid, center_range=8.0):
    m12 = float(rng.uniform(-1.0, 1.0))
    m11 = abs(m12) + float(rng.uniform(0.1, 2.5))
    m22 = abs(m12) + float(rng.uniform(0.1, 2.5))
    return gen(
        gid,
        rng.uniform(-center_range, center_range, size=2),
        m11,
        m12,
        m22,
        w=float(rng.uniform(-4.0, 4.0)),
    )


UNIT_CIRCLE = ConicImplicit(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)


def as_sorted_tuples(points, digits=9):
    return sorted((round(float(p[0]), digits), round(float(p[1]), digits)) for p in points)


def match_point_sets(a, b, tol=1e-6):
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for p in a:
        hit = False
        for k, q in enumerate(b):
            if not used[k] and math.hypot(p[0] - q[0], p[1] - q[1]) <= tol:
                used[k] = True
                hit = True
                break
        if not hit:
            return False
    return True


# ------------------------------------------------------------ fixed examples


def test_circle_against_vertical_line():
    pts = conic_conic_intersections(UNIT_CIRCLE, ConicImplicit(0.0, 0.0, 0.0, 1.0, 0.0, -0.5))
    want = [(0.5, -math.sqrt(0.75)), (0.5, math.sqrt(0.75))]
    assert match_point_sets(as_sorted_tuples(pts), sorted(want), tol=1e-9)


def test_tangent_ellipses_two_points():
    inner = ConicImplicit(0.25, 0.0, 1.0, 0.0, 0.0, -1.0)  # x^2/4 + y^2 = 1
    pts = conic_conic_intersections(UNIT_CIRCLE, inner)
    assert match_point_sets(as_sorted_tuples(pts), [(0.0, -1.0), (0.0, 1.0)], tol=1e-7)


def test_two_unit_circles():
    shifted = ConicImplicit(1.0, 0.0, 1.0, -2.0, 0.0, 0.0)  # (x-1)^2 + y^2 = 1
    pts = conic_conic_intersections(UNIT_CIRCLE, shifted)
    want = [(0.5, -math.sqrt(0.75)), (0.5, math.sqrt(0.75))]
    assert match_point_sets(as_sorted_tuples(pts), sorted(want), tol=1e-9)


def test_line_line_single_point():
    x_axis, y_axis = ConicImplicit(0, 0, 0, 1.0, 0.0, 0.0), ConicImplicit(0, 0, 0, 0.0, 1.0, 0.0)
    pts = conic_conic_intersections(x_axis, y_axis)
    assert match_point_sets(as_sorted_tuples(pts), [(0.0, 0.0)], tol=1e-12)


def test_disjoint_circles_no_points():
    far = ConicImplicit(1.0, 0.0, 1.0, -20.0, 0.0, 99.0)  # center (10, 0), radius 1
    assert conic_conic_intersections(UNIT_CIRCLE, far) == []


def test_full_quartic_contact():
    # circle against an ellipse crossing it four times
    ellipse = ConicImplicit(4.0, 0.0, 0.25, 0.0, 0.0, -1.0)
    pts = conic_conic_intersections(UNIT_CIRCLE, ellipse)
    assert len(pts) == 4
    for p in pts:
        assert abs(UNIT_CIRCLE.evaluate(p[0], p[1])) < 1e-10
        assert abs(ellipse.evaluate(p[0], p[1])) < 1e-10


def test_overlapping_conics_raise():
    scaled = ConicImplicit(-3.0, 0.0, -3.0, 0.0, 0.0, 3.0)
    with pytest.raises(OverlappingConicsError):
        conic_conic_intersections(UNIT_CIRCLE, scaled)
    with pytest.raises(OverlappingConicsError):
        conic_conic_intersections(UNIT_CIRCLE, ConicImplicit(0, 0, 0, 0, 0, 0))


def test_frame_must_be_positive_and_finite():
    # x^2 + y^2 = 1 against (x - 1)^2 + y^2 = 2 meet at (0, -1) and (0, 1)
    other = ConicImplicit(1.0, 0.0, 1.0, -2.0, 0.0, -1.0)
    pts = conic_conic_intersections(UNIT_CIRCLE, other)
    assert match_point_sets(as_sorted_tuples(pts), [(0.0, -1.0), (0.0, 1.0)], tol=1e-9)
    for length_scale in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0):
        with pytest.raises(InputError, match="length_scale"):
            conic_conic_intersections(UNIT_CIRCLE, other, length_scale=length_scale)
    for center in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(InputError, match="center"):
            conic_conic_intersections(UNIT_CIRCLE, other, center=center)
    with pytest.raises(InputError):
        prepare_pairs(np.zeros((0, 3, 3)), math.nan, (0.0, 0.0))


def test_internal_tangency_single_point():
    # circle radius 1 at origin, circle radius 2 at (1, 0): one contact (-1, 0)
    big = ConicImplicit(1.0, 0.0, 1.0, -2.0, 0.0, -3.0)
    pts = conic_conic_intersections(UNIT_CIRCLE, big)
    assert match_point_sets(as_sorted_tuples(pts), [(-1.0, 0.0)], tol=1e-6)


# -------------------------------------------------------- random properties


def test_count_and_symmetry_on_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(200):
        c1 = bisector_implicit(random_generator(rng, 0), random_generator(rng, 1))
        c2 = bisector_implicit(random_generator(rng, 2), random_generator(rng, 3))
        try:
            fwd = conic_conic_intersections(c1, c2, length_scale=20.0)
            rev = conic_conic_intersections(c2, c1, length_scale=20.0)
        except OverlappingConicsError:
            continue
        assert len(fwd) <= 4
        assert len(rev) <= 4
        assert match_point_sets(
            [(p[0], p[1]) for p in fwd], [(p[0], p[1]) for p in rev], tol=1e-6
        )


def test_residuals_on_random_pairs():
    rng = np.random.default_rng(37)
    for _ in range(200):
        c1 = bisector_implicit(random_generator(rng, 0), random_generator(rng, 1))
        c2 = bisector_implicit(random_generator(rng, 2), random_generator(rng, 3))
        for p in conic_conic_intersections(c1, c2, length_scale=20.0):
            assert abs(c1.evaluate(p[0], p[1])) <= 1e-8 * c1.residual_scale(p[0], p[1])
            assert abs(c2.evaluate(p[0], p[1])) <= 1e-8 * c2.residual_scale(p[0], p[1])


def test_grid_oracle_match():
    rng = np.random.default_rng(41)
    box = (-25.0, -25.0, 25.0, 25.0)
    margin = 0.5
    pairs_checked = 0
    while pairs_checked < 100:
        c1 = bisector_implicit(random_generator(rng, 0), random_generator(rng, 1))
        c2 = bisector_implicit(random_generator(rng, 2), random_generator(rng, 3))
        try:
            mine = conic_conic_intersections(c1, c2, length_scale=50.0)
        except OverlappingConicsError:
            continue
        oracle = grid_conic_intersections(c1, c2, box)
        inner = lambda p: (
            box[0] + margin <= p[0] <= box[2] - margin
            and box[1] + margin <= p[1] <= box[3] - margin
        )
        mine_in = [p for p in mine if inner(p)]
        # completeness: every oracle point is produced analytically
        for q in oracle:
            assert any(math.hypot(q[0] - p[0], q[1] - p[1]) <= 1e-6 for p in mine), (
                q,
                mine,
            )
        # soundness: every analytic point inside the box is confirmed
        for p in mine_in:
            assert any(math.hypot(q[0] - p[0], q[1] - p[1]) <= 1e-6 for q in oracle), (
                p,
                oracle,
            )
        pairs_checked += 1


def test_batch_matches_scalar():
    rng = np.random.default_rng(43)
    mats1, mats2, scalars = [], [], []
    for _ in range(64):
        c1 = bisector_implicit(random_generator(rng, 0), random_generator(rng, 1))
        c2 = bisector_implicit(random_generator(rng, 2), random_generator(rng, 3))
        mats1.append(c1.matrix3())
        mats2.append(c2.matrix3())
        scalars.append(conic_conic_intersections(c1, c2, length_scale=20.0))
    prep = prepare_pairs(np.array(mats1 + mats2), 20.0, (0.0, 0.0))
    rows = np.arange(len(mats1))
    pts, valid = pencil_intersections_batch(rows, rows + len(mats1), prep)
    for k, expected in enumerate(scalars):
        got = [pts[k, s] for s in range(4) if valid[k, s]]
        assert match_point_sets(
            [(p[0], p[1]) for p in got], [(p[0], p[1]) for p in expected], tol=1e-9
        )


@st.composite
def pencil_scenes(draw):
    """Generators whose bisectors include lines (a shared isotropic matrix,
    so the input conic is degenerate), line pairs (concentric generators
    with different matrices) and curves, moved far from the origin, with
    a frame centered on the scene or off it."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    shift = draw(st.sampled_from([0.0, 1e4, -3e6]))
    gens = []
    for gid in range(draw(st.integers(3, 6))):
        kind = draw(st.sampled_from(["iso", "aniso", "concentric"]))
        p = rng.uniform(0.0, 100.0, 2) + shift
        if kind == "concentric" and gens:
            p = gens[-1].p.copy()
        m12 = float(rng.uniform(-1.0, 1.0))
        m = SymMat2.identity() if kind == "iso" else SymMat2(
            abs(m12) + float(rng.uniform(0.1, 2.5)), m12, abs(m12) + float(rng.uniform(0.1, 2.5)))
        gens.append(Generator(gid, p, m, float(rng.uniform(-4.0, 4.0))))
    center = (50.0 + shift, 50.0 + shift) if draw(st.booleans()) else (0.0, 0.0)
    return gens, draw(st.sampled_from([1.0, 141.4, 1e3])), center


@given(pencil_scenes())
@settings(max_examples=60, deadline=None)
def test_prepared_rows_match_pairs_prepared_alone_bit_for_bit(scene):
    # the build prepares every bisector in one call and gathers rows per
    # triple; preparing only the triple's two conics must give the same bits
    gens, length_scale, center = scene
    n = len(gens)
    pair_row = np.full((n, n), -1)
    mats = []
    for r, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        mats.append(bisector_implicit(gens[i], gens[j]).matrix3())
        pair_row[i, j] = pair_row[j, i] = r
    trip = np.array(list(itertools.combinations(range(n), 3)))
    rows1, rows2 = pair_row[trip[:, 0], trip[:, 1]], pair_row[trip[:, 0], trip[:, 2]]
    mats = np.array(mats)
    got = pencil_intersections_batch(rows1, rows2, prepare_pairs(mats, length_scale, center))
    for k, (r1, r2) in enumerate(zip(rows1, rows2)):
        alone = prepare_pairs(mats[[r1, r2]], length_scale, center)
        want = pencil_intersections_batch(np.array([0]), np.array([1]), alone)
        assert got[0][k].tobytes() == want[0][0].tobytes()
        assert np.array_equal(got[1][k], want[1][0])


# ----------------------------------------------------------------- vertices


def equilateral_scene():
    h = 2.0 * math.sqrt(3.0)
    return [
        gen(0, (0.0, 0.0), 1.0, 0.0, 1.0),
        gen(1, (4.0, 0.0), 1.0, 0.0, 1.0),
        gen(2, (2.0, h), 1.0, 0.0, 1.0),
    ]


def test_equilateral_circumcenter_is_vertex():
    scene = equilateral_scene()
    center = np.array([2.0, 2.0 * math.sqrt(3.0) / 3.0])
    assert globally_minimal(center[None], np.array([[0, 1, 2]]), SceneArrays(scene))[0]
    # and the pencil construction actually finds it
    c1 = bisector_implicit(scene[0], scene[1])
    c2 = bisector_implicit(scene[0], scene[2])
    pts = conic_conic_intersections(c1, c2)
    assert match_point_sets(
        [(p[0], p[1]) for p in pts], [(center[0], center[1])], tol=1e-9
    )


def test_dominating_fourth_generator_defeats_vertex():
    scene = equilateral_scene()
    center = np.array([2.0, 2.0 * math.sqrt(3.0) / 3.0])
    scene.append(gen(3, tuple(center), 1.0, 0.0, 1.0, w=100.0))
    assert not globally_minimal(center[None], np.array([[0, 1, 2]]), SceneArrays(scene))[0]


def test_vertex_test_weight_shift_invariant():
    rng = np.random.default_rng(47)
    for _ in range(50):
        scene = [random_generator(rng, k) for k in range(6)]
        c1 = bisector_implicit(scene[0], scene[1])
        c2 = bisector_implicit(scene[0], scene[2])
        try:
            pts = conic_conic_intersections(c1, c2, length_scale=20.0)
        except OverlappingConicsError:
            continue
        shifted = [g.with_weight(g.w + 17.0) for g in scene]
        cand = np.array(pts).reshape(-1, 2)
        trip = np.tile([0, 1, 2], (cand.shape[0], 1))
        a = globally_minimal(cand, trip, SceneArrays(scene))
        b = globally_minimal(cand, trip, SceneArrays(shifted))
        assert a.tolist() == b.tolist()


def test_laguerre_radical_center():
    rng = np.random.default_rng(53)
    for _ in range(50):
        ps = [rng.uniform(-10, 10, size=2) for _ in range(3)]
        ws = [float(rng.uniform(0, 9)) for _ in range(3)]
        expected = radical_center(ps[0], ws[0], ps[1], ws[1], ps[2], ws[2])
        if expected is None:
            continue
        scene = [gen(k, ps[k], 1.0, 0.0, 1.0, w=ws[k]) for k in range(3)]
        c1 = bisector_implicit(scene[0], scene[1])
        c2 = bisector_implicit(scene[0], scene[2])
        pts = conic_conic_intersections(c1, c2, length_scale=20.0)
        assert len(pts) == 1
        assert math.hypot(pts[0][0] - expected[0], pts[0][1] - expected[1]) <= 1e-9 * (
            1.0 + float(np.hypot(*expected))
        )


def test_far_from_origin_frame_conditioning():
    # scenes living around coordinate 100 make the raw pencil cubic collapse
    # (constant terms carry two powers of the coordinate size); the frame
    # transform must recover the intersections the marching oracle sees
    rng = np.random.default_rng(97)
    for _ in range(40):
        center = rng.uniform(60, 140, size=2)
        scene = []
        for k in range(3):
            p = center + rng.uniform(-30, 30, size=2)
            th = rng.uniform(0, math.pi)
            a1 = rng.uniform(3, 10) ** 2
            a2 = rng.uniform(1, 3) ** 2
            scene.append(
                Generator(k, p, SymMat2(1 / a1, 0.0, 1 / a2).rotated(th), rng.uniform(0, 5))
            )
        c1 = bisector_implicit(scene[0], scene[1])
        c2 = bisector_implicit(scene[0], scene[2])
        try:
            pts = conic_conic_intersections(
                c1, c2, length_scale=150.0, center=(center[0], center[1])
            )
        except OverlappingConicsError:
            continue
        box = (center[0] - 60, center[1] - 60, center[0] + 60, center[1] + 60)
        expected = grid_conic_intersections(c1, c2, box, n=600)
        for e in expected:
            assert any(math.hypot(p[0] - e[0], p[1] - e[1]) <= 1e-6 * 150 for p in pts), (
                f"missed {e}; got {pts}"
            )
