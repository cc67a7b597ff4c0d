"""Generator distances, matrix decomposition, ellipse geometry, scene I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbpd import (
    Generator,
    InputError,
    NonRenderableContour,
    SceneArrays,
    SymMat2,
    Window,
    dist_g,
    ellipse_to_matrix,
    generator_to_ellipse,
    load_scene,
    save_scene,
    special_distances,
)
from gbpd.bisector import bisector_table
from gbpd.diagram import build_diagram
from gbpd.serialize import diagram_from_json, diagram_to_json


def gen(gid, p, m11, m12, m22, w=0.0):
    return Generator(gid, np.array(p, dtype=float), SymMat2(m11, m12, m22), w)


# ---------------------------------------------------------------- distances


def test_distance_at_center_is_minus_weight():
    g = gen(0, (3.0, -1.0), 2.0, 0.5, 1.5, w=7.25)
    assert dist_g((3.0, -1.0), g) == -7.25


def test_distance_identity_matrix_is_squared_euclidean():
    g = gen(0, (0.0, 0.0), 1.0, 0.0, 1.0)
    assert dist_g((3.0, 4.0), g) == pytest.approx(25.0, abs=0.0)


def test_distance_hand_value():
    # d = (1,1), M = [[2,1],[1,3]], w = 2: 2 + 2 + 3 - 2 = 5
    g = gen(0, (0.0, 0.0), 2.0, 1.0, 3.0, w=2.0)
    assert dist_g((1.0, 1.0), g) == pytest.approx(5.0, abs=1e-15)


def test_distance_can_be_negative_inside_contour():
    g = gen(0, (0.0, 0.0), 1.0, 0.0, 1.0, w=4.0)
    assert dist_g((1.0, 0.0), g) == -3.0


finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@given(
    px=finite, py=finite, x=finite, y=finite,
    m12=st.floats(min_value=-2, max_value=2),
    d1=st.floats(min_value=0.1, max_value=5),
    d2=st.floats(min_value=0.1, max_value=5),
    w=st.floats(min_value=-10, max_value=10),
    shift=st.floats(min_value=-100, max_value=100),
)
@settings(max_examples=200)
def test_weight_shift_moves_all_distances_equally(px, py, x, y, m12, d1, d2, w, shift):
    # keep M positive definite: diagonal dominance
    m11 = abs(m12) + d1
    m22 = abs(m12) + d2
    g = gen(0, (px, py), m11, m12, m22, w)
    a = dist_g((x, y), g)
    b = dist_g((x, y), g.with_weight(w + shift))
    assert b == pytest.approx(a - shift, rel=1e-12, abs=1e-9)


def test_special_distance_voronoi():
    g = gen(0, (1.0, 2.0), 3.0, 0.0, 3.0, w=5.0)  # M, w must be ignored
    assert special_distances((4.0, 6.0), g, "voronoi") == pytest.approx(5.0)


def test_special_distance_laguerre_matches_generator_distance():
    g = gen(0, (1.0, 1.0), 1.0, 0.0, 1.0, w=2.0)
    x = (3.5, -0.5)
    assert special_distances(x, g, "laguerre") == pytest.approx(dist_g(x, g), abs=1e-15)


def test_special_distance_mw_squared_form():
    sigma = 2.0
    g = gen(0, (0.0, 0.0), 1 / sigma**2, 0.0, 1 / sigma**2, w=0.0)
    assert special_distances((4.0, 0.0), g, "mw") == pytest.approx((4.0 / sigma) ** 2)


def test_special_distance_mw_rejects_anisotropic():
    g = gen(0, (0.0, 0.0), 2.0, 0.0, 1.0)
    with pytest.raises(InputError):
        special_distances((1.0, 0.0), g, "mw")


# ------------------------------------------------------------ SymMat2 / pd


def test_positive_definite_rejected():
    with pytest.raises(InputError):
        gen(0, (0.0, 0.0), 1.0, 2.0, 1.0)  # det = -3
    with pytest.raises(InputError):
        gen(0, (0.0, 0.0), -1.0, 0.0, 2.0)


def test_negative_generator_id_rejected():
    # -1 is the background label of label images
    with pytest.raises(InputError, match="id"):
        gen(-1, (0.0, 0.0), 1.0, 0.0, 1.0)
    # ids are integers: a float or a bool id is rejected, a numpy integer is stored as int
    for bad in (0.5, 2.0, True, False, np.float64(3.0), "1", None):
        with pytest.raises(InputError, match="id must be an integer"):
            gen(bad, (0.0, 0.0), 1.0, 0.0, 1.0)
    g = gen(np.int64(7), (0.0, 0.0), 1.0, 0.0, 1.0)
    assert type(g.id) is int and g.id == 7
    assert type(gen(np.uint8(3), (0.0, 0.0), 1.0, 0.0, 1.0).id) is int
    # the scenes that ended in an untyped error of the build before the check
    for ids in ((0.5, 2, 3), (0.5, 0.7)):
        with pytest.raises(InputError, match="id must be an integer"):
            build_diagram([gen(gid, (float(k), 0.0), 1.0, 0.0, 1.0) for k, gid in enumerate(ids)])
    # a pair of one id has no bisector
    with pytest.raises(InputError, match="distinct ids"):
        bisector_table([gen(4, (0.0, 0.0), 1.0, 0.0, 1.0), gen(4, (1.0, 0.0), 1.0, 0.0, 1.0)])


def test_generator_ids_fit_label_images(tmp_path):
    # label images store ids as int32: 2**32 read as 0 there, and 2**63 ended
    # the build in an untyped OverflowError
    top = 2**31 - 1
    assert gen(top, (0.0, 0.0), 1.0, 0.0, 1.0).id == top
    text = diagram_to_json(build_diagram([gen(0, (100.0, 200.0), 1.0, 0.0, 1.0),
                                          gen(1, (300.0, 200.0), 1.0, 0.0, 1.0)]))
    for bad in (2**31, 2**32, 2**63):
        with pytest.raises(InputError, match=f"generator {bad}: id must be in 0..{top}"):
            gen(bad, (0.0, 0.0), 1.0, 0.0, 1.0)
        scene = tmp_path / "s.csv"
        scene.write_text(f"id,px,py,m11,m12,m22,w\n0,0,0,1,0,1,0\n{bad},5,5,1,0,1,0\n")
        with pytest.raises(InputError, match="line 3: .*id must be in"):
            load_scene(scene)
        doc = json.loads(text)
        doc["generators"][1]["id"] = bad
        with pytest.raises(InputError, match=r"generators\[1\]: .*id must be in"):
            diagram_from_json(json.dumps(doc))


def test_eigh_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.normal(size=(2, 2))
        m = SymMat2.from_matrix(a @ a.T + 0.01 * np.eye(2))
        evals, evecs = m.eigh()
        ref_vals, _ = np.linalg.eigh(m.matrix)
        assert np.allclose(evals, ref_vals, rtol=1e-12, atol=1e-12)
        # reconstruction U diag(evals) U^T == M
        rebuilt = evecs @ np.diag(evals) @ evecs.T
        assert np.allclose(rebuilt, m.matrix, rtol=0, atol=1e-12 * max(1.0, abs(evals[1])))
        # columns orthonormal
        assert np.allclose(evecs.T @ evecs, np.eye(2), atol=1e-12)


def test_rotated_congruence():
    m = SymMat2(3.0, 0.5, 1.0)
    th = 0.7
    c, s = math.cos(th), math.sin(th)
    r = np.array([[c, -s], [s, c]])
    assert np.allclose(m.rotated(th).matrix, r @ m.matrix @ r.T, atol=1e-14)


def test_inverse():
    m = SymMat2(2.0, 1.0, 3.0)
    assert np.allclose(m.inverse().matrix @ m.matrix, np.eye(2), atol=1e-15)


# ------------------------------------------------------------------ ellipse


def test_circle_generator_to_ellipse():
    g = gen(0, (1.0, 2.0), 0.25, 0.0, 0.25, w=0.0)  # radius 2 circle
    e = generator_to_ellipse(g)
    assert e.semi_axes == pytest.approx((2.0, 2.0))
    assert e.theta == 0.0
    assert np.allclose(e.center, [1.0, 2.0])


def test_weight_scales_contour():
    g = gen(0, (0.0, 0.0), 1.0, 0.0, 1.0, w=3.0)
    e = generator_to_ellipse(g)
    assert e.semi_axes == pytest.approx((2.0, 2.0))  # sqrt(1 + 3)
    bare = generator_to_ellipse(g, scaled=False)
    assert bare.semi_axes == pytest.approx((1.0, 1.0))


def test_axis_aligned_ellipse_angles():
    # semi-axes 4 (along x) and 2 (along y): M = diag(1/16, 1/4)
    g = gen(0, (0.0, 0.0), 1 / 16, 0.0, 1 / 4)
    e = generator_to_ellipse(g)
    assert e.semi_axes == pytest.approx((4.0, 2.0))
    assert e.theta == pytest.approx(0.0, abs=1e-15)
    # major axis along y: theta = pi/2
    g2 = gen(1, (0.0, 0.0), 1 / 4, 0.0, 1 / 16)
    assert generator_to_ellipse(g2).theta == pytest.approx(math.pi / 2)


def test_rotated_ellipse_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = float(rng.uniform(1.0, 20.0))
        b = float(rng.uniform(0.3, a))
        th = float(rng.uniform(0.0, math.pi))
        base = SymMat2(1 / a**2, 0.0, 1 / b**2)
        m = base.rotated(th)
        g = Generator(0, np.zeros(2), m, 0.0)
        e = generator_to_ellipse(g)
        assert e.semi_axes[0] == pytest.approx(a, rel=1e-10)
        assert e.semi_axes[1] == pytest.approx(b, rel=1e-10)
        if a - b > 1e-6 * a:
            # angle defined mod pi
            diff = abs(e.theta - th) % math.pi
            assert min(diff, math.pi - diff) < 1e-9
        # rebuild the matrix from the ellipse description
        rebuilt = ellipse_to_matrix(e)
        assert np.allclose(rebuilt.matrix, m.matrix, rtol=1e-9, atol=1e-12)


def test_nonrenderable_contour_for_low_weight():
    g = gen(0, (0.0, 0.0), 1.0, 0.0, 1.0, w=-1.0)
    with pytest.raises(NonRenderableContour):
        generator_to_ellipse(g)
    # unscaled contour still fine
    assert generator_to_ellipse(g, scaled=False).semi_axes == pytest.approx((1.0, 1.0))


# ------------------------------------------------------------- scene arrays


def test_scene_arrays_matches_scalar_distance():
    rng = np.random.default_rng(3)
    gens = []
    for i in range(20):
        m12 = float(rng.uniform(-1, 1))
        gens.append(
            gen(
                i,
                rng.uniform(-10, 10, size=2),
                abs(m12) + float(rng.uniform(0.1, 3)),
                m12,
                abs(m12) + float(rng.uniform(0.1, 3)),
                w=float(rng.uniform(-5, 5)),
            )
        )
    arr = SceneArrays(gens)
    pts = rng.uniform(-12, 12, size=(50, 2))
    d = arr.dist(pts)
    assert d.shape == (50, 20)
    for r in range(0, 50, 7):
        for c in range(0, 20, 3):
            assert d[r, c] == pytest.approx(dist_g(pts[r], gens[c]), rel=1e-13, abs=1e-13)


# ------------------------------------------------------------------- window


def test_window_basics():
    win = Window(0.0, 0.0, 4.0, 3.0)
    assert win.diagonal == 5.0
    assert win.area() == 12.0
    assert win.contains((2.0, 2.9))
    assert not win.contains((2.0, 3.1))
    assert win.corners().shape == (4, 2)
    with pytest.raises(InputError):
        Window(1.0, 0.0, 1.0, 5.0)
    # a bound that is not finite
    for bounds in ((0.0, 0.0, math.inf, 400.0), (-math.inf, 0.0, 1.0, 1.0),
                   (0.0, math.nan, 1.0, 1.0)):
        with pytest.raises(InputError, match="window"):
            Window(*bounds)


# ---------------------------------------------------------------- scene I/O


def test_scene_round_trip(tmp_path):
    gens = [
        gen(0, (0.125, -3.0), 2.0, 0.5, 1.75, w=1.5),
        gen(3, (1e-7, 4.0), 1.0, 0.0, 1.0, w=-0.25),
    ]
    path = tmp_path / "scene.csv"
    save_scene(path, gens)
    back = load_scene(path)
    assert len(back) == 2
    for a, b in zip(gens, back):
        assert a.id == b.id
        assert np.array_equal(a.p, b.p)
        assert (a.M.m11, a.M.m12, a.M.m22) == (b.M.m11, b.M.m12, b.M.m22)
        assert a.w == b.w


def test_scene_round_trip_is_byte_stable(tmp_path):
    gens = [gen(0, (1 / 3, 2 / 7), 1.1, 0.1, 0.9, w=0.123456789012345)]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_scene(p1, gens)
    save_scene(p2, load_scene(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_scene_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x,y,m11,m12,m22,w\n0,0,0,1,0,1,0\n")
    with pytest.raises(InputError, match="line 1"):
        load_scene(path)


def test_load_scene_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,px,py,m11,m12,m22,w\n0,0,0,1,0,1,0\n1,0,0,not_a_number,0,1,0\n")
    with pytest.raises(InputError, match="line 3"):
        load_scene(path)


def test_load_scene_rejects_non_positive_definite(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,px,py,m11,m12,m22,w\n0,0,0,1,5,1,0\n")
    with pytest.raises(InputError, match="line 2.*positive definite"):
        load_scene(path)


def test_load_scene_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,px,py,m11,m12,m22,w\n0,0,0,1,0,1,0\n0,5,5,1,0,1,0\n")
    with pytest.raises(InputError, match="duplicate"):
        load_scene(path)
