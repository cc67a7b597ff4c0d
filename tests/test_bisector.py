"""Bisector conic construction, classification, parametrization, recovery."""

import math

import numpy as np
import pytest

from gbpd import Generator, NoSolutionError, SingularParameterError, SymMat2, dist_g
from gbpd.bisector import (
    Bisector,
    alphas_of_point,
    bisector_implicit,
    make_bisector,
    param_of_point,
    sample_points,
)
from gbpd.conic import (
    ConicClass,
    ConicImplicit,
    DegenerateConic,
    ParametrizedConic,
    classify_and_parametrize,
    param_of_alpha,
    residual_polynomial,
)


def gen(gid, p, m11, m12, m22, w=0.0):
    return Generator(gid, np.array(p, dtype=float), SymMat2(m11, m12, m22), w)


def random_generator(rng, gid, center_range=10.0, weight_range=5.0):
    m12 = float(rng.uniform(-1.5, 1.5))
    m11 = abs(m12) + float(rng.uniform(0.05, 3.0))
    m22 = abs(m12) + float(rng.uniform(0.05, 3.0))
    return gen(
        gid,
        rng.uniform(-center_range, center_range, size=2),
        m11,
        m12,
        m22,
        w=float(rng.uniform(-weight_range, weight_range)),
    )


def assert_on_bisector(point, gi, gj, rel=1e-8):
    di, dj = dist_g(point, gi), dist_g(point, gj)
    assert abs(di - dj) <= rel * (1.0 + abs(di)), (point, di, dj)


# -------------------------------------------------------------- coefficients


def test_equal_isotropic_pair_is_perpendicular_bisector():
    gi = gen(0, (0.0, 0.0), 1.0, 0.0, 1.0)
    gj = gen(1, (2.0, 0.0), 1.0, 0.0, 1.0)
    c = bisector_implicit(gi, gj)
    assert c.coeffs() == (0.0, 0.0, 0.0, 4.0, 0.0, -4.0)  # 4x - 4 = 0, i.e. x = 1


def test_double_isotropic_against_unit_gives_circle():
    gi = gen(0, (0.0, 0.0), 2.0, 0.0, 2.0)
    gj = gen(1, (2.0, 0.0), 1.0, 0.0, 1.0)
    c = bisector_implicit(gi, gj)
    assert c.coeffs() == (1.0, 0.0, 1.0, 4.0, 0.0, -4.0)
    # x^2 + y^2 + 4x - 4 = 0: circle center (-2, 0), radius sqrt(8)
    assert c.evaluate(-2.0 + math.sqrt(8.0), 0.0) == pytest.approx(0.0, abs=1e-12)
    b = make_bisector(gi, gj)
    assert b.conic_class is ConicClass.ELLIPSE
    for q in sample_points(b, 64):
        assert math.hypot(q[0] + 2.0, q[1]) == pytest.approx(math.sqrt(8.0), rel=1e-12)
        assert_on_bisector(q, gi, gj)


def test_anisotropic_pair_gives_parallel_lines():
    gi = gen(0, (0.0, 0.0), 2.0, 0.0, 1.0)
    gj = gen(1, (2.0, 0.0), 1.0, 0.0, 1.0)
    c = bisector_implicit(gi, gj)
    assert c.coeffs() == (1.0, 0.0, 0.0, 4.0, 0.0, -4.0)
    b = make_bisector(gi, gj)
    assert b.conic_class is ConicClass.TWO_PARALLEL_LINES
    xs = sorted(-line.c / line.a for line in b.lines)
    assert xs[0] == pytest.approx(-2.0 - 2.0 * math.sqrt(2.0), abs=1e-9)
    assert xs[1] == pytest.approx(-2.0 + 2.0 * math.sqrt(2.0), abs=1e-9)
    for q in sample_points(b, 32, line_span=50.0):
        assert_on_bisector(q, gi, gj)


def test_swapping_pair_negates_coefficients():
    rng = np.random.default_rng(2)
    for _ in range(50):
        gi, gj = random_generator(rng, 0), random_generator(rng, 1)
        cij = bisector_implicit(gi, gj)
        cji = bisector_implicit(gj, gi)
        assert np.allclose(cij.coeffs(), [-v for v in cji.coeffs()], rtol=0, atol=1e-12)


# ------------------------------------------------------------ classification


def test_classify_circle():
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, 1.0, 4.0, 0.0, -4.0))
    assert isinstance(rep, ParametrizedConic)
    assert rep.conic_class is ConicClass.ELLIPSE
    assert rep.singular_params == ()


def test_classify_single_line():
    rep = classify_and_parametrize(ConicImplicit(0.0, 0.0, 0.0, 4.0, 0.0, -4.0), length_scale=10.0)
    assert isinstance(rep, DegenerateConic)
    assert rep.conic_class is ConicClass.SINGLE_LINE
    line = rep.lines[0]
    assert line.signed_distance((1.0, 123.0)) == pytest.approx(0.0, abs=1e-12)


def test_classify_canonical_hyperbola():
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, -1.0, 0.0, 0.0, -1.0))
    assert isinstance(rep, ParametrizedConic)
    assert rep.conic_class is ConicClass.HYPERBOLA
    assert len(rep.singular_params) == 2
    s1, s2 = rep.singular_params
    assert s1 == pytest.approx(-s2)


def test_classify_parabola():
    # y = x^2  ->  x^2 - y = 0
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, 0.0, 0.0, -1.0, 0.0))
    assert isinstance(rep, ParametrizedConic)
    assert rep.conic_class is ConicClass.PARABOLA
    assert len(rep.singular_params) == 1


def test_classify_intersecting_lines():
    # x^2 - y^2 = 0
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, -1.0, 0.0, 0.0, 0.0))
    assert isinstance(rep, DegenerateConic)
    assert rep.conic_class is ConicClass.TWO_INTERSECTING_LINES
    assert len(rep.lines) == 2


def test_classify_empty_and_whole_plane():
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, 1.0, 0.0, 0.0, 1.0))
    assert isinstance(rep, DegenerateConic)
    assert rep.conic_class is ConicClass.EMPTY
    rep = classify_and_parametrize(ConicImplicit(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert rep.conic_class is ConicClass.WHOLE_PLANE
    # single real point (x^2 + y^2 = 0) counts as empty: no curve to trace
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    assert rep.conic_class is ConicClass.EMPTY


def test_point_degenerate_bisector_maps_to_empty():
    gi = gen(0, (0.0, 0.0), 2.0, 0.0, 2.0)
    gj = gen(1, (0.0, 0.0), 1.0, 0.0, 1.0)
    b = make_bisector(gi, gj)
    assert b.conic_class is ConicClass.EMPTY


def test_discriminant_sign_matches_class():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        gi, gj = random_generator(rng, 0), random_generator(rng, 1)
        c = bisector_implicit(gi, gj)
        quad_scale = max(abs(c.a11), abs(c.a12), abs(c.a22))
        if quad_scale < 1e-9:
            continue
        rep = classify_and_parametrize(c)
        if not isinstance(rep, ParametrizedConic):
            continue
        disc = c.quad_discriminant()
        if abs(disc) <= 1e-9 * quad_scale * quad_scale:
            continue
        expected = ConicClass.HYPERBOLA if disc > 0 else ConicClass.ELLIPSE
        assert rep.conic_class is expected
        seen.add(expected)
    assert seen == {ConicClass.ELLIPSE, ConicClass.HYPERBOLA}


# ----------------------------------------------------------- parametrization


def test_residual_polynomial_vanishes_symbolically():
    rng = np.random.default_rng(9)
    for _ in range(100):
        gi, gj = random_generator(rng, 0), random_generator(rng, 1)
        c = bisector_implicit(gi, gj)
        rep = classify_and_parametrize(c)
        if not isinstance(rep, ParametrizedConic):
            continue
        poly = residual_polynomial(c, rep)
        scale = c.coeff_scale() * max(
            sum(abs(v) for v in rep.uq) ** 2, sum(abs(v) for v in rep.xq) ** 2, 1.0
        )
        assert np.all(np.abs(poly) <= 1e-12 * scale)


def test_circle_canonical_start_point():
    # orientation is canonicalization-dependent; the pinned fact is that the
    # t=0 point lies on the circle at an axis point
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    assert isinstance(rep, ParametrizedConic)
    q = rep.point_at(0.0)
    assert math.hypot(q[0], q[1]) == pytest.approx(1.0, abs=1e-12)
    assert min(abs(q[0]), abs(q[1])) == pytest.approx(0.0, abs=1e-9)


def test_eval_at_singular_parameter_raises():
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, -1.0, 0.0, 0.0, -1.0))
    assert isinstance(rep, ParametrizedConic)
    with pytest.raises(SingularParameterError):
        rep.point_at(rep.singular_params[0])


def test_eval_random_conics_residual():
    rng = np.random.default_rng(13)
    count = 0
    for _ in range(200):
        gi, gj = random_generator(rng, 0), random_generator(rng, 1)
        c = bisector_implicit(gi, gj)
        rep = classify_and_parametrize(c)
        if not isinstance(rep, ParametrizedConic):
            continue
        count += 1
        for t in (0.37, -2.5, 0.0, 11.0, math.inf):
            try:
                q = rep.point_at(t)
            except SingularParameterError:
                continue
            res = c.evaluate(q[0], q[1])
            assert abs(res) <= 1e-9 * c.residual_scale(q[0], q[1])
    assert count >= 100


def test_velocity_matches_finite_differences():
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, 1.0, 4.0, 0.0, -4.0))
    assert isinstance(rep, ParametrizedConic)
    h = 1e-6
    for alpha in np.linspace(-math.pi, math.pi, 17, endpoint=False):
        v = rep.velocity_at_alpha(float(alpha))
        fd = (rep.point_at_alpha(alpha + h) - rep.point_at_alpha(alpha - h)) / (2.0 * h)
        assert np.allclose(v, fd, rtol=1e-6, atol=1e-6)


def test_velocity_continuous_across_chart_switch():
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, 1.0, 4.0, 0.0, -4.0))
    assert isinstance(rep, ParametrizedConic)
    for a0 in (math.pi / 2, -math.pi / 2, math.pi):
        lo = rep.velocity_at_alpha(a0 - 1e-9)
        hi = rep.velocity_at_alpha(a0 + 1e-9)
        # the two probes are 2e-9 apart in alpha, so allow that much drift
        assert np.allclose(lo, hi, rtol=1e-6, atol=1e-8)


# --------------------------------------------------------- parameter recovery


def test_param_of_point_round_trip():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(150):
        gi, gj = random_generator(rng, 0), random_generator(rng, 1)
        c = bisector_implicit(gi, gj)
        rep = classify_and_parametrize(c)
        if not isinstance(rep, ParametrizedConic):
            continue
        t_star = float(rng.uniform(-5.0, 5.0))
        try:
            q = rep.point_at(t_star)
        except SingularParameterError:
            continue
        found = param_of_point(rep, q, eps=1e-6)
        assert any(
            math.isfinite(t) and abs(t - t_star) <= 1e-8 * (1.0 + abs(t_star)) for t in found
        ), (t_star, found)
        checked += 1
    assert checked >= 80


def test_param_of_point_far_point_is_infinite_marker():
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    assert isinstance(rep, ParametrizedConic)
    far = rep.point_at(math.inf)
    found = param_of_point(rep, far, eps=1e-9)
    assert any(math.isinf(t) for t in found)


def test_param_of_point_rejects_off_curve():
    rep = classify_and_parametrize(ConicImplicit(1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    assert isinstance(rep, ParametrizedConic)
    with pytest.raises(NoSolutionError):
        param_of_point(rep, (2.0, 0.0), eps=1e-6)  # off the unit circle by 1.0


# ----------------------------------------------------- distance equality law


def test_sampled_points_equidistant_many_pairs():
    rng = np.random.default_rng(23)
    curved = 0
    for _ in range(120):
        gi = random_generator(rng, 0, center_range=40.0)
        gj = random_generator(rng, 1, center_range=40.0)
        b = make_bisector(gi, gj)
        pts = sample_points(b, 64, line_span=200.0)
        for q in pts:
            assert_on_bisector(q, gi, gj)
        if b.param is not None:
            curved += 1
    assert curved >= 60


def test_components_cover_curve_classes():
    ell = make_bisector(gen(0, (0, 0), 2, 0, 2), gen(1, (2, 0), 1, 0, 1))
    assert ell.conic_class is ConicClass.ELLIPSE
    assert len(ell.components) == 1 and ell.components[0].closed

    hyp_conic = classify_and_parametrize(ConicImplicit(1.0, 0.0, -1.0, 0.0, 0.0, -1.0))
    assert len(hyp_conic.singular_params) == 2

    # hyperbola bisector: generators with opposite anisotropy
    hyp = make_bisector(gen(0, (0, 0), 2, 0, 1), gen(1, (3, 1), 1, 0, 2))
    assert hyp.conic_class is ConicClass.HYPERBOLA
    assert len(hyp.components) == 2
    for comp in hyp.components:
        alpha = comp.midpoint()
        assert comp.contains_alpha(alpha)
        q = hyp.param.point_at_alpha(alpha)
        assert_on_bisector(q, hyp.gi, hyp.gj)


def test_alpha_param_round_trip():
    for t in (-3.0, -1.0, 0.0, 0.5, 2.0, math.inf):
        a = 2.0 * math.atan(t) if math.isfinite(t) else math.pi
        back = param_of_alpha(a)
        if math.isfinite(t):
            assert back == pytest.approx(t, rel=1e-12, abs=1e-12)
        else:
            assert math.isinf(back)


def test_make_bisector_orders_pair():
    gi = gen(5, (0.0, 0.0), 1.0, 0.0, 1.0)
    gj = gen(2, (2.0, 0.0), 2.0, 0.0, 2.0)
    b = make_bisector(gi, gj)
    assert b.pair == (2, 5)
    assert isinstance(b, Bisector)


def test_alphas_of_point_on_hyperbola_branch():
    hyp = make_bisector(gen(0, (0, 0), 2, 0, 1), gen(1, (3, 1), 1, 0, 2))
    assert hyp.param is not None
    comp = hyp.components[1]
    alpha = comp.midpoint()
    q = hyp.param.point_at_alpha(alpha)
    found = alphas_of_point(hyp, q, eps=1e-6)
    assert any(abs(math.remainder(a - alpha, 2 * math.pi)) < 1e-7 for a in found)
