"""Bisector conic construction, classification, parametrization, recovery."""

import math

import numpy as np
import pytest

from gbpd import Generator, NoSolutionError, SingularParameterError, SymMat2, dist_g
from gbpd.bisector import (
    BisectorTable,
    bisector_implicit,
    make_bisector,
    param_of_point,
    params_of_points,
)
from gbpd.conic import (
    CLASSES,
    ELLIPSE_CODE,
    HYPERBOLA_CODE,
    PARABOLA_CODE,
    ConicClass,
    charts_of_triples,
    classify_rows,
    homogeneous_at_params,
    points_at_alphas,
)
from gbpd.measure import arc_measures
from gbpd.tolerances import DEN_REL

from oracles import alpha_of_param, param_of_alpha, sample_points

CURVE_CODES = (ELLIPSE_CODE, HYPERBOLA_CODE, PARABOLA_CODE)


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


def curve_points(coef, t):
    """Points (K, 2) of the conic with chart triples ``coef`` (1, 2, 3, 3) at the
    parameters t (K,), and the mask of those on the line at infinity."""
    x, y, u = (v[0] for v in homogeneous_at_params(coef, np.asarray(t, dtype=float)[None]))
    singular = np.abs(u) <= DEN_REL * np.abs(coef[0, 0, 2]).sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.column_stack([x / u, y / u]), singular


def residual_polynomial(conic, triples):
    """Coefficients (degree 4 down to 0) of F(x^, y^) pulled back through u^.

    Substituting the parametrization with coefficient triples ``triples`` (xq,
    yq, uq) into the implicit form and clearing the denominator gives a
    quartic polynomial in t that must vanish identically.
    """
    xq, yq, uq = (np.array(q) for q in triples)
    out = conic.a11 * np.convolve(xq, xq)
    out = out + 2.0 * conic.a12 * np.convolve(xq, yq)
    out = out + conic.a22 * np.convolve(yq, yq)
    out = out + conic.b11 * np.convolve(xq, uq)
    out = out + conic.b12 * np.convolve(yq, uq)
    out = out + conic.c * np.convolve(uq, uq)
    return out


# x^2 + y^2 = 1 as the bisector of two concentric isotropic generators; the
# pair frame is the identity, so the row is that of the conic (1, 0, 1, 0, 0, -1)
UNIT_CIRCLE = make_bisector(gen(0, (0.0, 0.0), 2.0, 0.0, 2.0, w=1.0),
                            gen(1, (0.0, 0.0), 1.0, 0.0, 1.0))


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
    assert CLASSES[b.code[0]] is ConicClass.ELLIPSE
    for q in sample_points(b, 0, 64):
        assert math.hypot(q[0] + 2.0, q[1]) == pytest.approx(math.sqrt(8.0), rel=1e-12)
        assert_on_bisector(q, gi, gj)


def test_anisotropic_pair_gives_parallel_lines():
    gi = gen(0, (0.0, 0.0), 2.0, 0.0, 1.0)
    gj = gen(1, (2.0, 0.0), 1.0, 0.0, 1.0)
    c = bisector_implicit(gi, gj)
    assert c.coeffs() == (1.0, 0.0, 0.0, 4.0, 0.0, -4.0)
    b = make_bisector(gi, gj)
    assert CLASSES[b.code[0]] is ConicClass.TWO_PARALLEL_LINES
    xs = sorted(-lc / la for la, _, lc in b.lines[0, : b.line_count[0]].tolist())
    assert xs[0] == pytest.approx(-2.0 - 2.0 * math.sqrt(2.0), abs=1e-9)
    assert xs[1] == pytest.approx(-2.0 + 2.0 * math.sqrt(2.0), abs=1e-9)
    for q in sample_points(b, 0, 32, line_span=50.0):
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
    rows = classify_rows([(1.0, 0.0, 1.0, 4.0, 0.0, -4.0)])
    assert CLASSES[rows.code[0]] is ConicClass.ELLIPSE
    assert rows.line_count[0] == 0 and rows.singular[0] == 0.0


def test_classify_single_line():
    rows = classify_rows([(0.0, 0.0, 0.0, 4.0, 0.0, -4.0)], length_scale=10.0)
    assert CLASSES[rows.code[0]] is ConicClass.SINGLE_LINE
    assert rows.line_count[0] == 1
    a, b, c = rows.lines[0, 0]
    assert a * 1.0 + b * 123.0 + c == pytest.approx(0.0, abs=1e-12)


def test_classify_canonical_hyperbola():
    rows = classify_rows([(1.0, 0.0, -1.0, 0.0, 0.0, -1.0)])
    assert CLASSES[rows.code[0]] is ConicClass.HYPERBOLA
    # the singular parameters +-s are the roots of u^, which has no linear term
    s, uq = rows.singular[0], rows.triples[0, 2]
    assert 0.0 < s <= 1.0 and uq[1] == 0.0
    assert uq[0] * s * s + uq[2] == pytest.approx(0.0, abs=1e-12 * np.abs(uq).sum())


def test_classify_parabola():
    # y = x^2  ->  x^2 - y = 0
    rows = classify_rows([(1.0, 0.0, 0.0, 0.0, -1.0, 0.0)])
    assert CLASSES[rows.code[0]] is ConicClass.PARABOLA
    # one singular parameter, the double root t = 0 of u^
    assert rows.triples[0, 2, 0] != 0.0 and rows.triples[0, 2, 1:].tolist() == [0.0, 0.0]


def test_classify_intersecting_lines():
    # x^2 - y^2 = 0
    rows = classify_rows([(1.0, 0.0, -1.0, 0.0, 0.0, 0.0)])
    assert CLASSES[rows.code[0]] is ConicClass.TWO_INTERSECTING_LINES
    assert rows.line_count[0] == 2


def test_classify_empty_and_whole_plane():
    # the single real point of x^2 + y^2 = 0 counts as empty: no curve to trace
    rows = classify_rows([(1.0, 0.0, 1.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                          (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)])
    assert [CLASSES[k] for k in rows.code] == [ConicClass.EMPTY, ConicClass.WHOLE_PLANE,
                                               ConicClass.EMPTY]
    assert rows.line_count.tolist() == [0, 0, 0]


def test_point_degenerate_bisector_maps_to_empty():
    gi = gen(0, (0.0, 0.0), 2.0, 0.0, 2.0)
    gj = gen(1, (0.0, 0.0), 1.0, 0.0, 1.0)
    b = make_bisector(gi, gj)
    assert CLASSES[b.code[0]] is ConicClass.EMPTY


def test_discriminant_sign_matches_class():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        gi, gj = random_generator(rng, 0), random_generator(rng, 1)
        c = bisector_implicit(gi, gj)
        quad_scale = max(abs(c.a11), abs(c.a12), abs(c.a22))
        if quad_scale < 1e-9:
            continue
        code = classify_rows([c.coeffs()]).code[0]
        if code not in CURVE_CODES:
            continue
        disc = c.a12 * c.a12 - c.a11 * c.a22
        if abs(disc) <= 1e-9 * quad_scale * quad_scale:
            continue
        expected = ConicClass.HYPERBOLA if disc > 0 else ConicClass.ELLIPSE
        assert CLASSES[code] is expected
        seen.add(expected)
    assert seen == {ConicClass.ELLIPSE, ConicClass.HYPERBOLA}


# ----------------------------------------------------------- parametrization


def test_residual_polynomial_vanishes_symbolically():
    rng = np.random.default_rng(9)
    for _ in range(100):
        gi, gj = random_generator(rng, 0), random_generator(rng, 1)
        c = bisector_implicit(gi, gj)
        rows = classify_rows([c.coeffs()])
        if rows.code[0] not in CURVE_CODES:
            continue
        xq, yq, uq = rows.triples[0].tolist()
        poly = residual_polynomial(c, (xq, yq, uq))
        scale = max(abs(v) for v in c.coeffs()) * max(
            sum(abs(v) for v in uq) ** 2, sum(abs(v) for v in xq) ** 2, 1.0
        )
        assert np.all(np.abs(poly) <= 1e-12 * scale)


def test_circle_canonical_start_point():
    # orientation is canonicalization-dependent; the pinned fact is that the
    # t=0 point lies on the circle at an axis point
    rows = classify_rows([(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)])
    (q,), singular = curve_points(charts_of_triples(rows.triples), [0.0])
    assert not singular.any()
    assert math.hypot(q[0], q[1]) == pytest.approx(1.0, abs=1e-12)
    assert min(abs(q[0]), abs(q[1])) == pytest.approx(0.0, abs=1e-9)


def test_eval_at_singular_parameter_raises():
    rows = classify_rows([(1.0, 0.0, -1.0, 0.0, 0.0, -1.0)])
    coef, u_scale = charts_of_triples(rows.triples), np.abs(rows.triples[:, 2]).sum(axis=1)
    alpha = alpha_of_param(-rows.singular[0])
    assert points_at_alphas(coef, u_scale, np.array([alpha]))[4][0]
    with pytest.raises(SingularParameterError, match="an alpha of the batch lies on the line"):
        arc_measures(coef, u_scale, [alpha], [alpha + 0.5])


def test_eval_random_conics_residual():
    rng = np.random.default_rng(13)
    count = 0
    for _ in range(200):
        gi, gj = random_generator(rng, 0), random_generator(rng, 1)
        c = bisector_implicit(gi, gj)
        rows = classify_rows([c.coeffs()])
        if rows.code[0] not in CURVE_CODES:
            continue
        count += 1
        points, singular = curve_points(charts_of_triples(rows.triples),
                                        [0.37, -2.5, 0.0, 11.0, math.inf])
        for q in points[~singular]:
            res = c.evaluate(q[0], q[1])
            assert abs(res) <= 1e-9 * c.residual_scale(q[0], q[1])
    assert count >= 100


def circle_points_at_alphas(alpha):
    """Points and velocities of the circle x^2 + y^2 + 4x - 4 = 0 at the alphas."""
    rows = classify_rows([(1.0, 0.0, 1.0, 4.0, 0.0, -4.0)])
    alpha = np.asarray(alpha, dtype=float)
    coef = np.repeat(charts_of_triples(rows.triples), alpha.size, axis=0)
    x, y, vx, vy, singular = points_at_alphas(coef, np.full(alpha.size, np.abs(
        rows.triples[0, 2]).sum()), alpha)
    assert not singular.any()
    return np.column_stack([x, y]), np.column_stack([vx, vy])


def test_velocity_matches_finite_differences():
    h = 1e-6
    alpha = np.linspace(-math.pi, math.pi, 17, endpoint=False)
    _, v = circle_points_at_alphas(alpha)
    hi, _ = circle_points_at_alphas(alpha + h)
    lo, _ = circle_points_at_alphas(alpha - h)
    assert np.allclose(v, (hi - lo) / (2.0 * h), rtol=1e-6, atol=1e-6)


def test_velocity_continuous_across_chart_switch():
    for a0 in (math.pi / 2, -math.pi / 2, math.pi):
        _, (lo, hi) = circle_points_at_alphas([a0 - 1e-9, a0 + 1e-9])
        # the two probes are 2e-9 apart in alpha, so allow that much drift
        assert np.allclose(lo, hi, rtol=1e-6, atol=1e-8)


# --------------------------------------------------------- parameter recovery


def test_param_of_point_round_trip():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(150):
        gi, gj = random_generator(rng, 0), random_generator(rng, 1)
        c = bisector_implicit(gi, gj)
        rows = classify_rows([c.coeffs()])
        if rows.code[0] not in CURVE_CODES:
            continue
        t_star = float(rng.uniform(-5.0, 5.0))
        coef = charts_of_triples(rows.triples)
        (q,), singular = curve_points(coef, [t_star])
        if singular[0]:
            continue
        ts, hit = params_of_points(coef, np.abs(rows.triples[:, 2]).sum(axis=1), q[None], 1e-6)
        found = ts[0][hit[0]].tolist()
        assert any(
            math.isfinite(t) and abs(t - t_star) <= 1e-8 * (1.0 + abs(t_star)) for t in found
        ), (t_star, found)
        checked += 1
    assert checked >= 80


def test_param_of_point_far_point_is_infinite_marker():
    (far,), _ = curve_points(UNIT_CIRCLE.chart, [math.inf])
    found = param_of_point(UNIT_CIRCLE, 0, far, eps=1e-9)
    assert any(math.isinf(t) for t in found)


def test_param_of_point_rejects_off_curve():
    with pytest.raises(NoSolutionError):
        param_of_point(UNIT_CIRCLE, 0, (2.0, 0.0), eps=1e-6)  # off the unit circle by 1.0


# ----------------------------------------------------- distance equality law


def test_sampled_points_equidistant_many_pairs():
    rng = np.random.default_rng(23)
    curved = 0
    for _ in range(120):
        gi = random_generator(rng, 0, center_range=40.0)
        gj = random_generator(rng, 1, center_range=40.0)
        b = make_bisector(gi, gj)
        pts = sample_points(b, 0, 64, line_span=200.0)
        for q in pts:
            assert_on_bisector(q, gi, gj)
        if b.code[0] in CURVE_CODES:
            curved += 1
    assert curved >= 60


def branch_midpoints(b):
    """Alpha midpoints of the components of a one-row hyperbola table, and their points."""
    count, lo, hi, closed = (a[0] for a in b.components(np.zeros(1, dtype=np.int64)))
    assert count == 2 and not closed
    alpha = 0.5 * (lo + hi)
    x, y, _, _, singular = points_at_alphas(np.repeat(b.chart, 2, axis=0),
                                            np.repeat(b.u_scale, 2), alpha)
    assert not singular.any()
    return alpha, np.column_stack([x, y])


def test_components_cover_curve_classes():
    ell = make_bisector(gen(0, (0, 0), 2, 0, 2), gen(1, (2, 0), 1, 0, 1))
    assert CLASSES[ell.code[0]] is ConicClass.ELLIPSE
    count, lo, hi, closed = (a[0] for a in ell.components(np.zeros(1, dtype=np.int64)))
    assert count == 1 and closed and (lo[0], hi[0]) == (-math.pi, math.pi)

    hyp_conic = classify_rows([(1.0, 0.0, -1.0, 0.0, 0.0, -1.0)])
    assert hyp_conic.singular[0] > 0.0

    # hyperbola bisector: generators with opposite anisotropy
    gens = gen(0, (0, 0), 2, 0, 1), gen(1, (3, 1), 1, 0, 2)
    hyp = make_bisector(*gens)
    assert CLASSES[hyp.code[0]] is ConicClass.HYPERBOLA
    for q in branch_midpoints(hyp)[1]:
        assert_on_bisector(q, *gens)


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
    assert isinstance(b, BisectorTable) and b.first.size == 1
    assert (b.generators[b.first[0]].id, b.generators[b.second[0]].id) == (2, 5)


def test_alphas_of_point_on_hyperbola_branch():
    hyp = make_bisector(gen(0, (0, 0), 2, 0, 1), gen(1, (3, 1), 1, 0, 2))
    alpha, points = branch_midpoints(hyp)
    found = [alpha_of_param(t) for t in param_of_point(hyp, 0, points[1], eps=1e-6)]
    assert any(abs(math.remainder(a - alpha[1], 2 * math.pi)) < 1e-7 for a in found)
