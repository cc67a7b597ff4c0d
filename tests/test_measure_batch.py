"""The batched arc-measure kernel against quadrature, closed forms and itself.

`arc_measures` takes the area term of many conic arcs in closed form
(`conic.piece_areas`, on pieces cut at the chart breaks) and their lengths
in closed form (`conic.arc_lengths`, incomplete elliptic integrals). These
tests check it against the scalar `scipy.integrate.quad` reference in
`oracles.py`, the lengths of the benchmark arcs against a fine Gauss-Legendre
reference within 1e-13, check that a batch gives each arc the same bits as a
batch of one, that the whole-diagram measure integrates every arc piece once
and equals the per-cell measure bit for bit, and that the area pieces tile
each arc with the chart breaks as their cuts. Lengths are checked on curves
with known closed forms that share no code with the kernel (ellipse
perimeters through `scipy.special.ellipe`, circle arcs, parabola arcs), on
hyperbola branches through alpha = pi, on near-parabolic curves on both
sides of CLASS_REL and on ellipses of semi-axis ratio up to 1e4. Last, they
check the closed form of `conic.piece_areas` without quadrature, on a full
ellipse and on parabola pieces, and against quad at the edges of its
branches.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

import gbpd

from gbpd import measure as gmeasure
from gbpd.bisector import bisector_implicit, make_bisector
from gbpd.cli import PRESETS, random_scene
from gbpd.clip import clip_to_window
from gbpd.conic import (
    CLASSES,
    ELLIPSE_CODE,
    HYPERBOLA_CODE,
    PARABOLA_CODE,
    ConicClass,
    charts_of_triples,
    classify_rows,
    piece_areas,
    points_at_alphas,
)
from gbpd.diagram import build_diagram
from gbpd.errors import GbpdError, QuadratureError
from gbpd.geometry import Generator, SymMat2, Window
from gbpd.measure import arc_measures, cell_area, measure_cells

from gbpd.tolerances import CLASS_REL

from oracles import (RowCurve, fine_arc_length, point_at_alpha_scalar, quad_arc_area,
                     quad_arc_length, row_curve)

WINDOW = Window(0.0, 0.0, 400.0, 400.0)
CURVE_CODES = (ELLIPSE_CODE, HYPERBOLA_CODE, PARABOLA_CODE)


def bits(values):
    return [float(v).hex() for v in values]


def arc_mask(cd, pieces):
    """Whether each of the piece ids ``pieces`` of a clipped diagram is an arc."""
    return (cd.pieces["edge"][pieces] >= 0) & (cd.pieces["line"][pieces] < 0)


def arc_pieces(cd):
    """(curve, a0, a1) of every arc piece of a clipped diagram, the curve its edge's table row."""
    arcs = cd.pieces[arc_mask(cd, slice(None))]
    return [(row_curve(cd.graph.table, e), a0, a1)
            for e, a0, a1 in zip(arcs["edge"].tolist(), arcs["a0"].tolist(), arcs["a1"].tolist())]


def kernel(curves, a0, a1):
    """``arc_measures`` of the arcs along ``curves`` (RowCurves) from ``a0`` to ``a1``."""
    triples = [(c.xq, c.yq, c.uq) for c in curves]
    return arc_measures(charts_of_triples(triples), [c.u_scale for c in curves], a0, a1)


def assert_matches_quad(arcs, rounding=False):
    """Kernel against the quad reference, per arc, within 1e-9 max(1, |I|).

    rounding=True adds 64 eps R^2 to the area bound, R the largest distance
    of the arc's ends and midpoint from the origin. An area term about the
    origin of an arc R away is a sum of terms of size R |chord|; the kernel
    integrates about a point of the arc and shifts the result back with the
    end points, whose rounding (eps R each) that shift multiplies by R.
    """
    if not arcs:
        return
    areas, lengths = kernel(*zip(*arcs))
    with warnings.catch_warnings():
        # the reference may warn where it cannot meet its own target
        warnings.simplefilter("ignore")
        for (param, a0, a1), area, length in zip(arcs, areas, lengths):
            ref_area = quad_arc_area(param, a0, a1)
            ref_length = quad_arc_length(param, a0, a1)
            floor = 0.0
            if rounding:
                r = max(np.hypot(*point_at_alpha_scalar(param, a))
                        for a in (a0, 0.5 * (a0 + a1), a1))
                floor = 64.0 * np.finfo(float).eps * r * r
            assert abs(area - ref_area) <= 1e-9 * max(1.0, abs(ref_area)) + floor, (a0, a1)
            assert abs(length - ref_length) <= 1e-9 * max(1.0, abs(ref_length)), (a0, a1)


def assert_lengths_match_fine(arcs, rel=1e-13):
    """Kernel lengths against the fine Gauss-Legendre reference, per arc,
    within ``rel`` relative."""
    if not arcs:
        return
    _, lengths = kernel(*zip(*arcs))
    for (param, a0, a1), length in zip(arcs, lengths):
        ref = fine_arc_length(param, a0, a1)
        assert abs(length - ref) <= rel * ref, (param, a0, a1, length, ref)


def assert_batch_is_batch_of_one(arcs):
    if not arcs:
        return
    areas, lengths = kernel(*zip(*arcs))
    rev_areas, rev_lengths = kernel(*zip(*arcs[::-1]))
    assert bits(rev_areas[::-1]) == bits(areas)
    assert bits(rev_lengths[::-1]) == bits(lengths)
    for (param, a0, a1), area, length in zip(arcs, areas, lengths):
        one_area, one_length = kernel([param], [a0], [a1])
        assert bits([one_area[0], one_length[0]]) == bits([area, length])


# ------------------------------------------------------- benchmark scenes


@pytest.fixture(scope="module")
def small_batch():
    """The 30 n=16 benchmark scenes, clipped."""
    out = [clip_to_window(build_diagram(random_scene(preset, 16, seed, WINDOW)), WINDOW)
           for preset in ("paper-random", "paper-weights", "isotropic")
           for seed in range(1010, 1020)]
    assert len(out) == 30
    return out


@pytest.fixture(scope="module")
def reload_scene():
    """The reload-query diagram (paper-weights n=64, seed 42) in a sub-window."""
    graph = build_diagram(random_scene("paper-weights", 64, 42, WINDOW))
    return clip_to_window(graph, Window(90.0, 100.0, 290.0, 300.0))


@pytest.fixture(scope="module")
def dense_scene():
    """The dense benchmark scene (paper-random n=72, seed 42), clipped."""
    return clip_to_window(build_diagram(random_scene("paper-random", 72, 42, WINDOW)), WINDOW)


def test_small_batch_measures_without_warning_or_error(small_batch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cd in small_batch:
            measures = measure_cells(cd)
            total = sum(m.area for m in measures.values())
            assert abs(total - WINDOW.width * WINDOW.height) <= 1e-6 * WINDOW.width * WINDOW.height


def test_every_benchmark_piece_matches_quad(small_batch, reload_scene):
    for cd in [*small_batch, reload_scene]:
        assert_matches_quad(arc_pieces(cd))


def test_benchmark_batch_is_batch_of_one(small_batch, reload_scene):
    arcs = [arc for cd in small_batch[::4] for arc in arc_pieces(cd)]
    assert_batch_is_batch_of_one(arcs + arc_pieces(reload_scene))


def test_measure_cells_equals_cell_area(small_batch, reload_scene):
    for cd in [*small_batch[::3], reload_scene]:
        whole = measure_cells(cd)
        for gid, m in whole.items():
            one = cell_area(gid, cd)
            assert one.cell == m.cell
            assert bits([one.area, one.perimeter]) == bits([m.area, m.perimeter])
            assert [bits((c.area, c.perimeter)) for c in one.components] == [
                bits((c.area, c.perimeter)) for c in m.components
            ]


def test_each_arc_piece_integrated_once(reload_scene, monkeypatch):
    cd = reload_scene
    calls = []
    batched = gmeasure.arc_measures

    def counting(coef, u_scale, a0, a1):
        calls.append(sorted(zip(a0, a1)))
        return batched(coef, u_scale, a0, a1)

    monkeypatch.setattr(gmeasure, "arc_measures", counting)
    measure_cells(cd)
    uses = cd.loops.half["piece"]
    uses = uses[arc_mask(cd, uses)].tolist()
    assert len(uses) > len(set(uses))  # most arc pieces border two cells
    assert len(calls) == 1
    assert calls[0] == sorted((cd.pieces["a0"][pid], cd.pieces["a1"][pid]) for pid in set(uses))


def test_benchmark_lengths_match_fine_quadrature(small_batch, dense_scene, reload_query):
    graph, windows = reload_query
    for cd in [*small_batch, dense_scene, *(clip_to_window(graph, w) for w in windows)]:
        assert_lengths_match_fine(arc_pieces(cd))


@pytest.mark.parametrize("cap", ["_MAX_DEPTH", "_MAX_PIECES"])
def test_former_cap_at_zero_changes_nothing(small_batch, monkeypatch, cap):
    # small_batch[1] (paper-random, seed 1011) has the arcs that missed their
    # target in the first quadrature pass, so either subdivision cap set to
    # zero made them raise QuadratureError. The lengths are closed forms now:
    # the caps are gone, a module global of either name is read by nothing,
    # and the class stays exported, with its exit code.
    assert gbpd.QuadratureError is QuadratureError
    assert issubclass(QuadratureError, GbpdError)
    assert QuadratureError.exit_code == 10
    assert not hasattr(gmeasure, cap)
    before = measure_cells(small_batch[1])
    monkeypatch.setattr(gmeasure, cap, 0, raising=False)
    after = measure_cells(small_batch[1])
    assert {g: bits((m.area, m.perimeter)) for g, m in after.items()} == {
        g: bits((m.area, m.perimeter)) for g, m in before.items()}


# ------------------------------------------------------- hypothesis arcs


@st.composite
def arcs(draw):
    """One arc on the bisector of two generators of a preset scene.

    Kinds: a random sub-arc of a bisector component, an arc across a chart
    break (alpha = pi/2 mod pi), a full 2 pi loop of an elliptic bisector,
    and an arc ending close to a singular parameter of an open one.
    """
    preset = draw(st.sampled_from(PRESETS))
    gens = random_scene(preset, 6, draw(st.integers(0, 10_000)), WINDOW)
    i, j = draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
    shift = draw(st.sampled_from([0.0, 1e6]))
    gi, gj = (Generator(g.id, g.p + shift, g.M, g.w) for g in (gens[i], gens[j]))
    b = make_bisector(gi, gj)
    if b.code[0] not in CURVE_CODES:
        return None
    count, lo, hi, closed = (np.asarray(a[0]).tolist() for a in b.components(np.zeros(1, int)))
    c = draw(st.sampled_from(range(count)))
    lo, hi, curve = lo[c], hi[c], row_curve(b, 0)
    kind = draw(st.sampled_from(["sub", "cross", "full", "near-singular"]))
    if closed:
        if kind == "full":
            a0 = draw(st.floats(-math.pi, math.pi))
            return curve, a0, a0 + 2.0 * math.pi
        margin = 0.0
    else:
        margin = draw(st.sampled_from([1e-3, 1e-2, 0.1])) * (hi - lo)
        if kind == "near-singular":
            a_in = lo + draw(st.floats(0.2, 0.8)) * (hi - lo)
            return (curve, lo + margin, a_in) if draw(st.booleans()) else (curve, a_in, hi - margin)
    lo, hi = lo + margin, hi - margin
    if kind == "cross":
        k0 = math.ceil((lo - 0.5 * math.pi) / math.pi)
        breaks = [c for c in (0.5 * math.pi + (k0 + m) * math.pi for m in range(3)) if lo < c < hi]
        if breaks:
            c = draw(st.sampled_from(breaks))
            a0 = lo + draw(st.floats(0.0, 1.0)) * (c - lo)
            return curve, a0, c + draw(st.floats(0.0, 1.0)) * (hi - c)
    f0, f1 = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    return curve, lo + f0 * (hi - lo), lo + f1 * (hi - lo)


# arcs 7.5e4 and 1.3e5 from the origin whose chords point nearly at it, near
# a singular parameter: the area integrand about the arc's mid point is
# rounding noise there, and an adaptive length quadrature once raised
# QuadratureError on both
FAR_RADIAL_ARCS = [
    (RowCurve((32.455192975470375, -28.162800436874797, -18.01987956294702),
              (21.608359206704108, -2.837653242775731, 2.0544444939627056),
              (0.11848823179603522, 0.0, -0.055928721202221574),
              0.11848823179603522 + 0.055928721202221574),
     -1.2015372449630817, -1.2015369584942788),
    (RowCurve((31.60179583752606, 8.29446114992176, -16.471058136253763),
              (28.55619519353972, -14.407496452586187, -4.626535787164412),
              (0.14710498058615762, 0.0, -0.026396397812076443),
              0.14710498058615762 + 0.026396397812076443),
     -0.7997701823809498, -0.7996725541848584),
]

# three quarters of an ellipse 1e6 out, ending 1.2e-14 past the chart break
# pi/2: the quad reference once split there and stopped short of its target
BREAK_END_ARC = (RowCurve((82496.0936202986, -190.13954682916204, 24065.06639164154),
                          (82482.74733171608, -6.276454682446506, 24086.828976583507),
                          (0.08245986302589567, 0.0, 0.02407096595768609),
                          0.08245986302589567 + 0.02407096595768609),
                 -math.pi, 1.5707963267949123)


@given(st.lists(arcs(), min_size=1, max_size=4))
@example(FAR_RADIAL_ARCS[:1])
@example(FAR_RADIAL_ARCS[1:])
@example([BREAK_END_ARC])
@settings(max_examples=120, deadline=None)
def test_hypothesis_arcs_match_quad_and_batch_of_one(drawn):
    drawn = [arc for arc in drawn if arc is not None]
    assert_matches_quad(drawn, rounding=True)
    assert_batch_is_batch_of_one(drawn)


def fixed_hard_arcs(shift):
    """Full loops and chart-break crossings of an elliptic bisector, and
    arcs of both hyperbola branches ending 1e-3 of their width from a
    singular parameter, with the generators shifted by (shift, shift)."""
    g0 = Generator(0, np.array([0.0, 0.0]) + shift, SymMat2(2.0, 0.3, 1.0), 1.0)
    g1 = Generator(1, np.array([3.0, 1.0]) + shift, SymMat2(1.0, 0.1, 0.5), 0.0)
    ellipse = make_bisector(g0, g1)
    assert CLASSES[ellipse.code[0]] is ConicClass.ELLIPSE
    curve = row_curve(ellipse, 0)
    out = [(curve, a0, a0 + 2.0 * math.pi) for a0 in (-math.pi, -0.3, 2.0)]
    out += [(curve, 0.5 * math.pi - 0.4, 0.5 * math.pi + 0.7),
            (curve, -0.5 * math.pi - 1e-9, 2.5 * math.pi - 1e-3)]
    gens = [Generator(g.id, g.p + shift, g.M, g.w) for g in random_scene("paper-random", 2, 3, WINDOW)]
    hyperbola = make_bisector(gens[0], gens[1])
    assert CLASSES[hyperbola.code[0]] is ConicClass.HYPERBOLA
    curve = row_curve(hyperbola, 0)
    count, lo, hi, _ = (np.asarray(a[0]).tolist() for a in hyperbola.components(np.zeros(1, int)))
    for c in range(count):
        w = hi[c] - lo[c]
        out += [(curve, lo[c] + 1e-3 * w, lo[c] + 0.5 * w),
                (curve, lo[c] + 0.5 * w, hi[c] - 1e-3 * w)]
    return out


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_fixed_hard_arcs_match_quad_and_batch_of_one(shift):
    arcs = fixed_hard_arcs(shift)
    assert_matches_quad(arcs, rounding=True)
    assert_batch_is_batch_of_one(arcs)
    assert_lengths_match_fine(arcs)


@st.composite
def break_arcs(draw):
    """An arc across 0 to 3 chart breaks (alpha = pi/2 mod pi), or a full
    turn, on an elliptic bisector. Its generators share a drawn anisotropic
    matrix, one of them scaled by 1.5 to 4, so their bisector is an ellipse
    or empty; an empty one is replaced by the ellipse of ``fixed_hard_arcs``.
    The arc starts exactly on a break or anywhere in [-2 pi, 2 pi]."""
    floats = st.floats(0.0, 1.0)
    m = SymMat2(1.0 / (1.0 + 9.0 * draw(floats)) ** 2, 0.0,
                1.0 / (1.0 + 9.0 * draw(floats)) ** 2).rotated(math.pi * draw(floats))
    f = 1.5 + 2.5 * draw(floats)
    shift = draw(st.sampled_from([0.0, 1e6]))
    p0, p1 = (shift + 10.0 * np.array([draw(floats), draw(floats)]) for _ in range(2))
    b = make_bisector(Generator(0, p0, SymMat2(f * m.m11, f * m.m12, f * m.m22), 5.0 * draw(floats)),
                      Generator(1, p1, m, 5.0 * draw(floats)))
    if b.code[0] != ELLIPSE_CODE:
        b = make_bisector(Generator(0, np.array([0.0, 0.0]) + shift, SymMat2(2.0, 0.3, 1.0), 1.0),
                          Generator(1, np.array([3.0, 1.0]) + shift, SymMat2(1.0, 0.1, 0.5), 0.0))
    curve = row_curve(b, 0)
    if draw(st.booleans()):
        a0 = 0.5 * math.pi + draw(st.integers(-3, 2)) * math.pi
    else:
        a0 = draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))
    if draw(st.booleans()):
        return curve, a0, a0 + 2.0 * math.pi
    # the first break past a0, then `crossed` more, and a fraction of the
    # span to the next
    k = math.floor((a0 - 0.5 * math.pi) / math.pi) + 1
    crossed = draw(st.integers(0, 3))
    lo = a0 if crossed == 0 else 0.5 * math.pi + (k + crossed - 1) * math.pi
    hi = 0.5 * math.pi + (k + crossed) * math.pi
    return curve, a0, lo + draw(st.floats(0.0, 1.0, exclude_max=True)) * (hi - lo)


@given(st.lists(break_arcs(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_hypothesis_break_arcs_match_fine_quadrature(drawn):
    assert_lengths_match_fine(drawn)
    assert_matches_quad(drawn, rounding=True)


@st.composite
def turn_arcs(draw):
    """(a0, a1) of an arc on a closed curve: a closed loop (-pi, pi), or an
    arc whose ends are each a multiple of pi/16, a chart break (alpha = pi/2
    mod pi) or any alpha in [-2 pi, 2 pi], at most a turn long."""
    step = math.pi / 16

    def end():
        kind = draw(st.sampled_from(["grid", "break", "any"]))
        if kind == "grid":
            return draw(st.integers(-32, 32)) * step
        if kind == "break":
            return 0.5 * math.pi + draw(st.integers(-2, 1)) * math.pi
        return draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))

    if draw(st.integers(0, 5)) == 0:
        return -math.pi, math.pi
    a0 = end()
    a1 = a0 + draw(st.floats(0.0, 2.0 * math.pi, exclude_min=True))
    if draw(st.booleans()):
        # end on the first grid point or break past a0 + span
        if draw(st.booleans()):
            a1 = math.ceil(a1 / step) * step
        else:
            a1 = 0.5 * math.pi + math.ceil((a1 - 0.5 * math.pi) / math.pi) * math.pi
    return (a0, a1) if a0 < a1 else (a0, a0 + step)


@given(turn_arcs())
@example((-math.pi, math.pi))
@example((0.0, 3.0 * math.pi / 16))
@example((0.5 * math.pi, 1.5 * math.pi))
@example((0.1, 0.1 + 31.5 * math.pi / 16))
@settings(max_examples=200, deadline=None)
def test_hypothesis_area_pieces_tile_at_chart_breaks(ends):
    """The pieces whose area terms ``arc_measures`` sums, seen through a
    wrapper on ``piece_areas``: they tile [a0, a1] in alpha order, and their
    cuts are exactly the chart breaks inside the arc, so no piece crosses one."""
    a0, a1 = ends
    curve = fixed_hard_arcs(0.0)[0][0]  # an ellipse: every alpha is on the curve
    areas, seen = gmeasure.piece_areas, []

    def recorded(coef, lo, hi):
        seen.append((lo.copy(), hi.copy()))
        return areas(coef, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gmeasure, "piece_areas", recorded)
        kernel([curve], [a0], [a1])
    (lo, hi), = seen
    assert lo[0] == a0 and hi[-1] == a1
    assert np.array_equal(lo[1:], hi[:-1])
    assert (lo < hi).all()
    k = math.ceil((a0 - 0.5 * math.pi) / math.pi)
    breaks = [b for b in (0.5 * math.pi + (k + i) * math.pi for i in range(4)) if a0 < b < a1]
    ulps = 4.0 * np.spacing(max(abs(a0), abs(a1)))
    assert lo.size == len(breaks) + 1
    assert np.all(np.abs(lo[1:] - np.array(breaks)) <= ulps), (breaks, lo)


# ------------------------------------------------------- closed-form areas


def test_full_ellipse_loop_area_from_its_implicit_conic():
    """A full loop of an elliptic bisector encloses -pi det(M3)/det(A)^(3/2)
    of its implicit conic (normalized to trace(A) > 0), from every start."""
    g0, g1 = (Generator(0, np.array([0.0, 0.0]), SymMat2(2.0, 0.3, 1.0), 1.0),
              Generator(1, np.array([3.0, 1.0]), SymMat2(1.0, 0.1, 0.5), 0.0))
    b = make_bisector(g0, g1)
    assert b.code[0] == ELLIPSE_CODE
    m3 = bisector_implicit(g0, g1).matrix3()
    m3 *= np.sign(np.trace(m3[:2, :2]))
    enclosed = -math.pi * np.linalg.det(m3) / np.linalg.det(m3[:2, :2]) ** 1.5
    for a0 in (-math.pi, -0.3, 2.0):
        area, _ = arc_measures(b.chart, b.u_scale, [a0], [a0 + 2.0 * math.pi])
        assert abs(abs(area[0]) - enclosed) <= 1e-13 * enclosed, a0


def test_parabola_segment_is_two_thirds_of_its_control_triangle():
    """Archimedes: on a parabolic bisector, a piece's term minus its chord
    term is 2/3 of the triangle of its ends and the meeting point of their
    tangents. The chart rows' denominator has a double root, so k^2 = 0 and
    the series of ``piece_areas`` gives the term."""
    b = make_bisector(Generator(0, np.array([0.0, 0.0]), SymMat2(2.0, 0.0, 1.0), 0.0),
                      Generator(1, np.array([1.0, 2.0]), SymMat2(1.0, 0.0, 1.0), 0.5))
    assert b.code[0] == PARABOLA_CODE
    a0, a1 = np.array([0.3, -1.2, 2.0, -2.9]), np.array([0.9, -0.4, 2.5, -2.0])
    terms = piece_areas(np.repeat(b.chart, a0.size, axis=0), a0, a1)
    x, y, vx, vy, singular = points_at_alphas(np.repeat(b.chart, a0.size, axis=0),
                                              np.repeat(b.u_scale, a0.size), np.stack([a0, a1], 1))
    assert not singular.any()
    cx, cy = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0]
    # the tangents meet at p0 + lam v0, with lam = (chord x v1)/(v0 x v1)
    lam = (cx * vy[:, 1] - cy * vx[:, 1]) / (vx[:, 0] * vy[:, 1] - vy[:, 0] * vx[:, 1])
    triangle = 0.5 * lam * (vx[:, 0] * cy - vy[:, 0] * cx)
    segment = terms - 0.5 * (x[:, 0] * y[:, 1] - y[:, 0] * x[:, 1])
    assert np.all(np.abs(segment - 2.0 / 3.0 * triangle) <= 1e-13 * np.abs(triangle))


def offset_curve(xq, yq, uq, dx=0.3, dy=-0.2):
    """The RowCurve of the chart-0 triples xq, yq, uq moved by (dx, dy)."""
    return RowCurve(tuple(x + dx * u for x, u in zip(xq, uq)),
                    tuple(y + dy * u for y, u in zip(yq, uq)), uq, sum(map(abs, uq)))


def series_ratio(curve, a0, a1):
    """(D, k^2/D^2) of the chart-0 piece (a0, a1) of ``curve``, whose U has no t term."""
    s0, s1 = math.tan(0.5 * a0), math.tan(0.5 * a1)
    u2, _, u0 = curve.uq
    d = u0 + u2 * s0 * s1
    return d, u0 * u2 * (s1 - s0) ** 2 / (d * d)


def test_closed_form_at_the_branch_edges_matches_quad():
    """Synthetic chart-0 pieces at the edges of the branches of
    ``piece_areas``: a circle with u0/u2 = 1e-6 whose piece has D < 0 and
    |k^2| < D^2/10 (the arctangent, not the series, holds there), and an
    ellipse and a hyperbola piece with |k^2|/D^2 just below and just above
    1/10 (series and closed form), against scalar quadrature."""
    eps = 1e-6
    circle = offset_curve((1.0, 0.0, -eps), (0.0, 2.0 * math.sqrt(eps), 0.0), (1.0, 0.0, eps))
    pieces = [(circle, -0.5 * math.pi, 0.5 * math.pi)]
    d, q = series_ratio(*pieces[0])
    assert d < 0.0 and abs(q) < 0.1
    ellipse = offset_curve((-1.0, 0.0, 1.0), (0.0, 2.0, 0.0), (1.0, 0.0, 1.0))
    hyperbola = offset_curve((1.0, 0.0, 1.0), (0.0, 2.0, 0.0), (-1.0, 0.0, 1.0))
    for side in (1.0 - 1e-6, 1.0 + 1e-6):
        # on the unit circle |q| = tan^2 a1, on x^2 - y^2 = 1 sin^2 a1, for (-a1, a1)
        for curve, a1 in ((ellipse, math.atan(math.sqrt(0.1 * side))),
                          (hyperbola, math.asin(math.sqrt(0.1 * side)))):
            d, q = series_ratio(curve, -a1, a1)
            assert d > 0.0 and (abs(q) < 0.1) == (side < 1.0)
            pieces.append((curve, -a1, a1))
    curves, a0, a1 = zip(*pieces)
    coef = charts_of_triples([(c.xq, c.yq, c.uq) for c in curves])
    terms = piece_areas(coef, np.array(a0), np.array(a1))
    for (curve, lo, hi), term in zip(pieces, terms):
        ref = quad_arc_area(curve, lo, hi)
        assert abs(term - ref) <= 1e-12 * max(1.0, abs(ref)), (curve, lo, hi, term, ref)


# ------------------------------------------------------- closed-form lengths


def placed_curve(xq, yq, uq, turn=0.7, dx=3.0, dy=-2.0):
    """The RowCurve of the chart-0 triples xq, yq, uq turned by ``turn`` and
    moved by (dx, dy)."""
    c, s = math.cos(turn), math.sin(turn)
    x = tuple(c * a - s * b + dx * u for a, b, u in zip(xq, yq, uq))
    y = tuple(s * a + c * b + dy * u for a, b, u in zip(xq, yq, uq))
    return RowCurve(x, y, tuple(uq), sum(map(abs, uq)))


def ellipse_curve(a, b, r=1.0, **place):
    """(a cos th, b sin th) with tan(th/2) = r t, placed."""
    return placed_curve((-a * r * r, 0.0, a), (0.0, 2.0 * b * r, 0.0), (r * r, 0.0, 1.0), **place)


def assert_relative(got, want, rel=1e-13):
    assert abs(got - want) <= rel * abs(want), (got, want, (got - want) / want)


@pytest.mark.parametrize("ratio", [1.0, 1.5, 10.0, 1e2, 1e3, 1e4])
def test_full_ellipse_perimeter_is_4a_E(ratio):
    """A full loop of an ellipse with semi-axes a >= b measures 4 a E(1 -
    b^2/a^2), from any start, whichever axis the parameter starts on."""
    for a, b in ((2.0, 2.0 / ratio), (2.0 / ratio, 2.0)):
        want = 4.0 * max(a, b) * ellipe(1.0 - (min(a, b) / max(a, b)) ** 2)
        for r, turn in ((1.0, 0.0), (0.3, 0.7), (4.0, 2.9)):
            curve = ellipse_curve(a, b, r, turn=turn)
            for a0 in (-math.pi, -0.3, 2.0):
                _, (got,) = kernel([curve], [a0], [a0 + 2.0 * math.pi])
                assert_relative(got, want)


def test_circle_arc_is_radius_times_angle():
    """With r = 1 the parameter angle th is alpha, so an arc of a circle of
    radius R measures R (a1 - a0), for spans from 1e-8 to nearly a turn."""
    radius = 0.75
    curve = ellipse_curve(radius, radius, turn=1.1, dx=40.0, dy=-25.0)
    arcs = [(curve, a0, a0 + span) for a0 in (-3.0, -1.5707963267948966, 0.2, 2.5)
            for span in (1e-8, 1e-5, 0.01, 0.7, 2.0, 4.5, 2.0 * math.pi - 1e-3)]
    _, lengths = kernel(*zip(*arcs))
    for (_, a0, a1), got in zip(arcs, lengths):
        assert_relative(got, radius * (a1 - a0))


def test_parabola_arc_from_its_elementary_formula():
    """y = x^2 / 2 as x = s, s = -cot(alpha/2), placed and scaled by 3: the
    arc from s0 to s1 measures 3 [s q + asinh s]/2 between its ends, q =
    sqrt(1 + s^2), through the vertex or on either side of it."""
    scale = 3.0
    curve = placed_curve((0.0, -scale, 0.0), (0.0, 0.0, 0.5 * scale), (1.0, 0.0, 0.0), dx=5.0, dy=1.0)
    assert curve.uq[2] == 0.0

    def primitive(s):
        return 0.5 * scale * (s * math.hypot(1.0, s) + math.asinh(s))

    ends = [(-2.0, -0.5), (-0.7, 0.4), (0.05, 0.1), (1.0, 3.0), (-3.0, 2.5), (-0.02, 0.03)]
    arcs = [(curve, 2.0 * math.atan2(1.0, -s0), 2.0 * math.atan2(1.0, -s1)) for s0, s1 in ends]
    _, lengths = kernel(*zip(*arcs))
    for (s0, s1), got in zip(ends, lengths):
        assert_relative(got, primitive(s1) - primitive(s0))


def hyperbola_curve(a, b, r, **place):
    """(a cosh w, b sinh w) with tanh(w/2) = r t on the branch t = 0 is on
    (|r t| < 1) and (-a cosh w, -b sinh w), tanh(w/2) = 1/(r t), on the
    branch through t = inf, placed; its singular parameters are +-1/r."""
    return placed_curve((a * r * r, 0.0, a), (0.0, 2.0 * b * r, 0.0), (-r * r, 0.0, 1.0), **place)


def test_hyperbola_arcs_match_fine_quadrature():
    """Arcs of both branches within 1e-13 of the fine reference: on the
    branch through t = inf across alpha = pi, spans from 1e-8 up to 0.9 of
    the branch, which is nearly a turn of alpha for r = 1e3; and on the branch through t = 0 across its
    vertex."""
    arcs = []
    for a, b, r in ((1.0, 1.0, 1.5), (0.5, 3.0, 1.0 / math.tan(0.25)), (2.0, 0.2, 1e3)):
        curve = hyperbola_curve(a, b, r, turn=0.4, dx=-7.0, dy=2.0)
        edge = 2.0 * math.atan(1.0 / r)  # the singular alphas are +-edge
        for span in (1e-8, 1e-4, 0.1, 0.9):
            width = 2.0 * math.pi - 2.0 * edge
            for mid in (math.pi, math.pi + 0.3 * (0.5 * width) * (1.0 - span)):
                arcs.append((curve, mid - 0.5 * span * width, mid + 0.5 * span * width))
            arcs.append((curve, -0.5 * span * 2.0 * edge, 0.4 * span * 2.0 * edge))
    assert max(a1 - a0 for _, a0, a1 in arcs) > 0.85 * 2.0 * math.pi
    assert_lengths_match_fine(arcs)


def test_near_parabolic_curves_on_both_sides_of_class_rel():
    """x^2 + e y^2 - y = 0 is a parabola for e = 0 and an ellipse (e > 0) or
    a hyperbola (e < 0) of eccentricity near 1 otherwise. For |e| on either
    side of where the classification switches to parabola (the eigenvalue
    ratio of its denominator form against CLASS_REL), arcs near the vertex
    match the fine reference within 1e-13 and quad within its bound."""
    codes, arcs = set(), []
    for e in (f * CLASS_REL for f in (3.0, 1.0, 0.3, 0.1, -0.1, -0.3, -1.0, -3.0)):
        rows = classify_rows([(1.0, 0.0, e, 0.0, -1.0, 0.0)])
        codes.add(int(rows.code[0]))
        assert rows.code[0] in CURVE_CODES
        triples = rows.triples[0]
        curve = RowCurve(*(tuple(q) for q in triples.tolist()), float(np.abs(triples[2]).sum()))
        # alphas of the points (-1, 1), (0, 0) and (2, 4), and the arcs between
        # them that stay near the vertex, as a grid of alphas finds them
        grid = np.linspace(-math.pi, math.pi, 4001)[1:]
        pts = np.array([point_at_alpha_scalar(curve, a) if abs(a) > 1e-3 else (np.inf, np.inf)
                        for a in grid])
        near = np.hypot(*pts.T) < 10.0
        a_left, a_vertex, a_right = (grid[np.argmin(np.hypot(*(pts - q).T))]
                                     for q in ((-1.0, 1.0), (0.0, 0.0), (2.0, 4.0)))
        for lo, hi in ((a_left, a_right), (a_vertex, a_right), (a_left, a_vertex)):
            lo, hi = sorted((lo, hi))
            if not near[(grid >= lo) & (grid <= hi)].all():
                lo, hi = hi, lo + 2.0 * math.pi
            arcs.append((curve, lo, hi))
    assert codes == set(CURVE_CODES)  # both sides of the switch, on either sign of e
    assert_lengths_match_fine(arcs)
    assert_matches_quad(arcs)


def test_thin_ellipse_arcs_match_fine_quadrature():
    """Arcs of ellipses with semi-axis ratios 1e2 and 1e4 at their vertices
    and along their flat sides, within 1e-13 of the fine reference."""
    arcs = []
    for ratio in (1e2, 1e4):
        curve = ellipse_curve(1.0, 1.0 / ratio, r=0.8, turn=0.3)
        for a0, span in ((-1e-3, 2e-3), (-0.5 / ratio, 0.7 / ratio), (0.1, 1e-6), (0.4, 1.0),
                         (math.pi - 0.2, 0.5), (-2.0, 3.0), (1.0, 5.5)):
            arcs.append((curve, a0, a0 + span))
    assert_lengths_match_fine(arcs)
