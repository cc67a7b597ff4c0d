"""The batched arc-measure kernel against scalar quadrature and against itself.

`arc_measures` takes the area term of many conic arcs in closed form and
integrates their lengths in one Gauss-Kronrod pass per round. These tests
check it against the scalar `scipy.integrate.quad` reference in
`oracles.py` and, bit for bit, against the per-array round loop it
replaced, check that a batch gives each arc the same bits as a batch of
one, that the whole-diagram measure integrates every arc piece once and
equals the per-cell measure bit for bit, and that an arc missing its error
target raises QuadratureError. They also check the cut made before the
first pass (its pieces tile each arc on the step grid, chart breaks among
the cuts) and count the passes it leaves on the benchmark scenes. Last,
they check the closed form of `conic.piece_areas` without quadrature, on a
full ellipse and on parabola pieces, and against quad at the edges of its
branches.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    piece_areas,
    points_at_alphas,
)
from gbpd.diagram import build_diagram
from gbpd.errors import GbpdError, QuadratureError
from gbpd.geometry import Generator, SymMat2, Window
from gbpd.measure import arc_measures, cell_area, measure_cells

from oracles import (RowCurve, arc_measures_rounds, point_at_alpha_scalar, quad_arc_area,
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


def kernel(curves, a0, a1, measures=arc_measures):
    """``arc_measures`` (or ``measures``, a function of its arguments) of the
    arcs along ``curves`` (RowCurves) from ``a0`` to ``a1``."""
    triples = [(c.xq, c.yq, c.uq) for c in curves]
    return measures(charts_of_triples(triples), [c.u_scale for c in curves], a0, a1)


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


def assert_matches_round_loop(arcs):
    """Kernel against the per-array round loop it replaced, bit for bit."""
    if not arcs:
        return
    got, ref = kernel(*zip(*arcs)), kernel(*zip(*arcs), measures=arc_measures_rounds)
    assert [bits(v) for v in got] == [bits(v) for v in ref]


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


def test_benchmark_pieces_match_round_loop(small_batch, dense_scene, reload_query):
    graph, windows = reload_query
    for cd in [*small_batch, dense_scene, *(clip_to_window(graph, w) for w in windows)]:
        assert_matches_round_loop(arc_pieces(cd))


def test_benchmark_arcs_meet_target_in_few_passes(small_batch, dense_scene, reload_query,
                                                  monkeypatch):
    """Gauss-Kronrod passes per ``arc_measures`` call over the benchmark
    scenes: with every arc cut on the step grid first, most calls finish in
    two passes."""
    graph, windows = reload_query
    gk15, arc_calls, passes = gmeasure._gk15, gmeasure.arc_measures, []

    def counted_pass(*args):
        passes[-1] += 1
        return gk15(*args)

    def counted_call(*args):
        passes.append(0)
        return arc_calls(*args)

    monkeypatch.setattr(gmeasure, "_gk15", counted_pass)
    monkeypatch.setattr(gmeasure, "arc_measures", counted_call)
    for cd in [*small_batch, dense_scene, *(clip_to_window(graph, w) for w in windows)]:
        measure_cells(cd)
    assert len(passes) >= 30  # the isotropic scenes have no arcs
    assert np.median(passes) <= 2
    assert max(passes) <= 4


@pytest.mark.parametrize("cap", ["_MAX_DEPTH", "_MAX_PIECES"])
def test_unmet_error_target_raises(small_batch, monkeypatch, cap):
    assert issubclass(QuadratureError, GbpdError)
    assert QuadratureError.exit_code == 10
    monkeypatch.setattr(gmeasure, cap, 0)
    # small_batch[1] (paper-random, seed 1011) has arcs that miss their
    # target in the first pass, so each cap stops their first halving
    with pytest.raises(QuadratureError):
        measure_cells(small_batch[1])
    # with the message of the round loop it replaced
    arcs = list(zip(*arc_pieces(small_batch[1])))
    with pytest.raises(QuadratureError) as got:
        kernel(*arcs)
    with pytest.raises(QuadratureError) as ref:
        kernel(*arcs, measures=arc_measures_rounds)
    assert str(got.value) == str(ref.value)


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
# rounding noise there, which no halving lowers, and the kernel once raised
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
    assert_matches_round_loop(arcs)


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
def test_hypothesis_break_arcs_match_round_loop(drawn):
    assert_matches_round_loop(drawn)


@st.composite
def grid_arcs(draw):
    """(a0, a1) of an arc on a closed curve: a closed loop (-pi, pi), or an
    arc whose ends are each a multiple of the cut step, a chart break
    (alpha = pi/2 mod pi) or any alpha in [-2 pi, 2 pi], at most a turn long."""
    step = gmeasure._CUT_STEP

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


@given(grid_arcs())
@example((-math.pi, math.pi))
@example((0.0, 3.0 * math.pi / 16))
@example((0.5 * math.pi, 1.5 * math.pi))
@example((0.1, 0.1 + 31.5 * math.pi / 16))
@settings(max_examples=200, deadline=None)
def test_hypothesis_first_pass_pieces_tile_the_grid(ends):
    """The pieces of the first Gauss-Kronrod pass, seen through a wrapper on
    ``_gk15``: they tile [a0, a1] in alpha order, none is longer than the cut
    step, and every chart break inside the arc is a cut."""
    a0, a1 = ends
    step = gmeasure._CUT_STEP
    curve = fixed_hard_arcs(0.0)[0][0]  # an ellipse: every alpha is on the curve
    gk15, first = gmeasure._gk15, []

    def recorded(coef, u_scale, lo, hi):
        if not first:
            first.append((lo.copy(), hi.copy()))
        return gk15(coef, u_scale, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gmeasure, "_gk15", recorded)
        kernel([curve], [a0], [a1])
    lo, hi = first[0]
    assert lo[0] == a0 and hi[-1] == a1
    assert np.array_equal(lo[1:], hi[:-1])
    assert (lo < hi).all()
    # each cut is a product k step, rounded once
    ulps = 4.0 * np.spacing(max(abs(a0), abs(a1)))
    assert (hi - lo <= step + ulps).all()
    cuts = lo[1:]
    k = math.ceil((a0 - 0.5 * math.pi) / math.pi)
    while (b := 0.5 * math.pi + k * math.pi) < a1 - ulps:
        if b > a0 + ulps:
            assert cuts.size and np.abs(cuts - b).min() <= ulps, (b, cuts)
        k += 1


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
