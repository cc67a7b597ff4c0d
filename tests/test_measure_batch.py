"""The batched arc-measure kernel against scalar quadrature and against itself.

`arc_measures` integrates the area term and the length of many conic arcs
in one Gauss-Kronrod pass per round. These tests check it against the
scalar `scipy.integrate.quad` reference in `oracles.py` and, bit for bit,
against the per-array round loop it replaced, check that a batch gives
each arc the same bits as a batch of one, that the whole-
diagram measure integrates every arc piece once and equals the per-cell
measure bit for bit, and that an arc missing its error target raises
QuadratureError.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbpd import measure as gmeasure
from gbpd.bisector import make_bisector
from gbpd.cli import PRESETS, random_scene
from gbpd.clip import clip_to_window
from gbpd.conic import (
    CLASSES,
    ELLIPSE_CODE,
    HYPERBOLA_CODE,
    PARABOLA_CODE,
    ConicClass,
    charts_of_triples,
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


def test_benchmark_pieces_match_round_loop(small_batch, reload_query):
    dense = clip_to_window(build_diagram(random_scene("paper-random", 72, 42, WINDOW)), WINDOW)
    graph, windows = reload_query
    for cd in [*small_batch, dense, *(clip_to_window(graph, w) for w in windows)]:
        assert_matches_round_loop(arc_pieces(cd))


@pytest.mark.parametrize("cap", ["_MAX_DEPTH", "_MAX_PIECES"])
def test_unmet_error_target_raises(small_batch, monkeypatch, cap):
    assert issubclass(QuadratureError, GbpdError)
    assert QuadratureError.exit_code == 10
    monkeypatch.setattr(gmeasure, cap, 0)
    with pytest.raises(QuadratureError):
        measure_cells(small_batch[0])
    # with the message of the round loop it replaced
    arcs = list(zip(*arc_pieces(small_batch[0])))
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


@given(st.lists(arcs(), min_size=1, max_size=4))
@example(FAR_RADIAL_ARCS[:1])
@example(FAR_RADIAL_ARCS[1:])
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
