"""Batched build kernels against their one-at-a-time forms, bit for bit.

The builder computes bisectors, global minimality and the two-nearest
visibility test as array operations over many inputs at once. These
properties require the batched results to equal, float bit for float bit,
what the one-input computation gives.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbpd.bisector import make_bisector, make_bisectors, sample_points
from gbpd.cli import PRESETS, random_scene
from gbpd.diagram import _globally_minimal, _triple_arrays, _two_nearest
from gbpd.geometry import Generator, SceneArrays, SymMat2, Window
from gbpd.tolerances import DEFAULT_TOLERANCES as TOL

from oracles import bisector_frame_scalar, full_scan_minimal, two_nearest_point

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
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    # points on the (i, j) bisector are where the decision is close
    on_curve = sample_points(make_bisector(gens[i], gens[j], TOL), count=32, tol=TOL)
    pts = np.concatenate([rng.uniform(-50.0, 450.0, size=(30, 2)), np.array(on_curve).reshape(-1, 2)])
    got = _two_nearest(pts, i, j, arr, TOL)
    assert got.tolist() == [bool(two_nearest_point(p, i, j, arr, TOL)) for p in pts]


@pytest.mark.parametrize("n", range(13))
def test_triple_arrays_match_combinations(n):
    got = _triple_arrays(n)
    ref = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    assert got.dtype == np.int64
    assert got.shape == ref.shape
    assert (got == ref).all()
