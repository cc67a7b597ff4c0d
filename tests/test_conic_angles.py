"""The angle maps of gbpd.conic against the scalar ``math`` functions.

The kernels run numpy ufuncs (np.fmod, np.arctan, np.tan), and the one-value
references in oracles.py apply the same ufuncs per item, so the bit-for-bit
tests elsewhere cannot see a kernel drift away from libm. These tests tie the
maps to ``math.remainder``, ``math.atan`` and ``math.tan``: within 4 ulp on
finite values (alphas up to |alpha| <= 1e6), and exactly at the special
values, where the far point t = inf sits at alpha = pi.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gbpd.conic import alphas_of_params, params_of_alphas, points_at_alphas, wrap_angles

ULPS = 4
alphas = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40)
params = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)
SPECIAL_ALPHAS = [0.0, -0.0, math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi]


def libm_wrap(a):
    """alpha wrapped to (-pi, pi] by math.remainder."""
    r = math.remainder(a, 2.0 * math.pi)
    return r + 2.0 * math.pi if r <= -math.pi else r


def libm_param(a):
    a = libm_wrap(a)
    return math.inf if a == math.pi else math.tan(0.5 * a)


def libm_chart_s(a):
    """The evaluator's chart argument s: tan(alpha/2), or tan(alpha/2 - pi/2) past pi/2."""
    a = libm_wrap(a)
    return math.tan(0.5 * a - 0.5 * math.pi) if abs(a) > 0.5 * math.pi else math.tan(0.5 * a)


def chart_s(alpha):
    """s at each alpha, read from points_at_alphas on a curve whose x is s (x^ = s, u^ = 1
    in both charts), as a row of N alphas and as N rows of one alpha each."""
    alpha = np.asarray(alpha, dtype=float)
    rows = np.zeros((3, 3))
    rows[0, 1] = rows[2, 2] = 1.0
    coef = np.broadcast_to(rows, (alpha.size, 2, 3, 3))
    x, _, _, _, singular = points_at_alphas(coef, np.ones(alpha.size), alpha)
    x2 = points_at_alphas(coef[:1], np.ones(1), alpha[None])[0][0]
    assert not singular.any()
    assert x.tobytes() == x2.tobytes()
    return x


def assert_close(got, want):
    """Each entry of got within ULPS ulp of want; an exact zero or infinity exactly."""
    for g, w in zip(np.asarray(got, dtype=float).tolist(), want):
        if w == 0.0 or math.isinf(w):
            assert g == w, (g, w)
        else:
            assert abs(g - w) <= ULPS * math.ulp(w), (g, w, abs(g - w) / math.ulp(w))


@given(alphas)
@settings(max_examples=200, deadline=None)
def test_wrap_angles_match_math_remainder(alpha):
    assert_close(wrap_angles(np.array(alpha)), [libm_wrap(a) for a in alpha])


@given(params)
@settings(max_examples=200, deadline=None)
def test_alphas_of_params_match_math_atan(t):
    assert_close(alphas_of_params(np.array(t)), [2.0 * math.atan(v) for v in t])


@given(alphas)
@settings(max_examples=200, deadline=None)
def test_params_of_alphas_match_math_tan(alpha):
    assert_close(params_of_alphas(np.array(alpha)), [libm_param(a) for a in alpha])


@given(alphas)
@settings(max_examples=200, deadline=None)
def test_evaluator_chart_argument_matches_math_tan(alpha):
    assert_close(chart_s(alpha), [libm_chart_s(a) for a in alpha])


def test_special_values_are_exact():
    def signed(values):
        return [(v, math.copysign(1.0, v)) for v in np.asarray(values, dtype=float).tolist()]

    alpha = np.array(SPECIAL_ALPHAS)
    assert signed(wrap_angles(alpha)) == signed([0.0, -0.0] + [math.pi] * 4)
    assert signed(params_of_alphas(alpha)) == signed([0.0, -0.0] + [math.inf] * 4)
    # the far point is chart 1 at s = 0 (x^ = s + 0 drops the sign of a zero s)
    assert chart_s(alpha).tolist() == [0.0] * 6
    t = np.array([0.0, -0.0, math.inf, -math.inf])
    assert signed(alphas_of_params(t)) == signed([0.0, -0.0, math.pi, math.pi])
    # the libm forms agree on all of them
    assert signed([libm_wrap(a) for a in SPECIAL_ALPHAS]) == signed(wrap_angles(alpha))
    assert signed([libm_param(a) for a in SPECIAL_ALPHAS]) == signed(params_of_alphas(alpha))
