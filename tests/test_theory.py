"""Tests for the slope diagnostics and the (p, q) classification."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import raster_cells
from wconvexity import raster
from wconvexity.lambert import w0, w0_prime
from wconvexity.theory import (
    ConvexityClass,
    HpqParams,
    c_of_p,
    classify,
    f1,
    g_pq,
    h_p,
    h_p_argmax,
)
from wconvexity.verify import GRID_AXIS

from test_lambert import OMEGA

CONVEX = ConvexityClass.STRICTLY_CONVEX
CONCAVE = ConvexityClass.STRICTLY_CONCAVE
NEITHER = ConvexityClass.NEITHER


# ---------------------------------------------------------------- h_p / f1


def test_h_p_at_e():
    # W(e) = 1, so h_p(e) = 2p + 1/2.
    assert abs(h_p(0.0, math.e) - 0.5) <= 1e-14
    assert abs(h_p(-1.0, math.e) - (-1.5)) <= 1e-14


@pytest.mark.parametrize("p", [-2.0, -0.5, 0.0, 1.0, 3.0])
def test_h_p_small_r_limit(p):
    assert abs(h_p(p, 1e-12) - p) <= 1e-5


def test_h_p_large_r_endpoints():
    for p in (0.5, 2.0):
        assert h_p(p, 1e12) > 10.0
    # h_0 = 1 - 1/(W+1) approaches 1 from below; at r = 1e12, W ~ 24.4,
    # so the distance to 1 is 1/(W+1) ~ 0.039.
    assert 0.0 < 1.0 - h_p(0.0, 1e12) <= 5e-2
    for p in (-1.0, -2.0):
        assert h_p(p, 1e12) < -10.0


def test_h_p_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        h_p(1.0, 0.0)
    with pytest.raises(ValueError):
        h_p(1.0, -3.0)


@pytest.mark.parametrize("p", [1e308, -1e308])
@pytest.mark.parametrize("r", [3.0, 1e9, 1e300, np.finfo(np.float64).max])
def test_h_p_out_of_range_raises(p, r):
    # p * (W(r) + 1) overflows; no RuntimeWarning may escape.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="double range"):
            h_p(p, r)
        with pytest.raises(OverflowError, match="double range"):
            h_p(p, np.array([1e-9, r]))


def test_h_p_matches_mpmath_over_the_double_range():
    # h_p = p * (W + 1) + W / (W + 1): W's rounding is scaled by |p|, and
    # each operation adds one rounding, so the error is a few eps times
    # |p| * (W + 1) + 1 (1.39 at most, measured on this grid).
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(np.float64).eps
    r = np.logspace(-300.0, 308.0, 4_001)
    with mpmath.workdps(40):
        ref_w = [mpmath.lambertw(mpmath.mpf(x)).real for x in r]
        for p in (-3.0, -1.0, -0.75, -0.5, -0.25, -0.1, 0.0, 0.5, 2.0, 300.0, -1e-7):
            mp = mpmath.mpf(p)
            for x, h, w in zip(r, np.asarray(h_p(p, r)), ref_w):
                err = float(abs(mpmath.mpf(h) - (mp * (w + 1) + w / (w + 1))))
                assert err <= 4 * eps * (abs(p) * float(w + 1) + 1), (p, x)


def test_f1_special_values():
    assert abs(f1(math.e) - (-0.25)) <= 1e-14
    assert abs(f1(1.0) - (-1.0 / (OMEGA + 1.0) ** 2)) <= 1e-13
    assert abs(f1(1e-12) - (-1.0)) <= 1e-5


def test_f1_range_and_monotonicity():
    vals = np.asarray(f1(np.logspace(-9, 9, 2_000)))
    assert np.all((-1.0 < vals) & (vals < 0.0))
    assert np.all(np.diff(vals) > 0.0)


def test_h_prime_identity():
    # central difference of h_p vs w0_prime(r) * (p - f1(r))
    r = np.logspace(-3, 3, 1_000)
    for p in (2.0, 1.0, 0.5, 0.0, -2.0, -3.0):
        fd = (np.asarray(h_p(p, r * (1 + 1e-6))) - np.asarray(h_p(p, r * (1 - 1e-6)))) / (
            2e-6 * r
        )
        formula = np.asarray(w0_prime(r)) * (p - np.asarray(f1(r)))
        assert np.max(np.abs(fd - formula) / np.abs(formula)) <= 1e-6


# ---------------------------------------------------------------- g_pq


def test_g_pq_special_values():
    assert abs(g_pq(0.0, 0.0, math.e) - 0.5) <= 1e-14
    assert abs(g_pq(1.0, 1.0, math.e) - 1.0 / (2.0 * math.e)) <= 1e-14


def test_g_pq_order_one_is_w0_prime():
    r = np.logspace(-6, 6, 500)
    g = np.asarray(g_pq(1.0, 1.0, r))
    d = np.asarray(w0_prime(r))
    assert np.max(np.abs(g - d) / d) <= 1e-12


def test_g_pq_positive():
    assert np.all(np.asarray(g_pq(-2.0, 3.0, np.logspace(-6, 6, 200))) > 0.0)


@pytest.mark.parametrize("p,q", [(-0.3, 0.5), (-2.0, -3.0), (1.0, 1.0), (0.0, 0.5), (2.0, 3.0)])
def test_g_pq_does_not_depend_on_memory_layout(p, q):
    # NumPy's power can differ in the last bit between strided and
    # contiguous input, so a reversed view must give what its copy gives.
    z = np.geomspace(1e-6, 1e22, 30_001)
    expected = np.asarray(g_pq(p, q, z[::-1].copy()))
    assert np.array_equal(g_pq(p, q, z[::-1]), expected)
    assert np.array_equal(g_pq(p, q, z[::2]), expected[::-1][::2])
    assert all(g_pq(p, q, float(r)) == g for r, g in zip(z[::3_000], expected[::-1][::3_000]))


def test_g_pq_out_of_range_raises():
    with pytest.raises(OverflowError):
        g_pq(0.0, -40.0, 1e-9)  # W**q alone exceeds 1e308
    with pytest.raises(OverflowError):
        g_pq(0.0, 40.0, 1e-9)  # underflows past the normal range
    with pytest.raises(ValueError):
        g_pq(1.0, 1.0, -1.0)
    # q ln W - p ln r is inf - inf here; NaN fails the range check, silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1e308, -1e308):
            with pytest.raises(OverflowError, match="normal double range"):
                g_pq(p, p, 1e10)


@pytest.mark.parametrize(
    "p,q",
    [(3.0, 3.0), (-3.0, -300.0), (2.0, 1.0), (30.0, 30.0), (1.0, 1.0), (0.0, -1.0), (-1.0, 2.0)],
)
def test_g_pq_is_silent_over_the_double_range(p, q):
    # Where w**q and r**p both underflow, the direct form divides 0 by 0;
    # the log form is returned there, and no RuntimeWarning may escape.
    evaluated = 0
    for chunk in np.array_split(np.logspace(-300.0, 300.0, 2_001), 87):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                g = np.asarray(g_pq(p, q, chunk))
            except OverflowError:
                continue
        assert np.all(np.isfinite(g) & (g > 0.0))
        evaluated += chunk.size
    assert evaluated > 0


def test_g_pq_matches_mpmath():
    # Relative error at most 3.9 eps on this grid and these pairs.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(np.float64).eps
    r = np.logspace(-12.0, 12.0, 801)
    pairs = ((1, 1), (2, 1), (3, 3), (0, -1), (-1, 1), (-2, -3), (-0.5, -0.3), (0, 0.5))
    with mpmath.workdps(50):
        ref_w = [mpmath.lambertw(mpmath.mpf(x)).real for x in r]
        for p, q in pairs:
            mp, mq = mpmath.mpf(p), mpmath.mpf(q)
            for x, g, w in zip(r, np.asarray(g_pq(p, q, r)), ref_w):
                ref = w**mq / (mpmath.mpf(x) ** mp * (w + 1))
                assert float(abs(mpmath.mpf(g) / ref - 1)) <= 8 * eps, (p, q, x)


def test_g_log_derivative_identity():
    r = np.logspace(-3, 3, 1_000)
    for p, q in ((1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (-2.0, 0.0)):
        w = np.asarray(w0(r))
        fd = (
            np.log(np.asarray(g_pq(p, q, r * (1 + 1e-6))))
            - np.log(np.asarray(g_pq(p, q, r * (1 - 1e-6))))
        ) / (2e-6 * r)
        formula = (q - np.asarray(h_p(p, r))) / (r * (w + 1.0))
        assert np.max(np.abs(fd - formula) / np.abs(formula)) <= 1e-6


# ---------------------------------------------------------------- c_of_p


def test_c_of_p_special_values():
    assert c_of_p(-0.25) == 0.0
    assert c_of_p(-1.0) == -1.0
    assert c_of_p(0.0) == 1.0


def test_c_of_p_monotone_and_bounded():
    ps = np.linspace(-1.0, 0.0, 500)
    vals = np.array([c_of_p(p) for p in ps])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all((-1.0 <= vals) & (vals <= 1.0))


def test_c_of_p_sign_pattern():
    assert all(c_of_p(p) < 0 for p in (-0.9, -0.5, -0.3))
    assert all(c_of_p(p) > 0 for p in (-0.2, -0.1, -0.01))


@pytest.mark.parametrize("bad", [-1.5, 0.5, 1.0, math.nan])
def test_c_of_p_domain(bad):
    with pytest.raises(ValueError):
        c_of_p(bad)


# ---------------------------------------------------------------- argmax


def test_h_p_argmax_quarter():
    # z = 2, r* = 1 * e**1
    assert abs(h_p_argmax(-0.25) - math.e) <= 1e-13 * math.e
    assert abs(h_p(-0.25, h_p_argmax(-0.25)) - c_of_p(-0.25)) <= 1e-12


def test_h_p_argmax_ninth():
    # z = 3, r* = 2 * e**2
    r_star = h_p_argmax(-1.0 / 9.0)
    assert abs(r_star - 2.0 * math.e**2) <= 1e-12 * r_star
    assert abs(h_p(-1.0 / 9.0, r_star) - (1.0 / 3.0)) <= 1e-12


def test_h_p_argmax_approaches_zero_near_minus_one():
    assert h_p_argmax(-1.0 + 1e-9) < 1e-4


@pytest.mark.parametrize("p", [-0.9, -0.75, -0.5, -0.25, -0.1])
def test_h_p_value_at_argmax_is_maximum(p):
    r = np.logspace(-9, 9, 10_000)
    grid_max = float(np.max(np.asarray(h_p(p, r))))
    assert grid_max <= c_of_p(p) + 1e-8
    assert h_p(p, h_p_argmax(p)) >= grid_max - 1e-8


def test_h_p_argmax_keeps_its_largest_finite_values():
    assert h_p_argmax(-2.02e-6) == 9.570691179279134e307
    assert h_p_argmax(-0.25) == math.e


@pytest.mark.parametrize("p", [-2.016e-6, -2e-6, -1.98e-6, -1e-6, -1e-300, -5e-324])
def test_h_p_argmax_raises_past_the_largest_double(p):
    # Through about -1.98e-6, e**u stays finite and only the product overflows.
    with pytest.raises(OverflowError, match=f"^h_p_argmax at p={re.escape(repr(p))} passes the largest double$"):
        h_p_argmax(p)


@pytest.mark.parametrize("bad", [-1.0, 0.0, -2.0, 0.5])
def test_h_p_argmax_domain(bad):
    with pytest.raises(ValueError):
        h_p_argmax(bad)


# ---------------------------------------------------------------- classify


@pytest.mark.parametrize(
    "p,q,expected",
    [
        (1.0, 1.0, CONCAVE),
        (-1.0, -1.0, CONVEX),
        (0.0, 0.0, CONCAVE),
        (-0.25, 0.0, CONVEX),
        (0.0, 0.5, NEITHER),
        (2.0, 3.0, NEITHER),
    ],
)
def test_classify_fixtures(p, q, expected):
    assert classify(p, q) is expected


def test_classify_boundary_inclusivity():
    assert classify(-1.0, -1.0) is CONVEX  # q = p on the p <= -1 edge
    assert classify(2.0, 2.0) is CONCAVE  # q = p on the p >= 0 edge
    assert classify(-0.0625, 0.5) is CONVEX  # q = C(p), exactly: 1 - 2 * sqrt(1/16) = 1/2
    assert classify(0.0, 1.0) is CONVEX  # q = C(0)
    assert classify(0.0, 0.0) is CONCAVE


def _down(v):
    return float(np.nextafter(v, -math.inf))


def _up(v):
    return float(np.nextafter(v, math.inf))


_C_HALF = c_of_p(-0.5)
_C_NEAR_MINUS_ONE = c_of_p(_up(-1.0))


@pytest.mark.parametrize(
    "p,q,expected",
    [
        # q = p on the p <= -1 edge.
        (-2.0, _down(-2.0), NEITHER),
        (-2.0, -2.0, CONVEX),
        (-2.0, _up(-2.0), CONVEX),
        # q = p on the p >= 0 edge.
        (2.0, _down(2.0), CONCAVE),
        (2.0, 2.0, CONCAVE),
        (2.0, _up(2.0), NEITHER),
        # q = C(p) inside -1 < p < 0.  C(-1/16) = 1/2 is a double; C(-1/2) =
        # 1 - sqrt(2) is not, and the rounded _C_HALF and the double above it
        # both lie below it, so the first convex double is two above _C_HALF.
        (-0.0625, _down(0.5), NEITHER),
        (-0.0625, 0.5, CONVEX),
        (-0.0625, _up(0.5), CONVEX),
        (_up(-0.0625), 0.5, NEITHER),
        (_down(-0.0625), 0.5, CONVEX),
        (-0.5, _down(_C_HALF), NEITHER),
        (-0.5, _C_HALF, NEITHER),
        (-0.5, _up(_C_HALF), NEITHER),
        (-0.5, _up(_up(_C_HALF)), CONVEX),
        # p = -1, where C(p) = p, and one ulp either side of it.
        (-1.0, _down(-1.0), NEITHER),
        (-1.0, -1.0, CONVEX),
        (_down(-1.0), _down(-1.0), CONVEX),
        (_down(-1.0), _down(_down(-1.0)), NEITHER),
        (_up(-1.0), _C_NEAR_MINUS_ONE, CONVEX),
        (_up(-1.0), _down(_C_NEAR_MINUS_ONE), NEITHER),
        # p = 0, where the convex edge is q = C(0) = 1 and the concave edge
        # q = 0, and one ulp either side of it.
        (0.0, 1.0, CONVEX),
        (0.0, _down(1.0), NEITHER),
        (0.0, 0.0, CONCAVE),
        (0.0, _up(0.0), NEITHER),
        (_down(0.0), 1.0, CONVEX),
        (_down(0.0), _down(1.0), NEITHER),
        (_down(0.0), 0.0, NEITHER),
        (_up(0.0), 0.0, CONCAVE),
        (_up(0.0), _up(0.0), CONCAVE),
        (_up(0.0), _up(_up(0.0)), NEITHER),
        (_up(0.0), 1.0, NEITHER),
    ],
)
def test_classify_one_ulp_either_side_of_each_boundary(p, q, expected):
    assert classify(p, q) is expected


def test_classify_matches_mpmath_near_the_curve():
    # q within 3 ulp of the rounded c_of_p(p), against 60-digit q >= 1 - 2*sqrt(-p).
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20250825)
    with mpmath.workdps(60):
        for p in rng.uniform(-1.0, 0.0, 5_000):
            p = float(p)
            curve = 1 - 2 * mpmath.sqrt(-mpmath.mpf(p))
            q = c_of_p(p)
            for _ in range(3):
                q = _down(q)
            for _ in range(7):
                assert (classify(p, q) is CONVEX) == (mpmath.mpf(q) >= curve), (p, q)
                q = _up(q)


def test_classify_seam_at_minus_one():
    for q in (-2.0, -1.1, -0.9, -0.5, 0.0, 1.0):
        assert classify(-1.0 - 1e-9, q) is classify(-1.0 + 1e-9, q)


def test_classify_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            classify(bad, 0.0)
        with pytest.raises(ValueError):
            classify(0.0, bad)


def _convex_pred(p, q):
    # q >= 1 - 2*sqrt(-p) in exact rationals: q >= 1 or (1 - q)**2 <= -4p.
    on_or_above = q >= 1.0 or (1 - Fraction(q)) ** 2 <= -4 * Fraction(p)
    return (p <= -1.0 and q >= p) or (-1.0 < p <= 0.0 and on_or_above)


def _concave_pred(p, q):
    return p >= 0.0 and q <= p


def test_verdicts_disjoint_on_dense_grid():
    axis = np.round(np.arange(-5.0, 5.0001, 0.1), 10)
    for p in axis:
        for q in axis:
            assert not (_convex_pred(p, q) and _concave_pred(p, q))
            got = classify(float(p), float(q))
            if _convex_pred(p, q):
                assert got is CONVEX
            elif _concave_pred(p, q):
                assert got is CONCAVE
            else:
                assert got is NEITHER


@settings(deadline=None)
@given(
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
)
def test_classify_matches_predicates(p, q):
    got = classify(p, q)
    assert (got is CONVEX) == _convex_pred(p, q)
    assert (got is CONCAVE) == _concave_pred(p, q)


def _infimum(a, b, c):
    # The infimum of a*u**2 + b*u + c over u > 1, or None where it is -inf.
    if a < 0 or (a == 0 and b < 0):
        return None
    if a > 0 and -b / (2 * a) > 1:
        return c - b * b / (4 * a)  # at the vertex
    return a + b + c  # approached as u -> 1


def _slope_lemma_class(p, q):
    # Apart from classify's branches: with u = W(r) + 1, which covers
    # (1, inf), q - h_p(r) = Q(u) / u for Q(u) = -p*u**2 + (q - 1)*u + 1.  So
    # g_pq never falls (convex) iff Q >= 0 on u > 1, and never rises
    # (concave) iff Q <= 0 there, that is -Q >= 0.  Exact in rationals.
    a, b = -Fraction(p), Fraction(q) - 1
    low, high = _infimum(a, b, 1), _infimum(-a, -b, -1)
    if low is not None and low >= 0:
        return CONVEX
    if high is not None and high >= 0:
        return CONCAVE
    return NEITHER


@pytest.mark.parametrize(
    "window, step",
    [
        ((-3.0, 3.0, -3.0, 3.0), 0.05),  # the default raster, 14,641 cells
        ((-1.0, 1.0, -1.0, 1.0), 0.25),
        ((-2.0, 2.0, -2.0, 2.0), 0.5),
        ((-1.0, -0.0, -1.0, 1.0), 0.5),
    ],
)
def test_classify_agrees_with_the_slope_lemma_on_raster_windows(window, step):
    for p, q, cls in raster_cells(raster.build_raster(*window, step)):
        assert classify(p, q) is cls is _slope_lemma_class(p, q), (p, q)


def test_classify_agrees_with_the_slope_lemma_near_the_curve():
    # The rounded curve and the 4 doubles either side of it, where the
    # exact integer test in classify decides.
    for i in range(1, 2_001):
        p = -i / 2_000
        for q in _doubles_around(c_of_p(p), 4):
            assert classify(p, q) is _slope_lemma_class(p, q), (p, q)


def test_params_reject_non_finite():
    with pytest.raises(ValueError, match="^p must be finite"):
        HpqParams(math.nan, 1.0)
    with pytest.raises(ValueError, match="^q must be finite"):
        HpqParams(1.0, math.inf)


def _doubles_around(v, k=3):
    # v and the k doubles on each side of it.
    out = [v]
    lo = hi = v
    for _ in range(k):
        lo, hi = _down(lo), _up(hi)
        out += [lo, hi]
    return out


# -0.0 joins after the set, which would keep only one of the two zeros.
@pytest.mark.parametrize("p", sorted(set(GRID_AXIS) | {-1.0, -0.0625, -1e-300}) + [-0.0])
def test_classify_is_at_most_three_runs_along_q(p):
    # The main theorem's boundaries at a fixed p: q = p for p <= -1 (convex on
    # and above) and for p > 0 (concave on and below); q = C(p) = 1 - 2*sqrt(-p)
    # for -1 < p < 0 (convex on and above); q = 0 and q = C(0) = 1 for p = 0
    # (concave on and below 0, convex on and above 1).  So along increasing q
    # the class changes at most twice and never returns to a class it left,
    # which is what lets build_raster bisect each column for its runs.
    edges = [p, -0.0, 0.0, 1.0] + ([c_of_p(p)] if -1.0 <= p <= 0.0 else [])
    qs = np.linspace(-5.0, 5.0, 4_001).tolist() + [q for e in edges for q in _doubles_around(e)]
    qs.sort(key=lambda q: (q, math.copysign(1.0, q)))  # -0.0 before 0.0
    runs = []
    for q in qs:
        cls = classify(p, q)
        if not runs or runs[-1] is not cls:
            runs.append(cls)
    assert len(runs) <= 3 and len(set(runs)) == len(runs), runs
