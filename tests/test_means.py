"""Power-mean tests: special orders, limits, symmetry, stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wconvexity.means import holder_mean, quartic_harmonic_form

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
orders = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_arithmetic_mean_example():
    assert holder_mean(1.0, 2.0, 4.0) == 3.0


def test_geometric_mean_example():
    assert holder_mean(0.0, 2.0, 8.0) == 4.0


def test_harmonic_mean_example():
    assert abs(holder_mean(-1.0, 2.0, 6.0) - 3.0) <= 1e-14 * 3.0


@pytest.mark.parametrize("r,s", [(2.0, 4.0), (0.3, 700.0), (1e-5, 1e5)])
def test_special_orders_closed_forms(r, s):
    assert abs(holder_mean(1.0, r, s) - (r + s) / 2) <= 1e-14 * ((r + s) / 2)
    harm = 2.0 * r * s / (r + s)
    assert abs(holder_mean(-1.0, r, s) - harm) <= 1e-14 * harm
    geo = math.sqrt(r * s)
    assert abs(holder_mean(0.0, r, s) - geo) <= 1e-14 * geo


def test_monotone_in_order():
    ps = np.arange(-4.0, 4.25, 0.25)
    for r, s in ((2.0, 6.0), (0.5, 8.0), (1e-3, 1e3)):
        vals = [holder_mean(p, r, s) for p in ps]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_continuity_at_zero():
    # |H_p - H_0 * exp(p * ln(r/s)**2 / 8)| <= 1e-10 * H_0 for |p| <= 1e-4.
    for p in (1e-4, -1e-4, 1e-5, -1e-5, 1e-6, -1e-6, 1e-8, 1e-9, -1e-9):
        for r, s in ((2.0, 6.0), (1.0, 100.0), (1e-2, 1e2)):
            h0 = holder_mean(0.0, r, s)
            approx = h0 * math.exp(p * math.log(r / s) ** 2 / 8.0)
            assert abs(holder_mean(p, r, s) - approx) <= 1e-10 * h0


_SMALL_ORDERS = (1e-300, -1e-300, 1e-9, -1e-9, 1e-7, -1e-7, 9.9e-6, -9.9e-6)
_OTHER_ORDERS = (0.5, -0.25, 2.0, -3.0, 300.0, -300.0, 1e300, -1e300)


@pytest.mark.parametrize("p", _SMALL_ORDERS + _OTHER_ORDERS)
def test_holder_mean_matches_mpmath(p):
    # Reference from the definition, with 40 digits beyond the ones 1/p
    # cancels.  Bounds: below |p| = 1e-5 the mean is G * exp(E) with
    # E = ln(H/G), so rounding in E grows by (1 + |E|): 4 ulp times that.
    # Otherwise r**p or the log-space sum loses up to 2 eps * (2 + |ln H|).
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    eps = np.finfo(np.float64).eps
    # The sampling window, then nearly the whole double range.
    for lo, hi in ((-6.0, 22.0), (-300.0, 300.0)):
        r, s = 10.0 ** rng.uniform(lo, hi, (2, 200))
        h = holder_mean(p, r, s)
        with mpmath.workdps(40 + max(0, math.ceil(-math.log10(abs(p))))):
            mp = mpmath.mpf(p)
            for a, b, v in zip(r, s, h):
                ln_a, ln_b = mpmath.log(a), mpmath.log(b)
                ref = ((mpmath.exp(mp * ln_a) + mpmath.exp(mp * ln_b)) / 2) ** (1 / mp)
                rel = float(abs(mpmath.mpf(v) / ref - 1))
                ln_h = float(mpmath.log(ref))
                if abs(p) < 1e-5:
                    ulp = np.spacing(float(ref)) / float(ref)
                    bound = 4 * ulp * (1 + abs(ln_h - float(ln_a + ln_b) / 2))
                else:
                    bound = 2 * eps * (2 + abs(ln_h))
                assert rel <= bound, (p, a, b)


@pytest.mark.parametrize("p", (2.0, 3.0, -3.0, 30.0, 300.0, -300.0, 1e300, -1e300))
def test_holder_mean_log_space_branch_matches_mpmath(p):
    # Only pairs with |p * ln r| or |p * ln s| past 700 take the log-space
    # branch; with the dominant argument factored out it stays within a
    # few ulp however large |ln H| is.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    checked = 0
    for lo, hi in ((-6.0, 22.0), (-300.0, 300.0)):
        r, s = 10.0 ** rng.uniform(lo, hi, (2, 400))
        branch = np.maximum(np.abs(p * np.log(r)), np.abs(p * np.log(s))) > 700.0
        r, s = r[branch], s[branch]
        h = holder_mean(p, r, s)
        checked += r.size
        with mpmath.workdps(40):
            mp = mpmath.mpf(p)
            for a, b, v in zip(r, s, h):
                terms = mpmath.exp(mp * mpmath.log(a)) + mpmath.exp(mp * mpmath.log(b))
                ref = (terms / 2) ** (1 / mp)
                ulps = float(abs(mpmath.mpf(v) - ref)) / np.spacing(float(ref))
                assert ulps <= 4.0, (p, a, b, ulps)
    assert checked > 0


def test_extreme_orders_stay_between():
    for p in (300.0, -300.0, 650.0, -650.0):
        v = holder_mean(p, 1e-5, 2.0)
        assert 1e-5 <= v <= 2.0
        assert math.isfinite(v)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_positive_argument_required(bad):
    with pytest.raises(ValueError):
        holder_mean(1.0, bad, 2.0)
    with pytest.raises(ValueError):
        holder_mean(1.0, 2.0, bad)
    with pytest.raises(ValueError):
        quartic_harmonic_form(bad, 2.0)


@pytest.mark.parametrize("bad_p", [math.nan, math.inf, -math.inf])
def test_finite_order_required(bad_p):
    with pytest.raises(ValueError):
        holder_mean(bad_p, 1.0, 2.0)


@settings(deadline=None)
@given(orders, positive)
def test_idempotence_exact(p, r):
    assert holder_mean(p, r, r) == r


@settings(deadline=None)
@given(orders, positive, positive)
def test_symmetry_bit_identical(p, r, s):
    assert holder_mean(p, r, s) == holder_mean(p, s, r)


@settings(deadline=None)
@given(orders, positive, positive)
def test_betweenness(p, r, s):
    v = holder_mean(p, r, s)
    assert min(r, s) <= v <= max(r, s)
    if abs(math.log(r / s)) > 1e-9:
        assert min(r, s) < v < max(r, s)


def test_quartic_form_equal_arguments():
    assert quartic_harmonic_form(1.0, 1.0) == 1.0
    assert quartic_harmonic_form(16.0, 16.0) == 16.0


def test_quartic_form_example_1_16():
    # fourth roots 1 and 2: (2*1*2 / (1+2))**4 = (4/3)**4 = 256/81
    assert abs(quartic_harmonic_form(1.0, 16.0) - 256.0 / 81.0) <= 1e-13 * (256.0 / 81.0)


@settings(deadline=None)
@given(positive, positive)
def test_quartic_form_is_order_minus_quarter_mean(x, y):
    direct = quartic_harmonic_form(x, y)
    via_mean = holder_mean(-0.25, x, y)
    assert abs(direct - via_mean) <= 1e-13 * via_mean
