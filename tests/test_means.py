"""Power-mean tests: special orders, limits, symmetry, stability."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ORDERS
from wconvexity import _checks
from wconvexity.means import _SMALL_P, holder_mean, quartic_harmonic_form
from wconvexity.verify import SAMPLE_DOMAIN, sample_pairs

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
# Orders where the direct power form loses up to 2e-11 relative (at 1e-5).
_BAND_ORDERS = (1e-5, -1e-5, 2e-5, -2e-5, 1e-4, -1e-4, 1e-3, -1e-3, 1e-2, -1e-2, 0.03, -0.03, 0.1)
_OTHER_ORDERS = (0.5, -0.25, 2.0, -3.0, 300.0, -300.0, 1e300, -1e300)


def _readme_bound(p, a, b, ref):
    # README's bound on holder_mean(p, a, b) relative to its exact value ref.
    # Below |p| = 0.03, where |p ln(a/b)| < 2, the mean is G * exp(E) with
    # E = ln(H/G), so rounding in E grows by (1 + |E|): 4 ulp times that.
    # Otherwise r**p or the log-space sum loses up to 2 eps * (2 + |ln H|), and
    # below |p| = 0.25 the power 1/p amplifies the rounding of the sum by 1/|p|.
    ln_a, ln_b, ln_h = math.log(a), math.log(b), math.log(ref)
    if abs(p) < 0.03 and abs(p * (ln_a - ln_b)) < 2:
        return 4 * np.spacing(ref) / ref * (1 + abs(ln_h - (ln_a + ln_b) / 2))
    return 2 * np.finfo(np.float64).eps * (2 + abs(ln_h) + (1 / abs(p) if abs(p) < 0.25 else 0))


@pytest.mark.parametrize("p", _SMALL_ORDERS + _BAND_ORDERS + _OTHER_ORDERS)
def test_holder_mean_matches_mpmath(p):
    # Reference from the definition, with 40 digits beyond the ones 1/p cancels.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    # The sampling window, then nearly the whole double range.
    for lo, hi in ((-6.0, 22.0), (-300.0, 300.0)):
        r, s = 10.0 ** rng.uniform(lo, hi, (2, 200))
        h = holder_mean(p, r, s)
        with mpmath.workdps(40 + max(0, math.ceil(-math.log10(abs(p))))):
            mp = mpmath.mpf(p)
            for a, b, v in zip(r, s, h):
                ref = ((mpmath.exp(mp * mpmath.log(a)) + mpmath.exp(mp * mpmath.log(b))) / 2) ** (1 / mp)
                assert float(abs(mpmath.mpf(v) / ref - 1)) <= _readme_bound(p, a, b, float(ref)), (p, a, b)


@pytest.mark.parametrize("window", [SAMPLE_DOMAIN, (1e-300, 1e300)], ids=["sample-domain", "double-range"])
@settings(deadline=None, max_examples=200, derandomize=True)
@given(p=ORDERS, data=st.data())
def test_holder_mean_meets_the_readme_bound_at_orders_drawn_by_magnitude(window, p, data):
    # Every order magnitude from 1e-8 to 1e3 against 50-digit mpmath (at most
    # 8 of them cancel, at |p| = 1e-8), the branch edges included.
    mpmath = pytest.importorskip("mpmath")
    exponent = st.floats(*map(math.log10, window))
    pairs = data.draw(st.lists(st.tuples(exponent, exponent), min_size=1, max_size=16))
    r, s = np.clip(10.0 ** np.array(pairs).T, *window)
    h = holder_mean(p, r, s)
    with mpmath.workdps(50):
        mp = mpmath.mpf(p)
        for a, b, v in zip(r, s, h):
            if p:
                ref = ((mpmath.exp(mp * mpmath.log(a)) + mpmath.exp(mp * mpmath.log(b))) / 2) ** (1 / mp)
            else:
                ref = mpmath.sqrt(mpmath.mpf(a) * b)
            assert float(abs(mpmath.mpf(v) / ref - 1)) <= _readme_bound(p, a, b, float(ref)), (p, a, b)


@pytest.mark.parametrize("p", (3e-3, -3e-3, 1e-2, -1e-2, 0.0299, -0.0299))
def test_small_orders_are_as_accurate_as_the_direct_form_over_the_double_range(p):
    # The cosh form carries the rounding of ln(r/s), about eps * |ln(r/s)| / 2;
    # the direct form eps / |p|.  Pairs past |p ln(r/s)| = 2 take the direct
    # form, so no order below _SMALL_P does worse than it on wide arguments.
    mpmath = pytest.importorskip("mpmath")
    r, s = 10.0 ** np.random.default_rng(11).uniform(-300.0, 300.0, (2, 200))
    direct = ((r**p + s**p) / 2.0) ** (1.0 / p)
    with mpmath.workdps(40):
        mp = mpmath.mpf(p)
        refs = [((mpmath.exp(mp * mpmath.log(a)) + mpmath.exp(mp * mpmath.log(b))) / 2) ** (1 / mp) for a, b in zip(r, s)]

        def worst(values):
            return max(abs(mpmath.mpf(v) / ref - 1) for v, ref in zip(values, refs))

        assert worst(holder_mean(p, r, s)) <= worst(direct)


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
    # |p| * ln 10 overflows to inf in the guard; no RuntimeWarning may escape.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert holder_mean(1e308, 2.0, 10.0) == 10.0
        assert holder_mean(-1e308, 2.0, 10.0) == 2.0


_EDGE_ORDERS = (0.0, -0.0, 1e-320, -1e-320, 9.99e-6, -9.99e-6, 1e-5, -1e-5, 0.0299, -0.0299, 0.03, -0.03, 1e308, -1e308)
_EDGE_ARGUMENTS = (5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308)


@pytest.mark.parametrize("p", _EDGE_ORDERS)
def test_equal_arguments_come_back_bit_for_bit(p):
    # The clamp to [lo, hi] alone returns r when r == s, on either branch.
    r = np.array(_EDGE_ARGUMENTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(holder_mean(p, r, r).view(np.uint64), r.view(np.uint64))
        assert all(holder_mean(p, x, x) == x for x in _EDGE_ARGUMENTS)


def _elementwise_guard_mean(p, r, s):
    # holder_mean for |p| >= 0.03 as it was when every element took the
    # overflow guard's two logs, before the batch's extremes decided it.
    rr, ss = map(np.ascontiguousarray, np.broadcast_arrays(np.asarray(r, np.float64), np.asarray(s, np.float64)))
    lo, hi = np.minimum(rr, ss), np.maximum(rr, ss)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        out = ((rr**p + ss**p) / 2.0) ** (1.0 / p)
        use_stable = abs(p) * np.maximum(-np.log(lo), np.log(hi)) > 700.0
        if use_stable.any():
            base = hi if p > 0.0 else lo
            log_half_sum = np.log1p(np.expm1(-abs(p) * np.log(hi / lo)) / 2.0)
            out = np.where(use_stable, base * np.exp(log_half_sum / p), out)
    return np.minimum(np.maximum(out, lo), hi)


@pytest.mark.parametrize("p", (1.0, -1.0, 10.0, -3.0, 300.0, -300.0, 1e300, 0.37))
def test_guard_from_the_extremes_equals_the_elementwise_guard(p):
    # One argument at up to 300 ulp either side of e**(+-700/|p|), clipped to
    # the doubles, in a batch long enough for the SIMD log; the rest well inside.
    tiny, big = np.float64(5e-324), np.float64(np.finfo(np.float64).max)
    rng = np.random.default_rng(26)
    batches = 0
    for sign in (1.0, -1.0):
        with np.errstate(over="ignore", under="ignore"):
            edge = np.clip(np.exp(np.float64(sign * 700.0 / abs(p))), tiny, big)
        bits = edge.view(np.uint64).astype(np.int64) + np.arange(-300, 301)
        edges = bits[(bits >= 1) & (bits <= big.view(np.int64))].view(np.float64)
        for k, e in enumerate(edges):
            r, s = rng.uniform(0.5, 2.0, (2, 19))
            (r if k % 2 else s)[k % 19] = e
            got, want = holder_mean(p, r, s), _elementwise_guard_mean(p, r, s)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (p, e)
            batches += 1
    assert batches >= 600
    empty = np.empty(0)
    assert holder_mean(p, empty, empty).shape == _elementwise_guard_mean(p, empty, empty).shape == (0,)
    for r, s in ((2.0, 3.0), (1e-300, 1e300), (5e-324, big), (1.0, 1.0 + 2**-52)):
        want = _elementwise_guard_mean(p, r, s)
        assert np.float64(holder_mean(p, r, s)).view(np.uint64) == want.view(np.uint64), (r, s)
        assert np.float64(holder_mean(p, np.array(r), np.array(s))).view(np.uint64) == want.view(np.uint64)


def _two_where_small_order_mean(p, r, s):
    # holder_mean for |p| < _SMALL_P as it was when the split root, the split
    # log and the direct form ran on every element and np.where picked.
    rr, ss = map(np.ascontiguousarray, np.broadcast_arrays(np.asarray(r, np.float64), np.asarray(s, np.float64)))
    lo, hi = np.minimum(rr, ss), np.maximum(rr, ss)
    tiny = np.finfo(np.float64).tiny
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        prod = rr * ss
        out = np.where((prod >= tiny) & np.isfinite(prod), np.sqrt(prod), np.sqrt(rr) * np.sqrt(ss))
        if p:
            ratio = rr / ss
            d = np.where((ratio >= tiny) & np.isfinite(ratio), np.log(ratio), np.log(rr) - np.log(ss))
            out = out * np.exp(np.log1p(2.0 * np.sinh(p * d / 4.0) ** 2) / p)
            out = np.where(abs(p * d) < 2.0, out, ((rr**p + ss**p) / 2.0) ** (1.0 / p))
    return np.minimum(np.maximum(out, lo), hi)


# Pairs whose product or ratio is subnormal or overflows, and the widest pair,
# whose |ln(r/s)| = 1452 puts |p * ln(r/s)| past 2 from |p| = 0.0014 up.
_FALLBACK_PAIRS = (
    (1e-200, 1e-200), (1e-160, 1e-150), (1e200, 1e200), (1e160, 1e150), (1e-200, 1e200), (1e200, 1e-200),
    (5e-324, 1.7976931348623157e308), (1.7976931348623157e308, 5e-324), (5e-324, 5e-324), (1e-300, 3.0),
)
_WIDEST_LOG_RATIO = math.log(1.7976931348623157e308) - math.log(5e-324)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    p=ORDERS.filter(lambda p: abs(p) < _SMALL_P),
    pairs=st.lists(st.tuples(st.floats(-323.5, 308.25), st.floats(-323.5, 308.25)), max_size=40),
)
@example(p=math.nextafter(_SMALL_P, 0.0), pairs=[])
@example(p=-0.02, pairs=[(-1.0, 300.0)] * 20)
@example(p=0.0, pairs=[])
def test_small_order_fallbacks_equal_the_two_where_form(p, pairs):
    # Each fallback now runs on the elements that need it alone; every bit
    # must stay as when it ran on all of them.  Scalars too.
    drawn = np.clip(10.0 ** np.array(pairs, dtype=np.float64).reshape(-1, 2), 5e-324, 1.7976931348623157e308)
    r, s = np.concatenate([drawn, _FALLBACK_PAIRS]).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = holder_mean(p, r, s)
        assert np.array_equal(got.view(np.uint64), _two_where_small_order_mean(p, r, s).view(np.uint64))
        for a, b in _FALLBACK_PAIRS[::3]:
            want = _two_where_small_order_mean(p, a, b)[0]
            assert np.float64(holder_mean(p, a, b)).view(np.uint64) == want.view(np.uint64), (a, b)
    assert (abs(p) * _WIDEST_LOG_RATIO < 2.0) or not (abs(p * (np.log(r) - np.log(s))) < 2.0).all()


def _peak_bytes(fun, *args):
    fun(*args)  # first-call allocations
    tracemalloc.start()
    try:
        fun(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_holder_mean_takes_no_full_width_guard():
    # lo, hi and the power-mean temporaries peak at five columns of 8 * n
    # bytes.  An elementwise overflow guard on every call took a sixth.
    x, y = sample_pairs(42, 0, 2**15)
    assert _peak_bytes(holder_mean, -0.5, x, y) / (8 * x.size) < 5.5


def test_positive_builds_no_boolean_array():
    # Two reductions: a boolean temporary of 2**15 bytes (or an isfinite one) would show.
    x, _ = sample_pairs(42, 0, 2**15)
    assert _peak_bytes(_checks.positive, x, "x") < 4096


_FINITE = "x must be finite (got NaN or infinity)"
_POSITIVE_TABLE = [
    # (value, message without allow_zero, message with allow_zero); None accepts.
    (math.nan, _FINITE, _FINITE),
    (math.inf, _FINITE, _FINITE),
    (-math.inf, _FINITE, _FINITE),
    (-1.0, "x must be > 0", "x must be >= 0"),
    (0.0, "x must be > 0", None),
    (-0.0, "x must be > 0", None),
    (5e-324, None, None),
    ([math.nan, -1.0], _FINITE, _FINITE),
    ([-1.0, math.nan], _FINITE, _FINITE),
    ([-1.0, math.inf, 0.0], _FINITE, _FINITE),
    ([-0.0, 0.0, 2.0], "x must be > 0", None),
    ([], None, None),
    (np.array(2.0), None, None),
    (np.array(-0.0), "x must be > 0", None),
    ([[1.0, 2.0], [3.0, 4.0]], None, None),
    ([[1.0, 2.0], [0.0, 4.0]], "x must be > 0", None),
    ([[1.0, 2.0], [-3.0, 4.0]], "x must be > 0", "x must be >= 0"),
    ([[1.0, -math.inf], [3.0, 4.0]], _FINITE, _FINITE),
]


@pytest.mark.parametrize("value,strict,lenient", _POSITIVE_TABLE)
def test_positive_outcomes_and_messages(value, strict, lenient):
    for allow_zero, message in ((False, strict), (True, lenient)):
        if message is None:
            arr = _checks.positive(value, "x", allow_zero)
            assert arr.dtype == np.float64 and arr.shape == np.shape(value)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _checks.positive(value, "x", allow_zero)


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


@pytest.mark.parametrize("p", [0.25, -0.25, -3.0])
def test_result_does_not_depend_on_memory_layout(p):
    # NumPy's power can differ in the last bit between strided and
    # contiguous input, so a strided view must give what its copy gives.
    z = np.geomspace(1e-300, 1e300, 3001)
    expected = holder_mean(p, z, z[::-1].copy())
    assert np.array_equal(holder_mean(p, z, z[::-1]), expected)
    assert np.array_equal(holder_mean(p, z[::-1], z), expected)


def test_quartic_form_equal_arguments():
    assert quartic_harmonic_form(1.0, 1.0) == 1.0
    assert quartic_harmonic_form(16.0, 16.0) == 16.0
    assert quartic_harmonic_form(3.0, 3.0) == 3.0
    # Unclamped, the fourth roots' rounding moved 76,664 of 100,000 sampled x.
    x = np.concatenate(
        [np.random.default_rng(42).uniform(1e-6, 1e6, 10_000), np.geomspace(1e-307, 1e308, 1_001)]
    )
    assert np.array_equal(quartic_harmonic_form(x, x), x)


def test_quartic_form_example_1_16():
    # fourth roots 1 and 2: (2*1*2 / (1+2))**4 = (4/3)**4 = 256/81
    assert abs(quartic_harmonic_form(1.0, 16.0) - 256.0 / 81.0) <= 1e-13 * (256.0 / 81.0)


@settings(deadline=None)
@given(positive, positive)
def test_quartic_form_is_order_minus_quarter_mean(x, y):
    direct = quartic_harmonic_form(x, y)
    via_mean = holder_mean(-0.25, x, y)
    assert abs(direct - via_mean) <= 1e-13 * via_mean
