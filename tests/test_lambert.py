"""Kernel tests: defining residual, monotonicity, round trip, derivative.

The Omega constant (the root of w * e**w = 1) is recomputed here by an
independent bisection oracle and frozen; the kernel must reproduce it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wconvexity import lambert
from wconvexity.lambert import RESIDUAL_TOL, residual_bound, w0, w0_prime
from wconvexity.verify import sample_pairs

# Frozen from bisect_omega() below (interval width < 1e-16).
OMEGA = 0.5671432904097838


def bisect_omega():
    """Bisection on w * e**w - 1 over [0.5, 0.6]; independent of w0."""
    lo, hi = 0.5, 0.6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) - 1.0 > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_omega_oracle_matches_frozen_value():
    assert abs(bisect_omega() - OMEGA) < 5e-16


def test_w0_at_zero_is_exact():
    assert w0(0.0) == 0.0


def test_w0_at_e_is_one():
    assert abs(w0(math.e) - 1.0) <= 1e-15


def test_w0_at_one_is_omega():
    assert abs(w0(1.0) - OMEGA) <= 1e-14


def test_residual_envelope_on_log_grid():
    z = np.logspace(-9.0, 9.0, 10_000)
    w = w0(z)
    resid = np.abs(w * np.exp(w) - z)
    assert np.all(resid <= residual_bound(z))


def test_strictly_increasing_on_log_grid():
    w = w0(np.logspace(-9.0, 9.0, 10_000))
    assert np.all(np.diff(w) > 0.0)


def test_round_trip():
    w = np.logspace(-6.0, math.log10(20.0), 10_000)
    back = w0(w * np.exp(w))
    assert np.max(np.abs(back - w) / w) <= 1e-13


def _ulps_apart(a, b):
    # Distance in representable doubles between two non-negative floats.
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def test_w0_matches_mpmath_over_the_double_range():
    mpmath = pytest.importorskip("mpmath")
    z = np.concatenate(
        [
            np.logspace(-300.0, 308.0, 2_001),
            # e**w * (w + 1) overflows in the Halley step from z ~ 1.795e308.
            np.linspace(1.79e308, np.finfo(np.float64).max, 201),
            # The band where the Halley iterate can alternate between two
            # doubles, and the weakest piece of the initial guess.
            np.linspace(0.01, 10.0, 2_001),
            # Subnormals, from the smallest one up to the smallest normal.
            np.logspace(-323.3, math.log10(np.finfo(np.float64).tiny), 201),
        ]
    )
    w = w0(z)
    with mpmath.workdps(40):
        ref = [float(mpmath.lambertw(mpmath.mpf(float(v))).real) for v in z]
    worst = max(_ulps_apart(a, b) for a, b in zip(w, ref))
    assert worst <= 1


def test_w0_is_elementwise():
    z = np.concatenate([sample_pairs(42, 0, 4096)[0], np.linspace(0.05, 0.4, 1001)])
    batch = w0(z)
    assert [float(v) for v in batch] == [w0(float(v)) for v in z]


def test_w0_raises_when_halley_does_not_converge(monkeypatch):
    monkeypatch.setattr(lambert, "_STEPS", 1)
    with pytest.raises(RuntimeError):
        w0(np.logspace(-3.0, 3.0, 50))


def test_scalar_and_array_shapes():
    assert isinstance(w0(2.0), float)
    out = w0(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert out.shape == (2, 2)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_w0_domain_errors(bad):
    with pytest.raises(ValueError):
        w0(bad)


@pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
def test_w0_prime_domain_errors(bad):
    with pytest.raises(ValueError):
        w0_prime(bad)


def test_w0_prime_special_values():
    assert abs(w0_prime(math.e) - 1.0 / (2.0 * math.e)) <= 1e-16
    assert abs(w0_prime(1.0) - OMEGA / (OMEGA + 1.0)) <= 1e-15


def test_w0_prime_matches_finite_difference_at_5():
    z = 5.0
    h = 1e-6 * z
    fd = (w0(z + h) - w0(z - h)) / (2.0 * h)
    assert abs(fd - w0_prime(z)) <= 1e-8 * abs(w0_prime(z))


def test_w0_prime_positive_and_decreasing():
    d = w0_prime(np.logspace(-6.0, 6.0, 2_000))
    assert np.all(d > 0.0)
    assert np.all(np.diff(d) < 0.0)


def test_w0_prime_finite_difference_on_grid():
    z = np.logspace(-6.0, 6.0, 1_000)
    fd = (w0(z * (1 + 1e-6)) - w0(z * (1 - 1e-6))) / (2e-6 * z)
    d = w0_prime(z)
    assert np.max(np.abs(fd - d) / np.abs(d)) <= 1e-6


@pytest.mark.xfail(
    reason="_polish ranks neighbouring doubles by a float residual whose rounding "
    "exceeds the gap between them; the correctly rounded W is within 0.88 of the bound",
    raises=AssertionError,
    strict=True,
)
@pytest.mark.parametrize("z", [319546262.72009826, 591520704.7808926, 696523696.5253279])
def test_exact_residual_within_bound(z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w = mpmath.mpf(w0(z))
        residual = float(abs(w * mpmath.exp(w) - mpmath.mpf(z)))
    assert residual <= residual_bound(z)


@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
def test_residual_property(z):
    w = w0(z)
    assert abs(w * math.exp(w) - z) <= RESIDUAL_TOL * max(z, 1.0)
    assert w >= 0.0


@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=1e-6, max_value=20.0, allow_nan=False))
def test_round_trip_property(w_true):
    z = w_true * math.exp(w_true)
    assert abs(w0(z) - w_true) <= 1e-13 * w_true
