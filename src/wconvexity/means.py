"""Two-argument Hoelder (power) means with a stable geometric-mean limit.

holder_mean(p, r, s) = ((r**p + s**p) / 2) ** (1/p) for p != 0 and
sqrt(r*s) at p = 0.  Tiny nonzero orders go through a second-order
expansion around the geometric mean, extreme exponents through log space,
so the mean stays finite and accurate over the whole double range.
"""

import numpy as np

from ._checks import finite, like, positive

__all__ = ["holder_mean", "quartic_harmonic_form"]

# Below this |p| the direct formula amplifies base rounding by 1/p past
# 1e-10 relative; the expansion sqrt(r*s) * exp(p * log(r/s)**2 / 8) has
# an O(p**3 * log(r/s)**4) error, negligible there.
_SMALL_P = 1e-5
# |p * log(arg)| beyond this over/underflows r**p in double precision.
_EXPONENT_GUARD = 700.0
_LN2 = float(np.log(2.0))
_TINY = float(np.finfo(np.float64).tiny)


def _geometric(rr, ss):
    # sqrt(r*s) where the product stays in the normal double range (it is
    # exact for exact products like 2*8), split sqrt otherwise.
    with np.errstate(over="ignore", under="ignore"):
        prod = rr * ss
    fused = np.sqrt(np.where((prod >= _TINY) & np.isfinite(prod), prod, 1.0))
    return np.where((prod >= _TINY) & np.isfinite(prod), fused, np.sqrt(rr) * np.sqrt(ss))


def holder_mean(p, r, s):
    """Power mean of order p of two positive reals.

    Symmetric in (r, s), equal arguments are returned exactly, and the
    result is clamped into [min(r, s), max(r, s)].  p must be finite;
    r and s must be positive and finite (scalars or arrays).
    """
    p = finite(p, "order p")
    rr, ss = np.broadcast_arrays(positive(r, "r"), positive(s, "s"))
    rr = np.atleast_1d(rr).astype(np.float64)
    ss = np.atleast_1d(ss).astype(np.float64)

    if p == 0.0:
        out = _geometric(rr, ss)
    elif abs(p) < _SMALL_P:
        d = np.log(rr) - np.log(ss)
        out = _geometric(rr, ss) * np.exp(p * d * d / 8.0)
    else:
        a = p * np.log(rr)
        b = p * np.log(ss)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            direct = ((rr**p + ss**p) / 2.0) ** (1.0 / p)
            stable = np.exp((np.logaddexp(a, b) - _LN2) / p)
        use_stable = (np.abs(a) > _EXPONENT_GUARD) | (np.abs(b) > _EXPONENT_GUARD)
        out = np.where(use_stable, stable, direct)

    lo = np.minimum(rr, ss)
    hi = np.maximum(rr, ss)
    out = np.minimum(np.maximum(out, lo), hi)
    return like(np.where(rr == ss, rr, out), r, s)


def quartic_harmonic_form(x, y):
    """(2 * (x*y)**(1/4) / (x**(1/4) + y**(1/4))) ** 4 for positive x, y.

    Algebraically this is the power mean of order -1/4 (the harmonic mean
    of the fourth roots, raised back to the fourth power); it is kept as a
    separate closed form so the two routes can cross-check each other.
    """
    a = np.sqrt(np.sqrt(positive(x, "x")))
    b = np.sqrt(np.sqrt(positive(y, "y")))
    g = 2.0 * a * b / (a + b)
    gg = g * g
    return like(gg * gg, x, y)
