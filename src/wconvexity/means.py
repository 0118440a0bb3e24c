"""Two-argument Hoelder (power) means with a stable geometric-mean limit.

holder_mean(p, r, s) = ((r**p + s**p) / 2) ** (1/p) for p != 0 and
sqrt(r*s) at p = 0.  Tiny nonzero orders go through an exact cosh form
around the geometric mean, extreme exponents through log space with the
dominant argument factored out, so the mean stays finite and accurate over
the whole double range.
"""

import numpy as np

from ._checks import finite, like, positive

__all__ = ["holder_mean", "quartic_harmonic_form"]

# Below this |p| the direct formula amplifies base rounding by 1/p past
# 1e-10 relative.  With d = log(r/s) the mean is exactly sqrt(r*s) *
# cosh(p*d/2)**(1/p); log cosh(2u) = log1p(2*sinh(u)**2) avoids cancellation.
_SMALL_P = 1e-5
# |p * log(arg)| beyond this over/underflows r**p in double precision.
_EXPONENT_GUARD = 700.0
_TINY = float(np.finfo(np.float64).tiny)


def _geometric(rr, ss):
    # sqrt(r*s) where the product stays in the normal double range (it is
    # exact for exact products like 2*8), split sqrt otherwise.
    with np.errstate(over="ignore", under="ignore"):
        prod = rr * ss
    normal = (prod >= _TINY) & np.isfinite(prod)
    return np.where(normal, np.sqrt(np.where(normal, prod, 1.0)), np.sqrt(rr) * np.sqrt(ss))


def holder_mean(p, r, s):
    """Power mean of order p of two positive reals.

    Symmetric in (r, s), equal arguments are returned exactly, and the
    result is clamped into [min(r, s), max(r, s)].  p must be finite;
    r and s must be positive and finite (scalars or arrays).
    """
    p = finite(p, "order p")
    # Contiguous because NumPy's power can round strided input differently;
    # contiguous arguments are used as they are, without a copy.
    rr, ss = map(np.ascontiguousarray, np.broadcast_arrays(positive(r, "r"), positive(s, "s")))
    lo, hi = np.minimum(rr, ss), np.maximum(rr, ss)

    if p == 0.0:
        out = _geometric(rr, ss)
    elif abs(p) < _SMALL_P:
        d = np.log(rr) - np.log(ss)
        out = _geometric(rr, ss) * np.exp(np.log1p(2.0 * np.sinh(p * d / 4.0) ** 2) / p)
    else:
        # |p ln r| or |p ln s| beyond the guard; ln is monotone, so the larger
        # of the two is |p| * max(-ln lo, ln hi).
        use_stable = abs(p) * np.maximum(-np.log(lo), np.log(hi)) > _EXPONENT_GUARD
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = ((rr**p + ss**p) / 2.0) ** (1.0 / p)
            if use_stable.any():
                # Factor out the dominant argument: base * ((1 + t) / 2)**(1/p)
                # with t = (lo/hi)**|p| <= 1 keeps a few ulp for any |ln H|.
                # An overflowing hi / lo gives the limit base * 2**(-1/p).
                base = hi if p > 0.0 else lo
                log_half_sum = np.log1p(np.expm1(-abs(p) * np.log(hi / lo)) / 2.0)
                out = np.where(use_stable, base * np.exp(log_half_sum / p), out)

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
