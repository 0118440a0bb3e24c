"""Two-argument Hoelder (power) means with a stable geometric-mean limit.

holder_mean(p, r, s) = ((r**p + s**p) / 2) ** (1/p) for p != 0 and
sqrt(r*s) at p = 0.  Small nonzero orders go through an exact cosh form
around the geometric mean where |p ln(r/s)| < 2, extreme exponents
through log space with the dominant argument factored out, so the mean
stays finite and accurate over the whole double range.
"""

import numpy as np

from ._checks import finite, like, positive

__all__ = ["holder_mean", "quartic_harmonic_form"]

# The direct formula amplifies base rounding by about 1/|p|; on the sampling
# window it loses to the cosh form below |p| ~ 0.04 (2.1e-11 against 3e-16
# relative at 1e-5).  With d = log(r/s) the mean is exactly sqrt(r*s) *
# cosh(p*d/2)**(1/p); log cosh(2u) = log1p(2*sinh(u)**2) avoids cancellation.
_SMALL_P = 0.03
# |p * log(arg)| beyond this over/underflows r**p in double precision.
_EXPONENT_GUARD = 700.0
_TINY = float(np.finfo(np.float64).tiny)


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

    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        if abs(p) < _SMALL_P:
            # sqrt(r*s) where the product stays in the normal double range (it
            # is exact for exact products like 2*8), split sqrt otherwise.
            prod = rr * ss
            normal = (prod >= _TINY) & np.isfinite(prod)
            out = np.where(normal, np.sqrt(prod), np.sqrt(rr) * np.sqrt(ss))
            if p:
                # d = ln(r/s) rounds r/s once where that stays normal.  The mean then carries
                # eps * |d| / 2 and the direct form eps / |p|, which it takes past |p * d| = 2.
                ratio = rr / ss
                d = np.where((ratio >= _TINY) & np.isfinite(ratio), np.log(ratio), np.log(rr) - np.log(ss))
                out = out * np.exp(np.log1p(2.0 * np.sinh(p * d / 4.0) ** 2) / p)
                out = np.where(abs(p * d) < 2.0, out, ((rr**p + ss**p) / 2.0) ** (1.0 / p))
        else:
            out = ((rr**p + ss**p) / 2.0) ** (1.0 / p)
            # ln is monotone, so the larger of |p ln r|, |p ln s| is |p| * max(-ln lo, ln hi).
            # The batch's extremes bound it; the elementwise test runs only when that bound
            # passes the guard less a 1e-9 margin, which covers a few ulp of log.
            bound = abs(p) * max(-np.log(lo.min(initial=np.inf)), np.log(hi.max(initial=0.0)))
            if bound > _EXPONENT_GUARD * (1 - 1e-9):
                use_stable = abs(p) * np.maximum(-np.log(lo), np.log(hi)) > _EXPONENT_GUARD
                # Factor out the dominant argument: base * ((1 + t) / 2)**(1/p)
                # with t = (lo/hi)**|p| <= 1 keeps a few ulp for any |ln H|.
                # An overflowing hi / lo gives the limit base * 2**(-1/p).
                base = hi if p > 0.0 else lo
                log_half_sum = np.log1p(np.expm1(-abs(p) * np.log(hi / lo)) / 2.0)
                out = np.where(use_stable, base * np.exp(log_half_sum / p), out)

    # Equal arguments give lo == hi, so the clamp returns them exactly.
    return like(np.minimum(np.maximum(out, lo), hi), r, s)


def quartic_harmonic_form(x, y):
    """(2 * (x*y)**(1/4) / (x**(1/4) + y**(1/4))) ** 4 for positive x, y.

    Algebraically this is the power mean of order -1/4 (the harmonic mean
    of the fourth roots, raised back to the fourth power); it is kept as a
    separate closed form so the two routes can cross-check each other.
    Clamped like holder_mean, so equal arguments are returned exactly.
    """
    xx, yy = positive(x, "x"), positive(y, "y")
    a, b = np.sqrt(np.sqrt(xx)), np.sqrt(np.sqrt(yy))
    g = 2.0 * a * b / (a + b)
    gg = g * g
    return like(np.minimum(np.maximum(gg * gg, np.minimum(xx, yy)), np.maximum(xx, yy)), x, y)
