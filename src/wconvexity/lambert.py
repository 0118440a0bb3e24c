"""Principal branch of the Lambert W function on [0, +inf).

The kernel refines a piecewise initial guess with six Halley steps on the
defining residual w * e**w - z, then returns whichever of the result and its
two neighbouring doubles minimises that residual.  No step looks at other
elements, so w0 is elementwise: a value never depends on its batch.  This
keeps |w0(z) * e**w0(z) - z| within 2e-15 * max(z, 1) across the verified
envelope [0, 1e9], bar rare z in [1e8, 1e9] where the polish keeps a
neighbour of the best double (up to 1.008 times the bound); the w >= 16 band
nearly exhausts that budget because the spacing of representable w values
alone contributes ~1.9e-15 * z.  Past z ~ 2.5e15 (w >= 32) double spacing
exceeds the envelope and accuracy degrades gracefully to ~1 ulp of w.

All functions are pure and reentrant; they accept scalars or arrays and
return matching shapes.
"""

import numpy as np

from ._checks import like, positive

__all__ = ["w0", "w0_prime"]

# Residual envelope: a few ulps at double precision, scaled by max(z, 1).
RESIDUAL_TOL = 2e-15

_E_SQ = float(np.exp(2.0))
_LN2 = float(np.log(2.0))
# Value of the large-z guess log z - log log z + log log z / log z at z = e**2.
_GUESS_AT_E_SQ = 2.0 - _LN2 + 0.5 * _LN2
# Near the root the iterate can alternate between two neighbouring doubles;
# every even count from six on polishes to the same double (four does not,
# e.g. at z = 0.29835963).  The sixth step stays below ~4.7e-16 * |w|.
_STEPS = 6
_CONVERGED_REL = 8e-16
# Near the root the Halley denominator e**w * (w + 1) is about z * (1 + 1/w),
# which overflows only for z above ~1.795e308; below this bound it cannot.
_OVERFLOW_FREE = 1e308


def residual_bound(z):
    """Absolute tolerance on w * e**w - z that the kernel guarantees at z."""
    return RESIDUAL_TOL * np.maximum(z, 1.0)


def _initial_guess(z):
    # z < 1: w ~ z.  z >= e**2: two-term asymptotic with first correction.
    # In between: linear interpolation of the two edge values.
    out = np.where(z < 1.0, z, 1.0)
    mid = (z >= 1.0) & (z < _E_SQ)
    if np.any(mid):
        frac = (z - 1.0) / (_E_SQ - 1.0)
        out = np.where(mid, 1.0 + frac * (_GUESS_AT_E_SQ - 1.0), out)
    big = z >= _E_SQ
    if np.any(big):
        lz = np.log(np.where(big, z, _E_SQ))
        llz = np.log(lz)
        out = np.where(big, lz - llz + llz / lz, out)
    return out


def _halley(z, w):
    # Halley iteration for f(w) = w*e**w - z; cubic convergence from the
    # guesses above.  A fixed count, so no element waits on another.
    near_max = z.max(initial=0.0) > _OVERFLOW_FREE
    for _ in range(_STEPS):
        ew = np.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        if near_max:
            # Where e**w * (w + 1) overflows, take the same step divided
            # through by e**w.  Only there: elsewhere it rounds differently.
            fs = w - z * np.exp(-w)
            scaled = fs / (wp1 - (w + 2.0) * fs / (2.0 * wp1))
            step = np.where(np.isfinite(denom), step, scaled)
        w = w - step
    if not np.all(np.abs(step) <= _CONVERGED_REL * np.abs(w) + 5e-324):
        raise RuntimeError("Halley iteration for w0 did not converge")
    return w


def _polish(z, w):
    # Scan w and its two neighbouring doubles, keep the smallest residual:
    # the final iterate is within one double of the best one.  Ordering
    # puts w first so exact solutions (e.g. z = 0) survive ties.
    cand = np.stack((w, np.nextafter(w, -np.inf), np.nextafter(w, np.inf)))
    resid = np.abs(cand * np.exp(cand) - z)
    return cand[resid.argmin(axis=0), np.arange(w.size)]


def w0(z):
    """Principal-branch Lambert W: the unique w >= 0 with w * e**w = z.

    Accepts z >= 0 (scalar or array, finite); w0(0) is exactly 0 and the
    map is strictly increasing.  Raises ValueError for negative, NaN or
    infinite input.
    """
    flat = np.atleast_1d(positive(z, "z", allow_zero=True)).ravel()
    # Near the double maximum w * e**w overflows to inf in the Halley step
    # and the polish; both handle that, so the warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        w = _polish(flat, _halley(flat, _initial_guess(flat)))
    return like(w, z)


def w0_prime(z):
    """Derivative of w0: W(z) / (z * (W(z) + 1)), for z > 0.

    Positive and strictly decreasing on (0, inf).
    """
    arr = positive(z, "z")
    w = w0(arr)
    return like(w / (arr * (w + 1.0)), z)
