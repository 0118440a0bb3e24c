"""Principal branch of the Lambert W function on [0, +inf).

The kernel refines a piecewise initial guess with six Halley steps on the
defining residual w * e**w - z, then returns whichever of the result and its
two neighbouring doubles minimises that residual, choosing by strict < in the
order w, lower, upper.  Each stage works only where a bit can still change:
each guess formula runs on its own branch's elements, steps four to six run
only on the elements that step three moved (an unmoved iterate is a fixed
point, so the rest would repeat it), and the neighbours are the bit pattern
-1 and +1.  No step looks at other elements, so w0 is elementwise: a value
never depends on its batch.  This keeps |w0(z) * e**w0(z) - z| within
2e-15 * max(z, 1) across the verified envelope [0, 1e9], bar rare z in
[1e8, 1e9] where the polish keeps a neighbour of the best double (up to 1.008
times the bound); the w >= 16 band nearly exhausts that budget because the
spacing of representable w values alone contributes ~1.9e-15 * z.  Past
z ~ 2.5e15 (w >= 32) double spacing exceeds the envelope and accuracy degrades
gracefully to ~1 ulp of w.

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
# Steps up to this one run on every element, later ones only on the elements
# it moved; 1 <= _SETTLE_STEPS < _STEPS, so both stages always run.  It
# leaves 85.9% of the 500,000 coordinates of sample_pairs(42, 0, 250_000)
# bit-for-bit unmoved (step two 5.2%, step four 95.7%).
_SETTLE_STEPS = 3
_CONVERGED_REL = 8e-16
# Near the root the Halley denominator e**w * (w + 1) is about z * (1 + 1/w),
# which overflows only for z above ~1.795e308; below this bound it cannot.
_OVERFLOW_FREE = 1e308


def residual_bound(z):
    """Absolute tolerance on w * e**w - z that the kernel guarantees at z."""
    return RESIDUAL_TOL * np.maximum(z, 1.0)


def _initial_guess(z):
    # z < 1: w ~ z.  z >= e**2: two-term asymptotic with first correction.
    # In between: linear interpolation of the two edge values.  Each formula
    # runs only on the elements of its own branch.
    out = np.minimum(z, 1.0)
    mid = np.flatnonzero((z >= 1.0) & (z < _E_SQ))
    out[mid] = 1.0 + (z[mid] - 1.0) / (_E_SQ - 1.0) * (_GUESS_AT_E_SQ - 1.0)
    big = np.flatnonzero(z >= _E_SQ)
    lz = np.log(z[big])
    llz = np.log(lz)
    out[big] = lz - llz + llz / lz
    return out


def _halley_steps(z, w, count, near_max):
    # count Halley steps for f(w) = w*e**w - z on w in place, through one
    # (4, n) block of temporaries, freed on return; under glibc that keeps
    # later batch-sized temporaries on the heap, not faulted in anew.
    # Returns the elements that the last step moved, and that step.
    block = np.empty((4, w.size))
    ew, f, wp1, t = block
    for i in range(count):
        if i:
            w -= step
        np.multiply(w, np.exp(w, out=ew), out=f)
        f -= z
        np.add(w, 1.0, out=wp1)
        np.multiply(np.add(w, 2.0, out=t), f, out=t)
        t /= 2.0 * wp1
        denom = np.multiply(ew, wp1, out=ew)
        denom -= t
        step = np.divide(f, denom, out=f)
        if near_max:
            # Where e**w * (w + 1) overflows, take the same step divided
            # through by e**w.  Only there: elsewhere it rounds differently.
            fs = w - z * np.exp(-w)
            scaled = fs / (wp1 - (w + 2.0) * fs / (2.0 * wp1))
            step = np.where(np.isfinite(denom), step, scaled)
    new = np.subtract(w, step, out=ew)
    moved = np.flatnonzero(new.view(np.int64) != w.view(np.int64))
    w[moved] = new[moved]
    return moved, step


def _halley(z, w):
    # Halley iteration; cubic convergence from the guesses above.  A fixed
    # count, so no element waits on another.  An element that step
    # _SETTLE_STEPS leaves bit-for-bit unmoved is a fixed point: each later
    # step starts from the same (w, z) and repeats that step.  So only the
    # elements it moved take the remaining steps, gathered into contiguous
    # arrays, and only their last step is checked: a NaN or infinite step
    # moves a finite w, so an unmoved one took at most half an ulp of w.
    near_max = z.max(initial=0.0) > _OVERFLOW_FREE
    w = w.copy()
    moved = _halley_steps(z, w, _SETTLE_STEPS, near_max)[0]
    last = w[moved]
    step = _halley_steps(z[moved], last, _STEPS - _SETTLE_STEPS, near_max)[1]
    w[moved] = last
    if not np.all(np.abs(step) <= _CONVERGED_REL * np.abs(last) + 5e-324):
        raise RuntimeError("Halley iteration for w0 did not converge")
    return w


def _polish(z, w):
    # The final iterate is within one double of the best one: keep the least
    # residual of w and its bit neighbours -1 and +1 by strict < in the order
    # w, lower, upper, so a tie keeps the earlier.  fmin and < pass over the
    # NaN below +-0, and Halley returns +-0 only for z = +-0, with its sign,
    # so no neighbour beats that exact 0.  The largest double + 1 is inf.
    bits = w.view(np.int64)
    lo, hi = (bits - 1).view(np.float64), (bits + 1).view(np.float64)
    best, r_lo = np.abs(w * np.exp(w) - z), np.abs(lo * np.exp(lo) - z)
    w, best = np.where(r_lo < best, lo, w), np.fmin(r_lo, best)
    return np.where(np.abs(hi * np.exp(hi) - z) < best, hi, w)


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

    Positive and strictly decreasing on (0, inf).  Divides by z last:
    z * (W(z) + 1) overflows near the largest double, where W' is subnormal.
    """
    arr = positive(z, "z")
    w = w0(arr)
    return like((w / (w + 1.0)) / arr, z)
