"""Slope diagnostics and the (p, q) convexity classification of Lambert W.

Whether W carries the order-p power mean of its arguments above or below
the order-q power mean of its values is decided by the monotonicity of

    g_pq(r) = W(r)**q / (r**p * (W(r) + 1)),

whose logarithmic derivative is (q - h_p(r)) / (r * (W(r) + 1)) with

    h_p(r) = p * (W(r) + 1) + W(r) / (W(r) + 1).

For -1 < p < 0 the function h_p attains an interior maximum c_of_p(p) =
1 - 2*sqrt(-p); that curve is the boundary between "strictly convex" and
"neither" in the (p, q) plane.  classify() folds all of this into a
three-way verdict.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import finite, like, positive
from .lambert import w0
from .means import _EXPONENT_GUARD

__all__ = [
    "ConvexityClass",
    "HpqParams",
    "c_of_p",
    "classify",
    "f1",
    "g_pq",
    "h_p",
    "h_p_argmax",
]

# Stay inside the normal double range; past these exp() would lose meaning.
_LN_MAX = math.log(np.finfo(np.float64).max)
_LN_TINY = math.log(np.finfo(np.float64).tiny)


class ConvexityClass(Enum):
    """Three-way verdict for a (p, q) pair; .value is the CLI/CSV label."""

    STRICTLY_CONVEX = "convex"
    STRICTLY_CONCAVE = "concave"
    NEITHER = "neither"


@dataclass(frozen=True)
class HpqParams:
    """A point of the (p, q) classification plane."""

    p: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "p", finite(self.p, "p"))
        object.__setattr__(self, "q", finite(self.q, "q"))


def _h(p, w):
    # h_p at w = W(r); takes w so a caller that holds a table of W skips w0.
    wp1 = w + 1.0
    return p * wp1 + w / wp1


def h_p(p, r):
    """p * (W(r) + 1) + W(r) / (W(r) + 1) for r > 0.

    Tends to p as r -> 0+; strictly increasing for p >= 0, strictly
    decreasing for p <= -1, and for -1 < p < 0 rises to the interior
    maximum c_of_p(p) before falling to -inf.  Values past the double
    range raise OverflowError instead of returning +-inf.
    """
    p = finite(p, "p")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _h(p, np.asarray(w0(positive(r, "r"))))
    if not np.all(np.isfinite(values)):
        raise OverflowError("h_p leaves the double range")
    return like(values, r)


def f1(r):
    """-1 / (W(r) + 1)**2: the r-independent part of the slope of h_p.

    Strictly increasing from -1 toward 0; h_p'(r) = w0_prime(r) * (p - f1(r)).
    """
    wp1 = np.asarray(w0(positive(r, "r"))) + 1.0
    return like(-1.0 / (wp1 * wp1), r)


def _ln_g(p, q, ln_r, ln_w, ln1p_w):
    # (q * ln W(r), p * ln r, ln g_pq(r)) from ln r, ln W(r) and log1p W(r),
    # so a caller that holds a table of them takes no log.
    a = q * ln_w
    b = p * ln_r
    return a, b, a - b - ln1p_w


def g_pq(p, q, r):
    """W(r)**q / (r**p * (W(r) + 1)) for r > 0.

    Always positive; its logarithmic derivative is
    (q - h_p(r)) / (r * (W(r) + 1)).  Values outside the normal double
    range raise OverflowError instead of returning inf, 0 or nan.
    """
    p = finite(p, "p")
    q = finite(q, "q")
    # Contiguous because NumPy's power can round strided input differently.
    arr = np.ascontiguousarray(positive(r, "r"))
    w = np.asarray(w0(arr))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        a, b, ln_val = _ln_g(p, q, np.log(arr), np.log(w), np.log1p(w))
        # NaN fails this too: it arises as inf - inf at extreme orders.
        if not np.all((ln_val >= _LN_TINY) & (ln_val <= _LN_MAX)):
            raise OverflowError("g_pq leaves the normal double range")
        direct = w**q / (arr**p * (w + 1.0))
    safe = (np.abs(a) < _EXPONENT_GUARD) & (np.abs(b) < _EXPONENT_GUARD) & np.isfinite(direct)
    return like(np.where(safe, direct, np.exp(ln_val)), r)


def c_of_p(p):
    """Boundary curve 1 - 2*sqrt(-p) on -1 <= p <= 0.

    Strictly increasing from -1 to 1; also the maximum value of h_p when
    -1 < p < 0.
    """
    p = float(p)
    if not (-1.0 <= p <= 0.0):
        raise ValueError("c_of_p requires -1 <= p <= 0")
    return 1.0 - 2.0 * math.sqrt(-p)


def h_p_argmax(p):
    """The r in (0, inf) maximising h_p, for -1 < p < 0.

    At the maximiser W(r) + 1 = 1/sqrt(-p), i.e. r = (z-1)*e**(z-1) with
    z = 1/sqrt(-p), and h_p there equals c_of_p(p).  Raises OverflowError
    where r passes the largest double, for p above about -2.02e-6.
    """
    p = float(p)
    if not (-1.0 < p < 0.0):
        raise ValueError("h_p_argmax requires -1 < p < 0")
    u = 1.0 / math.sqrt(-p) - 1.0
    r = u * math.exp(min(u, _LN_MAX))  # finite exp; a u past _LN_MAX makes r inf
    if r == math.inf:
        raise OverflowError(f"h_p_argmax at p={p} passes the largest double")
    return r


def classify(p, q):
    """Three-way convexity verdict of W for the pair (p, q).

    Strictly convex when p <= -1 and q >= p, or -1 < p <= 0 and
    q >= c_of_p(p); strictly concave when p >= 0 and q <= p; otherwise
    neither direction holds on all of (0, inf).  Region boundaries are
    inclusive on the convex/concave side.
    """
    p = finite(p, "p")
    q = finite(q, "q")
    if p <= -1.0:
        return ConvexityClass.STRICTLY_CONVEX if q >= p else ConvexityClass.NEITHER
    if p <= 0.0:
        # Exactly q >= 1 - 2*sqrt(-p): q >= 1 or (1 - q)**2 <= -4p, in q = n/d, p = m/e.
        (n, d), (m, e) = q.as_integer_ratio(), p.as_integer_ratio()
        if q >= 1.0 or (d - n) ** 2 * e <= -4 * m * d * d:
            return ConvexityClass.STRICTLY_CONVEX
        if p == 0.0 and q <= 0.0:
            return ConvexityClass.STRICTLY_CONCAVE
        return ConvexityClass.NEITHER
    return ConvexityClass.STRICTLY_CONCAVE if q <= p else ConvexityClass.NEITHER
