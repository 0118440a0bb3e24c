"""Argument checks and scalar-or-array result shaping shared by the modules."""

import math

import numpy as np


def finite(value, name):
    """value as a float; ValueError for NaN or infinity.

    Pure Python on purpose: it checks scalars, e.g. at each classify() probe of a raster.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def integer(value, name, lo, hi):
    """value as an int in [lo, hi); ValueError unless a whole number (Python or NumPy) in range."""
    if not isinstance(value, (int, np.integer)) and not float(value).is_integer():
        raise ValueError(f"{name} must be an integer")
    if not lo <= int(value) < hi:
        raise ValueError(f"{name} must be >= {lo} and < {hi}")
    return int(value)


def positive(value, name, allow_zero=False):
    """value as a float64 array; ValueError unless finite and > 0 (>= 0 with allow_zero).

    Decided by min and max, which propagate NaN, with no boolean temporary.
    """
    arr = np.asarray(value, dtype=np.float64)
    low, high = arr.min(initial=np.inf), arr.max(initial=-np.inf)
    if not (-np.inf < low and high < np.inf):
        raise ValueError(f"{name} must be finite (got NaN or infinity)")
    if allow_zero:
        if low < 0.0:
            raise ValueError(f"{name} must be >= 0")
    elif low <= 0.0:
        raise ValueError(f"{name} must be > 0")
    return arr


def like(out, *args):
    """out as a float when every argument is a scalar, else in their broadcast shape."""
    shape = np.broadcast(*args).shape
    if shape == ():
        return float(np.ravel(out)[0])
    return out.reshape(shape)
