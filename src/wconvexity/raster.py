"""Region raster over a (p, q) window: CSV data contract plus an SVG map.

The CSV is the machine-readable artifact, the SVG a fixed 800x800 visual.
A raster keeps each p-column as class runs over the q axis; both writers
format each p and q once, emit each run as one string join and write one
p-column at a time, so no more than one column's text is ever held.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

from ._checks import finite
from .theory import ConvexityClass, c_of_p, classify

__all__ = ["RegionRaster", "build_raster", "write_csv", "write_svg"]

COLOR_CONVEX = "#2b6cb0"
COLOR_CONCAVE = "#dd6b20"
COLOR_NEITHER = "#e2e8f0"
COLOR_CURVE = "#111111"

# Keyed by label in legend order: a member's _value_ is a plain attribute,
# while hashing the member or reading .value runs Python code on each lookup.
_FILL = {
    ConvexityClass.STRICTLY_CONVEX.value: COLOR_CONVEX,
    ConvexityClass.STRICTLY_CONCAVE.value: COLOR_CONCAVE,
    ConvexityClass.NEITHER.value: COLOR_NEITHER,
}

# 2,000 x 2,000.  The writers hold one column's text at a time (1.4 MiB of
# tracemalloc at the cap), so it bounds the files: 35 MB CSV, 72 MB SVG per 1M cells.
_MAX_CELLS = 4_000_000
_BUFFER = 1 << 16  # bytes per write call: by default, column-sized writes go out 8 KiB at a time

_SIZE = 800
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 24, 60
# An axis gets integer tick labels only while it spans at most this many
# integers: 706 px hold 20 labels, and one label per integer of a [0, 1e6]
# window would be 2.2M elements.
_MAX_TICKS = 20


@dataclass(frozen=True)
class RegionRaster:
    """Classification of every lattice point of a closed (p, q) window.

    ``columns[i]`` is p = ``ps[i]``'s class runs ``(cls, start, stop)`` over
    ``qs``, in q order.
    """

    p_min: float
    p_max: float
    q_min: float
    q_max: float
    step: float
    ps: tuple
    qs: tuple
    columns: tuple


def _axis_size(lo, hi, step):
    n = (hi - lo) / step + 1e-9
    return math.floor(n) + 1 if n < math.inf else n


def _axis(lo, hi, step):
    values = [lo + i * step for i in range(_axis_size(lo, hi, step))]
    # Snap the last lattice point onto the window edge when it belongs there.
    if abs(values[-1] - hi) <= 1e-9 * max(1.0, abs(hi)):
        values[-1] = hi
    return values


def _ticks(lo, hi):
    # The integers in [lo, hi], or none when there are more than _MAX_TICKS.
    first, last = math.ceil(lo), math.floor(hi)
    return range(first, last + 1) if last - first < _MAX_TICKS else ()


def _column(p, qs):
    # One p-column, one class run at a time: classify the run's first q, then
    # bisect the rest of the axis for the first q of another class.
    runs, start = [], 0
    while start < len(qs):
        cls = classify(p, qs[start])
        end = bisect_left(qs, True, start + 1, key=lambda q: classify(p, q) is not cls)
        runs.append((cls, start, end))
        start = end
    return tuple(runs)


def build_raster(p_min, p_max, q_min, q_max, step):
    """Classify the closed lattice, both endpoints in; ValueError past 4,000,000 cells.

    ``classify`` is the only rule: the cells are those it gives at every
    lattice point, but it is called only at the probes of a bisection.
    By the main theorem, at a fixed p the class changes only at q = p (for
    p <= -1 or p > 0), at q = 1 - 2*sqrt(-p) (for -1 < p < 0), or at q = 0
    and q = 1 (for p = 0), and never returns to a class it left; so along
    the non-decreasing q axis each column is at most three runs.  Each run
    takes one call at its first q and one bisection for its end.  That is
    exact because ``classify`` decides each boundary exactly for the
    doubles it is given, the curve included, and -0.0 like 0.0.
    """
    p_min, p_max, q_min, q_max, step = (
        finite(v, "raster window and step") for v in (p_min, p_max, q_min, q_max, step)
    )
    if p_min > p_max or q_min > q_max:
        raise ValueError("raster window must satisfy p_min <= p_max and q_min <= q_max")
    if step <= 0.0:
        raise ValueError("step must be > 0")
    # The SVG divides by each axis's extent padded by half a step; it must be a positive double.
    half = step / 2.0
    for extent in ((p_max + half) - (p_min - half), (q_max + half) - (q_min - half)):
        if extent == math.inf:
            raise ValueError("raster window width passes the double range")
        if extent == 0.0:
            raise ValueError("raster step is below the resolution of the window's doubles")
    n_cells = _axis_size(p_min, p_max, step) * _axis_size(q_min, q_max, step)
    if n_cells > _MAX_CELLS:
        count = f"{n_cells:,}" if n_cells < math.inf else f"more than {_MAX_CELLS:,}"
        raise ValueError(f"raster of {count} cells exceeds the limit of {_MAX_CELLS:,}")
    ps, qs = tuple(_axis(p_min, p_max, step)), tuple(_axis(q_min, q_max, step))
    columns = tuple(_column(p, qs) for p in ps)
    return RegionRaster(p_min, p_max, q_min, q_max, step, ps, qs, columns)


def write_csv(raster, path):
    """Write the cells to ``path`` as UTF-8 CSV with "\\n" line ends.

    The header ``p,q,class``, then one row per cell in cell order: p and q
    as their shortest round-trip repr (a zero keeps its sign) and the class
    label.  The text ends with a newline.  A run's rows are one join, and
    each p-column is one write.
    """
    qs = [repr(q) for q in raster.qs]
    tails = {label: [f"{q},{label}" for q in qs] for label in _FILL}
    with open(path, "w", _BUFFER, encoding="utf-8", newline="\n") as handle:
        handle.write("p,q,class\n")
        for p, runs in zip(raster.ps, raster.columns):
            head = repr(p) + ","
            handle.write("".join([head + ("\n" + head).join(tails[cls._value_][a:b]) + "\n" for cls, a, b in runs]))


def write_svg(raster, path):
    """Write the 800x800 region map to ``path`` as UTF-8 SVG, one element a line.

    A white background, then one rect per cell in cell order, its position
    and size to two decimals and its fill the class colour; then the curve
    q = 1 - 2*sqrt(-p) over the part of -1 < p < 0 in the plot (when at
    least two of its 257 points lie in it), the frame, integer ticks (on an
    axis that spans at most _MAX_TICKS integers), the axis labels and the
    legend.  The bytes depend only on the window, the step and the cells;
    the text ends with a newline.  Each run of a column is one join of its
    rects' middles (y to height), built once per distinct width, and each
    p-column is one write.
    """
    half = raster.step / 2.0
    x_lo, x_hi = raster.p_min - half, raster.p_max + half
    y_lo, y_hi = raster.q_min - half, raster.q_max + half
    plot_w = _SIZE - _MARGIN_L - _MARGIN_R
    plot_h = _SIZE - _MARGIN_T - _MARGIN_B

    def sx(p):
        return _MARGIN_L + (p - x_lo) / (x_hi - x_lo) * plot_w

    def sy(q):
        return _MARGIN_T + (y_hi - q) / (y_hi - y_lo) * plot_h

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
    ]
    # x and width depend on p alone, y and height on q alone: format each once.
    ys = [f"{sy(q + half):.2f}" for q in raster.qs]
    hs = [f"{sy(q - half) - sy(q + half):.2f}" for q in raster.qs]
    posts = {label: f'" fill="{color}"/>' for label, color in _FILL.items()}
    middles = {}  # per distinct width string: each q's rect text from y to height
    out = []  # after the rects: the curve, frame, ticks, axis labels and legend
    curve_lo, curve_hi = max(x_lo, -1.0), min(x_hi, 0.0)
    if curve_lo < curve_hi:
        curve_ps = [curve_lo + (curve_hi - curve_lo) * i / 256 for i in range(257)]
        pts = [f"{sx(p):.2f},{sy(q):.2f}" for p, q in zip(curve_ps, map(c_of_p, curve_ps)) if y_lo <= q <= y_hi]
        if len(pts) >= 2:
            out.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{COLOR_CURVE}" stroke-width="2"/>'
            )
    # Frame and axis ticks at integers, while they are few.
    out.append(
        f'<rect x="{sx(x_lo):.2f}" y="{sy(y_hi):.2f}" '
        f'width="{sx(x_hi) - sx(x_lo):.2f}" height="{sy(y_lo) - sy(y_hi):.2f}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        out.append(
            f'<text x="{sx(t):.2f}" y="{_SIZE - _MARGIN_B + 22}" font-size="14" '
            f'text-anchor="middle" fill="#333333">{t}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        out.append(
            f'<text x="{_MARGIN_L - 10}" y="{sy(t) + 5:.2f}" font-size="14" '
            f'text-anchor="end" fill="#333333">{t}</text>'
        )
    out.append(
        f'<text x="{(_MARGIN_L + _SIZE - _MARGIN_R) / 2:.2f}" y="{_SIZE - 14}" '
        f'font-size="16" text-anchor="middle" fill="#111111">p</text>'
    )
    out.append(
        f'<text x="20" y="{(_MARGIN_T + _SIZE - _MARGIN_B) / 2:.2f}" font-size="16" '
        f'text-anchor="middle" fill="#111111" '
        f'transform="rotate(-90 20 {(_MARGIN_T + _SIZE - _MARGIN_B) / 2:.2f})">q</text>'
    )
    lx = _SIZE - _MARGIN_R - 150
    for i, (label, color) in enumerate(_FILL.items()):
        ly = _MARGIN_T + 12 + 24 * i
        out.append(
            f'<rect x="{lx}" y="{ly}" width="18" height="18" fill="{color}" '
            f'stroke="#333333" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{lx + 26}" y="{ly + 14}" font-size="14" fill="#111111">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", _BUFFER, encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(head) + "\n")
        for p, runs in zip(raster.ps, raster.columns):
            x0, x1 = sx(p - half), sx(p + half)
            pre, width = f'<rect x="{x0:.2f}" y="', f"{x1 - x0:.2f}"
            if width not in middles:
                middles[width] = [f'{y}" width="{width}" height="{h}' for y, h in zip(ys, hs)]
            column, mids = [], middles[width]
            for cls, a, b in runs:
                post = posts[cls._value_]
                column.append(pre + (post + "\n" + pre).join(mids[a:b]) + post + "\n")
            handle.write("".join(column))
        handle.write("\n".join(out) + "\n")
