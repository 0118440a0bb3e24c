"""Raster tests: pinned digests, a per-cell classifier and a per-cell formatter.

`build_raster` classifies each p-column one class run at a time, bisecting
for each run's end, and keeps the runs as q-ranges; the per-cell reference
below calls `classify` at every lattice point, so any window where the two
differ in one cell fails here.  `write_csv` and `write_svg` format each p and
q once, emit each run as one string join (the SVG's from per-q middles built
once per column width) and write one p-column at a time.  The reference
below classifies every lattice point of the raster's axes itself and formats
each cell on its own, one f-string per row or rect, so any window where the
writers differ from it by one byte, or the runs by one cell, fails here.
"""

import dataclasses
import hashlib
import math
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import PINNED, raster_cells
from wconvexity import raster
from wconvexity.cli import run
from wconvexity.theory import ConvexityClass, classify

# The default `raster --svg` outputs at step 0.05, as pinned by perfbench.
DEFAULT_DIGESTS = PINNED["raster --window -3.0 3.0 -3.0 3.0 --step 0.05 --out {csv} --svg {svg}"]

_REFERENCE_FILL = {
    ConvexityClass.STRICTLY_CONVEX: raster.COLOR_CONVEX,
    ConvexityClass.STRICTLY_CONCAVE: raster.COLOR_CONCAVE,
    ConvexityClass.NEITHER: raster.COLOR_NEITHER,
}


def reference_cells(r):
    # classify at every point of the raster's axes: the runs are not read.
    return [(p, q, classify(p, q)) for p in r.ps for q in r.qs]


def reference_csv(r):
    lines = ["p,q,class"]
    lines.extend(f"{p!r},{q!r},{cls.value}" for p, q, cls in reference_cells(r))
    return ("\n".join(lines) + "\n").encode()


def reference_rects(r):
    half = r.step / 2.0
    x_lo, x_hi = r.p_min - half, r.p_max + half
    y_lo, y_hi = r.q_min - half, r.q_max + half
    plot_w = raster._SIZE - raster._MARGIN_L - raster._MARGIN_R
    plot_h = raster._SIZE - raster._MARGIN_T - raster._MARGIN_B

    def sx(p):
        return raster._MARGIN_L + (p - x_lo) / (x_hi - x_lo) * plot_w

    def sy(q):
        return raster._MARGIN_T + (y_hi - q) / (y_hi - y_lo) * plot_h

    rects = []
    for p, q, cls in reference_cells(r):
        x = sx(p - half)
        y = sy(q + half)
        w = sx(p + half) - x
        h = sy(q - half) - y
        rects.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{_REFERENCE_FILL[cls]}"/>'
        )
    return rects


def reference_svg(r, tmp_path):
    # Everything but the cell rects depends on the window and step alone; the
    # rects follow the background rect (the second line).
    frame = tmp_path / "frame.svg"
    raster.write_svg(dataclasses.replace(r, ps=(), qs=(), columns=()), frame)
    lines = frame.read_bytes().decode().split("\n")
    return "\n".join(lines[:2] + reference_rects(r) + lines[2:]).encode()


def assert_matches_reference(r, tmp_path):
    csv_path, svg_path = tmp_path / "map.csv", tmp_path / "map.svg"
    raster.write_csv(r, csv_path)
    raster.write_svg(r, svg_path)
    assert csv_path.read_bytes() == reference_csv(r)
    assert svg_path.read_bytes() == reference_svg(r, tmp_path)


def test_default_outputs_are_pinned(tmp_path, capsys):
    csv_path, svg_path = tmp_path / "map.csv", tmp_path / "map.svg"
    assert run(["raster", "--out", str(csv_path), "--svg", str(svg_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == DEFAULT_DIGESTS["csv"]
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == DEFAULT_DIGESTS["svg"]


# The default window shifted by whole steps, as perfbench rotates it.
SHIFTED = [
    ((-3.0 + sp * 0.25, 3.0 + sp * 0.25, -3.0 + sq * 0.25, 3.0 + sq * 0.25), 0.25)
    for sp in (-10, -5, 0, 5, 10)
    for sq in (-10, -5, 0, 5, 10)
]


@pytest.mark.parametrize("window, step", SHIFTED + [((-1.2, 0.4, -2.0, 1.5), 0.1)])
def test_outputs_match_the_per_cell_reference(tmp_path, window, step):
    assert_matches_reference(raster.build_raster(*window, step), tmp_path)


def test_columns_of_two_widths_match_the_per_cell_reference(tmp_path):
    # 16 columns share 706 px: 44.125 each, so widths read 44.12 and 44.13,
    # and write_svg joins y to height once for each.
    r = raster.build_raster(-3.0, 3.0, -1.0, 1.0, 0.4)
    assert_matches_reference(r, tmp_path)
    rects = (tmp_path / "map.svg").read_text().splitlines()[2 : 2 + len(r.ps) * len(r.qs)]
    assert len({re.search(r' width="([^"]*)"', rect)[1] for rect in rects}) >= 2


def test_the_writers_memory_does_not_grow_with_the_cells(tmp_path):
    # 251,001 cells: writers that held each document whole peaked at
    # 51.9 MiB here; streamed, 0.42 MiB (a column's text plus the file buffer).
    tracemalloc.start()
    try:
        r = raster.build_raster(-3.0, 3.0, -3.0, 3.0, 0.012)
        raster.write_csv(r, tmp_path / "map.csv")
        raster.write_svg(r, tmp_path / "map.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(r.ps) * len(r.qs) == 251_001
    assert peak < 2 * 2**20


def test_signed_zero_window_keeps_both_zeros(tmp_path, capsys):
    # p_max = -0.0 is snapped onto the last p; q passes through +0.0.
    csv_path, svg_path = tmp_path / "map.csv", tmp_path / "map.svg"
    argv = ["raster", "--window", "-1", "-0.0", "-1", "1", "--step", "0.5"]
    assert run(argv + ["--out", str(csv_path), "--svg", str(svg_path)]) == 0
    capsys.readouterr()
    r = raster.build_raster(-1.0, -0.0, -1.0, 1.0, 0.5)
    rows = csv_path.read_text().splitlines()
    assert "-0.0,0.0,concave" in rows
    assert "-0.5,0.0,convex" in rows
    assert csv_path.read_bytes() == reference_csv(r)
    assert svg_path.read_bytes() == reference_svg(r, tmp_path)


def test_zeros_of_both_signs_within_one_axis(tmp_path):
    # Axes that are not lattices, so each cell is a run of its own.
    ps = (0.0, -0.5, -0.0, 0.5, -0.0)
    qs = (-0.0, 1.0, 0.0)
    columns = tuple(tuple((classify(p, q), i, i + 1) for i, q in enumerate(qs)) for p in ps)
    r = raster.RegionRaster(
        p_min=-0.5, p_max=0.5, q_min=-0.0, q_max=1.0, step=0.5, ps=ps, qs=qs, columns=columns
    )
    assert_matches_reference(r, tmp_path)
    points = [row.rsplit(",", 1)[0] for row in (tmp_path / "map.csv").read_text().splitlines()]
    assert points[1:4] == ["0.0,-0.0", "0.0,1.0", "0.0,0.0"]
    assert points[7:10] == ["-0.0,-0.0", "-0.0,1.0", "-0.0,0.0"]


def per_cell_reference(p_min, p_max, q_min, q_max, step):
    qs = raster._axis(q_min, q_max, step)
    return tuple((p, q, classify(p, q)) for p in raster._axis(p_min, p_max, step) for q in qs)


def assert_classified_per_cell(window, step):
    r = raster.build_raster(*window, step)
    want = per_cell_reference(*window, step)
    got = raster_cells(r)
    assert got == want
    assert repr(got) == repr(want)  # signed zeros too
    return r


@pytest.mark.parametrize(
    "window, step",
    [
        ((-0.5, 0.5, -1.0, 2.0), 0.25),  # p = 0: concave, neither, convex
        ((-1.5, -0.5, -2.0, 1.0), 0.25),  # p = -1, where C(p) = p
        ((-1.0, -0.0, -1.0, 1.0), 0.5),  # p = -0.0 snapped onto the window edge
        ((-0.5, 0.0, -0.0, 1.0), 0.25),  # q axis from -0.0
        ((-0.25, -0.25, -1.0, 1.0), 0.25),  # on the curve at (-0.25, 0.0)
        ((-0.0625, -0.0625, 0.0, 1.0), 0.0625),  # on the curve at (-0.0625, 0.5)
        ((0.3, 0.3, 0.2, 0.2), 1.0),  # one cell
        ((1.0, 2.0, -3.0, 0.0), 0.5),  # inside one class (concave)
        ((-1.3, 0.45, -2.2, 1.7), 0.3),  # a step that does not divide the window
    ],
)
def test_build_raster_equals_per_cell_classify(window, step):
    assert_classified_per_cell(window, step)


# Window edges and steps that land lattice points on the boundaries, or not.
_EDGES = st.one_of(st.sampled_from([-1.0, -0.25, -0.0625, -0.0, 0.0]), st.floats(-4.0, 4.0))
_STEPS = st.one_of(st.sampled_from([0.0625, 0.05, 0.25]), st.floats(1e-3, 1.0))


@settings(deadline=None, max_examples=200)
@given(_STEPS, _EDGES, st.floats(0.0, 30.0), _EDGES, st.floats(0.0, 60.0))
def test_build_raster_equals_per_cell_classify_on_drawn_windows(tmp_path_factory, step, p_min, p_cells, q_min, q_cells):
    r = assert_classified_per_cell((p_min, p_min + p_cells * step, q_min, q_min + q_cells * step), step)
    # The main theorem: along q a column changes class at most twice and
    # never returns to a class it left.
    for runs in r.columns:
        classes = [cls for cls, _, _ in runs]
        assert len(classes) <= 3 and len(set(classes)) == len(classes)
    assert_matches_reference(r, tmp_path_factory.mktemp("drawn"))


# Window edges at the curve's ends -1 and 0, their neighbouring doubles and subnormals, or anywhere.
_CURVE_EDGES = st.one_of(
    st.sampled_from([-1.0, math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0), -0.0, 0.0, -5e-324, 5e-324]),
    st.floats(-2.0, 1.0),
)


@settings(deadline=None, max_examples=300)
@given(_CURVE_EDGES, _CURVE_EDGES, st.one_of(st.just(5e-324), st.floats(1e-9, 0.5)))
def test_the_curve_is_drawn_for_every_window_that_meets_its_p_range(tmp_path_factory, a, b, step):
    # c_of_p refuses any p outside [-1, 0], and the curve's 257 points take no
    # clamp.  Half of a 5e-324 step is 0, so the window's edges are the plot's.
    # The q range holds the whole curve, so every point is drawn.
    p_min, p_max = sorted((a, b))
    half = step / 2.0
    assume(max(p_min - half, -1.0) < min(p_max + half, 0.0))
    path = tmp_path_factory.getbasetemp() / "curve.svg"
    raster.write_svg(raster.RegionRaster(p_min, p_max, -1.0, 1.0, step, (), (), ()), path)
    (curve,) = [line for line in path.read_text().splitlines() if line.startswith("<polyline ")]
    assert curve.count(",") == 257


@pytest.mark.parametrize(
    "shift, calls",
    [((0, 0), 1_677), ((10, -10), 1_525), ((-10, 10), 1_592)],
)
def test_default_window_classifies_by_bisection(monkeypatch, shift, calls):
    # The first q of each class run plus one bisection for its end, per
    # p-column; the per-cell build made 14,641 calls on each of these windows.
    counted, real_classify = [], classify
    monkeypatch.setattr(raster, "classify", lambda p, q: counted.append(None) or real_classify(p, q))
    sp, sq = (0.05 * k for k in shift)
    r = raster.build_raster(-3.0 + sp, 3.0 + sp, -3.0 + sq, 3.0 + sq, 0.05)
    assert len(raster_cells(r)) == 14_641
    assert len(counted) == calls < 2_000


@pytest.mark.parametrize("window", [(1.0, -1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, -1.0)], ids=["p", "q"])
def test_an_inverted_window_is_refused(window):
    with pytest.raises(ValueError, match="^raster window must satisfy p_min <= p_max and q_min <= q_max$"):
        raster.build_raster(*window, 0.5)


@pytest.mark.parametrize("step", [1e-9, 5e-324])
def test_a_raster_past_the_cell_cap_is_refused_before_it_is_built(step):
    # 6e9 + 1 points per axis at 1e-9; at 5e-324 the count leaves the doubles.
    with pytest.raises(ValueError, match="cells exceeds the limit"):
        raster.build_raster(-3.0, 3.0, -3.0, 3.0, step)


def test_a_raster_whose_cell_count_leaves_the_doubles_states_no_count():
    # 1e300 / 1e-10 lattice points along p overflow to inf, which the message must not print.
    with pytest.raises(ValueError, match="cells exceeds the limit") as err:
        raster.build_raster(0.0, 1e300, 0.0, 1.0, 1e-10)
    cap = f"{raster._MAX_CELLS:,}"
    assert str(err.value) == f"raster of more than {cap} cells exceeds the limit of {cap}"
    assert "inf" not in str(err.value)


# Three lattice points along the wide axis, but hi - lo overflows to inf; or
# one point, but the half-step padding of the plot overflows.
@pytest.mark.parametrize(
    "window, step",
    [
        ((-1e308, 1e308, 0.0, 0.0), 1e308),
        ((0.0, 0.0, -1e308, 1e308), 1e308),
        ((1.7e308, 1.7e308, 0.0, 0.0), 1.7e308),
        ((0.0, 0.0, 1.7e308, 1.7e308), 1.7e308),
    ],
    ids=["p", "q", "p-padded", "q-padded"],
)
def test_a_window_wider_than_the_doubles_is_refused_for_its_width(window, step):
    with pytest.raises(ValueError, match="^raster window width passes the double range$"):
        raster.build_raster(*window, step)


# Half a step is lost against the window's edges, so the plot's extent rounds to zero.
@pytest.mark.parametrize(
    "window, step",
    [((1.0, 3.0, 1e300, 1e300), 0.5), ((1e308, 1e308, -3.0, 0.0), 1e6), ((1.0, 1.0, 2.0, 2.0), 1e-300)],
    ids=["q", "p", "both"],
)
def test_a_step_below_the_windows_resolution_is_refused(window, step):
    with pytest.raises(ValueError, match="^raster step is below the resolution of the window's doubles$"):
        raster.build_raster(*window, step)


@pytest.mark.parametrize(
    "window, step", [((0.0, 1e6, 0.0, 1e6), 1e5), ((0.0, 1e300, 0.0, 1.0), 1e299)], ids=["1e6", "1e300"]
)
def test_tick_labels_are_bounded_on_a_wide_window(tmp_path, window, step):
    # Two axis labels and three legend labels, plus at most _MAX_TICKS ticks
    # per axis; one label per integer would be 2.2M <text> elements here.
    path = tmp_path / "map.svg"
    raster.write_svg(raster.build_raster(*window, step), path)
    assert path.read_text().count("<text") <= 2 * raster._MAX_TICKS + 5


def test_integer_tick_labels_keep_every_digit(tmp_path):
    # Formatted with {t:g}, all six p labels read 1e+06.
    path = tmp_path / "map.svg"
    raster.write_svg(raster.build_raster(1e6, 1e6 + 5, 0.0, 1.0, 0.5), path)
    svg = path.read_text()
    p_labels = re.findall(f'y="{raster._SIZE - raster._MARGIN_B + 22}" [^>]*>([^<]*)</text>', svg)
    q_labels = re.findall(r'text-anchor="end" [^>]*>([^<]*)</text>', svg)
    assert p_labels == [str(t) for t in range(1_000_000, 1_000_006)]
    assert q_labels == ["0", "1"]


def test_the_cell_cap_admits_a_raster_of_exactly_its_size(monkeypatch):
    monkeypatch.setattr(raster, "_MAX_CELLS", 9)
    assert len(raster_cells(raster.build_raster(0.0, 1.0, 0.0, 1.0, 0.5))) == 9
    monkeypatch.setattr(raster, "_MAX_CELLS", 8)
    with pytest.raises(ValueError, match="^raster of 9 cells"):
        raster.build_raster(0.0, 1.0, 0.0, 1.0, 0.5)
