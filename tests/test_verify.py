"""Verifier tests: sampling, region reports, counterexamples, lemma checks."""

import dataclasses
import functools
import itertools
import json
import math
import re
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wconvexity import lambert, theory, verify
from wconvexity.raster import build_raster
from wconvexity.theory import ConvexityClass, HpqParams, _ln_g, classify, h_p
from wconvexity.verify import (
    GRID_AXIS,
    G_LEMMA_FIXTURES,
    H_LEMMA_FIXTURES,
    NEITHER_FIXTURES,
    SAMPLE_DOMAIN,
    ComparisonRecord,
    CounterexamplePair,
    SearchExhaustedError,
    _WORST_KEPT,
    _Part,
    _compare,
    _merge_parts,
    _refine,
    _scan,
    _scan_part,
    _top_k,
    check_chain,
    check_g_lemma,
    check_h_lemma,
    compare_at,
    find_counterexamples,
    sample_pairs,
    significance_threshold,
    verify_region,
)

CONVEX = ConvexityClass.STRICTLY_CONVEX
CONCAVE = ConvexityClass.STRICTLY_CONCAVE
NEITHER = ConvexityClass.NEITHER


# ---------------------------------------------------------------- sampling


def test_sample_pairs_in_domain_and_deterministic():
    x1, y1 = sample_pairs(42, 0, 5_000)
    x2, y2 = sample_pairs(42, 0, 5_000)
    lo, hi = SAMPLE_DOMAIN
    assert np.all((x1 >= lo) & (x1 < hi)) and np.all((y1 >= lo) & (y1 < hi))
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_sample_pairs_chunk_independent():
    x, y = sample_pairs(7, 0, 1_000)
    xa, ya = sample_pairs(7, 0, 400)
    xb, yb = sample_pairs(7, 400, 600)
    assert np.array_equal(x, np.concatenate([xa, xb]))
    assert np.array_equal(y, np.concatenate([ya, yb]))


def test_sample_pairs_seed_sensitivity():
    x1, _ = sample_pairs(1, 0, 100)
    x2, _ = sample_pairs(2, 0, 100)
    assert not np.array_equal(x1, x2)


def test_seed_validation():
    with pytest.raises(ValueError):
        sample_pairs(-1, 0, 10)
    with pytest.raises(ValueError):
        sample_pairs(2**64, 0, 10)
    sample_pairs(2**64 - 1, 0, 10)  # max seed is valid


@pytest.mark.parametrize("start,count", [(-1, 10), (0, -1)])
def test_sample_pairs_rejects_negative_range(start, count):
    with pytest.raises(ValueError):
        sample_pairs(42, start, count)


def test_sample_indices_stay_below_2_to_the_63():
    # Counter positions are 2i modulo 2**64: index 2**63 would replay index 0.
    for start, count in [(2**63, 1), (2**63 - 1, 2), (0, 2**63 + 1), (2**64 - 1, 2)]:
        with pytest.raises(ValueError):
            sample_pairs(1, start, count)
    x, y = sample_pairs(1, 2**63 - 1, 1)
    assert x.size == y.size == 1 and not np.array_equal(x, sample_pairs(1, 0, 1)[0])


@pytest.mark.parametrize("seed,start,count", [(7.8, 0, 3), (1, 0.5, 3), (1, 0, 2.5), (1, 0, math.nan)])
def test_sample_pairs_rejects_non_integral_arguments(seed, start, count):
    with pytest.raises(ValueError):
        sample_pairs(seed, start, count)


def test_integral_arguments_of_any_integer_type_are_accepted():
    x, y = sample_pairs(7, 0, 5)
    for seed, start, count in [(np.uint64(7), np.int64(0), np.int32(5)), (7.0, 0.0, 5.0)]:
        xs, ys = sample_pairs(seed, start, count)
        assert np.array_equal(xs, x) and np.array_equal(ys, y)
    report = verify_region((2.0, 1.0), np.int64(100), np.uint64(7))
    assert report.to_json() == verify_region((2.0, 1.0), 100, 7).to_json()
    assert type(report.n_samples) is int and type(report.seed) is int
    # Orders come out as floats, whatever type the caller passes.
    for cell, floats in [
        ((2, 1), (2.0, 1.0)),
        ((np.int64(2), 1), (2.0, 1.0)),
        ((np.float32(2), np.int8(1)), (2.0, 1.0)),
        ((True, 1), (1.0, 1.0)),
    ]:
        report = verify_region(cell, 100, 7)
        assert report.to_json() == verify_region(floats, 100, 7).to_json()
        assert type(report.params.p) is float and type(report.params.q) is float
    pair = find_counterexamples((2, 3), 10_000, 42)
    assert pair == find_counterexamples((2.0, 3.0), 10_000, 42)
    assert type(pair.violates_convexity.p) is float and type(pair.violates_concavity.q) is float


def _mass_above(r):
    # The log-uniform share of SAMPLE_DOMAIN above radius r.
    lo, hi = SAMPLE_DOMAIN
    return math.log(hi / r) / math.log(hi / lo)


def _turning_radius(p, q):
    # With u = W(r) + 1, q - h_p(r) = Q(u) / u for Q(u) = -p u**2 + (q - 1) u + 1,
    # so g_pq turns at the roots u* > 1 of Q, at radius r* = (u* - 1) e**(u* - 1).
    # The largest such r* (inf past the doubles), or None when Q has no root above 1.
    roots = np.roots([-p, q - 1.0, 1.0])
    u = roots.real[(roots.imag == 0.0) & (roots.real > 1.0)]
    with np.errstate(over="ignore"):
        return max((u - 1.0) * np.exp(u - 1.0)) if u.size else None


def test_sample_domain_clears_every_turning_radius():
    radii = {}
    for p in GRID_AXIS:
        for q in GRID_AXIS:
            if classify(p, q) is not NEITHER:
                continue
            radii[p, q] = _turning_radius(p, q)
            assert radii[p, q] is not None, (p, q)
    lo, hi = SAMPLE_DOMAIN
    assert all(lo < r < hi for r in radii.values())
    widest = max(radii, key=radii.get)
    assert widest == (-0.1, -3.0)
    assert radii[widest] == pytest.approx(2.61e18, rel=1e-3)
    # At least 10% of each coordinate's mass lies beyond the widest radius.
    assert _mass_above(radii[widest]) >= 0.10
    assert _mass_above(radii[widest]) == pytest.approx(0.128, abs=1e-3)


@pytest.mark.parametrize("q, ln_radius", [(-0.05, 108), (-1.0, 204), (-3.0, 405)])
def test_a_turning_radius_past_the_window_shows_one_sign(q, ln_radius):
    # The documented limit of SAMPLE_DOMAIN: these "neither" cells turn past its
    # upper edge, so every sampled gap that counts is positive.
    assert round(math.log(_turning_radius(-0.01, q))) == ln_radius
    report = verify_region((-0.01, q))
    assert (report.n_gap_positive, report.n_gap_negative, report.verdict) == (10_000, 0, "fail")
    with pytest.raises(SearchExhaustedError, match="no significant negative gap"):
        find_counterexamples((-0.01, q))


# ---------------------------------------------------------------- compare_at


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
def test_equal_arguments_gap_is_zero(p, q, x):
    rec = compare_at(p, q, x, x)
    assert abs(rec.gap) <= 1e-13 * max(rec.lhs, 1.0)


def test_compare_at_directions():
    assert compare_at(-1.0, -1.0, 1.0, math.e).gap < 0.0
    assert compare_at(1.0, 1.0, 1.0, math.e).gap > 0.0


def test_compare_at_record_contents():
    rec = compare_at(0.5, -0.5, 2.0, 3.0)
    assert (rec.x, rec.y, rec.p, rec.q) == (2.0, 3.0, 0.5, -0.5)
    assert rec.gap == rec.lhs - rec.rhs
    assert rec.lhs > 0.0 and rec.rhs > 0.0


@pytest.mark.parametrize(
    "x,y,error",
    [
        ([1.5, 100.0], [7.0, 0.01], TypeError),
        (np.array([1.5, 100.0]), 7.0, TypeError),
        ([], [], TypeError),
        (math.nan, 7.0, ValueError),
        (1.5, math.inf, ValueError),
    ],
)
def test_compare_at_takes_one_finite_point(x, y, error):
    with pytest.raises(error):
        compare_at(2.0, 3.0, x, y)


@pytest.mark.parametrize(
    "args,message",
    [
        ((1.0, math.nan, 1.0, 2.0), "q must be finite"),
        ((math.inf, 1.0, 1.0, 2.0), "p must be finite"),
        ((-0.5, -1.0, -1.0, 2.0), "x must be > 0"),
        ((-0.5, -1.0, 2.0, 0.0), "y must be > 0"),
    ],
    ids=["1.0-nan-q", "inf-1.0-p", "negative-x", "zero-y"],
)
def test_compare_at_names_the_order_that_is_not_finite(args, message):
    # Every argument is checked under its own name, before any work.
    with pytest.raises(ValueError, match=f"^{message}"):
        compare_at(*args)


# ---------------------------------------------------------------- verify_region


def test_verify_region_convex_example():
    rep = verify_region(HpqParams(-1.0, -1.0), 100_000, 42)
    assert rep.verdict == "pass"
    assert rep.n_gap_positive == 0


def test_verify_region_concave_example():
    for seed in (42, 7, 12345):
        rep = verify_region(HpqParams(1.0, 1.0), 100_000, seed)
        assert rep.verdict == "pass"
        assert rep.n_gap_negative == 0


def test_verify_region_small_order_concave_cell():
    # At orders this small the direct power form of holder_mean rounds to
    # about 1e-11 relative, past the tie threshold: it gives one sample the
    # gap -1.61e-10 where the exact gap is +2.03e-10.
    rep = verify_region(HpqParams(2e-5, 2e-5), 100_000, 42)
    assert rep.expected is CONCAVE
    assert rep.n_gap_negative == 0
    assert rep.verdict == "pass"


def test_verify_region_neither_example():
    rep = verify_region(HpqParams(0.0, 0.5), 100_000, 7)
    assert rep.verdict == "pass"
    assert rep.n_gap_positive > 0 and rep.n_gap_negative > 0


def test_verify_region_deterministic():
    a = verify_region(HpqParams(0.0, 0.5), 10_000, 9)
    b = verify_region(HpqParams(0.0, 0.5), 10_000, 9)
    assert a == b


def test_verify_region_report_invariants():
    rep = verify_region(HpqParams(-0.5, -1.0), 20_000, 3)
    assert rep.n_gap_positive + rep.n_gap_negative <= rep.n_samples
    assert rep.n_samples == 20_000
    assert len(rep.worst_records) <= 10
    assert all(r.gap == r.lhs - r.rhs for r in rep.worst_records)
    assert rep.max_abs_gap >= max(abs(r.gap) for r in rep.worst_records)


def test_verify_region_soundness_on_grid_light():
    for p in GRID_AXIS:
        for q in GRID_AXIS:
            rep = verify_region(HpqParams(p, q), 2_000, 42)
            assert rep.verdict == "pass", (p, q, rep)


# One representative (p, q, verdict) per proof case of the classification.
CASE_FIXTURES = (
    (2.0, 1.0, ConvexityClass.STRICTLY_CONCAVE),
    (1.0, -1.0, ConvexityClass.STRICTLY_CONCAVE),
    (2.0, 3.0, ConvexityClass.NEITHER),
    (-1.0, -1.0, ConvexityClass.STRICTLY_CONVEX),
    (-2.0, 1.0, ConvexityClass.STRICTLY_CONVEX),
    (-2.0, -3.0, ConvexityClass.NEITHER),
    (-0.5, -0.25, ConvexityClass.STRICTLY_CONVEX),
    (-0.25, 1.0, ConvexityClass.STRICTLY_CONVEX),
    (-0.5, -1.0, ConvexityClass.NEITHER),
    (1.0, 0.0, ConvexityClass.STRICTLY_CONCAVE),
    (-1.5, 0.0, ConvexityClass.STRICTLY_CONVEX),
    (-0.25, 0.0, ConvexityClass.STRICTLY_CONVEX),
    (-0.1, 0.0, ConvexityClass.NEITHER),
    (0.0, 1.0, ConvexityClass.STRICTLY_CONVEX),
    (0.0, -1.0, ConvexityClass.STRICTLY_CONCAVE),
    (0.0, 0.5, ConvexityClass.NEITHER),
    (0.0, 0.0, ConvexityClass.STRICTLY_CONCAVE),
)


@pytest.mark.parametrize("p,q,expected", CASE_FIXTURES)
def test_verify_region_case_fixtures(p, q, expected):
    rep = verify_region(HpqParams(p, q), 5_000, 11)
    assert rep.expected is expected
    assert rep.verdict == "pass"


def test_partitioned_scan_merges_to_single_pass():
    def merge(a, b):
        return list(map(_merge_parts, a, b))

    for ps, qs in (((0.0,), (0.5,)), ((0.0, -0.5), (0.5, -1.0))):
        cells = tuple(itertools.product(ps, qs))
        full = _scan_part(cells, 9, 0, 10_000)
        parts = [
            _scan_part(cells, 9, 0, 3_333),
            _scan_part(cells, 9, 3_333, 3_333),
            _scan_part(cells, 9, 6_666, 3_334),
        ]
        left = merge(merge(parts[0], parts[1]), parts[2])
        right = merge(parts[0], merge(parts[1], parts[2]))
        assert left == full
        assert right == full


# Cell lists the grid never makes: a diagonal, a repeated p, a repeated q,
# an unordered list with a repeated cell, and the four "neither" fixtures.
CELL_LISTS = [
    ((-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)),
    ((0.0, 0.5), (0.0, -1.0), (0.0, 2.0)),
    ((-2.0, 0.5), (0.0, 0.5), (2.0, 0.5)),
    ((1.0, -1.0), (-0.5, 0.25), (1.0, 0.25), (-0.5, -1.0), (1.0, -1.0)),
    NEITHER_FIXTURES,
]


@pytest.mark.parametrize("cells", CELL_LISTS, ids=["diagonal", "same-p", "same-q", "unordered", "neither"])
def test_scan_over_a_cell_list_equals_per_cell_scans(cells):
    parts, extremes = _scan_part(cells, 9, 0, 5_000), _scan_part(cells, 9, 0, 5_000, "extremes")
    for whole, records in ((parts, True), (extremes, "extremes")):
        assert whole == [_scan_part((cell,), 9, 0, 5_000, records)[0] for cell in cells]
    # Every mode counts exactly the signs the others do.
    counts = [_Part(part.positive, part.negative, (), (), ()) for part in parts]
    assert counts == [_Part(part.positive, part.negative, (), (), ()) for part in extremes]
    for records, expected in ((True, parts), (False, counts), ("extremes", extremes)):
        pieces = [_scan_part(cells, 9, start, 1_250, records) for start in range(0, 5_000, 1_250)]
        left = pieces[0]
        for piece in pieces[1:]:
            left = list(map(_merge_parts, left, piece))
        right = pieces[-1]
        for piece in reversed(pieces[:-1]):
            right = list(map(_merge_parts, piece, right))
        assert left == right == expected


@pytest.mark.parametrize("chunk", [1_000, None])
def test_each_record_mode_builds_only_what_its_callers_read(monkeypatch, chunk):
    # verify_region reads worst and the searches read top and bottom: a True
    # part holds no witness and an "extremes" part no worst record, merged or not.
    if chunk is not None:
        monkeypatch.setattr(verify, "_CHUNK", chunk)
    for part in _scan(NEITHER_FIXTURES, 5_000, 42):
        assert len(part.worst) == _WORST_KEPT and part.top == part.bottom == ()
    for part in _scan(NEITHER_FIXTURES, 5_000, 42, "extremes"):
        assert part.worst == () and len(part.top) == len(part.bottom) == 1


def _scan_peak_bytes(cells, count):
    tracemalloc.start()
    try:
        _scan_part(cells, 42, 0, count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_drops_columns_after_their_last_cell():
    # Four cells share W(x) and W(y) and need four W(H_p) and four H_q
    # columns.  Made just in time and dropped after their last cell, they
    # cost under one column more than a one-cell scan (0.89); a scan that
    # kept every column costs 6.9, one that made every H_q column first 3.0.
    count = 65_536
    _scan_part(NEITHER_FIXTURES, 42, 0, count)  # first-call allocations
    extra = _scan_peak_bytes(NEITHER_FIXTURES, count) - _scan_peak_bytes(NEITHER_FIXTURES[:1], count)
    assert extra / (8 * count) < 2


def test_scan_memory_does_not_grow_with_the_sample_count(monkeypatch):
    # 2**28 samples are 8,192 chunks on two workers.  With _scan_part stubbed,
    # only the scan's queue and merge allocate: queuing every chunk up front
    # and keeping every piece to the end peaked at 13.1 MiB.
    empty = [_Part(0, 0, (), (), ())]
    monkeypatch.setattr(verify, "_workers", lambda: 2)
    monkeypatch.setattr(verify, "_scan_part", lambda *args: empty)
    tracemalloc.start()
    try:
        assert _scan(((0.0, 0.5),), 2**28, 42) == empty
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# 450 samples at _CHUNK = 7 are 65 chunks: more than one queue of 64.
@pytest.mark.parametrize("chunk,n", [(7, 50), (7, 450), (None, 1_000), (None, 70_000)])
def test_grid_reports_equal_per_cell_reports(monkeypatch, chunk, n):
    # One scan of a grid gives each cell the part that a scan of it alone
    # gives, and so the counts and records of its verify_region report;
    # the grid's counts-only scan, which selftest grades, the same counts.
    if chunk is not None:
        monkeypatch.setattr(verify, "_CHUNK", chunk)
    cells = tuple(itertools.product((-0.5, 0.0, 1.0), (-1.0, 0.25, 1.0)))
    parts, counts = _scan(cells, n, 42), _scan(cells, n, 42, records=False)
    for cell, part, count in zip(cells, parts, counts, strict=True):
        assert _scan((cell,), n, 42) == [part]
        assert count == _Part(part.positive, part.negative, (), (), ())
        report = verify_region(HpqParams(*cell), n, 42)
        assert (report.n_gap_positive, report.n_gap_negative) == (part.positive, part.negative)
        assert report.worst_records == part.worst


@pytest.mark.parametrize("chunk,n,chunks", [(None, 1_000, 1), (7, 20, 3)])
def test_w0_calls_per_chunk(monkeypatch, chunk, n, chunks):
    if chunk is not None:
        monkeypatch.setattr(verify, "_CHUNK", chunk)
    calls, real_w0 = [], verify.w0
    monkeypatch.setattr(verify, "w0", lambda z: calls.append(np.size(z)) or real_w0(z))
    _scan(tuple(itertools.product(GRID_AXIS, GRID_AXIS)), n, 42, records=False)
    assert len(calls) == 13 * chunks  # W(H_p) per p, then W(x) and W(y)
    calls.clear()
    verify_region(HpqParams(-0.5, -1.0), n, 42)
    assert len(calls) == 3 * chunks
    calls.clear()
    compare_at(-0.5, -1.0, 2.0, 3.0)
    assert calls == [3]
    calls.clear()
    points, real_compare_at = [], verify.compare_at
    monkeypatch.setattr(verify, "compare_at", lambda *a: points.append(a) or real_compare_at(*a))
    find_counterexamples(HpqParams(-0.5, -1.0), n, 42)
    assert len(calls) == 3 * chunks + 10  # the scan, then one polish of 10 _compare calls
    assert points == []
    calls.clear()
    verify._witnesses(NEITHER_FIXTURES, _scan(NEITHER_FIXTURES, n, 42, "extremes"), n)
    assert len(calls) == 6 * chunks + 10  # W(H_p) per cell, W(x), W(y); one lockstep polish
    assert points == []


# 1 and 3 samples make one-chunk heads and tails.  At _CHUNK = 7, 100 samples
# make a head of 15 chunks and a tail that starts mid-chunk (1,000 took 9 s,
# 40,000 would take minutes); at the default _CHUNK, 40,000 samples make a
# head of two chunks and a tail that starts mid-chunk.
@pytest.mark.parametrize(
    "chunk,samples",
    [(7, 1), (7, 3), (7, 100), (None, 1), (None, 3), (None, 1_000), (None, 40_000)],
)
def test_selftest_head_and_tail_scans_equal_whole_scans(monkeypatch, chunk, samples):
    # The region labels' counts are the grid's own scan's, and the merged
    # search parts that the witness step gets are a whole "extremes" scan's.
    if chunk is not None:
        monkeypatch.setattr(verify, "_CHUNK", chunk)
    searched, real_witnesses = [], verify._witnesses

    def witnesses(cells, parts, budget):
        searched.extend(parts)
        return real_witnesses(cells, searched, budget)

    monkeypatch.setattr(verify, "_witnesses", witnesses)
    region = re.compile(r"region .*: (\d+) pos / (\d+) neg")
    labels = [label for _, label in verify._selftest_checks(samples, 42, False)]
    counts = [tuple(map(int, m.groups())) for m in map(region.match, labels) if m]
    grid = tuple(itertools.product(GRID_AXIS, GRID_AXIS))
    assert counts == [(part.positive, part.negative) for part in _scan(grid, samples, 42, records=False)]
    assert searched == _scan(NEITHER_FIXTURES, 10 * samples, 42, "extremes")


def test_selftest_shares_the_grid_scan_with_the_searches(monkeypatch):
    # The searches' first 10,000 samples come from the grid's one-chunk scan:
    # 13 w0 calls for the grid and the four search cells, 6 per tail chunk,
    # 10 for the polish and 8 for the chain (55 calls over 776,100 elements
    # and 140 holder_mean calls over 1,054,067 when the searches scanned
    # all 100,000 samples on their own).  The head scans the 123 distinct
    # cells once ((-2, -3) and (-0.5, -1) are grid and search cells), and each
    # of the three tail chunks the four search cells: 135 _cell_part calls.
    calls = {"w0": [], "holder_mean": [], "_cell_part": []}

    def traced(real, sizes):
        # The last argument is the batch: z of w0, s of holder_mean(p, r, s); a mode of _cell_part.
        return lambda *args: sizes.append(np.size(args[-1])) or real(*args)

    for name, sizes in calls.items():
        monkeypatch.setattr(verify, name, traced(getattr(verify, name), sizes))
    assert all(ok for ok, _ in verify._selftest_checks(10_000, 42, False))
    assert (len(calls["w0"]), sum(calls["w0"])) == (49, 716_100)
    assert (len(calls["holder_mean"]), sum(calls["holder_mean"])) == (134, 994_067)
    assert len(calls["_cell_part"]) == 135


@pytest.mark.parametrize(
    "cell,seed,chunk,n",
    [
        ((0.0, 0.5), 9, 1, 300),
        ((0.0, 0.5), 9, 7, 3_000),
        ((0.0, 0.5), 9, 4096, 10_000),
        ((-0.5, -1.0), 42, 16, 20_000),
    ],
    ids=["1-300", "7-3000", "4096-10000", "neither-seed42-16-20000"],
)
def test_chunk_size_does_not_change_results(monkeypatch, cell, seed, chunk, n):
    params = HpqParams(*cell)
    expected = (
        verify_region(params, n, seed),
        find_counterexamples(params, n, seed),
    )
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    assert verify_region(params, n, seed) == expected[0]
    assert find_counterexamples(params, n, seed) == expected[1]


def _scan_on(monkeypatch, workers, w0):
    # Reports and witnesses of 200-sample scans on `workers` threads, and
    # the threads other than this one that called w0.
    threads = set()
    monkeypatch.setattr(verify, "_workers", lambda: workers)
    monkeypatch.setattr(verify, "w0", lambda z: threads.add(threading.get_ident()) or w0(z))
    reports = [verify_region(HpqParams(p, q), 200, 42).to_json() for p, q, _ in CASE_FIXTURES[:3]]
    pairs = [find_counterexamples(HpqParams(*cell), 200, 42) for cell in NEITHER_FIXTURES]
    return (reports, pairs), threads - {threading.get_ident()}


# W rounded up to whole numbers ties many |gap| across chunks, so a merge
# out of sample order would keep other worst records.
@pytest.mark.parametrize("w0", [lambert.w0, lambda z: np.ceil(lambert.w0(z))], ids=["w0", "tied"])
def test_worker_count_does_not_change_results(monkeypatch, w0):
    # 29 chunks on eight threads, more than there are CPUs, switching as
    # often as the interpreter lets them: the calling thread merges in
    # sample order.
    monkeypatch.setattr(verify, "_CHUNK", 7)
    expected, helpers = _scan_on(monkeypatch, 1, w0)
    assert helpers == set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results, helpers = _scan_on(monkeypatch, 8, w0)
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    assert helpers


def test_scan_error_reaches_the_caller_and_stops_the_workers(monkeypatch):
    monkeypatch.setattr(verify, "_CHUNK", 7)
    monkeypatch.setattr(verify, "_workers", lambda: 8)
    error, calls, real_w0 = RuntimeError("no convergence"), itertools.count(), verify.w0

    def failing_w0(z):
        # The sixth call fails while later chunks are still pending.
        if next(calls) == 5:
            raise error
        return real_w0(z)

    monkeypatch.setattr(verify, "w0", failing_w0)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        verify_region(HpqParams(-0.5, -1.0), 200, 42)
    assert info.value is error
    assert threading.active_count() == threads


def test_one_chunk_scans_on_the_calling_thread(monkeypatch):
    assert _scan_on(monkeypatch, 8, lambert.w0)[1] == set()


def test_workers_without_sched_getaffinity(monkeypatch):
    # Where os has no sched_getaffinity, every CPU counts, and an unknown count is 1.
    monkeypatch.setattr(verify, "os", types.SimpleNamespace(cpu_count=lambda: 3))
    assert verify._workers() == 3
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    assert verify._workers() == 1


def test_compare_at_replays_report_records(p=-3.0, q=-3.0):
    report = verify_region(HpqParams(p, q), 10_000, 42)
    for rec in report.worst_records:
        assert compare_at(rec.p, rec.q, rec.x, rec.y) == rec


@pytest.mark.parametrize("p,q", [(0.0, 0.5), (2.0, 3.0), (-0.5, -1.0)])
def test_compare_at_replays_report_records_of_more_cells(p, q):
    # p = 0 takes holder_mean's geometric branch; the worst gaps of the
    # "neither" cells (2, 3) and (-0.5, -1) are positive and negative.
    test_compare_at_replays_report_records(p, q)


def test_compare_over_cells_equals_one_cell_calls():
    # Cell i owns points 3i .. 3i + 2; (2, 1) repeats the p of (2, 3).
    cells = (*NEITHER_FIXTURES, (2.0, 1.0))
    x, y = sample_pairs(11, 0, 3 * len(cells))
    together = _compare(cells, x, y)
    for i, cell in enumerate(cells):
        rows = slice(3 * i, 3 * i + 3)
        alone = _compare((cell,), x[rows], y[rows])
        assert [c[rows].tobytes() for c in together] == [c.tobytes() for c in alone]


def test_top_k_matches_stable_argsort_including_ties():
    # The 10th and 11th largest entries tie; the lower index must win.
    a = np.array([5.0, 1.0, 9.0, 3.0, 3.0, 8.0, 7.0, 6.0, 4.0, 3.0, 3.0, 9.0, 0.5])
    assert list(_top_k(a, 10)) == [2, 11, 5, 6, 7, 0, 8, 3, 4, 9]
    *_, gap = _compare(((0.0, 0.5),), *sample_pairs(3, 0, 20_000))
    # Lengths 1, 9, 10 and 11 around k, with ties, take the same partition path.
    short = (np.array([2.0, 1.0, 2.0, 3.0] * 3)[:n] for n in (1, 9, 10, 11))
    for values in (np.abs(gap), np.round(np.abs(gap), 14), np.zeros(5), np.ones(30), *short):
        assert np.array_equal(_top_k(values, 10), np.argsort(-values, kind="stable")[:10])


@pytest.mark.parametrize(
    "gap",
    [
        [0.0, 0.0, 0.0, 0.0],  # no significant gap: both masks all False
        [1.0, 0.5, 2.0, 0.25],  # positive mask all True
        [-1.0, -0.5, -2.0, -0.25],  # negative mask all True
        [0.0, 0.0, -0.5, 0.0],  # a single lane
        [1.0, -1.0, 2.0, -2.0, 2.0, -2.0, 0.0],  # ties in |gap|, across and within signs
        [0.0, -3.0, 1e-13, 0.5, -1e-13, 0.5],  # ties next to gaps under the threshold
    ],
)
def test_cell_part_extremes_equal_the_where_argmax(gap):
    # Masked-out lanes read 0 where np.where read -1: the same first maximum.
    gap = np.array(gap)
    rhs = np.full(gap.size, 4.0)
    lhs = rhs + gap
    x, y = np.arange(1.0, gap.size + 1.0), np.full(gap.size, 2.0)
    part = verify._cell_part(-0.5, -1.0, x, y, lhs, rhs, "extremes")
    columns = (x, y, lhs, rhs, lhs - rhs)
    gap, tol = columns[-1], significance_threshold(lhs, rhs)
    for mask, got in ((gap > tol, part.top), (gap < -tol, part.bottom)):
        i = np.argmax(np.where(mask, np.abs(gap), -1.0))
        assert got == ((verify._record(-0.5, -1.0, columns, i),) if mask[i] else ())


@functools.cache
def _default_raster():
    # The default raster's cells, each classified here, and the cells that
    # fail a counts-only scan at 10k samples.
    r = build_raster(-3.0, 3.0, -3.0, 3.0, 0.05)
    cells = tuple((p, q, classify(p, q)) for p in r.ps for q in r.qs)
    counts = _scan(tuple((p, q) for p, q, _ in cells), 10_000, 42, records=False)
    failing = tuple(
        (p, q)
        for (p, q, cls), part in zip(cells, counts, strict=True)
        if verify._verdict(cls, part.positive, part.negative) == "fail"
    )
    return cells, failing


def test_every_default_raster_cell_is_graded_or_explained():
    # Counts-only at 10k samples: every convex and concave cell of the default
    # raster passes.  A failing "neither" cell has its turning radius r* past
    # the window's upper edge, or passes at 100k samples.
    cells, failing = _default_raster()
    assert all(classify(p, q) is NEITHER for p, q in failing)
    beyond = [cell for cell in failing if _turning_radius(*cell) > SAMPLE_DOMAIN[1]]
    rescanned = [cell for cell in failing if cell not in beyond]
    for (p, q), part in zip(rescanned, _scan(tuple(rescanned), 100_000, 42, records=False)):
        assert part.positive > 0 and part.negative > 0, (p, q)
    assert (len(cells), len(failing), len(beyond)) == (14_641, 34, 32)


# Orders in the band where holder_mean's direct form amplified rounding by 1/|p|.
_SMALL_ORDERS_AXIS = sorted(s * m for m in (1e-5, 2e-5, 1e-4, 1e-3, 1e-2) for s in (1.0, -1.0))


@pytest.mark.parametrize("seed", [42, 7])
def test_every_small_order_cell_is_graded_or_explained(seed, iv80):
    # 100k samples, counts only for the convex and concave cells: every one
    # passes (with _SMALL_P at 1e-5, 4 failed at seed 42 and 12 at seed 7,
    # each on one wrong-sign gap).  A failing "neither" cell has p < 0, q < 0,
    # one sign only, and its turning radius r* past the window's upper edge.
    # A passing one has its top and bottom certified in interval arithmetic,
    # so no spurious sign made it pass.
    cells = tuple((p, q) for p in _SMALL_ORDERS_AXIS for q in _SMALL_ORDERS_AXIS)
    classes = [classify(*cell) for cell in cells]
    modes = ["extremes" if cls is NEITHER else False for cls in classes]
    graded = list(zip(cells, classes, _scan(cells, 100_000, seed, modes)))
    failing = [
        (cell, cls, part) for cell, cls, part in graded if verify._verdict(cls, part.positive, part.negative) == "fail"
    ]
    assert sum(cls is not NEITHER for _, cls, _ in graded) == 40
    assert all(cls is NEITHER for _, cls, _ in failing)
    for (p, q), _, part in failing:
        assert p < 0.0 and q < 0.0 and part.negative == 0, (p, q)
        assert _turning_radius(p, q) > SAMPLE_DOMAIN[1], (p, q)
    assert len(failing) == 15
    passing = [(cell, part) for cell, cls, part in graded if cls is NEITHER and part.positive and part.negative]
    for (p, q), part in passing:
        assert _certified(iv80, p, q, part.top[0], 1), (p, q, part.top)
        assert _certified(iv80, p, q, part.bottom[0], -1), (p, q, part.bottom)
    assert len(passing) == 45


def test_merge_keeps_the_earlier_record_among_equal_gaps():
    # Parts carry no sample index: a tie in |gap| goes to the part merged
    # first, which is the lower sample index when parts merge in order.
    def part(x0, sign):
        recs = [
            ComparisonRecord(x0 + i, 1.0, 0.0, 0.5, 1.0, 1.0, (-1) ** i * sign * 0.25)
            for i in range(_WORST_KEPT)
        ]
        return _Part(
            positive=_WORST_KEPT // 2,
            negative=_WORST_KEPT // 2,
            worst=tuple(recs),
            top=tuple(r for r in recs if r.gap > 0)[:1],
            bottom=tuple(r for r in recs if r.gap < 0)[:1],
        )

    earlier, later = part(1.0, +1.0), part(100.0, -1.0)
    merged = _merge_parts(earlier, later)
    assert merged.worst == earlier.worst
    assert merged.top == earlier.top
    assert merged.bottom == earlier.bottom
    assert merged.positive == merged.negative == _WORST_KEPT
    assert _merge_parts(later, earlier).worst == later.worst


class _Scanned(Exception):
    """Raised by a stubbed _scan: the call passed its argument checks."""


def _stub_scan(*args, **kwargs):
    raise _Scanned


def test_verify_region_validates_arguments(monkeypatch):
    with pytest.raises(ValueError):
        verify_region(HpqParams(1.0, 1.0), 0, 42)
    with pytest.raises(ValueError):
        verify_region(HpqParams(1.0, 1.0), 100, -5)
    # Sample indices stay below 2**63, and selftest's searches read 10 * samples.
    # A count past that is refused before the scan, which would first submit one
    # future per chunk; the largest allowed counts reach it.
    monkeypatch.setattr(verify, "_scan", _stub_scan)
    with pytest.raises(ValueError, match="n_samples must be"):
        verify_region((1.0, 1.0), 2**63 + 1)
    with pytest.raises(ValueError, match="budget must be"):
        find_counterexamples((2.0, 3.0), 2**63 + 1)
    with pytest.raises(ValueError, match="n_samples must be"):
        next(verify._selftest_checks(2**63 // 10 + 1, 42, False))
    for call in (
        lambda: verify_region((1.0, 1.0), 2**63),
        lambda: find_counterexamples((2.0, 3.0), 2**63),
        lambda: list(verify._selftest_checks(2**63 // 10, 42, False)),
    ):
        with pytest.raises(_Scanned):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_region((2.0, 1.0), n_samples=100.9, seed=7),
        lambda: verify_region((2.0, 1.0), n_samples=100, seed=7.8),
        lambda: find_counterexamples((-0.5, -1.0), budget=1_000.5, seed=42),
        lambda: find_counterexamples((-0.5, -1.0), budget=1_000, seed=42.5),
    ],
    ids=["verify-samples", "verify-seed", "search-budget", "search-seed"],
)
def test_non_integral_counts_and_seeds_raise(call):
    # These used to be truncated silently: 100.9 samples ran 100, seed 7.8 ran seed 7.
    with pytest.raises(ValueError, match="must be an integer"):
        call()


# ---------------------------------------------------------------- strictness


def _moderate_pairs(seed, n):
    # Rescale the seeded window onto [1e-2, 1e2]: double precision can
    # resolve the strict sign there; at the window floor the exact gap can
    # be far below one ulp of the compared values.
    x, y = sample_pairs(seed, 0, n)
    lo, hi = SAMPLE_DOMAIN
    u = np.log(x / lo) / math.log(hi / lo)
    v = np.log(y / lo) / math.log(hi / lo)
    return 1e-2 * 10.0 ** (4.0 * u), 1e-2 * 10.0 ** (4.0 * v)


@pytest.mark.parametrize("p,q", [(-1.0, -1.0), (-3.0, 1.0), (-0.25, 0.5)])
def test_strictly_convex_gap_is_significantly_negative(p, q):
    assert classify(p, q) is CONVEX
    x, y = _moderate_pairs(5, 20_000)
    sep = np.abs(np.log(x / y)) > 1e-2
    _, _, lhs, rhs, gap = _compare(((p, q),), x[sep], y[sep])
    assert np.all(gap < -significance_threshold(lhs, rhs))


@pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 0.0), (0.5, 0.5)])
def test_strictly_concave_gap_is_significantly_positive(p, q):
    assert classify(p, q) is CONCAVE
    x, y = _moderate_pairs(5, 20_000)
    sep = np.abs(np.log(x / y)) > 1e-2
    _, _, lhs, rhs, gap = _compare(((p, q),), x[sep], y[sep])
    assert np.all(gap > significance_threshold(lhs, rhs))


def test_limit_consistency_toward_zero_order():
    for x, y in ((0.5, 7.0), (1e-3, 1e2), (2.0, 3.0)):
        base = compare_at(0.0, 0.0, x, y).gap
        deltas = [abs(compare_at(p, p, x, y).gap - base) for p in (1e-1, 1e-2, 1e-3)]
        assert deltas[0] > deltas[1] > deltas[2] or deltas[2] <= 1e-6


# ---------------------------------------------------------------- serialization


def test_report_json_document():
    rep = verify_region(HpqParams(-1.0, -1.0), 5_000, 42)
    doc = json.loads(rep.to_json())
    assert sorted(doc.keys()) == [
        "expected",
        "max_abs_gap",
        "n_gap_negative",
        "n_gap_positive",
        "n_samples",
        "params",
        "seed",
        "verdict",
        "worst_records",
    ]
    assert doc["params"] == {"p": -1.0, "q": -1.0}
    assert doc["expected"] == "convex"
    assert doc["verdict"] == "pass"
    assert doc["seed"] == 42
    assert doc["max_abs_gap"] == rep.max_abs_gap  # repr round-trips exactly
    assert len(doc["worst_records"]) == len(rep.worst_records)
    first = doc["worst_records"][0]
    assert sorted(first.keys()) == ["gap", "lhs", "p", "q", "rhs", "x", "y"]
    assert first["gap"] == rep.worst_records[0].gap


# ---------------------------------------------------------------- counterexamples


@pytest.mark.parametrize("p,q", NEITHER_FIXTURES)
def test_find_counterexamples_fixtures(p, q):
    pair = find_counterexamples(HpqParams(p, q), 100_000, 1)
    pos, neg = pair.violates_convexity, pair.violates_concavity
    assert pos.gap > significance_threshold(pos.lhs, pos.rhs)
    assert neg.gap < -significance_threshold(neg.lhs, neg.rhs)
    assert pos.gap == pos.lhs - pos.rhs
    assert neg.gap == neg.lhs - neg.rhs


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max_reference(fun, a, b):
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(20):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    return c if fc >= fd else d


def _refine_reference(p, q, origin, sign):
    # One direction on its own, one scalar compare_at per evaluation.
    ln_lo, ln_hi = (math.log(v) for v in SAMPLE_DOMAIN)
    half_span = 0.5 * math.log(10.0)

    def signed_gap(point):
        return sign * compare_at(p, q, math.exp(point[0]), math.exp(point[1])).gap

    point = [math.log(origin.x), math.log(origin.y)]
    best = signed_gap(point)
    for coord in (0, 1):

        def fun(t):
            return signed_gap([t, point[1]] if coord == 0 else [point[0], t])

        lo, hi = max(ln_lo, point[coord] - half_span), min(ln_hi, point[coord] + half_span)
        t = _golden_max_reference(fun, lo, hi)
        val = fun(t)
        if val > best:
            best, point[coord] = val, t
    rec = compare_at(p, q, math.exp(point[0]), math.exp(point[1]))
    return origin if sign * rec.gap < abs(origin.gap) else rec


def _scan_extremes(p, q, budget, seed):
    (part,) = verify._scan(((p, q),), budget, seed, "extremes")
    return part.top[0], part.bottom[0]


@pytest.mark.parametrize("seed", [42, 7, 20250825])
@pytest.mark.parametrize("p,q", NEITHER_FIXTURES)
def test_lockstep_search_equals_scalar_search(p, q, seed):
    top, bottom = _scan_extremes(p, q, 5_000, seed)
    expected = CounterexamplePair(
        _refine_reference(p, q, top, +1.0), _refine_reference(p, q, bottom, -1.0)
    )
    assert find_counterexamples(HpqParams(p, q), 5_000, seed) == expected


@pytest.mark.parametrize("kept", [0, 1])
def test_lockstep_search_falls_back_per_direction(kept):
    # No polished point reaches a |gap| of 1e300, so that direction keeps its
    # origin record while the other one is still polished.
    p, q = -0.5, -1.0
    origins = list(_scan_extremes(p, q, 5_000, 42))
    origins[kept] = dataclasses.replace(origins[kept], gap=(1e300, -1e300)[kept])
    got = verify._refine(((p, q),), tuple(origins))
    assert got[kept] is origins[kept]
    assert got[1 - kept] != origins[1 - kept]
    assert got == (
        _refine_reference(p, q, origins[0], +1.0),
        _refine_reference(p, q, origins[1], -1.0),
    )


def _scan_origins(cells, budget, seed):
    return [origin for part in _scan(cells, budget, seed, "extremes") for origin in (part.top[0], part.bottom[0])]


def _scalar_polish(cells, origins):
    # _refine's result as one scalar reference search per direction.
    return tuple(
        _refine_reference(p, q, origins[2 * j + k], sign)
        for j, (p, q) in enumerate(cells)
        for k, sign in enumerate((+1.0, -1.0))
    )


@pytest.mark.parametrize("seed", [42, 7, 20250825])
def test_one_polish_over_all_fixtures_equals_scalar_searches(seed):
    origins = _scan_origins(NEITHER_FIXTURES, 5_000, seed)
    assert _refine(NEITHER_FIXTURES, origins) == _scalar_polish(NEITHER_FIXTURES, origins)


def test_one_polish_over_every_neither_cell_equals_scalar_searches():
    axis = sorted({*GRID_AXIS, 0.5, 3.0})
    cells = tuple(cell for cell in itertools.product(axis, axis) if classify(*cell) is NEITHER)
    assert len(cells) == 40
    origins = _scan_origins(cells, 5_000, 42)
    assert _refine(cells, origins) == _scalar_polish(cells, origins)


def _tied_compare(cells, x, y):
    # Stands in for verify._compare: a gap that is piecewise constant in
    # ln x and ln y, so golden-section values tie often, and NaN where
    # 0.5 < ln x < 0.9.
    u, v = np.log(x), np.log(y)
    gap = np.floor(4.0 * u) % 3.0 - np.floor(3.0 * v) % 2.0
    gap[(u > 0.5) & (u < 0.9)] = np.nan
    return x, y, gap, np.zeros_like(gap), gap


@pytest.mark.parametrize("kept", [None, 0, 3])
def test_lockstep_search_replays_ties_and_nan_like_the_scalar_search(monkeypatch, kept):
    # fc >= fd is False where either value is NaN: the search must branch
    # exactly as the scalar search does there and on every tie.
    monkeypatch.setattr(verify, "_compare", _tied_compare)
    cells = NEITHER_FIXTURES[:2]
    logs = ((0.2, 1.1), (1.3, -0.4), (0.45, 2.0), (-0.6, 0.3))
    origins = [
        compare_at(*cells[i // 2], math.exp(u), math.exp(v)) for i, (u, v) in enumerate(logs)
    ]
    if kept is not None:
        origins[kept] = dataclasses.replace(origins[kept], gap=(1e300, -1e300)[kept % 2])
    got = _refine(cells, origins)
    assert repr(got) == repr(_scalar_polish(cells, origins))
    assert kept is None or got[kept] is origins[kept]


def test_one_polish_makes_ten_compare_calls(monkeypatch):
    # Per coordinate, the current point and its first two probes, then four
    # lookahead calls of 31 points per direction: 10 calls over the 8
    # directions of the fixtures.  The final point was evaluated already.
    origins = _scan_origins(NEITHER_FIXTURES, 5_000, 42)
    sizes, real_compare = [], verify._compare
    monkeypatch.setattr(verify, "_compare", lambda cells, x, y: sizes.append(x.size) or real_compare(cells, x, y))
    _refine(NEITHER_FIXTURES, origins)
    assert sizes == [8 * 3] + [8 * 31] * 4 + [8 * 3] + [8 * 31] * 4


def test_batched_search_mixes_found_and_exhausted_cells():
    # At budget 10 and seed 42, (2, 3) and (0, 0.5) show only one sign.
    results = verify._witnesses(NEITHER_FIXTURES, _scan(NEITHER_FIXTURES, 10, 42, "extremes"), 10)
    for cell, result in zip(NEITHER_FIXTURES, results):
        if cell in ((2.0, 3.0), (0.0, 0.5)):
            assert isinstance(result, SearchExhaustedError)
            with pytest.raises(SearchExhaustedError) as exc:
                find_counterexamples(HpqParams(*cell), 10, 42)
            assert str(result) == str(exc.value)
        else:
            assert result == find_counterexamples(HpqParams(*cell), 10, 42)


def test_find_counterexamples_deterministic():
    a = find_counterexamples(HpqParams(2.0, 3.0), 50_000, 17)
    b = find_counterexamples(HpqParams(2.0, 3.0), 50_000, 17)
    assert a == b


def test_find_counterexamples_requires_neither():
    with pytest.raises(ValueError):
        find_counterexamples(HpqParams(1.0, 1.0), 1_000, 1)


def test_find_counterexamples_budget_exhaustion():
    with pytest.raises(SearchExhaustedError):
        find_counterexamples(HpqParams(2.0, 3.0), 1, 1)


# ---------------------------------------------------------------- chain


def test_chain_equal_arguments():
    # The members coincide exactly, not only to within rounding.
    assert len(set(check_chain(4.0, 4.0))) == len(set(check_chain(3.0, 3.0))) == 1
    x = np.concatenate([sample_pairs(42, 0, 10_000)[0], np.geomspace(1e-307, 1e308, 1_001)])
    a, b, c, d = check_chain(x, x)
    assert np.array_equal(a, b) and np.array_equal(b, c) and np.array_equal(c, d)


def test_chain_strict_at_one_e():
    a, b, c, d = check_chain(1.0, math.e)
    assert b - a > 1e-6 and c - b > 1e-6 and d - c > 1e-6


def test_chain_strict_wide_spread():
    a, b, c, d = check_chain(1e-3, 1e3)
    assert a < b < c < d


def test_chain_vectorized():
    x, y = sample_pairs(3, 0, 2_000)
    a, b, c, d = check_chain(x, y)
    tol = 1e-13 * np.maximum(1.0, d)
    assert np.all(a <= b + tol) and np.all(b <= c + tol) and np.all(c <= d + tol)
    # Lists reach the kernels unconverted and give the members bit for bit.
    assert all(np.array_equal(m, n) for m, n in zip(check_chain(list(x), list(y)), (a, b, c, d)))


@pytest.mark.parametrize(
    "x,y,message",
    [
        (-1.0, 2.0, "x must be > 0"),
        (np.array([1.0, -2.0]), 1.0, "x must be > 0"),
        (2.0, math.nan, "y must be finite"),
    ],
)
def test_check_chain_names_the_coordinate_that_is_wrong(x, y, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        check_chain(x, y)


# ---------------------------------------------------------------- 40-digit oracle

# The last five have an order below _SMALL_P, where holder_mean takes its cosh
# form; (-1e-5, 1e-4) is a "neither" cell that shows both signs in 500 samples.
ORACLE_CELLS = (
    (2.0, 1.0), (-0.5, -0.25), (-0.5, -1.0), (0.0, 0.5), (-2.0, -3.0), (2.0, 3.0), (-1.0, -1.0), (0.0, 0.0),
    (2e-5, 2e-5), (-1e-3, -1e-3), (1e-2, -1e-2), (-1e-5, 1e-4), (1e-4, -2e-5),
)
ORACLE_SAMPLES = 500


def _mp_mean(mpmath, p, r, s):
    return mpmath.sqrt(r * s) if p == 0.0 else ((r**p + s**p) / 2) ** (1 / mpmath.mpf(p))


def _mp_gap(mpmath, p, q, x, y):
    # W(H_p(x, y)) - H_q(W(x), W(y)) in 40 digits; x, y are mpf.
    lhs = mpmath.lambertw(_mp_mean(mpmath, p, x, y))
    return lhs - _mp_mean(mpmath, q, mpmath.lambertw(x), mpmath.lambertw(y))


@pytest.fixture
def mpmath40():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def test_scan_signs_match_a_40_digit_oracle(monkeypatch, mpmath40):
    # The columns each cell's counts come from, as the scan passes them.
    seen, cell_part = {}, verify._cell_part

    def capture(p, q, x, y, lhs, rhs, records):
        seen[p, q] = lhs, rhs
        return cell_part(p, q, x, y, lhs, rhs, records)

    monkeypatch.setattr(verify, "_cell_part", capture)
    parts = _scan(ORACLE_CELLS, ORACLE_SAMPLES, 42)
    mp = mpmath40
    xs, ys = ([mp.mpf(float(v)) for v in c] for c in sample_pairs(42, 0, ORACLE_SAMPLES))
    wx, wy = [mp.lambertw(v) for v in xs], [mp.lambertw(v) for v in ys]
    lhs_of = {}
    for (p, q), part in zip(ORACLE_CELLS, parts):
        if p not in lhs_of:
            lhs_of[p] = [mp.lambertw(_mp_mean(mp, p, x, y)) for x, y in zip(xs, ys)]
        true = np.array([float(a - _mp_mean(mp, q, b, c)) for a, b, c in zip(lhs_of[p], wx, wy)])
        lhs, rhs = seen[p, q]
        gap, tol = lhs - rhs, significance_threshold(lhs, rhs)
        positive, negative = gap > tol, gap < -tol
        assert (part.positive, part.negative) == (np.count_nonzero(positive), np.count_nonzero(negative))
        assert np.all(true[positive] > 0.0) and np.all(true[negative] < 0.0), (p, q)
        ties = ~positive & ~negative
        assert np.all(np.abs(true[ties]) <= tol[ties]), (p, q)
        # Relative to max(|lhs|, |rhs|, 1): 7.1e-16 at most here, against the
        # threshold's 1e-12, so a kernel that degrades trips this first.
        assert np.max(np.abs(gap - true) / significance_threshold(lhs, rhs, 1.0)) < 1e-14, (p, q)


def test_chain_links_are_strict_in_a_40_digit_oracle(mpmath40):
    mp = mpmath40
    x, y = sample_pairs(42, 0, ORACLE_SAMPLES)
    assert np.all(x != y)
    members = np.array(check_chain(x, y))
    for i, (xf, yf) in enumerate(zip(x, y)):
        xm, ym = mp.mpf(float(xf)), mp.mpf(float(yf))
        wx, wy = mp.lambertw(xm), mp.lambertw(ym)
        qhf = (2 * mp.root(xm * ym, 4) / (mp.root(xm, 4) + mp.root(ym, 4))) ** 4
        exact = (mp.lambertw(qhf), mp.sqrt(wx * wy), mp.lambertw(mp.sqrt(xm * ym)), (wx + wy) / 2)
        assert all(hi - lo > 0 for lo, hi in itertools.pairwise(exact)), i
        assert all(abs(m - e) <= 1e-14 * e for m, e in zip(members[:, i], exact)), i


def test_witness_gaps_have_the_40_digit_sign(mpmath40):
    mp = mpmath40
    pairs = verify._witnesses(NEITHER_FIXTURES, _scan(NEITHER_FIXTURES, 10_000, 42, "extremes"), 10_000)
    for (p, q), pair in zip(NEITHER_FIXTURES, pairs):
        for rec, sign in ((pair.violates_convexity, 1), (pair.violates_concavity, -1)):
            assert sign * rec.gap > 0.0
            assert sign * _mp_gap(mp, p, q, mp.mpf(rec.x), mp.mpf(rec.y)) > 0, (p, q, rec)


@pytest.fixture
def iv80():
    iv = pytest.importorskip("mpmath").iv
    prec, iv.prec = iv.prec, 80
    yield iv
    iv.prec = prec


def _w_enclosure(iv, z):
    # Doubles a <= W(z) <= b for a point interval z > 0, starting next to
    # w0(z): t*e**t increases on t > -1, so a*e**a <= z <= b*e**b, decided
    # in intervals, proves them.
    w = lambert.w0(float(z))
    a, b = math.nextafter(w, -math.inf), math.nextafter(w, math.inf)
    while not iv.mpf(a) * iv.exp(iv.mpf(a)) <= z:
        a -= 2.0 * (w - a)
    while not iv.mpf(b) * iv.exp(iv.mpf(b)) >= z:
        b += 2.0 * (b - w)
    return a, b


def _iv_mean(iv, p, r, s):
    if p == 0.0:
        return iv.sqrt(r * s)
    return iv.exp(iv.log((iv.exp(p * iv.log(r)) + iv.exp(p * iv.log(s))) / 2) / p)


def test_witness_gaps_are_certified_in_interval_arithmetic(iv80):
    # The pinned `counterexample` outputs (budget 100k, seed 42).
    pairs = verify._witnesses(NEITHER_FIXTURES, _scan(NEITHER_FIXTURES, 100_000, 42, "extremes"), 100_000)
    for (p, q), pair in zip(NEITHER_FIXTURES, pairs):
        for rec, sign in ((pair.violates_convexity, 1), (pair.violates_concavity, -1)):
            assert _certified(iv80, p, q, rec, sign), (p, q, rec)


def _certified(iv, p, q, rec, sign):
    # Whether sign * gap > 0 at the record's (x, y) holds in interval arithmetic.
    # W is increasing, so W(H_p(x, y)) lies between the enclosures' outer ends
    # at H_p's two ends; the gap interval must exclude 0 on its sign.
    x, y = iv.mpf(rec.x), iv.mpf(rec.y)
    h = _iv_mean(iv, p, x, y)
    lhs = iv.mpf([_w_enclosure(iv, h.a)[0], _w_enclosure(iv, h.b)[1]])
    rhs = _iv_mean(iv, q, iv.mpf(list(_w_enclosure(iv, x))), iv.mpf(list(_w_enclosure(iv, y))))
    return (sign * (lhs - rhs) > 0) is True


def test_default_raster_witnesses_are_certified_in_interval_arithmetic(iv80):
    # The default raster's "neither" cells on every fifth row and column (the
    # 0.25 lattice) and those next to a cell of another class along p or q:
    # every top and bottom of their "extremes" scan at 10k samples is certified.
    # The cells with one sign only are the counts-only scan's failing cells.
    cells, failing = _default_raster()
    neither = np.array([cls is NEITHER for *_, cls in cells]).reshape(121, 121)
    edge = np.zeros_like(neither)
    along_p, along_q = neither[1:] != neither[:-1], neither[:, 1:] != neither[:, :-1]
    edge[1:] |= along_p
    edge[:-1] |= along_p
    edge[:, 1:] |= along_q
    edge[:, :-1] |= along_q
    lattice = np.zeros_like(neither)
    lattice[::5, ::5] = True
    chosen = tuple(cells[k][:2] for k in np.flatnonzero(neither & (edge | lattice)))
    one_sign, certified = [], 0
    for (p, q), part in zip(chosen, _scan(chosen, 10_000, 42, "extremes")):
        if not (part.top and part.bottom):
            one_sign.append((p, q))
        for records, sign in ((part.top, 1), (part.bottom, -1)):
            assert all(_certified(iv80, p, q, rec, sign) for rec in records), (p, q, records)
            certified += len(records)
    assert one_sign == list(failing)
    assert (len(chosen), certified) == (378, 722)


# ---------------------------------------------------------------- lemma checks


def test_check_h_lemma_examples():
    assert check_h_lemma(2.0).expected == "increasing"
    assert check_h_lemma(2.0).passed
    assert check_h_lemma(-2.0).expected == "decreasing"
    assert check_h_lemma(-2.0).passed
    res = check_h_lemma(-0.25)
    assert res.expected == "interior-max"
    assert res.passed
    assert abs(res.grid_max) <= 1e-6  # C(-1/4) = 0
    assert abs(math.log(res.grid_argmax) - 1.0) <= 1e-2  # argmax near e


# Near p -> 0- the turning radius of h_p or g_pq leaves the fixed lemma
# window [1e-9, 1e9], and the grid sees only one direction of steps.
_WINDOW_DEFECT = pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="turning radius beyond the lemma window"
)


@pytest.mark.parametrize(
    "p",
    [
        *H_LEMMA_FIXTURES,
        -0.005,  # argmax r = 6.7e6, inside the window
        *(pytest.param(p, marks=_WINDOW_DEFECT) for p in (-0.002, -0.001, -1e-4)),  # 9,999 up / 0 down
    ],
)
def test_check_h_lemma_fixtures(p):
    assert check_h_lemma(p).passed


@pytest.mark.parametrize("p", [1e308, -1e308])
def test_check_h_lemma_refuses_a_grid_beyond_the_double_range(p):
    # p * (W + 1) overflows on the grid: no shape is graded, no warning shown.
    with pytest.raises(OverflowError, match=re.escape(f"lemma grid values at p={p} leave")):
        check_h_lemma(p)


@pytest.mark.parametrize("p,q", itertools.product([1e308, -1e308], repeat=2))
def test_check_g_lemma_refuses_a_grid_beyond_the_double_range(p, q):
    # ln g_pq turns inf or NaN on the grid.
    with pytest.raises(OverflowError, match=re.escape(f"lemma grid values at p={p}, q={q} leave")):
        check_g_lemma(p, q)


def test_check_g_lemma_examples():
    assert check_g_lemma(1.0, 1.0).expected == "decreasing"
    assert check_g_lemma(0.0, 1.0).expected == "increasing"
    assert check_g_lemma(0.0, 0.5).expected == "non-monotone"
    for p, q in ((1.0, 1.0), (0.0, 1.0), (0.0, 0.5)):
        assert check_g_lemma(p, q).passed


@pytest.mark.parametrize("p,q", [(math.inf, math.inf), (1.0, math.nan), (-math.inf, 0.5)])
def test_check_g_lemma_rejects_orders_that_are_not_finite(p, q):
    # Checked before any work: no RuntimeWarning from evaluating ln g_pq first.
    with pytest.raises(ValueError, match="must be finite"):
        check_g_lemma(p, q)


@pytest.mark.parametrize(
    "p,q",
    [
        *G_LEMMA_FIXTURES,
        *(pytest.param(-0.1, q, marks=_WINDOW_DEFECT) for q in (-1.0, -2.0, -3.0)),  # 0 up / 9,999 down
    ],
)
def test_check_g_lemma_fixtures(p, q):
    assert check_g_lemma(p, q).passed


def _exact_lemma_clause(p, q=None):
    # With u = W(r) + 1 > 1: h_p = p u + 1 - 1/u, so h_p' has the sign of
    # p u**2 + 1, and (ln g_pq)' has the sign of q - h_p = Q(u) / u with
    # Q(u) = -p u**2 + (q - 1) u + 1.  On u > 1 such a polynomial changes
    # sign exactly at its real roots u > 1 of odd multiplicity and ends with
    # the sign of its leading coefficient; sympy decides both exactly.
    sympy = pytest.importorskip("sympy")
    p = sympy.Rational(p)
    coeffs = [p, 0, 1] if q is None else [-p, sympy.Rational(q) - 1, 1]
    poly = sympy.Poly(coeffs, sympy.Symbol("u"))
    roots = poly.real_roots()
    changes = sum(roots.count(u) % 2 for u in set(roots) if u > 1)
    if changes == 0:
        return "increasing" if poly.LC() > 0 else "decreasing"
    if q is not None:
        return "non-monotone"
    assert changes == 1 and poly.LC() < 0  # h_p rises, then falls
    return "interior-max"


def _graded(values):
    # (rises, falls, grid_max, grid_argmax) of values over the lemma grid.
    steps = np.diff(values)
    tau = significance_threshold(values[:-1], values[1:], verify._STEP_SIGNIFICANCE)
    i = int(np.argmax(values))
    return int(np.sum(steps > tau)), int(np.sum(steps < -tau)), float(values[i]), float(verify._LEMMA_GRID[i])


def _fields(res):
    return res.rises, res.falls, res.grid_max, res.grid_argmax


def test_lemma_table_is_w0_of_the_lemma_grid():
    assert verify._LEMMA_W.tobytes() == lambert.w0(verify._LEMMA_GRID).tobytes()


@pytest.mark.parametrize("p", [*H_LEMMA_FIXTURES, -0.005, 1e-300, 3.0])
def test_check_h_lemma_grades_h_p_on_the_lemma_grid(p):
    assert _fields(check_h_lemma(p)) == _graded(h_p(p, verify._LEMMA_GRID))


@pytest.mark.parametrize("p,q", G_LEMMA_FIXTURES)
def test_check_g_lemma_grades_ln_g_on_the_lemma_grid(p, q):
    r = verify._LEMMA_GRID
    w = lambert.w0(r)
    assert _fields(check_g_lemma(p, q)) == _graded(_ln_g(p, q, np.log(r), np.log(w), np.log1p(w))[2])


def test_lemma_checks_call_no_w0(monkeypatch):
    calls = []
    for module in (verify, theory):
        monkeypatch.setattr(module, "w0", lambda z: calls.append(np.size(z)) or lambert.w0(z))
    for p in H_LEMMA_FIXTURES:
        check_h_lemma(p)
    for p, q in G_LEMMA_FIXTURES:
        check_g_lemma(p, q)
    assert calls == []


def test_h_lemma_clauses_are_exact():
    for p in H_LEMMA_FIXTURES:
        assert check_h_lemma(p).expected == _exact_lemma_clause(p), p


def test_g_lemma_clauses_are_exact():
    cells = {(p, q) for p in GRID_AXIS for q in GRID_AXIS}
    cells |= set(G_LEMMA_FIXTURES) | set(NEITHER_FIXTURES)
    cells |= {(p, q) for p, q, _ in CASE_FIXTURES}
    for p, q in sorted(cells):
        assert check_g_lemma(p, q).expected == _exact_lemma_clause(p, q), (p, q)
