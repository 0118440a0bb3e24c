"""Verifier tests: sampling, region reports, counterexamples, lemma checks."""

import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wconvexity import lambert, theory, verify
from wconvexity.theory import ConvexityClass, HpqParams, _ln_g, classify, h_p
from wconvexity.verify import (
    CASE_FIXTURES,
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
    _counterexamples,
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


def _mass_above(r):
    # The log-uniform share of SAMPLE_DOMAIN above radius r.
    lo, hi = SAMPLE_DOMAIN
    return math.log(hi / r) / math.log(hi / lo)


def test_sample_domain_clears_every_turning_radius():
    # With u = W(r) + 1, q - h_p(r) = Q(u) / u for Q(u) = -p u**2 + (q - 1) u + 1,
    # so g_pq turns at the roots u* > 1 of Q, at radius r* = (u* - 1) e**(u* - 1).
    radii = {}
    for p in GRID_AXIS:
        for q in GRID_AXIS:
            if classify(p, q) is not NEITHER:
                continue
            roots = np.roots([-p, q - 1.0, 1.0])
            u = roots.real[(roots.imag == 0.0) & (roots.real > 1.0)]
            assert u.size >= 1, (p, q)
            radii[p, q] = max((u - 1.0) * np.exp(u - 1.0))
    lo, hi = SAMPLE_DOMAIN
    assert all(lo < r < hi for r in radii.values())
    widest = max(radii, key=radii.get)
    assert widest == (-0.1, -3.0)
    assert radii[widest] == pytest.approx(2.61e18, rel=1e-3)
    # At least 10% of each coordinate's mass lies beyond the widest radius.
    assert _mass_above(radii[widest]) >= 0.10
    assert _mass_above(radii[widest]) == pytest.approx(0.128, abs=1e-3)


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


@pytest.mark.parametrize("p,q,expected", CASE_FIXTURES)
def test_verify_region_case_fixtures(p, q, expected):
    rep = verify_region(HpqParams(p, q), 5_000, 11)
    assert rep.expected is expected
    assert rep.verdict == "pass"


def test_verify_region_expected_override_detects_mismatch():
    (rep,) = verify._verify_grid(((1.0, 1.0),), 2_000, 42, {(1.0, 1.0): CONVEX})
    assert rep.verdict == "fail"


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
    parts = _scan_part(cells, 9, 0, 5_000)
    assert parts == [_scan_part((cell,), 9, 0, 5_000)[0] for cell in cells]
    pieces = [_scan_part(cells, 9, start, 1_250) for start in range(0, 5_000, 1_250)]
    left = pieces[0]
    for piece in pieces[1:]:
        left = list(map(_merge_parts, left, piece))
    right = pieces[-1]
    for piece in reversed(pieces[:-1]):
        right = list(map(_merge_parts, piece, right))
    assert left == right == parts


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


@pytest.mark.parametrize("chunk,n", [(7, 50), (None, 1_000), (None, 70_000)])
def test_grid_reports_equal_per_cell_reports(monkeypatch, chunk, n):
    if chunk is not None:
        monkeypatch.setattr(verify, "_CHUNK", chunk)
    ps, qs = (-0.5, 0.0, 1.0), (-1.0, 0.25, 1.0)
    overrides = {(1.0, 1.0): CONVEX}
    reports = list(verify._verify_grid(tuple(itertools.product(ps, qs)), n, 42, overrides))
    cells = [(p, q) for p in ps for q in qs]
    assert [(r.params.p, r.params.q) for r in reports] == cells
    for (p, q), report in zip(cells, reports):
        (single,) = verify._verify_grid(((p, q),), n, 42, overrides)
        assert report.to_json() == single.to_json()
    assert reports[cells.index((1.0, 1.0))].verdict == "fail"


@pytest.mark.parametrize("chunk,n,chunks", [(None, 1_000, 1), (7, 20, 3)])
def test_w0_calls_per_chunk(monkeypatch, chunk, n, chunks):
    if chunk is not None:
        monkeypatch.setattr(verify, "_CHUNK", chunk)
    calls, real_w0 = [], verify.w0
    monkeypatch.setattr(verify, "w0", lambda z: calls.append(np.size(z)) or real_w0(z))
    list(verify._verify_grid(tuple(itertools.product(GRID_AXIS, GRID_AXIS)), n, 42, {}))
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
    assert len(calls) == 3 * chunks + 11  # the scan, then one polish of 11 _compare calls
    assert points == []
    calls.clear()
    _counterexamples(NEITHER_FIXTURES, n, 42)
    assert len(calls) == 6 * chunks + 11  # W(H_p) per cell, W(x), W(y); one lockstep polish
    assert points == []


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
    for values in (np.abs(gap), np.round(np.abs(gap), 14), np.zeros(5), np.ones(30)):
        assert np.array_equal(_top_k(values, 10), np.argsort(-values, kind="stable")[:10])


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


def test_verify_region_validates_arguments():
    with pytest.raises(ValueError):
        verify_region(HpqParams(1.0, 1.0), 0, 42)
    with pytest.raises(ValueError):
        verify_region(HpqParams(1.0, 1.0), 100, -5)


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
    (part,) = verify._scan(((p, q),), budget, seed)
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
    return [origin for part in _scan(cells, budget, seed) for origin in (part.top[0], part.bottom[0])]


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


def test_one_polish_makes_eleven_compare_calls(monkeypatch):
    # Origin plus coordinate 0's first two probes, four lookahead calls of
    # 31 points per direction, coordinate 1's first two probes, four more,
    # and the final point: 11 calls over the 8 directions of the fixtures.
    origins = _scan_origins(NEITHER_FIXTURES, 5_000, 42)
    sizes, real_compare = [], verify._compare
    monkeypatch.setattr(verify, "_compare", lambda cells, x, y: sizes.append(x.size) or real_compare(cells, x, y))
    _refine(NEITHER_FIXTURES, origins)
    assert sizes == [8 * 3] + [8 * 31] * 4 + [8 * 2] + [8 * 31] * 4 + [8]


def test_batched_search_mixes_found_and_exhausted_cells():
    # At budget 10 and seed 42, (2, 3) and (0, 0.5) show only one sign.
    results = _counterexamples(NEITHER_FIXTURES, 10, 42)
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
    vals = check_chain(4.0, 4.0)
    assert max(vals) - min(vals) <= 1e-13 * max(vals)


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
    assert _fields(check_g_lemma(p, q)) == _graded(_ln_g(p, q, r, lambert.w0(r))[2])


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
