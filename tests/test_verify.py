"""Verifier tests: sampling, region reports, counterexamples, lemma checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wconvexity import verify
from wconvexity.theory import ConvexityClass, HpqParams, classify
from wconvexity.verify import (
    CASE_FIXTURES,
    GRID_AXIS,
    G_LEMMA_FIXTURES,
    H_LEMMA_FIXTURES,
    NEITHER_FIXTURES,
    SAMPLE_DOMAIN,
    ComparisonRecord,
    SearchExhaustedError,
    _WORST_KEPT,
    _Part,
    _gap_arrays,
    _merge_parts,
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
    rep = verify_region(HpqParams(1.0, 1.0), 2_000, 42, expected=CONVEX)
    assert rep.verdict == "fail"


def test_partitioned_scan_merges_to_single_pass():
    full = _scan_part(0.0, 0.5, 9, 0, 10_000)
    parts = [
        _scan_part(0.0, 0.5, 9, 0, 3_333),
        _scan_part(0.0, 0.5, 9, 3_333, 3_333),
        _scan_part(0.0, 0.5, 9, 6_666, 3_334),
    ]
    left = _merge_parts(_merge_parts(parts[0], parts[1]), parts[2])
    right = _merge_parts(parts[0], _merge_parts(parts[1], parts[2]))
    assert left == full
    assert right == full


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


def test_compare_at_replays_report_records():
    report = verify_region(HpqParams(-3.0, -3.0), 10_000, 42)
    for rec in report.worst_records:
        assert compare_at(rec.p, rec.q, rec.x, rec.y) == rec


def test_top_k_matches_stable_argsort_including_ties():
    # The 10th and 11th largest entries tie; the lower index must win.
    a = np.array([5.0, 1.0, 9.0, 3.0, 3.0, 8.0, 7.0, 6.0, 4.0, 3.0, 3.0, 9.0, 0.5])
    assert list(_top_k(a, 10)) == [2, 11, 5, 6, 7, 0, 8, 3, 4, 9]
    _, _, gap = _gap_arrays(0.0, 0.5, *sample_pairs(3, 0, 20_000))
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
    lhs, rhs, gap = _gap_arrays(p, q, x[sep], y[sep])
    assert np.all(gap < -significance_threshold(lhs, rhs))


@pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 0.0), (0.5, 0.5)])
def test_strictly_concave_gap_is_significantly_positive(p, q):
    assert classify(p, q) is CONCAVE
    x, y = _moderate_pairs(5, 20_000)
    sep = np.abs(np.log(x / y)) > 1e-2
    lhs, rhs, gap = _gap_arrays(p, q, x[sep], y[sep])
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


# ---------------------------------------------------------------- lemma checks


def test_check_h_lemma_examples():
    assert check_h_lemma(2.0, 5_000).expected == "increasing"
    assert check_h_lemma(2.0, 5_000).passed
    assert check_h_lemma(-2.0, 5_000).expected == "decreasing"
    assert check_h_lemma(-2.0, 5_000).passed
    res = check_h_lemma(-0.25, 10_000)
    assert res.expected == "interior-max"
    assert res.passed
    assert abs(res.grid_max) <= 1e-6  # C(-1/4) = 0
    assert abs(math.log(res.grid_argmax) - 1.0) <= 1e-2  # argmax near e


@pytest.mark.parametrize("p", H_LEMMA_FIXTURES)
def test_check_h_lemma_fixtures(p):
    assert check_h_lemma(p, 10_000).passed


def test_check_h_lemma_validates_grid():
    with pytest.raises(ValueError):
        check_h_lemma(1.0, 2)


def test_check_g_lemma_examples():
    assert check_g_lemma(1.0, 1.0, 5_000).expected == "decreasing"
    assert check_g_lemma(0.0, 1.0, 5_000).expected == "increasing"
    assert check_g_lemma(0.0, 0.5, 5_000).expected == "non-monotone"
    for p, q in ((1.0, 1.0), (0.0, 1.0), (0.0, 0.5)):
        assert check_g_lemma(p, q, 5_000).passed


@pytest.mark.parametrize("p,q", G_LEMMA_FIXTURES)
def test_check_g_lemma_fixtures(p, q):
    assert check_g_lemma(p, q, 10_000).passed
