"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible under ``pytest -v -s``) and
enforces its runtime budget.  Expected values follow the oracle-first
rule: the Omega constant comes from the independent bisection oracle in
test_lambert, closed-form fixtures are computed inline.
"""

import math
import time

import numpy as np
import pytest

from wconvexity.lambert import w0, w0_prime
from wconvexity.means import holder_mean
from wconvexity.theory import HpqParams, c_of_p, classify, f1, g_pq, h_p, h_p_argmax
from wconvexity.verify import (
    GRID_AXIS,
    _compare,
    check_chain,
    check_g_lemma,
    check_h_lemma,
    compare_at,
    find_counterexamples,
    sample_pairs,
    significance_threshold,
    verify_region,
)
from wconvexity.cli import run as cli_run

from test_lambert import OMEGA, bisect_omega


def _report(name, elapsed, budget):
    print(f"PASS {name} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_kernel_accuracy():
    t0 = time.perf_counter()
    omega = bisect_omega()  # independent oracle first
    assert abs(omega - OMEGA) < 5e-16
    z = np.logspace(-9.0, 9.0, 10_000)
    w = w0(z)
    assert np.all(np.abs(w * np.exp(w) - z) <= 2e-15 * np.maximum(z, 1.0))
    assert w0(0.0) == 0.0
    assert abs(w0(math.e) - 1.0) <= 1e-15
    assert abs(w0(1.0) - OMEGA) <= 1e-14
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 1: kernel accuracy", elapsed, 1)


def test_criterion_2_h_lemma_suite():
    t0 = time.perf_counter()
    fixtures = (-2.0, -1.0, -0.9, -0.75, -0.5, -0.25, -0.1, 0.0, 0.5, 2.0)
    cell = (9.0 - (-9.0)) * math.log(10.0) / 9_999  # log-grid spacing
    for p in fixtures:
        res = check_h_lemma(p)
        assert res.passed, res
        if -1.0 < p < 0.0:
            assert abs(res.grid_max - c_of_p(p)) <= 1e-6
            assert abs(math.log(res.grid_argmax) - math.log(h_p_argmax(p))) <= cell * 1.0000001
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 2: h-lemma suite", elapsed, 5)


def test_criterion_3_g_lemma_suite():
    t0 = time.perf_counter()
    fixtures = {
        (1.0, 1.0): "decreasing",
        (2.0, 1.0): "decreasing",
        (3.0, 3.0): "decreasing",
        (1.0, 2.0): "non-monotone",
        (0.0, 1.0): "increasing",
        (0.0, 1.5): "increasing",
        (0.0, -1.0): "decreasing",
        (0.0, 0.5): "non-monotone",
        (-1.0, -1.0): "increasing",
        (-2.0, -3.0): "non-monotone",
        (-0.5, -0.3): "increasing",  # -0.3 > C(-0.5) = 1 - sqrt(2)
        (-0.5, -1.0): "non-monotone",
    }
    assert len(fixtures) == 12
    assert -0.3 > c_of_p(-0.5) > -1.0
    for (p, q), expected in fixtures.items():
        res = check_g_lemma(p, q)
        assert res.expected == expected, (p, q, res)
        assert res.passed, (p, q, res)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 3: g-lemma suite", elapsed, 5)


def test_criterion_4_classification_grid():
    t0 = time.perf_counter()
    for p in GRID_AXIS:
        for q in GRID_AXIS:
            rep = verify_region(HpqParams(p, q), 10_000, 42)
            assert rep.verdict == "pass", (p, q, rep)
            assert rep.expected is classify(p, q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion 4: 121-point classification grid", elapsed, 60)


def test_criterion_5_neither_region_counterexamples():
    t0 = time.perf_counter()
    for p, q in ((2.0, 3.0), (-2.0, -3.0), (0.0, 0.5), (-0.5, -1.0)):
        pair = find_counterexamples(HpqParams(p, q), 100_000, 42)
        pos, neg = pair.violates_convexity, pair.violates_concavity
        assert pos.gap > significance_threshold(pos.lhs, pos.rhs), (p, q, pos)
        assert neg.gap < -significance_threshold(neg.lhs, neg.rhs), (p, q, neg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 5: neither-region counterexamples", elapsed, 10)


def test_criterion_6_inequality_chains():
    t0 = time.perf_counter()
    x, y = sample_pairs(42, 0, 100_000)
    sep = np.abs(np.log(x / y)) > 1e-2

    # harmonic-mean comparison: convex direction, never significantly violated
    _, _, lhs, rhs, gap = _compare(((-1.0, -1.0),), x, y)
    assert np.sum(gap > significance_threshold(lhs, rhs)) == 0
    # strict where double precision can express the sign: any positive
    # excursion is below two ulps of the compared values, and away from
    # the window floor the sign is strictly negative outright
    noise = 4.45e-16 * np.maximum(np.abs(lhs), np.abs(rhs))
    assert np.all(gap[sep] < noise[sep])
    resolvable = sep & (np.minimum(x, y) >= 1e-4)
    assert np.all(gap[resolvable] < 0.0)

    # full chain ordering, strict on separated pairs
    a, b, c, d = check_chain(x, y)
    tol = 1e-13 * np.maximum(1.0, d)
    assert np.all(a <= b + tol) and np.all(b <= c + tol) and np.all(c <= d + tol)
    assert np.all(a[sep] < b[sep])
    assert np.all(b[sep] < c[sep])
    assert np.all(c[sep] < d[sep])

    # equality on the diagonal
    for pq, xv in (((1.0, 1.0), 3.0), ((-1.0, -1.0), 0.25), ((0.0, 0.5), 40.0)):
        rec = compare_at(pq[0], pq[1], xv, xv)
        assert abs(rec.gap) <= 1e-13 * max(rec.lhs, 1.0)
    vals = check_chain(4.0, 4.0)
    assert max(vals) - min(vals) <= 1e-13 * max(vals)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 6: inequality chains", elapsed, 10)


def test_criterion_7_derivative_identities():
    t0 = time.perf_counter()
    # W' against a central finite difference
    z = np.logspace(-6, 6, 1_000)
    fd = (w0(z * (1 + 1e-6)) - w0(z * (1 - 1e-6))) / (2e-6 * z)
    d = w0_prime(z)
    assert np.max(np.abs(fd - d) / np.abs(d)) <= 1e-6

    # slope identity of h_p (orders away from zero-slope degeneracies)
    r = np.logspace(-3, 3, 1_000)
    for p in (2.0, 0.5, 0.0, -2.0, -3.0):
        fd = (np.asarray(h_p(p, r * (1 + 1e-6))) - np.asarray(h_p(p, r * (1 - 1e-6)))) / (
            2e-6 * r
        )
        formula = np.asarray(w0_prime(r)) * (p - np.asarray(f1(r)))
        assert np.max(np.abs(fd - formula) / np.abs(formula)) <= 1e-6

    # log-derivative identity of g_pq
    for p, q in ((1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (-2.0, 0.0)):
        w = np.asarray(w0(r))
        fd = (
            np.log(np.asarray(g_pq(p, q, r * (1 + 1e-6))))
            - np.log(np.asarray(g_pq(p, q, r * (1 - 1e-6))))
        ) / (2e-6 * r)
        formula = (q - np.asarray(h_p(p, r))) / (r * (w + 1.0))
        assert np.max(np.abs(fd - formula) / np.abs(formula)) <= 1e-6
    elapsed = time.perf_counter() - t0
    _report("criterion 7: derivative identities", elapsed, 10)


def test_criterion_8_raster_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    first = tmp_path / "map1.csv"
    second = tmp_path / "map2.csv"
    args = ["raster", "--window", "-3", "3", "-3", "3", "--step", "0.05"]
    assert cli_run(args + ["--out", str(first)]) == 0
    assert cli_run(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == "p,q,class"
    assert len(lines) == 1 + 121 * 121
    cells = {}
    for line in lines[1:]:
        ps, qs, label = line.split(",")
        p, q = float(ps), float(qs)
        assert classify(p, q).value == label
        cells[(ps, qs)] = label
    assert cells[("-1.0", "-1.0")] == "convex"
    assert cells[("1.0", "1.0")] == "concave"
    assert cells[("0.0", "0.5")] == "neither"
    assert cells[("-0.25", "0.0")] == "convex"
    elapsed = time.perf_counter() - t0
    _report("criterion 8: raster reproduction", elapsed, 30)
