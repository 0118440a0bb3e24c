"""Randomized numerical verification of the convexity classification.

Everything here is evidence, not proof: verify_region samples the
comparison W(H_p(x, y)) vs H_q(W(x), W(y)) over a log-uniform window and
checks that the sign pattern matches classify(); find_counterexamples
hunts for both violation directions inside a "neither" region; the lemma
checkers confirm the monotone / non-monotone behaviour of h_p and g_pq on
dense grids; check_chain evaluates the four-member harmonic-to-arithmetic
inequality chain.

Sampling is counter-based: sample i of a run draws its two coordinates
from SplitMix64 outputs at positions (seed, 2i) and (seed, 2i + 1).  Any
partition of the index space can therefore be scanned independently and
merged associatively with bit-identical results.
"""

import functools
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass

import numpy as np

from ._checks import finite, integer, positive
from .lambert import w0
from .means import holder_mean, quartic_harmonic_form
from .theory import ConvexityClass, HpqParams, _h, _ln_g, c_of_p, classify

__all__ = [
    "ComparisonRecord",
    "CounterexamplePair",
    "SearchExhaustedError",
    "VerificationReport",
    "check_chain",
    "check_g_lemma",
    "check_h_lemma",
    "compare_at",
    "find_counterexamples",
    "sample_pairs",
    "verify_region",
]

# |gap| at or below SIGNIFICANCE_REL * max(|lhs|, |rhs|, 1) is a tie:
# indistinguishable from rounding noise, never counted as a violation.
SIGNIFICANCE_REL = 1e-12
# Log-uniform sampling window per coordinate.  The upper edge must clear
# the largest turning radius of g_pq over the fixture grid: at (p, q) =
# (-0.1, -3) the slope function h_p only crosses q near r ~ 2.6e18, and
# below that radius the comparison cannot show its second sign at all.
# 1e22 keeps >= 10% of each coordinate's mass beyond that radius.
SAMPLE_DOMAIN = (1e-6, 1e22)
# Tie threshold for neighbour steps: lemma grid values, chain members.
_STEP_SIGNIFICANCE = 1e-13
# Log grid over [1e-9, 1e9] shared by the lemma checkers, W on it, and the
# logs that ln g_pq takes: ln r, ln W and log1p W.
_LEMMA_GRID = np.logspace(-9.0, 9.0, 10_000)
_LEMMA_W = w0(_LEMMA_GRID)
_LEMMA_LOGS = np.log(_LEMMA_GRID), np.log(_LEMMA_W), np.log1p(_LEMMA_W)

DEFAULT_SAMPLES = 10_000
DEFAULT_BUDGET = 100_000
DEFAULT_SEED = 42
# Samples per chunk.  Each worker thread has one chunk in flight, and a
# one-cell _scan_part peaks at 3.0 MiB (tracemalloc) at 2**15, 6.0 MiB at
# 2**16.  With two workers, 2**16 raised a 1M-sample verify's peak RSS by
# 22.6% (43.25 -> 53.03 MB); 2**15 raises it by 1.6-2.0 MB.
_CHUNK = 1 << 15
_WORST_KEPT = 10

# Verification fixtures: the 11x11 soundness grid, the slope-lemma orders,
# the twelve g-lemma clause pairs, and the four "neither" search targets.
GRID_AXIS = (-3.0, -2.0, -1.0, -0.75, -0.5, -0.25, -0.1, 0.0, 0.25, 1.0, 2.0)
H_LEMMA_FIXTURES = (-2.0, -1.0, -0.9, -0.75, -0.5, -0.25, -0.1, 0.0, 0.5, 2.0)
G_LEMMA_FIXTURES = (
    (1.0, 1.0),
    (2.0, 1.0),
    (3.0, 3.0),
    (1.0, 2.0),
    (0.0, 1.0),
    (0.0, -1.0),
    (0.0, 0.5),
    (-1.0, -1.0),
    (-1.0, 1.0),
    (-2.0, -3.0),
    (-0.5, -0.3),
    (-0.5, -1.0),
)
NEITHER_FIXTURES = ((2.0, 3.0), (-2.0, -3.0), (0.0, 0.5), (-0.5, -1.0))


def _selftest_checks(samples, seed, inject_fault):
    """Yield (passed, label) for each selftest check of the fixtures above.

    inject_fault flips the (1, 1) region expectation, so the run must fail.
    """
    samples, seed = _scan_args(samples, seed, "n_samples", 2**63 // 10)  # the searches read 10 * samples
    for p in H_LEMMA_FIXTURES:
        res = check_h_lemma(p)
        yield res.passed, f"h-lemma p={p:g} ({res.expected}: {res.rises} up / {res.falls} down)"
    for p, q in G_LEMMA_FIXTURES:
        res = check_g_lemma(p, q)
        yield res.passed, f"g-lemma p={p:g} q={q:g} ({res.expected}: {res.rises} up / {res.falls} down)"
    # The searches' first samples are the grid's: a head scan takes each distinct
    # cell of the grid and the searches once on [0, samples), sorted so that each
    # p-row shares its W(H_p), and a tail scan takes the searches' rest.  At the
    # default samples the head is one chunk, which runs on this thread.
    grid = tuple(itertools.product(GRID_AXIS, GRID_AXIS))
    head = sorted({*grid, *NEITHER_FIXTURES})
    modes = ["extremes" if cell in NEITHER_FIXTURES else False for cell in head]
    parts = dict(zip(head, _scan(head, samples, seed, modes)))
    for (p, q), part in zip(grid, map(parts.get, grid)):
        cls = ConvexityClass.STRICTLY_CONVEX if inject_fault and (p, q) == (1.0, 1.0) else classify(p, q)
        yield (
            _verdict(cls, part.positive, part.negative) == "pass",
            f"region p={p:g} q={q:g} ({cls.value}: {part.positive} pos / {part.negative} neg)",
        )
    budget = 10 * samples
    tail = _scan(NEITHER_FIXTURES, budget - samples, seed, "extremes", start=samples)
    searches = map(_merge_parts, map(parts.get, NEITHER_FIXTURES), tail)
    for (p, q), pair in zip(NEITHER_FIXTURES, _witnesses(NEITHER_FIXTURES, searches, budget)):
        if isinstance(pair, SearchExhaustedError):
            yield False, f"counterexample p={p:g} q={q:g} ({pair})"
        else:
            ok = pair.violates_convexity.gap > 0.0 > pair.violates_concavity.gap
            yield ok, (
                f"counterexample p={p:g} q={q:g} "
                f"(gap +{pair.violates_convexity.gap:.3e} / "
                f"{pair.violates_concavity.gap:.3e})"
            )
    n_chain = min(samples, 10_000)
    x, y = sample_pairs(seed, 0, n_chain)
    steps = itertools.pairwise(check_chain(x, y))
    ok = all(np.all(lo <= hi + significance_threshold(lo, hi, _STEP_SIGNIFICANCE)) for lo, hi in steps)
    yield ok, f"chain ordering on {n_chain} samples"
    steps = itertools.pairwise(check_chain(3.0, 3.0))
    ok_eq = all(abs(hi - lo) <= significance_threshold(lo, hi, _STEP_SIGNIFICANCE) for lo, hi in steps)
    yield ok_eq, "chain equality on the diagonal"


class SearchExhaustedError(RuntimeError):
    """Counterexample search used its whole budget without both directions."""


# --------------------------------------------------------------------------
# Counter-based sampling (SplitMix64).
#
# output(seed, j) = mix(seed + (j + 1) * 0x9E3779B97F4A7C15) with the
# standard SplitMix64 finaliser; uniform doubles take the top 53 bits.
# The algorithm is fixed for the life of this package: reports quote only
# the seed, and identical seeds must reproduce identical reports anywhere.
# --------------------------------------------------------------------------

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_ONE = np.uint64(1)


def _splitmix64(seed, positions):
    z = np.uint64(seed) + (positions + _U64_ONE) * _SM_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM_MIX1
    z = (z ^ (z >> np.uint64(27))) * _SM_MIX2
    z = z ^ (z >> np.uint64(31))
    return z


def _uniform01(seed, positions):
    return (_splitmix64(seed, positions) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def sample_pairs(seed, start, count):
    """Coordinates of samples start .. start+count-1 of the seeded stream.

    Log-uniform over SAMPLE_DOMAIN per coordinate; depends only on
    (seed, sample index), never on how the index space is chunked.
    Indices stay below 2**63, so the counter positions 2i and 2i + 1
    never wrap modulo 2**64.
    """
    seed = integer(seed, "seed", 0, 2**64)
    start = integer(start, "start", 0, 2**63)
    count = integer(count, "count", 0, 2**63 - start + 1)
    idx = np.arange(start, start + count, dtype=np.uint64)
    lo, hi = SAMPLE_DOMAIN
    ln_lo, ln_hi = math.log(lo), math.log(hi)
    span = ln_hi - ln_lo
    two = np.uint64(2)
    x = np.exp(ln_lo + span * _uniform01(seed, idx * two))
    y = np.exp(ln_lo + span * _uniform01(seed, idx * two + _U64_ONE))
    return x, y


# --------------------------------------------------------------------------
# Pointwise comparison.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRecord:
    """One evaluation of W(H_p(x, y)) against H_q(W(x), W(y))."""

    x: float
    y: float
    p: float
    q: float
    lhs: float
    rhs: float
    gap: float


def significance_threshold(lhs, rhs, rel=SIGNIFICANCE_REL):
    """Gap magnitude below which a comparison counts as a numerical tie."""
    return rel * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)


def _compare(cells, x, y):
    """(x, y, lhs, rhs, gap) columns; cell i owns row i of x.reshape(len(cells), -1).

    One w0 call covers [H_p(x, y) per cell, x, y].  w0 is elementwise and
    each row is contiguous, so every cell gets what it would get alone.
    """
    xs, ys = x.reshape(len(cells), -1), y.reshape(len(cells), -1)
    means = [holder_mean(p, xr, yr) for (p, _), xr, yr in zip(cells, xs, ys)]
    lhs, wx, wy = w0(np.concatenate([*means, x, y])).reshape(3, *xs.shape)
    rhs = np.concatenate([holder_mean(q, a, b) for (_, q), a, b in zip(cells, wx, wy)])
    lhs = lhs.ravel()
    return x, y, lhs, rhs, lhs - rhs


def _record(p, q, columns, i):
    # columns = (x, y, lhs, rhs, gap) arrays; row i as a ComparisonRecord.
    x, y, lhs, rhs, gap = (float(column[i]) for column in columns)
    return ComparisonRecord(x=x, y=y, p=p, q=q, lhs=lhs, rhs=rhs, gap=gap)


def compare_at(p, q, x, y):
    """Evaluate the two sides at one scalar point; gap = lhs - rhs as stored."""
    p, q = finite(p, "p"), finite(q, "q")
    xx, yy = positive([finite(x, "x")], "x"), positive([finite(y, "y")], "y")
    return _record(p, q, _compare(((p, q),), xx, yy), 0)


# --------------------------------------------------------------------------
# Region verification.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of one randomized region check."""

    params: HpqParams
    expected: ConvexityClass
    n_samples: int
    n_gap_positive: int
    n_gap_negative: int
    max_abs_gap: float
    worst_records: tuple
    seed: int
    verdict: str

    def to_json(self):
        """Single JSON document; floats round-trip exactly via repr."""
        doc = asdict(self)
        doc["expected"] = self.expected.value
        return json.dumps(doc)


@dataclass(frozen=True)
class _Part:
    """Scan result over a range of sample indices; _merge_parts combines two.

    Every _cell_part mode fills the sign counts; records=True alone fills worst,
    the _WORST_KEPT largest |gap|, and "extremes" alone top and bottom, the largest
    significant positive and negative gap (empty if none); all ranked by _ranked.
    """

    positive: int
    negative: int
    worst: tuple
    top: tuple
    bottom: tuple


def _top_k(a, k):
    # argsort(-a, kind="stable")[:k] without the full sort: the k largest, ties to the
    # lower index.  a is never empty (a chunk holds a sample) nor NaN: gaps are finite,
    # which _cell_part's abs_gap * mask argmax needs too (inf * 0 is NaN).
    kth = max(a.size - k, 0)
    idx = np.flatnonzero(a >= np.partition(a, kth)[kth])
    return idx[np.argsort(-a[idx], kind="stable")[:k]]


def _ranked(records, k):
    # The first k records by largest |gap|; the sort is stable, so among
    # equals the earlier record, which is the lower sample index, wins.
    return tuple(sorted(records, key=lambda rec: -abs(rec.gap))[:k])


def _cell_part(p, q, x, y, lhs, rhs, records):
    """One cell's _Part: counts, plus worst for records=True or top and bottom for "extremes"."""
    gap = lhs - rhs
    # significance_threshold without its abs: lhs = W(H_p) and rhs = H_q(W, W) are > 0.
    tol = SIGNIFICANCE_REL * np.maximum(np.maximum(lhs, rhs), 1.0)
    positive = gap > tol
    negative = gap < -tol
    counts = int(np.count_nonzero(positive)), int(np.count_nonzero(negative))
    if not records:
        return _Part(*counts, (), (), ())
    columns, abs_gap = (x, y, lhs, rhs, gap), np.abs(gap)
    if records != "extremes":
        return _Part(*counts, tuple(_record(p, q, columns, i) for i in _top_k(abs_gap, _WORST_KEPT)), (), ())
    ends = []
    for mask in (positive, negative):
        # Masked-in gaps exceed tol > 0 and the rest read 0; with none, mask[0] is False.
        i = np.argmax(abs_gap * mask)
        ends.append((_record(p, q, columns, i),) if mask[i] else ())
    return _Part(*counts, (), *ends)


def _scan_part(cells, seed, start, count, records=True):
    """Scan samples [start, start+count) into one _Part per (p, q) cell.

    records is one _cell_part mode for every cell, or a sequence of one
    mode per cell: False (counts), True (worst too) or "extremes" (top and
    bottom too).  W(H_p(x, y)) is taken once per distinct p, W(x) and
    W(y) once, and H_q(W(x), W(y)) once per distinct q; the cells share
    these columns.  Each column is made just before its first cell and
    dropped after its last, W(x) and W(y) once every H_q exists: a 1x1
    scan keeps the memory and page faults of one comparison.
    """
    x, y = sample_pairs(seed, start, count)
    modes = records if isinstance(records, (list, tuple)) else [records] * len(cells)
    last = {key: i for i, cell in enumerate(cells) for key in zip("pq", cell)}
    todo_q = {q for _, q in cells}
    columns, w, parts = {}, None, []
    for i, ((p, q), mode) in enumerate(zip(cells, modes, strict=True)):
        if ("p", p) not in columns:
            columns["p", p] = w0(holder_mean(p, x, y))
        if ("q", q) not in columns:
            w = w or (w0(x), w0(y))
            columns["q", q] = holder_mean(q, *w)
            todo_q.discard(q)
            w = w if todo_q else None
        parts.append(_cell_part(p, q, x, y, columns["p", p], columns["q", q], mode))
        # A dropped column keeps its key, so it is never made again.
        columns.update((key, None) for key in zip("pq", (p, q)) if last[key] == i)
    return parts


def _merge_parts(a, b):
    """Combine the parts of two adjacent index ranges, a before b.

    Ranked records carry no sample index: ties in |gap| go to a's record
    because _ranked sorts stably, so parts must be merged in sample order.
    """
    return _Part(
        positive=a.positive + b.positive,
        negative=a.negative + b.negative,
        worst=_ranked(a.worst + b.worst, _WORST_KEPT),
        top=_ranked(a.top + b.top, 1),
        bottom=_ranked(a.bottom + b.bottom, 1),
    )


def _scan_args(n, seed, name, n_max=2**63):
    # Shared argument checks of every caller of _scan, before any work: sample indices stay below 2**63.
    return integer(n, name, 1, n_max + 1), integer(seed, "seed", 0, 2**64)


def _cell(params):
    # The (p, q) cell of an HpqParams, or of a pair that HpqParams checks.
    return astuple(params if isinstance(params, HpqParams) else HpqParams(*params))


def _workers():
    # The CPUs this process may run on.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan(cells, n, seed, records=True, start=0):
    """Samples [start, start+n) in chunks of _CHUNK, merged into one _Part per cell.

    records is as for _scan_part, and picks the _Part fields filled.  The
    chunks run on up to _workers() threads, one chunk per thread at a time:
    NumPy releases the GIL in its loops, and _scan_part is pure.  A scan with
    one worker or one chunk starts no thread.  The calling thread queues 64
    chunks at a time (31 make a 1M-sample scan) and folds each piece in sample
    order as it arrives: the result does not depend on the worker count, nor memory on n.
    """
    stop = start + n
    starts = range(start, stop, _CHUNK)

    def scan(i):
        return _scan_part(cells, seed, i, min(_CHUNK, stop - i), records)

    workers = min(_workers(), len(starts))
    with ThreadPoolExecutor(workers) as pool:
        batches = (starts[i : i + 64] for i in range(0, len(starts), 64))
        pieces = itertools.chain.from_iterable((pool.map if workers > 1 else map)(scan, b) for b in batches)
        return functools.reduce(lambda a, b: list(map(_merge_parts, a, b)), pieces)


def _verdict(expected, n_positive, n_negative):
    if expected is ConvexityClass.STRICTLY_CONVEX:
        ok = n_positive == 0
    elif expected is ConvexityClass.STRICTLY_CONCAVE:
        ok = n_negative == 0
    else:
        ok = n_positive > 0 and n_negative > 0
    return "pass" if ok else "fail"


def verify_region(params, n_samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
    """Randomized sign check of the comparison over the sampling window.

    Draws n_samples log-uniform pairs, counts gaps beyond the significance
    threshold and grades the pattern against classify(p, q).  Deterministic
    for a fixed seed.  The window cannot grade a "neither" cell whose
    turning radius r* lies beyond SAMPLE_DOMAIN: it shows one gap sign
    only and fails, e.g. (-0.01, q) for q = -0.05, -1, -3.
    """
    (p, q), (n_samples, seed) = _cell(params), _scan_args(n_samples, seed, "n_samples")
    (part,) = _scan(((p, q),), n_samples, seed)
    cls = classify(p, q)
    return VerificationReport(
        params=HpqParams(p, q),
        expected=cls,
        n_samples=n_samples,
        n_gap_positive=part.positive,
        n_gap_negative=part.negative,
        max_abs_gap=abs(part.worst[0].gap),
        worst_records=part.worst,
        seed=seed,
        verdict=_verdict(cls, part.positive, part.negative),
    )


# --------------------------------------------------------------------------
# Counterexample search.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexamplePair:
    """Witnesses that neither inequality direction holds globally."""

    violates_convexity: ComparisonRecord
    violates_concavity: ComparisonRecord


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps per _compare call, a divisor of the 20 per coordinate: the call
# takes the probes of the next _LOOKAHEAD steps for both outcomes of each comparison,
# 31 per direction, so a polish makes 10 calls (45 at one step per call).  On the NumPy
# tree before _step (BENCH_17.json), a polish of (-0.5, -1) / the four NEITHER_FIXTURES
# took 9.5/15.9 ms at depth 2, 6.1/10.8 at 4, 6.0/10.1 at 5, 10.2/28.6 at 10 (2 CPUs).
_LOOKAHEAD = 5


def _step(a, b, c, d, left):
    # One golden-section step on [a, b] with probes c < d: keep [a, d] when
    # f(c) >= f(d) (left), else [c, b].  The new probe is c if left, else d.
    if left:
        return a, d, d - _INV_PHI * (d - a), c
    return c, b, d, c + _INV_PHI * (b - c)


def _refine(cells, origins):
    """Golden-section polish of every cell's scan extremes, all in lockstep.

    origins holds each cell's (top, bottom) records in turn; direction i
    maximises signs[i] * gap, one coordinate at a time.  Each _compare call
    fills every direction's table probe -> (signs[i] * gap, columns, row) for
    its next _LOOKAHEAD steps, which then run on Python floats: each direction
    equals its own scalar search bit for bit, and its final point takes its
    record from the table.  It keeps its origin if the polish ends below |gap|.
    """
    signs = [1.0, -1.0] * len(cells)
    ln_lo, ln_hi = (math.log(v) for v in SAMPLE_DOMAIN)
    half_span = 0.5 * math.log(10.0)
    points = [[math.log(o.x), math.log(o.y)] for o in origins]

    def evaluate(coord, probes):
        # Lists of one length along coord; math.exp, as np.exp can differ in the last bit.
        logs = [[t if k == coord else pt[k] for pt, ts in zip(points, probes) for t in ts] for k in (0, 1)]
        cols = _compare(cells, *(np.array([math.exp(v) for v in row]) for row in logs))
        gaps, n = cols[4].tolist(), len(probes[0])
        for i, ts in enumerate(probes):
            tables[i].update((t, (signs[i] * gaps[j], cols, j)) for j, t in enumerate(ts, i * n))

    def left(table, bracket):
        return table[bracket[2]][0] >= table[bracket[3]][0]

    for coord in (0, 1):
        tables = [{} for _ in points]
        spans = [(max(ln_lo, pt[coord] - half_span), min(ln_hi, pt[coord] + half_span)) for pt in points]
        brackets = [(a, b, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)) for a, b in spans]
        evaluate(coord, [[pt[coord], c, d] for pt, (_, _, c, d) in zip(points, brackets)])
        for _ in range(20 // _LOOKAHEAD):
            reach = []
            for table, bracket in zip(tables, brackets):
                nodes, probes = [(bracket, left(table, bracket))], []
                for _ in range(_LOOKAHEAD):
                    steps = [_step(*s, branch) for s, branch in nodes]
                    probes += [s[2] if branch else s[3] for s, (_, branch) in zip(steps, nodes)]
                    nodes = [(s, branch) for s in steps for branch in (True, False)]
                reach.append(probes)
            evaluate(coord, reach)
            for i, table in enumerate(tables):
                for _ in range(_LOOKAHEAD):
                    brackets[i] = _step(*brackets[i], left(table, brackets[i]))
        for point, table, bracket in zip(points, tables, brackets):
            t = bracket[2] if left(table, bracket) else bracket[3]
            if table[t][0] > table[point[coord]][0]:
                point[coord] = t
    recs = (_record(*cells[i // 2], *tables[i][point[1]][1:]) for i, point in enumerate(points))
    return tuple(o if s * r.gap < abs(o.gap) else r for o, s, r in zip(origins, signs, recs))


def _witnesses(cells, parts, budget):
    # Each cell's CounterexamplePair, or its own SearchExhaustedError, from its
    # "extremes" part of samples [0, budget): one _refine of all tops and bottoms.
    results, searched, origins = [], [], []
    for (p, q), part in zip(cells, parts, strict=True):
        missing = [name for name, ext in (("positive", part.top), ("negative", part.bottom)) if not ext]
        if missing:
            results.append(SearchExhaustedError(
                f"no significant {' or '.join(missing)} gap found for "
                f"(p={p}, q={q}) within budget {budget}"
            ))
        else:
            results.append(None)
            searched.append((p, q))
            origins += [part.top[0], part.bottom[0]]
    refined = _refine(searched, origins) if searched else ()
    pairs = map(CounterexamplePair, refined[::2], refined[1::2])
    return [next(pairs) if result is None else result for result in results]


def find_counterexamples(params, budget=DEFAULT_BUDGET, seed=DEFAULT_SEED):
    """One significant violation per direction inside a "neither" region.

    Scans `budget` seeded samples for the extreme positive and negative
    gaps, then polishes each extreme with coordinate-wise golden-section
    steps.  Raises SearchExhaustedError when a direction never shows up,
    although the classification guarantees both exist: the budget is too
    small, the cell's turning radius r* lies beyond SAMPLE_DOMAIN (e.g.
    (-0.01, q) for q = -0.05, -1, -3, where ln r* is 108, 204 and 405), or
    the implementation is wrong.
    """
    cell, (budget, seed) = _cell(params), _scan_args(budget, seed, "budget")
    if classify(*cell) is not ConvexityClass.NEITHER:
        raise ValueError("find_counterexamples requires a 'neither' pair")
    (pair,) = _witnesses((cell,), _scan((cell,), budget, seed, "extremes"), budget)
    if isinstance(pair, SearchExhaustedError):
        raise pair
    return pair


# --------------------------------------------------------------------------
# Inequality chain.
# --------------------------------------------------------------------------


def check_chain(x, y):
    """The four-member chain at (x, y), ordered smallest to largest:

        W(quartic harmonic form) <= geometric mean of W values
        <= W(geometric mean) <= arithmetic mean of W values.

    All members coincide exactly when x == y; for x != y every inequality
    is strict.  Accepts scalars or arrays.
    """
    a = w0(quartic_harmonic_form(x, y))
    wx, wy = w0(x), w0(y)
    b = holder_mean(0.0, wx, wy)
    c = w0(holder_mean(0.0, x, y))
    d = holder_mean(1.0, wx, wy)
    return a, b, c, d


# --------------------------------------------------------------------------
# Lemma checks: monotonicity on dense log grids.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    """Verdict on the shape of h_p (q is None) or of ln g_pq over _LEMMA_GRID.

    grid_max, at grid_argmax, is the largest checked value; passed needs the
    expected shape and, for h_p with -1 < p < 0, grid_max <= c_of_p(p) + 1e-8.
    """

    p: float
    q: float | None
    expected: str
    rises: int
    falls: int
    grid_max: float
    grid_argmax: float
    passed: bool


def _lemma_check(p, q, values, expected, bound=math.inf):
    # Steps below the tie threshold are rounding noise, not monotonicity
    # evidence: near flat stretches adjacent values can round identically.
    if not np.all(np.isfinite(values)):
        orders = f"p={p}" if q is None else f"p={p}, q={q}"
        raise OverflowError(f"lemma grid values at {orders} leave the double range")
    diffs = np.diff(values)
    tau = significance_threshold(values[:-1], values[1:], _STEP_SIGNIFICANCE)
    rises, falls = int(np.sum(diffs > tau)), int(np.sum(diffs < -tau))
    if expected == "increasing":
        shape = rises > 0 and falls == 0
    elif expected == "decreasing":
        shape = falls > 0 and rises == 0
    else:
        shape = rises > 0 and falls > 0
    i_max = int(np.argmax(values))
    grid_max = float(values[i_max])
    return LemmaCheck(
        p=p,
        q=q,
        expected=expected,
        rises=rises,
        falls=falls,
        grid_max=grid_max,
        grid_argmax=float(_LEMMA_GRID[i_max]),
        passed=shape and grid_max <= bound,
    )


def check_h_lemma(p):
    """Confirm the expected shape of h_p on _LEMMA_GRID.

    p >= 0: strictly increasing; p <= -1: strictly decreasing; otherwise
    non-monotone with grid maximum at most c_of_p(p) + 1e-8.  Raises
    OverflowError where h_p on the grid is not finite (|p| near 1e308).
    """
    p = finite(p, "p")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _h(p, _LEMMA_W)
    if p >= 0.0:
        return _lemma_check(p, None, values, "increasing")
    if p <= -1.0:
        return _lemma_check(p, None, values, "decreasing")
    return _lemma_check(p, None, values, "interior-max", c_of_p(p) + 1e-8)


# g_pq increases exactly where W is convex for (p, q), decreases exactly
# where it is concave, and is non-monotone in the "neither" region.
_G_SHAPE = {
    ConvexityClass.STRICTLY_CONVEX: "increasing",
    ConvexityClass.STRICTLY_CONCAVE: "decreasing",
    ConvexityClass.NEITHER: "non-monotone",
}


def check_g_lemma(p, q):
    """Confirm the expected monotonicity clause of g_pq on _LEMMA_GRID.

    The clause is the one classify(p, q) selects; evaluation runs in log
    space, and raises OverflowError only where ln g_pq on the grid is not
    finite (|p| or |q| near 1e308).
    """
    p, q = finite(p, "p"), finite(q, "q")
    with np.errstate(over="ignore", invalid="ignore"):
        ln_g = _ln_g(p, q, *_LEMMA_LOGS)[2]
    return _lemma_check(p, q, ln_g, _G_SHAPE[classify(p, q)])
