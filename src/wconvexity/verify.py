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
merged associatively with bit-identical results, which is also the
contract for parallel execution.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._checks import finite
from .lambert import w0
from .means import holder_mean, quartic_harmonic_form
from .theory import ConvexityClass, HpqParams, _ln_g, c_of_p, classify, h_p

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
# Tie threshold for grid monotonicity steps in the lemma checkers.
_STEP_SIGNIFICANCE = 1e-13
_LEMMA_DOMAIN = (1e-9, 1e9)

DEFAULT_SAMPLES = 10_000
DEFAULT_BUDGET = 100_000
DEFAULT_SEED = 42
_CHUNK = 1 << 16
_WORST_KEPT = 10

# Verification fixtures: the 11x11 soundness grid, the slope-lemma orders,
# the twelve g-lemma clause pairs, the four "neither" search targets, and
# one representative (p, q, verdict) per proof case of the classification.
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


def _check_seed(seed):
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


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
    """
    seed = _check_seed(seed)
    if start < 0 or count < 0:
        raise ValueError("start and count must be >= 0")
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


def significance_threshold(lhs, rhs):
    """Gap magnitude below which a comparison counts as a numerical tie."""
    return SIGNIFICANCE_REL * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)


def _gap_arrays(p, q, x, y):
    lhs = np.asarray(w0(holder_mean(p, x, y)))
    rhs = np.asarray(holder_mean(q, np.asarray(w0(x)), np.asarray(w0(y))))
    return lhs, rhs, lhs - rhs


def _record(p, q, columns, i):
    # columns = (x, y, lhs, rhs, gap) arrays; row i as a ComparisonRecord.
    x, y, lhs, rhs, gap = (float(column[i]) for column in columns)
    return ComparisonRecord(x=x, y=y, p=p, q=q, lhs=lhs, rhs=rhs, gap=gap)


def compare_at(p, q, x, y):
    """Evaluate the two sides at one scalar point; gap = lhs - rhs as stored."""
    p, q = float(p), float(q)
    xx = np.array([finite(x, "x")])
    yy = np.array([finite(y, "y")])
    return _record(p, q, (xx, yy, *_gap_arrays(p, q, xx, yy)), 0)


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

    worst, top and bottom hold ComparisonRecords ranked by _ranked: the
    _WORST_KEPT largest |gap| overall, and the largest significant positive
    and negative gap (empty when there is none).
    """

    positive: int
    negative: int
    worst: tuple
    top: tuple
    bottom: tuple


def _top_k(a, k):
    # Indices of the k largest entries of a, largest first and lower index
    # first among equals: argsort(-a, kind="stable")[:k] without the full sort.
    idx = np.arange(a.size)
    if a.size > k:
        kth = np.partition(a, a.size - k)[a.size - k]
        idx = np.flatnonzero(a >= kth)
    return idx[np.argsort(-a[idx], kind="stable")[:k]]


def _ranked(records, k):
    # The first k records by largest |gap|; the sort is stable, so among
    # equals the earlier record, which is the lower sample index, wins.
    return tuple(sorted(records, key=lambda rec: -abs(rec.gap))[:k])


def _scan_part(p, q, seed, start, count):
    """Scan samples [start, start+count) into a _Part."""
    x, y = sample_pairs(seed, start, count)
    lhs, rhs, gap = _gap_arrays(p, q, x, y)
    columns = (x, y, lhs, rhs, gap)
    tol = significance_threshold(lhs, rhs)
    abs_gap = np.abs(gap)
    positive = gap > tol
    negative = gap < -tol

    def extreme(mask):
        i = np.argmax(np.where(mask, abs_gap, -1.0))
        return (_record(p, q, columns, i),) if mask[i] else ()

    return _Part(
        positive=int(np.sum(positive)),
        negative=int(np.sum(negative)),
        worst=tuple(_record(p, q, columns, i) for i in _top_k(abs_gap, _WORST_KEPT)),
        top=extreme(positive),
        bottom=extreme(negative),
    )


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


def _scan_args(params, n, seed, name):
    # Shared argument checks of verify_region and find_counterexamples.
    if not isinstance(params, HpqParams):
        params = HpqParams(*params)
    n = int(n)
    if n < 1:
        raise ValueError(f"{name} must be >= 1")
    return params, n, _check_seed(seed)


def _scan(params, n, seed):
    # Samples [0, n) in chunks of _CHUNK, merged into one _Part.
    part = None
    for start in range(0, n, _CHUNK):
        piece = _scan_part(params.p, params.q, seed, start, min(_CHUNK, n - start))
        part = piece if part is None else _merge_parts(part, piece)
    return part


def _verdict(expected, n_positive, n_negative):
    if expected is ConvexityClass.STRICTLY_CONVEX:
        ok = n_positive == 0
    elif expected is ConvexityClass.STRICTLY_CONCAVE:
        ok = n_negative == 0
    else:
        ok = n_positive > 0 and n_negative > 0
    return "pass" if ok else "fail"


def verify_region(params, n_samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, expected=None):
    """Randomized sign check of the comparison over the sampling window.

    Draws n_samples log-uniform pairs, counts gaps beyond the significance
    threshold and grades the pattern against `expected` (classify(p, q)
    unless overridden).  Deterministic for a fixed seed.
    """
    params, n_samples, seed = _scan_args(params, n_samples, seed, "n_samples")
    if expected is None:
        expected = classify(params.p, params.q)
    part = _scan(params, n_samples, seed)
    return VerificationReport(
        params=params,
        expected=expected,
        n_samples=n_samples,
        n_gap_positive=part.positive,
        n_gap_negative=part.negative,
        max_abs_gap=abs(part.worst[0].gap),
        worst_records=part.worst,
        seed=seed,
        verdict=_verdict(expected, part.positive, part.negative),
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


def _golden_max(fun, a, b, iters=20):
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    return c if fc >= fd else d


def _refine(p, q, origin, sign):
    """Coordinate-wise golden-section polish of sign * gap around a scan extreme.

    Falls back to the scan's own record `origin` of the extreme when the
    polish ends below the |gap| the scan saw there.
    """
    lo, hi = SAMPLE_DOMAIN
    ln_lo, ln_hi = math.log(lo), math.log(hi)
    half_span = 0.5 * math.log(10.0)

    def signed_gap(lx, ly):
        return sign * compare_at(p, q, math.exp(lx), math.exp(ly)).gap

    point = [math.log(origin.x), math.log(origin.y)]
    best = signed_gap(*point)
    for coord in (0, 1):

        def fun(t):
            moved = list(point)
            moved[coord] = t
            return signed_gap(*moved)

        a = max(ln_lo, point[coord] - half_span)
        b = min(ln_hi, point[coord] + half_span)
        t = _golden_max(fun, a, b)
        val = fun(t)
        if val > best:
            best = val
            point[coord] = t
    rec = compare_at(p, q, *map(math.exp, point))
    return origin if sign * rec.gap < abs(origin.gap) else rec


def find_counterexamples(params, budget=DEFAULT_BUDGET, seed=DEFAULT_SEED):
    """One significant violation per direction inside a "neither" region.

    Scans `budget` seeded samples for the extreme positive and negative
    gaps, then polishes each extreme with coordinate-wise golden-section
    steps.  Raises SearchExhaustedError when a direction never shows up
    (either the budget is too small or the implementation is wrong: the
    classification guarantees both exist).
    """
    params, budget, seed = _scan_args(params, budget, seed, "budget")
    if classify(params.p, params.q) is not ConvexityClass.NEITHER:
        raise ValueError("find_counterexamples requires a 'neither' pair")
    part = _scan(params, budget, seed)
    missing = [
        name
        for name, found in (("positive", part.top), ("negative", part.bottom))
        if not found
    ]
    if missing:
        raise SearchExhaustedError(
            f"no significant {' or '.join(missing)} gap found for "
            f"(p={params.p}, q={params.q}) within budget {budget}"
        )
    return CounterexamplePair(
        violates_convexity=_refine(params.p, params.q, part.top[0], +1.0),
        violates_concavity=_refine(params.p, params.q, part.bottom[0], -1.0),
    )


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
    wx = w0(x)
    wy = w0(y)
    a = w0(quartic_harmonic_form(x, y))
    b = holder_mean(0.0, wx, wy)
    c = w0(holder_mean(0.0, x, y))
    d = holder_mean(1.0, wx, wy)
    return a, b, c, d


# --------------------------------------------------------------------------
# Lemma checks: monotonicity on dense log grids.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HLemmaCheck:
    """Grid verdict on the monotonicity / interior maximum of h_p."""

    p: float
    grid_size: int
    expected: str
    rises: int
    falls: int
    grid_max: float
    grid_argmax: float
    max_bound: float
    passed: bool


@dataclass(frozen=True)
class GLemmaCheck:
    """Grid verdict on the monotonicity of g_pq."""

    p: float
    q: float
    grid_size: int
    expected: str
    rises: int
    falls: int
    passed: bool


def _count_steps(values):
    # Steps below the tie threshold are rounding noise, not monotonicity
    # evidence: near flat stretches adjacent values can round identically.
    diffs = np.diff(values)
    tau = _STEP_SIGNIFICANCE * np.maximum(
        1.0, np.maximum(np.abs(values[:-1]), np.abs(values[1:]))
    )
    return int(np.sum(diffs > tau)), int(np.sum(diffs < -tau))


def _shape_holds(expected, rises, falls):
    if expected == "increasing":
        return rises > 0 and falls == 0
    if expected == "decreasing":
        return falls > 0 and rises == 0
    return rises > 0 and falls > 0


def _lemma_grid(grid_size):
    grid_size = int(grid_size)
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
    lo, hi = _LEMMA_DOMAIN
    return np.logspace(math.log10(lo), math.log10(hi), grid_size)


def check_h_lemma(p, grid_size=10_000):
    """Confirm the expected shape of h_p on a log grid over [1e-9, 1e9].

    p >= 0: strictly increasing; p <= -1: strictly decreasing; otherwise
    non-monotone with grid maximum at most c_of_p(p) + 1e-8.
    """
    p = float(p)
    r = _lemma_grid(grid_size)
    values = np.asarray(h_p(p, r))
    rises, falls = _count_steps(values)
    i_max = int(np.argmax(values))
    grid_max = float(values[i_max])
    if p >= 0.0:
        expected, bound = "increasing", math.inf
    elif p <= -1.0:
        expected, bound = "decreasing", math.inf
    else:
        expected, bound = "interior-max", c_of_p(p) + 1e-8
    return HLemmaCheck(
        p=p,
        grid_size=int(grid_size),
        expected=expected,
        rises=rises,
        falls=falls,
        grid_max=grid_max,
        grid_argmax=float(r[i_max]),
        max_bound=bound,
        passed=_shape_holds(expected, rises, falls) and grid_max <= bound,
    )


# g_pq increases exactly where W is convex for (p, q), decreases exactly
# where it is concave, and is non-monotone in the "neither" region.
_G_SHAPE = {
    ConvexityClass.STRICTLY_CONVEX: "increasing",
    ConvexityClass.STRICTLY_CONCAVE: "decreasing",
    ConvexityClass.NEITHER: "non-monotone",
}


def check_g_lemma(p, q, grid_size=10_000):
    """Confirm the expected monotonicity clause of g_pq on the log grid.

    The clause is the one classify(p, q) selects; evaluation runs in log
    space so extreme orders cannot overflow.
    """
    p = float(p)
    q = float(q)
    r = _lemma_grid(grid_size)
    rises, falls = _count_steps(_ln_g(p, q, r, np.asarray(w0(r)))[2])
    expected = _G_SHAPE[classify(p, q)]
    return GLemmaCheck(
        p=p,
        q=q,
        grid_size=int(grid_size),
        expected=expected,
        rises=rises,
        falls=falls,
        passed=_shape_holds(expected, rises, falls),
    )
