"""Command-line surface: evaluation, classification, verification, raster.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or domain error.  Negative positional numbers can always be
passed after a ``--`` separator, e.g. ``wconvexity classify -- -1 -1``.
"""

import argparse
import sys

import numpy as np

from .lambert import w0
from .means import holder_mean
from .raster import build_raster, write_csv, write_svg
from .theory import ConvexityClass, HpqParams, classify
from .verify import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    GRID_AXIS,
    G_LEMMA_FIXTURES,
    H_LEMMA_FIXTURES,
    NEITHER_FIXTURES,
    SearchExhaustedError,
    check_chain,
    check_g_lemma,
    check_h_lemma,
    find_counterexamples,
    sample_pairs,
    verify_region,
)

__all__ = ["build_parser", "main", "run"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wconvexity",
        description="Lambert W, two-point power means, and the power-mean "
        "convexity classification of W with numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate W or a power mean")
    eval_sub = p_eval.add_subparsers(dest="what", required=True)
    p_w = eval_sub.add_parser("w", help="print W(z)")
    p_w.add_argument("z", type=float)
    p_mean = eval_sub.add_parser("mean", help="print the order-p mean of r and s")
    p_mean.add_argument("p", type=float)
    p_mean.add_argument("r", type=float)
    p_mean.add_argument("s", type=float)

    p_classify = sub.add_parser("classify", help="print convex/concave/neither for (p, q)")
    p_classify.add_argument("p", type=float)
    p_classify.add_argument("q", type=float)

    p_verify = sub.add_parser("verify", help="randomized region check for (p, q)")
    p_verify.add_argument("p", type=float)
    p_verify.add_argument("q", type=float)
    p_verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--json", dest="json_path", metavar="PATH", default=None)

    p_ce = sub.add_parser("counterexample", help="find both violation directions")
    p_ce.add_argument("p", type=float)
    p_ce.add_argument("q", type=float)
    p_ce.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_ce.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_raster = sub.add_parser("raster", help="write the region map as CSV (and SVG)")
    p_raster.add_argument(
        "--window",
        nargs=4,
        type=float,
        metavar=("PMIN", "PMAX", "QMIN", "QMAX"),
        default=[-3.0, 3.0, -3.0, 3.0],
    )
    p_raster.add_argument("--step", type=float, default=0.05)
    p_raster.add_argument("--out", required=True, metavar="PATH")
    p_raster.add_argument("--svg", dest="svg_path", metavar="PATH", default=None)

    p_self = sub.add_parser("selftest", help="run the full fixture suite")
    p_self.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_self.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_self.add_argument(
        "--inject-fault",
        action="store_true",
        help="flip the (1, 1) expectation; the run must then fail (harness test)",
    )
    return parser


def _cmd_eval(args):
    if args.what == "w":
        print(repr(w0(args.z)))
    else:
        print(repr(holder_mean(args.p, args.r, args.s)))
    return 0


def _cmd_classify(args):
    print(classify(args.p, args.q).value)
    return 0


def _cmd_verify(args):
    report = verify_region(HpqParams(args.p, args.q), args.samples, args.seed)
    print(
        f"p={args.p!r} q={args.q!r} expected={report.expected.value} "
        f"samples={report.n_samples} seed={report.seed}"
    )
    print(
        f"gap>0: {report.n_gap_positive}  gap<0: {report.n_gap_negative}  "
        f"max|gap|={report.max_abs_gap!r}"
    )
    print(f"verdict: {report.verdict}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    return 0 if report.verdict == "pass" else 1


def _cmd_counterexample(args):
    pair = find_counterexamples(HpqParams(args.p, args.q), args.budget, args.seed)
    for label, rec in (
        ("violates convexity", pair.violates_convexity),
        ("violates concavity", pair.violates_concavity),
    ):
        print(
            f"{label}: x={rec.x!r} y={rec.y!r} lhs={rec.lhs!r} rhs={rec.rhs!r} "
            f"gap={rec.gap!r}"
        )
    return 0


def _cmd_raster(args):
    p_min, p_max, q_min, q_max = args.window
    raster = build_raster(p_min, p_max, q_min, q_max, args.step)
    write_csv(raster, args.out)
    if args.svg_path:
        write_svg(raster, args.svg_path)
    return 0


def _selftest_checks(samples, seed, inject_fault):
    for p in H_LEMMA_FIXTURES:
        res = check_h_lemma(p)
        yield res.passed, f"h-lemma p={p:g} ({res.expected}: {res.rises} up / {res.falls} down)"
    for p, q in G_LEMMA_FIXTURES:
        res = check_g_lemma(p, q)
        yield res.passed, f"g-lemma p={p:g} q={q:g} ({res.expected}: {res.rises} up / {res.falls} down)"
    for p in GRID_AXIS:
        for q in GRID_AXIS:
            expected = None
            if inject_fault and (p, q) == (1.0, 1.0):
                expected = ConvexityClass.STRICTLY_CONVEX
            report = verify_region(HpqParams(p, q), samples, seed, expected=expected)
            yield (
                report.verdict == "pass",
                f"region p={p:g} q={q:g} ({report.expected.value}: "
                f"{report.n_gap_positive} pos / {report.n_gap_negative} neg)",
            )
    budget = max(10 * samples, 1)
    for p, q in NEITHER_FIXTURES:
        try:
            pair = find_counterexamples(HpqParams(p, q), budget, seed)
        except SearchExhaustedError as exc:
            yield False, f"counterexample p={p:g} q={q:g} ({exc})"
        else:
            ok = (
                pair.violates_convexity.gap > 0.0
                and pair.violates_concavity.gap < 0.0
            )
            yield ok, (
                f"counterexample p={p:g} q={q:g} "
                f"(gap +{pair.violates_convexity.gap:.3e} / "
                f"{pair.violates_concavity.gap:.3e})"
            )
    n_chain = min(samples, 10_000)
    x, y = sample_pairs(seed, 0, n_chain)
    a, b, c, d = check_chain(x, y)
    tol = 1e-13 * np.maximum(1.0, d)
    ok = bool(np.all(a <= b + tol) and np.all(b <= c + tol) and np.all(c <= d + tol))
    yield ok, f"chain ordering on {n_chain} samples"
    eq = check_chain(3.0, 3.0)
    ok_eq = max(eq) - min(eq) <= 1e-13 * max(1.0, max(eq))
    yield ok_eq, "chain equality on the diagonal"


def _cmd_selftest(args):
    failures = 0
    for ok, label in _selftest_checks(args.samples, args.seed, args.inject_fault):
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            failures += 1
    print(f"selftest: {failures} failure(s)")
    return 0 if failures == 0 else 1


_HANDLERS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "counterexample": _cmd_counterexample,
    "raster": _cmd_raster,
    "selftest": _cmd_selftest,
}


def run(argv):
    """Parse argv (no program name) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors.
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args)
    except SearchExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
