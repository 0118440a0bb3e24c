"""Command-line surface: evaluation, classification, verification, raster.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or domain error.  Negative positional numbers can always be
passed after a ``--`` separator, e.g. ``wconvexity classify -- -1 -1``.
"""

import argparse
import functools
import sys

from .lambert import w0
from .means import holder_mean
from .raster import build_raster, write_csv, write_svg
from .theory import HpqParams, classify
from .verify import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SearchExhaustedError,
    _selftest_checks,
    find_counterexamples,
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
    pq = argparse.ArgumentParser(add_help=False)
    pq.add_argument("p", type=float)
    pq.add_argument("q", type=float)

    p_eval = sub.add_parser("eval", help="evaluate W or a power mean")
    p_eval.set_defaults(handler=_cmd_eval)
    eval_sub = p_eval.add_subparsers(dest="what", required=True)
    p_w = eval_sub.add_parser("w", help="print W(z)")
    p_w.add_argument("z", type=float)
    p_mean = eval_sub.add_parser("mean", help="print the order-p mean of r and s")
    p_mean.add_argument("p", type=float)
    p_mean.add_argument("r", type=float)
    p_mean.add_argument("s", type=float)

    p_classify = sub.add_parser("classify", parents=[pq], help="print convex/concave/neither for (p, q)")
    p_classify.set_defaults(handler=_cmd_classify)

    p_verify = sub.add_parser("verify", parents=[pq], help="randomized region check for (p, q)")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--json", dest="json_path", metavar="PATH", default=None)

    p_ce = sub.add_parser("counterexample", parents=[pq], help="find both violation directions")
    p_ce.set_defaults(handler=_cmd_counterexample)
    p_ce.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_ce.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_raster = sub.add_parser("raster", help="write the region map as CSV (and SVG)")
    p_raster.set_defaults(handler=_cmd_raster)
    p_raster.add_argument(
        "--window",
        nargs=4,
        type=float,
        metavar=("PMIN", "PMAX", "QMIN", "QMAX"),
        default=(-3.0, 3.0, -3.0, 3.0),
    )
    p_raster.add_argument("--step", type=float, default=0.05)
    p_raster.add_argument("--out", required=True, metavar="PATH")
    p_raster.add_argument("--svg", dest="svg_path", metavar="PATH", default=None)

    p_self = sub.add_parser("selftest", help="run the full fixture suite")
    p_self.set_defaults(handler=_cmd_selftest)
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
        with open(args.json_path, "w", encoding="utf-8", newline="\n") as handle:
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


def _cmd_selftest(args):
    failures = 0
    for ok, label in _selftest_checks(args.samples, args.seed, args.inject_fault):
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            failures += 1
    print(f"selftest: {failures} failure(s)")
    return 0 if failures == 0 else 1


@functools.cache
def _parser():
    # parse_args leaves the parser as it was, so every call shares this one.
    return build_parser()


def run(argv):
    """Parse argv (no program name) and execute; returns the exit code.

    In-process callers share one parser, built at the first call.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors.
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
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
