"""One benchmark worker process: runs one workload and checks every output.

The worker imports wconvexity from the checkout's ``src``, makes one
warm-up call, and then issues the workload's operations through
``wconvexity.cli.run`` as a closed loop: one client, one thread, each
operation started only after the previous one returned and was checked.
It prints one JSON document with the per-operation records; ``run.py``
turns those into metrics.

    python3 perfbench/worker.py --workload verify-1m --seed 1 --seconds 10 \
        --trace 0 --out .perfbench/tmp

``--probe`` imports the package, makes the warm-up call, prints the
CLOCK_MONOTONIC time it finished and exits: ``run.py`` measures set-up time
from that in fresh interpreters.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import random
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

import spans

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED_PATH = pathlib.Path(__file__).resolve().parent / "pinned.json"

# One small call through the whole stack (sampling, w0, means, classify).
WARMUP = ["verify", "--samples", "1000", "--", "2", "1"]
# The first rotation of every workload runs at this seed (and the default
# raster window); pinned.json holds the sha256 of those outputs.
PINNED_SEED = 42
# Raster windows move by at most this many whole steps per axis.
MAX_SHIFT = 10
# After each operation the calibration kernel runs for this share of the
# operation's time (at least once).
CALIBRATION_SHARE = 0.1

SCALES = {
    "full": {"selftest": 10_000, "verify": 1_000_000, "budget": 100_000, "step": 0.05},
    "tiny": {"selftest": 1_000, "verify": 20_000, "budget": 10_000, "step": 0.25},
}

# Cells of the verify rotation: one per verdict (concave, convex, neither).
VERIFY_CELLS = ((2.0, 1.0), (-0.5, -0.25), (-0.5, -1.0))
# The four "neither" fixtures of the counterexample search.
NEITHER_CELLS = ((2.0, 3.0), (-2.0, -3.0), (0.0, 0.5), (-0.5, -1.0))
CELLS = {
    "selftest": (None,),
    "verify-1m": VERIFY_CELLS,
    "counterexample-100k": NEITHER_CELLS,
    "raster-svg": (None,),
}
WORKLOADS = tuple(CELLS)


@dataclass
class Op:
    """One CLI call: its argv, the files it writes and the work it does.

    `key` is the argv with output paths left as placeholders; pinned.json
    is keyed by it.
    """

    workload: str
    cell: tuple
    seed: int
    argv: list
    work: int
    files: dict
    key: str


def _num(value):
    return repr(float(value))


def _make_op(workload, cell, seed, shift, scale, out, fault):
    sizes = SCALES[scale]
    files = {}
    if workload == "selftest":
        n = sizes["selftest"]
        argv = ["selftest", "--samples", str(n), "--seed", str(seed)]
        if fault == "inject-fault":
            argv.append("--inject-fault")
        # 121 grid regions, four searches at 10x the samples, one chain.
        work = 121 * n + 4 * max(10 * n, 1) + min(n, 10_000)
    elif workload == "verify-1m":
        n = sizes["verify"]
        files["report"] = out / "report.json"
        argv = ["verify", "--samples", str(n), "--seed", str(seed),
                "--json", "{report}", "--", _num(cell[0]), _num(cell[1])]
        work = n
    elif workload == "counterexample-100k":
        n = sizes["budget"]
        argv = ["counterexample", "--budget", str(n), "--seed", str(seed),
                "--", _num(cell[0]), _num(cell[1])]
        work = n
    else:
        step = sizes["step"]
        files["csv"] = out / "region.csv"
        files["svg"] = out / "region.svg"
        window = [-3.0 + shift[0] * step, 3.0 + shift[0] * step,
                  -3.0 + shift[1] * step, 3.0 + shift[1] * step]
        argv = ["raster", "--window", *map(_num, window), "--step", _num(step),
                "--out", "{csv}", "--svg", "{svg}"]
        per_axis = round(6.0 / step) + 1
        work = per_axis * per_axis
    key = " ".join(argv)
    argv = [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]
    return Op(workload, cell, seed, argv, work, files, key)


def operations(workload, seed, scale, out, fault=None):
    """The workload's operation stream for one benchmark seed.

    The first rotation over the workload's cells runs at PINNED_SEED (and
    the default raster window), so its outputs can be compared with the
    pinned digests.  Every later operation takes its seed, and for the
    raster its window shift, from a generator seeded by `seed`.
    """
    cells = CELLS[workload]
    rng = random.Random(seed)
    for index in itertools.count():
        if index < len(cells):
            op_seed, shift = PINNED_SEED, (0, 0)
        else:
            op_seed = rng.randrange(2**32)
            shift = (rng.randint(-MAX_SHIFT, MAX_SHIFT), rng.randint(-MAX_SHIFT, MAX_SHIFT))
        cell = cells[index % len(cells)]
        yield _make_op(workload, cell, op_seed, shift, scale, out, fault)


def call_cli(cli, argv):
    """Run one CLI call with its output captured: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


_CAL_SMALL = np.linspace(1.0, 2.0, 16)
_CAL_LARGE = np.linspace(1.0, 2.0, 20_000)
_CAL_CHUNK = np.linspace(1.0, 2.0, 65_536)


def _format_floats():
    ",".join(f"{x!r}" for x in _CAL_LARGE[:600].tolist())


def _array_math():
    for _ in range(5):
        np.exp(np.log(_CAL_LARGE) * 0.5).sum()


def _tiny_calls():
    for _ in range(100):
        np.sqrt(_CAL_SMALL + 1.0).max()


def _newton_steps():
    w = _CAL_CHUNK.copy()
    for _ in range(2):
        ew = np.exp(w)
        w = w - (w * ew - _CAL_CHUNK) / (ew * (w + 1.0))


# Each workload is calibrated with the parts that resemble its own work:
# float formatting for the raster, array kernels on small and 65,536-element
# batches for the three sampling workloads.  Over six 20 s runs per workload
# these mixes gave the smallest run-to-run spread of the calibrated time.
CALIBRATION = {
    "selftest": (_array_math, _tiny_calls, _newton_steps),
    "verify-1m": (_array_math, _tiny_calls, _newton_steps),
    "counterexample-100k": (_array_math, _tiny_calls, _newton_steps),
    "raster-svg": (_format_floats, _array_math, _tiny_calls),
}


def calibrate(workload):
    """Wall time of the workload's calibration kernel (never touches wconvexity).

    On a shared machine the speed of the same code drifts by 30% or more
    over minutes.  Timing this kernel between operations, throughout the
    run, measures that drift so that the calibrated metric can divide it
    out.
    """
    t0 = time.perf_counter()
    for part in CALIBRATION[workload]:
        part()
    return time.perf_counter() - t0


def _check_selftest(op, stdout):
    lines = stdout.splitlines()
    if not lines or lines[-1] != "selftest: 0 failure(s)":
        return ["selftest reported failures"]
    return []


def _check_verify(op, stdout):
    from wconvexity.theory import classify

    report = json.loads(op.files["report"].read_text(encoding="utf-8"))
    p, q = op.cell
    expected = classify(p, q).value
    problems = []
    if report["expected"] != expected:
        problems.append(f"report expects {report['expected']}, classify says {expected}")
    pos, neg = report["n_gap_positive"], report["n_gap_negative"]
    agrees = {"convex": pos == 0, "concave": neg == 0, "neither": pos > 0 and neg > 0}[expected]
    if not agrees or report["verdict"] != "pass":
        problems.append(f"sign counts +{pos}/-{neg} disagree with {expected}")
    if report["n_samples"] != op.work or report["seed"] != op.seed:
        problems.append("report does not echo its samples and seed")
    return problems


def _check_counterexample(op, stdout):
    from wconvexity.verify import compare_at

    p, q = op.cell
    problems = []
    records = {}
    for line in stdout.splitlines():
        label, _, fields = line.partition(": ")
        records[label] = {k: float(v) for k, v in (f.split("=") for f in fields.split())}
    for label, sign in (("violates convexity", 1.0), ("violates concavity", -1.0)):
        rec = records.get(label)
        if rec is None:
            problems.append(f"no '{label}' witness")
            continue
        if not sign * rec["gap"] > 0.0:
            problems.append(f"{label} witness has gap {rec['gap']!r}")
        again = compare_at(p, q, rec["x"], rec["y"])
        if (again.lhs, again.rhs, again.gap) != (rec["lhs"], rec["rhs"], rec["gap"]):
            problems.append(f"compare_at does not reproduce the {label} witness")
    return problems


def _check_raster(op, stdout):
    rows = op.files["csv"].read_text(encoding="utf-8").splitlines()
    problems = []
    if len(rows) - 1 != op.work:
        problems.append(f"CSV has {len(rows) - 1} rows, expected {op.work}")
    if not op.files["svg"].read_text(encoding="utf-8").endswith("</svg>\n"):
        problems.append("SVG is incomplete")
    return problems


CHECKS = {
    "selftest": _check_selftest,
    "verify-1m": _check_verify,
    "counterexample-100k": _check_counterexample,
    "raster-svg": _check_raster,
}


def check(op, code, stdout, pinned):
    """Problems with one operation's outputs; empty when all is correct."""
    if code != 0:
        return [f"exit code {code}"]
    problems = CHECKS[op.workload](op, stdout)
    for name, want in pinned.get(op.key, {}).items():
        data = stdout.encode("utf-8") if name == "stdout" else op.files[name].read_bytes()
        if hashlib.sha256(data).hexdigest() != want:
            problems.append(f"sha256 of {name} differs from the pinned digest")
    return problems


def run_op(cli, op, pinned, tracer=None):
    """Run and check one operation; with a tracer, record its spans."""
    for path in op.files.values():
        path.unlink(missing_ok=True)
    undo = tracer.install() if tracer else []
    try:
        code, stdout, elapsed = call_cli(cli, op.argv)
    finally:
        spans.restore(undo)
    try:
        problems = check(op, code, stdout, pinned)
    except (OSError, ValueError, KeyError) as exc:
        problems = [f"output unreadable: {exc!r}"]
    return {"key": op.key, "seconds": elapsed, "work": op.work, "problems": problems}


def shift_w0_one_ulp():
    """Fault for the benchmark's own tests: every w0 result one ulp high."""
    w0 = spans.original("lambert.w0")

    def shifted(z):
        w = np.nextafter(w0(z), np.inf)
        return float(w) if np.ndim(w) == 0 else w

    return spans.patch_everywhere({id(w0): (w0, shifted)})


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    from wconvexity import cli

    expected = (ROOT / "src" / "wconvexity").resolve()
    if pathlib.Path(cli.__file__).resolve().parent != expected:
        raise SystemExit(f"imported wconvexity from {cli.__file__}, not from {expected}")
    code, _, _ = call_cli(cli, WARMUP)
    if code != 0:
        raise SystemExit(f"warm-up call exited {code}")
    return cli


def _untraced(cli, workload, ops, seconds, pinned):
    records, calibration = [], []
    t0 = time.perf_counter()
    for op in ops:
        if time.perf_counter() - t0 >= seconds:
            break
        records.append(run_op(cli, op, pinned))
        spent = 0.0
        while spent == 0.0 or spent < CALIBRATION_SHARE * records[-1]["seconds"]:
            calibration.append(calibrate(workload))
            spent += calibration[-1]
    return {"ops": records, "calibration_seconds": calibration}


def _traced(cli, rotation, seconds, pinned, spans_path):
    """Alternate untraced and traced passes over one fixed rotation.

    Every pass runs the same operations, so per-operation counts do not
    depend on how many passes fit; the untraced passes give the reference
    for the tracing overhead.
    """
    tracer = spans.Tracer()
    records, plain = [], []
    t0 = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t0 < seconds:
        plain.extend(run_op(cli, op, pinned)["seconds"] for op in rotation)
        tracer.keep_spans = passes == 0
        for op in rotation:
            tracer.op = len(records)
            records.append(run_op(cli, op, pinned, tracer))
        passes += 1
    tracer.write_spans(spans_path)
    return {"ops": records, "untraced_seconds": plain, "layers": tracer.stats,
            "spans": str(spans_path)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--fault", choices=("w0-ulp", "inject-fault"), default=None)
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    cli = import_package()
    if args.probe:
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    pinned = json.loads(PINNED_PATH.read_text(encoding="utf-8"))
    if args.fault == "w0-ulp":
        shift_w0_one_ulp()
    args.out.mkdir(parents=True, exist_ok=True)
    ops = operations(args.workload, args.seed, args.scale, args.out, args.fault)
    if args.trace:
        rotation = [next(ops) for _ in CELLS[args.workload]]
        spans_path = args.out.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = _traced(cli, rotation, args.seconds, pinned, spans_path)
    else:
        result = _untraced(cli, args.workload, ops, args.seconds, pinned)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["python"] = sys.version.split()[0]
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
