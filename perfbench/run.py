"""Benchmark of the wconvexity command line: one workload per run.

    python3 perfbench/run.py --workload verify-1m --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Workloads: selftest, verify-1m, counterexample-100k, raster-svg (see
BENCHMARK.json for why each is there).  The last line of the output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics, timed with no tracing.
  ``setup_s`` is the median over SETUP_PROBES fresh interpreters of the
  time to import wconvexity and finish one warm-up call.  ``op_mean_rel``
  is the mean wall time of one CLI call divided by the mean wall time of
  the calibration kernel (worker.calibrate), which runs between the calls
  throughout the run.  ``peak_rss_mb`` is the worker's peak resident
  memory.
* ``--trace 1``: per-layer metrics, per operation, from spans recorded
  around the calls into each traced function (see spans.py).

Why the gated latency is calibrated: on a shared two-CPU machine the speed
of the same code drifts by 30% or more over minutes.  Over runs of 20 s,
the median call time spread by 27 to 59% (interquartile range over
median, six runs per workload), far beyond any usable bound; over ten runs
per workload the calibrated mean spread by 1 to 9%.  The raw median, the
p90 where at least ten calls lie beyond it, the calibration time and pairs
(or, on raster-svg, lattice cells) per second are printed as diagnostics.

Lines before the last one start with ``#``: provenance, then per workload
the run info (versions, every problem found), the metrics and the
diagnostics, each with its unit.  A claimed gain must also hold on the
holdout seed 20250825, which is not used while a change is written.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# Whole run, including set-up probes, must end within this many seconds.
RUN_LIMIT_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORK_UNIT = {"raster-svg": "cells"}


def _env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def provenance():
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": None, "git_commit": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        info["git_commit"] = done.stdout.strip() or None
    info.update({name: "1" for name in THREAD_VARS})
    return info


def _worker_cmd(*args):
    return [sys.executable, str(HERE / "worker.py"), *args]


def measure_setup(deadline):
    """Median time from starting a fresh interpreter to its warm-up finishing.

    The probe prints the CLOCK_MONOTONIC reading (system-wide on Linux) at
    which its warm-up call returned; timing the child's exit from here would
    add the polling delay of a wait with a timeout, up to 50 ms.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(_worker_cmd("--probe"), env=_env(), cwd=ROOT, check=True,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(done.stdout.splitlines()[-1]) - start)
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _p90_if_resolved(seconds):
    # A percentile is reported only when at least ten samples lie beyond it.
    if len(seconds) < 10:
        return None
    p90 = statistics.quantiles(seconds, n=10, method="inclusive")[8]
    return p90 if sum(s > p90 for s in seconds) >= 10 else None


def end_to_end(result, setup_s):
    op_mean = statistics.fmean(op["seconds"] for op in result["ops"])
    return {
        "setup_s": _metric(setup_s, "s"),
        "op_mean_rel": _metric(op_mean / statistics.fmean(result["calibration_seconds"]), "ref"),
        "peak_rss_mb": _metric(result["peak_rss_kib"] / 1024.0, "MB"),
    }


def per_layer(result):
    n_ops = len(result["ops"])
    metrics = {}
    for layer, size in LAYERS.items():
        calls, elems, total, self_time = result["layers"][layer]
        metrics[f"{layer}.calls"] = _metric(calls / n_ops, "count/op")
        if size is not None:
            metrics[f"{layer}.elems"] = _metric(elems / n_ops, "count/op")
        metrics[f"{layer}.total_s"] = _metric(total / n_ops, "s/op")
        metrics[f"{layer}.self_s"] = _metric(self_time / n_ops, "s/op")
    _, elems, total, _ = result["layers"]["lambert.w0"]
    metrics["lambert.w0.ns_per_elem"] = _metric(1e9 * total / elems if elems else 0.0, "ns/elem")
    return metrics


def diagnostics(workload, result):
    """Figures reported beside the metrics: not gated, too noisy or not timed."""
    ops = result["ops"]
    seconds = [op["seconds"] for op in ops]
    diag = {
        "ops": _metric(len(ops), "count"),
        "failed_frac": _metric(sum(bool(op["problems"]) for op in ops) / len(ops), "1"),
        "op_p50_s": _metric(statistics.median(seconds), "s"),
    }
    if "layers" in result:
        overhead = diag["op_p50_s"]["value"] - statistics.median(result["untraced_seconds"])
        diag["trace_overhead_s"] = _metric(overhead, "s")
    else:
        p90 = _p90_if_resolved(seconds)
        if p90 is not None:
            diag["op_p90_s"] = _metric(p90, "s")
        diag["calibration_mean_s"] = _metric(statistics.fmean(result["calibration_seconds"]), "s")
        unit = WORK_UNIT.get(workload, "pairs")
        diag[f"{unit}_per_s"] = _metric(sum(op["work"] for op in ops) / sum(seconds), "1/s")
    return diag


def run_workload(args, deadline):
    """One workload in a fresh worker: (result line, diagnostics, run info)."""
    setup_s = None if args.trace else measure_setup(deadline)
    out = ROOT / ".perfbench" / f"run-{os.getpid()}-{args.workload}"
    cmd = _worker_cmd(
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--out", str(out),
    )
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        done = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              check=False, timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker for {args.workload} exited {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    failed = sum(bool(op["problems"]) for op in result["ops"])
    metrics = per_layer(result) if args.trace else end_to_end(result, setup_s)
    line = {"correct": failed == 0, "attempted": len(result["ops"]), "failed": failed,
            "metrics": metrics}
    problems = sorted({f"{op['key']}: {p}" for op in result["ops"] for p in op["problems"]})
    info = {"python": result["python"], "numpy": result["numpy"], "problems": problems}
    if "spans" in result:
        info["spans"] = result["spans"]
    return line, diagnostics(args.workload, result), info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    parser.add_argument("--fault", choices=("w0-ulp", "inject-fault"), default=None,
                        help="inject a known fault (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wconvexity" / "__init__.py").is_file():
        print(f"error: no wconvexity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("# provenance " + json.dumps(provenance()))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    lines = {}
    for workload in workloads:
        line, diag, info = run_workload(
            argparse.Namespace(**{**vars(args), "workload": workload}), deadline)
        print(f"# {workload} " + json.dumps(info))
        for kind, metrics in (("metric", line["metrics"]), ("diagnostic", diag)):
            for name, m in metrics.items():
                print(f"# {workload} {kind} {name} = {m['value']!r} {m['unit']}")
        lines[workload] = line
    if len(lines) == 1:
        final = lines[workloads[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{name}": m for w, line in lines.items()
                        for name, m in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
