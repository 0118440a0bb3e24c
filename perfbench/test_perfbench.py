"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run the benchmark at its tiny scale (plus a few single operations at
full scale), so they take about a minute.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / ".perfbench"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def result_line(workload, trace=0, seconds=1, fault=None, seed=5):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scale", "tiny"]
    if fault:
        args += ["--fault", fault]
    done = bench(*args)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    line = result_line(workload, trace)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


@pytest.mark.parametrize(
    "workload,fault",
    [("verify-1m", "w0-ulp"), ("counterexample-100k", "w0-ulp"), ("selftest", "inject-fault")],
)
def test_injected_fault_counts_as_failed(workload, fault):
    line = result_line(workload, fault=fault)
    assert line["failed"] > 0 and not line["correct"]


def test_counts_repeat_across_traced_runs():
    first = result_line("counterexample-100k", trace=1, seconds=1)["metrics"]
    second = result_line("counterexample-100k", trace=1, seconds=2, seed=6)["metrics"]
    counts = [n for n, m in first.items() if m["unit"] == "count/op"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_self_times_add_up_to_the_cli_call():
    metrics = result_line("selftest", trace=1)["metrics"]
    selfs = sum(m["value"] for n, m in metrics.items() if n.endswith(".self_s"))
    assert selfs == pytest.approx(metrics["cli.run.total_s"]["value"], rel=1e-9)


def test_every_per_layer_metric_has_an_interaction_entry():
    names = {m["name"] for m in BENCH["per_layer"]}
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
    assert set(layers) == names
    workloads = {w["name"] for w in BENCH["workloads"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for entry in layers.values():
        assert set(entry) == {"moves", "must_not_move", "baseline_share"}
        assert all(m["workload"] in workloads and m["metric"] in end_to_end
                   for m in entry["moves"])
        assert set(entry["must_not_move"]) <= workloads
        assert set(entry["baseline_share"]) == workloads


def test_refuses_to_run_without_sources():
    bare = pathlib.Path(tempfile.mkdtemp(dir=SCRATCH if SCRATCH.is_dir() else ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "raster-svg", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def _traced_calls(argv):
    cli = worker.import_package()
    tracer = spans.Tracer()
    undo = tracer.install()
    try:
        code, _, _ = worker.call_cli(cli, argv)
    finally:
        spans.restore(undo)
    assert code == 0
    return {layer: stats[:2] for layer, stats in tracer.stats.items()}


@pytest.fixture
def out_dir():
    SCRATCH.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(dir=SCRATCH))
    yield path
    shutil.rmtree(path)


def test_full_scale_counts_of_the_seed_code(out_dir):
    verify = _traced_calls(["verify", "--samples", "1000000", "--seed", "42",
                            "--json", str(out_dir / "r.json"), "--", "-0.5", "-1"])
    assert verify["lambert.w0"] == [48, 3_000_000]
    raster = _traced_calls(["raster", "--out", str(out_dir / "r.csv"),
                            "--svg", str(out_dir / "r.svg")])
    assert raster["lambert.w0"][0] == 0 and raster["theory.classify"][0] == 14_641
    search = _traced_calls(["counterexample", "--budget", "100000", "--seed", "42",
                            "--", "-0.5", "-1"])
    assert search["verify.compare_at"][0] == 96
    selftest = _traced_calls(["selftest", "--seed", "42"])
    assert selftest["verify.verify_region"][0] == 121
