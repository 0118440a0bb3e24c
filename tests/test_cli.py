"""CLI tests: subcommand grammar, exit codes, file outputs, public names."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import wconvexity
from conftest import PINNED
from wconvexity import cli, lambert, means, raster, theory, verify
from wconvexity.cli import build_parser, run
from wconvexity.theory import classify


def invoke(capsys, args):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_w(capsys):
    code, out, _ = invoke(capsys, ["eval", "w", "2.718281828459045"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-15)


def test_eval_mean(capsys):
    code, out, _ = invoke(capsys, ["eval", "mean", "1", "2", "4"])
    assert code == 0
    assert float(out.strip()) == 3.0


def test_classify_with_separator(capsys):
    code, out, _ = invoke(capsys, ["classify", "--", "-1", "-1"])
    assert code == 0
    assert out.strip() == "convex"


def test_classify_plain(capsys):
    code, out, _ = invoke(capsys, ["classify", "0", "0.5"])
    assert code == 0
    assert out.strip() == "neither"


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, ["eval", "w", "--", "-1"])
    assert code == 2
    assert "error:" in err


def test_usage_error_exit_code(capsys):
    assert invoke(capsys, ["bogus"])[0] == 2
    assert invoke(capsys, ["classify", "1"])[0] == 2


def test_help_exits_zero(capsys):
    assert invoke(capsys, ["--help"])[0] == 0


def test_verify_pass_and_json(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = invoke(
        capsys,
        ["verify", "--samples", "2000", "--seed", "42", "--json", str(path), "--", "-1", "-1"],
    )
    assert code == 0
    assert "verdict: pass" in out
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "pass"
    assert doc["params"] == {"p": -1.0, "q": -1.0}


def test_verify_fail_exit_code(capsys):
    # one sample can never witness both signs of a neither region
    code, out, _ = invoke(capsys, ["verify", "0", "0.5", "--samples", "1"])
    assert code == 1
    assert "verdict: fail" in out


def test_counterexample_success(capsys):
    code, out, _ = invoke(
        capsys, ["counterexample", "0", "0.5", "--budget", "20000", "--seed", "1"]
    )
    assert code == 0
    assert "violates convexity" in out and "violates concavity" in out


def test_counterexample_rejects_non_neither(capsys):
    code, _, err = invoke(capsys, ["counterexample", "1", "1"])
    assert code == 2
    assert "error:" in err


def test_raster_csv_and_svg(capsys, tmp_path):
    csv_path = tmp_path / "map.csv"
    svg_path = tmp_path / "map.svg"
    code, _, _ = invoke(
        capsys,
        [
            "raster",
            "--window", "-1", "1", "-1", "1",
            "--step", "0.25",
            "--out", str(csv_path),
            "--svg", str(svg_path),
        ],
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "p,q,class"
    assert len(lines) == 1 + 9 * 9
    for line in lines[1:]:
        p, q, label = line.split(",")
        assert classify(float(p), float(q)).value == label
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg  # the q = C(p) boundary curve


def test_raster_byte_identical(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    invoke(capsys, ["raster", "--window", "-2", "2", "-2", "2", "--step", "0.5", "--out", str(a)])
    invoke(capsys, ["raster", "--window", "-2", "2", "-2", "2", "--step", "0.5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_raster_bad_step(capsys):
    code, _, err = invoke(capsys, ["raster", "--step", "0", "--out", "unused.csv"])
    assert code == 2
    assert "error:" in err


def test_raster_past_the_cell_cap_writes_nothing(capsys, tmp_path):
    out = tmp_path / "map.csv"
    code, _, err = invoke(capsys, ["raster", "--step", "1e-9", "--out", str(out)])
    assert code == 2
    assert "cells exceeds the limit" in err
    assert not out.exists()


def test_raster_whose_cell_count_leaves_the_doubles_writes_nothing(capsys, tmp_path):
    out, svg = tmp_path / "x.csv", tmp_path / "x.svg"
    argv = ["raster", "--window", "0", "1e300", "0", "1", "--step", "1e-10", "--out", str(out), "--svg", str(svg)]
    code, _, err = invoke(capsys, argv)
    assert code == 2
    assert "cells exceeds the limit" in err and "inf" not in err
    assert not out.exists() and not svg.exists()


# -1e308 in digits: argparse takes "-1e308" for an option.
_WIDE = (str(-(10**308)), "1e308")


@pytest.mark.parametrize(
    "window, step",
    [([*_WIDE, "0", "0"], "1e308"), (["0", "0", *_WIDE], "1e308"), (["1.7e308", "1.7e308", "0", "0"], "1.7e308")],
    ids=["p", "q", "p-padded"],
)
def test_raster_wider_than_the_doubles_is_refused(capsys, tmp_path, window, step):
    # The last window has one lattice point, but the half-step padding of its plot overflows.
    out, svg = tmp_path / "map.csv", tmp_path / "map.svg"
    code, _, err = invoke(capsys, ["raster", "--window", *window, "--step", step, "--out", str(out), "--svg", str(svg)])
    assert code == 2
    assert "window width passes the double range" in err
    assert not out.exists() and not svg.exists()


# Half a step is lost against the window's edges, so the plot's extent rounds to zero.
_UNRESOLVED = [
    (["1", "3", "1e300", "1e300"], "0.5"),
    (["1e308", "1e308", "-3", "0"], "1e6"),
    (["1", "1", "2", "2"], "1e-300"),
]
_UNRESOLVED_ERROR = "error: raster step is below the resolution of the window's doubles\n"


@pytest.mark.parametrize("window, step", _UNRESOLVED, ids=["q", "p", "both"])
def test_raster_step_below_the_windows_resolution_is_refused(capsys, tmp_path, window, step):
    # With or without an SVG, the CSV is not written either.
    out, svg = tmp_path / "map.csv", tmp_path / "map.svg"
    argv = ["raster", "--window", *window, "--step", step, "--out", str(out)]
    for extra in ([], ["--svg", str(svg)]):
        assert invoke(capsys, argv + extra) == (2, "", _UNRESOLVED_ERROR)
        assert not out.exists() and not svg.exists()


def _plain(x):
    # A double as exact plain decimal digits: argparse takes "-1e-3" for an option.
    return format(Decimal(x), "f")


_BOUNDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300, 1e308, -1e308, 1.7e308, 5e-324]),
)
_STEPS = st.one_of(st.floats(5e-324, 1.7e308), st.sampled_from([5e-324, 1e-300, 0.5, 1e6, 1e308, 1.7e308]))


@settings(deadline=None, max_examples=300)
@given(_BOUNDS, _BOUNDS, _BOUNDS, _BOUNDS, _STEPS)
@example(1.0, 3.0, 1e300, 1e300, 0.5)
@example(1e308, 1e308, -3.0, 0.0, 1e6)
@example(1.0, 1.0, 2.0, 2.0, 1e-300)
def test_raster_exits_0_with_both_files_or_2_with_none(tmp_path_factory, a, b, c, d, step):
    # Past 64 cells the cap refuses the window, which keeps each run small.
    out, svg = (tmp_path_factory.mktemp("raster") / name for name in ("map.csv", "map.svg"))
    (p_min, p_max), (q_min, q_max) = sorted((a, b)), sorted((c, d))
    argv = ["raster", "--window", *map(_plain, (p_min, p_max, q_min, q_max)), "--step", repr(step)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(raster, "_MAX_CELLS", 64)
        code = run(argv + ["--out", str(out), "--svg", str(svg)])
    assert code in (0, 2)
    assert out.exists() is svg.exists() is (code == 0)


def _env_with_src(**extra):
    # This environment, plus extra, with the package's source first on PYTHONPATH.
    src = str(Path(wconvexity.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_the_module_entry_point_exits_with_the_code_of_run(tmp_path):
    # python -m wconvexity.cli runs main(): a refusal is exit 2, one error line, no traceback.
    out, svg = tmp_path / "map.csv", tmp_path / "map.svg"
    window, step = _UNRESOLVED[0]
    argv = ["raster", "--window", *window, "--step", step, "--out", str(out), "--svg", str(svg)]
    done = subprocess.run(
        [sys.executable, "-m", "wconvexity.cli", *argv], env=_env_with_src(), capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", _UNRESOLVED_ERROR)
    assert not out.exists() and not svg.exists()


def test_run_builds_its_parser_once(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    assert invoke(capsys, ["classify", "0", "0.5"])[:2] == (0, "neither\n")
    assert invoke(capsys, ["eval", "mean", "1", "2", "4"])[:2] == (0, "3.0\n")
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_a_raster_without_window_draws_the_default_after_one_with(capsys, tmp_path):
    # The shared parser hands every call that omits --window the same default object.
    files = {name: tmp_path / name for name in ("csv", "svg")}
    argv = ["--step", "0.25", "--out", str(files["csv"]), "--svg", str(files["svg"])]
    assert invoke(capsys, ["raster", "--window", "-1", "2", "0", "0.5", *argv])[0] == 0
    assert invoke(capsys, ["raster", *argv])[0] == 0
    pinned = PINNED["raster --window -3.0 3.0 -3.0 3.0 --step 0.25 --out {csv} --svg {svg}"]
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()} == pinned


# Every subcommand, a usage error and --help; {dir} holds the files each writes.
_MIXED_SEQUENCE = (
    ["classify", "1"],
    ["--help"],
    ["eval", "w", "2.5"],
    ["classify", "--", "-0.5", "-1"],
    ["verify", "--samples", "3000", "--json", "{dir}/report.json", "--", "-0.5", "-1"],
    ["counterexample", "--budget", "2000", "--", "2", "3"],
    ["raster", "--step", "0.5", "--out", "{dir}/map.csv", "--svg", "{dir}/map.svg"],
    ["selftest", "--samples", "100"],
)


def _written(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_a_mixed_sequence_in_one_process_equals_each_call_alone(capsys, monkeypatch, tmp_path):
    # argparse reads the terminal width when it prints, so pin it on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    in_process = [invoke(capsys, [arg.format(dir=together) for arg in argv]) for argv in _MIXED_SEQUENCE]
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0, 0, 0, 0, 0]
    for argv, (code, out, err) in zip(_MIXED_SEQUENCE, in_process):
        done = subprocess.run(
            [sys.executable, "-m", "wconvexity.cli", *(arg.format(dir=alone) for arg in argv)],
            env=_env_with_src(COLUMNS="80"), capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err.replace(str(together), str(alone))), argv
    written = _written(together)
    assert written == _written(alone)
    assert set(written) == {"report.json", "map.csv", "map.svg"}


def test_verify_runs_in_four_threads_at_once_write_the_sequential_reports(capsys, tmp_path):
    cells = [("-0.5", "-1"), ("2", "1"), ("0", "0.5"), ("-1", "-1")]

    def argv(k, name):
        return ["verify", "--samples", "70000", "--seed", str(k), "--json", str(tmp_path / f"{name}{k}.json"), "--", *cells[k]]

    sequential = [run(argv(k, "sequential")) for k in range(4)]
    codes, start = [None] * 4, threading.Barrier(4)

    def work(k):
        start.wait()
        codes[k] = run(argv(k, "threaded"))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    capsys.readouterr()
    assert codes == sequential
    for k in range(4):
        assert (tmp_path / f"threaded{k}.json").read_bytes() == (tmp_path / f"sequential{k}.json").read_bytes()


def test_raster_unwritable_path(capsys, tmp_path):
    code, _, _ = invoke(capsys, ["raster", "--out", str(tmp_path)])  # a directory
    assert code == 2


def test_verify_json_unwritable_path(capsys, tmp_path):
    report = tmp_path / "no" / "such" / "dir" / "r.json"
    code, _, err = invoke(capsys, ["verify", "--samples", "100", "--json", str(report), "--", "1", "1"])
    assert code == 2
    assert "error:" in err


def test_selftest_passes(capsys):
    code, out, _ = invoke(capsys, ["selftest", "--samples", "500", "--seed", "42"])
    assert code == 0
    assert "selftest: 0 failure(s)" in out
    assert "FAIL" not in out


def test_selftest_seed_stability(capsys):
    for seed in (1, 7, 123):
        code, _, _ = invoke(capsys, ["selftest", "--samples", "500", "--seed", str(seed)])
        assert code == 0


def _stub_scan(*args, **kwargs):
    raise AssertionError("the arguments reached the scan")


# The last: its searches would read samples past index 2**63.
@pytest.mark.parametrize("argv", [["--samples", "0"], ["--seed", "-1"], ["--samples", str(2**63 // 10 + 1)]])
def test_selftest_checks_arguments_before_any_check(capsys, monkeypatch, argv):
    monkeypatch.setattr(verify, "_scan", _stub_scan)
    code, out, err = invoke(capsys, ["selftest", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_selftest_injected_fault_fails(capsys):
    # The fault flips the expectation of the (1, 1) region cell alone.
    argv = ["selftest", "--samples", "500", "--seed", "42"]
    code, out, _ = invoke(capsys, [*argv, "--inject-fault"])
    assert code == 1
    clean = invoke(capsys, argv)[1].splitlines()
    lines = out.splitlines()
    assert len(lines) == len(clean)
    assert [(a, b) for a, b in zip(clean, lines) if a != b] == [
        ("PASS region p=1 q=1 (concave: 499 pos / 0 neg)", "FAIL region p=1 q=1 (convex: 499 pos / 0 neg)"),
        ("selftest: 0 failure(s)", "selftest: 1 failure(s)"),
    ]


@pytest.mark.parametrize(
    "argv,exit_code,digest",
    [
        ([], 0, PINNED["selftest --samples 10000 --seed 42"]["stdout"]),
        (
            ["--samples", "1000", "--seed", "5", "--inject-fault"],
            1,
            "d8f9095f3867cc82fd0d22dd9e60aba019672f2ec56230386d70b08cf3ed45ae",
        ),
        # Two counterexample searches exhausted, two found.
        (
            ["--samples", "1", "--seed", "42"],
            1,
            "158ffc3ef705375e625a1a9f1c85a340964f3b7eae74b2773093c1ff776146ce",
        ),
        # A head scan of two chunks, and a tail that starts off a chunk edge.
        (
            ["--samples", "40000", "--seed", "7"],
            0,
            "eed60fb1d0a1ccc1b9d522f3b3a02331466de4d770bdb5e49e9471a0c5e140d5",
        ),
        # 30-sample searches.
        (
            ["--samples", "3", "--seed", "5"],
            1,
            "35f589bc38252a7cd5aef5ddc7ebaa3c6054b022727713b664de1d514b1798e0",
        ),
    ],
)
def test_selftest_output_is_pinned(capsys, argv, exit_code, digest):
    # sha256 of the whole stdout: every label, count and gap digit is pinned.
    code, out, _ = invoke(capsys, ["selftest", *argv])
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_RUNS_IN_A_SUBPROCESS = """
import contextlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from wconvexity.cli import run
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"avx512": __cpu_features__["AVX512_SKX"], "runs": runs}))
"""
_SELFTESTS = (["selftest", "--samples", "1000"], ["selftest"])
# The verify cells perfbench pins at 20k samples and the "neither" searches.
_DISPATCH_DEPENDENT = (
    *(["verify", "--samples", "20000", "--", repr(p), repr(q)] for p, q in ((2.0, 1.0), (-0.5, -0.25), (-0.5, -1.0))),
    *(["counterexample", "--budget", "10000", "--", repr(p), repr(q)] for p, q in verify.NEITHER_FIXTURES),
)


def _without_record_digits(out):
    # verify and counterexample stdout with each record value cut to its sign.
    return re.sub(r"(max\|gap\||\b(?:x|y|lhs|rhs|gap))=(-?)\S+", r"\1=\2", out)


def _skip_without_avx512():
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    if not features.get("AVX512_SKX"):
        pytest.skip("AVX-512 (AVX512_SKX) is not enabled in this process")


def test_selftest_does_not_depend_on_simd_dispatch(capsys):
    # NumPy picks its exp, log and power loops by CPU feature at run time.
    # Without AVX-512, w0 moves some values by an ulp and some verify and
    # counterexample digits move, but no selftest line may: its lines hold
    # counts, verdicts and witness gaps to four digits.  Nor may the counts,
    # verdicts and witness gap signs of verify and counterexample.
    _skip_without_avx512()
    done = subprocess.run(
        [sys.executable, "-c", _RUNS_IN_A_SUBPROCESS, json.dumps([*_SELFTESTS, *_DISPATCH_DEPENDENT])],
        env=_env_with_src(NPY_DISABLE_CPU_FEATURES="X86_V4"), capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout)
    assert result["avx512"] is False  # the override took effect
    selftests, others = result["runs"][: len(_SELFTESTS)], result["runs"][len(_SELFTESTS) :]
    assert [[code, hashlib.sha256(out.encode()).hexdigest()] for code, out in selftests] == [
        [0, PINNED["selftest --samples 1000 --seed 42"]["stdout"]],
        [0, PINNED["selftest --samples 10000 --seed 42"]["stdout"]],
    ]
    for argv, (code, out) in zip(_DISPATCH_DEPENDENT, others):
        expected_code, expected_out, _ = invoke(capsys, argv)
        assert (code, _without_record_digits(out)) == (expected_code, _without_record_digits(expected_out)), argv


@pytest.mark.parametrize("key", sorted(PINNED))
def test_benchmark_pinned_outputs(capsys, tmp_path, key):
    # 3 of these digests hold only where NumPy dispatches to AVX-512.
    _skip_without_avx512()
    files = {name: tmp_path / name for name in ("report", "csv", "svg")}
    code, out, _ = invoke(capsys, [arg.format(**files) for arg in key.split(" ")])
    assert code == 0
    for name, digest in PINNED[key].items():
        data = out.encode() if name == "stdout" else files[name].read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


_EXTREME_ORDERS = (1e308, -1e308, 1e-320, -1e-320, 0.0, -0.0, 2.0, -3.0)


def _extreme_order_calls():
    for p, q in itertools.product(_EXTREME_ORDERS, repeat=2):
        yield ["classify", "--", repr(p), repr(q)]
        yield ["verify", "--samples", "500", "--", repr(p), repr(q)]
        yield ["counterexample", "--budget", "500", "--", repr(p), repr(q)]
    for p, r in itertools.product(_EXTREME_ORDERS, (5e-324, 1.7976931348623157e308, 1.0)):
        yield ["eval", "mean", "--", repr(p), repr(r), repr(r)]


def test_extreme_orders_exit_cleanly(capsys):
    # A RuntimeWarning raises out of run here instead of reaching stderr.
    calls = list(_extreme_order_calls())
    assert len(calls) == 216
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in calls:
            code, _, _ = invoke(capsys, argv)
            assert code in (0, 1, 2), argv


def test_package_names_are_the_module_lists():
    modules = (lambert, means, raster, theory, verify)
    assert wconvexity.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(wconvexity.__all__)) == len(wconvexity.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(wconvexity, name) is getattr(module, name)
    assert sorted(wconvexity.__all__) == [
        "ComparisonRecord",
        "ConvexityClass",
        "CounterexamplePair",
        "HpqParams",
        "RegionRaster",
        "SearchExhaustedError",
        "VerificationReport",
        "build_raster",
        "c_of_p",
        "check_chain",
        "check_g_lemma",
        "check_h_lemma",
        "classify",
        "compare_at",
        "f1",
        "find_counterexamples",
        "g_pq",
        "h_p",
        "h_p_argmax",
        "holder_mean",
        "quartic_harmonic_form",
        "sample_pairs",
        "verify_region",
        "w0",
        "w0_prime",
        "write_csv",
        "write_svg",
    ]
