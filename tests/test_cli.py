"""CLI tests: subcommand grammar, exit codes, file outputs, public names."""

import hashlib
import json

import pytest

import wconvexity
from wconvexity import lambert, means, raster, theory, verify
from wconvexity.cli import run
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


@pytest.mark.parametrize("argv", [["--samples", "0"], ["--seed", "-1"]])
def test_selftest_checks_arguments_before_any_check(capsys, argv):
    code, out, err = invoke(capsys, ["selftest", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_selftest_injected_fault_fails(capsys):
    code, out, _ = invoke(
        capsys, ["selftest", "--samples", "500", "--seed", "42", "--inject-fault"]
    )
    assert code == 1
    assert "FAIL region p=1 q=1" in out


@pytest.mark.parametrize(
    "argv,exit_code,digest",
    [
        ([], 0, "e0f0800ada52876d15f0fbe08e78c4ab2800c6e21d003f651b1f007e88dd199d"),
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
    ],
)
def test_selftest_output_is_pinned(capsys, argv, exit_code, digest):
    # sha256 of the whole stdout: every label, count and gap digit is pinned.
    code, out, _ = invoke(capsys, ["selftest", *argv])
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
