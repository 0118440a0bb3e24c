"""README stays true: its layout, defaults, the constants it quotes and its example commands."""

import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

from wconvexity import lambert, means, raster, theory, verify
from wconvexity.cli import build_parser, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_layout_names_each_modules_public_functions():
    # A module line of the Layout block names exactly the functions of the module's __all__.
    block = re.search(r"## Layout\n\n```\n(.*?)```", README, re.DOTALL)
    assert block, "README has no Layout block"
    listed = dict(re.findall(r"^  (\w+)\.py +(.+)$", block[1], re.MULTILINE))
    public = {}
    for name in listed:
        module = importlib.import_module(f"wconvexity.{name}")
        if hasattr(module, "__all__"):
            public[name] = {n for n in module.__all__ if inspect.isfunction(getattr(module, n))}
    assert set(public) == {"lambert", "means", "theory", "verify", "raster", "cli"}
    for name, functions in public.items():
        assert set(listed[name].split(", ")) == functions, name


def test_defaults_sentence_matches_the_parser():
    text = " ".join(README.split())
    found = re.search(
        r"Defaults: samples (\d+), budget (\d+), seed (\d+), window `\[(\S+), (\S+)\]\^2`, step (\S+)\.", text
    )
    assert found, "README has no Defaults: sentence"
    samples, budget, seed = map(int, found.groups()[:3])
    lo, hi, step = map(float, found.groups()[3:])
    assert (samples, budget, seed) == (verify.DEFAULT_SAMPLES, verify.DEFAULT_BUDGET, verify.DEFAULT_SEED)
    parse = build_parser().parse_args
    checked, search, grid = parse(["verify", "0", "0"]), parse(["counterexample", "0", "0"]), parse(["selftest"])
    assert (checked.samples, search.budget, grid.samples) == (samples, budget, samples)
    assert checked.seed == search.seed == grid.seed == seed
    raster = parse(["raster", "--out", "map.csv"])
    assert (raster.window, raster.step) == ([lo, hi, lo, hi], step)


def test_quoted_constants_equal_the_code():
    # Each `NAME = literal` code span names a module constant and its value.
    quoted = dict(re.findall(r"`(_?[A-Z][A-Z0-9_]*) = ([^`]+)`", README))
    named = {"SAMPLE_DOMAIN", "SIGNIFICANCE_REL", "_STEP_SIGNIFICANCE", "RESIDUAL_TOL", "_MAX_CELLS", "_MAX_TICKS"}
    assert named <= set(quoted)
    modules = (verify, lambert, raster, means, theory)
    for name, literal in quoted.items():
        (value,) = {getattr(module, name) for module in modules if hasattr(module, name)}
        assert ast.literal_eval(literal) == value, name


def test_example_commands_exit_as_documented(capsys, monkeypatch, tmp_path):
    # Each single-line command of a sh block, run in tmp_path for the files it
    # writes; the indented lines of the shell loop are not single-line commands.
    monkeypatch.chdir(tmp_path)
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", README, re.DOTALL)
        for line in block.splitlines()
        if line.startswith("wconvexity ")
    ]
    assert len(lines) >= 5
    for line in lines:
        command, _, comment = line.partition("#")
        documented = re.match(r" exit (\d)\b", comment)
        assert documented, f"no exit code documented for: {line}"
        assert run(shlex.split(command)[1:]) == int(documented[1]), line
        capsys.readouterr()
