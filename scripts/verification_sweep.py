#!/usr/bin/env python3
"""Sweep the verification grid and dump one JSON report per (p, q).

Usage:
    python3 scripts/verification_sweep.py [OUTDIR] [SAMPLES] [SEED]

Defaults: OUTDIR=out/reports, SAMPLES and SEED as for `wconvexity verify`.
Exits 1 if any region verdict fails.
"""

import pathlib
import sys

from wconvexity.theory import HpqParams
from wconvexity.verify import DEFAULT_SAMPLES, DEFAULT_SEED, GRID_AXIS, verify_region


def main(argv):
    outdir = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path("out/reports")
    samples = int(argv[2]) if len(argv) > 2 else DEFAULT_SAMPLES
    seed = int(argv[3]) if len(argv) > 3 else DEFAULT_SEED
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for p in GRID_AXIS:
        for q in GRID_AXIS:
            report = verify_region(HpqParams(p, q), samples, seed)
            name = f"region_p{p:+g}_q{q:+g}.json".replace("+", "")
            (outdir / name).write_text(report.to_json() + "\n", encoding="utf-8")
            marker = "PASS" if report.verdict == "pass" else "FAIL"
            if report.verdict != "pass":
                failures += 1
            print(
                f"{marker} p={p:+.2f} q={q:+.2f} {report.expected.value:8s} "
                f"pos={report.n_gap_positive} neg={report.n_gap_negative}"
            )
    print(f"{len(GRID_AXIS) ** 2} regions, {failures} failure(s); reports in {outdir}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
