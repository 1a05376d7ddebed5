#!/usr/bin/env python3
"""Run every bundled scenario and summarize the verdicts.

Usage: python3 scripts/run_all_scenarios.py [--seed N] [--verbose]
Exit status is 0 only if every scenario passes.  The package is loaded from
the ``src/`` next to this script, so it runs in a checkout without an install.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from metallifts.cli import _seed, builtin_names, load_builtin
from metallifts.report import DEFAULT_SEED, render_text, run_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--verbose", action="store_true",
                        help="print the full text report for each scenario")
    args = parser.parse_args()

    failures = 0
    for name in builtin_names():
        scenario = load_builtin(name)
        start = time.perf_counter()
        report = run_scenario(scenario, seed=args.seed)
        elapsed = time.perf_counter() - start
        status = "pass" if report.ok else "FAIL"
        checks = sum(1 for c in report.checks if c.verdict == "pass")
        print(f"{name:20s} {status}  {checks}/{len(report.checks)} checks"
              f"  ({elapsed:.2f}s)")
        if args.verbose or not report.ok:
            print(render_text(report, scenario.params))
        if not report.ok:
            failures += 1
    print(f"\n{len(builtin_names()) - failures}/{len(builtin_names())} "
          f"scenarios pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
