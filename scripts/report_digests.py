#!/usr/bin/env python3
"""Print a sha256 digest of every report made from the benchmark's scenarios.

For each workload of ``perfbench/generate.py``, each seed 1-11 and each
scenario generated for it, the scenario runs twice: at the sampler seed the
generator gave it and at a fixed sampler seed, 7.  Each run prints one line,
``workload/seed/scenario/sampler_seed sha256``, the digest taken over the
structured report followed by the text report.  The package is loaded from
the ``src/`` next to this script, so two checkouts print the same lines
exactly when every one of these reports is byte-identical between them:

    python3 scripts/report_digests.py > digests.txt   # in each checkout
    diff parent/digests.txt change/digests.txt

Usage: python3 scripts/report_digests.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from generate import WORKLOADS, generate  # noqa: E402

from metallifts.report import render_structured, render_text, run_scenario  # noqa: E402
from metallifts.scenario import parse_scenario  # noqa: E402

SEEDS = range(1, 12)
FIXED_SAMPLER_SEED = 7


def digest_lines(workload: str, seed: int):
    """One line per report of ``workload`` at generator seed ``seed``."""
    for gen in generate(workload, seed, ROOT / "src"):
        scenario = parse_scenario(gen.text)
        for sampler_seed in (gen.sampler_seed, FIXED_SAMPLER_SEED):
            report = run_scenario(scenario, seed=sampler_seed)
            data = (render_structured(report, scenario.params)
                    + render_text(report, scenario.params)).encode()
            yield f"{workload}/{seed}/{gen.name}/{sampler_seed} {hashlib.sha256(data).hexdigest()}"


def main() -> int:
    for workload in WORKLOADS:
        for seed in SEEDS:
            for line in digest_lines(workload, seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
