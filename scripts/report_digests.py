#!/usr/bin/env python3
"""Print a sha256 digest of every report made from the benchmark's scenarios.

For each workload of ``perfbench/generate.py``, each seed 1-11 and each
scenario generated for it, the scenario runs twice: at the sampler seed the
generator gave it and at a fixed sampler seed, 7.  Each run prints one line,
``workload/seed/scenario/sampler_seed sha256``, the digest taken over the
structured report followed by the text report.  Last come two lines for the
worked example ``example_4_1`` with ``x+y`` replaced by ``x+sqrtD*y``, whose
denominators contain ``sqrt(D)`` as no workload's do, and two for the
reflection ``P = I - 2vv^T/(v.v)`` with ``v = (1, y+z^2, z+x^2)`` in dimension
3, whose derivatives and lifts carry several bases squared and cubed in
three variables; each at the default sampler seed and at 7.  The package is
loaded from the ``src/`` next to this script, so two checkouts print the
same lines exactly when every one of these reports is byte-identical
between them:

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

from metallifts.report import (DEFAULT_SEED, render_structured, render_text,  # noqa: E402
                               run_scenario)
from metallifts.scenario import parse_scenario  # noqa: E402

SEEDS = range(1, 12)
FIXED_SAMPLER_SEED = 7


def digest(scenario, sampler_seed: int) -> str:
    report = run_scenario(scenario, seed=sampler_seed)
    data = (render_structured(report, scenario.params)
            + render_text(report, scenario.params)).encode()
    return hashlib.sha256(data).hexdigest()


def digest_lines(workload: str, seed: int):
    """One line per report of ``workload`` at generator seed ``seed``."""
    for gen in generate(workload, seed, ROOT / "src"):
        scenario = parse_scenario(gen.text)
        for sampler_seed in (gen.sampler_seed, FIXED_SAMPLER_SEED):
            yield f"{workload}/{seed}/{gen.name}/{sampler_seed} {digest(scenario, sampler_seed)}"


def sqrtd_variant_lines():
    """The two reports of example_4_1 over x+sqrtD*y."""
    path = ROOT / "src" / "metallifts" / "scenarios" / "example_4_1.scn"
    text = path.read_text(encoding="utf-8").replace("x+y", "x+sqrtD*y")
    scenario = parse_scenario(text, "example_4_1_sqrtD")
    for sampler_seed in (DEFAULT_SEED, FIXED_SAMPLER_SEED):
        yield f"variant/example_4_1_sqrtD/{sampler_seed} {digest(scenario, sampler_seed)}"


def reflection_lines():
    """The two reports of the dimension-3 reflection, checked by
    np_relation, affine_invariance and nijenhuis_zero_lifted."""
    v = ("1", "y+z^2", "z+x^2")
    norm = "+".join(f"({e})^2" for e in v)
    rows = "\n".join("  row " + " , ".join(
        f"{int(i == j)}-2*({v[i]})*({v[j]})/({norm})" for j in range(3)) for i in range(3))
    text = (f"scenario reflection\nchart x y z\nparams alpha=1 beta=1\n"
            f"structure P kind=product\n{rows}\n"
            "check np_relation P\ncheck affine_invariance P 3 2\n"
            "check nijenhuis_zero_lifted P\n")
    scenario = parse_scenario(text, "reflection_3")
    for sampler_seed in (DEFAULT_SEED, FIXED_SAMPLER_SEED):
        yield f"variant/reflection_3/{sampler_seed} {digest(scenario, sampler_seed)}"


def main() -> int:
    for workload in WORKLOADS:
        for seed in SEEDS:
            for line in digest_lines(workload, seed):
                print(line, flush=True)
    for line in (*sqrtd_variant_lines(), *reflection_lines()):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
