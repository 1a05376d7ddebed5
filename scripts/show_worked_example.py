#!/usr/bin/env python3
"""Reconstruct the position-dependent plane example and print its pieces.

The structure is built by conjugating diag(1, -1) through the basis of the
two target eigendistributions R = span{d/dx - (x+y) d/dy} and
S = span{(x+y) d/dx + d/dy}, then mapping through the product-to-metallic
correspondence.  The package is loaded from the ``src/`` next to this
script, so it runs in a checkout without an install.

Usage: python3 scripts/show_worked_example.py [alpha beta]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from metallifts.integrability import (example_41_distribution_generators,
                                      example_41_structure, nijenhuis_t11)
from metallifts.metallic import projectors_from_metallic
from metallifts.numfield import make_params


def main() -> int:
    alpha, beta = (int(sys.argv[1]), int(sys.argv[2])) \
        if len(sys.argv) == 3 else (1, 1)
    params = make_params(alpha, beta)
    print(f"alpha = {alpha}, beta = {beta}, sigma = {params.sigma}, "
          f"sqrt(D) = {params.sqrtD}\n")

    M = example_41_structure(params)
    print("Psi =")
    for row in M.tensor.components:
        print("  [" + ",  ".join(c.to_text(params) for c in row) + "]")

    pair = projectors_from_metallic(M)
    for label, proj in (("r", pair.r), ("s", pair.s)):
        print(f"\nprojector {label} =")
        for row in proj.components:
            print("  [" + ",  ".join(c.to_text(params) for c in row) + "]")

    gen_r, gen_s = example_41_distribution_generators(M.chart)
    print("\neigendistribution generators:")
    print("  R: (" + ", ".join(c.to_text(params) for c in gen_r.components) + ")")
    print("  S: (" + ", ".join(c.to_text(params) for c in gen_s.components) + ")")

    n = nijenhuis_t11(M.tensor)
    print(f"\nNijenhuis tensor vanishes identically: {n.is_zero}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
