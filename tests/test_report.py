import math
import random

import pytest

from metallifts.numfield import make_params
from metallifts.report import MAX_RESAMPLES, NUM_POINTS, NumericSummary, _sample
from metallifts.symexpr import Chart, ResampleNeeded, parse_expr

CH3 = Chart(("x", "y", "z"))
P8 = make_params(2, 1)


def reference_sample(expr, rng):
    """The sampler written with rng.uniform(-2.0, 2.0) per coordinate, in
    chart order; also the number of points it drew."""
    max_abs, done, attempts = 0.0, 0, 0
    while done < NUM_POINTS and attempts < NUM_POINTS + MAX_RESAMPLES:
        attempts += 1
        point = [rng.uniform(-2.0, 2.0) for _ in expr.chart.variables]
        try:
            val = expr.eval_numeric(point)
        except (ResampleNeeded, OverflowError):
            continue
        if not math.isfinite(val):
            continue
        max_abs = max(max_abs, abs(val))
        done += 1
    return NumericSummary(done, max_abs, True), attempts


@pytest.mark.parametrize("text, resamples", [
    ("x*y - z/(x + sqrtD*y + 3)", False),
    ("(x - 2*y)^3/(z^2 + 1) + 1/7", False),
    ("1/(x*y*z)^8", True),         # a near-zero denominator wherever |xyz| < 0.1
    ("x^2000", True),              # overflows wherever |x| exceeds about 1.426
    ("x^700*y^700*z^600", True),
])
@pytest.mark.parametrize("seed", [1, 20230831])
def test_sampler_draws_the_stream_of_uniform_coordinates(text, resamples, seed):
    expr = parse_expr(text, CH3, P8)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    expected, attempts = reference_sample(expr, ref_rng)
    assert _sample(expr, rng) == expected
    assert rng.getstate() == ref_rng.getstate()
    assert (attempts > NUM_POINTS) == resamples
