import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metallifts.cli import builtin_names, load_builtin
from metallifts.lifts import tangent_bundle
from metallifts.numfield import make_params
from metallifts.report import (MAX_RESAMPLES, NUM_POINTS, NumericSummary, _sample,
                               _write_json, render_structured, run_scenario)
from metallifts.symexpr import Chart, ResampleNeeded, parse_expr

from conftest import chart_over

P8 = make_params(2, 1)
CH3 = chart_over(P8, ("x", "y", "z"))
# Exact zeros on charts of dimension 1 and 3 and on TM of a plane (dimension 4).
ZEROS = [chart.constant(0) for chart in
         (Chart(("t",)), CH3, tangent_bundle(Chart(("x", "y"))).chart)]


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
    # Exact zeros are not evaluated, but they draw their points.
    for zero in ZEROS:
        assert _sample(zero, rng) == reference_sample(zero, ref_rng)[0]
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", [1, 20230831])
def test_sampler_keeps_the_stream_across_zero_and_nonzero_residuals(seed):
    nonzero = parse_expr("x*y - z/(x + sqrtD*y + 3)", CH3, P8)
    resampling = parse_expr("1/(x*y*z)^8", CH3, P8)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for expr in (ZEROS[0], nonzero, ZEROS[2], resampling, ZEROS[1]):
        assert _sample(expr, rng) == reference_sample(expr, ref_rng)[0]
        assert rng.getstate() == ref_rng.getstate()


def write_json(obj) -> str:
    out = []
    _write_json(obj, out, "\n")
    return "".join(out)


# Any code point: non-ASCII, control characters and lone surrogates, which
# st.characters() alone never draws.
TEXT = st.text(st.characters() | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**40, 10**40) | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(obj=JSON_VALUES)
def test_json_writer_equals_json_dumps(obj):
    assert write_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [1.5, (1, 2), {1: "a"}, {"a": [{None: 0}]}, [{"a": 0.0}]])
def test_json_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        write_json(obj)


@pytest.mark.parametrize("name", builtin_names())
def test_structured_report_is_json_dumps_of_itself(name):
    scenario = load_builtin(name)
    text = render_structured(run_scenario(scenario), scenario.params)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
