"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import generate  # noqa: E402
import layertrace  # noqa: E402


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload):
    first = generate.generate(workload, 7, SRC)
    assert first == generate.generate(workload, 7, SRC)
    other = generate.generate(workload, 8, SRC)
    assert [s.text for s in first] != [s.text for s in other]
    for sc in first:
        assert len(sc.expected) == generate.count_checks(sc.text)
        assert set(sc.expected) <= {"pass", "fail", "error"}


def test_catalog_holds_every_builtin_and_false_claims():
    scenarios = generate.generate("catalog", 3, SRC)
    names = {s.name for s in scenarios}
    assert {name for name, _ in generate.builtin_texts(SRC)} <= names
    verdicts = {v for s in scenarios for v in s.expected}
    assert verdicts == {"pass", "fail", "error"}


def test_curved_workloads_split_on_the_radicand():
    import math

    for workload, square in (("curved_irrational", False), ("curved_rational", True)):
        for sc in generate.generate(workload, 5, SRC):
            params = next(line for line in sc.text.splitlines() if line.startswith("params"))
            alpha, beta = (int(tok.split("=")[1]) for tok in params.split()[1:])
            disc = alpha * alpha + 4 * beta
            assert (math.isqrt(disc) ** 2 == disc) == square


def _snapshot():
    import metallifts  # noqa: F401

    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "metallifts" or name.startswith("metallifts.")}
    classes = {}
    for layer, names in layertrace.CLASSES.items():
        for cname in names:
            cls = getattr(sys.modules[f"metallifts.{layer}"], cname)
            classes[cname] = dict(vars(cls))
    table = dict(sys.modules["metallifts.checks"].CHECKS)
    return mods, classes, table


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_wrappers_cover_every_binding_and_restore_the_originals():
    for layer in layertrace.LAYERS:
        __import__(f"metallifts.{layer}")
    from metallifts import checks, lifts, report
    from metallifts.symexpr import RatFunc

    before = _snapshot()
    orig_lift, orig_mul = lifts.complete_lift_t11, RatFunc.__dict__["__mul__"]
    inst = layertrace.install(layertrace.Tracer())
    try:
        # A name imported into another module is wrapped there too.
        assert checks.complete_lift_t11 is not orig_lift
        assert checks.complete_lift_t11 is lifts.complete_lift_t11
        assert report.run_check is checks.run_check
        assert RatFunc.__dict__["__mul__"] is not orig_mul
        assert all(fn is not before[2][k] for k, fn in checks.CHECKS.items())
    finally:
        inst.restore()
    after = _snapshot()
    assert all(_same(before[0][m], after[0][m]) for m in before[0])
    assert all(_same(before[1][c], after[1][c]) for c in before[1])
    assert _same(before[2], after[2])


def test_tracing_leaves_the_structured_report_unchanged():
    from metallifts import report, scenario

    text = (SRC / "metallifts" / "scenarios" / "section_linear.scn").read_text()

    def render():  # through the module attributes, as the workload does
        sc = scenario.parse_scenario(text)
        return report.render_structured(report.run_scenario(sc, seed=3), sc.params)

    plain = render()
    tracer = layertrace.Tracer()
    inst = layertrace.install(tracer)
    try:
        traced = render()
    finally:
        inst.restore()
    assert traced == plain
    stats = layertrace.name_stats(tracer.spans)
    assert stats["report.run_scenario"].calls == 1
    assert stats["checks.kind:section_lifts"].calls == 1
    assert layertrace.identity_calls(tracer.spans) == (7, 5)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9].
    tracer = layertrace.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = tracer.open("x.a")
    b = tracer.open("y.b")
    c = tracer.open("x.c")
    tracer.close(c)
    tracer.close(b)
    d = tracer.open("y.b")
    tracer.close(d)
    tracer.close(a)
    stats = layertrace.name_stats(tracer.spans)
    assert stats["x.a"].self_s == 10 - 3 - 4
    assert stats["x.a"].inclusive_s == 10
    assert stats["x.c"].self_s == 1
    assert stats["y.b"].calls == 2
    assert stats["y.b"].self_s == (3 - 1) + 4
    assert stats["y.b"].inclusive_s == 3 + 4
    per_layer = {}
    for name, st in stats.items():
        per_layer[layertrace.layer_of(name)] = per_layer.get(layertrace.layer_of(name), 0) + st.self_s
    # The self times partition the root span.
    assert per_layer == {"x": 4, "y": 6}
    assert sum(per_layer.values()) == stats["x.a"].inclusive_s


def test_identity_calls_count_library_and_inline_derivations():
    tracer = layertrace.Tracer(clock=FakeClock(range(100)))

    def span(name, *children):
        k = tracer.open(name)
        for child in children:
            child()
        tracer.close(k)

    def leaf(name):
        return lambda: span(name)

    # Library identity plus an inline re-derivation: 2.
    span("checks.kind:section_lifts", leaf("cross_section.lift_decomposition_check"),
         leaf("cross_section.b_lift"), leaf("cross_section.b_lift"))
    # Inline only: 1.  Primitives nested under a library call do not count.
    span("checks.kind:section_invariant", leaf("cross_section.restrict_to_section"))
    span("checks.kind:induced_metallic",
         lambda: span("cross_section.induced_structure", leaf("cross_section.b_lift")))
    # Not a section check.
    span("checks.kind:metallic", leaf("cross_section.b_lift"))
    assert layertrace.identity_calls(tracer.spans) == (4, 3)


def test_tail_percentile_keeps_ten_times_beyond_it():
    import run

    for per_pass in (12, 24, 127):
        pct = run.tail_percentile(per_pass)
        fewest = run.RUN_WORKERS * run.MIN_PASSES * per_pass
        assert fewest * (1 - pct / 100) >= 10 > fewest * (1 - (pct + 1) / 100)


def test_scaled_takes_the_median_ratio_to_the_kernel():
    import run

    ref = run.REF_KERNEL_S

    def res(check_s, ref_s, rest_s, rest_ref_s):
        return {"check_s": check_s, "ref_s": ref_s, "rest_s": rest_s, "rest_ref_s": rest_ref_s}

    # One scenario of two checks and a scenario that raised, over three
    # passes; the second pass ran on a core half as fast.
    passes = [
        [res([1.0, 4.0], [ref, ref], 0.5, ref), {"raised": "ValueError: x"}],
        [res([2.0, 8.0], [2 * ref, 2 * ref], 1.0, 2 * ref), {"raised": "ValueError: x"}],
        [res([3.0, 4.0], [ref, ref], 0.5, ref), {"raised": "ValueError: x"}],
    ]
    checks, pass_s = run.scaled(passes)
    assert checks == pytest.approx([1.0, 4.0])
    assert pass_s == pytest.approx(1.0 + 4.0 + 0.5)


def test_reference_kernel_leaves_garbage_collection_as_it_was():
    import gc

    import worker

    enabled = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            t0, t1 = worker.reference_kernel()
            assert t1 > t0 and gc.isenabled() is state
    finally:
        (gc.enable if enabled else gc.disable)()


def test_gate_flags_wrong_verdicts_and_differing_reports():
    import run

    sc = generate.GenScenario("s", "", 1, ("pass", "fail"))
    good = {"verdicts": ["pass", "fail"], "digest": "a"}
    assert run.gate([sc], [[good], [good]], "") == (4, 0, [])
    attempted, failed, problems = run.gate([sc], [[good], [{**good, "digest": "b"}]], "")
    assert (attempted, failed, len(problems)) == (4, 0, 1)
    attempted, failed, _ = run.gate([sc], [[{**good, "verdicts": ["pass", "pass"]}]], "")
    assert (attempted, failed) == (2, 1)
    attempted, failed, _ = run.gate([sc], [[{"raised": "ValueError: x"}]], "")
    assert (attempted, failed) == (2, 2)
