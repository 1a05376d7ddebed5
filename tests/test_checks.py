"""The check registry: each ``check_<kind>`` function is the kind, and its
signature is the argument list that runs and README state."""

import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from metallifts import checks
from metallifts.checks import CHECKS, Context, run_check
from metallifts.cli import builtin_names, load_builtin
from metallifts.report import run_scenario
from metallifts.scenario import parse_scenario

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def arguments(fn) -> list[str]:
    """The parameter names after the context, a variadic one as ``*name``."""
    params = list(inspect.signature(fn).parameters.values())[1:]
    return [("*" if p.kind is p.VAR_POSITIONAL else "") + p.name for p in params]


def test_every_check_function_is_registered_under_its_kind():
    functions = {name.removeprefix("check_"): fn
                 for name, fn in inspect.getmembers(checks, inspect.isfunction)
                 if name.startswith("check_") and fn.__module__ == checks.__name__}
    assert CHECKS == functions


FIXED = sorted(kind for kind, fn in CHECKS.items()
               if not any(a.startswith("*") for a in arguments(fn)))


@pytest.mark.parametrize("kind", FIXED)
def test_one_argument_too_many_is_an_arity_error(kind):
    n = len(arguments(CHECKS[kind]))
    args = ("P",) * (n + 1)
    out = run_check(Context(load_builtin("gold_diag")), kind, args,
                    " ".join(("check", kind) + args))
    assert (out.name, out.verdict, out.error) == (
        kind, "error", f"expected {n} argument(s), got {n + 1}")


def test_readme_lists_every_kind_with_its_arguments():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Check kinds", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|", section, re.M)
    assert {kind: re.findall(r"`([^`]+)`", args) for kind, args in rows} == {
        kind: arguments(fn) for kind, fn in CHECKS.items()}
    assert len(rows) == len(CHECKS)


# The facts a check may state: none of them says that something is zero.
KEPT_FACTS = ("sigma > 0 numerically", "degree == 2", "equivalence on invariant sections")


def catalog_scenarios(seed: int):
    """The scenarios of the benchmark's catalog workload at ``seed``."""
    generate = sys.modules.get("perfbench_generate")
    if generate is None:
        spec = importlib.util.spec_from_file_location(
            "perfbench_generate", ROOT / "perfbench" / "generate.py")
        generate = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generate)
    return [parse_scenario(gen.text, gen.name)
            for gen in generate.generate("catalog", seed, ROOT / "src")]


def test_facts_are_never_zero_tests():
    """A zero test is a residual, never a fact: over the builtins and the
    catalog workload, every fact is a kept kind or the fallback of a tensor
    expected nonzero that has no nonzero component."""
    scenarios = [load_builtin(name) for name in builtin_names()]
    scenarios += [s for seed in (1, 2, 3) for s in catalog_scenarios(seed)]
    labels = {label for s in scenarios for c in run_scenario(s).checks
              for label, _ in c.outcome.facts}
    assert labels and all(label in KEPT_FACTS or label.endswith(" has a nonzero component")
                          for label in labels), labels


def test_a_nonzero_claim_with_no_nonzero_component_fails_on_the_fallback_fact():
    """section_not_invariant on the invariant section V: L_V Psi has no
    nonzero component to report, so the only record is the false fact."""
    scenario = load_builtin("section_linear")
    ctx = Context(scenario)
    out = run_check(ctx, "section_not_invariant", ("PSI", "V"),
                    "check section_not_invariant PSI V")
    assert out.verdict == "fail"
    assert out.facts == [("L_V Psi has a nonzero component", False)]
    assert all(r.expect == "zero" and r.expr.is_zero for r in out.residuals)
