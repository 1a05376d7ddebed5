"""The check registry: each ``check_<kind>`` function is the kind, and its
signature is the argument list that runs and README state."""

import inspect
import re
from pathlib import Path

import pytest

from metallifts import checks
from metallifts.checks import CHECKS, Context, run_check
from metallifts.cli import load_builtin

README = Path(__file__).resolve().parents[1] / "README.md"


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
