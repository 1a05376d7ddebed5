import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metallifts import checks
from metallifts.cli import builtin_names, load_builtin, main
from metallifts.report import render_structured, render_text, run_scenario
from metallifts.scenario import parse_scenario
from metallifts.symexpr import RatFunc

EXPECTED_BUILTINS = {
    "errata", "example_3_1", "example_4_1", "gold_diag", "horizontal_curved",
    "horizontal_flat", "means_bronze", "means_copper", "means_gold",
    "means_nickel", "means_silver", "means_subtle", "section_linear",
    "section_zero",
}


def test_builtin_inventory():
    assert set(builtin_names()) == EXPECTED_BUILTINS


def test_list_builtin(capsys):
    assert main(["run", "--list-builtin"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == sorted(EXPECTED_BUILTINS)


def test_run_builtin_passes(capsys):
    assert main(["run", "--builtin", "means_gold"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_unknown_builtin_exits_2(capsys):
    assert main(["run", "--builtin", "nope"]) == 2
    assert "available" in capsys.readouterr().err


@pytest.mark.parametrize("outside", [False, True], ids=["in_package", "outside"])
def test_builtin_name_that_is_a_path_exits_2(tmp_path, capsys, outside):
    """--builtin takes a listed name, never a path: neither a builtin
    reached through '..' nor a file outside the package runs."""
    scenarios = Path(str(resources.files("metallifts") / "scenarios"))
    name = "../scenarios/means_gold"
    if outside:
        (tmp_path / "outside.scn").write_text((scenarios / "means_gold.scn").read_text())
        name = os.path.relpath(tmp_path / "outside", scenarios)
    assert main(["run", "--builtin", name]) == 2
    assert f"no builtin scenario named {name!r}" in capsys.readouterr().err


def test_missing_scenario_argument_exits_2(capsys):
    assert main(["run"]) == 2
    assert "scenario file" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.scn")]) == 2
    assert "error" in capsys.readouterr().err


def test_load_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text("scenario s\nchart x y\nfrobnicate\n")
    assert main(["run", str(path)]) == 2
    assert "frobnicate" in capsys.readouterr().err


FAILING = """\
scenario failing
chart x y
params alpha=1 beta=1
structure P kind=product
  row 0 , 1
  row 1 , 0
check component P 1 1 x      # wrong: the entry is 0
check metallic_from_product P
"""


def test_failing_check_exits_1(tmp_path, capsys):
    path = tmp_path / "failing.scn"
    path.write_text(FAILING)
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "[PASS]" in out  # the later check still ran
    assert "overall: fail" in out


ERRORING = """\
scenario erroring
chart x y
params alpha=1 beta=1
structure NotP kind=metallic
  row 0 , 1
  row 1 , 0
check metallic NotP
check mean_defining
"""


def test_check_error_is_captured_not_fatal(tmp_path, capsys):
    path = tmp_path / "erroring.scn"
    path.write_text(ERRORING)
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[ERROR]" in out
    assert "[PASS]" in out


OVERFLOWING = """\
scenario overflowing
chart x y
params alpha=1 beta=1
structure P kind=product
  row 1 , 0
  row 0 , -1
check component P 1 1 x^2000
check almost_product P
"""


def test_overflowing_sample_is_resampled_not_fatal(tmp_path, capsys):
    # x^2000 overflows a float wherever |x| exceeds about 1.426.
    path = tmp_path / "overflowing.scn"
    path.write_text(OVERFLOWING)
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] check component P 1 1 x^2000" in captured.out
    assert "[PASS] check almost_product P" in captured.out
    assert "Traceback" not in captured.out + captured.err


DEEP = "(" * 200 + "x" + ")" * 200


def test_deeply_nested_check_argument_is_an_error_not_a_crash(tmp_path, capsys):
    path = tmp_path / "deep.scn"
    path.write_text(OVERFLOWING.replace("x^2000", DEEP))
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert "[ERROR] check component P 1 1 (((" in captured.out
    assert "nests deeper than 100 levels" in captured.out
    assert "[PASS] check almost_product P" in captured.out
    assert "Traceback" not in captured.out + captured.err


# Each is refused before its first oversized power or product is expanded.
OVERSIZED = {"power": "(x+y+1)^3000", "nested_power": "((x+y+1)^60)^60",
             "product": "*".join(["(x+y+1)^60"] * 50)}


@pytest.mark.parametrize("expr", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_check_argument_is_an_error_not_a_hang(tmp_path, capsys, expr):
    path = tmp_path / "big.scn"
    path.write_text(OVERFLOWING.replace("x^2000", expr))
    start = time.perf_counter()
    assert main(["run", str(path)]) == 1
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert "[ERROR] check component P 1 1 (" in captured.out
    assert "limit" in captured.out
    assert "[PASS] check almost_product P" in captured.out


@pytest.mark.parametrize("expr", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_structure_row_exits_2(tmp_path, capsys, expr):
    path = tmp_path / "big.scn"
    path.write_text(OVERFLOWING.replace("row 1 , 0", f"row {expr} , 0"))
    start = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - start < 5
    assert "limit" in capsys.readouterr().err


def test_deeply_nested_structure_row_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.scn"
    path.write_text(OVERFLOWING.replace("row 1 , 0", f"row {DEEP} , 0"))
    assert main(["run", str(path)]) == 2
    assert "nests deeper than 100 levels" in capsys.readouterr().err


# Quotients near the degree limit: a base past the power tables of the
# divisibility filter in Poly.exact_quo, and a numerator past them divided
# by a small base; in both the filter stands aside for the long division.
NEAR_DEGREE_LIMIT = {
    "large_base": "(x^600+sqrtD*y^600+3)*(x^600+1)/(x^600+1) - x^600 - sqrtD*y^600 - 2",
    "small_base": "(x^600+sqrtD*y^600+3)*(x+y+1)/(x+y+1) - x^600 - sqrtD*y^600 - 2",
}


@pytest.mark.parametrize("expr", NEAR_DEGREE_LIMIT.values(), ids=NEAR_DEGREE_LIMIT.keys())
def test_quotient_near_the_degree_limit_keeps_its_verdict(tmp_path, capsys, expr):
    path = tmp_path / "near.scn"
    path.write_text(OVERFLOWING.replace("x^2000", expr))
    assert main(["run", str(path)]) == 0
    assert f"[PASS] check component P 1 1 {expr}" in capsys.readouterr().out


# Integer literals int() refuses: a digit outside ASCII, and one with more
# digits than the interpreter converts (sys.get_int_max_str_digits()).
BAD_LITERALS = {"superscript": "\u00b2", "long": "1" * 5000}


@pytest.mark.parametrize("literal", BAD_LITERALS.values(), ids=BAD_LITERALS.keys())
def test_unconvertible_literal_in_a_row_exits_2(tmp_path, capsys, literal):
    path = tmp_path / "literal.scn"
    path.write_text(OVERFLOWING.replace("row 1 , 0", f"row {literal} , 0"), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "(at position 0)" in capsys.readouterr().err


def test_unconvertible_literal_in_a_check_is_an_error_at_its_position(tmp_path, capsys):
    path = tmp_path / "literal.scn"
    path.write_text(OVERFLOWING.replace("x^2000", "x^\u00b2"), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "error: in expression 'x^\u00b2': unexpected character '\u00b2' (at position 2)" in out
    assert "[PASS] check almost_product P" in out


def test_params_take_only_ascii_digits(tmp_path, capsys):
    # int() reads "\u0661" (Arabic-Indic one) as 1 and "1_0" as 10.
    path = tmp_path / "params.scn"
    path.write_text(OVERFLOWING.replace("alpha=1 beta=1", "alpha=\u0661 beta=1_0"),
                    encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "invalid params" in capsys.readouterr().err


@pytest.mark.parametrize("check, message", [
    ("affine_invariance P 1_0 \u0662", "affine_invariance needs integer coefficients a b"),
    ("component P \u0661 1 0", "component indices must be integers"),
])
def test_integer_check_arguments_take_only_ascii_digits(tmp_path, capsys, check, message):
    path = tmp_path / "arguments.scn"
    path.write_text(OVERFLOWING.replace("component P 1 1 x^2000", check), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"[ERROR] check {check}" in out
    assert f"error: {message}" in out
    assert "[PASS] check almost_product P" in out


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("where", ["check", "row"])
def test_coefficient_past_the_int_string_limit_is_rendered(tmp_path, capsys, where, fmt):
    # The residual's coefficient 10^6000 - 1 (or its square, for the row)
    # has more digits than str() converts at once.
    big = "(10^2000)^3"
    text = (OVERFLOWING.replace("x^2000", big) if where == "check"
            else OVERFLOWING.replace("row 1 , 0", f"row {big} , 0"))
    path = tmp_path / "big.scn"
    path.write_text(text)
    assert main(["run", str(path), "--format", fmt]) == 1
    assert "9" * 6000 in capsys.readouterr().out


def test_text_report_counts_the_points_sampled(tmp_path, capsys):
    # The residual 1 - 10^6000 overflows a float at every point.
    path = tmp_path / "big.scn"
    path.write_text(OVERFLOWING.replace("x^2000", "(10^2000)^3"))
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "1 zero-residual(s), numeric max |value| = 0.000e+00 over 0 seeded points each" in out
    assert "4 zero-residual(s), numeric max |value| = 0.000e+00 over 10 seeded points each" in out


def test_text_report_gives_the_range_of_points_sampled():
    scenario = parse_scenario(OVERFLOWING)
    report = run_scenario(scenario)
    almost_product = report.checks[1]  # four zero residuals
    almost_product.numeric[0][1].points = 3
    assert "4 zero-residual(s), numeric max |value| = 0.000e+00 over 3 to 10 seeded points each" \
        in render_text(report, scenario.params)


def test_load_error_quotes_a_long_expression_in_part(tmp_path, capsys):
    path = tmp_path / "long.scn"
    path.write_text(OVERFLOWING.replace("row 1 , 0", f"row {'1' * 4000} + q , 0"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert max(len(line) for line in err.splitlines()) <= 300
    assert "(4004 characters): unknown identifier 'q' (at position 4003)" in err


def test_check_error_quotes_a_long_expression_in_part():
    scenario = parse_scenario(OVERFLOWING.replace("x^2000", f"{'1' * 4000} + q"))
    report = json.loads(render_structured(run_scenario(scenario), scenario.params))
    error = report["checks"][0]["error"]
    assert len(error) < 300
    assert "(4004 characters): unknown identifier 'q' (at position 4003)" in error


def test_unexpected_exception_in_a_check_is_contained(tmp_path, capsys, monkeypatch):
    def boom(ctx, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(checks.CHECKS, "almost_product", boom)
    path = tmp_path / "boom.scn"
    path.write_text(FAILING.replace("check component P 1 1 x      # wrong: the entry is 0",
                                    "check almost_product P"))
    assert main(["run", str(path), "--format", "structured"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert [(c["verdict"], c["error"]) for c in doc["checks"]] == [
        ("error", "RuntimeError: boom"), ("pass", None)]
    assert "Traceback" not in captured.out + captured.err


def test_unexpected_exception_while_sampling_is_contained(capsys, monkeypatch):
    evaluate = RatFunc.eval_numeric
    calls = []

    def first_call_fails(expr, point):
        calls.append(point)
        if len(calls) == 1:
            raise ZeroDivisionError("float division by zero")
        return evaluate(expr, point)

    monkeypatch.setattr(RatFunc, "eval_numeric", first_call_fails)
    assert main(["run", "--builtin", "errata", "--format", "structured"]) == 1
    captured = capsys.readouterr()
    outcomes = [(c["verdict"], c["error"]) for c in json.loads(captured.out)["checks"]]
    assert outcomes[0] == ("error", "ZeroDivisionError: float division by zero")
    assert len(outcomes) > 1 and set(outcomes[1:]) == {("pass", None)}
    assert "Traceback" not in captured.err


def test_non_utf8_scenario_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_bytes(FAILING.encode() + b"# \xff\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text" in err
    assert "Traceback" not in err


DECLARATIONS = {
    "structure": "structure P kind=product\n  row 0 , 1\n  row 1 , 0\n",
    "field": "field P\n  row x , y\n",
    "connection": "connection P\n" + "  block\n    row 0 , 0\n    row 0 , 0\n" * 2,
    "distribution": "distribution P\n  generator 1 , 0\n",
}


@pytest.mark.parametrize("kind", sorted(DECLARATIONS))
def test_duplicate_declaration_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "twice.scn"
    decl = DECLARATIONS[kind]
    path.write_text(FAILING.replace("check component", decl + decl + "check component"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{kind} 'P' is declared twice" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["scenario other", "chart u v", "params alpha=2 beta=4"])
def test_repeated_header_line_exits_2(tmp_path, capsys, line):
    path = tmp_path / "twice.scn"
    path.write_text(FAILING.replace("check component", line + "\ncheck component"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{line.split()[0]!r} is given twice" in err
    assert "Traceback" not in err


def test_structure_error_names_the_radical_as_sqrt(tmp_path, capsys):
    path = tmp_path / "radical.scn"
    path.write_text(FAILING.replace("kind=product\n  row 0 , 1",
                                    "kind=metallic\n  row 3/2*sqrtD*x - 1/2*x , 1")
                    .replace("metallic_from_product", "metallic"))
    assert main(["run", str(path), "--format", "structured"]) == 1
    errors = [c["error"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert errors[1] == ("Psi^2 - alpha*Psi - beta*I has nonzero component [1][1]: "
                         "RatFunc((23/2 - 3/2*sqrt(5))*x^2 + (1/2 - 3/2*sqrt(5))*x)")


def test_generator_of_the_wrong_length_exits_2(tmp_path, capsys):
    path = tmp_path / "short.scn"
    path.write_text(FAILING.replace("check component",
                                    "distribution R\n  generator 1 -(x+y)\ncheck component"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "distribution 'R' needs generators of 2 components" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["alpha", "beta", "sigma", "sqrtD"])
def test_chart_variable_shadowing_a_parameter_exits_2(tmp_path, capsys, name):
    path = tmp_path / "shadow.scn"
    path.write_text(FAILING.replace("chart x y", f"chart {name} y"))
    assert main(["run", str(path)]) == 2
    assert repr(name) in capsys.readouterr().err


def test_discriminant_above_the_cap_exits_2(tmp_path):
    # D = alpha^2 + 4*beta is a product of two primes of about 26 digits;
    # factoring it would take minutes, so it must be refused before that.
    path = tmp_path / "semiprime.scn"
    path.write_text(FAILING.replace(
        "params alpha=1 beta=1",
        "params alpha=1 beta=175000000000000000000000500000000000000000000000354"))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "metallifts.cli", "run", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "exceeds the limit 1000000000000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_structured_output_is_json(tmp_path, capsys):
    assert main(["run", "--builtin", "means_silver", "--format",
                 "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "means_silver"
    assert doc["overall"] == "pass"
    assert all(c["verdict"] == "pass" for c in doc["checks"])


def test_structured_output_deterministic(capsys):
    scenario = load_builtin("gold_diag")
    a = render_structured(run_scenario(scenario, seed=11), scenario.params)
    b = render_structured(run_scenario(scenario, seed=11), scenario.params)
    assert a == b
    c = render_structured(run_scenario(scenario, seed=12), scenario.params)
    assert c != a  # the seed is part of the report


def test_seed_recorded_in_report(capsys):
    assert main(["run", "--builtin", "means_gold", "--seed", "42"]) == 0
    assert "seed: 42" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["\u0664\u0662", "4_2", " 42"])
def test_seed_takes_only_ascii_digits(capsys, seed):
    # int() reads each of these as 42.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--builtin", "means_gold", "--seed", seed])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err


def test_long_seed_is_quoted_in_part(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--builtin", "means_gold", "--seed", "7" * 4400])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert max(len(line) for line in err.splitlines()) <= 300
    assert "argument --seed: '" + "7" * 60 + "'... (4400 characters) has more than" in err


@pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS - {"example_4_1"}))
def test_each_small_builtin_passes(name):
    report = run_scenario(load_builtin(name))
    assert report.ok, [c.raw for c in report.checks if c.verdict != "pass"]


# -- fuzzing scenario text ---------------------------------------------------

def _builtin_lines(name: str) -> list[str]:
    path = resources.files("metallifts") / "scenarios" / f"{name}.scn"
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


BUILTIN_LINES = {name: _builtin_lines(name) for name in sorted(EXPECTED_BUILTINS)}
# Names (with a trailing ``=value``), numbers and single characters.
LEXEME = re.compile(r"[A-Za-z_]\w*(?:=\w*)?|\d+|\S")
# Every token of every builtin, plus a few that no builtin uses.
TOKENS = sorted({tok for lines in BUILTIN_LINES.values() for line in lines
                 for tok in LEXEME.findall(line)}
                | {"0", "-1", "1/0", "x^-1", "kind=", "alpha=0", "nope", "row", "block",
                   "generator", "field", "check"})


@st.composite
def mutated_scenarios(draw) -> str:
    """A builtin's declarations and one of its checks, with a few tokens
    replaced, deleted or inserted.  One check per scenario keeps every
    run short."""
    lines = BUILTIN_LINES[draw(st.sampled_from(sorted(BUILTIN_LINES)))]
    decls = [line for line in lines if not line.startswith("check ")]
    lines = decls + [draw(st.sampled_from([line for line in lines
                                           if line.startswith("check ")]))]
    for _ in range(draw(st.integers(1, 3))):
        # Any token, or the end of any line, is equally likely to change.
        k, i = draw(st.sampled_from([(k, i) for k, line in enumerate(lines)
                                     for i in range(len(LEXEME.findall(line)) + 1)]))
        toks = LEXEME.findall(lines[k])
        op = draw(st.sampled_from(("replace", "delete", "insert")))
        if op == "insert" or i == len(toks):
            toks.insert(i, draw(st.sampled_from(TOKENS)))
        elif op == "replace":
            toks[i] = draw(st.sampled_from(TOKENS))
        else:
            del toks[i]
        lines[k] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(text=mutated_scenarios())
def test_mutated_scenario_text_exits_0_1_or_2(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutant.scn"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
