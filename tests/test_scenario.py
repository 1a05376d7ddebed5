import gc
import weakref
from fractions import Fraction

import pytest

from metallifts.checks import CheckError, Context
from metallifts.cli import load_builtin
from metallifts.numfield import QuadScalar
from metallifts.report import render_structured, run_scenario
from metallifts.scenario import Scenario, ScenarioError, parse_once, parse_scenario

GOOD = """\
# a minimal scenario
scenario demo
chart x y
params alpha=1 beta=1

structure P kind=product
  row 0 , 1
  row 1 , 0

field X
  row x*y , y^2

connection Zero
  block
    row 0 , 0
    row 0 , 0
  block
    row 0 , 0
    row 0 , 0

distribution R
  generator 1 , -(x + y)

check metallic_from_product P
check nijenhuis_zero P
"""


def test_parse_good_scenario():
    sc = parse_scenario(GOOD, "demo.scn")
    assert sc.name == "demo"
    assert sc.chart.variables == ("x", "y")
    assert sc.params.alpha == 1 and sc.params.beta == 1
    assert set(sc.structures) == {"P"}
    assert sc.structures["P"][0] == "product"
    assert set(sc.fields) == {"X"}
    assert set(sc.connections) == {"Zero"}
    assert set(sc.distributions) == {"R"}
    assert [c.kind for c in sc.checks] == ["metallic_from_product",
                                           "nijenhuis_zero"]
    assert sc.checks[0].args == ("P",)


def scenario_error(text):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, "bad.scn")
    return str(err.value)


def test_missing_name():
    msg = scenario_error("chart x y\nparams alpha=1 beta=1\ncheck metallic P\n")
    assert "scenario NAME" in msg


def test_missing_checks():
    msg = scenario_error("scenario s\nchart x y\nparams alpha=1 beta=1\n")
    assert "no checks" in msg


def test_unknown_directive_reports_line():
    msg = scenario_error("scenario s\nchart x y\nparams alpha=1 beta=1\n"
                         "frobnicate\ncheck metallic P\n")
    assert "bad.scn:4" in msg and "frobnicate" in msg


def test_declarations_need_header_first():
    msg = scenario_error("scenario s\nstructure P kind=product\n")
    assert "chart and params" in msg


def test_bad_params():
    msg = scenario_error("scenario s\nchart x y\nparams alpha=0 beta=1\n")
    assert "invalid params" in msg
    msg = scenario_error("scenario s\nchart x y\nparams gamma=1 beta=1\n")
    assert "alpha=" in msg


def test_wrong_matrix_shape():
    msg = scenario_error(
        "scenario s\nchart x y\nparams alpha=1 beta=1\n"
        "structure P kind=product\n  row 0 , 1\ncheck metallic P\n")
    assert "2x2" in msg


def test_unknown_structure_kind():
    msg = scenario_error(
        "scenario s\nchart x y\nparams alpha=1 beta=1\n"
        "structure P kind=weird\n")
    assert "kind" in msg


def test_bad_expression_reports_line_and_position():
    msg = scenario_error(
        "scenario s\nchart x y\nparams alpha=1 beta=1\n"
        "field X\n  row x + , y\ncheck metallic P\n")
    assert "bad.scn:5" in msg


def test_row_outside_declaration():
    msg = scenario_error(
        "scenario s\nchart x y\nparams alpha=1 beta=1\nrow 1 , 0\n")
    assert "outside" in msg


def test_generator_line_only_in_distributions():
    msg = scenario_error(
        "scenario s\nchart x y\nparams alpha=1 beta=1\n"
        "structure P kind=product\n  generator 1 , 0\n")
    assert "row" in msg


def test_block_only_in_connections():
    msg = scenario_error(
        "scenario s\nchart x y\nparams alpha=1 beta=1\n"
        "field X\n  block\n")
    assert "connection" in msg


def test_comments_and_blank_lines_ignored():
    text = GOOD.replace("check nijenhuis_zero P",
                        "  # trailing note\n\ncheck nijenhuis_zero P  # ok")
    sc = parse_scenario(text)
    assert len(sc.checks) == 2


HEAD = "scenario s\nchart x y\nparams alpha=1 beta=1\n"  # lines 1-3


LOAD_ERRORS = [  # (text, a fragment of its message, the line at fault)
    ("scenario\n", "scenario needs a name", 1),
    ("scenario s\nscenario t\n", "'scenario' is given twice", 2),
    ("scenario s\nchart\n", "chart needs at least one variable name", 2),
    ("scenario s\nchart x sigma\n", "chart variable 'sigma' would shadow the parameter", 2),
    ("scenario s\nchart x x\n", "chart variable names must be distinct", 2),
    # a name the expression grammar does not read as one identifier
    ("scenario s\nchart 2 y\n", "chart variable '2' is not a name an expression can use", 2),
    ("scenario s\nchart x-1 y\n", "chart variable 'x-1' is not a name", 2),
    ("scenario s\nchart x y\nparams alpha=1\n", "params needs alpha=A beta=B", 3),
    ("scenario s\nchart x y\nparams alpha=1 beta=x\n", "invalid params: 'x' is not an integer", 3),
    ("scenario s\nchart x y\nparams gamma=1 beta=1\n", "expected alpha=..., found 'gamma=1'", 3),
    ("scenario s\nstructure P kind=product\n",
     "chart and params must precede other declarations", 2),
    (HEAD + "frobnicate\n", "unknown directive 'frobnicate'", 4),
    (HEAD + "check\n", "check needs a type", 4),
    (HEAD + "structure P\n", "structure needs NAME kind=KIND", 4),
    (HEAD + "structure P type=product\n", "expected kind=..., found 'type=product'", 4),
    (HEAD + "structure P kind=weird\n", "unknown structure kind 'weird'", 4),
    (HEAD + "field\n", "field needs a name", 4),
    (HEAD + "connection\n", "connection needs a name", 4),
    (HEAD + "distribution\n", "distribution needs a name", 4),
    (HEAD + "field X Y\n", "field takes one NAME, found 'X Y'", 4),
    (HEAD + "connection G H\n", "connection takes one NAME, found 'G H'", 4),
    (HEAD + "distribution R kind=product\n",
     "distribution takes one NAME, found 'R kind=product'", 4),
    (HEAD + "connection G\n  block foo\n", "'block' takes nothing after it, found 'foo'", 5),
    (HEAD + "generator 1 , 0\n", "'generator' outside of a declaration", 4),
    (HEAD + "distribution R\n  block\n", "'block' only belongs to a connection", 5),
    (HEAD + "field X\n  generator 1 , 0\n", "fields use 'row' lines", 5),
    # a body line with the wrong keyword is refused before its entries are parsed
    (HEAD + "structure P kind=product\n  generator x + , y\n", "structures use 'row' lines", 5),
    (HEAD + "distribution R\n  row 1 , 0\n", "distributions use 'generator' lines", 5),
    (HEAD + "connection G\n  block\n    generator 0 , 0\n",
     "connections use 'row' lines inside blocks", 6),
    (HEAD + "connection G\n  row 0 , 0\n  block\n    row 0 , 0\n",
     "row before the first block", 5),
    (HEAD + "field X\n  row x , \n", "empty entry in comma-separated list", 5),
    (HEAD + "field X\n  row x + , y\n", "in expression 'x +': expected a value", 5),
    (HEAD + "structure P kind=product\n  row 0 , 1\ncheck metallic P\n",
     "structure 'P' needs a 2x2 matrix", 4),
    (HEAD + "field X\n  row 1\ncheck metallic P\n",
     "field 'X' needs one row of 2 components", 4),
    (HEAD + "connection G\n  block\n    row 0 , 0\n    row 0 , 0\ncheck metallic P\n",
     "connection 'G' needs 2 blocks of 2x2 rows", 4),
    (HEAD + "distribution R\ncheck metallic P\n",
     "distribution 'R' needs at least one generator", 4),
    (HEAD + "distribution R\n  generator 1\n",
     "distribution 'R' needs generators of 2 components", 4),
    (HEAD + "field X\n  row 1 , 2\nfield X\n  row 1 , 2\n", "field 'X' is declared twice", 6),
    ("chart x y\nparams alpha=1 beta=1\ncheck metallic P\n", "missing 'scenario NAME' line",
     None),
    ("scenario s\nchart x y\n", "missing chart or params", None),
    (HEAD, "scenario declares no checks", None),
]


# The chart line's errors with params given first: the chart is built over
# the params' field once both lines are read, in either order.
PARAMS_FIRST = [(text.replace("scenario s\nchart", "scenario s\nparams alpha=1 beta=1\nchart"),
                 fragment, line + 1)
                for text, fragment, line in LOAD_ERRORS[2:7]]


@pytest.mark.parametrize("text, fragment, line", LOAD_ERRORS + PARAMS_FIRST,
                         ids=[fragment for _, fragment, _ in LOAD_ERRORS]
                         + [f"params first: {fragment}" for _, fragment, _ in PARAMS_FIRST])
def test_every_load_error_gives_its_line_once(text, fragment, line):
    msg = scenario_error(text)
    assert msg.startswith("bad.scn: " if line is None else f"bad.scn:{line}: ")
    assert fragment in msg and msg.count("bad.scn") == 1


def test_params_before_chart_load_the_same_scenario():
    params_first = GOOD.replace("chart x y\nparams alpha=1 beta=1\n",
                                "params alpha=1 beta=1\nchart x y\n")
    assert params_first != GOOD
    sc, sc_params_first = parse_scenario(GOOD), parse_scenario(params_first)
    assert sc.chart.field.d == sc.params.radicand == 5
    assert sc_params_first == sc
    assert (render_structured(run_scenario(sc_params_first), sc.params)
            == render_structured(run_scenario(sc), sc.params))


def test_long_params_value_is_quoted_in_part():
    msg = scenario_error(f"scenario s\nchart x y\nparams alpha={'x' * 5000} beta=1\n")
    assert len(msg) < 200
    assert f"invalid params: {'x' * 60!r}... (5000 characters) is not an integer" in msg


def test_a_check_argument_that_restates_an_entry_is_that_entry():
    sc = load_builtin("example_4_1")
    spec = next(c for c in sc.checks if c.kind == "component" and c.args[1:3] == ("1", "2"))
    assert spec.args[0] == "PSI"
    assert Context(sc).expr(spec.args[3:]) is sc.structures["PSI"][1].components[0][1]


def test_texts_that_differ_only_in_whitespace_share_one_value():
    sc = parse_scenario("scenario s\nchart x y\nparams alpha=1 beta=1\n"
                        "field X\n  row x  +  y , x + y\n"
                        "field Y\n  row x\t+ y , 2\ncheck component P 1 1 x + y\n")
    value = sc.fields["X"].components[0]
    assert sc.fields["X"].components[1] is value
    assert sc.fields["Y"].components[0] is value
    assert Context(sc).expr(("x", "+", "y")) is value
    assert parse_once(sc.exprs, " x +\ty ", sc.chart, sc.params) is value
    assert list(sc.exprs) == ["x + y", "2"]


def test_a_bad_text_raises_its_own_error_every_time():
    text = "scenario s\nchart x y\nparams alpha=1 beta=1\nfield X\n  row {} , y\ncheck metallic P\n"
    for _ in range(2):
        for entry, position in (("x *", 3), ("x   *", 5)):
            with pytest.raises(ScenarioError) as info:
                parse_scenario(text.format(entry), "w.scn")
            assert str(info.value) == (f"w.scn:5: in expression {entry!r}: expected a value, "
                                       f"found 'end of input' (at position {position})")
    sc = parse_scenario(text.format("x"), "w.scn")
    context = Context(sc)
    for _ in range(2):
        for tokens, message in ((("x", "*"), "expected a value, found 'end of input' "
                                              "(at position 3)"),
                                (("(x",), "expected ), found end of input (at position 2)")):
            with pytest.raises(CheckError) as info:
                context.expr(tokens)
            assert str(info.value) == f"in expression {' '.join(tokens)!r}: {message}"
    assert list(sc.exprs) == ["x", "y"]


def test_two_parses_of_one_text_share_no_value():
    first, second = parse_scenario(GOOD), parse_scenario(GOOD)
    assert first == second and first.exprs is not second.exprs
    assert list(first.exprs) == list(second.exprs) == ["0", "1", "x*y", "y^2", "-(x + y)"]
    for text, value in first.exprs.items():
        # Each parse builds its own chart, which makes its own constants.
        assert value == second.exprs[text] and value is not second.exprs[text]


def test_dropped_scenarios_leave_no_chart_or_constant_alive():
    # A chart keeps the constants and variables it makes, and no cache of
    # the library keeps a chart: once the scenarios are dropped, so is all
    # they parsed, however many distinct constants they held.
    refs = []
    for k in range(300):
        sc = parse_scenario(f"scenario s{k}\nchart x y\nparams alpha=1 beta=1\n"
                            f"field X\n  row {k + 7} , sigma*x\ncheck metallic P\n")
        refs += [weakref.ref(sc.chart), weakref.ref(sc.fields["X"].components[0])]
    assert refs[-1]().constant_value() == QuadScalar(Fraction(306))
    del sc
    gc.collect()
    assert [r for r in refs if r() is not None] == []
