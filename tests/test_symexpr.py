import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from metallifts.lifts import tangent_bundle
from metallifts.numfield import QuadScalar, make_params, rational_text, squarefree_split
from metallifts.symexpr import (MAX_DEGREE, MAX_TERMS, Chart, DivisionByZeroExpr,
                                ExprError, ParseError, RatFunc, ResampleNeeded, _fold,
                                _primitive, parse_expr, parse_integer)

from conftest import chart_over

# D = 8: sqrtD = 2*sqrt(2), so rendered coefficients scale sqrtD.
P8 = make_params(2, 1)
CH = chart_over(P8)  # over Q(sqrt 2), which holds QQ
X = CH.variable("x")
Y = CH.variable("y")
SQRTD = P8.constant(CH, 0, 1)


def coeffs(span=4, quad=False):
    """Small integers, or a + b*sqrtD with small integers a, b."""
    ints = st.integers(min_value=-span, max_value=span)
    if not quad:
        return ints
    return st.builds(lambda a, b: a + b * SQRTD, ints, ints)


def polys(chart=CH, span=4, quad=False):
    """Random small polynomials, built from variables and constants."""
    c = coeffs(span, quad)

    def build(c0, c1, c2, c3):
        x = chart.variable(chart.variables[0])
        y = chart.variable(chart.variables[1])
        return chart.constant(0) + c0 + x * c1 + y * c2 + x * y * c3

    return st.builds(build, c, c, c, c)


def ratfuncs(quad=False):
    def build(p, q):
        if q.is_zero:
            q = q + 1
        return p / q
    return st.builds(build, polys(quad=quad), polys(quad=quad))


def any_ratfuncs():
    """Rational functions over QQ or over Q(sqrt(2))."""
    return st.one_of(ratfuncs(), ratfuncs(quad=True))


def radical_free_den(f: RatFunc) -> bool:
    """The denominator has no term in the radical generator (the ring's
    last one)."""
    return all(m[-1] == 0 for m in f.den)


def is_primitive(p) -> bool:
    """p has integer coefficients with gcd 1 and a positive leading
    coefficient."""
    return gcd(*p.values()) == 1 and p.LC > 0


# -- chart ------------------------------------------------------------------

def test_chart_basics():
    assert CH.dimension == 2
    assert CH.index("y") == 1
    with pytest.raises(ExprError):
        CH.index("z")
    with pytest.raises(ValueError):
        Chart(("x", "x"))
    with pytest.raises(ValueError):
        Chart(())
    with pytest.raises(AttributeError):
        CH.variables = ("a",)
    # The field is Q(sqrt 2) however the radicand is written: 8 = 2^2 * 2.
    assert Chart(("x", "y"), 8) == CH and CH.field.d == 2
    assert repr(CH) == "Chart(('x', 'y'), radicand=2)"
    assert Chart(("x",), 9).field.d == 0


def test_the_chart_makes_each_constant_and_variable_once():
    # Asked again, a chart gives the value it made; an equal chart makes
    # its own, which is an equal value.
    assert CH.variable("x") is X and CH.constant(3) is CH.constant(3)
    assert CH.constant(Fraction(1, 2), 1) is CH.constant(Fraction(1, 2), Fraction(1))
    other = Chart(("x", "y"), 2)
    assert other.constant(3) is not CH.constant(3) and other.constant(3).chart is other
    assert other.constant(3) == CH.constant(3) and other.variable("x") == X
    assert CH.constant(Fraction(-3, 4), 2).constant_value() == QuadScalar(Fraction(-3, 4), 2, 2)
    with pytest.raises(ExprError):
        CH.variable("z")
    for bad in (1.5, "1", None, P8.sqrtD):
        with pytest.raises(TypeError, match="int or Fraction parts"):
            CH.constant(bad)
        with pytest.raises(TypeError, match="int or Fraction parts"):
            CH.constant(0, bad)


@pytest.mark.parametrize("operand", [1.5, "a", P8.sigma], ids=["float", "str", "QuadScalar"])
def test_operators_refuse_an_operand_they_cannot_coerce(operand):
    # Each operator returns NotImplemented, so Python raises a TypeError;
    # reflected division recursed without end, and reflected subtraction
    # named "+".
    for op, symbol in ((operator.truediv, "/"), (operator.sub, "-")):
        with pytest.raises(TypeError, match=f"for {symbol}: "):
            op(operand, X)
    for op in (operator.truediv, operator.sub, operator.add, operator.mul):
        for a, b in ((operand, X), (X, operand)):
            with pytest.raises(TypeError):
                op(a, b)
    # What they can coerce still works from either side.
    assert 2 - X == -(X - 2) and Fraction(1, 2) / X == (2 * X).reciprocal()


# -- field axioms -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(any_ratfuncs(), any_ratfuncs(), any_ratfuncs())
def test_ring_axioms(a, b, c):
    assert ((a + b) + c - (a + (b + c))).is_zero
    assert ((a * b) * c - (a * (b * c))).is_zero
    assert (a * (b + c) - (a * b + a * c)).is_zero
    assert (a - a).is_zero
    assert (a * b - b * a).is_zero


@settings(max_examples=40, deadline=None)
@given(any_ratfuncs(), any_ratfuncs())
def test_division_inverts_multiplication(a, b):
    if b.is_zero:
        with pytest.raises(DivisionByZeroExpr):
            a / b
    else:
        assert ((a / b) * b - a).is_zero
        assert a / b == a * b.reciprocal()


def test_reciprocal_divides_by_a_monic_gcd():
    # 1/(A + s*B) divides A and B by their gcd, which must be primitive:
    # a base with content, such as 2*x, is not one the kernel can divide by.
    c = parse_expr("2 + 2*sqrtD", CH, P8)  # A = 2, B = 4
    assert c * c.reciprocal() == 1
    # A base 2*x would make every later trial division by it loop forever.
    f = parse_expr("2*x + 2*sqrtD*x", CH, P8)
    assert [base.LC for base, _ in f.reciprocal().factors] == [1]


@settings(max_examples=30, deadline=None)
@given(any_ratfuncs())
def test_equality_and_reduction(a):
    m = X * Y + 1
    # (a*m) / (m*(x+2)) keeps m on both sides: trial division by the whole
    # base m*(x+2) fails, and only reduced() cancels m.
    for f in (a, (a * m) / (m * (X + 2))):
        r = f.reduced()
        assert r == f
        assert r.reduced() == r
        assert radical_free_den(r)
        # Fully reduced: numerator and denominator coprime, denominator
        # primitive with a positive leading coefficient.
        assert r.num.gcd(r.den).is_ground
        assert is_primitive(r.den)
    # Scaling numerator and denominator by the same polynomial must not
    # change the value.
    assert (a * m) / m == a


@settings(max_examples=30, deadline=None)
@given(any_ratfuncs(), any_ratfuncs())
def test_stored_parts_are_primitive(a, b):
    values = [a, b, a + b, a - b, a * b, a ** 2, -a, a.diff("x"), a.reduced(),
              a.substitute({"x": X + Y, "y": X * Y - 1})]
    if not b.is_zero:
        values.append(a / b)
    for f in values:
        assert isinstance(f.c, (int, Fraction))
        assert (f.c == 0) == f.is_zero
        assert f.is_zero or is_primitive(f.num)
        for base, _ in f.factors:
            assert is_primitive(base)
            assert not any(m[-1] for m in base)


@pytest.mark.parametrize("text, rendered, value", [
    ("1/(2*x+1)", "(1/2)/(x + 1/2)", "0x1.4000000000000p-1"),
    ("(3*x+6)/(4*y-2)", "(3/4*x + 3/2)/(y - 1/2)", "-0x1.91745d1745d17p-1"),
    ("1/(2*x + 2*sqrtD*y)", "(1/2*x - 1/2*sqrtD*y)/(x^2 - 8*y^2)", "-0x1.c64545ed2851ap-4"),
    ("(x+sqrtD)/(3*x^2-sqrtD*y/2)",
     "(1/3*x^3 + 1/3*sqrtD*x^2 + 1/18*sqrtD*x*y + 4/9*y)/(x^4 - 2/9*y^2)",
     "0x1.2b7cb2b78470cp+0"),
])
def test_rendering_and_sampling_read_a_monic_denominator(text, rendered, value):
    # Reports print and sample the numerator over QQ divided by monic
    # bases, however the kernel stores the value.
    f = parse_expr(text, CH, P8)
    assert f.to_text(P8) == rendered
    assert f.eval_numeric([0.3, -1.7]).hex() == value


@settings(max_examples=30, deadline=None)
@given(any_ratfuncs(), any_ratfuncs())
def test_diff_product_rule(a, b):
    for v in CH.variables:
        lhs = (a * b).diff(v)
        rhs = a.diff(v) * b + a * b.diff(v)
        assert (lhs - rhs).is_zero


@settings(max_examples=30, deadline=None)
@given(any_ratfuncs())
def test_diff_quotient_rule(a):
    for den in (X * X + Y * Y + 1, X * X + SQRTD * Y * Y + 1):
        f = a / den
        for v in CH.variables:
            assert (f.diff(v) - (a.diff(v) * den - a * den.diff(v)) / den ** 2).is_zero


# Denominator bases for the quotient rule: pairwise coprime irreducibles
# (x + 1 and y + 3 are free of a variable; dividing by x + sqrtD*y leaves
# the base x^2 - 8*y^2 and s terms in the numerator), and products of them,
# which share a factor with the others.
COPRIME_DIVISORS = ("x + 1", "y + 3", "x*y + 2", "x^2 + y^2 + 1", "x + sqrtD*y")
SHARED_DIVISORS = ("x*(x + 1)", "(x + 1)*(y + 3)")


@st.composite
def factored(draw, divisors):
    """A polynomial, with or without sqrtD terms, over a product of up to
    three of the divisors, each to a power from 1 to 3."""
    f = draw(st.one_of(polys(), polys(quad=True)))
    for text in draw(st.lists(st.sampled_from(divisors), max_size=3)):
        f = f * (1 / parse_expr(text, CH, P8)) ** draw(st.integers(1, 3))
    return f


def expanded_quotient_rule(f: RatFunc, var: str) -> RatFunc:
    """(N' * den - N * den') / den^2 with den = prod(F^e) expanded: every
    exponent doubled, then the content taken and the bases trial-divided."""
    i = f.chart.index(var)
    den = f.den
    k, t = _primitive(f.num.diff(i) * den - f.num * den.diff(i))
    num, factors = RatFunc._reduce(t, {base: 2 * e for base, e in f.factors})
    return RatFunc(f.chart, f.c * k, num, factors)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_diff_equals_the_expanded_quotient_rule(data):
    coprime = data.draw(st.booleans())
    f = data.draw(factored(COPRIME_DIVISORS if coprime
                           else COPRIME_DIVISORS + SHARED_DIVISORS))
    for var in CH.variables:
        got, expected = f.diff(var), expanded_quotient_rule(f, var)
        assert got == expected
        if coprime:  # the normal form is unique
            assert (got.c, got.num, got.factors) == (expected.c, expected.num, expected.factors)


def test_diff_keeps_a_variable_free_base_at_its_exponent():
    f = parse_expr("x * (1/(y + 3))^2 * (1/(x^2 + 1))^3", CH)
    assert sorted(e for _, e in f.diff("x").factors) == [2, 4]
    assert sorted(e for _, e in f.diff("y").factors) == [3, 3]


@settings(max_examples=60, deadline=None)
@given(factored(COPRIME_DIVISORS + SHARED_DIVISORS),
       st.sampled_from([CH.constant(Fraction(-3, 4)), SQRTD, 2 - 3 * SQRTD]))
def test_a_scalar_product_has_the_general_products_normal_form(f, k):
    # The general product: numerators multiplied, s^2 folded, the bases
    # trial-divided.
    c, num = _fold(CH.field, k.c * f.c, k.num * f.num)
    num, factors = RatFunc._reduce(num, dict(f.factors))
    for p in (k * f, f * k):
        assert (p.c, p.num, p.factors) == (c, num, factors)


def test_reciprocal_cancels_the_old_numerator_against_the_denominator():
    # x*y divides neither x*z nor y*w but divides their product, which the
    # reciprocal makes its numerator.
    ch = Chart(("x", "y", "z", "w"))
    x, y, z, w = (ch.variable(n) for n in ch.variables)
    assert (2 / (x * y / ((x * z) * (y * w)))).to_text() == "2*z*w"
    assert parse_expr("2/(x*y/((x*z)*(y*w)))", ch).to_text() == "2*z*w"


def test_a_power_cancels_a_base_that_divides_the_powered_numerator():
    # (x^2 + 2*x*y + y^2) does not divide x + y but divides its square.
    f = parse_expr("((x+y)/(x+y)^2)^2", CH)
    assert f.to_text() == "(1)/(x^2 + 2*x*y + y^2)"
    assert parse_expr("2*((x+y)/(x+y)^2)^2", CH).to_text() == "(2)/(x^2 + 2*x*y + y^2)"


@pytest.mark.parametrize("value", [
    pytest.param(lambda: parse_expr("3*x/4", CH) * parse_expr("4*y/3", CH), id="product"),
    pytest.param(lambda: parse_expr("2*x/3", CH) ** 2 * Fraction(9, 4), id="power"),
    pytest.param(lambda: parse_expr("(2*x/3)^2 * 9/4", CH), id="parsed"),
    pytest.param(lambda: RatFunc.sum_of_products([parse_expr("3*x/4", CH)],
                                                 [parse_expr("4*y/3", CH)]), id="contraction"),
])
def test_an_integral_content_is_an_int(value):
    assert type(value().c) is int


def test_sums_leave_their_operands_polynomials_unchanged():
    # A cofactor base**1 is the base itself, which a sum must only read.
    a, b = parse_expr("x/(x + 1)", CH), parse_expr("(y + sqrtD)/(y + 3)^2", CH, P8)
    polys = [a.num, b.num, *(base for f in (a, b) for base, _ in f.factors)]
    before = [dict(p) for p in polys]
    assert (a + b) - b == a
    assert RatFunc.sum_of_products([a, b, a], [b, a, b]) == 3 * a * b
    assert a.diff("x") + b.diff("y") == (a + b).diff("x") + (a + b).diff("y")
    assert [dict(p) for p in polys] == before


def test_diff_basics():
    assert X.diff("x") == CH.constant(1)
    assert X.diff("y").is_zero
    assert (X ** 3).diff("x") == 3 * X ** 2
    with pytest.raises(ExprError):
        X.diff("z")


# -- substitution -----------------------------------------------------------

def test_substitute_simultaneous():
    f = X * X - Y
    swapped = f.substitute({"x": Y, "y": X})
    assert swapped == Y * Y - X


def test_substitute_chain_rule():
    f = (X + 1) / (Y * Y + 1)
    g = X * Y
    h = f.substitute({"x": g})
    manual = (g + 1) / (Y * Y + 1)
    assert h == manual


def test_substitute_onto_new_chart():
    big = Chart(("x", "y", "z"), P8.radicand)
    f = X + Y
    g = f.on_chart(big)
    assert g.chart == big
    assert g == parse_expr("x + y", big)
    with pytest.raises(ExprError):
        (X + Y).on_chart(Chart(("x", "w"), P8.radicand))
    with pytest.raises(ExprError):  # the same variables over another field
        (X + Y).on_chart(Chart(("x", "y", "z")))
    # The factors come along as they are, not expanded.
    base = parse_expr("x^2 + y^2 + 1", CH)
    h = (X * base.reciprocal() ** 3).on_chart(big)
    assert h.factors == ((parse_expr("x^2 + y^2 + 1", big).num, 3),)
    assert h == parse_expr("x / (x^2 + y^2 + 1)^3", big)


@st.composite
def base_values(draw):
    """A polynomial over up to two polynomial bases, each to a power of 1
    to 3, on a chart of 1 to 3 variables over QQ or over Q(sqrt 5)."""
    n, d = draw(st.integers(1, 3)), draw(st.sampled_from([0, 5]))
    chart = Chart(("x", "y", "z")[:n], d)

    def poly():
        out = chart.constant(0)
        for _ in range(draw(st.integers(1, 4))):
            term = chart.constant(draw(st.integers(-4, 4)),
                                    draw(st.integers(-2, 2)) if d else 0)
            for name in chart.variables:
                term = term * chart.variable(name) ** draw(st.integers(0, 2))
            out = out + term
        return out

    f = poly()
    for _ in range(draw(st.integers(0, 2))):
        base = poly()
        if not base.is_zero:
            f = f / base ** draw(st.integers(1, 3))
    return f


def unlinked(f: RatFunc) -> RatFunc:
    """f's parts as a new value, which takes its derivatives by the
    quotient rule."""
    return RatFunc(f.chart, f.c, f.num, f.factors)


def parts(f: RatFunc):
    return f.chart, f.c, f.num.packed, [(base.packed, e) for base, e in f.factors]


@settings(max_examples=80, deadline=None)
@given(base_values())
def test_a_lifted_value_takes_its_derivatives_from_the_base_chart(f):
    """On TM and on T(TM), the derivative of a lift f o pi by any variable
    has the parts the quotient rule gives on a copy with no link to f, and
    is zero in each fibre direction."""
    tb = tangent_bundle(f.chart)
    lifted = tb.up(f)
    twice = tangent_bundle(tb.chart).up(lifted)
    for value, base in ((lifted, f.chart), (twice, tb.chart)):
        for var in value.chart.variables:
            got = value.diff(var)
            assert parts(got) == parts(unlinked(value).diff(var))
            if var not in base.variables:
                assert got.is_zero


def test_substitute_keeps_the_factored_denominator():
    f = X * parse_expr("x^2 + y^2 + 1", CH).reciprocal() ** 3
    h = f.substitute({"x": Y, "y": X})
    assert h.factors == ((parse_expr("x^2 + y^2 + 1", CH).num, 3),)
    assert h == parse_expr("y / (x^2 + y^2 + 1)^3", CH)


def test_substitute_vanishing_denominator():
    f = 1 / X
    with pytest.raises(DivisionByZeroExpr):
        f.substitute({"x": CH.constant(0)})


# -- constants --------------------------------------------------------------

def test_constant_recognition():
    c = (X + 1) - X
    assert c.is_constant()
    assert c.constant_value() == QuadScalar(1)
    assert not X.is_constant()
    with pytest.raises(ExprError):
        X.constant_value()


@settings(max_examples=30, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4))
def test_constant_recognition_quad(a, b):
    f = (X + (a + b * SQRTD)) - X
    assert f.is_constant()
    # a + b*sqrtD = a + 2b*sqrt(2); a rational value reads out over d = 0.
    assert f.constant_value() == (QuadScalar(a, 2 * b, 2) if b else QuadScalar(a))
    assert (f * X).is_constant() == (a == b == 0)


@settings(max_examples=30, deadline=None)
@given(ratfuncs(quad=True), ratfuncs(quad=True))
def test_denominators_free_of_radical(a, b):
    results = [a, a * b, a + b, a.diff("x"), a.reduced()]
    if not b.is_zero:
        results += [a / b, b.reciprocal(), b ** -2]
    assert all(radical_free_den(r) for r in results)


def test_quadratic_coefficients():
    params = make_params(1, 1)
    f = parse_expr("sigma", chart_over(params), params)
    assert f.constant_value() == params.sigma
    # sigma^2 - sigma - 1 == 0 in the golden field.
    assert (f * f - f - 1).is_zero


# -- parsing and printing ---------------------------------------------------

@pytest.mark.parametrize("text", [
    "x + y", "x*y - 3", "(x + 1)^2 / (y^2 + 1)", "-x^3 + 2*x*y",
    "1/2 * x" .replace("1/2", "(1/2)"),  # fractions spelled as quotients
])
def test_parse_print_roundtrip(text):
    f = parse_expr(text, CH)
    assert parse_expr(f.to_text(), CH) == f


@settings(max_examples=30, deadline=None)
@given(any_ratfuncs())
def test_print_roundtrip_random(f):
    assert parse_expr(f.to_text(P8), CH, P8) == f


# The reference printer: the printer as it was when each coefficient became
# a scalar with its own arithmetic, a + b*sqrt(d) brought to a squarefree d
# (0 when b == 0), negated and compared with 1 as a scalar.  to_text prints
# from the integer pairs instead, byte for byte the same.

@dataclass(frozen=True)
class RefQuad:
    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 0

    def __post_init__(self):
        a, b, d = Fraction(self.a), Fraction(self.b), self.d
        k, d0 = squarefree_split(d)
        if d0 == 1:
            a, b, d = a + b * k, Fraction(0), 0
        else:
            b, d = b * k, d0
        if b == 0:
            d = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __neg__(self):
        return RefQuad(-self.a, -self.b, self.d)


def ref_quad_text(c: RefQuad, params) -> str:
    if c.is_rational:
        return rational_text(c.a)
    if params is not None and params.radicand == c.d:
        name, scale = "sqrtD", c.b / params.sqrtD.b  # b*sqrt(d) == scale * sqrtD
    else:
        name, scale = f"sqrt({c.d})", c.b
    rad = (name if scale == 1 else f"-{name}" if scale == -1
           else f"{rational_text(scale)}*{name}")
    if c.a == 0:
        return rad
    sign = "-" if rad.startswith("-") else "+"
    return f"({rational_text(c.a)} {sign} {rad.lstrip('-')})"


def ref_poly_text(p, scale: Fraction, d: int, params, names) -> str:
    pairs: dict = {}
    for m, c in p.terms():  # descending
        pairs.setdefault(m[:-1], [0, 0])[m[-1]] = c
    terms = [(mono, RefQuad(scale * a, scale * b, d)) for mono, (a, b) in pairs.items()]
    if not terms:
        return "0"
    parts = []
    for mono, coeff in terms:
        factors = [f"{n}^{e}" if e > 1 else n for n, e in zip(names, mono) if e]
        neg = coeff.is_rational and coeff.a < 0
        c = -coeff if neg else coeff
        if not factors or c != RefQuad(Fraction(1)):
            factors.insert(0, ref_quad_text(c, params))
        text = "*".join(factors)
        if text.startswith("-"):
            neg, text = not neg, text[1:]
        if not parts:
            parts.append(f"-{text}" if neg else text)
        else:
            parts.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(parts)


def ref_to_text(f: RatFunc, params) -> str:
    names, d = f.chart.variables, f.chart.field.d
    lc = f.den.LC
    num = ref_poly_text(f.num, Fraction(f.c, lc), d, params, names)
    if not f.factors:
        return num
    return f"({num})/({ref_poly_text(f.den, Fraction(1, lc), d, params, names)})"


@st.composite
def printable(draw):
    """A value on a chart over QQ, Q(sqrt 2) or Q(sqrt 5): a Fraction
    content times a random polynomial in x, y and s = sqrt(d) (1 over QQ),
    over another such polynomial or not."""
    chart = Chart(("x", "y"), draw(st.sampled_from([0, 2, 5])))
    x, y = (chart.variable(n) for n in chart.variables)
    s = chart.constant(0, 1) if chart.field.d else 1

    def poly():
        terms = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 2),
                                        st.integers(0, 2), st.booleans()), max_size=6))
        return sum((c * x ** i * y ** j * (s if r else 1) for c, i, j, r in terms),
                   chart.constant(0))

    f = draw(st.fractions(min_value=-20, max_value=20, max_denominator=12)) * poly()
    if draw(st.booleans()):
        den = poly()
        if not den.is_zero:
            f = f / den
    return f


@settings(max_examples=300, deadline=None)
@given(printable(), st.sampled_from([None, make_params(1, 2), P8, make_params(1, 1),
                                     make_params(4, 1)]))
def test_to_text_matches_the_reference_printer(f, params):
    # Params over the chart's field (D = 9 on QQ, D = 8 on sqrt 2, D = 5 and
    # D = 20 on sqrt 5) print its radical as a multiple of sqrtD; the others
    # and no params print sqrt(d).
    assert f.to_text(params) == ref_to_text(f, params)


def test_parse_with_params():
    params = make_params(2, 1)
    f = parse_expr("alpha*x + beta*y + sqrtD", CH, params)
    assert f == 2 * X + Y + CH.constant(0, 2)  # sqrtD = 2*sqrt(2)
    g = parse_expr(f.to_text(params), CH, params)
    assert g == f


def test_chart_variable_named_like_the_radical_generator():
    # The radical generator is named "_s" unless a chart variable is.
    params = make_params(1, 1)
    chart = chart_over(params, ("x", "_s"))
    f = parse_expr("_s^2*sqrtD + x*_s/(x - sqrtD)", chart, params)
    s, x = chart.variable("_s"), chart.variable("x")
    sqrt5 = chart.constant(0, 1)
    assert f.diff("_s") == 2 * s * sqrt5 + x / (x - sqrt5)
    assert (f * f).diff("x") == 2 * f * f.diff("x")
    text = f.to_text(params)
    assert "_s" in text and parse_expr(text, chart, params) == f
    val = f.eval_numeric([0.5, 2.0])
    assert abs(val - (4 * 5 ** 0.5 + 1 / (0.5 - 5 ** 0.5))) < 1e-12


@pytest.mark.parametrize("text,pos", [
    ("x +", 3),
    ("x ^ y", 4),
    ("(x + y", 6),
    ("x ? y", 2),
    ("x ^ -2", 5),
    ("w + 1", 0),
])
def test_parse_errors_carry_positions(text, pos):
    with pytest.raises(ParseError) as err:
        parse_expr(text, CH)
    assert err.value.position == pos


@pytest.mark.parametrize("text,value", [("0", 0), ("+7", 7), ("-12", -12), ("007", 7)])
def test_parse_integer_reads_signed_ascii_digits(text, value):
    assert parse_integer(text) == value


@pytest.mark.parametrize("text", [
    "", "+", "-", "--1", "+-1", " 1", "1 ", "1_0", "1.0", "\u0661", "\u00b2", "0x1"])
def test_parse_integer_refuses_any_other_text(text):
    with pytest.raises(ValueError):
        parse_integer(text)


def test_parse_unknown_param_without_params():
    with pytest.raises(ParseError):
        parse_expr("alpha", CH)


def test_parser_size_bound_is_sharp():
    # (x+y+1)^n has (n+1)(n+2)/2 terms: 990 for n = 43, 1035 for n = 44.
    assert len(parse_expr("(x+y+1)^43", CH).num) == 990 <= MAX_TERMS
    with pytest.raises(ParseError, match="too large"):
        parse_expr("(x+y+1)^44", CH)
    assert parse_expr(f"x^{MAX_DEGREE}", CH) == parse_expr("x", CH) ** MAX_DEGREE
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse_expr(f"x^{MAX_DEGREE + 1}", CH)


@pytest.mark.parametrize("text", [
    "(x+y+1)^40 * (x+y+2)^40",   # refused before the product is expanded
    "(x+y+1)^40 / (x+y+2)^40 + (x+y+3)^40 / (x+y+4)^40",
    "(x+y+1)^30 / (1 + sqrtD*(x+y)^30)",
])
def test_parser_refuses_oversized_products(text):
    params = make_params(1, 1)
    with pytest.raises(ParseError, match="too large"):
        parse_expr(text, chart_over(params), params)


# -- numerics ---------------------------------------------------------------

def test_eval_numeric():
    f = (X * X + Y) / (X + 1)
    val = f.eval_numeric([2.0, 3.0])
    assert abs(val - (4 + 3) / 3) < 1e-12


def test_eval_numeric_resample():
    f = 1 / X
    with pytest.raises(ResampleNeeded):
        f.eval_numeric([1e-12, 0.0])


def test_eval_numeric_radical():
    params = make_params(1, 1)
    f = parse_expr("sigma", chart_over(params), params)
    val = f.eval_numeric([0.0, 0.0])
    assert abs(val - (1 + 5 ** 0.5) / 2) < 1e-12


@pytest.mark.parametrize("point", [[0.5], [0.5, 1.0, 2.0], []])
def test_eval_numeric_rejects_a_point_of_another_dimension(point):
    with pytest.raises(ValueError, match="2 coordinates"):
        (X + Y).eval_numeric(point)


@settings(max_examples=25, deadline=None)
@given(any_ratfuncs(), st.integers(0, 6))
def test_numeric_matches_symbolic(f, seed):
    rng = random.Random(seed)
    g = f * f - f
    for _ in range(3):
        point = [rng.uniform(-2, 2) for _ in CH.variables]
        try:
            lhs = g.eval_numeric(point)
            rhs = f.eval_numeric(point) ** 2 - f.eval_numeric(point)
        except ResampleNeeded:
            continue
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs), abs(rhs))


# -- mixed radicands --------------------------------------------------------

def test_incompatible_radicands_rejected():
    # A constant is built from rational parts, and its radical must be the
    # chart's; a read-out is no part, whatever its radicand, and no operand.
    with pytest.raises(TypeError, match="int or Fraction parts"):
        Chart(("x", "y"), 2).constant(QuadScalar(0, 1, 3))
    with pytest.raises(ExprError, match=r"on .*radicand=0\)"):
        Chart(("x", "y")).constant(0, 1)
    with pytest.raises(TypeError):
        X + QuadScalar(0, 1, 2)
    # Substitution onto a chart over another field keeps a value free of s
    # and refuses one with an s term.
    other = Chart(("x", "y"), 3)
    swap = {"x": other.variable("y"), "y": other.variable("x")}
    assert (X * Y + 1).substitute(swap) == parse_expr("x*y + 1", other)
    with pytest.raises(ExprError, match=r"sqrt\(2\) on .*radicand=3\)"):
        (X + SQRTD).substitute(swap)


def test_chart_mismatch_rejected():
    other = Chart(("u", "v"))
    with pytest.raises(ExprError):
        X + other.variable("u")
    # The same variables over QQ and over Q(sqrt 2) are two charts, and the
    # message tells them apart.
    qq, sqrt2 = Chart(("x", "y")), Chart(("x", "y"), 2)
    assert qq != sqrt2 and sqrt2 == CH and hash(sqrt2) == hash(CH)
    x_qq, x_sqrt2 = qq.variable("x"), sqrt2.variable("x")
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a / b,
               lambda a, b: a == b,
               lambda a, b: RatFunc.sum_of_products([a, a], [a, b])):
        with pytest.raises(ExprError, match=r"radicand=2\) vs .*radicand=0\)"):
            op(x_sqrt2, x_qq)


@pytest.mark.parametrize("text", ["x + sqrtD", "x + 1"])
def test_params_over_another_field_rejected(text):
    # The params' sqrtD is the chart's radical, with or without sqrtD in
    # the text.
    with pytest.raises(ExprError, match=r"params of radicand 5 on .*radicand=2\)") as err:
        parse_expr(text, CH, make_params(1, 1))
    assert not isinstance(err.value, ParseError)
