import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from sympy import factorint

from metallifts.numfield import MAX_DISCRIMINANT, QuadScalar, make_params, squarefree_split
from metallifts.symexpr import Chart, DivisionByZeroExpr, ExprError

from conftest import chart_over

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=9)
CH5 = Chart(("x",), 5)


def quads(chart=CH5):
    """Constants a + b*sqrt(5) on a chart over Q(sqrt 5)."""
    return st.builds(lambda a, b: chart.constant(a, b), fractions, fractions)


def factored_split(n: int) -> tuple[int, int]:
    """(k, d) with n = k**2 * d from sympy's factorisation of n."""
    k, d = 1, 1
    for p, e in factorint(n).items():
        k, d = k * p ** (e // 2), d * p ** (e % 2)
    return k, d


def test_squarefree_split():
    assert squarefree_split(0) == (0, 0)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(9) == (3, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(45) == (3, 5)
    with pytest.raises(ValueError):
        squarefree_split(-4)


@pytest.mark.parametrize("n", [
    4, 36, 2 ** 40, 10 ** 12, 999983 ** 2, 3 * 999983 ** 2, 999983 * 999979,
    999999999989, 2 * 999999999989, 999983 ** 2 * 999979, 7 * 10 ** 13 + 1,
    999999999989 * 999983])
def test_squarefree_split_matches_factorisation(n):
    assert squarefree_split(n) == factored_split(n)


@given(st.integers(min_value=1, max_value=MAX_DISCRIMINANT))
def test_squarefree_split_matches_factorisation_below_the_cap(n):
    assert squarefree_split(n) == factored_split(n)


@pytest.mark.parametrize("n", [999999999989, 999983 * 999979, 999983 ** 2])
def test_squarefree_split_is_fast_at_the_cap(n):
    """Trial division stops at cbrt(n): milliseconds, where factoring a
    product of two large primes could once take minutes."""
    t0 = time.perf_counter()
    squarefree_split.__wrapped__(n)
    assert time.perf_counter() - t0 < 0.05


def test_square_root_normalization():
    # sqrtD is k*sqrt(d) with d squarefree, and the integer k when D is a
    # square; on a chart its square is D.
    assert make_params(1, 2).sqrtD == QuadScalar(3)
    assert make_params(2, 1).sqrtD == QuadScalar(0, 2, 2)
    params = make_params(2, 1)
    sqrt8 = params.constant(Chart(("x",), 8), 0, 1)
    assert sqrt8 * sqrt8 == 8
    assert sqrt8.constant_value() == params.sqrtD


@given(quads(), quads(), quads())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0


@given(quads())
def test_multiplicative_inverse(a):
    if not a.is_zero:
        assert a * a.reciprocal() == 1
    else:
        with pytest.raises(DivisionByZeroExpr):
            a.reciprocal()


def test_mixed_radicands_rejected():
    sqrt2 = Chart(("x",), 2).constant(0, 1)
    sqrt3 = Chart(("x",), 3).constant(0, 1)
    with pytest.raises(ExprError):
        sqrt2 + sqrt3
    with pytest.raises(ExprError):  # a radical on a chart over QQ
        Chart(("x",)).constant(0, 1)


def test_rational_coercion():
    sqrt5 = CH5.constant(0, 1)
    assert sqrt5 + 1 == CH5.constant(1, 1)
    assert 2 * sqrt5 == CH5.constant(0, 2)
    assert 1 / sqrt5 == CH5.constant(0, Fraction(1, 5))
    assert (1 / sqrt5).constant_value() == QuadScalar(0, Fraction(1, 5), 5)


# The six named means: each is the larger root of x^2 - alpha*x - beta,
# with its printed form and float value.
MEANS_TABLE = {
    (1, 1): (QuadScalar(Fraction(1, 2), Fraction(1, 2), 5),           # golden
             "1/2 + 1/2*sqrt(5)", 1.618033988749895),
    (2, 1): (QuadScalar(1, 1, 2), "1 + 1*sqrt(2)", 2.414213562373095),  # silver
    (3, 1): (QuadScalar(Fraction(3, 2), Fraction(1, 2), 13),          # bronze
             "3/2 + 1/2*sqrt(13)", 3.302775637731995),
    (4, 1): (QuadScalar(2, 1, 5), "2 + 1*sqrt(5)", 4.23606797749979),  # subtle
    (1, 2): (QuadScalar(2), "2", 2.0),                                 # copper
    (1, 3): (QuadScalar(Fraction(1, 2), Fraction(1, 2), 13),          # nickel
             "1/2 + 1/2*sqrt(13)", 2.302775637731995),
}


@pytest.mark.parametrize("pair", sorted(MEANS_TABLE))
def test_means_table(pair):
    alpha, beta = pair
    params = make_params(alpha, beta)
    expected, text, value = MEANS_TABLE[pair]
    assert params.sigma == expected
    assert (str(params.sigma), params.sigma.to_float()) == (text, value)
    # Defining equation and the branch choice, exactly, on a chart.
    sigma = params.constant(chart_over(params), Fraction(alpha, 2), Fraction(1, 2))
    assert sigma.constant_value() == params.sigma
    assert sigma * sigma == alpha * sigma + beta
    assert (sigma - Fraction(alpha, 2)).constant_value().to_float() > 0


def assert_params_algebra(alpha: int, beta: int):
    params = make_params(alpha, beta)
    assert params.discriminant == alpha * alpha + 4 * beta
    # The closed forms, exactly on a chart over the params' field.
    chart = chart_over(params)
    sigma = params.constant(chart, Fraction(alpha, 2), Fraction(1, 2))
    sqrt_d = params.constant(chart, 0, 1)
    conjugate = params.constant(chart, Fraction(alpha, 2), Fraction(-1, 2))
    inverse = params.constant(chart, 0, Fraction(1, params.discriminant))
    assert (sigma.constant_value(), sqrt_d.constant_value()) == (params.sigma, params.sqrtD)
    assert sigma * sigma == alpha * sigma + beta
    assert sqrt_d * sqrt_d == params.discriminant
    assert sigma + conjugate == alpha
    assert inverse * sqrt_d == 1
    # sigma = (alpha + sqrt(D)) / 2 and the conjugate root pairs with it.
    assert sigma == (alpha + sqrt_d) / 2
    assert conjugate == alpha - sigma
    assert sigma * conjugate == -beta


@pytest.mark.parametrize("pair", sorted(MEANS_TABLE))
def test_params_algebra(pair):
    assert_params_algebra(*pair)


@given(st.integers(1, 50), st.integers(1, 50))
@example(1, 2).via("D = 9, a square")
@example(2, 3).via("D = 16, a square")
@example(2, 1).via("D = 8 = 2^2 * 2")
def test_params_algebra_over_random_pairs(alpha, beta):
    assert_params_algebra(alpha, beta)


def test_copper_collapses_to_rationals():
    params = make_params(1, 2)
    assert params.radicand == 0
    assert params.sigma == QuadScalar(2)
    assert params.sqrtD == QuadScalar(3)


def test_make_params_validation():
    with pytest.raises(ValueError):
        make_params(0, 1)
    with pytest.raises(ValueError):
        make_params(1, 0)
    # bool is a subclass of int, and True == 1.
    for alpha, beta in ((True, 2), (1, True), (2.0, 1)):
        with pytest.raises(TypeError):
            make_params(alpha, beta)


def test_discriminant_cap():
    assert make_params(2, (MAX_DISCRIMINANT - 4) // 4).discriminant == MAX_DISCRIMINANT
    with pytest.raises(ValueError, match="exceeds the limit"):
        make_params(2, (MAX_DISCRIMINANT - 4) // 4 + 1)
