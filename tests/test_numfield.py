import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from sympy import factorint

from metallifts.numfield import (MAX_DISCRIMINANT, IncompatibleRadicands, QuadScalar,
                                 make_params, squarefree_split)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def quads(d=5):
    return st.builds(lambda a, b: QuadScalar(a, b, d), fractions, fractions)


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
    assert QuadScalar.root(9) == QuadScalar.rational(3)
    assert QuadScalar.root(8) == QuadScalar(0, 2, 2)
    assert QuadScalar.root(2) * QuadScalar.root(2) == QuadScalar.rational(2)


@given(quads(), quads(), quads())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QuadScalar.rational(0)


@given(quads())
def test_multiplicative_inverse(a):
    if a:
        assert a * a.inverse() == QuadScalar.rational(1)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


def test_mixed_radicands_rejected():
    with pytest.raises(IncompatibleRadicands):
        QuadScalar.root(2) + QuadScalar.root(3)


def test_rational_coercion():
    assert QuadScalar.root(5) + 1 == QuadScalar(1, 1, 5)
    assert 2 * QuadScalar.root(5) == QuadScalar(0, 2, 5)
    assert 1 / QuadScalar.root(5) == QuadScalar(0, Fraction(1, 5), 5)


# The six named means: each is the larger root of x^2 - alpha*x - beta.
MEANS_TABLE = {
    (1, 1): QuadScalar(Fraction(1, 2), Fraction(1, 2), 5),    # golden
    (2, 1): QuadScalar(1, 1, 2),                              # silver
    (3, 1): QuadScalar(Fraction(3, 2), Fraction(1, 2), 13),   # bronze
    (4, 1): QuadScalar(2, 1, 5),                              # subtle
    (1, 2): QuadScalar.rational(2),                           # copper
    (1, 3): QuadScalar(Fraction(1, 2), Fraction(1, 2), 13),   # nickel
}


@pytest.mark.parametrize("pair", sorted(MEANS_TABLE))
def test_means_table(pair):
    alpha, beta = pair
    params = make_params(alpha, beta)
    sigma = params.sigma
    assert sigma == MEANS_TABLE[pair]
    # Defining equation and the branch choice, exactly.
    assert sigma * sigma == alpha * sigma + beta
    assert (sigma - Fraction(alpha, 2)).to_float() > 0


@pytest.mark.parametrize("pair", sorted(MEANS_TABLE))
def test_params_algebra(pair):
    params = make_params(*pair)
    alpha, beta = params.alpha, params.beta
    assert params.sqrtD * params.sqrtD == QuadScalar.rational(params.discriminant)
    assert params.discriminant == alpha * alpha + 4 * beta
    # sigma = (alpha + sqrt(D)) / 2 and the conjugate root pairs with it.
    assert params.sigma == (alpha + params.sqrtD) / 2
    tau = params.conjugate_root()
    assert params.sigma + tau == QuadScalar.rational(alpha)
    assert params.sigma * tau == QuadScalar.rational(-beta)


def test_copper_collapses_to_rationals():
    params = make_params(1, 2)
    assert params.radicand == 0
    assert params.sigma == QuadScalar.rational(2)
    assert params.sqrtD == QuadScalar.rational(3)


def test_make_params_validation():
    with pytest.raises(ValueError):
        make_params(0, 1)
    with pytest.raises(ValueError):
        make_params(1, 0)


def test_discriminant_cap():
    assert make_params(2, (MAX_DISCRIMINANT - 4) // 4).discriminant == MAX_DISCRIMINANT
    with pytest.raises(ValueError, match="exceeds the limit"):
        make_params(2, (MAX_DISCRIMINANT - 4) // 4 + 1)
