import random
from fractions import Fraction

import pytest

from metallifts.geometry import Tensor11Field, VectorField, compose_t11, invert_t11
from metallifts.numfield import make_params
from metallifts.symexpr import Chart, RatFunc

# The six (alpha, beta) pairs whose means get named: gold, silver, bronze,
# subtle, copper, nickel.
MEAN_PAIRS = [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (1, 3)]


@pytest.fixture
def chart2():
    return Chart(("x", "y"))


def chart_over(params, variables=("x", "y")) -> Chart:
    """The chart of ``variables`` over the field of ``params``, Q(sqrt D):
    the chart on which values with params' constants live."""
    return Chart(variables, params.radicand)


def params_constants(params, chart: Chart) -> tuple[RatFunc, RatFunc, RatFunc]:
    """sigma, alpha - sigma and sqrtD as constants on ``chart``, the second
    by chart arithmetic from the first."""
    sigma = params.constant(chart, Fraction(params.alpha, 2), Fraction(1, 2))
    return sigma, params.alpha - sigma, params.constant(chart, 0, 1)


@pytest.fixture
def rng():
    return random.Random(987123)


def rand_poly(rng: random.Random, chart: Chart, span: int = 3,
              sparse: bool = False) -> RatFunc:
    """A random polynomial, affine in each variable, with small integer
    coefficients; with ``sparse``, zero with probability 1/2."""
    if sparse and rng.random() < 0.5:
        return chart.constant(0)
    out = chart.constant(rng.randint(-span, span))
    for name in chart.variables:
        out = out + chart.variable(name) * rng.randint(-span, span)
    return out


def rand_vector(rng: random.Random, chart: Chart, sparse: bool = False) -> VectorField:
    return VectorField(chart, tuple(rand_poly(rng, chart, sparse=sparse)
                                    for _ in chart.variables))


def rand_t11(rng: random.Random, chart: Chart, sparse: bool = False) -> Tensor11Field:
    n = chart.dimension
    return Tensor11Field(chart, tuple(
        tuple(rand_poly(rng, chart, sparse=sparse) for _ in range(n)) for _ in range(n)))


def unimodular_2x2(rng: random.Random, chart: Chart) -> Tensor11Field:
    """[[1, p], [q, 1 + p*q]] has determinant 1 for any entries p, q."""
    p = rand_poly(rng, chart, span=2)
    q = rand_poly(rng, chart, span=2)
    one = chart.constant(1)
    return Tensor11Field(chart, ((one, p), (q, one + p * q)))


def involutive_product(rng: random.Random, chart: Chart) -> Tensor11Field:
    """A position-dependent almost product structure B diag(1,-1) B^{-1}."""
    B = unimodular_2x2(rng, chart)
    signs = Tensor11Field.diagonal(chart, [1, -1])
    return compose_t11(compose_t11(B, signs), invert_t11(B))


def all_params():
    return [make_params(a, b) for a, b in MEAN_PAIRS]
