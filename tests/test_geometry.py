import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from metallifts.geometry import (ChartMismatch, Connection, Tensor11Field,
                                 Tensor12Field, VectorField, _contract, apply_t11,
                                 compose_t11, invert_t11, lie_derivative,
                                 linear_combination)
from metallifts.lifts import complete_lift_t11
from metallifts.numfield import make_params
from metallifts.symexpr import Chart, RatFunc, _fkey, parse_expr

from conftest import chart_over, rand_poly, rand_t11, rand_vector

CH = Chart(("x", "y"))


def test_vector_field_algebra(rng):
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    assert (X + Y - Y - X).is_zero
    assert (X.scale(3) - X - X - X).is_zero
    assert (-X + X).is_zero
    assert VectorField.zero(CH).is_zero
    assert VectorField.basis(CH, 1).components[1] == RatFunc.constant(CH, 1)


def test_bracket_antisymmetry_and_bilinearity(rng):
    X, Y, Z = (rand_vector(rng, CH) for _ in range(3))
    assert (lie_derivative(X, Y) + lie_derivative(Y, X)).is_zero
    assert (lie_derivative(X + Y, Z) - lie_derivative(X, Z) - lie_derivative(Y, Z)).is_zero
    assert lie_derivative(X, X).is_zero


def test_jacobi_identity(rng):
    X, Y, Z = (rand_vector(rng, CH) for _ in range(3))
    total = (lie_derivative(X, lie_derivative(Y, Z))
             + lie_derivative(Y, lie_derivative(Z, X))
             + lie_derivative(Z, lie_derivative(X, Y)))
    assert total.is_zero


def test_bracket_against_hand_computation():
    # [x d/dy, y d/dx] = x d/dx - y d/dy
    zero = RatFunc.constant(CH, 0)
    x, y = (RatFunc.variable(CH, n) for n in CH.variables)
    X = VectorField(CH, (zero, x))
    Y = VectorField(CH, (y, zero))
    expected = VectorField(CH, (x, -y))
    assert (lie_derivative(X, Y) - expected).is_zero


def test_apply_and_compose_consistency(rng):
    S, T = rand_t11(rng, CH), rand_t11(rng, CH)
    X = rand_vector(rng, CH)
    lhs = apply_t11(compose_t11(S, T), X)
    rhs = apply_t11(S, apply_t11(T, X))
    assert (lhs - rhs).is_zero

    # Sparse inputs, where the contractions skip products with a zero
    # factor, against plain dense sums.
    ch3 = Chart(("x", "y", "z"))
    zero, r = RatFunc.constant(ch3, 0), range(3)

    def sparse(rank):
        return tree(rank, lambda: zero if rng.random() < 0.5 else rand_poly(rng, ch3), 3)

    for _ in range(4):
        S, T = Tensor11Field(ch3, sparse(2)), Tensor11Field(ch3, sparse(2))
        X, Y = VectorField(ch3, sparse(1)), VectorField(ch3, sparse(1))
        N = Tensor12Field(ch3, sparse(3))
        s, t, x, y, nn = S.components, T.components, X.components, Y.components, N.components
        assert list(apply_t11(S, X).components) == [
            sum((s[h][i] * x[i] for i in r), zero) for h in r]
        assert [list(row) for row in compose_t11(S, T).components] == [
            [sum((s[h][a] * t[a][i] for a in r), zero) for i in r] for h in r]
        assert list(N.evaluate(X, Y).components) == [
            sum((nn[h][i][j] * x[i] * y[j] for i in r for j in r), zero) for h in r]


def test_compose_identity(rng):
    T = rand_t11(rng, CH)
    I = Tensor11Field.identity(CH)
    assert (compose_t11(T, I) - T).is_zero
    assert (compose_t11(I, T) - T).is_zero


def test_invert_t11(rng):
    for _ in range(5):
        T = rand_t11(rng, CH)
        try:
            inv = invert_t11(T)
        except ValueError:
            continue  # singular sample
        assert (compose_t11(T, inv) - Tensor11Field.identity(CH)).is_zero
        assert (compose_t11(inv, T) - Tensor11Field.identity(CH)).is_zero


def test_invert_singular_raises():
    one = RatFunc.constant(CH, 1)
    T = Tensor11Field(CH, ((one, one), (one, one)))
    with pytest.raises(ValueError):
        invert_t11(T)


def test_lie_derivative_t11_leibniz(rng):
    for sparse in (False, True):  # sparse: each entry zero with probability 1/2
        V, X = rand_vector(rng, CH, sparse), rand_vector(rng, CH, sparse)
        T = rand_t11(rng, CH, sparse)
        # L_V(T X) = (L_V T) X + T (L_V X)
        lhs = lie_derivative(V, apply_t11(T, X))
        rhs = (apply_t11(lie_derivative(V, T), X)
               + apply_t11(T, lie_derivative(V, X)))
        assert (lhs - rhs).is_zero


def test_lie_derivative_t12_leibniz(rng):
    chart = CH
    n = chart.dimension
    for sparse in (False, True):  # sparse: each entry zero with probability 1/2
        V, X, Y = (rand_vector(rng, chart, sparse) for _ in range(3))
        cube = tuple(tuple(tuple(rand_poly(rng, chart, sparse=sparse) for _ in range(n))
                           for _ in range(n)) for _ in range(n))
        N = Tensor12Field(chart, cube)
        # L_V(N(X,Y)) = (L_V N)(X,Y) + N([V,X],Y) + N(X,[V,Y])
        lhs = lie_derivative(V, N.evaluate(X, Y))
        rhs = (lie_derivative(V, N).evaluate(X, Y)
               + N.evaluate(lie_derivative(V, X), Y)
               + N.evaluate(X, lie_derivative(V, Y)))
        assert (lhs - rhs).is_zero


def test_tensor12_evaluate_function_linearity(rng):
    n = CH.dimension
    cube = tuple(tuple(tuple(rand_poly(rng, CH) for _ in range(n))
                       for _ in range(n)) for _ in range(n))
    N = Tensor12Field(CH, cube)
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    f = rand_poly(rng, CH)
    scaled = VectorField(CH, tuple(f * c for c in X.components))
    lhs = N.evaluate(scaled, Y)
    rhs = VectorField(CH, tuple(f * c for c in N.evaluate(X, Y).components))
    assert (lhs - rhs).is_zero


def test_antisymmetric_tensor12_from_pairs(rng):
    ch3 = Chart(("x", "y", "z"))
    values = {(i, j): rand_vector(rng, ch3) for i in range(3) for j in range(i + 1, 3)}
    N = Tensor12Field.antisymmetric(ch3, lambda i, j: values[i, j])
    for i in range(3):
        assert N.evaluate(VectorField.basis(ch3, i), VectorField.basis(ch3, i)).is_zero
        for j in range(i + 1, 3):
            ei, ej = VectorField.basis(ch3, i), VectorField.basis(ch3, j)
            assert (N.evaluate(ei, ej) - values[i, j]).is_zero
            assert (N.evaluate(ej, ei) + values[i, j]).is_zero


def tree(rank, leaf, n=2):
    """Nested tuples of depth ``rank`` and size ``n``, ``leaf()`` at each leaf."""
    return leaf() if rank == 0 else tuple(tree(rank - 1, leaf, n) for _ in range(n))


def leaves(rank, t):
    return [t] if rank == 0 else [c for part in t for c in leaves(rank - 1, part)]


@pytest.mark.parametrize("cls", [VectorField, Tensor11Field, Tensor12Field, Connection])
def test_every_rank_shares_one_field_implementation(rng, cls):
    rank, x = cls.rank, parse_expr("x", CH)
    for bad in (tree(rank, lambda: x, n=3), tree(rank - 1, lambda: x),
                tree(rank + 1, lambda: x)):
        with pytest.raises(ValueError):
            cls(CH, bad)

    A, B = (cls(CH, tree(rank, lambda: rand_poly(rng, CH))) for _ in range(2))
    c = rand_poly(rng, CH)
    a, b = leaves(rank, A.components), leaves(rank, B.components)
    assert leaves(rank, (A + B).components) == [p + q for p, q in zip(a, b)]
    assert leaves(rank, (A - B).components) == [p - q for p, q in zip(a, b)]
    assert leaves(rank, (-A).components) == [-p for p in a]
    assert leaves(rank, A.scale(c).components) == [c * p for p in a]
    assert not A.is_zero and (A - A).is_zero and cls.zero(CH).is_zero
    assert cls.make(CH, tree(rank, lambda: 0)) == cls.zero(CH)

    assert cls.zero(CH).first_nonzero() is None
    values = iter([0] * (2 ** rank - 2) + [x, 1])
    F = cls.make(CH, tree(rank, lambda: next(values)))
    index = list(product(range(2), repeat=rank))[-2]
    assert F.first_nonzero() == (*index, x)
    assert len(F.first_nonzero()) == rank + 1


def test_first_nonzero_component():
    assert Tensor11Field.zero(CH).first_nonzero() is None
    x = parse_expr("x", CH)
    T = Tensor11Field.make(CH, [[0, 0], [x, 1]])
    assert T.first_nonzero() == (1, 0, x)


def test_connection_constructors():
    conn = Connection.zero(CH)
    assert all(g.is_zero for block in conn.components
               for row in block for g in row)
    with pytest.raises(ValueError):
        Connection.make(CH, [[[parse_expr("x", CH)]]])


def test_chart_mismatch():
    other = Chart(("u", "v"))
    X = VectorField.basis(CH, 0)
    U = VectorField.basis(other, 0)
    with pytest.raises(ChartMismatch):
        lie_derivative(X, U)
    with pytest.raises(ChartMismatch):
        apply_t11(Tensor11Field.identity(CH), U)


# -- one sum of products ----------------------------------------------------

P8 = make_params(2, 1)  # sqrtD = 2*sqrt(2)
CH8 = chart_over(P8)
ZERO = RatFunc.constant(CH8, 0)
# Pairwise coprime divisors, one of them with sqrtD: dividing by x + sqrtD*y
# rationalises it into the base x^2 - 8*y^2.
DIVISORS = [parse_expr(t, CH8, P8) for t in ("x + 1", "x*y + 2", "x^2 + y^2 + 3", "x + sqrtD*y")]


@st.composite
def contraction_factors(draw):
    """c * p / (a product of up to three divisors, repeats allowed), with a
    Fraction c, a polynomial p with or without sqrtD terms, or zero."""
    if draw(st.integers(0, 3)) == 0:
        return ZERO
    monomials = ("1", "x", "y", "x*y", "sqrtD", "sqrtD*x")
    p = parse_expr("+".join(f"({draw(st.integers(-3, 3))})*{m}" for m in monomials), CH8, P8)
    f = RatFunc.constant(CH8, Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 6)))) * p
    for d in draw(st.lists(st.sampled_from(DIVISORS), max_size=3)):
        f = f / d
    return f


def assert_normal_form(f: RatFunc):
    """c*N/prod(F^e) as every operation leaves it: N primitive with a
    positive leading coefficient, no base dividing N, bases in _fkey order."""
    if f.is_zero:
        assert f.c == 0 and f.factors == ()
        return
    assert gcd(*f.num.values()) == 1 and f.num.LC > 0
    for base, e in f.factors:
        assert e > 0 and f.num.exact_quo(base) is None
    bases = [base for base, _ in f.factors]
    assert bases == sorted(bases, key=_fkey)


@st.composite
def contraction_pairs(draw):
    """One to five factor pairs.  Half the time one more pair cancels the
    first product up to x0 * d * f for a divisor d, so a base of x0 can
    divide the summed numerator and the sum has to cancel it."""
    pairs = draw(st.lists(st.tuples(contraction_factors(), contraction_factors()),
                          min_size=1, max_size=5))
    if draw(st.booleans()):
        x0, y0 = pairs[0]
        pairs.append((x0, draw(st.sampled_from(DIVISORS)) * draw(contraction_factors()) - y0))
    return pairs


@settings(max_examples=150, deadline=None)
@given(contraction_pairs())
def test_contract_equals_the_left_to_right_sum_of_products(pairs):
    xs, ys = zip(*pairs)
    products = [x * y for x, y in pairs if not x.is_zero and not y.is_zero]
    expected = sum(products[1:], products[0]) if products else ZERO
    got = _contract(xs, ys)
    assert got == expected
    assert_normal_form(got)
    # The divisors are pairwise coprime, so the normal form is unique and
    # the two sums agree term for term.
    assert (got.c, got.num, got.factors) == (expected.c, expected.num, expected.factors)
    if len(products) == 1:
        assert got.factors == products[0].factors and got.num == products[0].num


def test_contract_cancels_a_base_of_the_sum():
    x, y = (parse_expr(n, CH8) for n in CH8.variables)
    got = _contract([x / (x + 1), 1 / (x + 1), y], [1 / (y + 2), 1 / (y + 2), 1 / (y + 2)])
    assert got == (y + 1) / (y + 2) and len(got.factors) == 1


def test_contract_of_all_zero_products_is_the_first_factor_zero():
    x = parse_expr("x", CH8, P8)
    got = _contract([ZERO, x], [x, ZERO])
    assert got.is_zero and got.chart is ZERO.chart


def rational_t11(rng: random.Random) -> Tensor11Field:
    """A 2x2 tensor whose entries are random polynomials over one of the
    pairwise coprime DIVISORS each."""
    return Tensor11Field(CH8, tuple(tuple(rand_poly(rng, CH8) / rng.choice(DIVISORS)
                                         for _ in range(2)) for _ in range(2)))


@pytest.mark.parametrize("lifted", [False, True])
def test_linear_combination_equals_the_chain_of_binary_operations(rng, lifted):
    S, T, U = (rational_t11(rng) for _ in range(3))
    if lifted:  # 4x4, with the squared bases of the complete lift's y^a d_a T block
        S, T, U = map(complete_lift_t11, (S, T, U))
    I = Tensor11Field.identity(S.chart)
    a, b = Fraction(-3, 2), P8.sqrtD
    c = 2 - RatFunc.constant(S.chart, b)
    chains = [(linear_combination([(a, S), (b, T), (c, I)]),
               S.scale(a) + T.scale(b) + I.scale(c)),
              (linear_combination([(1, S), (-1, I)], compose=(T, U)),
               compose_t11(T, U) + S - I),
              (linear_combination([], compose=(T, U)), compose_t11(T, U))]
    for got, expected in chains:
        assert type(got) is Tensor11Field and got.chart == S.chart
        for (_, g), (_, e) in zip(got._entries(), expected._entries()):
            # The divisors are pairwise coprime, so the normal form is unique.
            assert (g.c, g.num, g.factors) == (e.c, e.num, e.factors)


def test_linear_combination_of_every_rank(rng):
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    assert (linear_combination([(2, X), (-1, Y)]) - (X.scale(2) - Y)).is_zero
    N = Tensor12Field.antisymmetric(CH, lambda i, j: X)
    assert linear_combination([(3, N), (-3, N)]).is_zero
    with pytest.raises(ChartMismatch):
        linear_combination([(1, X), (1, rand_vector(rng, Chart(("u", "v"))))])
