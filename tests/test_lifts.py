import pytest

from metallifts.cli import load_builtin
from metallifts.geometry import (ChartMismatch, Connection, Tensor11Field, Tensor12Field,
                                 VectorField, _build, apply_t11, compose_t11, connection_terms,
                                 invert_t11, lie_derivative)
from metallifts.lifts import (complete_lift, frame_matrix, horizontal_lift, jtilde_structure,
                              tangent_bundle, vertical_lift)
from metallifts.metallic import (MetallicStructure, metallic_from_product,
                                 metallic_residual)
from metallifts.numfield import make_params
from metallifts.symexpr import Chart, parse_expr

from conftest import (all_params, chart_over, involutive_product, rand_poly, rand_t11,
                      rand_vector)

CH = Chart(("x", "y"))
TB = tangent_bundle(CH)


def rand_connection(rng, chart=CH, sparse=False):
    n = chart.dimension
    return Connection(chart, tuple(
        tuple(tuple(rand_poly(rng, chart, sparse=sparse) for _ in range(n)) for _ in range(n))
        for _ in range(n)))


def test_tangent_bundle_chart_names():
    assert TB.chart.variables == ("x", "y", "vx", "vy")
    assert TB.fiber_variables == ("vx", "vy")
    clash = Chart(("x", "vx"))
    tb2 = tangent_bundle(clash)
    assert len(set(tb2.chart.variables)) == 4


def test_up_keeps_the_factored_denominator():
    f = parse_expr("1/((x+y)^2 + 1)", CH).diff("x")
    g = TB.up(f)
    assert g.factors == ((parse_expr("x^2 + 2*x*y + y^2 + 1", TB.chart).num, 2),)
    assert g == parse_expr("-2*(x+y) / (x^2 + 2*x*y + y^2 + 1)^2", TB.chart)


def test_complete_lift_keeps_the_squared_factor():
    """The lower-left block y^a d_a Psi of example 4.1's lift carries
    ((x+y)^2 + 1)^2, not its expansion."""
    psi = load_builtin("example_4_1").structures["PSI"][1]
    lifted = complete_lift(psi)
    for row in lifted.components[2:]:
        for c in row[:2]:
            assert c.factors == ((parse_expr("x^2 + 2*x*y + y^2 + 1", TB.chart).num, 2),)


# -- bracket laws for the three lifts --------------------------------------

def test_complete_complete_bracket(rng):
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    lhs = lie_derivative(complete_lift(X), complete_lift(Y))
    rhs = complete_lift(lie_derivative(X, Y))
    assert (lhs - rhs).is_zero


def test_complete_vertical_bracket(rng):
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    lhs = lie_derivative(complete_lift(X), vertical_lift(Y))
    rhs = vertical_lift(lie_derivative(X, Y))
    assert (lhs - rhs).is_zero


def test_vertical_vertical_bracket(rng):
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    assert lie_derivative(vertical_lift(X), vertical_lift(Y)).is_zero


# -- complete lift of (1,1)-tensors ----------------------------------------

def test_complete_lift_action_on_lifts(rng):
    T = rand_t11(rng, CH)
    X = rand_vector(rng, CH)
    TC = complete_lift(T)
    # T^C X^V = (T X)^V and T^C X^C = (T X)^C + ((L_X T) applied)^V; on
    # the vertical lift the law is clean, so assert that one exactly.
    lhs = apply_t11(TC, vertical_lift(X))
    rhs = vertical_lift(apply_t11(T, X))
    assert (lhs - rhs).is_zero


def test_complete_lift_is_multiplicative(rng):
    S, T = rand_t11(rng, CH), rand_t11(rng, CH)
    lhs = complete_lift(compose_t11(S, T))
    rhs = compose_t11(complete_lift(S), complete_lift(T))
    assert (lhs - rhs).is_zero


@pytest.mark.parametrize("params", all_params(), ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_complete_lift_preserves_metallic(params, rng):
    M = metallic_from_product(involutive_product(rng, chart_over(params)), params)
    lifted = complete_lift(M.tensor)
    assert metallic_residual(lifted, params).is_zero
    # Constructing the structure object revalidates it.
    MetallicStructure(params, lifted)


# -- horizontal lift --------------------------------------------------------

def test_horizontal_lift_action(rng):
    for sparse in (False, True):  # sparse: entries of T and Gamma zero with probability 1/2
        conn = rand_connection(rng, sparse=sparse)
        T = rand_t11(rng, CH, sparse)
        X = rand_vector(rng, CH)
        TH = horizontal_lift(T, conn)
        lhs_h = apply_t11(TH, horizontal_lift(X, conn))
        rhs_h = horizontal_lift(apply_t11(T, X), conn)
        assert (lhs_h - rhs_h).is_zero
        lhs_v = apply_t11(TH, vertical_lift(X))
        rhs_v = vertical_lift(apply_t11(T, X))
        assert (lhs_v - rhs_v).is_zero


def test_horizontal_lift_square_law(rng):
    conn = rand_connection(rng)
    T = rand_t11(rng, CH)
    lhs = horizontal_lift(compose_t11(T, T), conn)
    rhs = compose_t11(horizontal_lift(T, conn),
                      horizontal_lift(T, conn))
    assert (lhs - rhs).is_zero


@pytest.mark.parametrize("params", all_params(), ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_horizontal_lift_preserves_metallic(params, rng):
    conn = rand_connection(rng, chart_over(params))
    M = metallic_from_product(involutive_product(rng, conn.chart), params)
    lifted = horizontal_lift(M.tensor, conn)
    assert metallic_residual(lifted, params).is_zero


def test_nabla_gamma_vanishes_for_flat_connection_and_constant_tensor(rng):
    """gamma(nabla T) = T^C - T^H: a flat connection adds no connection
    terms, and a constant tensor has no partial derivatives either."""
    conn = Connection.zero(CH)
    assert connection_terms(rand_t11(rng, CH), conn).is_zero
    T = Tensor11Field.make(CH, [[1, 2], [3, 4]])
    assert (complete_lift(T) - horizontal_lift(T, conn)).is_zero


# -- the lift rule against the hand-written lifts it replaced ---------------
# The oracles are the per-type formulas the rule replaced, kept verbatim in
# substance, and the probed complete lift of a (1,2)-tensor.

def oracle_vertical_vf(X):
    tb = tangent_bundle(X.chart)
    zero = tb.chart.constant(0)
    return VectorField(tb.chart, tuple([zero] * tb.n + [tb.up(c) for c in X.components]))


def oracle_complete_vf(X):
    tb = tangent_bundle(X.chart)
    names = X.chart.variables
    return VectorField(tb.chart, tuple(
        [tb.up(c) for c in X.components]
        + [tb.fiber_sum([c.diff(v) for v in names]) for c in X.components]))


def oracle_horizontal_vf(X, conn):
    tb = tangent_bundle(X.chart)
    lower = [-tb.fiber_sum(apply_t11(Tensor11Field(X.chart, gamma), X).components)
             for gamma in conn.components]
    return VectorField(tb.chart, tuple([tb.up(c) for c in X.components] + lower))


def oracle_blocks(diag, lower):
    """[[diag, 0], [lower, diag]] on TM from n x n blocks; diag None is zero."""
    chart = lower[0][0].chart
    zero = (chart.constant(0),) * len(lower)
    diag = diag or [zero] * len(lower)
    return Tensor11Field(chart, tuple(
        [tuple(row) + zero for row in diag]
        + [tuple(low) + tuple(row) for low, row in zip(lower, diag)]))


def oracle_vertical_t11(T):
    """[[0, 0], [T, 0]]."""
    tb = tangent_bundle(T.chart)
    zero = (tb.chart.constant(0),) * tb.n
    return Tensor11Field(tb.chart, tuple(
        [zero * 2] * tb.n + [tuple(map(tb.up, row)) + zero for row in T.components]))


def oracle_complete_t11(T):
    tb = tangent_bundle(T.chart)
    names = T.chart.variables
    dT = [[tb.fiber_sum([c.diff(v) for v in names]) for c in row] for row in T.components]
    return oracle_blocks([[tb.up(c) for c in row] for row in T.components], dT)


def oracle_gamma_nabla(T, conn):
    tb = tangent_bundle(T.chart)
    n = tb.n
    names = T.chart.variables
    t, gamma = T.components, conn.components

    def cov(h, i, l):
        """(nabla_l T)^h_i"""
        return t[h][i].diff(names[l]) + sum(
            (gamma[h][l][a] * t[a][i] - gamma[a][l][i] * t[h][a] for a in range(n)),
            T.chart.constant(0))

    block = [[tb.fiber_sum([cov(h, i, l) for l in range(n)]) for i in range(n)]
             for h in range(n)]
    return oracle_blocks(None, block)


def oracle_horizontal_t11(T, conn):
    return oracle_complete_t11(T) - oracle_gamma_nabla(T, conn)


def oracle_complete_t12(S):
    """The base block is S; the fiber output is y^a d_a S^h_ij on two base
    inputs and S^h_ij with exactly one fiber input; all else is 0."""
    tb = tangent_bundle(S.chart)
    n, names = tb.n, S.chart.variables

    def entry(h, i, j):
        s = S.components[h % n][i % n][j % n]
        fibers = (i >= n) + (j >= n)
        if h < n:
            return tb.up(s) if fibers == 0 else 0
        if fibers == 0:
            return tb.fiber_sum([s.diff(v) for v in names])
        return tb.up(s) if fibers == 1 else 0

    return Tensor12Field.make(tb.chart, [[[entry(h, i, j) for j in range(2 * n)]
                                          for i in range(2 * n)] for h in range(2 * n)])


def rand_entry(rng, chart):
    """A random rational function, with a sqrt(d) part on a chart over Q(sqrt d)
    and a denominator half of the time."""
    value = rand_poly(rng, chart)
    if chart.field.d:
        value = value + rand_poly(rng, chart) * chart.constant(0, 1)
    if rng.random() < 0.5:
        value = value / (rand_poly(rng, chart) ** 2 + 1)
    return value


@pytest.mark.parametrize("radicand", [0, 5], ids=["QQ", "Q(sqrt5)"])
def test_the_rule_gives_the_hand_written_lifts(rng, radicand):
    chart = Chart(("x", "y"), radicand)

    def rand_field(cls):
        return cls(chart, _build(2, cls.rank, lambda *index: rand_entry(rng, chart)))

    for _ in range(3):
        X, T, S = rand_field(VectorField), rand_field(Tensor11Field), rand_field(Tensor12Field)
        conn = rand_field(Connection)
        assert vertical_lift(X) == oracle_vertical_vf(X)
        assert complete_lift(X) == oracle_complete_vf(X)
        assert horizontal_lift(X, conn) == oracle_horizontal_vf(X, conn)
        assert vertical_lift(T) == oracle_vertical_t11(T)
        assert complete_lift(T) == oracle_complete_t11(T)
        assert horizontal_lift(T, conn) == oracle_horizontal_t11(T, conn)
        assert complete_lift(S) == oracle_complete_t12(S)


# -- frame matrix and the swap structure -----------------------------------

def test_frame_matrix_invertible(rng):
    conn = rand_connection(rng)
    F = frame_matrix(conn)
    I = Tensor11Field.identity(TB.chart)
    assert (compose_t11(F, invert_t11(F)) - I).is_zero


def test_frame_matrix_columns_are_frames(rng):
    conn = rand_connection(rng)
    F = frame_matrix(conn)
    e0 = horizontal_lift(VectorField.basis(CH, 0), conn)
    for h in range(4):
        assert (F.components[h][0] - e0.components[h]).is_zero


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (1, 2)])
def test_jtilde_is_metallic(pair, rng):
    params = make_params(*pair)
    conn = rand_connection(rng, chart_over(params))
    J = jtilde_structure(conn, params)
    assert metallic_residual(J, params).is_zero


def test_jtilde_printed_form_matches_only_for_unit_alpha(rng):
    """The frame-swap structure (I + sqrtD * P~)/2 printed without the
    factor alpha on the identity term equals the derived
    (alpha*I + sqrtD * P~)/2 exactly when alpha = 1."""
    state = rng.getstate()

    def printed_and_derived(params):
        rng.setstate(state)  # the same connection, on the chart over params' field
        conn = rand_connection(rng, chart_over(params))
        tb = tangent_bundle(conn.chart)
        half = tb.chart.constant(1) / 2
        F = frame_matrix(conn)
        n = tb.n
        swap = Tensor11Field.make(tb.chart, [
            [1 if (i == h + n or i == h - n) else 0 for i in range(2 * n)]
            for h in range(2 * n)])
        p_swap = compose_t11(compose_t11(F, swap), invert_t11(F))
        I = Tensor11Field.identity(tb.chart)
        return ((I + p_swap.scale(params.constant(tb.chart, 0, 1))).scale(half),
                jtilde_structure(conn, params))

    golden = make_params(1, 1)
    printed, derived = printed_and_derived(golden)
    assert (printed - derived).is_zero

    silver = make_params(2, 1)
    printed, derived = printed_and_derived(silver)
    assert not (printed - derived).is_zero
    assert not metallic_residual(printed, silver).is_zero


def test_chart_mismatch_errors(rng):
    """Fields on another chart are refused, and so is a connection: it is a
    rank-3 field but no tensor, and its complete lift is not the rule's.
    The covariant derivative of a (1,2)-tensor has no field type here."""
    other = Chart(("u", "v"))
    conn = rand_connection(rng)
    for T in (rand_vector(rng, other), rand_t11(rng, other)):
        with pytest.raises(ChartMismatch):
            horizontal_lift(T, conn)
        with pytest.raises(ChartMismatch):
            connection_terms(T, conn)
    for lift in (complete_lift, vertical_lift, lambda T: horizontal_lift(T, conn)):
        with pytest.raises(TypeError):
            lift(conn)
    S = Tensor12Field.zero(CH)
    with pytest.raises(TypeError):
        horizontal_lift(S, conn)
    with pytest.raises(TypeError):
        connection_terms(S, conn)
