import pytest

from metallifts.cli import load_builtin
from metallifts.geometry import (Connection, Tensor11Field, VectorField,
                                 apply_t11, compose_t11, invert_t11,
                                 lie_derivative)
from metallifts.lifts import (complete_lift_t11, complete_lift_vf, frame_matrix,
                              horizontal_lift_t11, horizontal_lift_vf,
                              jtilde_structure, nabla_gamma_t11, tangent_bundle,
                              vertical_lift_vf)
from metallifts.metallic import (MetallicStructure, metallic_from_product,
                                 metallic_residual)
from metallifts.numfield import make_params
from metallifts.symexpr import Chart, RatFunc, parse_expr

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
    lifted = complete_lift_t11(psi)
    for row in lifted.components[2:]:
        for c in row[:2]:
            assert c.factors == ((parse_expr("x^2 + 2*x*y + y^2 + 1", TB.chart).num, 2),)


# -- bracket laws for the three lifts --------------------------------------

def test_complete_complete_bracket(rng):
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    lhs = lie_derivative(complete_lift_vf(X), complete_lift_vf(Y))
    rhs = complete_lift_vf(lie_derivative(X, Y))
    assert (lhs - rhs).is_zero


def test_complete_vertical_bracket(rng):
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    lhs = lie_derivative(complete_lift_vf(X), vertical_lift_vf(Y))
    rhs = vertical_lift_vf(lie_derivative(X, Y))
    assert (lhs - rhs).is_zero


def test_vertical_vertical_bracket(rng):
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    assert lie_derivative(vertical_lift_vf(X), vertical_lift_vf(Y)).is_zero


# -- complete lift of (1,1)-tensors ----------------------------------------

def test_complete_lift_action_on_lifts(rng):
    T = rand_t11(rng, CH)
    X = rand_vector(rng, CH)
    TC = complete_lift_t11(T)
    # T^C X^V = (T X)^V and T^C X^C = (T X)^C + ((L_X T) applied)^V; on
    # the vertical lift the law is clean, so assert that one exactly.
    lhs = apply_t11(TC, vertical_lift_vf(X))
    rhs = vertical_lift_vf(apply_t11(T, X))
    assert (lhs - rhs).is_zero


def test_complete_lift_is_multiplicative(rng):
    S, T = rand_t11(rng, CH), rand_t11(rng, CH)
    lhs = complete_lift_t11(compose_t11(S, T))
    rhs = compose_t11(complete_lift_t11(S), complete_lift_t11(T))
    assert (lhs - rhs).is_zero


@pytest.mark.parametrize("params", all_params(), ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_complete_lift_preserves_metallic(params, rng):
    M = metallic_from_product(involutive_product(rng, chart_over(params)), params)
    lifted = complete_lift_t11(M.tensor)
    assert metallic_residual(lifted, params).is_zero
    # Constructing the structure object revalidates it.
    MetallicStructure(params, lifted)


# -- horizontal lift --------------------------------------------------------

def test_horizontal_lift_action(rng):
    for sparse in (False, True):  # sparse: entries of T and Gamma zero with probability 1/2
        conn = rand_connection(rng, sparse=sparse)
        T = rand_t11(rng, CH, sparse)
        X = rand_vector(rng, CH)
        TH = horizontal_lift_t11(T, conn)
        lhs_h = apply_t11(TH, horizontal_lift_vf(X, conn))
        rhs_h = horizontal_lift_vf(apply_t11(T, X), conn)
        assert (lhs_h - rhs_h).is_zero
        lhs_v = apply_t11(TH, vertical_lift_vf(X))
        rhs_v = vertical_lift_vf(apply_t11(T, X))
        assert (lhs_v - rhs_v).is_zero


def test_horizontal_lift_square_law(rng):
    conn = rand_connection(rng)
    T = rand_t11(rng, CH)
    lhs = horizontal_lift_t11(compose_t11(T, T), conn)
    rhs = compose_t11(horizontal_lift_t11(T, conn),
                      horizontal_lift_t11(T, conn))
    assert (lhs - rhs).is_zero


@pytest.mark.parametrize("params", all_params(), ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_horizontal_lift_preserves_metallic(params, rng):
    conn = rand_connection(rng, chart_over(params))
    M = metallic_from_product(involutive_product(rng, conn.chart), params)
    lifted = horizontal_lift_t11(M.tensor, conn)
    assert metallic_residual(lifted, params).is_zero


def test_nabla_gamma_vanishes_for_flat_connection_and_constant_tensor():
    conn = Connection.zero(CH)
    T = Tensor11Field.make(CH, [[1, 2], [3, 4]])
    assert nabla_gamma_t11(T, conn).is_zero


# -- frame matrix and the swap structure -----------------------------------

def test_frame_matrix_invertible(rng):
    conn = rand_connection(rng)
    F = frame_matrix(conn)
    I = Tensor11Field.identity(TB.chart)
    assert (compose_t11(F, invert_t11(F)) - I).is_zero


def test_frame_matrix_columns_are_frames(rng):
    conn = rand_connection(rng)
    F = frame_matrix(conn)
    e0 = horizontal_lift_vf(VectorField.basis(CH, 0), conn)
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
        half = RatFunc.constant(tb.chart, 1) / 2
        F = frame_matrix(conn)
        n = tb.n
        swap = Tensor11Field.make(tb.chart, [
            [1 if (i == h + n or i == h - n) else 0 for i in range(2 * n)]
            for h in range(2 * n)])
        p_swap = compose_t11(compose_t11(F, swap), invert_t11(F))
        I = Tensor11Field.identity(tb.chart)
        return (I + p_swap.scale(params.sqrtD)).scale(half), jtilde_structure(conn, params)

    golden = make_params(1, 1)
    printed, derived = printed_and_derived(golden)
    assert (printed - derived).is_zero

    silver = make_params(2, 1)
    printed, derived = printed_and_derived(silver)
    assert not (printed - derived).is_zero
    assert not metallic_residual(printed, silver).is_zero


def test_chart_mismatch_errors(rng):
    other = Chart(("u", "v"))
    conn = rand_connection(rng)
    with pytest.raises(ValueError):
        horizontal_lift_vf(rand_vector(rng, other), conn)
    with pytest.raises(ValueError):
        nabla_gamma_t11(rand_t11(rng, other), conn)
