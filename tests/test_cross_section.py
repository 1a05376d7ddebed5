import pytest

from metallifts.cross_section import (CrossSection, b_lift,
                                      induced_structure, invariance_check,
                                      lift_decomposition_check,
                                      restrict_to_section,
                                      section_nijenhuis_check)
from metallifts.geometry import Tensor11Field, VectorField
from metallifts.integrability import nijenhuis_apply
from metallifts.lifts import complete_lift_t11, tangent_bundle
from metallifts.metallic import (StructureError, metallic_from_product,
                                 metallic_residual)
from metallifts.numfield import make_params
from metallifts.symexpr import Chart, parse_expr

from conftest import chart_over, involutive_product, rand_vector

GOLDEN = make_params(1, 1)
CH = chart_over(GOLDEN)


def euler_field(chart=CH):
    return VectorField.make(chart, [parse_expr("x", chart), parse_expr("y", chart)])


def all_zero(rows):
    return all(c.is_zero for row in rows for c in row)


def constant_structure(params):
    P = Tensor11Field.make(chart_over(params), [[0, 1], [1, 0]])
    return metallic_from_product(P, params)


def test_section_bindings():
    cs = CrossSection(euler_field())
    binds = cs.bindings()
    assert set(binds) == {"vx", "vy"}
    assert binds["vx"] == parse_expr("x", CH)


def test_restrict_to_section():
    cs = CrossSection(euler_field())
    tb = tangent_bundle(CH)
    f = parse_expr("vx*vy + x", tb.chart)
    assert restrict_to_section(f, cs) == parse_expr("x*y + x", CH)
    with pytest.raises(TypeError):
        restrict_to_section(object(), cs)


def test_restrict_to_section_keeps_the_factored_denominator():
    tb = tangent_bundle(CH)
    h = parse_expr("1/((x+y)^2 + 1)", tb.chart)
    f = parse_expr("vx", tb.chart) * h * h
    assert f.factors == ((parse_expr("x^2 + 2*x*y + y^2 + 1", tb.chart).num, 2),)
    g = restrict_to_section(f, CrossSection(euler_field()))
    assert g.factors == ((parse_expr("x^2 + 2*x*y + y^2 + 1", CH).num, 2),)
    assert g == parse_expr("x / ((x+y)^2 + 1)^2", CH)


def test_lift_decomposition_random_fields(rng):
    for V in (euler_field(), rand_vector(rng, CH)):
        cs = CrossSection(V)
        X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
        report = lift_decomposition_check(X, Y, cs)
        assert report.b_bracket.is_zero
        assert report.c_bracket.is_zero
        assert all(c.is_zero for c in report.complete)
        assert report.vertical.is_zero


def test_b_lift_is_tangent_to_section(rng):
    """The fiber components of BX are the directional derivatives of V,
    exactly the condition for the image to stay on the section."""
    names = CH.variables
    for sparse in (False, True):  # sparse: each entry zero with probability 1/2
        V = rand_vector(rng, CH, sparse)
        cs = CrossSection(V)
        X = rand_vector(rng, CH, sparse)
        BX = b_lift(X, cs)
        for h in range(2):
            expect = sum((X.components[i] * V.components[h].diff(names[i])
                          for i in range(2)), parse_expr("0", CH))
            assert restrict_to_section(BX, cs)[2 + h] == expect


def test_invariance_for_invariant_section():
    """A constant structure is invariant under the Euler field's flow:
    L_V Psi = 0, and the lifted structure restricts cleanly."""
    M = constant_structure(GOLDEN)
    cs = CrossSection(euler_field())
    report = invariance_check(M, cs)
    assert report.lie_derivative.is_zero
    assert all_zero(report.decomposition)


def test_invariance_fails_for_generic_section():
    M = constant_structure(GOLDEN)
    W = VectorField.make(CH, [parse_expr("x*y", CH), parse_expr("0", CH)])
    report = invariance_check(M, CrossSection(W))
    assert not report.lie_derivative.is_zero
    # The pointwise decomposition identity holds regardless of invariance.
    assert all_zero(report.decomposition)


def test_decomposition_identity_for_random_data(rng):
    """Psi^C(BX) = B(Psi X) + C((L_V Psi) X) along the section, for a
    structure and section with no special relationship."""
    M = metallic_from_product(involutive_product(rng, CH), GOLDEN)
    cs = CrossSection(rand_vector(rng, CH))
    report = invariance_check(M, cs)
    assert all_zero(report.decomposition)


def test_induced_structure_on_invariant_section():
    M = constant_structure(make_params(2, 1))
    cs = CrossSection(euler_field(M.chart))
    induced = induced_structure(M, cs)
    assert metallic_residual(induced.tensor, M.params).is_zero
    # For a constant structure the induced tensor is the structure itself,
    # read in the section's intrinsic coordinates.
    assert (induced.tensor - M.tensor).is_zero


def test_induced_structure_requires_invariance():
    M = constant_structure(GOLDEN)
    W = VectorField.make(CH, [parse_expr("x*y", CH), parse_expr("0", CH)])
    with pytest.raises(StructureError):
        induced_structure(M, CrossSection(W))


def test_section_nijenhuis_decomposition(rng):
    """N_{Psi^C}(BX, BY) = B(N_Psi(X,Y)) + C((L_V N_Psi)(X,Y)) along the
    section, for generic position-dependent data."""
    M = metallic_from_product(involutive_product(rng, CH), GOLDEN)
    cs = CrossSection(rand_vector(rng, CH))
    report = section_nijenhuis_check(M, cs)
    assert all_zero(report.decomposition.values())
    assert report.equivalence_ok


def test_section_nijenhuis_equivalence_on_invariant_section():
    M = constant_structure(GOLDEN)
    cs = CrossSection(euler_field())
    report = section_nijenhuis_check(M, cs)
    assert report.lie_derivative.is_zero
    assert report.nijenhuis.is_zero
    assert all_zero(report.section.values())
    assert report.equivalence_ok
    assert report.lie_nijenhuis.is_zero


def test_chart_mismatch_rejected():
    other = Chart(("u", "v"), GOLDEN.radicand)
    M = constant_structure(GOLDEN)
    V = VectorField.make(other, [parse_expr("u", other), parse_expr("v", other)])
    # The same variables as M's chart, over QQ instead of Q(sqrt 5).
    W = euler_field(Chart(("x", "y")))
    for section in (V, W):
        with pytest.raises(ValueError):
            invariance_check(M, CrossSection(section))
        with pytest.raises(ValueError):
            section_nijenhuis_check(M, CrossSection(section))


def test_section_nijenhuis_formula_matches_the_definition():
    """N_{Psi^C}(B e_i, B e_j), read off the coordinate formula, equals the
    bracket definition on the lifted fields, for a Psi with N_Psi != 0 (from
    the contact-type projector onto span{d/dx, d/dy + x d/dz}) along a
    non-invariant section."""
    ch3 = chart_over(GOLDEN, ("x", "y", "z"))
    x = parse_expr("x", ch3)
    r = Tensor11Field.make(ch3, [[1, 0, 0], [0, 1, 0], [0, x, 0]])
    M = metallic_from_product(r.scale(2) - Tensor11Field.identity(ch3), GOLDEN)
    cs = CrossSection(VectorField.make(ch3, [parse_expr(t, ch3)
                                             for t in ("y*z", "x", "x^2 + 1")]))
    report = section_nijenhuis_check(M, cs)
    assert not report.nijenhuis.is_zero
    assert not report.lie_derivative.is_zero
    psi_c = complete_lift_t11(M.tensor)
    basis = [b_lift(VectorField.basis(ch3, i), cs) for i in range(3)]
    compared = []
    for i in range(3):
        for j in range(i + 1, 3):
            direct = restrict_to_section(nijenhuis_apply(psi_c, basis[i], basis[j]), cs)
            assert report.section[i, j] == direct
            compared.extend(direct)
    assert any(not c.is_zero for c in compared)
