import random
from fractions import Fraction

import pytest

from metallifts.geometry import Tensor11Field, apply_t11, compose_t11
from metallifts.metallic import (MetallicStructure, StructureError,
                                 composite_relation, metallic_from_product,
                                 metallic_residual, minimal_polynomial_check,
                                 product_from_metallic, projectors_from_metallic)
from metallifts.numfield import make_params
from metallifts.symexpr import Chart, parse_expr

from conftest import all_params, chart_over, involutive_product, params_constants, rand_t11

CH = Chart(("x", "y"))
PARAMS = all_params()


def test_structure_validation_rejects_non_metallic():
    params = make_params(1, 1)
    with pytest.raises(StructureError):
        MetallicStructure(params, Tensor11Field.identity(CH))


def test_structure_error_quotes_a_large_component_cut_short():
    # Degree-20 entries make the offending component of the defining
    # relation tens of thousands of characters long; the message keeps 200
    # of them and the full length.
    params = make_params(1, 1)
    big = parse_expr("(x+2*y+3)^20", chart_over(params), params)
    T = Tensor11Field.make(chart_over(params), [[big, 0], [0, 1]])
    for build in (lambda: MetallicStructure(params, T),
                  lambda: metallic_from_product(T, params)):
        with pytest.raises(StructureError) as err:
            build()
        msg = str(err.value)
        assert len(msg) < 400, len(msg)
        assert msg.endswith(" characters)") and "[1][1]" in msg
    # A short component is quoted whole, as before.
    with pytest.raises(StructureError) as err:
        metallic_from_product(Tensor11Field.make(chart_over(params), [[0, 0], [0, 1]]), params)
    assert str(err.value).endswith("[1][1] of the defining relation is nonzero: RatFunc(-1)")


def test_metallic_from_product_rejects_non_involutive(rng):
    T = rand_t11(rng, CH)  # generically T^2 != I
    with pytest.raises(StructureError):
        metallic_from_product(T, make_params(1, 1))


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_product_metallic_correspondence(params, rng):
    for _ in range(4):
        P = involutive_product(rng, chart_over(params))
        M = metallic_from_product(P, params)
        # Defining relation holds exactly.
        assert metallic_residual(M.tensor, params).is_zero
        # The correspondence is a bijection: recover P exactly.
        assert (product_from_metallic(M) - P).is_zero
        # And Psi = sigma*r + (alpha-sigma)*s with the projectors.
        pair = projectors_from_metallic(M)
        sigma, conjugate, _ = params_constants(params, M.chart)
        recon = pair.r.scale(sigma) + pair.s.scale(conjugate)
        assert (M.tensor - recon).is_zero


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_projector_algebra(params, rng):
    I = Tensor11Field.identity(chart_over(params))
    sigma, conjugate, _ = params_constants(params, chart_over(params))
    for _ in range(3):
        M = metallic_from_product(involutive_product(rng, chart_over(params)), params)
        pair = projectors_from_metallic(M)
        r, s = pair.r, pair.s
        assert (r + s - I).is_zero
        assert (compose_t11(r, r) - r).is_zero
        assert (compose_t11(s, s) - s).is_zero
        assert compose_t11(r, s).is_zero
        assert compose_t11(s, r).is_zero
        # Eigen-relations: Psi r = sigma r, Psi s = (alpha - sigma) s.
        assert (compose_t11(M.tensor, r) - r.scale(sigma)).is_zero
        assert (compose_t11(M.tensor, s) - s.scale(conjugate)).is_zero


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_projector_expansions(params, rng):
    """sigma*r and (alpha-sigma)*s expand in Psi and I with the derived
    coefficients; the identity-term sign differs from a widely printed
    variant, which the errata scenario documents."""
    I = Tensor11Field.identity(chart_over(params))
    sigma, conjugate, sqrt_d = params_constants(params, chart_over(params))
    inv = sqrt_d.reciprocal()
    for _ in range(3):
        M = metallic_from_product(involutive_product(rng, chart_over(params)), params)
        pair = projectors_from_metallic(M)
        lhs_r = pair.r.scale(sigma)
        rhs_r = (M.tensor.scale(sigma * inv)
                 + I.scale(params.beta * inv))
        assert (lhs_r - rhs_r).is_zero
        lhs_s = pair.s.scale(conjugate)
        rhs_s = (M.tensor.scale((sigma - params.alpha) * inv)
                 - I.scale(params.beta * inv))
        assert (lhs_s - rhs_s).is_zero
        # The variant with a flipped identity-term sign fails unless beta = 0,
        # which the parameter range excludes.
        wrong_r = (M.tensor.scale(sigma * inv)
                   - I.scale(params.beta * inv))
        assert not (lhs_r - wrong_r).is_zero


# -- minimal polynomials of derived structures ------------------------------

def _swap_product(chart=CH):
    return Tensor11Field.make(chart, [[0, 1], [1, 0]])


def _nilpotent_tangent(chart=CH):
    return Tensor11Field.make(chart, [[0, 1], [0, 0]])


def _complex_structure(chart=CH):
    return Tensor11Field.make(chart, [[0, -1], [1, 0]])


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_product_polynomial(params):
    rep = minimal_polynomial_check(_swap_product(chart_over(params)), "product", params)
    assert (rep.degree, rep.computed_c1, rep.computed_c0) == (2, rep.claimed_c1, rep.claimed_c0)
    assert rep.computed_c1 == -params.alpha
    assert rep.computed_c0 == -params.beta


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_tangent_polynomial(params):
    rep = minimal_polynomial_check(_nilpotent_tangent(chart_over(params)), "tangent", params)
    assert (rep.degree, rep.computed_c1, rep.computed_c0) == (2, rep.claimed_c1, rep.claimed_c0)
    assert rep.computed_c0 == Fraction(params.alpha ** 2, 4)


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_complex_polynomial_disagrees_with_printed_constant(params):
    """For T^2 = eps*I the derived structure satisfies
    X^2 - alpha*X + (alpha^2 - eps*D)/4; with eps = -1 the constant term is
    alpha^2/2 + beta, not the printed alpha^2/4 + beta."""
    rep = minimal_polynomial_check(_complex_structure(chart_over(params)), "complex", params)
    assert (rep.degree, rep.computed_c1, rep.computed_c0) != (2, rep.claimed_c1, rep.claimed_c0)
    expected = Fraction(params.alpha ** 2 + params.discriminant, 4)
    assert rep.computed_c0 == expected
    assert expected == Fraction(params.alpha ** 2, 2) + params.beta
    assert rep.claimed_c0 == Fraction(params.alpha ** 2, 4) + params.beta
    assert rep.computed_c1 == rep.claimed_c1


def test_degenerate_scalar_structure_reported_linear():
    params = make_params(2, 1)
    rep = minimal_polynomial_check(Tensor11Field.zero(chart_over(params)), "tangent", params)
    assert rep.degree == 1
    assert (rep.degree, rep.computed_c1, rep.computed_c0) != (2, rep.claimed_c1, rep.claimed_c0)
    # Psi collapses to (alpha/2) I, annihilated by X - alpha/2.
    assert rep.computed_c0 == -Fraction(params.alpha, 2)


def test_minimal_polynomial_rejects_wrong_kind():
    params = make_params(1, 1)
    with pytest.raises(ValueError):
        minimal_polynomial_check(_swap_product(chart_over(params)), "mystery", params)
    with pytest.raises(StructureError):
        minimal_polynomial_check(_swap_product(chart_over(params)), "complex", params)


# -- composite structures ---------------------------------------------------

@pytest.mark.parametrize("params", PARAMS[:3], ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_composite_relation_random_pairs(params, rng):
    """The bridge between Psi_{P o F} and Psi_P, Psi_F is a polynomial
    identity in the entries; it needs no involutivity at all."""
    for _ in range(10):
        P, F = rand_t11(rng, chart_over(params)), rand_t11(rng, chart_over(params))
        assert composite_relation(P, F, params).is_zero


def test_composite_relation_chart_mismatch(rng):
    other = Chart(("u", "v"))
    with pytest.raises(ValueError):
        composite_relation(rand_t11(rng, CH), rand_t11(rng, other),
                                 make_params(1, 1))
