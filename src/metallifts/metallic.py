"""Metallic structures on the base manifold and their projector calculus.

A metallic structure is a (1,1)-tensor field with Psi^2 = alpha*Psi + beta*I.
It corresponds to an almost product structure P via
Psi = (alpha*I + sqrtD*P)/2 and back via P = (2*Psi - alpha*I)/sqrtD.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (Tensor11Field, _index_label, _same_chart, compose_t11,
                       linear_combination, per_run)
from .numfield import MetallicParams
from .symexpr import Chart, RatFunc


class StructureError(ValueError):
    pass


# A component quoted in a StructureError is cut after this many characters.
MAX_COMPONENT_TEXT = 200


def _component_text(c: RatFunc) -> str:
    """repr(c), cut after MAX_COMPONENT_TEXT characters, then its length."""
    text = repr(c)
    if len(text) <= MAX_COMPONENT_TEXT:
        return text
    return f"{text[:MAX_COMPONENT_TEXT]}... ({len(text)} characters)"


@per_run
def square_residual(T: Tensor11Field, k) -> Tensor11Field:
    """T o T - k*I."""
    return linear_combination([(-k, Tensor11Field.identity(T.chart))], compose=(T, T))


def check_square_is(T: Tensor11Field, scalar, what: str) -> None:
    """Require T o T == scalar * I; raise naming the violating component."""
    bad = square_residual(T, scalar).first_nonzero()
    if bad is not None:
        *index, c = bad
        raise StructureError(
            f"{what}: component {_index_label(index)} of the defining relation "
            f"is nonzero: {_component_text(c)}")


def mean_defining(chart: Chart, params: MetallicParams) -> RatFunc:
    """sigma^2 - alpha*sigma - beta on ``chart``: zero, as sigma is a root
    of x^2 - alpha*x - beta."""
    sigma = params.constant(chart, Fraction(params.alpha, 2), Fraction(1, 2))
    return sigma * sigma - params.alpha * sigma - params.beta


@dataclass(frozen=True)
class MetallicStructure:
    params: MetallicParams
    tensor: Tensor11Field

    def __post_init__(self):
        res = metallic_residual(self.tensor, self.params)
        bad = res.first_nonzero()
        if bad is not None:
            *index, c = bad
            raise StructureError(
                f"Psi^2 - alpha*Psi - beta*I has nonzero component "
                f"{_index_label(index)}: {_component_text(c)}")

    @property
    def chart(self):
        return self.tensor.chart


@per_run
def metallic_residual(T: Tensor11Field, params: MetallicParams) -> Tensor11Field:
    """T o T - alpha*T - beta*I."""
    return linear_combination([(-params.alpha, T),
                               (-params.beta, Tensor11Field.identity(T.chart))],
                              compose=(T, T))


@dataclass(frozen=True)
class ProjectorPair:
    r: Tensor11Field
    s: Tensor11Field


@per_run
def metallic_recipe(T: Tensor11Field, params: MetallicParams) -> Tensor11Field:
    """(alpha*I + sqrtD*T)/2, metallic when T is an almost product structure."""
    return linear_combination([(Fraction(params.alpha, 2), Tensor11Field.identity(T.chart)),
                               (params.constant(T.chart, 0, Fraction(1, 2)), T)])


@per_run
def metallic_from_product(P: Tensor11Field, params: MetallicParams) -> MetallicStructure:
    check_square_is(P, 1, "not an almost product structure")
    return MetallicStructure(params, metallic_recipe(P, params))


def product_from_metallic(M: MetallicStructure) -> Tensor11Field:
    """(2*Psi - alpha*I)/sqrtD, with 1/sqrtD = sqrtD/D."""
    params, D = M.params, M.params.discriminant
    P = linear_combination([(params.constant(M.chart, 0, Fraction(2, D)), M.tensor),
                            (params.constant(M.chart, 0, Fraction(-params.alpha, D)),
                             Tensor11Field.identity(M.chart))])
    check_square_is(P, 1, "recovered tensor is not almost product")
    return P


def product_roundtrip(P: Tensor11Field, params: MetallicParams) -> Tensor11Field:
    """P' - P for the product P' recovered from the metallic form of P."""
    return product_from_metallic(metallic_from_product(P, params)) - P


@per_run
def projectors_from_metallic(M: MetallicStructure) -> ProjectorPair:
    """r = (Psi - (alpha - sigma)*I)/sqrtD and s = (sigma*I - Psi)/sqrtD,
    with 1/sqrtD = sqrtD/D, sigma/sqrtD = 1/2 + alpha*sqrtD/(2*D) and
    (alpha - sigma)/sqrtD = -1/2 + alpha*sqrtD/(2*D)."""
    params, chart = M.params, M.chart
    identity = Tensor11Field.identity(chart)
    inv = params.constant(chart, 0, Fraction(1, params.discriminant))
    shift = Fraction(params.alpha, 2 * params.discriminant)
    r = linear_combination([(inv, M.tensor),
                            (params.constant(chart, Fraction(1, 2), -shift), identity)])
    s = linear_combination([(-inv, M.tensor),
                            (params.constant(chart, Fraction(1, 2), shift), identity)])
    return ProjectorPair(r, s)


def projector_algebra(M: MetallicStructure) -> dict[str, Tensor11Field]:
    """The residuals of r + s = I, rs = sr = 0, r^2 = r, s^2 = s,
    Psi r = r Psi = sigma r and Psi s = s Psi = (alpha - sigma) s, by label."""
    params, chart, psi = M.params, M.chart, M.tensor
    pair = projectors_from_metallic(M)
    r, s = pair.r, pair.s
    half = Fraction(1, 2)
    # -sigma = -alpha/2 - sqrtD/2 and -(alpha - sigma) = -alpha/2 + sqrtD/2
    minus_sigma = params.constant(chart, Fraction(-params.alpha, 2), -half)
    minus_conjugate = params.constant(chart, Fraction(-params.alpha, 2), half)
    residuals = {
        "r + s - I": linear_combination([(1, r), (1, s),
                                         (-1, Tensor11Field.identity(chart))]),
        "r s": compose_t11(r, s), "s r": compose_t11(s, r)}
    for label, c, T, left, right in (
            ("r^2 - r", -1, r, r, r), ("s^2 - s", -1, s, s, s),
            ("Psi r - sigma r", minus_sigma, r, psi, r),
            ("r Psi - sigma r", minus_sigma, r, r, psi),
            ("Psi s - (alpha-sigma) s", minus_conjugate, s, psi, s),
            ("s Psi - (alpha-sigma) s", minus_conjugate, s, s, psi)):
        residuals[label] = linear_combination([(c, T)], compose=(left, right))
    return residuals


def projector_expansions(M: MetallicStructure) -> tuple[dict[str, Tensor11Field],
                                                        Tensor11Field]:
    """The residuals of the derived expansions
    sigma*r = (sigma/sqrtD)*Psi + (beta/sqrtD)*I and
    (alpha-sigma)*s = ((sigma-alpha)/sqrtD)*Psi - (beta/sqrtD)*I, by label;
    and sigma*r minus the printed (sigma/sqrtD)*Psi - (beta/sqrtD)*I, which
    is not zero."""
    params, chart, psi = M.params, M.chart, M.tensor
    pair = projectors_from_metallic(M)
    identity = Tensor11Field.identity(chart)
    # alpha - sigma = alpha/2 - sqrtD/2, sigma/sqrtD = 1/2 + alpha*sqrtD/(2*D),
    # (alpha-sigma)/sqrtD = -1/2 + alpha*sqrtD/(2*D), beta/sqrtD = beta*sqrtD/D.
    half, shift = Fraction(1, 2), Fraction(params.alpha, 2 * params.discriminant)
    sigma = params.constant(chart, Fraction(params.alpha, 2), half)
    conjugate = params.constant(chart, Fraction(params.alpha, 2), -half)
    minus_sigma_over = params.constant(chart, -half, -shift)
    conjugate_over = params.constant(chart, -half, shift)
    beta_over = params.constant(chart, 0, Fraction(params.beta, params.discriminant))
    derived = {
        "sigma*r - derived": linear_combination(
            [(sigma, pair.r), (minus_sigma_over, psi), (-beta_over, identity)]),
        "(alpha-sigma)*s - derived": linear_combination(
            [(conjugate, pair.s), (conjugate_over, psi), (beta_over, identity)])}
    return derived, linear_combination(
        [(sigma, pair.r), (minus_sigma_over, psi), (beta_over, identity)])


@dataclass(frozen=True)
class PolynomialReport:
    """The monic quadratic (or linear) annihilator of a derived structure.

    ``computed`` holds the coefficients of p(X) = X^2 + c1*X + c0 (or
    (c1, c0) of X + c0 for the degenerate scalar case, flagged by
    ``degree``); ``claimed`` is the kind's published polynomial.  Each is a
    constant on the structure's chart.
    """

    kind: str
    degree: int
    computed_c1: RatFunc
    computed_c0: RatFunc
    claimed_c1: RatFunc
    claimed_c0: RatFunc


_KIND_SQUARE = {"product": 1, "tangent": 0, "complex": -1}


def _claimed_polynomial(kind: str, params: MetallicParams,
                        chart: Chart) -> tuple[RatFunc, RatFunc]:
    alpha, beta = params.alpha, params.beta
    if kind == "product":
        c0 = -beta
    elif kind == "tangent":
        c0 = Fraction(alpha * alpha, 4)
    elif kind == "complex":
        c0 = Fraction(alpha * alpha, 4) + beta
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return chart.constant(-alpha), chart.constant(c0)


def minimal_polynomial_check(T: Tensor11Field, kind: str,
                             params: MetallicParams) -> PolynomialReport:
    """Build Psi_k = (alpha*I + sqrtD*T)/2 and its exact monic annihilator,
    beside the published polynomial for the kind.  From T^2 = k*I,
    Psi_k^2 = alpha*Psi_k + (k*D - alpha^2)/4 * I, so c1 = -alpha and
    c0 = (alpha^2 - k*D)/4, unless Psi_k is a scalar multiple of I."""
    if kind not in _KIND_SQUARE:
        raise ValueError(f"unknown kind {kind!r}")
    check_square_is(T, _KIND_SQUARE[kind], f"tensor is not almost {kind}")

    chart = T.chart
    identity = Tensor11Field.identity(chart)
    psi = metallic_recipe(T, params)
    claimed_c1, claimed_c0 = _claimed_polynomial(kind, params, chart)
    scalar = psi.components[0][0]
    if linear_combination([(1, psi), (-scalar, identity)]).is_zero:
        # psi = lambda*I, with linear minimal polynomial X - lambda.
        return PolynomialReport(kind, 1, chart.constant(0), -scalar, claimed_c1, claimed_c0)
    c1 = chart.constant(-params.alpha)
    c0 = chart.constant(Fraction(params.alpha ** 2 - _KIND_SQUARE[kind]
                                 * params.discriminant, 4))
    residual = linear_combination([(c1, psi), (c0, identity)], compose=(psi, psi))
    if not residual.is_zero:
        raise StructureError("derived structure has no quadratic annihilator "
                             "with constant coefficients")
    return PolynomialReport(kind, 2, c1, c0, claimed_c1, claimed_c0)


def composite_relation(P: Tensor11Field, F: Tensor11Field,
                       params: MetallicParams) -> Tensor11Field:
    """sqrtD*Psi_J - (2*Psi_P*Psi_F - alpha*Psi_P - alpha*Psi_F + alpha*sigma*I)
    with J = P o F and Psi_T = (alpha*I + sqrtD*T)/2; zero for every P, F,
    as the identity is purely algebraic and needs no involutivity.  Its
    last coefficient is -alpha*sigma = -alpha^2/2 - alpha*sqrtD/2."""
    chart = _same_chart(P, F)
    psi_p, psi_f = metallic_recipe(P, params), metallic_recipe(F, params)
    psi_j = metallic_recipe(compose_t11(P, F), params)
    alpha = params.alpha
    sqrt_d = params.constant(chart, 0, 1)
    minus_alpha_sigma = params.constant(chart, Fraction(-alpha * alpha, 2), Fraction(-alpha, 2))
    return linear_combination([(sqrt_d, psi_j), (alpha, psi_p), (alpha, psi_f),
                               (minus_alpha_sigma, Tensor11Field.identity(chart))],
                              compose=(psi_p.scale(-2), psi_f))
