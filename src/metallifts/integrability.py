"""Nijenhuis tensors, distribution integrability, and the worked
position-dependent example on the plane.

The Nijenhuis tensor of a (1,1)-field T is

    N_T(X, Y) = [TX, TY] - T[TX, Y] - T[X, TY] + T^2 [X, Y]

with the standard last term T^2[X, Y]; its vanishing is the
integrability criterion for the structure.  N_T is C^inf-bilinear, so
every Nijenhuis identity below is read off the (1,2)-tensor that
``nijenhuis_t11`` assembles, and returned as its residual tensor.
``nijenhuis_apply`` evaluates the definition on two fields; on basis
fields ([e_i, e_j] = 0) it reduces to the coordinate formula

    N^h_ij = T^k_i d_k T^h_j - T^k_j d_k T^h_i + T^h_k (d_j T^k_i - d_i T^k_j),

which ``nijenhuis_t11`` evaluates from one table of derivatives d_k T^h_i.
Within a scenario run it is built once for all exactly equal T
(``geometry.per_run``); each identity still reads N off its own tensor.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import (Tensor11Field, Tensor12Field, VectorField, _contract, apply_t11,
                       compose_t11, invert_t11, lie_derivative, linear_combination,
                       per_run)
from .metallic import (MetallicStructure, StructureError, check_square_is,
                       metallic_from_product, metallic_recipe,
                       projectors_from_metallic)
from .numfield import MetallicParams
from .symexpr import Chart, parse_expr


def nijenhuis_apply(T: Tensor11Field, X: VectorField, Y: VectorField) -> VectorField:
    """N_T(X, Y) straight from the definition, through Lie brackets."""
    tx, ty = apply_t11(T, X), apply_t11(T, Y)
    return linear_combination([(1, lie_derivative(tx, ty)),
                               (-1, apply_t11(T, lie_derivative(tx, Y))),
                               (-1, apply_t11(T, lie_derivative(X, ty))),
                               (1, apply_t11(compose_t11(T, T), lie_derivative(X, Y)))])


@per_run
def nijenhuis_t11(T: Tensor11Field) -> Tensor12Field:
    """N_T in coordinates,

        N^h_ij = T^k_i d_k T^h_j - T^k_j d_k T^h_i + T^h_k (d_j T^k_i - d_i T^k_j),

    read off one table of first derivatives d_k T^h_i and summed by
    ``geometry._contract`` in k order, three terms per k."""
    chart = T.chart
    n = chart.dimension
    t = T.components
    # d[k][h][i] = d_k T^h_i; RatFunc.diff keeps each derivative on its component.
    d = [[[c.diff(v) for c in row] for row in t] for v in chart.variables]
    minus_t = [[-c for c in row] for row in t]

    def pair(i: int, j: int) -> VectorField:
        curl = [d[j][k][i] - d[i][k][j] for k in range(n)]
        return VectorField(chart, tuple(_contract(
            [f for k in range(n) for f in (t[k][i], minus_t[k][j], t[h][k])],
            [f for k in range(n) for f in (d[k][h][j], d[k][h][i], curl[k])])
            for h in range(n)))

    return Tensor12Field.antisymmetric(chart, pair)


def np_relation(P: Tensor11Field, params: MetallicParams) -> Tensor12Field:
    """D*N_P - 4*N_Psi for the Psi induced by the almost product structure P
    (metallic since Psi^2 - alpha*Psi - beta*I = (D/4)(P^2 - I))."""
    check_square_is(P, 1, "not an almost product structure")
    psi = metallic_recipe(P, params)
    return linear_combination([(params.discriminant, nijenhuis_t11(P)),
                               (-4, nijenhuis_t11(psi))])


def affine_invariance(T: Tensor11Field, a, b) -> Tensor12Field:
    """N_{a*I + b*T} - b^2 N_T: the Nijenhuis tensor only sees the
    non-scalar part of T."""
    shifted = linear_combination([(a, Tensor11Field.identity(T.chart)), (b, T)])
    return linear_combination([(1, nijenhuis_t11(shifted)),
                               (-(Fraction(b) ** 2), nijenhuis_t11(T))])


def projector_criterion(M: MetallicStructure, which: str) -> Tensor12Field:
    """(X, Y) -> r N_Psi(sX, sY) for ``r_on_s``, s N_Psi(rX, rY) for
    ``s_on_r``; zero when the corresponding eigendistribution is integrable."""
    if which not in ("r_on_s", "s_on_r"):
        raise ValueError("which must be 'r_on_s' or 's_on_r'")
    pair = projectors_from_metallic(M)
    outer, inner = (pair.r, pair.s) if which == "r_on_s" else (pair.s, pair.r)
    chart = M.chart
    N = nijenhuis_t11(M.tensor)
    cols = [apply_t11(inner, VectorField.basis(chart, i)) for i in range(chart.dimension)]
    return Tensor12Field.antisymmetric(
        chart, lambda i, j: apply_t11(outer, N.evaluate(cols[i], cols[j])))


def frobenius_criterion(projector: Tensor11Field, complement: Tensor11Field) -> Tensor12Field:
    """(X, Y) -> s[rX, rY] for the projector r onto a distribution and its
    complement s; zero exactly when the distribution is integrable."""
    chart = projector.chart
    if not linear_combination([(-1, projector)], compose=(projector, projector)).is_zero:
        raise StructureError("distribution projector is not idempotent")
    if not linear_combination([(1, projector), (1, complement),
                               (-1, Tensor11Field.identity(chart))]).is_zero:
        raise StructureError("projectors are not complementary")
    cols = [apply_t11(projector, VectorField.basis(chart, i)) for i in range(chart.dimension)]
    return Tensor12Field.antisymmetric(chart, lambda i, j: apply_t11(
        complement, lie_derivative(cols[i], cols[j])))


def distributions_integrable(M: MetallicStructure, gens_r, gens_s):
    """For the eigendistributions of M, first the one of r with generators
    ``gens_r``, then the one of s with ``gens_s``: the Frobenius criterion
    of its projector and, per generator g, the residual r g - g (s g - g)."""
    pair = projectors_from_metallic(M)
    return tuple((frobenius_criterion(proj, comp), tuple(apply_t11(proj, g) - g for g in gens))
                 for gens, proj, comp in ((gens_r, pair.r, pair.s), (gens_s, pair.s, pair.r)))


def example_41_distribution_generators(chart: Chart) -> tuple[VectorField, VectorField]:
    """R = span{d/dx - (x+y) d/dy}, S = span{(x+y) d/dx + d/dy}."""
    w = parse_expr("x + y", chart)
    one = chart.constant(1)
    gen_r = VectorField(chart, (one, -w))
    gen_s = VectorField(chart, (w, one))
    return gen_r, gen_s


def example_41_structure(params: MetallicParams) -> MetallicStructure:
    """The metallic structure whose +/- eigendistributions are the two
    spans above, built by exact change of basis."""
    chart = Chart(("x", "y"), params.radicand)
    gen_r, gen_s = example_41_distribution_generators(chart)
    basis = Tensor11Field(chart, tuple(zip(gen_r.components, gen_s.components)))
    signs = Tensor11Field.diagonal(chart, [1, -1])
    P = compose_t11(compose_t11(basis, signs), invert_t11(basis))
    return metallic_from_product(P, params)
