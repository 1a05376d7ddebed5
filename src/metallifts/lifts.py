"""Tangent-bundle charts and the complete / vertical / horizontal lift calculus.

The tangent bundle of an n-chart is a 2n-chart: the base coordinates
followed by one fiber coordinate per base coordinate.  Component
conventions (h is the output index):

  X^V = (0, X^h)
  X^C = (X^h, y^a d_a X^h)
  X^H = (X^h, -Gamma^h_{la} y^l X^a)
  T^C = [[T, 0], [dT, T]]      with (dT)^h_i = y^a d_a T^h_i
  T^H = T^C - nabla_gamma T
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geometry import (Connection, Tensor11Field, VectorField, _contract, _same_chart,
                       apply_t11, compose_t11, invert_t11, linear_combination, per_run)
from .metallic import metallic_recipe, metallic_residual, param_constant
from .numfield import MetallicParams
from .symexpr import Chart, RatFunc


@dataclass(frozen=True)
class TangentBundleChart:
    base: Chart
    chart: Chart  # base variables followed by fiber variables

    @property
    def n(self) -> int:
        return self.base.dimension

    @property
    def fiber_variables(self) -> tuple[str, ...]:
        return self.chart.variables[self.n:]

    def up(self, f: RatFunc) -> RatFunc:
        """A base-chart function read on TM."""
        return f.on_chart(self.chart)

    def fiber_sum(self, fs) -> RatFunc:
        """sum_a y^a f_a on TM for base-chart functions f_a."""
        return _contract([RatFunc.variable(self.chart, y) for y in self.fiber_variables],
                         [self.up(f) for f in fs])


@lru_cache(maxsize=None)
def tangent_bundle(base: Chart) -> TangentBundleChart:
    fiber = []
    for name in base.variables:
        cand = "v" + name
        while cand in base.variables or cand in fiber:
            cand += "_"
        fiber.append(cand)
    return TangentBundleChart(base, Chart(base.variables + tuple(fiber), base.field.d))


def vertical_lift_vf(X: VectorField) -> VectorField:
    tb = tangent_bundle(X.chart)
    zero = RatFunc.constant(tb.chart, 0)
    return VectorField(tb.chart, tuple([zero] * tb.n + [tb.up(c) for c in X.components]))


def complete_lift_vf(X: VectorField) -> VectorField:
    tb = tangent_bundle(X.chart)
    names = X.chart.variables
    return VectorField(tb.chart, tuple(
        [tb.up(c) for c in X.components]
        + [tb.fiber_sum([c.diff(v) for v in names]) for c in X.components]))


def _lower_triangular(diag, lower) -> Tensor11Field:
    """[[diag, 0], [lower, diag]] on TM from n x n blocks; diag None is zero."""
    chart = lower[0][0].chart
    zero = (RatFunc.constant(chart, 0),) * len(lower)
    diag = diag or [zero] * len(lower)
    return Tensor11Field(chart, tuple(
        [tuple(row) + zero for row in diag]
        + [tuple(low) + tuple(row) for low, row in zip(lower, diag)]))


@per_run
def complete_lift_t11(T: Tensor11Field) -> Tensor11Field:
    tb = tangent_bundle(T.chart)
    names = T.chart.variables
    # (dT)^h_i = y^a d_a T^h_i, the lower-left block.
    dT = [[tb.fiber_sum([c.diff(v) for v in names]) for c in row] for row in T.components]
    return _lower_triangular([[tb.up(c) for c in row] for row in T.components], dT)


def nabla_gamma_t11(T: Tensor11Field, conn: Connection) -> Tensor11Field:
    _same_chart(T, conn)
    tb = tangent_bundle(T.chart)
    n = tb.n
    names = T.chart.variables
    t, gamma = T.components, conn.components
    minus_gamma = [[[-c for c in row] for row in plane] for plane in gamma]

    def cov(h: int, i: int, l: int) -> RatFunc:
        """(nabla_l T)^h_i"""
        return t[h][i].diff(names[l]) + _contract(
            [f for a in range(n) for f in (gamma[h][l][a], minus_gamma[a][l][i])],
            [f for a in range(n) for f in (t[a][i], t[h][a])])

    block = [[tb.fiber_sum([cov(h, i, l) for l in range(n)]) for i in range(n)]
             for h in range(n)]
    return _lower_triangular(None, block)


def horizontal_lift_vf(X: VectorField, conn: Connection) -> VectorField:
    _same_chart(X, conn)
    tb = tangent_bundle(X.chart)
    # Row h of the fiber part is -y^l Gamma^h_{la} X^a.
    lower = [-tb.fiber_sum(apply_t11(Tensor11Field(X.chart, gamma), X).components)
             for gamma in conn.components]
    return VectorField(tb.chart, tuple([tb.up(c) for c in X.components] + lower))


def composition_lift(S: Tensor11Field, T: Tensor11Field) -> Tensor11Field:
    """(S o T)^C - S^C o T^C."""
    lhs = complete_lift_t11(compose_t11(S, T))
    return linear_combination([(1, lhs)],
                              compose=(-complete_lift_t11(S), complete_lift_t11(T)))


@per_run
def horizontal_lift_t11(T: Tensor11Field, conn: Connection) -> Tensor11Field:
    return complete_lift_t11(T) - nabla_gamma_t11(T, conn)


def horizontal_square(T: Tensor11Field, conn: Connection) -> Tensor11Field:
    """(T o T)^H - T^H o T^H."""
    th = horizontal_lift_t11(T, conn)
    lhs = horizontal_lift_t11(compose_t11(T, T), conn)
    return linear_combination([(1, lhs)], compose=(-th, th))


def frame_matrix(conn: Connection) -> Tensor11Field:
    """Columns are the horizontal frame E_1..E_n then the vertical frame
    V_1..V_n of the connection, as coordinate components on TM."""
    tb = tangent_bundle(conn.chart)
    n = tb.n
    basis = [VectorField.basis(conn.chart, a) for a in range(n)]
    cols = ([horizontal_lift_vf(e, conn) for e in basis]
            + [vertical_lift_vf(e) for e in basis])
    return Tensor11Field(tb.chart, tuple(zip(*(c.components for c in cols))))


@per_run
def frame_swap_product(conn: Connection) -> Tensor11Field:
    """P~ = F S F^-1, the almost product structure on TM that swaps the
    horizontal and vertical frames (F = frame_matrix, S the block swap)."""
    F = frame_matrix(conn)
    n = conn.chart.dimension
    swap = Tensor11Field.make(F.chart, [
        [1 if abs(i - h) == n else 0 for i in range(2 * n)] for h in range(2 * n)])
    return compose_t11(compose_t11(F, swap), invert_t11(F))


def jtilde_structure(conn: Connection, params: MetallicParams) -> Tensor11Field:
    """The metallic structure J~ = (alpha*I + sqrtD*P~)/2 on TM."""
    return metallic_recipe(frame_swap_product(conn), params)


def jtilde_printed(conn: Connection, params: MetallicParams) -> dict[str, Tensor11Field]:
    """The printed frame-swap structure (I + sqrtD*P~)/2, by label: its
    difference from the derived J~ and its own metallic residual.  Both
    vanish exactly when alpha = 1."""
    p_swap = frame_swap_product(conn)
    printed = linear_combination([(Fraction(1, 2), Tensor11Field.identity(p_swap.chart)),
                                  (param_constant(p_swap.chart, params, 0, Fraction(1, 2)),
                                   p_swap)])
    return {"printed - derived": linear_combination(
                [(1, printed), (-1, metallic_recipe(p_swap, params))]),
            "printed metallic residual": metallic_residual(printed, params)}
