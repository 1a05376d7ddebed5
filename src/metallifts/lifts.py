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
from functools import lru_cache

from .geometry import Connection, Tensor11Field, VectorField, compose_t11, invert_t11
from .metallic import metallic_recipe
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

    def fiber_var(self, a: int) -> RatFunc:
        return RatFunc.variable(self.chart, self.fiber_variables[a])


@lru_cache(maxsize=None)
def tangent_bundle(base: Chart) -> TangentBundleChart:
    fiber = []
    for name in base.variables:
        cand = "v" + name
        while cand in base.variables or cand in fiber:
            cand += "_"
        fiber.append(cand)
    return TangentBundleChart(base, Chart(base.variables + tuple(fiber)))


def _up(f: RatFunc, tb: TangentBundleChart) -> RatFunc:
    return f.on_chart(tb.chart)


def vertical_lift_vf(X: VectorField, tb: TangentBundleChart | None = None) -> VectorField:
    tb = tb or tangent_bundle(X.chart)
    zero = RatFunc.constant(tb.chart, 0)
    comps = [zero] * tb.n + [_up(c, tb) for c in X.components]
    return VectorField(tb.chart, tuple(comps))


def complete_lift_vf(X: VectorField, tb: TangentBundleChart | None = None) -> VectorField:
    tb = tb or tangent_bundle(X.chart)
    n = tb.n
    upper = [_up(c, tb) for c in X.components]
    lower = []
    for h in range(n):
        acc = RatFunc.constant(tb.chart, 0)
        for a in range(n):
            acc = acc + tb.fiber_var(a) * _up(X.components[h].diff(X.chart.variables[a]), tb)
        lower.append(acc)
    return VectorField(tb.chart, tuple(upper + lower))


def _fiber_contraction(T: Tensor11Field, tb: TangentBundleChart):
    """(dT)^h_i = y^a d_a T^h_i, the lower-left block of the complete lift."""
    n = tb.n
    block = []
    for h in range(n):
        row = []
        for i in range(n):
            acc = RatFunc.constant(tb.chart, 0)
            for a in range(n):
                acc = acc + tb.fiber_var(a) * _up(T.components[h][i].diff(T.chart.variables[a]), tb)
            row.append(acc)
        block.append(row)
    return block


def _from_blocks(tb: TangentBundleChart, ul, ur, ll, lr) -> Tensor11Field:
    n = tb.n
    zero = RatFunc.constant(tb.chart, 0)

    def cell(block, h, i):
        if block is None:
            return zero
        return block[h][i]

    rows = []
    for h in range(2 * n):
        row = []
        for i in range(2 * n):
            if h < n:
                row.append(cell(ul, h, i) if i < n else cell(ur, h, i - n))
            else:
                row.append(cell(ll, h - n, i) if i < n else cell(lr, h - n, i - n))
        rows.append(tuple(row))
    return Tensor11Field(tb.chart, tuple(rows))


def _base_block(T: Tensor11Field, tb: TangentBundleChart):
    return [[_up(c, tb) for c in row] for row in T.components]


def complete_lift_t11(T: Tensor11Field, tb: TangentBundleChart | None = None) -> Tensor11Field:
    tb = tb or tangent_bundle(T.chart)
    base = _base_block(T, tb)
    return _from_blocks(tb, base, None, _fiber_contraction(T, tb), base)


def nabla_gamma_t11(T: Tensor11Field, conn: Connection,
                    tb: TangentBundleChart | None = None) -> Tensor11Field:
    if T.chart != conn.chart:
        raise ValueError("tensor and connection must share a chart")
    tb = tb or tangent_bundle(T.chart)
    n = tb.n
    names = T.chart.variables
    block = []
    for h in range(n):
        row = []
        for i in range(n):
            acc = RatFunc.constant(tb.chart, 0)
            for l in range(n):
                cov = T.components[h][i].diff(names[l])
                for a in range(n):
                    cov = cov + conn.coefficients[h][l][a] * T.components[a][i]
                    cov = cov - conn.coefficients[a][l][i] * T.components[h][a]
                acc = acc + tb.fiber_var(l) * _up(cov, tb)
            row.append(acc)
        block.append(row)
    return _from_blocks(tb, None, None, block, None)


def horizontal_lift_vf(X: VectorField, conn: Connection,
                       tb: TangentBundleChart | None = None) -> VectorField:
    if X.chart != conn.chart:
        raise ValueError("field and connection must share a chart")
    tb = tb or tangent_bundle(X.chart)
    n = tb.n
    upper = [_up(c, tb) for c in X.components]
    lower = []
    for h in range(n):
        acc = RatFunc.constant(tb.chart, 0)
        for l in range(n):
            for a in range(n):
                g = conn.coefficients[h][l][a]
                if not g.is_zero:
                    acc = acc - _up(g * X.components[a], tb) * tb.fiber_var(l)
        lower.append(acc)
    return VectorField(tb.chart, tuple(upper + lower))


def horizontal_lift_t11(T: Tensor11Field, conn: Connection,
                        tb: TangentBundleChart | None = None) -> Tensor11Field:
    tb = tb or tangent_bundle(T.chart)
    return complete_lift_t11(T, tb) - nabla_gamma_t11(T, conn, tb)


def frame_matrix(conn: Connection, tb: TangentBundleChart | None = None) -> Tensor11Field:
    """Columns are the horizontal frame E_1..E_n then the vertical frame
    V_1..V_n of the connection, as coordinate components on TM."""
    tb = tb or tangent_bundle(conn.chart)
    n = tb.n
    cols = []
    for a in range(n):
        cols.append(horizontal_lift_vf(VectorField.basis(conn.chart, a), conn, tb))
    for a in range(n):
        cols.append(vertical_lift_vf(VectorField.basis(conn.chart, a), tb))
    rows = tuple(tuple(cols[i].components[h] for i in range(2 * n)) for h in range(2 * n))
    return Tensor11Field(tb.chart, rows)


def frame_swap_product(conn: Connection, tb: TangentBundleChart) -> Tensor11Field:
    """P~ = F S F^-1, the almost product structure on TM that swaps the
    horizontal and vertical frames (F = frame_matrix, S the block swap)."""
    n = tb.n
    F = frame_matrix(conn, tb)
    swap = Tensor11Field.make(tb.chart, [
        [1 if abs(i - h) == n else 0 for i in range(2 * n)] for h in range(2 * n)])
    return compose_t11(compose_t11(F, swap), invert_t11(F))


def jtilde_structure(conn: Connection, params: MetallicParams,
                     tb: TangentBundleChart | None = None) -> Tensor11Field:
    """The metallic structure J~ = (alpha*I + sqrtD*P~)/2 on TM."""
    return metallic_recipe(frame_swap_product(conn, tb or tangent_bundle(conn.chart)),
                           params)
