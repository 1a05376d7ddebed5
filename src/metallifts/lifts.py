"""Tangent-bundle charts and the complete / vertical / horizontal lift calculus.

The tangent bundle of an n-chart is a 2n-chart: the base coordinates
followed by one fiber coordinate per base coordinate.  Every lift follows
one rule, from (P (x) Q)^C = P^C (x) Q^V + P^V (x) Q^C (Yano & Kobayashi
1966; Yano & Ishihara 1973, ch. I).  Let u be 1 when a lifted component's
upper index is a fiber index and 0 otherwise, l the number of its lower
indices in fiber position, and I its index projected to the base.  The
component is the top block at I when u - l = 1, the middle block at I
when u - l = 0, and 0 otherwise:

  T^C: middle T,  top y^a d_a T
  T^V: middle 0,  top T
  T^H: middle T,  top -y^l (Gamma terms of nabla_l T)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .geometry import (Connection, Tensor11Field, VectorField, _build, _contract, _Field,
                       _walk, compose_t11, connection_terms, invert_t11,
                       linear_combination, per_run)
from .metallic import metallic_recipe, metallic_residual
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
        return _contract([self.chart.variable(y) for y in self.fiber_variables],
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


@lru_cache(maxsize=None)
def _rule(n: int, rank: int) -> tuple:
    """The rule for fields of ``rank`` on an n-chart, as the component tree
    of positions in (0, *middle, *top), both blocks in base index order."""
    def position(*index):
        u_minus_l = (index[0] >= n) - sum(i >= n for i in index[1:])
        base = reduce(lambda flat, i: flat * n + i % n, index, 0)  # I's place in a block
        return 1 + u_minus_l * n ** rank + base if u_minus_l in (0, 1) else 0

    return _build(2 * n, rank, position)


def _lift(T: _Field, middle, top) -> _Field:
    """The field on TM of T's type with the blocks ``middle`` (None for 0)
    and ``top``, lists of values on TM in base index order."""
    if isinstance(T, Connection):
        raise TypeError("a connection is not a tensor field; it has no lift by this rule")
    tb = tangent_bundle(T.chart)
    zero = tb.chart.constant(0)
    values = (zero, *(middle or [zero] * len(top)), *top)
    return type(T)(tb.chart, _walk(T.rank, values.__getitem__, _rule(tb.n, T.rank)))


@per_run
def complete_lift(T: _Field) -> _Field:
    """T^C: middle T, top y^a d_a T."""
    tb = tangent_bundle(T.chart)
    names = T.chart.variables
    return _lift(T, [tb.up(c) for c in T._leaves()],
                 [tb.fiber_sum([c.diff(v) for v in names]) for c in T._leaves()])


def vertical_lift(T: _Field) -> _Field:
    """T^V: middle 0, top T."""
    tb = tangent_bundle(T.chart)
    return _lift(T, None, [tb.up(c) for c in T._leaves()])


@per_run
def horizontal_lift(T: VectorField | Tensor11Field, conn: Connection) -> _Field:
    """T^H: middle T, top -y^l times the connection terms of nabla_l T."""
    tb = tangent_bundle(T.chart)
    terms = connection_terms(T, conn)._leaves()  # n in a row, for l = 1..n
    return _lift(T, [tb.up(c) for c in T._leaves()],
                 [-tb.fiber_sum(row) for row in zip(*[iter(terms)] * tb.n)])


def composition_lift(S: Tensor11Field, T: Tensor11Field) -> Tensor11Field:
    """(S o T)^C - S^C o T^C."""
    lhs = complete_lift(compose_t11(S, T))
    return linear_combination([(1, lhs)], compose=(-complete_lift(S), complete_lift(T)))


def horizontal_square(T: Tensor11Field, conn: Connection) -> Tensor11Field:
    """(T o T)^H - T^H o T^H."""
    th = horizontal_lift(T, conn)
    lhs = horizontal_lift(compose_t11(T, T), conn)
    return linear_combination([(1, lhs)], compose=(-th, th))


def frame_matrix(conn: Connection) -> Tensor11Field:
    """Columns are the horizontal frame E_1..E_n then the vertical frame
    V_1..V_n of the connection, as coordinate components on TM."""
    basis = [VectorField.basis(conn.chart, a) for a in range(conn.chart.dimension)]
    cols = [horizontal_lift(e, conn) for e in basis] + [vertical_lift(e) for e in basis]
    return Tensor11Field(cols[0].chart, tuple(zip(*(c.components for c in cols))))


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
                                  (params.constant(p_swap.chart, 0, Fraction(1, 2)),
                                   p_swap)])
    return {"printed - derived": linear_combination(
                [(1, printed), (-1, metallic_recipe(p_swap, params))]),
            "printed metallic residual": metallic_residual(printed, params)}
