"""Vector fields, (1,1)- and (1,2)-tensor fields, connections, the Lie derivative.

Index convention, used everywhere: a (1,1)-tensor is stored as the matrix
T[h][i] with h the output (row) index, so (T X)^h = sum_i T[h][i] X^i.
A (1,2)-tensor is N[h][i][j] with N(X, Y)^h = N[h][i][j] X^i Y^j.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import wraps

from .symexpr import Chart, RatFunc

# Per function, the (arguments, result) pairs of the open run_memo() scope.
_RUN_MEMO: ContextVar[dict | None] = ContextVar("run_memo", default=None)


@contextmanager
def run_memo():
    """A scope, such as one scenario run, in which ``per_run`` functions
    memoise their results; the memo is dropped when the scope closes."""
    token = _RUN_MEMO.set({})
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)


def per_run(build):
    """Memoise ``build`` inside ``run_memo()`` and call it directly outside.
    A result is reused only for an argument tuple ``==`` to its key, which
    compares every component exactly.  A miss calls ``__wrapped__``."""
    @wraps(build)
    def memoised(*args):
        memo = _RUN_MEMO.get()
        if memo is None:
            return memoised.__wrapped__(*args)
        entries = memo.setdefault(memoised, [])
        for key, value in entries:
            if key == args:
                return value
        value = memoised.__wrapped__(*args)
        entries.append((args, value))
        return value

    return memoised


class ChartMismatch(ValueError):
    pass


def _same_chart(*objs):
    charts = {o.chart for o in objs}
    if len(charts) != 1:
        raise ChartMismatch(f"fields live on different charts: {charts}")
    return charts.pop()


def _as_ratfunc(chart: Chart, value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    return RatFunc.constant(chart, value)


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple[RatFunc, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dimension:
            raise ValueError("component count must equal chart dimension")

    @classmethod
    def make(cls, chart: Chart, comps) -> VectorField:
        return cls(chart, tuple(_as_ratfunc(chart, c) for c in comps))

    @classmethod
    def zero(cls, chart: Chart) -> VectorField:
        return cls.make(chart, [0] * chart.dimension)

    @classmethod
    def basis(cls, chart: Chart, i: int) -> VectorField:
        return cls.make(chart, [1 if j == i else 0 for j in range(chart.dimension)])

    def __add__(self, other: VectorField) -> VectorField:
        _same_chart(self, other)
        return VectorField(self.chart, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: VectorField) -> VectorField:
        _same_chart(self, other)
        return VectorField(self.chart, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> VectorField:
        return VectorField(self.chart, tuple(-a for a in self.components))

    def scale(self, c) -> VectorField:
        c = _as_ratfunc(self.chart, c)
        return VectorField(self.chart, tuple(c * a for a in self.components))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)


@dataclass(frozen=True)
class Tensor11Field:
    chart: Chart
    components: tuple[tuple[RatFunc, ...], ...]  # [h][i]

    def __post_init__(self):
        n = self.chart.dimension
        if len(self.components) != n or any(len(row) != n for row in self.components):
            raise ValueError("(1,1)-tensor must be a square matrix of chart dimension")

    @classmethod
    def make(cls, chart: Chart, rows) -> Tensor11Field:
        return cls(chart, tuple(tuple(_as_ratfunc(chart, c) for c in row) for row in rows))

    @classmethod
    def identity(cls, chart: Chart) -> Tensor11Field:
        n = chart.dimension
        return cls.make(chart, [[1 if h == i else 0 for i in range(n)] for h in range(n)])

    @classmethod
    def zero(cls, chart: Chart) -> Tensor11Field:
        n = chart.dimension
        return cls.make(chart, [[0] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, chart: Chart, entries) -> Tensor11Field:
        n = chart.dimension
        return cls.make(chart, [[entries[h] if h == i else 0 for i in range(n)] for h in range(n)])

    def __add__(self, other: Tensor11Field) -> Tensor11Field:
        _same_chart(self, other)
        return Tensor11Field(self.chart, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.components, other.components)))

    def __sub__(self, other: Tensor11Field) -> Tensor11Field:
        _same_chart(self, other)
        return Tensor11Field(self.chart, tuple(
            tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.components, other.components)))

    def __neg__(self) -> Tensor11Field:
        return Tensor11Field(self.chart, tuple(tuple(-a for a in row) for row in self.components))

    def scale(self, c) -> Tensor11Field:
        c = _as_ratfunc(self.chart, c)
        return Tensor11Field(self.chart, tuple(tuple(c * a for a in row) for row in self.components))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for row in self.components for c in row)

    def first_nonzero(self):
        """(h, i, component) of the first nonzero component, or None."""
        return next(((h, i, c) for h, row in enumerate(self.components)
                     for i, c in enumerate(row) if not c.is_zero), None)


@dataclass(frozen=True)
class Tensor12Field:
    chart: Chart
    components: tuple[tuple[tuple[RatFunc, ...], ...], ...]  # [h][i][j]

    def __post_init__(self):
        n = self.chart.dimension
        ok = len(self.components) == n and all(
            len(pl) == n and all(len(row) == n for row in pl) for pl in self.components)
        if not ok:
            raise ValueError("(1,2)-tensor must be cubical of chart dimension")

    @classmethod
    def antisymmetric(cls, chart: Chart, value) -> Tensor12Field:
        """The tensor with N(e_i, e_j) = value(i, j) (a VectorField) for
        i < j, N(e_j, e_i) = -N(e_i, e_j) and N(e_i, e_i) = 0."""
        n = chart.dimension
        zero = RatFunc.constant(chart, 0)
        cube = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = value(i, j)
                for h in range(n):
                    cube[h][i][j] = v.components[h]
                    cube[h][j][i] = -v.components[h]
        return cls(chart, tuple(tuple(tuple(row) for row in plane) for plane in cube))

    def __sub__(self, other: Tensor12Field) -> Tensor12Field:
        _same_chart(self, other)
        return Tensor12Field(self.chart, tuple(
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))
            for p1, p2 in zip(self.components, other.components)))

    def scale(self, c) -> Tensor12Field:
        c = _as_ratfunc(self.chart, c)
        return Tensor12Field(self.chart, tuple(
            tuple(tuple(c * a for a in row) for row in plane) for plane in self.components))

    def evaluate(self, X: VectorField, Y: VectorField) -> VectorField:
        _same_chart(self, X, Y)
        n = self.chart.dimension
        comps = []
        for h in range(n):
            acc = X.components[0].zero()
            for i in range(n):
                for j in range(n):
                    entry = self.components[h][i][j]
                    if not entry.is_zero:
                        acc = acc + entry * X.components[i] * Y.components[j]
            comps.append(acc)
        return VectorField(self.chart, tuple(comps))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for plane in self.components for row in plane for c in row)


@dataclass(frozen=True)
class Connection:
    """Affine connection coefficients Gamma[h][l][i]; no symmetry assumed."""

    chart: Chart
    coefficients: tuple[tuple[tuple[RatFunc, ...], ...], ...]  # [h][l][i]

    def __post_init__(self):
        n = self.chart.dimension
        ok = len(self.coefficients) == n and all(
            len(pl) == n and all(len(row) == n for row in pl)
            for pl in self.coefficients)
        if not ok:
            raise ValueError("connection coefficients must be cubical of chart dimension")

    @classmethod
    def make(cls, chart: Chart, cube) -> Connection:
        return cls(chart, tuple(tuple(tuple(_as_ratfunc(chart, c) for c in row)
                                      for row in plane) for plane in cube))

    @classmethod
    def flat(cls, chart: Chart) -> Connection:
        n = chart.dimension
        return cls.make(chart, [[[0] * n for _ in range(n)] for _ in range(n)])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def apply_t11(T: Tensor11Field, X: VectorField) -> VectorField:
    chart = _same_chart(T, X)
    n = chart.dimension
    comps = []
    for h in range(n):
        acc = X.components[0].zero()
        for i in range(n):
            if not T.components[h][i].is_zero:
                acc = acc + T.components[h][i] * X.components[i]
        comps.append(acc)
    return VectorField(chart, tuple(comps))


def compose_t11(S: Tensor11Field, T: Tensor11Field) -> Tensor11Field:
    chart = _same_chart(S, T)
    n = chart.dimension
    rows = []
    for h in range(n):
        row = []
        for i in range(n):
            acc = S.components[0][0].zero()
            for a in range(n):
                if not (S.components[h][a].is_zero or T.components[a][i].is_zero):
                    acc = acc + S.components[h][a] * T.components[a][i]
            row.append(acc)
        rows.append(tuple(row))
    return Tensor11Field(chart, tuple(rows))


def lie_derivative(V: VectorField, T: VectorField | Tensor11Field | Tensor12Field):
    """L_V T for T with one upper index and 0, 1 or 2 lower ones (a
    VectorField, Tensor11Field or Tensor12Field): (L_V T)^h_I = sum_a V^a d_a
    T^h_I - T^a_I d_a V^h + sum_m T^h_{I, i_m -> a} d_{i_m} V^a, summed in
    this order.  On a vector field it is the bracket [V, T]."""
    chart = _same_chart(V, T)
    n = chart.dimension
    names = chart.variables
    v = V.components

    def at(h, idx):
        c = T.components[h]
        for i in idx:
            c = c[i]
        return c

    def entry(h, idx):
        acc = v[0].zero()
        for a in range(n):
            acc = acc + v[a] * at(h, idx).diff(names[a])
            acc = acc - at(a, idx) * v[h].diff(names[a])
            for m, i in enumerate(idx):
                acc = acc + at(h, idx[:m] + (a,) + idx[m + 1:]) * v[a].diff(names[i])
        return acc

    def build(h, idx, c):  # c = T^h_idx, a component or a tuple of them
        if isinstance(c, RatFunc):
            return entry(h, idx)
        return tuple(build(h, idx + (i,), ci) for i, ci in enumerate(c))

    return type(T)(chart, tuple(build(h, (), c) for h, c in enumerate(T.components)))


# ---------------------------------------------------------------------------
# Exact linear algebra over the rational-function field
# ---------------------------------------------------------------------------

def invert_t11(T: Tensor11Field) -> Tensor11Field:
    """Exact inverse via Gauss-Jordan elimination; raises if singular."""
    chart = T.chart
    n = chart.dimension
    aug = [[T.components[h][i] for i in range(n)]
           + [RatFunc.constant(chart, 1 if h == i else 0) for i in range(n)]
           for h in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero), None)
        if pivot is None:
            raise ValueError("tensor is singular, cannot invert")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [e / inv for e in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero:
                factor = aug[r][col]
                aug[r] = [e - factor * p for e, p in zip(aug[r], aug[col])]
    return Tensor11Field(chart, tuple(tuple(row[n:]) for row in aug))
