"""Vector fields, (1,1)- and (1,2)-tensor fields, connections, Lie and covariant derivatives.

Every field class derives from one private base, ``_Field``: a chart and the
nested tuples ``components[h][i]...`` of depth ``rank`` (1 for VectorField, 2
for Tensor11Field, 3 for Tensor12Field and Connection), with the shape check
and the algebra written once for every rank.

Index convention, used everywhere: a (1,1)-tensor is stored as the matrix
T[h][i] with h the output (row) index, so (T X)^h = sum_i T[h][i] X^i.
A (1,2)-tensor is N[h][i][j] with N(X, Y)^h = N[h][i][j] X^i Y^j.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial, wraps
from itertools import chain, product, starmap
from operator import add, neg, sub
from typing import ClassVar

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
    return value if isinstance(value, RatFunc) else chart.constant(value)


def _build(n: int, rank: int, f):
    """The component tree [h][i]... of depth ``rank`` with ``f(h, i, ...)``
    at each leaf, called in index order."""
    tree = tuple(starmap(f, product(range(n), repeat=rank)))
    for _ in range(rank - 1):  # group each level n at a time
        tree = tuple(zip(*[iter(tree)] * n))
    return tree


def _walk(rank: int, f, *trees):
    """``f`` applied leafwise to component trees of one shape."""
    if rank == 1:
        return tuple(map(f, *trees))
    return tuple(map(partial(_walk, rank - 1, f), *trees))


def _index_label(index) -> str:
    """The 1-based component label ``[h][i]...`` of a 0-based index tuple."""
    return "".join([f"[{i + 1}]" for i in index])


def _contract(xs, ys) -> RatFunc:
    """sum_k xs[k] * ys[k] over two sequences of one length, by
    ``RatFunc.sum_of_products``: the products whose factors are both
    nonzero go over one common denominator, their numerators are added,
    and the sum is reduced once.  A term with a zero factor is skipped
    unmultiplied, and with none left the sum is 0.  Every sum of
    products in the tensor layers is this function; a difference is passed
    as a sum with its subtracted factor negated."""
    return RatFunc.sum_of_products(xs, ys)


@dataclass(frozen=True)
class _Field:
    """A field with one upper index and ``rank - 1`` lower ones, stored as
    nested tuples ``components[h][i]...`` of depth ``rank``, each level of
    the chart's dimension."""

    chart: Chart
    components: tuple
    rank: ClassVar[int]

    def __post_init__(self):
        n, level = self.chart.dimension, (self.components,)
        try:
            for depth in range(self.rank):  # each level has length n
                if depth:
                    level = tuple(chain.from_iterable(level))
                if {*map(len, level)} != {n}:
                    break
            else:
                if isinstance(level[0][0], RatFunc):  # the first leaf, at depth rank
                    return
        except TypeError:  # len() of a RatFunc: the tree is shallower than rank
            pass
        raise ValueError(f"{type(self).__name__} needs components of shape "
                         f"{'x'.join([str(n)] * self.rank)}")

    @classmethod
    def make(cls, chart: Chart, components):
        return cls(chart, _walk(cls.rank, partial(_as_ratfunc, chart), components))

    @classmethod
    def zero(cls, chart: Chart):
        return cls.make(chart, _build(chart.dimension, cls.rank, lambda *index: 0))

    def __add__(self, other):
        _same_chart(self, other)
        return type(self)(self.chart, _walk(self.rank, add, self.components, other.components))

    def __sub__(self, other):
        _same_chart(self, other)
        return type(self)(self.chart, _walk(self.rank, sub, self.components, other.components))

    def __neg__(self):
        return type(self)(self.chart, _walk(self.rank, neg, self.components))

    def scale(self, c):
        c = _as_ratfunc(self.chart, c)
        return type(self)(self.chart, _walk(self.rank, c.__mul__, self.components))

    def _leaves(self):
        """The components in index order."""
        leaves = self.components
        for _ in range(self.rank - 1):
            leaves = chain.from_iterable(leaves)
        return leaves

    def _entries(self):
        """(index, component) pairs in index order."""
        return zip(product(range(self.chart.dimension), repeat=self.rank), self._leaves())

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self._leaves())

    def first_nonzero(self):
        """(*index, component) of the first nonzero component, or None."""
        return next(((*index, c) for index, c in self._entries() if not c.is_zero), None)


class VectorField(_Field):
    rank = 1

    @classmethod
    def basis(cls, chart: Chart, i: int) -> VectorField:
        return cls.make(chart, _build(chart.dimension, 1, lambda j: int(j == i)))


class Tensor11Field(_Field):
    rank = 2

    @classmethod
    def identity(cls, chart: Chart) -> Tensor11Field:
        return cls.make(chart, _build(chart.dimension, 2, lambda h, i: int(h == i)))

    @classmethod
    def diagonal(cls, chart: Chart, entries) -> Tensor11Field:
        return cls.make(chart, _build(chart.dimension, 2,
                                      lambda h, i: entries[h] if h == i else 0))


class Tensor12Field(_Field):
    rank = 3

    @classmethod
    def antisymmetric(cls, chart: Chart, value) -> Tensor12Field:
        """The tensor with N(e_i, e_j) = value(i, j) (a VectorField) for
        i < j, N(e_j, e_i) = -N(e_i, e_j) and N(e_i, e_i) = 0."""
        n = chart.dimension
        zero = chart.constant(0)
        pairs = {(i, j): value(i, j).components for i in range(n) for j in range(i + 1, n)}
        return cls(chart, _build(n, 3, lambda h, i, j: (
            pairs[i, j][h] if i < j else -pairs[j, i][h] if i > j else zero)))

    def evaluate(self, X: VectorField, Y: VectorField) -> VectorField:
        _same_chart(self, X, Y)
        # N(X, Y)^h = sum_i X^i (sum_j N[h][i][j] Y^j)
        return VectorField(self.chart, tuple(
            _contract(X.components, [_contract(row, Y.components) for row in plane])
            for plane in self.components))


class Connection(_Field):
    """Affine connection coefficients Gamma[h][l][i]; no symmetry assumed."""

    rank = 3


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def apply_t11(T: Tensor11Field, X: VectorField) -> VectorField:
    chart = _same_chart(T, X)
    return VectorField(chart, tuple(_contract(row, X.components) for row in T.components))


def compose_t11(S: Tensor11Field, T: Tensor11Field) -> Tensor11Field:
    chart = _same_chart(S, T)
    columns = tuple(zip(*T.components))
    return Tensor11Field(chart, tuple(tuple(_contract(row, col) for col in columns)
                                      for row in S.components))


def linear_combination(terms, compose=None):
    """sum_k c_k T_k over the pairs (c_k, T_k) of ``terms``, fields of one
    type and chart and scalars or constant ``RatFunc`` coefficients, plus
    S o T when ``compose`` is a pair (S, T) of (1,1)-tensors.  Each entry is
    one ``_contract`` of the coefficients and the row of S against the
    entries of the T_k and the column of T, so it is reduced once; an
    identity term costs only its diagonal, as ``_contract`` skips the zeros
    off it."""
    first = terms[0][1] if terms else compose[0]
    chart = _same_chart(*[T for _, T in terms], *(compose or ()))
    coeffs = [_as_ratfunc(chart, c) for c, _ in terms]
    tables = [dict(T._entries()) for _, T in terms]
    if compose is not None:
        rows, columns = compose[0].components, tuple(zip(*compose[1].components))

    def entry(*index):
        xs, ys = coeffs, [t[index] for t in tables]
        if compose is not None:
            h, i = index
            xs, ys = [*xs, *rows[h]], [*ys, *columns[i]]
        return _contract(xs, ys)

    return type(first)(chart, _build(chart.dimension, first.rank, entry))


def lie_derivative(V: VectorField, T: VectorField | Tensor11Field | Tensor12Field):
    """L_V T for T with one upper index and 0, 1 or 2 lower ones (a
    VectorField, Tensor11Field or Tensor12Field): (L_V T)^h_I = sum_a V^a d_a
    T^h_I - T^a_I d_a V^h + sum_m T^h_{I, i_m -> a} d_{i_m} V^a, summed in
    this order.  On a vector field it is the bracket [V, T]."""
    chart = _same_chart(V, T)
    n, names, v = chart.dimension, chart.variables, V.components
    t = dict(T._entries())  # T^h_I by the index tuple (h, *I)
    minus_t = {index: -c for index, c in t.items()}
    dv = [[c.diff(name) for name in names] for c in v]  # dv[h][a] = d_a V^h

    def entry(h, *index):
        left, right = [], []
        for a in range(n):
            left += [v[a], minus_t[(a, *index)]]
            right += [t[(h, *index)].diff(names[a]), dv[h][a]]
            for m, i in enumerate(index):
                left.append(t[(h, *index[:m], a, *index[m + 1:])])
                right.append(dv[a][i])
        return _contract(left, right)

    return type(T)(chart, _build(n, T.rank, entry))


def connection_terms(T: VectorField | Tensor11Field, conn: Connection):
    """The Gamma terms of nabla T, a field one rank up with the derivative
    index last: (nabla T)^h_{I l} = d_l T^h_I + sum_a Gamma^h_{la} T^a_I
    - sum_m Gamma^a_{l i_m} T^h_{I, i_m -> a}, and these are the two sums."""
    chart = _same_chart(T, conn)
    out = {VectorField: Tensor11Field, Tensor11Field: Tensor12Field}.get(type(T))
    if out is None:
        raise TypeError(f"no field type holds nabla of a {type(T).__name__}")
    n, gamma, t = chart.dimension, conn.components, dict(T._entries())
    minus_gamma = _walk(3, neg, gamma) if T.rank > 1 else None  # for lower indices

    def entry(h, *rest):
        *index, l = rest
        left, right = [], []
        for a in range(n):
            left.append(gamma[h][l][a])
            right.append(t[(a, *index)])
            for m, i in enumerate(index):
                left.append(minus_gamma[a][l][i])
                right.append(t[(h, *index[:m], a, *index[m + 1:])])
        return _contract(left, right)

    return out(chart, _build(n, T.rank + 1, entry))


# ---------------------------------------------------------------------------
# Exact linear algebra over the rational-function field
# ---------------------------------------------------------------------------

def invert_t11(T: Tensor11Field) -> Tensor11Field:
    """Exact inverse via Gauss-Jordan elimination; raises if singular."""
    chart = T.chart
    n = chart.dimension
    aug = [[T.components[h][i] for i in range(n)]
           + [chart.constant(1 if h == i else 0) for i in range(n)]
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
