"""Multivariate rational functions over Q(sqrt(d)) in named chart coordinates.

A ``Chart`` is the coordinate names and one coefficient field Q(sqrt(d))
(``Chart(variables, radicand)``; d = 0 is QQ), and every value on a chart
has its coefficients in that field, so no operation joins two radicands.
The chart makes every constant, ``chart.constant(a, b) = a + b*sqrt(d)``
from rational parts, and every variable, and keeps them: they go with it.
No scalar type enters a chart (``MetallicParams.constant`` gives the pair's
constants as parts), and ``RatFunc.constant_value`` reads one out.
A ``RatFunc`` is ``c * N / prod(F_i^e_i)``: a rational content ``c`` (an
int when integral, else a ``Fraction``), a numerator ``N`` in ``ZZ[x, s]/
(s^2 - d)``, where ``x`` are the chart coordinates and ``s`` stands for
``sqrt(d)``, and a tuple of denominator bases ``F_i`` in ``ZZ[x]`` with
positive integer exponents.  ``N`` and each ``F_i`` are primitive
(coefficient gcd 1) with a positive leading coefficient, which makes them
unique, and all coefficient arithmetic is on integers.  ``N`` has degree at
most 1 in ``s`` (``s^2`` is rewritten to ``d`` after every product and
power), and denominators never contain ``s``: a divisor ``A + s*B`` is
rationalised by its conjugate into the norm ``A^2 - d*B^2``.  By Gauss's
lemma products and exact quotients of primitive polynomials are primitive,
so the content is taken again only after a sum, a derivative or a rewrite
of ``s^2`` (``(1+s)(1-s) = 1-d``), and for the conjugate product and norm
of a reciprocal.  Every operation cancels numerator against denominator
bases by exact trial division over ``ZZ``, with no gcd of the two (only
``reduced()`` takes one), so no base divides a numerator.  A sum, of two
terms or of a whole contraction (``RatFunc.sum_of_products``), goes over one
common denominator and is reduced once, and so does a derivative, by the
quotient rule over the factored denominator.  A product with a constant
``a + b*s`` keeps the other operand's bases untried: none of them can
divide the product, as ``a^2 - d*b^2 != 0``.  Zero is represented uniquely
by ``N == 0`` and ``c == 0`` (``A + s*B == 0`` iff ``A == B == 0``), which
makes ``is_zero`` the decidable verdict primitive behind every identity
check.  Equality is decided by exact cross-multiplication, independent of
how the denominators are factored.  Rendering and numeric evaluation read
the value as a numerator over ``QQ`` divided by monic bases: each printed
coefficient comes from the integer pair ``(A, B)`` of a chart monomial's
``A + B*s`` in ``N`` times the content, with no scalar type between.
A value put on a larger chart by ``on_chart`` is ``f o pi`` for its
source ``f`` and the projection ``pi``, and records ``f``: its derivative
is ``(df/dx) o pi`` in a source variable ``x`` and 0 in a new one, so no
quotient rule runs on the larger chart.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from operator import mul

from .numfield import MetallicParams, QuadScalar, rational_text, squarefree_split
from .poly import FIELD, MASK, poly_ring, product


class ExprError(ValueError):
    pass


class DivisionByZeroExpr(ExprError):
    pass


class ResampleNeeded(RuntimeError):
    """Numeric evaluation hit a near-zero denominator; pick another point."""


# eval_numeric refuses a point where the denominator's magnitude is below this.
DEN_THRESHOLD = 1e-8


class CoeffField:
    """The coefficient field Q(sqrt(d)) of a chart: its squarefree radicand
    ``d`` (0 for plain QQ) and the rewrite ``s^2 -> d``."""

    def __init__(self, d: int):
        self.d = 0 if d in (0, 1) else d

    def fold(self, p):
        """p with every s^k rewritten to d^(k//2) * s^(k%2); s is the
        lowest field of a packed monomial."""
        high = [m for m in p.packed if (m & MASK) > 1] if self.d else ()
        if not high:
            return p
        out = p.packed.copy()
        for m in high:
            e = m & MASK
            c = out.pop(m) * self.d ** (e // 2)
            low = m - e + e % 2
            c += out.get(low, 0)
            if c:
                out[low] = c
            else:
                out.pop(low, None)
        return p.new(out)

    def __repr__(self):
        return f"CoeffField(sqrt({self.d}))" if self.d else "CoeffField(QQ)"


class Chart:
    """An ordered tuple of coordinate names over one coefficient field,
    Q(sqrt(radicand)); the only atlas we support.  Every value on a chart
    has its coefficients in the chart's field.  The chart makes each of its
    constants and variables once and keeps them in a dict of its own."""

    __slots__ = ("variables", "field", "_hash", "_values", "__weakref__")

    def __init__(self, variables, radicand: int = 0):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("chart variable names must be distinct")
        if not variables:
            raise ValueError("chart needs at least one variable")
        field = CoeffField(squarefree_split(radicand)[1])
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_hash", hash((variables, field.d)))
        object.__setattr__(self, "_values", {})  # by name, or by integer parts

    def __setattr__(self, *args):
        raise AttributeError("Chart is immutable")

    def __eq__(self, other):
        return self is other or (isinstance(other, Chart) and self.variables == other.variables
                                 and self.field.d == other.field.d)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Chart({self.variables}, radicand={self.field.d})"

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ExprError(f"unknown chart variable {name!r}") from None

    def constant(self, a, b=0) -> RatFunc:
        """a + b*sqrt(d) for ints or Fractions a and b, d the radicand, kept
        under its integers: an integer is its own key, and a key of
        ``Fraction``s would hash several times slower."""
        if type(a) is int and type(b) is int and not b:  # most constants
            key = a
        elif isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            key = (a.numerator, a.denominator, b.numerator, b.denominator)
            key = key[0] if key[1:] == (1, 0, 1) else key
        else:
            raise TypeError(f"a constant has int or Fraction parts, not {a!r} and {b!r}")
        value = self._values.get(key)
        if value is None:
            a_num, a_den, b_num, b_den = (key, 1, 0, 1) if type(key) is int else key
            if b_num and not self.field.d:
                raise ExprError(f"a multiple of a square root on {self}")
            den = lcm(a_den, b_den)
            parts = {0: a_num * (den // a_den), 1: b_num * (den // b_den)}  # 1 and s
            ring = poly_ring(self.dimension + 1)
            k, num = _primitive(ring.dtype({m: c for m, c in parts.items() if c}))
            value = self._values[key] = RatFunc(self, _rat(k, den), num, ())
        return value

    def variable(self, name: str) -> RatFunc:
        value = self._values.get(name)
        if value is None:
            gen = poly_ring(self.dimension + 1).gens[self.index(name)]
            value = self._values[name] = RatFunc(self, 1, gen, ())
        return value


def _has_radical(p) -> bool:
    return any(m & MASK for m in p.packed)


def _split(p):
    """(A, B), both free of s, with p = A + s*B."""
    a, b = {}, {}
    for m, c in p.packed.items():
        e = m & MASK
        if e:
            b[m - e] = c
        else:
            a[m] = c
    return p.new(a), p.new(b)


def _primitive(p):
    """(k, p / k) for the integer k that makes the quotient primitive with a
    positive leading coefficient (the gcd of p's coefficients, signed like
    its leading coefficient), or (0, 0) for p == 0."""
    k = gcd(*p.values())
    if p.LC < 0:
        k = -k
    return k, (p if k in (0, 1) else p.quo_ground(k))


def _rat(n, d):
    """n / d as an int when it is one, else as a Fraction.  Contents are
    mostly integers, and int arithmetic is many times cheaper."""
    q = Fraction(n, d)
    return q.numerator if q.denominator == 1 else q


def _divide_out(num, base, max_exp: int):
    """Divide num by base as often as it divides exactly, at most max_exp
    times."""
    k = 0
    while k < max_exp:
        q = num.exact_quo(base)
        if q is None:
            break
        num, k = q, k + 1
    return num, k


def _fold(field: CoeffField, c, num):
    """(c', N) with c'*N == c*num and s^2 rewritten in N, c' an int when it
    is integral, as a product of two Fractions can be.  A product of
    primitive polynomials stays primitive unless rewritten: (1+s)(1-s) = 1-d."""
    folded = field.fold(num)
    if folded is not num:
        k, num = _primitive(folded)
        if k != 1:
            c *= k
    if type(c) is Fraction and c.denominator == 1:
        c = c.numerator
    return c, num


def _fkey(base):
    """Bases sort by the sum of their degrees in each generator, then by the
    terms of the monic base, leading term first; packed monomials order as
    their exponent tuples."""
    lc = base.LC
    return sum(base.degrees()), [(m, Fraction(c, lc))
                                 for m, c in sorted(base.packed.items(), reverse=True)]


class RatFunc:
    """Multivariate rational function on a chart, denominator kept factored."""

    __slots__ = ("chart", "c", "num", "factors", "_den", "_diffs", "_floats", "_source",
                 "__weakref__")

    def __init__(self, chart: Chart, c, num, factors):
        """c * num / prod(base**e for base, e in factors), taken as given:
        every operation passes its result in normal form, with num and each
        base primitive over ZZ with a positive leading coefficient, and c
        an int or a Fraction, 0 exactly when num is.  The coefficients are
        in the chart's field."""
        self.chart, self.num = chart, num
        self.c = c
        self.factors = factors if num.packed else ()
        self._den = None
        self._diffs = None
        self._floats = None
        self._source = None  # the value this one lifts, set by on_chart

    # -- denominator handling -----------------------------------------

    @property
    def den(self):
        """The expanded denominator polynomial (primitive with a positive
        leading coefficient, free of s)."""
        if self._den is None:
            powers = [base ** e for base, e in self.factors]
            self._den = reduce(mul, powers) if powers else self.num.ring.one
        return self._den

    @staticmethod
    def _reduce(num, factors: dict):
        if not num:
            return num, ()
        for base in list(factors):
            e = factors[base]
            if e <= 0:
                del factors[base]
                continue
            if not num.is_ground:
                num, k = _divide_out(num, base, e)
                if k == e:
                    del factors[base]
                elif k:
                    factors[base] = e - k
        if len(factors) < 2:
            return num, tuple(factors.items())
        return num, tuple(sorted(factors.items(), key=lambda kv: _fkey(kv[0])))

    # -- compatibility ------------------------------------------------

    def _check_chart(self, other: RatFunc):
        # The identity test first: ``!=`` would call Chart.__eq__ every time.
        if self.chart is not other.chart and self.chart != other.chart:
            raise ExprError(f"chart mismatch: {self.chart} vs {other.chart}")

    @staticmethod
    def _coerce(chart, x):
        if isinstance(x, RatFunc):
            return x
        return chart.constant(x) if isinstance(x, (int, Fraction)) else None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(self.chart, other)
        if other is None:
            return NotImplemented
        self._check_chart(other)
        if not self.num:
            return other
        if not other.num:
            return self
        return _common_sum(self.chart, [(self.c, (self.num,), dict(self.factors)),
                                        (other.c, (other.num,), dict(other.factors))])

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.chart, -self.c, self.num, self.factors)

    def __sub__(self, other):
        other = self._coerce(self.chart, other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(self.chart, other)
        return NotImplemented if other is None else (-self) + other

    def __mul__(self, other):
        other = self._coerce(self.chart, other)
        if other is None:
            return NotImplemented
        self._check_chart(other)
        if not self.num or not other.num:
            return self.chart.constant(0)
        c = other.c if self.c == 1 else self.c if other.c == 1 else self.c * other.c
        if self.is_constant() or other.is_constant():
            # k*(A + s*B), k = a + b*s != 0, keeps the other operand's bases
            # untried: an s-free primitive base dividing both parts of the
            # product would divide (a^2 - d*b^2)*A and (a^2 - d*b^2)*B, so A
            # and B, and no base divides a numerator.
            c, num = _fold(self.chart.field, c, self.num * other.num)
            return RatFunc(self.chart, c, num, self.factors or other.factors)
        merged = dict(self.factors)
        for base, e in other.factors:
            merged[base] = merged.get(base, 0) + e
        c, num = _fold(self.chart.field, c, self.num * other.num)
        num, factors = self._reduce(num, merged)
        return RatFunc(self.chart, c, num, factors)

    __rmul__ = __mul__

    def reciprocal(self) -> RatFunc:
        if not self.num:
            raise DivisionByZeroExpr("division by the zero expression")
        num, c, d = self.den, _rat(1, self.c), self.chart.field.d
        if d and _has_radical(self.num):
            # 1/(g*(A + s*B)) = (A - s*B) / (g * (A^2 - d*B^2)), g = gcd(A, B).
            a, b = _split(self.num)
            g = _primitive(a.gcd(b) if a else b)[1]
            if not g.is_ground:
                a, b = a.exact_quo(g), b.exact_quo(g)
            k, norm = _primitive(a * a - b * b * d)
            sign, num = _primitive(num * (a - b * self.num.ring.gens[-1]))
            c = _rat(c, k * sign)
            # A numerator made by rationalising an earlier denominator has
            # that denominator's norm as a factor of its own norm: split it
            # off, so it cancels against this denominator.
            factors = {}
            for base, _ in self.factors:
                norm, k = _divide_out(norm, base, sum(norm.degrees()))
                if k:
                    factors[base] = k
            for base in (g, norm):
                if not base.is_ground:
                    factors[base] = factors.get(base, 0) + 1
            num, factors = self._reduce(num, factors)
            return RatFunc(self.chart, c, num, factors)
        # Otherwise the numerator is free of s and is the base as it stands;
        # it may divide the old denominator, as x*y divides (x*z)*(y*w).
        if self.num.is_ground:
            return RatFunc(self.chart, c, num, ())
        num, factors = self._reduce(num, {self.num: 1})
        return RatFunc(self.chart, c, num, factors)

    def __truediv__(self, other):
        other = self._coerce(self.chart, other)
        if other is None:
            return NotImplemented
        self._check_chart(other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(self.chart, other)
        return NotImplemented if other is None else other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return self.chart.constant(1)
        if n == 1:
            return self
        c, num = _fold(self.chart.field, self.c ** n, self.num ** n)
        # A base need not be squarefree: x^2 + 2*x*y + y^2 does not divide
        # x + y but divides its square.
        num, factors = self._reduce(num, {b: e * n for b, e in self.factors})
        return RatFunc(self.chart, c, num, factors)

    @staticmethod
    def sum_of_products(xs, ys) -> RatFunc:
        """sum_k xs[k] * ys[k] over two sequences of one length, over one
        common denominator.  A product with a zero factor is skipped
        unmultiplied.  Each other product is its two numerators, its
        contents multiplied and its factor multisets merged, and
        ``_common_sum`` adds them and reduces the sum once.  One such
        product is ``x * y``; with none the sum is 0 on ``xs[0]``'s chart."""
        # A dict's truth test: is_zero and Poly.__bool__ are calls.
        pairs = [(x, y) for x, y in zip(xs, ys) if x.num.packed and y.num.packed]
        if len(pairs) < 2:
            return pairs[0][0] * pairs[0][1] if pairs else xs[0].chart.constant(0)
        first, terms = pairs[0][0], []
        for x, y in pairs:
            first._check_chart(x)
            x._check_chart(y)
            factors = dict(x.factors)
            for base, e in y.factors:
                factors[base] = factors.get(base, 0) + e
            c = y.c if x.c == 1 else x.c if y.c == 1 else x.c * y.c
            terms.append((c, (x.num, y.num), factors))
        return _common_sum(first.chart, terms)

    # -- predicates & equality ----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num.packed

    def is_constant(self) -> bool:
        # Constant: every term is 1 or s, i.e. has no chart exponent.
        return not self.factors and max(self.num.packed, default=0) <= MASK

    def constant_value(self) -> QuadScalar:
        if not self.is_constant():
            raise ExprError("not a constant expression")
        parts = [0, 0]
        for m, c in self.num.packed.items():  # m is s's exponent
            parts[m] = c
        a, b = Fraction(self.c * parts[0]), Fraction(self.c * parts[1])
        return QuadScalar(a, b, self.chart.field.d if b else 0)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            other = self._coerce(self.chart, other)
            if other is None:
                return NotImplemented
        self._check_chart(other)
        # The primitive form with a positive leading coefficient is unique,
        # so the contents must agree and the integer parts cross-multiply.
        if self.c != other.c:
            return False
        if self.factors == other.factors:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equal values may carry different factorizations

    def reduced(self) -> RatFunc:
        """Fully gcd-reduced canonical form (numerator and denominator
        coprime, denominator expanded, primitive and free of s)."""
        num, den = self.num, self.den
        if num and not den.is_ground:
            g = _primitive(num.gcd(den))[1]
            num, den = num.exact_quo(g), den.exact_quo(g)
        return RatFunc(self.chart, self.c, num, () if den.is_ground else ((den, 1),))

    # -- calculus -----------------------------------------------------

    def diff(self, var: str) -> RatFunc:
        """The derivative by ``var``, over the factored denominator:

            d(N / prod F^e) = (N' * Q - N * sum_F e*F' * Q/F) / (prod F^e * Q)

        with Q the product of the bases F that depend on ``var``; the
        others keep their exponent, and no denominator is expanded.  The
        terms are summed by ``_common_sum`` and reduced once.  Each result
        is cached on the value.

        A value made by ``on_chart`` is ``f o pi`` for its source ``f``, and
        ``d(f o pi)/dvar`` is ``(df/dvar) o pi`` for a variable of f's chart
        and 0 for a new one, with no quotient rule run here.  Lifting keeps
        the order of the packed monomials, so that is the value the rule
        would give, term for term and factor for factor."""
        if self._diffs is None:
            self._diffs = {}
        cached = self._diffs.get(var)
        if cached is not None:
            return cached
        i = self.chart.index(var)
        source = self._source
        if source is not None:
            out = (source.diff(var).on_chart(self.chart) if i < source.chart.dimension
                   else self.chart.constant(0))
            self._diffs[var] = out
            return out
        # c*N' over the bases as they are, and -e*c*F'*N over them with F
        # raised once more: the common denominator is prod F^e * Q, and
        # each term's cofactor is the part of Q it lacks.
        own = dict(self.factors)
        d_num = self.num.diff(i)
        terms = [(self.c, (d_num,), own)] if d_num else []
        for base, e in self.factors:
            d_base = base.diff(i)
            if d_base:
                terms.append((-e * self.c, (d_base, self.num), {**own, base: e + 1}))
        out = _common_sum(self.chart, terms) if terms else self.chart.constant(0)
        self._diffs[var] = out
        return out

    def substitute(self, bindings: dict[str, "RatFunc"]) -> RatFunc:
        """Simultaneous substitution onto the bindings' chart, to which
        unbound variables pass through.  The numerator and each denominator
        factor are mapped on their own, so a factor (B, e) comes back as
        (B', e) for the image B' of B."""
        charts = {b.chart for b in bindings.values()}
        if len(charts) != 1:
            raise ExprError("all bindings must live on one chart")
        target = charts.pop()
        for name in bindings:
            self.chart.index(name)

        def image(name: str) -> RatFunc:
            if name in bindings:
                return bindings[name]
            return target.variable(name)

        imgs = [image(n) for n in self.chart.variables]
        d = self.chart.field.d
        out = _poly_at(self.num, self.c, imgs, target, d)
        for base, e in self.factors:
            img = _poly_at(base, 1, imgs, target, d)
            if img.is_zero:
                raise DivisionByZeroExpr("denominator vanishes identically after substitution")
            out = out * img.reciprocal() ** e
        return out

    def on_chart(self, target: Chart) -> RatFunc:
        """The same function on a chart over the same field whose variables
        begin with this chart's: each monomial gains zero fields for the new
        variables, before the field of s.  Factors, exponents and their
        order are kept, so no arithmetic is done.  Read on the target, the
        value is ``f o pi`` for this value ``f`` and the projection ``pi`` onto
        this chart's variables; it records ``f``, from which ``diff`` takes
        its derivatives."""
        n = self.chart.dimension
        if (target.variables[:n] != self.chart.variables
                or target.field.d != self.chart.field.d):
            raise ExprError(f"{target} does not extend {self.chart}")
        if not self.num:  # fiber sums lift every zero f_a: without this path a
            # complete_lift_metallic check took 4.6% longer than when fiber_sum
            # skipped zeros itself, with it 0.7% less
            return target.constant(0)
        ring = poly_ring(target.dimension + 1)
        pad = FIELD * (target.dimension - n)

        def lift(p):
            return ring.dtype({((m - (e := m & MASK)) << pad) + e: c
                               for m, c in p.packed.items()})

        out = RatFunc(target, self.c, lift(self.num),
                      tuple((lift(base), e) for base, e in self.factors))
        out._source = self
        return out

    # -- numeric ------------------------------------------------------

    def eval_numeric(self, point: Sequence[float]) -> float:
        """The value at a point, given as one float per chart variable in
        chart order, from the numerator over QQ and the monic denominator
        bases; their float coefficients are worked out once per value."""
        if len(point) != self.chart.dimension:
            raise ValueError(f"a point on {self.chart} has {self.chart.dimension} "
                             f"coordinates, not {len(point)}")
        if self._floats is None:
            r = self.chart.field.d ** 0.5
            self._floats = (_float_table(self.num, Fraction(self.c, self.den.LC), r),
                            [(_float_table(base, Fraction(1, base.LC), r), e)
                             for base, e in self.factors])
        num_table, den_tables = self._floats
        nv = _table_value(num_table, point)
        dv = 1.0
        for table, e in den_tables:
            dv *= _table_value(table, point) ** e
        if abs(dv) < DEN_THRESHOLD:
            raise ResampleNeeded(f"denominator ~ {dv}")
        return nv / dv

    # -- rendering ----------------------------------------------------

    def to_text(self, params: MetallicParams | None = None) -> str:
        """The numerator over QQ divided by the monic expanded denominator."""
        names, d = self.chart.variables, self.chart.field.d
        lc = self.den.LC
        num = _poly_text(self.num, Fraction(self.c, lc), d, params, names)
        if not self.factors:
            return num
        den = _poly_text(self.den, Fraction(1, lc), d, params, names)
        return f"({num})/({den})"

    def __repr__(self):
        return f"RatFunc({self.to_text()})"


def _common_sum(chart: Chart, terms) -> RatFunc:
    """The sum of terms ``(c, polys, factors)``, each the content c times
    the product of the nonzero polys over prod(base**e for base, e in
    factors.items()), in normal form.  The common denominator takes each
    base to its largest exponent over the terms, and the contents are
    brought to the lcm of their denominators by integer multipliers whose
    gcd is divided out first.  Each term's polys, cofactor bases and
    multiplier are multiplied smallest first and accumulated into one
    numerator.  Then s^2 is folded, the content taken and the bases
    trial-divided once, on the sum.  ``__add__`` is the case of two terms
    of one poly each."""
    new = terms[0][1][0].new  # a polynomial of the chart's ring
    merged: dict = {}
    for _, _, factors in terms:
        for base, e in factors.items():
            if merged.get(base, 0) < e:
                merged[base] = e
    den = lcm(*[c.denominator for c, _, _ in terms])
    mults = [c.numerator * (den // c.denominator) for c, _, _ in terms]
    g = gcd(*mults)
    out, dense = None, False
    for (_, polys, factors), m in zip(terms, mults):
        m //= g
        if factors != merged:
            polys = [*polys, *[base ** (e - factors.get(base, 0)) for base, e in merged.items()
                               if factors.get(base, 0) < e]]
        if len(polys) == 1:
            p = polys[0].packed
            if out is None:
                out = p.copy() if m == 1 else {mono: c * m for mono, c in p.items()}
                continue
            get = out.get
            for mono, c in p.items():
                c = get(mono, 0) + c * m
                if c:
                    out[mono] = c
                else:
                    del out[mono]
            continue
        *rest, last = sorted(polys, key=len)
        p = rest[0] if m == 1 else rest[0].mul_ground(m)
        for q in rest[1:]:
            p = p * q
        if out is None:
            out = {}
        product(p.packed, last.packed, out)  # accumulates, zeros kept
        dense = True
    if dense:
        for mono in [mono for mono, c in out.items() if not c]:
            del out[mono]
    k, num = _primitive(chart.field.fold(new(out)))
    num, factors = RatFunc._reduce(num, merged)
    return RatFunc(chart, g * k if den == 1 else _rat(g * k, den), num, factors)


def _coeff_pairs(p) -> list:
    """(chart monomial, [a, b]) for each chart monomial of p, whose
    coefficient is a + b*sqrt(d), in the ring's descending term order; a
    chart monomial is an exponent tuple."""
    pairs: dict = {}
    for m, c in sorted(p.packed.items(), reverse=True):
        pairs.setdefault(m >> FIELD, [0, 0])[m & MASK] = c
    unpack = p.ring.unpack
    return [(unpack(m << FIELD)[:-1], ab) for m, ab in pairs.items()]


def _poly_at(p, scale, images: list[RatFunc], target: Chart, d: int) -> RatFunc:
    """scale * p over Q(sqrt(d)) with images[i] put for the i-th chart
    variable, on ``target``, which must be over Q(sqrt(d)) if p has an s
    term."""
    if d != target.field.d and _has_radical(p):
        raise ExprError(f"sqrt({d}) on {target}")
    out = target.constant(0)
    for mono, (a, b) in _coeff_pairs(p):
        term = target.constant(scale * a, scale * b)
        for img, e in zip(images, mono):
            if e:
                term = term * img ** e
        out = out + term
    return out


def _float_table(p, scale: Fraction, radical_value: float):
    """(chart monomial, float coefficient) for each chart monomial of
    scale * p."""
    return [(mono, float(scale * a) + float(scale * b) * radical_value)
            for mono, (a, b) in _coeff_pairs(p)]


def _table_value(table, vals: Sequence[float]) -> float:
    total = 0.0
    for mono, t in table:
        for v, e in zip(vals, mono):
            if e:
                t *= v ** e
        total += t
    return total


def _quad_text(a, b, d: int, root) -> str:
    """Render the coefficient a + b*sqrt(d), a and b rational, inside the
    expression grammar, whose radical is params' sqrtD = root*sqrt(d); with
    no root (0) the radical reads sqrt(d)."""
    if not b:
        return rational_text(a)
    name, scale = ("sqrtD", Fraction(b, root)) if root else (f"sqrt({d})", b)
    rad = (name if scale == 1 else f"-{name}" if scale == -1
           else f"{rational_text(scale)}*{name}")
    if not a:
        return rad
    sign = "-" if rad.startswith("-") else "+"
    return f"({rational_text(a)} {sign} {rad.lstrip('-')})"


def _poly_text(p, scale: Fraction, d: int, params: MetallicParams | None,
               names: tuple[str, ...]) -> str:
    """scale * p over Q(sqrt(d)), its terms' chart monomials descending,
    each coefficient printed from the integer pair of p and scale."""
    pairs = _coeff_pairs(p)
    if not pairs:
        return "0"
    root = params.sqrtD.b if params is not None and params.radicand == d else 0
    if scale.denominator == 1:  # int products print the same, several times faster
        scale = scale.numerator
    parts = []
    for mono, (a, b) in pairs:
        factors = [f"{n}^{e}" if e > 1 else n for n, e in zip(names, mono) if e]
        a, b = scale * a, scale * b
        neg = not b and a < 0
        if neg:
            a = -a
        if not factors or b or a != 1:
            factors.insert(0, _quad_text(a, b, d, root))
        text = "*".join(factors)
        if text.startswith("-"):
            neg, text = not neg, text[1:]
        if not parts:
            parts.append(f"-{text}" if neg else text)
        else:
            parts.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Parser for the expression grammar:
#
#   expr    = term (("+" | "-") term)*
#   term    = unary (("*" | "/") unary)*
#   unary   = ("+" | "-") unary | power
#   power   = atom ("^" INTEGER)?
#   atom    = INTEGER | IDENT | "(" expr ")"
#
# IDENT is a chart variable or one of PARAM_NAMES.  INTEGER is [0-9]+, and
# an integer argument outside an expression is [+-]?[0-9]+ (parse_integer).
# ---------------------------------------------------------------------------

PARAM_NAMES = ("alpha", "beta", "sigma", "sqrtD")
# Parentheses and prefix signs nest at most this deep, which keeps the
# recursive-descent parser well inside the interpreter's recursion limit.
MAX_NESTING = 100
# Every value the parser builds has a numerator and an expanded denominator
# of total degree at most MAX_DEGREE, each with at most MAX_TERMS terms, and
# no exponent exceeds MAX_DEGREE.  Sums, products, quotients and powers are
# refused from their operands' sizes, by the most terms the result can
# have, before they are expanded: expanding is where the time goes.  The
# square of (x+y+1)^60 (1891 terms) takes 1891^2 products of large
# coefficients.
MAX_DEGREE = 2000
MAX_TERMS = 1000


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_CHARS = set("+-*/^()")
_DIGITS = set("0123456789")  # str.isdigit() also takes "²", which int() refuses


def _excerpt(text: str) -> str:
    """text quoted for an error message, cut after 60 characters and then
    followed by its length."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}... ({len(text)} characters)"


def parse_integer(text: str) -> int:
    """``text`` read by the rule [+-]?[0-9]+, else ValueError; int() alone
    also takes other scripts' digits, underscores and spaces."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or not _DIGITS.issuperset(digits):
        raise ValueError(f"{_excerpt(text)} is not an integer")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError(f"{_excerpt(text)} has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def _integer(text: str, at: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"integer literal of {len(text)} digits exceeds the limit "
                         f"{sys.get_int_max_str_digits()}", at) from None


def _degree(p) -> int:
    """Total degree of p in the chart coordinates: the sum of a packed
    monomial's chart fields, read by casting out 2^FIELD - 1, as 2^FIELD is 1
    modulo it; a total degree fits in one field (see ``poly``)."""
    return max([(m >> FIELD) % MASK for m in p.packed], default=0)


def _tokenize(text: str):
    tokens, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Chart, params: MetallicParams | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.chart = chart
        self.params = params

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> RatFunc:
        out = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return out

    def check(self, at: int, degree: int, terms: int):
        """Refuse a polynomial of this total degree with up to ``terms``
        terms; none has more terms than there are chart monomials of its
        degree (twice that with sqrt(d))."""
        k = self.chart.dimension
        terms = min(terms, comb(degree + k, k) * (2 if self.chart.field.d else 1))
        if degree > MAX_DEGREE or terms > MAX_TERMS:
            raise ParseError(f"expression too large: degree {degree} with up to {terms} "
                             f"terms (limits {MAX_DEGREE} and {MAX_TERMS})", at)

    def products(self, at: int, *pairs):
        """Check, before it is expanded, the product p*q of each pair."""
        for p, q in pairs:
            self.check(at, _degree(p) + _degree(q), len(p) * len(q))

    def fits(self, at: int, value: RatFunc) -> RatFunc:
        """Check a value once it is built."""
        for p in (value.num, value.den):
            self.check(at, _degree(p), len(p))
        return value

    def expr(self) -> RatFunc:
        out = self.term()
        while self.peek()[0] in "+-":
            op, _, at = self.take()
            rhs = self.term()
            if out.factors != rhs.factors:
                # Each numerator is multiplied by part of the other denominator.
                self.products(at, (out.num, rhs.den), (rhs.num, out.den), (out.den, rhs.den))
            out = self.fits(at, out + rhs if op == "+" else out - rhs)
        return out

    def term(self) -> RatFunc:
        out = self.unary()
        while self.peek()[0] in "*/":
            op, _, at = self.take()
            rhs = self.unary()
            if op == "/":
                if rhs.is_zero:
                    raise ParseError("division by the zero expression", at)
                if _has_radical(rhs.num):  # the reciprocal multiplies out its norm
                    self.products(at, (rhs.num, rhs.num))
                rhs = self.fits(at, rhs.reciprocal())
            self.products(at, (out.num, rhs.num), (out.den, rhs.den))
            out = self.fits(at, out * rhs)
        return out

    def unary(self) -> RatFunc:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels",
                             self.peek()[2])
        if self.peek()[0] in "+-":
            op = self.take()[0]
            val = self.unary()
            out = val if op == "+" else -val
        else:
            out = self.power()
        self.depth -= 1
        return out

    def power(self) -> RatFunc:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            neg = False
            if self.peek()[0] == "-":
                self.take()
                neg = True
            tok = self.take("int")
            if neg:
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            n = _integer(tok[1], tok[2])
            if n > MAX_DEGREE:
                raise ParseError(f"exponent {n} exceeds the limit {MAX_DEGREE}", tok[2])
            for p in (base.num, base.den):
                # p^n has at most one term per multiset of n terms of p.
                self.check(tok[2], n * _degree(p), comb(max(len(p), 1) + n - 1, n))
            base = base ** n
        return base

    def atom(self) -> RatFunc:
        kind, text, at = self.peek()
        if kind == "int":
            self.take()
            return self.chart.constant(_integer(text, at))
        if kind == "ident":
            self.take()
            return self.resolve(text, at)
        if kind == "(":
            self.take()
            out = self.expr()
            self.take(")")
            return out
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", at)

    def resolve(self, name: str, at: int) -> RatFunc:
        if name in self.chart.variables:
            return self.chart.variable(name)
        p = self.params
        if p is not None and name in PARAM_NAMES:
            # each parameter is a + b*sqrtD: sigma = alpha/2 + sqrtD/2
            a, b = {"alpha": (p.alpha, 0), "beta": (p.beta, 0), "sqrtD": (0, 1),
                    "sigma": (Fraction(p.alpha, 2), Fraction(1, 2))}[name]
            return p.constant(self.chart, a, b)
        raise ParseError(f"unknown identifier {name!r}", at)


def parse_expr(text: str, chart: Chart, params: MetallicParams | None = None) -> RatFunc:
    """``text`` as a value on ``chart``; ``params``, if given, must be over
    the chart's field, as the parameters are constants on it."""
    if params is not None and params.radicand != chart.field.d:
        raise ExprError(f"params of radicand {params.radicand} on {chart}")
    return _Parser(text, chart, params).parse()
