"""Exact arithmetic in the quadratic field Q(sqrt(d)).

A ``QuadScalar`` is an element ``a + b*sqrt(d)`` with exact rational parts
and its own squarefree radicand ``d``; ``d == 0`` marks a pure rational.  It
is the chart-free scalar: the constants of ``MetallicParams`` and the
scalar residuals of the checks.  A value on a chart keeps its coefficients
as integers over the chart's field instead (``symexpr``), and a
``QuadScalar`` enters a chart as a constant of that field.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt


class IncompatibleRadicands(ValueError):
    """Two operands live in different quadratic fields."""


@lru_cache(maxsize=None)
def squarefree_split(n: int) -> tuple[int, int]:
    """Return (k, d) with n = k**2 * d and d squarefree.

    Trial division by 2 and the odd numbers p with p**3 <= m, m what is left
    of n, leaves an m with no prime factor up to cbrt(m): 1, a prime, a
    product of two distinct primes, or a prime squared, which isqrt tells
    apart.  That is at most about cbrt(n)/2 divisions."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 0
    k, d, m, p = 1, 1, n, 2
    while p * p * p <= m:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        k *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        return k * r, d
    return k, d * m


def rational_text(q: Fraction) -> str:
    """str(q), also for a part with more digits than str() converts at once
    (sys.get_int_max_str_digits(), kept: it bounds what the parser reads)."""
    num = _int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_text(q.denominator)}"


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the limit: print in chunks below it
        width = sys.get_int_max_str_digits() - 1
    step, rest, chunks = 10 ** width, abs(n), []
    while rest >= step:
        rest, low = divmod(rest, step)
        chunks.append(str(low).zfill(width))
    return ("-" if n < 0 else "") + str(rest) + "".join(reversed(chunks))


def _normalize(a: Fraction, b: Fraction, d: int) -> tuple[Fraction, Fraction, int]:
    if d < 0:
        raise ValueError("negative radicand")
    k, d0 = squarefree_split(d)
    if d0 == 1:
        # sqrt(d) is the integer k: collapse to a rational.
        a, b, d = a + b * k, Fraction(0), 0
    else:
        b, d = b * k, d0
    if b == 0:
        d = 0
    return a, b, d


@dataclass(frozen=True)
class QuadScalar:
    """a + b*sqrt(d), d squarefree; immutable and hashable."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 0

    def __post_init__(self):
        a, b, d = _normalize(Fraction(self.a), Fraction(self.b), self.d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def rational(cls, p, q=1) -> QuadScalar:
        return cls(Fraction(p, q))

    @classmethod
    def root(cls, n: int) -> QuadScalar:
        """The exact square root of a nonnegative integer n."""
        return cls(Fraction(0), Fraction(1), n)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _join(self, other: QuadScalar) -> int:
        if self.d == other.d:
            return self.d
        if self.d == 0:
            return other.d
        if other.d == 0:
            return self.d
        raise IncompatibleRadicands(f"sqrt({self.d}) vs sqrt({other.d})")

    @staticmethod
    def _coerce(x) -> QuadScalar:
        if isinstance(x, QuadScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadScalar(Fraction(x))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return QuadScalar(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return QuadScalar(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadScalar:
        # (a + b*sqrt(d))^-1 = (a - b*sqrt(d)) / (a^2 - b^2 d); the norm
        # vanishes only at zero since d is squarefree and > 1.
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("inverse of zero quadratic scalar")
        return QuadScalar(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._join(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def to_float(self) -> float:
        return float(self.a) + float(self.b) * self.d ** 0.5

    def __str__(self):
        if self.b == 0:
            return rational_text(self.a)
        if self.a == 0:
            return f"{rational_text(self.b)}*sqrt({self.d})"
        sign, b = ("-", -self.b) if self.b < 0 else ("+", self.b)
        return f"{rational_text(self.a)} {sign} {rational_text(b)}*sqrt({self.d})"


@dataclass(frozen=True)
class MetallicParams:
    """The pair (alpha, beta) with its derived exact constants."""

    alpha: int
    beta: int
    discriminant: int
    sigma: QuadScalar
    sqrtD: QuadScalar

    @property
    def radicand(self) -> int:
        return self.sqrtD.d

    def conjugate_root(self) -> QuadScalar:
        """alpha - sigma, the negative root of x^2 - alpha*x - beta."""
        return QuadScalar.rational(self.alpha) - self.sigma


# Largest discriminant D = alpha^2 + 4*beta accepted.  sqrt(D) is brought to
# its squarefree part by trial division up to cbrt(D), at most about 5000
# divisions here (squarefree_split).  The limit bounds that cost and the size
# of every coefficient built from sqrt(D).
MAX_DISCRIMINANT = 10 ** 12


def make_params(alpha: int, beta: int) -> MetallicParams:
    if not (isinstance(alpha, int) and isinstance(beta, int)):
        raise TypeError("alpha, beta must be integers")
    if alpha < 1 or beta < 1:
        raise ValueError("alpha, beta must be positive")
    disc = alpha * alpha + 4 * beta
    if disc > MAX_DISCRIMINANT:
        raise ValueError(f"discriminant alpha^2 + 4*beta = {disc} exceeds "
                         f"the limit {MAX_DISCRIMINANT}")
    sqrt_d = QuadScalar.root(disc)
    sigma = (QuadScalar.rational(alpha) + sqrt_d) / 2
    params = MetallicParams(alpha, beta, disc, sigma, sqrt_d)
    assert sigma * sigma == alpha * sigma + QuadScalar.rational(beta)
    assert sqrt_d * sqrt_d == QuadScalar.rational(disc)
    return params
