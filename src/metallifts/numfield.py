"""The metallic parameters and the exact read-out of a constant.

``make_params`` gives the pair (alpha, beta) its constants over the quadratic
field Q(sqrt(d)), d the squarefree part of D = alpha^2 + 4*beta, in closed
form: sqrtD = k*sqrt(d) and sigma = (alpha + k*sqrt(d))/2.  Each is a
``QuadScalar``, the record ``a + b*sqrt(d)`` with exact rational parts that
prints a constant and compares it; it has no arithmetic and never enters a
chart.  Values are computed on a chart (``symexpr``), which builds its
constants from rational parts: every constant of the pair is
``MetallicParams.constant(chart, a, b) = a + b*sqrtD``, and
``RatFunc.constant_value`` reads a constant back out as a ``QuadScalar``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt


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


@dataclass(frozen=True)
class QuadScalar:
    """The exact value a + b*sqrt(d) of a constant, read out for printing
    and comparison: a and b rational, d squarefree, and d == 0 exactly when
    b == 0.  It does no arithmetic: values are computed as constants on a
    chart (``symexpr``), and ``RatFunc.constant_value`` reads them out."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

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
    """The pair (alpha, beta) with its derived exact constants, sqrtD and
    the mean sigma, in closed form."""

    alpha: int
    beta: int
    discriminant: int
    sigma: QuadScalar
    sqrtD: QuadScalar

    @property
    def radicand(self) -> int:
        return self.sqrtD.d

    def constant(self, chart, a, b=0):
        """a + b*sqrtD on a ``symexpr.Chart`` over the params' field, for
        rationals a and b: the closed form of every constant of the pair,
        as sigma = alpha/2 + sqrtD/2 and 1/sqrtD = sqrtD/D."""
        if self.radicand:
            return chart.constant(a, b * self.sqrtD.b)
        return chart.constant(a + b * self.sqrtD.a)


# Largest discriminant D = alpha^2 + 4*beta accepted.  sqrt(D) is brought to
# its squarefree part by trial division up to cbrt(D), at most about 5000
# divisions here (squarefree_split).  The limit bounds that cost and the size
# of every coefficient built from sqrt(D).
MAX_DISCRIMINANT = 10 ** 12


def make_params(alpha: int, beta: int) -> MetallicParams:
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (alpha, beta)):
        raise TypeError("alpha, beta must be integers")
    if alpha < 1 or beta < 1:
        raise ValueError("alpha, beta must be positive")
    disc = alpha * alpha + 4 * beta
    if disc > MAX_DISCRIMINANT:
        raise ValueError(f"discriminant alpha^2 + 4*beta = {disc} exceeds "
                         f"the limit {MAX_DISCRIMINANT}")
    # D = k^2*d, d squarefree: sqrtD = k*sqrt(d) and sigma = a + b*sqrt(d)
    # with a = alpha/2 and b = k/2.  Part by part, sigma^2 - alpha*sigma - beta
    # has the sqrt(d) part 2*a*b - alpha*b = 0 and the rational part
    # (k^2*d - D)/4, which is (sqrtD^2 - D)/4: both identities hold exactly
    # when k^2*d == D, so the two asserts are one check.
    k, d = squarefree_split(disc)
    a, b = Fraction(alpha, 2), Fraction(k, 2)
    assert a * a + b * b * d == alpha * a + beta and 2 * a * b == alpha * b
    assert k * k * d == disc
    if d == 1:  # D is a square: every constant is rational
        return MetallicParams(alpha, beta, disc, QuadScalar(a + b), QuadScalar(Fraction(k)))
    return MetallicParams(alpha, beta, disc, QuadScalar(a, b, d),
                          QuadScalar(Fraction(0), Fraction(k), d))
