"""Sparse multivariate polynomials with integer coefficients.

A polynomial in ``ZZ[x_0, ..., x_{n-1}]`` is a ``dict`` from exponent
tuples of length ``n`` to nonzero ints; the zero polynomial is the empty
dict.  Each arity has its ring (``poly_ring(n)``) and its element type, a
subclass of ``Poly`` whose product and monomial product are generated once,
unrolled over the ``n`` exponents.  Values are treated as immutable once
built: every operation returns a new polynomial, so a hash, once taken, is
kept.  Terms order lexicographically on their exponent tuples, and
``terms()`` lists them from the leading one down.

Each ring also fixes a point, one prime per generator, where every
polynomial caches its value: ``exact_quo`` refuses a trial division whose
values there do not divide, without dividing (Gauss's lemma; see there).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as igcd, isqrt

# Evaluation points the heuristic gcd tries before the remainder sequence.
HEU_GCD_TRIES = 6
# The powers of each coordinate of a ring's point kept in its tables; a
# polynomial with a larger exponent has no value there.
POWER_TABLE = 32


class Poly(dict):
    """A polynomial of ``ring``: ``{exponent tuple: nonzero int}``."""

    __slots__ = ("_hash", "_value")
    ring: PolyRing

    def new(self, terms) -> Poly:
        return self.__class__(terms)

    def copy(self) -> Poly:
        return self.__class__(self)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.items()))
            return self._hash

    @property
    def value(self) -> int | None:
        """self at the ring's point, or None when an exponent runs past the
        ring's power tables."""
        try:
            return self._value
        except AttributeError:
            try:
                self._value = self.ring.evaluate(self)
            except IndexError:
                self._value = None
            return self._value

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        out = self.copy()
        get = out.get
        for m, c in other.items():
            c += get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.new({m: -c for m, c in self.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.mul_ground(other)
        out = self.__class__()
        if self and other:
            self.ring.product(self, other, out)
            for m in [m for m, c in out.items() if not c]:
                del out[m]
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n == 1:
            return self
        if len(self) == 1:
            (m, c), = self.items()
            return self.new({tuple(e * n for e in m): c ** n})
        out, base = self.ring.one, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def mul_ground(self, k: int) -> Poly:
        return self.new({m: c * k for m, c in self.items()} if k else {})

    def quo_ground(self, k: int) -> Poly:
        """The quotient by an integer that divides every coefficient."""
        return self.new({m: c // k for m, c in self.items()})

    def diff(self, i: int) -> Poly:
        """The derivative by the i-th generator."""
        return self.new({m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                         for m, c in self.items() if m[i]})

    def exact_quo(self, base: Poly) -> Poly | None:
        """self / base when base divides self exactly over ZZ, else None.

        A quotient is returned only when it has integer coefficients; for a
        primitive base every quotient in QQ[x] does (Gauss's lemma).  So if
        base divides self, base(p) divides self(p) at every integer point p,
        the ring's point included, and a base whose value there does not
        divide self's is refused without dividing.  The filter stands aside
        when base(p) is 0 and when base or self has an exponent past the
        power tables, so no big power is ever computed.  Otherwise, and when
        the values divide, the long division decides, and a quotient it
        finds keeps self(p) // base(p) as its value."""
        b = base.value
        v = self.value if b else None
        if v is None:
            return self._divide(base)
        if v % b:
            return None
        q = self._divide(base)
        if q is not None:
            q._value = v // b
        return q

    def _divide(self, base: Poly) -> Poly | None:
        """exact_quo by long division.  It gives up at the first leading term
        that base's leading term does not divide, in monomial or
        coefficient: such a remainder term can never cancel later."""
        mul, ldiv = self.ring.monomial_mul, self.ring.monomial_ldiv
        base_lm = max(base)
        base_lc = base[base_lm]
        rem, quo = dict(self), {}
        while rem:
            lm = max(rem)
            m = ldiv(lm, base_lm)
            if min(m) < 0:
                return None
            c, r = divmod(rem[lm], base_lc)
            if r:
                return None
            quo[m] = c
            for bm, bc in base.items():
                k = mul(bm, m)
                v = rem.get(k, 0) - bc * c
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        return self.new(quo)

    # -- inspection ---------------------------------------------------

    @property
    def LC(self) -> int:
        return self[max(self)] if self else 0

    @property
    def is_ground(self) -> bool:
        return not self or (len(self) == 1 and not any(next(iter(self))))

    def degrees(self) -> tuple:
        """The degree in each generator."""
        return tuple(map(max, zip(*self)))

    def terms(self) -> list:
        """(exponents, coefficient) pairs, leading term first."""
        return sorted(self.items(), reverse=True)

    def gcd(self, other: Poly) -> Poly:
        """The greatest common divisor, with a positive leading coefficient."""
        h = _gcd(self, other)
        return -h if h.LC < 0 else h


class PolyRing:
    """``ZZ[x_0, ..., x_{n-1}]``: its element type, the products of
    polynomials and of monomials, and the evaluation at its point, built
    once per arity."""

    def __init__(self, nvars: int):
        a = "".join(f"a{i}, " for i in range(nvars))
        b = "".join(f"b{i}, " for i in range(nvars))
        s = "".join(f"a{i} + b{i}, " for i in range(nvars))
        d = "".join(f"a{i} - b{i}, " for i in range(nvars))
        t = "".join(f"P{i}[a{i}] * " for i in range(nvars))
        source = (f"def monomial_mul(A, B):\n    ({a}) = A\n    ({b}) = B\n    return ({s})\n"
                  f"def monomial_ldiv(A, B):\n    ({a}) = A\n    ({b}) = B\n    return ({d})\n"
                  f"def product(p, q, out):\n    get = out.get\n    q = list(q.items())\n"
                  f"    for ({a}), c in p.items():\n        for ({b}), d in q:\n"
                  f"            m = ({s})\n            out[m] = get(m, 0) + c * d\n"
                  f"def evaluate(p):\n    return sum([{t}c for ({a}), c in p.items()])\n")
        self.point = _primes(nvars)
        code: dict = {f"P{i}": [x ** e for e in range(POWER_TABLE)]
                      for i, x in enumerate(self.point)}
        exec(source, code)
        self.nvars = nvars
        self.monomial_mul = code["monomial_mul"]
        self.monomial_ldiv = code["monomial_ldiv"]  # exponents may come out negative
        self.product = code["product"]  # accumulates p*q into out, zeros kept
        self.evaluate = code["evaluate"]  # IndexError past the power tables
        self.dtype = type(f"Poly{nvars}", (Poly,), {"__slots__": (), "ring": self})
        self.one = self.dtype({(0,) * nvars: 1})
        self.gens = tuple(self.dtype({tuple(int(i == j) for j in range(nvars)): 1})
                          for i in range(nvars))

    def __call__(self, terms) -> Poly:
        return self.dtype(terms)


@lru_cache(maxsize=None)
def poly_ring(nvars: int) -> PolyRing:
    return PolyRing(nvars)


def _primes(n: int) -> tuple[int, ...]:
    """The first n primes from 11 on: a ring's point.  Bases such as x - 2
    vanish or take small values at smaller integers, and a small value
    divides a failing numerator's by chance more often."""
    out, k = [], 11
    while len(out) < n:
        if all(k % d for d in range(3, isqrt(k) + 1, 2)):
            out.append(k)
        k += 2
    return tuple(out)


# ---------------------------------------------------------------------------
# gcd: GCDHEU (Char, Geddes & Gonnet, 1989), each candidate verified by
# exact division, with a primitive remainder sequence as the fallback
# (Geddes, Czapor & Labahn, 1992, ch. 7).  Both work on one generator x_i
# at a time, with coefficients in the generators after it.
# ---------------------------------------------------------------------------

def _gcd(f: Poly, g: Poly, i: int = 0) -> Poly:
    """gcd(f, g) up to sign, for f and g free of x_0, ..., x_{i-1}."""
    if not f or not g:
        return f or g
    cf, cg = igcd(*f.values()), igcd(*g.values())
    f, g = f.quo_ground(cf), g.quo_ground(cg)
    if i == f.ring.nvars:
        h = f.ring.one
    elif _degree(f, i) == _degree(g, i) == 0:
        h = _gcd(f, g, i + 1)
    else:
        h = _heuristic_gcd(f, g, i) or _prs_gcd(f, g, i)
    return h.mul_ground(igcd(cf, cg))


def _degree(p: Poly, i: int) -> int:
    return max(m[i] for m in p)


def _coeff(p: Poly, i: int, k: int) -> Poly:
    """The coefficient of x_i^k in p."""
    return p.new({m[:i] + (0,) + m[i + 1:]: c for m, c in p.items() if m[i] == k})


def _heuristic_gcd(f: Poly, g: Poly, i: int) -> Poly | None:
    """gcd of the primitive f and g, or None if no evaluation point tried
    gave it.

    f and g are evaluated at x_i = xi, the gcd of the images is taken in
    the generators after x_i, and the candidate's coefficients of x_i^k are
    the k-th xi-adic digits, in (-xi/2, xi/2], of that gcd's coefficients.
    With xi > 2*min(|f|, |g|) + 1 (max norms), no common factor of f and g
    vanishes at x_i = xi nor has a root in x_i of modulus xi/2 or more
    (Cauchy's bound), so a primitive candidate that divides both is the
    gcd, not a proper divisor of it.  One of the images may be zero."""
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(HEU_GCD_TRIES):
        images = []
        for p in (f, g):
            image: dict = {}
            for m, c in p.items():
                k = m[:i] + (0,) + m[i + 1:]
                image[k] = image.get(k, 0) + c * xi ** m[i]
            images.append(p.new({m: c for m, c in image.items() if c}))
        rest, terms, k = dict(_gcd(*images, i + 1)), {}, 0
        while rest:
            carry = {}
            for m, c in rest.items():
                r = c % xi
                if r > xi // 2:
                    r -= xi
                if r:
                    terms[m[:i] + (k,) + m[i + 1:]] = r
                if c != r:
                    carry[m] = (c - r) // xi
            rest, k = carry, k + 1
        h = f.new(terms)
        h = h.quo_ground(igcd(*h.values()))
        if f.exact_quo(h) is not None and g.exact_quo(h) is not None:
            return h
        xi = xi * 73794 // 27011
    return None


def _primitive_in(p: Poly, i: int) -> tuple[Poly, Poly]:
    """(content, primitive part) of p as a polynomial in x_i."""
    coeffs = [_coeff(p, i, k) for k in {m[i] for m in p}]
    content = coeffs[0]
    for c in coeffs[1:]:
        content = _gcd(content, c, i + 1)
    return content, p.exact_quo(content)


def _prs_gcd(f: Poly, g: Poly, i: int) -> Poly:
    """gcd(f, g) up to sign, by the primitive remainder sequence in x_i."""
    (cf, f), (cg, g) = _primitive_in(f, i), _primitive_in(g, i)
    if _degree(f, i) < _degree(g, i):
        f, g = g, f
    x = f.ring.gens[i]
    while g:
        # r: f's pseudo-remainder by g, times a power of g's leading coefficient.
        dg = _degree(g, i)
        lead_g, r = _coeff(g, i, dg), f
        while r and _degree(r, i) >= dg:
            dr = _degree(r, i)
            r = r * lead_g - _coeff(r, i, dr) * g * x ** (dr - dg)
        f, g = g, (_primitive_in(r, i)[1] if r else r)
    return f * _gcd(cf, cg, i + 1)
