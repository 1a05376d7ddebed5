"""Sparse multivariate polynomials with integer coefficients.

A polynomial in ``ZZ[x_0, ..., x_{n-1}]`` keeps its terms in ``packed``, a
dict from packed monomials to nonzero ints.  The monomial with exponents
``e`` is the int ``sum(e_i << FIELD*(n-1-i))``, x_0 in the highest field
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  So integer order is the exponent
tuples' lex order, and the leading term is the largest key; a product of
monomials is a sum; and one monomial divides another exactly when their
difference has no guard bit (a field's top bit) set, as an underflowing
field borrows and comes out at 2^(FIELD-1) or more.  One ``product`` serves
every ring.  Exponent tuples stay the read-out: a polynomial reads as the
mapping ``{exponent tuple: coefficient}``, and ``terms()``, ``degrees()``
and ``ring(...)`` use tuples.

``ring(...)`` refuses an exponent at or past the guard bit, 2^31, with
ValueError, and so does a single-term power.  Products are not checked, as
no exponent the library makes gets near it: the parser refuses values of
degree past ``symexpr.MAX_DEGREE`` (2000), and an exponent made from them is
a sum of theirs, one per factor of a product, common denominator or
cofactor power, of which a check multiplies far fewer than the million that
2^31 would take.  So a sum of two exponents never spills into the next
field, and a term's total degree fits in one field.  A caller multiplying
polynomials of its own must keep every exponent of a product below 2^31.

Values are treated as immutable once built: every operation returns a new
polynomial, so a hash, once taken, is kept.  Each ring also fixes a point,
one prime per generator, where every polynomial caches its value:
``exact_quo`` refuses a trial division whose values there do not divide,
without dividing (Gauss's lemma; see there).
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from functools import lru_cache
from math import gcd as igcd, isqrt, prod

# Bits per exponent in a packed monomial.  The top one is the guard bit:
# GUARD is the least exponent a ring refuses.
FIELD = 32
GUARD = 1 << (FIELD - 1)
MASK = (1 << FIELD) - 1  # one field
# Evaluation points the heuristic gcd tries before the remainder sequence.
HEU_GCD_TRIES = 6
# The powers of each coordinate of a ring's point kept in its tables; a
# polynomial with a larger exponent has no value there.
POWER_TABLE = 32

_new_object = object.__new__


def product(p: dict, q: dict, out: dict) -> None:
    """Accumulate the product of the packed terms p and q into out, zero
    coefficients kept."""
    get = out.get
    q = list(q.items())
    for a, c in p.items():
        for b, d in q:
            m = a + b
            out[m] = get(m, 0) + c * d


class Poly(Mapping):
    """A polynomial of ``ring``: ``packed`` is ``{packed monomial: nonzero
    int}``, and the polynomial reads as the mapping ``{exponent tuple:
    coefficient}``."""

    __slots__ = ("packed", "_hash", "_value")
    ring: PolyRing

    def __init__(self, packed: dict):
        self.packed = packed

    def new(self, packed: dict) -> Poly:
        """A polynomial of the same ring; as ``__init__``, in one call."""
        p = _new_object(self.__class__)
        p.packed = packed
        return p

    # -- read-out -----------------------------------------------------

    def __iter__(self):
        return map(self.ring.unpack, self.packed)

    def __len__(self):
        return len(self.packed)

    def __getitem__(self, exponents):
        return self.packed[self.ring.pack(exponents)]

    def values(self):
        return self.packed.values()

    def __eq__(self, other):
        try:
            return self.packed == other.packed
        except AttributeError:
            return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.packed.items()))
            return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.terms())})"

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
        out = self.packed.copy()
        get = out.get
        for m, c in other.packed.items():
            c += get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return self.new(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.new({m: -c for m, c in self.packed.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.mul_ground(other)
        out: dict = {}
        if self.packed and other.packed:
            product(self.packed, other.packed, out)
            for m in [m for m, c in out.items() if not c]:
                del out[m]
        return self.new(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n == 1:
            return self
        if len(self.packed) == 1:
            (m, c), = self.packed.items()
            if m and max(self.ring.unpack(m)) * n >= GUARD:
                raise ValueError(f"a {n}-th power takes an exponent to 2^{FIELD - 1} or past")
            return self.new({m * n: c ** n})
        out, base = self.ring.one, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def mul_ground(self, k: int) -> Poly:
        return self.new({m: c * k for m, c in self.packed.items()} if k else {})

    def quo_ground(self, k: int) -> Poly:
        """The quotient by an integer that divides every coefficient."""
        return self.new({m: c // k for m, c in self.packed.items()})

    def diff(self, i: int) -> Poly:
        """The derivative by the i-th generator."""
        shift = self.ring.shifts[i]
        unit = 1 << shift
        return self.new({m - unit: c * e for m, c in self.packed.items()
                         if (e := m >> shift & MASK)})

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
        guard, base = self.ring.guard, base.packed
        base_lm = max(base)
        base_lc = base[base_lm]
        rem, quo = self.packed.copy(), {}
        while rem:
            lm = max(rem)
            m = lm - base_lm
            if m & guard:
                return None
            c, r = divmod(rem[lm], base_lc)
            if r:
                return None
            quo[m] = c
            for bm, bc in base.items():
                k = bm + m
                v = rem.get(k, 0) - bc * c
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        return self.new(quo)

    # -- inspection ---------------------------------------------------

    @property
    def LC(self) -> int:
        p = self.packed
        return p[max(p)] if p else 0

    @property
    def is_ground(self) -> bool:
        p = self.packed
        return not p or (len(p) == 1 and 0 in p)

    def degrees(self) -> tuple:
        """The degree in each generator."""
        return tuple(map(max, zip(*self)))

    def terms(self) -> list:
        """(exponents, coefficient) pairs, leading term first."""
        unpack = self.ring.unpack
        return [(unpack(m), c) for m, c in sorted(self.packed.items(), reverse=True)]

    def gcd(self, other: Poly) -> Poly:
        """The greatest common divisor, with a positive leading coefficient."""
        h = _gcd(self, other)
        return -h if h.LC < 0 else h


class PolyRing:
    """``ZZ[x_0, ..., x_{n-1}]``: its element type, the packing of its
    monomials and the evaluation at its point."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.shifts = tuple(FIELD * (nvars - 1 - i) for i in range(nvars))
        self.guard = sum(GUARD << s for s in self.shifts)  # every guard bit
        self._fields = struct.Struct(f">{nvars}I")
        self.point = _primes(nvars)
        self._powers = [[x ** e for e in range(POWER_TABLE)] for x in self.point]
        self._monomial_values: dict = {}
        self.dtype = type(f"Poly{nvars}", (Poly,), {"__slots__": (), "ring": self})
        self.one = self.dtype({0: 1})
        self.gens = tuple(self.dtype({1 << s: 1}) for s in self.shifts)

    def __call__(self, terms) -> Poly:
        """The polynomial of ``{exponent tuple: nonzero int}`` terms."""
        return self.dtype({self.pack(m): c for m, c in dict(terms).items()})

    def pack(self, exponents) -> int:
        """The packed monomial of an exponent tuple; ValueError unless it has
        nvars exponents, each in [0, GUARD)."""
        try:
            m = int.from_bytes(self._fields.pack(*exponents), "big")
        except struct.error:
            m = self.guard
        if m & self.guard:
            raise ValueError(f"{exponents!r} is not {self.nvars} exponents "
                             f"in [0, 2^{FIELD - 1})")
        return m

    def unpack(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        return self._fields.unpack(m.to_bytes(self._fields.size, "big"))

    def evaluate(self, p: Poly) -> int:
        """p at the ring's point; IndexError past the power tables.  Each
        monomial's value there is worked out once per ring."""
        values = self._monomial_values
        try:
            return sum([c * values[m] for m, c in p.packed.items()])
        except KeyError:
            for m in p.packed:
                if m not in values:
                    values[m] = prod(map(list.__getitem__, self._powers, self.unpack(m)))
            return sum([c * values[m] for m, c in p.packed.items()])


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
# at a time, with coefficients in the generators after it; the exponent of
# x_i in a packed monomial m is m >> shift & MASK, shift its field's.
# ---------------------------------------------------------------------------

def _gcd(f: Poly, g: Poly, i: int = 0) -> Poly:
    """gcd(f, g) up to sign, for f and g free of x_0, ..., x_{i-1}."""
    if not f or not g:
        return f or g
    cf, cg = igcd(*f.packed.values()), igcd(*g.packed.values())
    f, g = f.quo_ground(cf), g.quo_ground(cg)
    if i == f.ring.nvars:
        h = f.ring.one
    elif _degree(f, i) == _degree(g, i) == 0:
        h = _gcd(f, g, i + 1)
    else:
        h = _heuristic_gcd(f, g, i) or _prs_gcd(f, g, i)
    return h.mul_ground(igcd(cf, cg))


def _degree(p: Poly, i: int) -> int:
    shift = p.ring.shifts[i]
    return max(m >> shift & MASK for m in p.packed)


def _coeff(p: Poly, i: int, k: int) -> Poly:
    """The coefficient of x_i^k in p."""
    shift = p.ring.shifts[i]
    return p.new({m - (k << shift): c for m, c in p.packed.items()
                  if m >> shift & MASK == k})


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
    shift = f.ring.shifts[i]
    xi = 2 * min(max(map(abs, f.packed.values())), max(map(abs, g.packed.values()))) + 2
    for _ in range(HEU_GCD_TRIES):
        images = []
        for p in (f, g):
            image: dict = {}
            for m, c in p.packed.items():
                e = m >> shift & MASK
                k = m - (e << shift)
                image[k] = image.get(k, 0) + c * xi ** e
            images.append(p.new({m: c for m, c in image.items() if c}))
        rest, terms, k = _gcd(*images, i + 1).packed, {}, 0
        while rest:
            carry = {}
            for m, c in rest.items():
                r = c % xi
                if r > xi // 2:
                    r -= xi
                if r:
                    terms[m + (k << shift)] = r
                if c != r:
                    carry[m] = (c - r) // xi
            rest, k = carry, k + 1
        h = f.new(terms)
        h = h.quo_ground(igcd(*h.packed.values()))
        if f.exact_quo(h) is not None and g.exact_quo(h) is not None:
            return h
        xi = xi * 73794 // 27011
    return None


def _primitive_in(p: Poly, i: int) -> tuple[Poly, Poly]:
    """(content, primitive part) of p as a polynomial in x_i."""
    shift = p.ring.shifts[i]
    coeffs = [_coeff(p, i, k) for k in {m >> shift & MASK for m in p.packed}]
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
