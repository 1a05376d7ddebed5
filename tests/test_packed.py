"""The packed-monomial ring against arithmetic on exponent tuples.

Each operation of ``poly`` and each packed-key routine of ``symexpr`` is
compared with a plain implementation over ``{exponent tuple: int}`` dicts,
in rings of 1 to 9 generators and one of 29 (the size of ``TM`` over a
14-dimensional chart, plus ``s``).
"""

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.rings import ring as sympy_ring

from metallifts.poly import GUARD, poly_ring
from metallifts.symexpr import Chart, CoeffField, RatFunc, _split

ARITIES = st.one_of(st.integers(1, 9), st.just(29))


def monomials(n, max_exp=3):
    """Exponent tuples with at most three nonzero exponents."""
    return st.dictionaries(st.integers(0, n - 1), st.integers(1, max_exp), max_size=3).map(
        lambda d: tuple(d.get(i, 0) for i in range(n)))


def tuple_dicts(n, max_terms=5, max_exp=3, min_terms=0):
    return st.dictionaries(monomials(n, max_exp), st.integers(-9, 9).filter(bool),
                           min_size=min_terms, max_size=max_terms)


# -- the reference: arithmetic on exponent tuples ----------------------------

def ref_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(f, g):
    out = {}
    for a, c in f.items():
        for b, d in g.items():
            m = tuple(x + y for x, y in zip(a, b))
            out[m] = out.get(m, 0) + c * d
    return {m: c for m, c in out.items() if c}


def ref_pow(f, n, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = ref_mul(out, f)
    return out


def ref_diff(f, i):
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in f.items() if m[i]}


def ref_quo(f, g):
    """f / g by long division over ZZ on exponent tuples, or None."""
    g_lm = max(g)
    rem, quo = dict(f), {}
    while rem:
        lm = max(rem)
        m = tuple(x - y for x, y in zip(lm, g_lm))
        if min(m) < 0:
            return None
        c, r = divmod(rem[lm], g[g_lm])
        if r:
            return None
        quo[m] = c
        rem = ref_add(rem, ref_mul({m: -c}, g))
    return quo


def ref_fold(f, d):
    out = {}
    for m, c in f.items():
        low = m[:-1] + (m[-1] % 2,)
        out[low] = out.get(low, 0) + c * d ** (m[-1] // 2)
    return {m: c for m, c in out.items() if c}


# -- the ring ----------------------------------------------------------------

@st.composite
def ring_dicts(draw, count=2, **kwargs):
    n = draw(ARITIES)
    return n, [draw(tuple_dicts(n, **kwargs)) for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(ring_dicts())
def test_arithmetic_matches_tuples(drawn):
    n, (a, b) = drawn
    ring = poly_ring(n)
    f, g = ring(a), ring(b)
    assert dict(f) == a and f.terms() == sorted(a.items(), reverse=True)
    assert dict(f + g) == ref_add(a, b)
    assert dict(f - g) == ref_add(a, {m: -c for m, c in b.items()})
    assert dict(f * g) == ref_mul(a, b)
    for k in range(4):
        assert dict(f ** k) == ref_pow(a, k, n)
    for i in range(n):
        assert dict(f.diff(i)) == ref_diff(a, i)
    if a:
        assert f.degrees() == tuple(map(max, zip(*a)))


@settings(max_examples=100, deadline=None)
@given(ring_dicts(3))
def test_exact_quotients_and_refusals_match_tuples(drawn):
    n, (a, b, c) = drawn
    ring = poly_ring(n)
    if not b:
        return
    g = ring(b)
    for num in (ref_mul(a, b), ref_add(ref_mul(a, b), c), c):
        expected = ref_quo(num, b)
        # The long division alone too: the filter refuses most failing trials.
        for out in (ring(num).exact_quo(g), ring(num)._divide(g)):
            assert (out is None) == (expected is None)
            if out is not None:
                assert dict(out) == expected


@st.composite
def underflows(draw):
    """(a, b): b exceeds a in exactly one exponent and divides it in no
    other way."""
    n = draw(ARITIES)
    a = draw(monomials(n))
    j = draw(st.integers(0, n - 1))
    b = tuple(a[i] + draw(st.integers(1, 3)) if i == j else draw(st.integers(0, a[i]))
              for i in range(n))
    return n, a, b


@settings(max_examples=100, deadline=None)
@given(underflows())
def test_a_division_with_one_underflowing_field_is_refused(drawn):
    n, a, b = drawn
    ring = poly_ring(n)
    assert (ring.pack(a) - ring.pack(b)) & ring.guard
    for f, g in ((ring({a: 6}), ring({b: 1})), (ring({a: 1}) + ring.one, ring({b: 1}) + ring.one)):
        assert f.exact_quo(g) is None and f._divide(g) is None


def test_x_squared_by_y_is_refused_in_every_position():
    for n in (2, 3, 9, 29):
        ring = poly_ring(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert (ring.gens[i] ** 2)._divide(ring.gens[j]) is None
            assert (ring.gens[i] ** 2).exact_quo(ring.gens[i]) == ring.gens[i]


@settings(max_examples=60, deadline=None)
@given(ring_dicts(3, max_terms=3, max_exp=2))
def test_gcd_matches_sympy_on_tuples(drawn):
    n, (a, b, c) = drawn
    ring = poly_ring(n)
    theirs = sympy_ring(",".join(f"x{i}" for i in range(n)), ZZ)[0]
    for u, v in ((a, b), (ref_mul(a, c), ref_mul(b, c))):
        out = ring(u).gcd(ring(v))
        expected = {m: int(k) for m, k in theirs.from_dict(u).gcd(theirs.from_dict(v)).items()}
        assert dict(out) in (expected, {m: -k for m, k in expected.items()})
        assert out.LC >= 0


# -- the exponent width ------------------------------------------------------

def test_the_ring_refuses_an_exponent_at_the_guard_bit():
    for n in (1, 3, 29):
        ring = poly_ring(n)
        for i in range(n):
            top = tuple(GUARD - 1 if k == i else 0 for k in range(n))
            assert ring({top: 1}).terms() == [(top, 1)]
            with pytest.raises(ValueError):
                ring({tuple(GUARD if k == i else 0 for k in range(n)): 1})
            with pytest.raises(ValueError):
                ring({tuple(-1 if k == i else 0 for k in range(n)): 1})
    with pytest.raises(ValueError):
        poly_ring(2)({(1,): 1})


def test_a_single_term_power_refuses_an_exponent_at_the_guard_bit():
    x, y = poly_ring(2).gens
    assert (x ** (GUARD - 1)).terms() == [((GUARD - 1, 0), 1)]
    with pytest.raises(ValueError):
        y ** GUARD
    with pytest.raises(ValueError):
        (x * y ** (GUARD // 2)) ** 2


# -- symexpr's packed routines -----------------------------------------------

@st.composite
def radical_dicts(draw, max_s=1):
    """(n, terms) in n chart generators and s, the last, of degree <= max_s."""
    n = draw(ARITIES)
    chart = draw(tuple_dicts(n, max_terms=4))
    out = {}
    for m, c in chart.items():
        out[m + (draw(st.integers(0, max_s)),)] = c
    return n, out


@settings(max_examples=80, deadline=None)
@given(radical_dicts(max_s=5), st.sampled_from([2, 3, 5, 7]))
def test_fold_matches_tuples(drawn, d):
    n, a = drawn
    folded = CoeffField(d).fold(poly_ring(n + 1)(a))
    assert dict(folded) == ref_fold(a, d)


@settings(max_examples=80, deadline=None)
@given(radical_dicts())
def test_split_matches_tuples(drawn):
    n, a = drawn
    lo, hi = _split(poly_ring(n + 1)(a))
    assert dict(lo) == {m: c for m, c in a.items() if not m[-1]}
    assert dict(hi) == {m[:-1] + (0,): c for m, c in a.items() if m[-1]}


@settings(max_examples=80, deadline=None)
@given(radical_dicts(), st.integers(0, 5))
def test_on_chart_matches_tuples(drawn, extra):
    """Each monomial gains zero exponents for the new variables, before s;
    the value is taken as given, as on_chart does no arithmetic."""
    n, a = drawn
    if not a or n + extra > 29:
        return
    names = [f"x{i}" for i in range(n + extra)]
    small, big = Chart(names[:n], 2), Chart(names, 2)
    ring = poly_ring(n + 1)
    base = ring({m[:-1] + (0,): abs(c) for m, c in a.items()})
    lifted = RatFunc(small, 1, ring(a), ((base, 2),)).on_chart(big)

    def pad(p):
        return {m[:-1] + (0,) * extra + m[-1:]: c for m, c in dict(p).items()}

    assert lifted.chart == big and lifted.num.ring is poly_ring(n + extra + 1)
    assert dict(lifted.num) == pad(a)
    assert [(dict(b), e) for b, e in lifted.factors] == [(pad(base), 2)]
