"""The integer polynomial ring against sympy's sparse ring as the oracle."""

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.rings import ring as sympy_ring

from metallifts import poly
from metallifts.poly import poly_ring


@st.composite
def poly_dicts(draw, n, max_exp, max_terms):
    """A sparse {exponents: nonzero int} in n generators."""
    monos = draw(st.lists(st.tuples(*[st.integers(0, max_exp)] * n), max_size=max_terms,
                          unique=True))
    coeffs = st.integers(-20, 20).filter(bool)
    return {m: draw(coeffs) for m in monos}


@st.composite
def poly_pairs(draw, count=2, max_gens=5, max_exp=3, max_terms=6):
    """count polynomials in one ring of 1 to max_gens generators, with
    sympy's twins."""
    n = draw(st.integers(1, max_gens))
    ours = poly_ring(n)
    theirs = sympy_ring(",".join(f"x{i}" for i in range(n)), ZZ)[0]
    dicts = [draw(poly_dicts(n, max_exp, max_terms)) for _ in range(count)]
    return [(ours(d), theirs.from_dict(d)) for d in dicts]


def same(ours, theirs) -> bool:
    return dict(ours) == {m: int(c) for m, c in theirs.items()}


def up_to_sign(ours, theirs) -> bool:
    return same(ours, theirs) or same(-ours, theirs)


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_ring_operations_match_sympy(pairs):
    (f, sf), (g, sg) = pairs
    assert same(f + g, sf + sg)
    assert same(f - g, sf - sg)
    assert same(-f, -sf)
    assert same(f * g, sf * sg)
    assert same(f * 3, sf * 3) and same(3 * f, 3 * sf)
    assert f.terms() == [(m, int(c)) for m, c in sf.terms()]
    assert f.LC == sf.LC and f.is_ground == sf.is_ground
    if f:
        assert f.degrees() == sf.degrees()
    for i, gen in enumerate(sf.ring.gens):
        assert same(f.diff(i), sf.diff(gen))
    for k in range(0 if f else 1, 5):
        assert same(f ** k, sf ** k)


@settings(max_examples=200, deadline=None)
@given(poly_pairs(3))
def test_exact_quotient_matches_sympy(pairs):
    (f, sf), (g, sg), (h, sh) = pairs
    for num, sn in ((f, sf), (f * g, sf * sg), (f * g * h, sf * sg * sh)):
        if not g:
            continue
        q, r = sn.div(sg)
        out = num.exact_quo(g)
        if r:
            assert out is None
        else:
            assert same(out, q)


def check_gcd(pairs):
    """Up to sign, also on inputs with a common factor and contents."""
    (f, sf), (g, sg), (h, sh) = pairs
    for a, sa, b, sb in ((f, sf, g, sg), (f * h, sf * sh, g * h, sg * sh),
                         (f * h * 6, sf * sh * 6, h * 4, sh * 4)):
        out = a.gcd(b)
        assert up_to_sign(out, sa.gcd(sb)) and out.LC >= 0


@settings(max_examples=150, deadline=None)
@given(poly_pairs(3))
def test_gcd_matches_sympy(pairs):
    check_gcd(pairs)


@settings(max_examples=100, deadline=None)
@given(poly_pairs(3, max_gens=3, max_exp=2, max_terms=4))
def test_remainder_sequence_gcd_matches_sympy(pairs):
    """With no heuristic tries every gcd comes from the primitive remainder
    sequence, which costs seconds on the inputs of four or more generators
    that the heuristic takes in milliseconds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "HEU_GCD_TRIES", 0)
        check_gcd(pairs)


def test_hash_and_equality_follow_the_terms():
    R = poly_ring(2)
    x, y = R.gens
    p = x * y + 2 * x
    q = R({(1, 0): 2, (1, 1): 1})
    assert p == q and hash(p) == hash(q)
    assert {p: 1}[q] == 1
    assert p != x and (x - x) == R({}) and not (x - x)
    assert (x + y) ** 0 == R.one and R.one.is_ground and not x.is_ground
