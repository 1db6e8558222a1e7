"""Sparse multivariate polynomials and univariate helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbsato.bsato import _Packing
from toricbsato.multipoly import MultiPoly, UniPoly, binom_poly

F = Fraction


def poly_from(nvars, terms):
    return MultiPoly(nvars, {tuple(e): F(c) for e, c in terms})


def evaluate(p, point):
    """The value of ``p`` at ``point``, term by term."""
    total = F(0)
    for e, c in p.terms.items():
        for x, k in zip(point, e):
            c *= x**k
        total += c
    return total


small_polys = st.builds(
    poly_from,
    st.just(2),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.integers(-6, 6),
        ),
        max_size=5,
    ),
)


def test_constructor_cleans():
    p = MultiPoly(2, {(0, 0): F(1), (1, 0): F(0)})
    assert (1, 0) not in p.terms
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): F(1)})
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): F(1)})


def test_variable_and_linear_form():
    s1 = MultiPoly.variable(3, 0)
    assert s1.terms == {(1, 0, 0): F(1)}
    lf = MultiPoly.linear_form([2, 0, -1], 5)
    assert lf.terms == {(1, 0, 0): F(2), (0, 0, 1): F(-1), (0, 0, 0): F(5)}


@given(small_polys, small_polys, small_polys)
@settings(max_examples=100)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == MultiPoly.zero(2)


@given(small_polys, small_polys, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=100)
def test_eval_is_ring_hom(a, b, pt):
    pt = tuple(F(x) for x in pt)
    assert evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)
    assert evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)


def test_multipoly_format_lists_terms_in_grevlex_order():
    # display order only: higher degree first, then the smaller exponent of
    # the last variable, then of the one before
    p = poly_from(3, [((0, 0, 2), 1), ((1, 1, 0), -2), ((0, 1, 1), F(1, 2)),
                      ((2, 0, 0), 1), ((0, 0, 0), 7), ((1, 0, 0), -1)])
    assert p.format() == "x0^2 - 2*x0*x1 + 1/2*x1*x2 + x2^2 - x0 + 7"
    assert repr(p) == f"MultiPoly({p.format()})"
    assert p.format(["s", "t", "u"]) == "s^2 - 2*s*t + 1/2*t*u + u^2 - s + 7"


def test_grevlex_order():
    # the engine's order is grevlex on every variable
    key = _Packing(3, 7).encode
    # degree first
    assert key((2, 0, 0)) > key((1, 0, 0))
    assert key((0, 0, 2)) > key((1, 0, 0))
    # same degree: grevlex on ties — smaller last entry wins
    assert key((2, 0, 0)) > key((1, 1, 0)) > key((0, 2, 0))
    assert key((0, 2, 0)) > key((1, 0, 1)) > key((0, 1, 1)) > key((0, 0, 2))


def test_grevlex_puts_the_last_variable_last():
    key = _Packing(3, 7).encode
    # in one degree, every monomial free of the last variable beats every
    # monomial it divides; no power of a variable beats a higher degree
    assert min(key((a, 3 - a, 0)) for a in range(4)) > max(
        key((a, b, 3 - a - b)) for a in range(3) for b in range(3 - a)
    )
    assert key((0, 0, 9)) > key((8, 0, 0)) and key((0, 0, 9)) < key((9, 0, 1))
    # the last variable alone, by its exponent
    assert key((0, 0, 3)) > key((0, 0, 2))


def test_binom_poly_examples():
    s1 = MultiPoly.variable(2, 0)
    s2 = MultiPoly.variable(2, 1)
    one = MultiPoly.constant(2, 1)
    assert binom_poly(s1, 0) == one
    assert binom_poly(s1, 2) == (s1 * s1 - s1) / 2
    e = s1 * 2 + s2 + MultiPoly.constant(2, 2)
    assert binom_poly(e, 2) == e * (e - one) / 2
    with pytest.raises(ValueError):
        binom_poly(s1, -1)


def test_binom_poly_integrality():
    # binom(n, m) at integer points is an integer (binomial coefficient)
    s = MultiPoly.variable(1, 0)
    p = binom_poly(s, 3)
    for n in range(-4, 8):
        val = evaluate(p, (F(n),))
        assert val.denominator == 1


# --- univariate ---


def test_unipoly_basics():
    p = UniPoly([F(2), F(0), F(1)])  # s^2 + 2
    assert p.degree == 2
    assert p(F(3)) == 11
    assert UniPoly([F(0)]).is_zero()
    assert UniPoly.zero().degree == -1


def test_unipoly_from_roots_and_deflate():
    p = UniPoly.from_roots([F(-1), F(-1), F(-2, 3)])
    assert p.is_monic() and p.degree == 3
    assert p(F(-1)) == 0 and p(F(-2, 3)) == 0
    q, rem = p.divmod(UniPoly([F(1), F(1)]))  # x - (-1)
    assert q == UniPoly.from_roots([F(-1), F(-2, 3)]) and rem.is_zero()
    _, rem = p.divmod(UniPoly([F(-5), F(1)]))  # 5 is not a root
    assert rem == UniPoly([p(F(5))])


@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=4),
)
@settings(max_examples=80)
def test_unipoly_divmod_reconstructs(ac, bc):
    a = UniPoly(ac)
    b = UniPoly(bc)
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_unipoly_divides():
    a = UniPoly.from_roots([F(-1), F(-2)])
    b = UniPoly.from_roots([F(-1), F(-2), F(-3)])
    assert a.divides(b)
    assert not b.divides(a)


def test_unipoly_format():
    p = UniPoly([F(8, 9), F(34, 9), F(53, 9), F(4), F(1)])
    assert p.format("s") == "s^4 + 4*s^3 + 53/9*s^2 + 34/9*s + 8/9"
    assert UniPoly([F(0)]).format("s") == "0"
