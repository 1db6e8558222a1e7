"""Generator polynomials, Buchberger engine, elimination, b-functions."""

import random
import re
from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count, product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import toricbsato.bsato as bsato
from toricbsato.bsato import (
    DIVISORS_CAP,
    BFunctionResult,
    GENERATORS_CAP,
    REDUCTION_WORK_CAP,
    WorkCapExceeded,
    _c_vector_count,
    _complete_box,
    _eliminate,
    _falling_product,
    _lct_matches,
    _linear_parts,
    _normal_form,
    _Packing,
    _divide_by_linear,
    _reduce,
    _reducer,
    _profile,
    bfunction,
    build_generator,
    c_vectors,
    eliminate_minimal_univariate,
    groebner_basis,
    monomial_generator,
    rational_roots,
    verify_groebner_basis,
)
from toricbsato.multiplier import verify_correspondence
from toricbsato.multipoly import MultiPoly, UniPoly, binom_poly
from toricbsato.toric import (
    StructuralError,
    build_semigroup,
    f_map,
    is_normal,
    minimal_points,
    monomial_ideal,
)

F = Fraction
CUSP = [[1, 1, 1, 1], [0, 1, 2, 3]]
CUSP_IDEAL = [(1, 1), (1, 2)]


@pytest.fixture
def cusp():
    return build_semigroup(CUSP)


# --- generator polynomials --------------------------------------------------


def test_generator_worked_examples(cusp):
    # transported generator exponents: F(1,1) = (2,1), F(1,2) = (1,2)
    g10 = build_generator(cusp, CUSP_IDEAL, (1, 0))
    expected10 = binom_poly(MultiPoly.linear_form((2, 1), 2), 2) * binom_poly(
        MultiPoly.linear_form((1, 2), 1), 1
    )
    assert g10 == expected10

    g2m1 = build_generator(cusp, CUSP_IDEAL, (2, -1))
    expected2m1 = binom_poly(MultiPoly.variable(2, 1), 1) * binom_poly(
        MultiPoly.linear_form((2, 1), 3), 3
    )
    assert g2m1 == expected2m1


def test_generator_two_routes_agree(cusp):
    alphas = [(2, 1), (1, 2)]
    for c in c_vectors(2, 3):
        assert build_generator(cusp, CUSP_IDEAL, c) == monomial_generator(alphas, c)


def test_generator_principal_closed_form():
    line = build_semigroup([[1]])
    for a in (1, 2, 3, 4):
        g = build_generator(line, [(a,)], (1,))
        assert g == binom_poly(MultiPoly.linear_form((a,), a), a)


def test_generator_validation(cusp):
    with pytest.raises(ValueError, match="sum of c must be 1"):
        build_generator(cusp, CUSP_IDEAL, (1, 1))
    with pytest.raises(ValueError, match="sum of c must be 1"):
        monomial_generator([(2, 1), (1, 2)], (0, 0))
    with pytest.raises(ValueError, match="equal length"):
        build_generator(cusp, CUSP_IDEAL, (1, 0, 0))


def reference_generator(alphas, c):
    """``g_c`` as the product of ``binom_poly`` factors over ``Fraction``."""
    r, n = len(alphas), len(alphas[0])
    u = [sum(c[i] * alphas[i][k] for i in range(r)) for k in range(n)]
    g = MultiPoly.constant(r, 1)
    for i in range(r):
        if c[i] < 0:
            g = g * binom_poly(MultiPoly.variable(r, i), -c[i])
    for k in range(n):
        if u[k] > 0:
            g = g * binom_poly(MultiPoly.linear_form([a[k] for a in alphas], u[k]), u[k])
    return g


@st.composite
def generator_cases(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    alphas = [tuple(draw(st.integers(0, 3)) for _ in range(n)) for _ in range(r)]
    head = [draw(st.integers(-3, 3)) for _ in range(r - 1)]
    last = 1 - sum(head)
    assume(-3 <= last <= 3)
    return alphas, tuple(head) + (last,)


@st.composite
def builder_cases(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    alphas = [tuple(draw(st.integers(0, 4)) for _ in range(n)) for _ in range(r)]
    head = [draw(st.integers(-4, 4)) for _ in range(r - 1)]
    return alphas, (*head, 1 - sum(head))


@given(builder_cases())
@example(([(4, 0), (2, 0), (4, 0), (0, 0)], (3, 3, 4, -9)))
@settings(max_examples=100, deadline=None)
def test_packed_builder_and_its_exact_width(case):
    # the one builder, decoded, is g_c up to content / denom, and the width
    # sized from the profile alone is the one read off the built polynomial;
    # a draw past REDUCTION_WORK_CAP (the example: 34 factors of
    # 4 s_1 + 2 s_2 + 4 s_3 + k and 9 of s_4 - k, 69 930 terms once built) is
    # refused, by the builder and by monomial_generator alike, at one count
    alphas, c = case
    parts, phi = _linear_parts(alphas), _profile(alphas, c)
    pack = _Packing.for_generators(parts, [phi])
    try:
        g, content, denom = _falling_product(parts, phi, pack)
    except WorkCapExceeded as exc:
        assert exc.cap == "REDUCTION_WORK_CAP"
        with pytest.raises(WorkCapExceeded, match=re.escape(str(exc))):
            monomial_generator(alphas, c)
        return
    decoded = {pack.decode(e): F(v * content, denom) for e, v in g.items()}
    assert decoded == monomial_generator(alphas, c).terms
    assert pack.width == _Packing.fitting([MultiPoly(len(alphas), decoded)]).width


@given(generator_cases())
@settings(max_examples=60, deadline=None)
def test_generator_matches_binomial_product(case):
    alphas, c = case
    g = monomial_generator(alphas, c)
    assert g == reference_generator(alphas, c)
    # never zero, zero coordinates of alphas included: every factor is a
    # nonzero linear form, and the factor lengths are the profile
    assert not g.is_zero()
    assert max(sum(e) for e in g.terms) == sum(_profile(alphas, c))


@st.composite
def comparable_profiles(draw):
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    alphas = [tuple(draw(st.integers(0, 3)) for _ in range(n)) for _ in range(r)]
    cs = draw(st.lists(st.sampled_from(c_vectors(r, 3)), min_size=2, max_size=6))
    pairs = [
        (c, c2)
        for c in cs
        for c2 in cs
        if all(x <= y for x, y in zip(_profile(alphas, c), _profile(alphas, c2)))
    ]
    return alphas, pairs


@given(comparable_profiles())
@settings(max_examples=60, deadline=None)
def test_smaller_profile_divides(case):
    # g_c divides g_c' when phi(c) <= phi(c'): the division by the single
    # polynomial g_c, its own Groebner basis, leaves no remainder
    alphas, pairs = case
    for c, c2 in pairs:
        divisor = monomial_generator(alphas, c)
        verify([monomial_generator(alphas, c2)], [divisor])


def test_c_vectors():
    assert c_vectors(2, 3) == [(-2, 3), (-1, 2), (0, 1), (1, 0), (2, -1), (3, -2)]
    assert c_vectors(1, 5) == [(1,)]
    # brute-force oracle: all tuples with sum 1 inside the box, lex order;
    # the family is counted before it is listed
    for r, B in ((1, 0), (2, 2), (3, 1), (3, 2), (4, 3), (5, 1), (5, 2)):
        brute = [c for c in product(range(-B, B + 1), repeat=r) if sum(c) == 1]
        assert c_vectors(r, B) == brute
        assert _c_vector_count(r, B) == len(brute)
    with pytest.raises(ValueError):
        c_vectors(0, 2)


def test_generators_cap():
    assert GENERATORS_CAP == 5000
    assert len(c_vectors(3, 7)) == 168  # the plane's family at box 7 stays under the cap
    with pytest.raises(WorkCapExceeded, match="GENERATORS_CAP exceeded: 8350 > 5000") as exc:
        c_vectors(10, 1)
    assert exc.value.cap == "GENERATORS_CAP"


# --- Groebner engine --------------------------------------------------------


def basis_of(gens, pack=None):
    """``groebner_basis`` of ``MultiPoly`` generators: packed once, by default
    in a fitting packing capped at ``REDUCTION_WORK_CAP``, and the basis
    unpacked."""
    pack = pack or _Packing.fitting(gens, bsato.REDUCTION_WORK_CAP)
    basis = groebner_basis([pack.to_int_poly(g) for g in gens], pack)
    return [MultiPoly._of(pack.nvars, {pack.decode(e): c for e, c in p.items()}) for p in basis]


def verify(gens, gb):
    """``verify_groebner_basis`` of ``MultiPoly`` generators and basis."""
    pack = _Packing.fitting([*gens, *gb])
    packed = [pack.to_int_poly(f) for f in [*gens, *gb]]
    verify_groebner_basis(packed[: len(gens)], packed[len(gens) :], pack)


def order_key(e):
    """The engine's one order, grevlex, written out for the tests: the
    degree, then the exponents from the last variable to the first, each
    negated (a smaller exponent of a later variable wins)."""
    return (sum(e), *(-x for x in reversed(e)))


def test_groebner_toys():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert set(basis_of([x, y])) == {x, y}
    # 1 = (xy+1) - y*x*x/x ... the ideal contains x^2 and xy+1, hence 1
    assert basis_of([x * x, x * y + 1]) == [MultiPoly.constant(2, 1)]
    # the basis comes back as the kernel keeps it, primitive over the
    # integers with a positive lead: x/2 + y/3 as 3x + 2y, and with 1 - x
    # the reduced basis 2y + 3, x - 1 (in grevlex y < x, so the y element
    # comes first)
    assert [g.terms for g in basis_of([x / 2 + y / 3])] == [{(1, 0): 3, (0, 1): 2}]
    gb = basis_of([x / 2 + y / 3, 1 - x])
    assert [g.terms for g in gb] == [{(0, 1): 2, (0, 0): 3}, {(1, 0): 1, (0, 0): -1}]
    assert all(type(c) is int for g in gb for c in g.terms.values())
    # x^2 - y^3 and xy - 1: grevlex leads the first with y^3, and the basis
    # is xy - 1, y^3 - x^2, x^3 - y^2 (an elimination order would give
    # y^5 - 1 and x - y^4)
    gb = basis_of([x * x - y * y * y, x * y - 1])
    assert [g.terms for g in gb] == [
        {(1, 1): 1, (0, 0): -1}, {(0, 3): 1, (2, 0): -1}, {(3, 0): 1, (0, 2): -1}
    ]
    for gens in ([x, y], [x * x, x * y + 1], [x / 2 + y / 3, 1 - x]):
        verify(gens, basis_of(gens))
    with pytest.raises(ValueError, match="nonzero"):
        basis_of([x, MultiPoly.zero(2)])


coeffs = st.integers(-4, 4).filter(bool)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, min_size=1, max_size=3).map(
    lambda d: MultiPoly(2, {e: F(c) for e, c in d.items()})
)


@given(st.lists(polys, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_groebner_random_systems(gens):
    """The basis verifies (inputs and S-polynomials reduce to zero); on top
    of that: the kernel's primitive integer form with positive leads,
    reduced shape, ascending leads, and independence of the generator
    order."""
    gb = basis_of(gens)
    leads = [max(g.terms, key=order_key) for g in gb]
    assert leads == sorted(leads, key=order_key)
    for i, g in enumerate(gb):
        assert all(type(c) is int for c in g.terms.values())
        assert gcd(*g.terms.values()) == 1 and g.terms[leads[i]] > 0
        for j, le in enumerate(leads):
            if i != j:
                assert not all(a <= b for a, b in zip(le, leads[i]))
    verify(gens, gb)
    assert basis_of(list(reversed(gens))) == gb


def reference_normal_form(p, basis, key):
    """Sort-and-scan normal form: after every step, sort the terms and
    reduce the highest one that some reducer lead divides, by the first such
    reducer; contents stripped after every step."""
    p = dict(p)
    while p:
        hit = next(
            (
                (e, red)
                for e in sorted(p, key=key, reverse=True)
                for red in basis
                if all(x <= y for x, y in zip(red[0], e))
            ),
            None,
        )
        if hit is None:
            break
        e, (lead, lc, terms) = hit
        g = gcd(p[e], lc)
        mult_p, mult_g = lc // g, p[e] // g
        p = {k: v * mult_p for k, v in p.items()}
        for ge, gc in terms.items():
            ne = tuple(x + y - z for x, y, z in zip(ge, e, lead))
            p[ne] = p.get(ne, 0) - mult_g * gc
            if not p[ne]:
                del p[ne]
        p = primitive(p)
    p = primitive(p)
    if p and p[max(p, key=key)] < 0:
        p = {k: -v for k, v in p.items()}
    return p


def primitive(p):
    content = 0
    for v in p.values():
        content = gcd(content, v)
    return {k: v // content for k, v in p.items()}


int_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-6, 6).filter(bool), min_size=1, max_size=8
)


@given(
    int_polys,
    st.lists(int_polys.filter(lambda d: len(d) <= 4), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_normal_form_matches_sort_and_scan(p, reducer_polys):
    basis = []
    for d in reducer_polys:
        lead = max(d, key=order_key)
        if d[lead] < 0:
            d = {e: -c for e, c in d.items()}
        basis.append((lead, d[lead], d))
    expected = reference_normal_form(p, basis, order_key)
    pack = _Packing.fitting([MultiPoly._of(3, d) for d in [p, *reducer_polys]])

    def run(polys):
        q = _normal_form(polys[0], list(map(_reducer, polys[1:])), pack)
        return {pack.decode(e): c for e, c in q.items()}

    polys = [p, *(d for _, _, d in basis)]
    assert pack.run(run, [{pack.encode(e): c for e, c in d.items()} for d in polys]) == expected


def fraction_normal_form(p, basis, key):
    """Normal form over the rationals: subtract ``c / lc`` times the first
    reducer whose lead divides the highest reducible term, until none is."""
    p = {e: F(c) for e, c in p.items()}
    while True:
        hit = next(
            (
                (e, red)
                for e in sorted(p, key=key, reverse=True)
                for red in basis
                if all(x <= y for x, y in zip(red[0], e))
            ),
            None,
        )
        if hit is None:
            return p
        e, (lead, lc, terms) = hit
        q = p[e] / lc
        for ge, gc in terms.items():
            ne = tuple(x + y - z for x, y, z in zip(ge, e, lead))
            p[ne] = p.get(ne, 0) - q * gc
            if not p[ne]:
                del p[ne]


@given(
    int_polys,
    st.lists(int_polys.filter(lambda d: len(d) <= 4), min_size=1, max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_reduce_reports_its_scalar(p, reducer_polys):
    # the Krylov loop relies on the exact scalar: q = num/den * NF(p)
    basis = []
    for d in reducer_polys:
        lead = max(d, key=order_key)
        if d[lead] < 0:
            d = {e: -c for e, c in d.items()}
        basis.append((lead, d[lead], d))
    expected = fraction_normal_form(p, basis, order_key)
    pack = _Packing.fitting([MultiPoly._of(3, d) for d in [p, *reducer_polys]])

    def run(polys):
        q, num, den = _reduce(polys[0], list(map(_reducer, polys[1:])), pack)
        assert num > 0 and den > 0
        return {pack.decode(e): F(c * den, num) for e, c in q.items()}

    polys = [p, *(d for _, _, d in basis)]
    assert pack.run(run, [{pack.encode(e): c for e, c in d.items()} for d in polys]) == expected


# --- the tuple kernel, kept as the reference for the packed one -------------


def tuple_order():
    """Negated ``order_key`` of an exponent tuple, memoized."""
    memo = {}

    def down(e):
        if e not in memo:
            memo[e] = tuple(-x for x in order_key(e))
        return memo[e]

    return down


def tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def tuple_primitive(p):
    g = gcd(*p.values())
    return {e: c // g for e, c in p.items()} if g > 1 else p


def tuple_normalize(p, down):
    p = tuple_primitive(p)
    if p and p[min(p, key=down)] < 0:
        p = {e: -c for e, c in p.items()}
    return p


def tuple_reducer(p, down):
    lead = min(p, key=down)
    return lead, p[lead], p


def tuple_normal_form(p, basis, down):
    """Heap normal form on exponent tuples, step for step the packed one."""
    p = dict(p)
    heap = [(down(e), e) for e in p]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = p[e]
        hit = next((red for red in basis if tuple_divides(red[0], e)), None) if c else None
        if hit is None:
            continue
        lead, lc, terms = hit
        g = gcd(c, lc)
        mult_p, mult_g = lc // g, c // g
        for k in p:
            p[k] *= mult_p
        shift = tuple(x - y for x, y in zip(e, lead))
        for ge, gc in terms.items():
            ne = tuple(x + y for x, y in zip(ge, shift))
            if ne not in p:
                heappush(heap, (down(ne), ne))
            p[ne] = p.get(ne, 0) - mult_g * gc
        p = tuple_primitive(p)
    return tuple_normalize({e: c for e, c in p.items() if c}, down)


def tuple_spoly(f, g, m):
    (fl, cf, fterms), (gl, cg, gterms) = f, g
    k = gcd(cf, cg)
    s = {}
    for (lead, mult, terms) in ((fl, cg // k, fterms), (gl, -cf // k, gterms)):
        for e, c in terms.items():
            ne = tuple(x + y - z for x, y, z in zip(e, m, lead))
            s[ne] = s.get(ne, 0) + mult * c
    return {e: c for e, c in s.items() if c}


def tuple_buchberger(gens):
    """Reduced Groebner basis on exponent tuples: the same pair heap,
    criteria, reducer choice and output order as ``groebner_basis``."""
    down = tuple_order()
    R, lcms, heap = [], {}, []

    def push(p):
        new = len(R)
        R.append(tuple_reducer(p, down))
        for i in range(new):
            m = tuple(map(max, R[i][0], R[new][0]))
            lcms[i, new] = m
            heappush(heap, (sum(m), i, new))

    for f in gens:
        denom = 1
        for c in f.terms.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        push(tuple_normalize({e: int(c * denom) for e, c in f.terms.items()}, down))
    while heap:
        _, i, j = heappop(heap)
        m = lcms.pop((i, j))
        if all(a + b == c for a, b, c in zip(R[i][0], R[j][0], m)):
            continue
        if any(
            k not in (i, j)
            and tuple_divides(R[k][0], m)
            and (min(i, k), max(i, k)) not in lcms
            and (min(j, k), max(j, k)) not in lcms
            for k in range(len(R))
        ):
            continue
        nf = tuple_normal_form(tuple_spoly(R[i], R[j], m), R, down)
        if nf:
            push(nf)
    basis = []
    for red in sorted(R, key=lambda red: down(red[0]), reverse=True):
        if not any(tuple_divides(lead, red[0]) for lead, _, _ in basis):
            basis.append(red)
    for idx in range(len(basis)):
        others = basis[:idx] + basis[idx + 1 :]
        if others:
            basis[idx] = tuple_reducer(tuple_normal_form(basis[idx][2], others, down), down)
    order_up = sorted(basis, key=lambda red: down(red[0]), reverse=True)
    return [MultiPoly._of(gens[0].nvars, terms) for _, _, terms in order_up]


small_int_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.integers(-4, 4).filter(bool), min_size=1, max_size=3
)


@given(st.lists(small_int_polys, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_groebner_basis_matches_tuple_kernel(gens):
    gens = [MultiPoly(3, d) for d in gens]
    # a few draws swell to large coefficients: a cap near the largest
    # workload call keeps both kernels quick
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("toricbsato.bsato.REDUCTION_WORK_CAP", 20_000)
        try:
            gb = basis_of(gens)
        except WorkCapExceeded:
            assume(False)
    verify(gens, gb)
    expected = tuple_buchberger(gens)
    assert gb == expected
    # the same integer coefficients, and the same reduction sequence: every
    # term is created in the same order
    assert [list(g.terms.items()) for g in gb] == [list(g.terms.items()) for g in expected]
    assert all(type(c) is int for g in gb + expected for c in g.terms.values())


exponent_pairs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(0, 40)] * n)] * 2)
)


@given(exponent_pairs)
@settings(max_examples=200, deadline=None)
def test_packed_comparison_is_the_order(pair):
    a, b = pair
    top = max(a + b)
    pack = _Packing(len(a), top.bit_length() + 1)
    pa, pb = pack.encode(a), pack.encode(b)
    assert (pa < pb) == (order_key(a) < order_key(b))
    assert (pa == pb) == (a == b)
    assert pack.decode(pa) == a
    # divisibility is the guard test, and a product is a sum
    assert (((pb | pack.guard) - pa) & pack.guard == pack.guard) == tuple_divides(a, b)
    wide = _Packing(len(a), top.bit_length() + 2)
    assert wide.encode(a) + wide.encode(b) == wide.encode(tuple(map(sum, zip(a, b))))


@given(exponent_pairs)
@settings(max_examples=200, deadline=None)
def test_packing_is_graded_reverse_lexicographic(pair):
    # grevlex by its definition, not by weight rows: the higher degree wins;
    # in one degree, the last nonzero entry of a - b is negative exactly when
    # a packs above b, so a monomial free of the last variable beats every
    # monomial of its degree that the last variable divides
    a, b = pair
    pack = _Packing(len(a), 7)  # fields hold exponents up to 63
    pa, pb = pack.encode(a), pack.encode(b)
    if sum(a) != sum(b):
        assert (pa < pb) == (sum(a) < sum(b))
    elif a != b:
        last = [x - y for x, y in zip(a, b) if x != y][-1]
        assert (pa > pb) == (last < 0)
        if a[-1] == 0 < b[-1]:
            assert pa > pb


def test_groebner_widens_overflowing_fields():
    # the inputs fit 5-bit fields (exponents below 16), but the basis reaches
    # y^16: the first run overflows and restarts with doubled fields, in the
    # packing it was given, whose work counter keeps counting; the inputs are
    # packed again in the wider fields, and the basis comes back in them
    f = MultiPoly._of(2, {(6, 6): 1, (5, 0): 1})
    g = MultiPoly._of(2, {(5, 0): 1, (0, 5): 1})
    pack = _Packing.fitting([f, g])
    assert pack.width == 5
    polys = [pack.to_int_poly(f), pack.to_int_poly(g)]
    gb = groebner_basis(polys, pack)
    assert pack.width == 10 and pack.work.count > 0
    assert [{pack.decode(e): c for e, c in h.items()} for h in gb] == [
        {(5, 0): 1, (0, 5): 1}, {(1, 11): 1, (0, 5): 1}, {(0, 16): 1, (4, 5): -1}
    ]
    assert basis_of([f, g]) == basis_of([f, g], _Packing(2, 10))
    verify_groebner_basis([pack.recode(p, 5) for p in polys], gb, pack)
    # the caller's polynomials stay in the fields they were packed in
    assert polys == [_Packing(2, 5).to_int_poly(h) for h in (f, g)]


def test_krylov_widens_overflowing_fields():
    # <L^3 - x^2, x^3> in (x, L): the basis is the generators, whose
    # exponents fit 3-bit fields (below 4), but reducing x^2 L^3 by L^3 - x^2
    # makes x^4 on the way to p = t^6; only the Krylov phase widens, packs
    # the basis again and restarts, and gives what a wide packing gives
    x, L = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    gens = [L * L * L - x * x, x * x * x]
    widths = []
    groebner = bsato.groebner_basis

    def spy(polys, pack):
        basis = groebner(polys, pack)
        widths.append(pack.width)
        return basis

    results = []
    for width in (3, 6):
        pack = _Packing(2, width, REDUCTION_WORK_CAP)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bsato, "groebner_basis", spy)
            results.append(_eliminate([pack.to_int_poly(g) for g in gens], pack))
        assert pack.width == 6
    assert widths == [3, 6]
    assert results == [UniPoly([F(0)] * 6 + [F(1)])] * 2


def test_reduction_work_cap(monkeypatch):
    assert REDUCTION_WORK_CAP == 1_600_000
    monkeypatch.setattr("toricbsato.bsato.REDUCTION_WORK_CAP", 10)
    plane = build_semigroup([[1, 0], [0, 1]])
    with pytest.raises(WorkCapExceeded, match="REDUCTION_WORK_CAP exceeded") as exc:
        bfunction(plane, [(3, 0), (1, 1), (0, 2)])
    assert exc.value.cap == "REDUCTION_WORK_CAP"


def test_elimination_toys():
    # in the coordinates (x, L), L = x + y last: each toy is written in x and
    # y = L - x, and its polynomial in L is read off the last variable
    x, L = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    y = L - x
    assert eliminate_minimal_univariate([x, y]) == UniPoly([F(0), F(1)])
    assert eliminate_minimal_univariate([x - 1, y - 2]) == UniPoly([F(-3), F(1)])
    # the dependency 2L - 1 is divided by its lead once
    assert eliminate_minimal_univariate([x * 2 - 1, y]) == UniPoly([F(-1, 2), F(1)])
    assert eliminate_minimal_univariate([MultiPoly.constant(2, 1)]) == UniPoly([F(1)])
    # positive-dimensional ideals: L is not constant on the line x = y, nor
    # on the lines x = 0 and x = 1, so no polynomial exists ...
    assert eliminate_minimal_univariate([x - y]) is None
    assert eliminate_minimal_univariate([x * (x - 1)]) is None
    assert eliminate_minimal_univariate([x * y]) is None
    # ... but it is constant on the lines L = 0 and L = 1
    assert eliminate_minimal_univariate([L * L]) == UniPoly([F(0), F(0), F(1)])
    assert eliminate_minimal_univariate([L * (L - 1) * (L - 1)]) == UniPoly.from_roots(
        [F(0), F(1), F(1)]
    )


def test_existence_is_a_pure_power_lead_on_a_flat():
    # L = 1/3 on the line 3x + 3y = 1, that is 3L - 1, whose lead is L; on
    # the line x = 2 of the second ideal L takes every value, and the lead xL
    # of its one generator is no pure power of L
    x, L = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    line = L * 3 - 1
    assert eliminate_minimal_univariate([line]) == UniPoly([F(-1, 3), F(1)])
    assert eliminate_minimal_univariate([line * (x - 2)]) is None


def test_positive_dimensional_box_takes_one_basis(monkeypatch):
    # existence is read off the leads of the one basis of J: no second basis
    # decides it, whether the polynomial exists or not
    x, L = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    calls = []
    groebner = bsato.groebner_basis

    def spy(polys, pack):
        calls.append(len(polys))
        return groebner(polys, pack)

    monkeypatch.setattr(bsato, "groebner_basis", spy)
    # J = <L (L - 1)> since <x, x - 1> is the unit ideal: the lines L = 0, 1
    gens = [x * L * (L - 1), (x - 1) * L * (L - 1)]
    assert eliminate_minimal_univariate(gens) == UniPoly([F(0), F(-1), F(1)])
    assert calls == [2]
    assert eliminate_minimal_univariate([x * (L - 1)]) is None
    assert calls == [2, 1]
    # <x^3, xy, y^2> eliminates five families, and boxes 1-5 have no
    # polynomial: their ideals are positive-dimensional
    calls.clear()
    plane = build_semigroup([[1, 0], [0, 1]])
    res = bfunction(plane, monomial_ideal(plane, [(3, 0), (1, 1), (0, 2)]))
    assert [p for _, p in res.truncation[:5]] == [None] * 5
    assert calls == [3, 4, 5, 6, 7]


def test_pure_power_lead_without_a_polynomial_ends_at_the_cap():
    # <y^2 - x> is no product of linear forms: its lead y^2 is a pure power
    # of the last variable, yet no polynomial in y lies in it.  NF(y^k) is
    # one monomial that no echelon row cancels, so only the unit per row
    # checked makes the count reach the cap (after about 1 800 powers)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    with pytest.raises(WorkCapExceeded, match="REDUCTION_WORK_CAP exceeded"):
        eliminate_minimal_univariate([y * y - x])


def test_one_work_counter_serves_each_truncation(monkeypatch):
    # the basis and the Krylov reductions of one call count against one
    # REDUCTION_WORK_CAP: the basis alone fits a cap that the whole call does
    # not.  In the coordinates (x, L), V(J) is the line L = 1 and the points
    # (0, 0), (0, 2), (2, 2), so J is not zero-dimensional
    x, L = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    gens = [L * (L - 1) * (L - 2), x * (L - x) * (L - 1)]
    packs = []
    fitting = _Packing.fitting

    def spy(polys, cap=None):
        packs.append(fitting(polys, cap))
        return packs[-1]

    monkeypatch.setattr(_Packing, "fitting", spy)
    p = eliminate_minimal_univariate(gens)
    assert p == UniPoly.from_roots([F(0), F(1), F(2)])
    total = packs[0].work.count
    alone = fitting(gens)
    groebner_basis([alone.to_int_poly(g) for g in gens], alone)
    assert 0 < alone.work.count < total
    monkeypatch.setattr("toricbsato.bsato.REDUCTION_WORK_CAP", total - 1)
    match = f"REDUCTION_WORK_CAP exceeded: {total} > {total - 1}"
    with pytest.raises(WorkCapExceeded, match=match):
        eliminate_minimal_univariate(gens)


# --- rational roots ---------------------------------------------------------


def test_rational_roots_spot_values():
    p = UniPoly.from_roots([F(-1), F(-1), F(-2, 3)])
    roots, rem = rational_roots(p)
    assert roots == [(F(-1), 2), (F(-2, 3), 1)]
    assert rem == UniPoly([F(1)])

    roots, rem = rational_roots(UniPoly([F(0), F(1), F(1)]))  # s^2 + s
    assert roots == [(F(-1), 1), (F(0), 1)]

    roots, rem = rational_roots(UniPoly([F(1), F(0), F(1)]))  # s^2 + 1
    assert roots == [] and rem == UniPoly([F(1), F(0), F(1)])

    with pytest.raises(ValueError):
        rational_roots(UniPoly.zero())


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=100)
def test_rational_roots_reconstruction(cs):
    p = UniPoly(cs)
    if p.is_zero():
        return
    roots, rem = rational_roots(p)
    rebuilt = rem
    for r, mult in roots:
        rebuilt = rebuilt * UniPoly.from_roots([r] * mult)
    assert rebuilt == p
    for r, _ in roots:
        assert p(r) == 0
    assert rem.degree == 0 or not any(rem(c) == 0 for r, _ in roots for c in (r,))


@st.composite
def planted_polys(draw):
    """A nonzero lead times planted rational roots (repeats drawn from a
    small pool) times an optional irreducible ``x^2 + k``."""
    lead = draw(st.fractions(min_value=-20, max_value=20, max_denominator=20).filter(bool))
    root = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
    pool = draw(st.lists(root, min_size=1, max_size=4))
    roots = draw(st.lists(st.sampled_from(pool), max_size=6))
    k = draw(st.sampled_from((None, 1, 2, 3, 5, 7)))
    rem = UniPoly([lead]) if k is None else UniPoly([lead * k, F(0), lead])
    return roots, rem


@given(planted_polys())
@settings(max_examples=150, deadline=None)
def test_rational_roots_finds_planted(case):
    planted, rem = case
    p = rem * UniPoly.from_roots(planted)
    roots, remainder = rational_roots(p)
    assert roots == sorted(Counter(planted).items())
    assert remainder == rem


def test_divisor_count_is_capped_before_listing(monkeypatch):
    # the constant coefficient 2^5 3^3 5^2 7^2 11 13 17 19 23 29 has 13 824
    # positive divisors; the count is read off the factorization (22 trial
    # divisions), so a lower cap stops the search before any divisor is
    # listed or any candidate is tested
    a0 = 2**5 * 3**3 * 5**2 * 7**2 * 11 * 13 * 17 * 19 * 23 * 29
    p = UniPoly([F(1), F(0), F(1)]) * UniPoly([F(-a0), F(1)])
    assert DIVISORS_CAP == 1_000_000
    roots, rem = rational_roots(p)
    assert roots == [(F(a0), 1)] and rem == UniPoly([F(1), F(0), F(1)])

    tested = []

    def spy(a, num, den):
        tested.append((num, den))
        return _divide_by_linear(a, num, den)

    monkeypatch.setattr("toricbsato.bsato._divide_by_linear", spy)
    monkeypatch.setattr("toricbsato.bsato.DIVISORS_CAP", 10_000)
    with pytest.raises(WorkCapExceeded, match="DIVISORS_CAP exceeded: 13846 > 10000") as exc:
        rational_roots(p)
    assert exc.value.cap == "DIVISORS_CAP"
    assert tested == []


def test_rational_roots_principal_closed_form():
    for a in range(11, 17):
        expected = [F(-j, a) for j in range(a, 0, -1)]
        roots, rem = rational_roots(UniPoly.from_roots(expected))
        assert roots == [(r, 1) for r in expected]
        assert rem == UniPoly([F(1)])


# --- the b-function driver --------------------------------------------------


def test_bfunction_running_example(cusp):
    res = bfunction(cusp, monomial_ideal(cusp, CUSP_IDEAL))
    b = UniPoly([F(8, 9), F(34, 9), F(53, 9), F(4), F(1)])
    assert res.b == b
    assert res.b == UniPoly.from_roots([F(-1), F(-1), F(-2, 3), F(-4, 3)])
    assert res.roots == ((F(-4, 3), 1), (F(-1), 2), (F(-2, 3), 1))
    assert res.unfactored_remainder == UniPoly([F(1)])
    assert res.stabilized
    # two generators: the proved last box is B* = 2, whose 4 vectors c hold
    # the whole minimal family, so it is the one box eliminated
    assert res.box_used == 2
    assert res.generator_count == 4
    assert res.truncation == ((2, b),)


def test_bfunction_factors_once(cusp, monkeypatch):
    # three generators run the box loop: boxes 2 and 3 repeat one
    # polynomial, and only that repeat is factored
    calls = []

    def counting(p):
        calls.append(p)
        return rational_roots(p)

    monkeypatch.setattr("toricbsato.bsato.rational_roots", counting)
    res = bfunction(cusp, monomial_ideal(cusp, [(1, 0), (1, 1), (1, 2)]))
    assert res.stabilized and res.box_used == 3
    assert calls == [res.b]


def test_two_generators_run_no_elimination_and_no_root_search(cusp, monkeypatch):
    # one and two generators read b off the lines of their minimal g_c: no
    # Groebner basis, no Krylov loop and no divisor search
    def refuse(*args):
        raise AssertionError("called for at most two generators")

    for name in ("groebner_basis", "_krylov", "rational_roots"):
        monkeypatch.setattr(bsato, name, refuse)
    res = bfunction(cusp, monomial_ideal(cusp, CUSP_IDEAL))
    assert res.roots == ((F(-4, 3), 1), (F(-1), 2), (F(-2, 3), 1))
    line = build_semigroup([[1]])
    assert bfunction(line, [(3,)]).b == UniPoly.from_roots([F(-1, 3), F(-2, 3), F(-1)])


def test_bfunction_accepts_raw_exponents(cusp):
    by_ideal = bfunction(cusp, monomial_ideal(cusp, CUSP_IDEAL))
    by_list = bfunction(cusp, CUSP_IDEAL)
    assert by_ideal.b == by_list.b


def test_bfunction_identity_maximal_ideal():
    plane = build_semigroup([[1, 0], [0, 1]])
    res = bfunction(plane, monomial_ideal(plane, [(1, 0), (0, 1)]))
    assert res.b == UniPoly([F(2), F(1)])  # s + 2
    assert res.stabilized and res.box_used == 1
    assert res.truncation == ((1, res.b),)


def test_bfunction_principal_closed_form():
    line = build_semigroup([[1]])
    for a in range(1, 13):
        res = bfunction(line, monomial_ideal(line, [(a,)]))
        assert res.b == UniPoly.from_roots([F(-j, a) for j in range(1, a + 1)])
        assert res.stabilized


def test_generators_cap_counts_every_box(monkeypatch):
    # <x^3, xy, y^2> certifies at box 7; boxes 1-6 list 336 vectors c and
    # box 7 another 168, so a cap of 400 stops the call before box 7 is listed
    monkeypatch.setattr("toricbsato.bsato.GENERATORS_CAP", 400)
    plane = build_semigroup([[1, 0], [0, 1]])
    with pytest.raises(WorkCapExceeded, match="GENERATORS_CAP exceeded: 504 > 400"):
        bfunction(plane, monomial_ideal(plane, [(3, 0), (1, 1), (0, 2)]))


def test_a_run_that_never_certifies_ends_at_the_generators_cap(monkeypatch):
    # three generators run the box loop: <x^2, xy, y^2> keeps its family from
    # box 1 on, so only the cumulative count of GENERATORS_CAP can end a run
    # whose stop rule fails; boxes 1-16 list 4 896 vectors c, and box 17
    # another 918
    monkeypatch.setattr("toricbsato.bsato._lct_matches", lambda *args: False)
    plane = build_semigroup([[1, 0], [0, 1]])
    with pytest.raises(WorkCapExceeded, match="GENERATORS_CAP exceeded: 5814 > 5000"):
        bfunction(plane, monomial_ideal(plane, [(2, 0), (1, 1), (0, 2)]))


def test_an_irrational_truncation_root_is_an_engine_fault(monkeypatch):
    # p_B splits over Q (L is constant on every flat of V(J)), so a repeated
    # truncation polynomial with an irreducible quadratic factor is a fault
    # in the engine: it raises at once instead of running on, uncertified,
    # to GENERATORS_CAP
    monkeypatch.setattr(bsato, "_eliminate", lambda polys, pack: UniPoly([F(2), F(0), F(1)]))
    plane = build_semigroup([[1, 0], [0, 1]])
    with pytest.raises(AssertionError, match="irrational root"):
        bfunction(plane, monomial_ideal(plane, [(2, 0), (1, 1), (0, 2)]))


def minimal_family(alphas, B):
    """The minimal profiles of box ``B``, from the full listing."""
    cs = c_vectors(len(alphas), B)
    return frozenset(phi for phi, _ in minimal_points((_profile(alphas, c), c) for c in cs))


@st.composite
def transported_exponents(draw):
    """One or two generators' transported exponents on 1-4 facets."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 2))
    return [tuple(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))) for _ in range(r)]


@given(transported_exponents())
@example([(2, 1), (1, 2)])  # the cusp's running example: B* = 2
@example([(12, 0), (0, 12)])  # B* = 12 from t_lo = -11
@settings(max_examples=300, deadline=None)
def test_complete_box_holds_every_minimal_profile(alphas):
    # the oracle of the proved last box, with no Groebner: six larger boxes
    # hold exactly the minimal profiles of box B*
    last = _complete_box(alphas)
    family = minimal_family(alphas, last)
    for B in range(last + 1, last + 7):
        assert minimal_family(alphas, B) == family


def test_complete_box_is_known_for_at_most_two_generators():
    assert _complete_box([(5, 0)]) == 1
    assert _complete_box([(2, 1), (1, 2)]) == 2
    assert _complete_box([(1, 0), (0, 1), (1, 1)]) is None


def reference_bfunction(S, betas, box=None):
    """The b-function by Groebner elimination and the rational root search,
    as a :class:`BFunctionResult`.  With ``box``, that one box is eliminated
    and its polynomial factored: the route :func:`bfunction` took at the
    proved last box ``B*`` of one or two generators before it read ``b``
    off the lines.  Without, the box loop for every number of generators,
    as :func:`bfunction` ran it before the proved last box: boxes ``1, 2,
    ...`` until two consecutive boxes agree and ``-lct`` is the largest
    root, each ``p_B`` dividing the one before."""
    alphas = [f_map(S, b) for b in betas]
    parts = [(*(x - a[-1] for x in a[:-1]), a[-1]) for a in _linear_parts(alphas)]
    lct_value = monomial_ideal(S, betas).lct
    prev = prev_family = None
    history = []
    for B in count(1) if box is None else (box,):
        cs = c_vectors(len(betas), B)
        minimal = minimal_points((_profile(alphas, c), c) for c in cs)
        family = frozenset(phi for phi, _ in minimal)
        if family != prev_family:
            pack = _Packing.for_generators(parts, family, REDUCTION_WORK_CAP)
            p = _eliminate([_falling_product(parts, phi, pack)[0] for phi, _ in minimal], pack)
        prev_family = family
        history.append((B, p))
        if box is None and p is not None and prev is not None:
            assert p.divides(prev), "a larger box failed to divide the smaller one"
        if box is not None or (p is not None and p == prev):
            assert p is not None, "the complete family's ideal has no polynomial in L"
            roots, remainder = rational_roots(p)
            assert remainder == UniPoly([1]), "a truncation polynomial with an irrational root"
            if box is not None or _lct_matches(p, roots, lct_value):
                return BFunctionResult(p, tuple(roots), remainder, B, True, len(cs), tuple(history))
        prev = p


WORKLOAD_CONES = {
    "line": [[1]],
    "plane": [[1, 0], [0, 1]],
    "cusp": CUSP,
    "a5": [[0, 1, 6], [1, 1, 5]],
    "square": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
    "simplicial": [[1, 1, 1, 0], [0, 2, 1, 0], [0, 0, 0, 1]],
}

# the ideals of at most two generators among the b-function ops of the
# bfunction-elim and verify-roots benchmark workloads
WORKLOAD_IDEALS = sorted(
    {
        *(("line", ((a,),)) for a in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)),
        *(
            ("plane", ((a, 0), (0, b)))
            for a, b in (
                (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (1, 3), (1, 4), (2, 2), (3, 2),
                (2, 3), (4, 2), (2, 4), (3, 3), (6, 2), (2, 6), (5, 2), (4, 3),
            )
        ),
        *(
            ("cusp", gens)
            for gens in (
                ((1, 1), (1, 2)), ((1, 1), (1, 3)), ((1, 0), (1, 2)), ((1, 0), (1, 3)),
                ((1, 0), (1, 1)), ((1, 2),), ((2, 2), (1, 3)),
            )
        ),
        *(
            ("a5", gens)
            for gens in (
                ((0, 1), (1, 1)), ((1, 1), (6, 5)), ((0, 1), (6, 5)), ((2, 2), (6, 5)),
                ((1, 1),), ((0, 1),),
            )
        ),
        *(
            ("square", gens)
            for gens in (((1, 0, 0), (1, 1, 1)), ((1, 0, 0),), ((1, 1, 0), (1, 0, 1)))
        ),
        *(
            ("simplicial", gens)
            for gens in (((1, 1, 1),), ((1, 0, 0),), ((1, 1, 0), (0, 0, 1)), ((1, 2, 0),))
        ),
    }
)


def test_complete_box_agrees_with_the_box_loop():
    # every workload ideal of one or two generators: b read off the lines at
    # B* is the b-function the certified box loop gives, one box earlier
    # (the loop ran to it from box 1), and the whole result is the one the
    # elimination of box B* alone gives
    semigroups = {name: build_semigroup(m) for name, m in WORKLOAD_CONES.items()}
    assert len(WORKLOAD_IDEALS) == 48
    for name, gens in WORKLOAD_IDEALS:
        S = semigroups[name]
        ideal = monomial_ideal(S, gens)
        res = bfunction(S, ideal)
        loop = reference_bfunction(S, ideal.generators)
        assert (res.b, res.roots, res.unfactored_remainder) == (
            loop.b, loop.roots, loop.unfactored_remainder
        ), (name, gens)
        assert res.box_used == loop.box_used - 1, (name, gens)
        assert res == reference_bfunction(S, ideal.generators, box=res.box_used), (name, gens)


def random_normal_cones(rng, d, count):
    """``count`` seeded cones in dimension ``d``, each on ``d`` to ``d + 2``
    nonzero columns with first entry in ``0..3`` and the others in
    ``-3..3``, kept when ``build_semigroup`` accepts them, the columns span
    ``Z^d`` and the semigroup is normal."""
    cones = []
    while len(cones) < count:
        cols = [
            (rng.randint(0, 3), *(rng.randint(-3, 3) for _ in range(d - 1)))
            for _ in range(rng.randint(d, d + 2))
        ]
        if not all(any(col) for col in cols):
            continue
        try:
            S = build_semigroup([list(row) for row in zip(*cols)])
            if S.saturated and is_normal(S):
                cones.append((S, cols))
        except (StructuralError, WorkCapExceeded):
            continue
    return cones


@pytest.mark.parametrize(
    "d, cones, per_cone, top", [(2, 30, 5, 2), (3, 20, 4, 1)], ids=["2-D", "3-D"]
)
def test_correspondence_on_random_normal_cones(d, cones, per_cone, top):
    # the paper's correspondence on inputs nobody chose: ideals of 1-3
    # generators, each a combination of the columns with coefficients
    # 0..top (3-D cones have up to 5 columns, so 0..1 reaches exponents as
    # large as 0..2 does in 2-D).  The verdict is never FAIL, the only
    # exception is a counted cap, every INCONCLUSIVE names its unsettled
    # candidates, and for one or two generators six boxes past B* keep the
    # minimal family, so the box loop would reach the same b
    rng = random.Random(15 + d)
    verdicts, caps, problems = Counter(), Counter(), []
    for S, cols in random_normal_cones(rng, d, cones):
        for _ in range(per_cone):
            gens = []
            for _ in range(rng.randint(1, 3)):
                k = [rng.randint(0, top) for _ in cols]
                gens.append(tuple(sum(x * col[i] for x, col in zip(k, cols)) for i in range(d)))
            try:
                rep = verify_correspondence(S, gens)
            except WorkCapExceeded as exc:
                caps[exc.cap] += 1
                continue
            verdicts[rep.verdict] += 1
            if rep.verdict == "FAIL":
                problems.append((cols, gens, rep.failures))
            named = [n for n in rep.notes if n.startswith("unsettled jumping candidates in window: ")]
            if rep.verdict == "INCONCLUSIVE" and not named:
                problems.append((cols, gens, "INCONCLUSIVE without candidates"))
            alphas = [f_map(S, g) for g in monomial_ideal(S, gens).generators]
            if len(alphas) <= 2:
                last = rep.bfunction_result.box_used
                family = minimal_family(alphas, last)
                if any(minimal_family(alphas, B) != family for B in range(last + 1, last + 7)):
                    problems.append((cols, gens, f"box {last} misses a minimal profile"))
    summary = f"verdicts {dict(verdicts)}, caps {dict(caps)}"
    assert not problems, f"{summary}: {problems}"
    assert sum(verdicts.values()) + sum(caps.values()) == cones * per_cone, summary


def random_small_ideals(rng, plane, cusp, cones):
    """Seeded monomial ideals, three in four of them with two minimal
    generators and the others principal: ``plane`` on the plane with
    exponents up to 6, ``cusp`` on the cusp with exponents up to 12, and
    ``cones`` on random normal cones with 2-4 facets, whose generators are
    combinations of the columns with coefficients 0..2."""
    plane_exponent = lambda: (rng.randint(0, 6), rng.randint(0, 6))  # noqa: E731

    def cusp_exponent():
        a = rng.randint(0, 12)
        return a, rng.randint(0, min(12, 3 * a))

    draws = [(build_semigroup([[1, 0], [0, 1]]), plane_exponent)] * plane
    draws += [(build_semigroup(CUSP), cusp_exponent)] * cusp
    def combination(cols):
        k = [rng.randint(0, 2) for _ in cols]
        return tuple(map(sum, zip(*([x * v for v in col] for x, col in zip(k, cols)))))

    while len(draws) < plane + cusp + cones:
        for S, cols in random_normal_cones(rng, rng.randint(2, 3), 1):
            if len(S.facets) <= 4:
                draws.append((S, lambda cols=cols: combination(cols)))
    out = []
    for S, exponent in draws:
        r = 1 if rng.random() < 0.25 else 2
        while len((ideal := monomial_ideal(S, [exponent() for _ in range(r)])).generators) != r:
            pass
        out.append((S, ideal))
    return out


def test_lines_agree_with_the_elimination_of_the_last_box():
    # the oracle of the line arrangement: wherever the elimination of the
    # proved last box and the divisor search finish under their caps, the
    # whole result is theirs: b, roots, box, generator count, truncation
    rng = random.Random(36)
    finished, capped = 0, Counter()
    for S, ideal in random_small_ideals(rng, plane=40, cusp=12, cones=24):
        res = bfunction(S, ideal)
        try:
            ref = reference_bfunction(S, ideal.generators, box=res.box_used)
        except WorkCapExceeded as exc:
            capped[exc.cap] += 1
            continue
        finished += 1
        assert res == ref, (S.A, ideal.generators)
    assert finished >= 60, (finished, capped)


TESSERACT = [
    [1] * 16,
    [0] * 8 + [1] * 8,
    [0] * 4 + [1] * 4 + [0] * 4 + [1] * 4,
    [0, 0, 1, 1] * 4,
    [0, 1] * 8,
]


def test_tesseract_truncation_is_a_minimal_polynomial():
    # the cone over the 4-cube with <x^3, x^2 y^2>: an independent check of
    # the degree-26 polynomial of box 3, the proved last box, which the
    # block-order elimination could not reach (REDUCTION_WORK_CAP; uncapped,
    # box 3 ran for over ten minutes without finishing).  With the verified
    # basis of the box's ideal J, p(L) lies in J and, p having only rational
    # roots, no p / (t - root) does, so p is the minimal polynomial of L on
    # Q[s]/J
    S = build_semigroup(TESSERACT)
    betas = [(3, 0, 0, 0, 0), (2, 2, 0, 0, 0)]
    res = bfunction(S, betas)
    assert res.box_used == 3 and res.b.degree == 26
    assert res.truncation == ((3, res.b),) and res.unfactored_remainder == UniPoly([F(1)])
    alphas = [f_map(S, b) for b in betas]
    parts = _linear_parts(alphas)
    profiles = [_profile(alphas, c) for c in c_vectors(2, 3)]
    pack = _Packing.for_generators(parts, profiles)
    gens = [_falling_product(parts, phi, pack)[0] for phi in profiles]
    gb = bsato.groebner_basis(gens, pack)  # verified by the suite's wrapper
    L = MultiPoly.linear_form([1, 1])

    def at_L(q):
        acc = MultiPoly.zero(2)
        for c in reversed(q.coeffs):
            acc = acc * L + c
        return acc

    assert pack.width > res.b.degree.bit_length()  # fields that hold L^26
    basis = list(map(_reducer, gb))

    def in_ideal(q):
        return not _normal_form(pack.to_int_poly(at_L(q)), basis, pack)

    assert in_ideal(res.b)
    for root, _ in res.roots:
        q, rem = res.b.divmod(UniPoly([-root, 1]))
        assert rem.is_zero() and not in_ideal(q)


ORACLE_CONES = {
    "cusp": CUSP,
    "a5": [[0, 1, 6], [1, 1, 5]],
    "plane": [[1, 0], [0, 1]],
    "square": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
}


@st.composite
def small_ideals(draw):
    # distinct columns keep the oracle's Buchberger runs short: on a5 the sum
    # (7, 6) of two columns next to (0, 1) takes seconds already in box 1, and
    # all three columns take 1-3 s in box 3
    name = draw(st.sampled_from(sorted(ORACLE_CONES)))
    cols = list(zip(*ORACLE_CONES[name]))
    top = 2 if name == "a5" else 3
    exps = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=top, unique=True))
    return ORACLE_CONES[name], exps


def block_rows(n):
    """Weight rows of the elimination order on ``n`` variables: grevlex on
    the first ``n - 1`` over the degree of the last, so every monomial with a
    front variable lies above every power of the last (Cox, Little and
    O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3)."""
    neg = [tuple(-int(j == i) for j in range(n)) for i in reversed(range(n))]
    return ((1,) * (n - 1) + (0,), *neg[1:], tuple(-x for x in neg[0]))


def reference_eliminate(gens):
    """The truncation polynomial by elimination, as the paper defines it:
    pad a last variable ``t``, adjoin ``t - sum s_i``, compute the reduced
    basis under the block order that eliminates every ``s_i`` (the same
    kernel with ``block_rows`` in place of the grevlex rows) and read off
    the element in ``t`` alone, made monic; ``None`` when there is none."""
    r = gens[0].nvars
    lifted = [MultiPoly._of(r + 1, {e + (0,): c for e, c in g.terms.items()}) for g in gens]
    t_rel = {(0,) * r + (1,): 1, **{tuple(int(k == i) for k in range(r + 1)): -1 for i in range(r)}}
    lifted.append(MultiPoly._of(r + 1, t_rel))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsato, "_grevlex_rows", block_rows)
        gb = basis_of(lifted)
    pure = [g for g in gb[:2] if all(sum(e[:r]) == 0 for e in g.terms)]
    if not pure:
        return None
    assert len(pure) == 1, "the elimination ideal of a PID has one reduced generator"
    coeffs = {e[r]: c for e, c in pure[0].terms.items()}
    top = max(coeffs)
    return UniPoly([F(coeffs.get(k, 0), coeffs[top]) for k in range(top + 1)])


@given(exponent_pairs.filter(lambda pair: len(pair[0]) > 1))
@settings(max_examples=100, deadline=None)
def test_block_rows_eliminate_to_the_last_variable(pair):
    # the property the reference relies on: a monomial with a front variable
    # packs above every power of the last; two different front parts compare
    # by grevlex, equal ones by the last exponent
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsato, "_grevlex_rows", block_rows)
        pack = _Packing(len(a), 7)
    pa, pb = pack.encode(a), pack.encode(b)
    if any(a[:-1]):
        for k in (0, b[-1], 40):
            assert pa > pack.encode((0,) * (len(b) - 1) + (k,))
    if a[:-1] != b[:-1]:
        assert (pa < pb) == (order_key(a[:-1]) < order_key(b[:-1]))
    else:
        assert (pa < pb) == (a[-1] < b[-1])


@given(small_ideals())
@settings(max_examples=25, deadline=None)
def test_minimal_profiles_keep_every_truncation(case):
    # oracle: eliminate the whole family of each box by the reference, as
    # before the pruning and the Krylov loop
    matrix, exps = case
    S = build_semigroup(matrix)
    truncation = bfunction(S, exps).truncation[:3]
    # the whole family costs far more reduction work than the minimal one
    # (up to 2.7 M units in box 3 on three cusp columns), so the oracle runs
    # without the cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("toricbsato.bsato.REDUCTION_WORK_CAP", None)
        for B, p in truncation:
            family = [build_generator(S, exps, c) for c in c_vectors(len(exps), B)]
            assert reference_eliminate(family) == p


@st.composite
def affine_products(draw, n):
    """Products of integer affine-linear forms ``a . s + c`` in ``n``
    variables, each form with a nonzero linear part."""
    form = st.tuples(*[st.integers(-2, 2)] * (n + 1)).filter(lambda f: any(f[:n]))
    return draw(st.lists(st.lists(form, min_size=1, max_size=3), min_size=1, max_size=3))


def in_last_L(n, products):
    """The products of ``(a, c)`` rows ``a . s + c`` in ``s``, and the same
    products in ``y = (s_1, ..., s_{n-1}, L)``, where the engine eliminates
    to the last variable: ``a . s = sum_{i<n} (a_i - a_n) y_i + a_n L``."""

    def build(rows):
        g = MultiPoly.constant(n, 1)
        for row in rows:
            g = g * MultiPoly.linear_form(row[:n], row[n])
        return g

    gens = [build(factors) for factors in products]
    in_y = [
        build([(*(a - f[n - 1] for a in f[: n - 1]), f[n - 1], f[n]) for f in factors])
        for factors in products
    ]
    return gens, in_y


@given(affine_products(2))
@settings(max_examples=60, deadline=None)
def test_krylov_matches_reference_elimination(products):
    # random products of integer affine-linear forms in two variables:
    # zero-dimensional ideals, ideals whose flats keep L constant, ideals
    # without a polynomial, and the unit ideal
    gens, in_y = in_last_L(2, products)
    assert eliminate_minimal_univariate(in_y) == reference_eliminate(gens)


@given(affine_products(3))
@settings(max_examples=40, deadline=None)
def test_krylov_matches_reference_elimination_in_three_variables(products):
    # three generators give r = 3: the coordinate change moves two front
    # variables, and the flats of V(J) reach dimension two
    gens, in_y = in_last_L(3, products)
    p = eliminate_minimal_univariate(in_y)
    try:
        expected = reference_eliminate(gens)
    except WorkCapExceeded:
        # the block order in four variables is the costly kind: about 1 % of
        # draws pass REDUCTION_WORK_CAP in the reference alone, and uncapped
        # they run for minutes; the engine must still finish on them
        assume(False)
    assert p == expected


def test_plane_eliminates_minimal_profiles_only(monkeypatch):
    # <x^3, xy, y^2> certifies at box 7, whose 168 g_c have 7 minimal profiles;
    # boxes 5 and 7 repeat the profile sets of boxes 4 and 6
    sizes = []
    groebner = bsato.groebner_basis

    def spy(polys, pack):
        sizes.append(len(polys))
        return groebner(polys, pack)

    monkeypatch.setattr(bsato, "groebner_basis", spy)
    plane = build_semigroup([[1, 0], [0, 1]])
    res = bfunction(plane, monomial_ideal(plane, [(3, 0), (1, 1), (0, 2)]))
    assert sizes == [3, 4, 5, 6, 7]
    assert res.stabilized and res.box_used == 7 and res.generator_count == 168
    assert res.roots == ((F(-5, 3), 1), (F(-3, 2), 1), (F(-4, 3), 1), (F(-1), 2))
    assert [p for _, p in res.truncation[:5]] == [None] * 5


@pytest.mark.parametrize(
    "matrix, ideal, sizes, boxes",
    [
        (CUSP, [(1, 0), (1, 1), (1, 2)], [4, 5], {1: False, 2: True, 3: True}),
        ([[0, 1, 6], [1, 1, 5]], [(0, 1), (1, 1), (6, 5)], [3, 5, 6],
         {1: False, 2: False, 3: True, 4: True}),
        (CUSP, CUSP_IDEAL, [], {2: True}),
        ([[0, 1, 6], [1, 1, 5]], [(2, 2), (6, 5)], [], {2: True}),
    ],
    ids=["cusp", "a5", "cusp-two-generators", "a5-two-generators"],
)
def test_unchanged_family_is_eliminated_once(monkeypatch, matrix, ideal, sizes, boxes):
    # three generators run the box loop: the stabilizing last box has the
    # minimal profiles of the box before it, so it is the same ideal and
    # reuses that box's polynomial without eliminating.  Two generators list
    # only their proved last box B* = 2 and read b off its lines, with no
    # elimination at all.  ``boxes`` maps each truncation box to whether it
    # had a polynomial
    seen = []
    groebner = bsato.groebner_basis

    def spy(polys, pack):
        seen.append(len(polys))
        return groebner(polys, pack)

    monkeypatch.setattr(bsato, "groebner_basis", spy)
    S = build_semigroup(matrix)
    res = bfunction(S, monomial_ideal(S, ideal))
    assert seen == sizes
    assert res.stabilized and res.box_used == max(boxes)
    assert res.truncation == tuple((B, res.b if found else None) for B, found in boxes.items())


@pytest.mark.parametrize(
    "matrix, ideal, counts",
    [
        (CUSP, [(1, 0), (1, 1), (1, 2)], [(5, 5, 584), (5, 5, 656)]),
        ([[0, 1, 6], [1, 1, 5]], [(0, 1), (1, 1), (6, 5)], [(5, 5, 7165), (5, 5, 9264), (5, 5, 12028)]),
    ],
    ids=["cusp", "a5"],
)
def test_box_packings_keep_their_widths_and_work(monkeypatch, matrix, ideal, counts):
    # per eliminated box of three generators: the field width its packing
    # starts with, the width and the reduction work it has when bfunction
    # returns (basis and powers of L together); the last box repeats the
    # family before it and is not eliminated.  The cusp's box 2 is the
    # largest count on the benchmark workloads
    packs = []
    groebner = bsato.groebner_basis

    def spy(polys, pack):
        packs.append((pack, pack.width))
        return groebner(polys, pack)

    monkeypatch.setattr(bsato, "groebner_basis", spy)
    S = build_semigroup(matrix)
    bfunction(S, monomial_ideal(S, ideal))
    assert [(width, pack.width, pack.work.count) for pack, width in packs] == counts


def test_bfunction_eliminates_primitive_integer_generators(monkeypatch):
    # the g_c of three generators reach the Groebner kernel as primitive
    # packed integer polynomials: no Fraction is built on the way in
    seen = []
    groebner = bsato.groebner_basis

    def spy(polys, pack):
        seen.extend(polys)
        return groebner(polys, pack)

    monkeypatch.setattr(bsato, "groebner_basis", spy)
    square = build_semigroup([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    for S, ideal in [
        (square, [(1, 1, 0), (1, 0, 1), (1, 1, 1)]),
        (build_semigroup(CUSP), [(1, 0), (1, 1), (1, 2)]),
    ]:
        bfunction(S, monomial_ideal(S, ideal))
    assert seen
    for g in seen:
        assert all(type(e) is int and type(c) is int for e, c in g.items())
        assert gcd(*g.values()) == 1


@pytest.mark.parametrize(
    "matrix, ideal, roots",
    [
        # values from perfbench/expected.json (cross-checked by verify PASS)
        (CUSP, [(1, 0), (1, 1), (1, 2)], [(F(-4, 3), 1), (F(-1), 2), (F(-2, 3), 1)]),
        ([[1, 0], [0, 1]], [(2, 0), (1, 1), (0, 2)], [(F(-3, 2), 1), (F(-1), 1)]),
    ],
    ids=["cusp-3-generators", "plane-x2-xy-y2"],
)
def test_bfunction_three_generators(matrix, ideal, roots):
    # three generators: Buchberger meets the chain criterion, under the
    # suite's basis check
    S = build_semigroup(matrix)
    res = bfunction(S, monomial_ideal(S, ideal))
    assert res.stabilized
    assert list(res.roots) == roots
    assert res.unfactored_remainder == UniPoly([F(1)])
