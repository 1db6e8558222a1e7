"""Bernstein-Sato polynomials of monomial ideals via Groebner elimination.

The b-function of a monomial ideal in a normal toric semigroup ring is the
monic generator of the elimination ideal ``(<g_c : c> + <t - sum s_i>)
intersect Q[t]``, where the ``g_c`` are explicit products of generalized
binomial coefficients indexed by integer vectors ``c`` with coordinate sum
one.  The family of ``c`` is infinite; we truncate to the boxes
``|c_i| <= B`` for ``B = 1, ..., cap`` and report stabilization honestly
(the truncated answer is always a polynomial multiple of the true
b-function, so two consecutive agreeing boxes plus the
log-canonical-threshold cross-check give strong evidence).  The factors of
``g_c`` are nested falling products whose lengths are the integer profile
``phi(c)``, so ``g_c`` divides ``g_c'`` when ``phi(c) <= phi(c')`` and only
the ``g_c`` of minimal profile in a box are eliminated.

The Groebner engine is a deterministic Buchberger with the normal selection
strategy (minimal lcm degree, ties by pair index, read off a heap of pairs
whose lcm is computed once) and the standard product and chain criteria.
Internally all polynomials are kept as primitive integer-coefficient
dictionaries; contents are stripped after every reduction so coefficient
growth stays tame.  Public inputs are ``MultiPoly`` with exact rational
coefficients (``int`` or ``Fraction``); the reduced basis comes back monic
over ``Fraction``.  The b-function driver stays in integers from ``c`` to
the roots: each eliminated ``g_c`` is built as a primitive integer
polynomial, and the rational roots are split off by integer synthetic
division, whose last quotient gives the unfactored remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import factorial, gcd, lcm
from operator import add, le, sub
from typing import Optional, Sequence

from .exactnum import Vec, gcd_list
from .multipoly import MonomialOrder, MultiPoly, UniPoly, block_elimination
from .toric import (
    MonomialIdeal,
    SemigroupData,
    WorkCapExceeded,
    f_map,
    minimal_points,
    monomial_ideal,
)

__all__ = [
    "monomial_generator",
    "build_generator",
    "groebner_basis",
    "verify_groebner_basis",
    "eliminate_minimal_univariate",
    "c_vectors",
    "bfunction",
    "rational_roots",
    "BFunctionResult",
    "TruncationExhausted",
    "WorkCapExceeded",
    "GENERATORS_CAP",
    "SELF_CHECK",
]

#: When true, every Groebner run re-verifies itself (inputs and all
#: S-polynomials reduce to zero).  Flipped on by the acceptance suite.
SELF_CHECK = False

#: Counted work cap: the ``c`` vectors of one truncation box, counted before
#: any is listed.
GENERATORS_CAP = 5_000


class TruncationExhausted(RuntimeError):
    """No univariate polynomial was found up to the truncation cap."""


# ---------------------------------------------------------------------------
# generator polynomials
# ---------------------------------------------------------------------------


def _times_linear(g: dict, coeffs: Sequence[int], const: int) -> dict:
    """Integer polynomial ``g`` times ``sum coeffs[i] * x_i + const``."""
    out: dict = {}
    for e, v in g.items():
        if const:
            out[e] = out.get(e, 0) + v * const
        for i, a in enumerate(coeffs):
            if a:
                ne = e[:i] + (e[i] + 1,) + e[i + 1 :]
                out[ne] = out.get(ne, 0) + v * a
    return out


def _profile(alphas: Sequence[Vec], c: Sequence[int]) -> Vec:
    """``phi(c) = (max(0, -c_i))_i + (max(0, u_k))_k`` with
    ``u = sum c_i alphas_i``: the lengths of the factors of ``g_c``."""
    u = [sum(x * a[k] for x, a in zip(c, alphas)) for k in range(len(alphas[0]))]
    return tuple(max(0, -x) for x in c) + tuple(max(0, x) for x in u)


def _falling_product(alphas: Sequence[Vec], c: Sequence[int]) -> tuple[dict, int, int]:
    """``(g, content, denom)`` with ``g_c = content * g / denom`` and ``g`` a
    primitive integer polynomial: the product of the falling factors of
    ``g_c``, multiplied out in integers and divided by its content.

    With ``phi = _profile(alphas, c)`` and ``L_k = sum_i s_i alpha_ik`` the
    factors are ``s_i`` of length ``phi_i`` and ``L_k + m_k`` of length
    ``m_k = phi_{r+k}``; ``denom`` is ``prod m!``.
    """
    r = len(alphas)
    phi = _profile(alphas, c)
    # (linear part, top, m) of each factor binom(L + top, m)
    factors = [([int(j == i) for j in range(r)], 0, phi[i]) for i in range(r)]
    factors += [([a[k] for a in alphas], m, m) for k, m in enumerate(phi[r:])]
    g = {(0,) * r: 1}
    denom = 1
    for coeffs, top, m in factors:
        for j in range(m):
            g = _times_linear(g, coeffs, top - j)
        denom *= factorial(m)
    content = gcd_list(g.values())
    return {e: v // content for e, v in g.items() if v}, content, denom


def monomial_generator(alphas: Sequence[Vec], c: Sequence[int]) -> MultiPoly:
    """Generator ``g_c`` written in the polynomial ring, from the transported
    exponents ``alphas`` (vectors in the nonnegative orthant).

    With ``phi = _profile(alphas, c)`` and ``L_k = sum_i s_i alpha_ik``,
    ``g_c = prod_i binom(s_i, phi_i) * prod_k binom(L_k + m_k, m_k)``,
    ``m_k = phi_{r+k}``.  Each ``binom(L + top, m)`` is the integer falling
    product ``prod_{j<m} (L + top - j)`` over ``m!``; the integer products
    are multiplied out first and divided by the product of the ``m!`` once.
    Every factor is a nonzero linear form (``m_k > 0`` needs some
    ``alpha_ik != 0``), so ``g_c`` is never zero; the falling products are
    nested in their length, so ``g_c`` divides ``g_c'`` when
    ``phi(c) <= phi(c')``.
    """
    if len(c) != len(alphas):
        raise ValueError("c and exponent list must have equal length")
    if sum(c) != 1:
        raise ValueError("coordinate sum of c must be 1")
    g, content, denom = _falling_product(alphas, c)
    scale = Fraction(content, denom)
    return MultiPoly._of(len(alphas), {e: v * scale for e, v in g.items()})


def build_generator(S: SemigroupData, exponents: Sequence[Vec], c: Sequence[int]) -> MultiPoly:
    """Generator ``g_c`` of the b-function ideal for a monomial ideal with
    the given generator ``exponents`` in the semigroup.

    Since the facet map ``F`` is linear, this is :func:`monomial_generator`
    applied to the transported exponents ``F(beta_i)``: the binomial factors
    run over the facets ``sigma`` with ``F_sigma(sum c_i beta_i) > 0``.
    """
    return monomial_generator([f_map(S, b) for b in exponents], c)


def _c_vector_count(r: int, B: int) -> int:
    """``|{c in Z^r : sum c_i = 1, |c_i| <= B}|``: a DP over the first
    ``r - 1`` coordinates counts each partial sum, and the last coordinate
    ``1 - sum`` must land in ``[-B, B]``."""
    ways = {0: 1}
    for _ in range(r - 1):
        nxt: dict[int, int] = {}
        for s, w in ways.items():
            for x in range(s - B, s + B + 1):
                nxt[x] = nxt.get(x, 0) + w
        ways = nxt
    return sum(w for s, w in ways.items() if -B <= 1 - s <= B)


def c_vectors(r: int, B: int):
    """All ``c in Z^r`` with ``sum c_i = 1`` and ``|c_i| <= B``, in
    lexicographic order of the first ``r - 1`` coordinates.

    The family is counted first; more than ``GENERATORS_CAP`` members raise
    :class:`WorkCapExceeded` before any is listed.
    """
    if r < 1:
        raise ValueError("need at least one generator")
    count = _c_vector_count(r, B)
    if count > GENERATORS_CAP:
        raise WorkCapExceeded("GENERATORS_CAP", count, GENERATORS_CAP)
    out = []
    for head in product(range(-B, B + 1), repeat=r - 1):
        last = 1 - sum(head)
        if -B <= last <= B:
            out.append(head + (last,))
    return out


# ---------------------------------------------------------------------------
# integer-core Buchberger
# ---------------------------------------------------------------------------

# internal polynomials: dict exponent-tuple -> nonzero int, content 1,
# positive leading coefficient under the active order.  Orders are read
# through ``down``: the negated (flat int tuple) order key, so the leading
# exponent of ``p`` is ``min(p, key=down)`` and a min-heap on ``down`` pops
# exponents in descending order.


def _normalize(p: dict, down) -> dict:
    if not p:
        return p
    g = gcd_list(p.values())
    if g > 1:
        p = {e: c // g for e, c in p.items()}
    lead = min(p, key=down)
    if p[lead] < 0:
        p = {e: -c for e, c in p.items()}
    return p


def _to_int_poly(f: MultiPoly, down) -> dict:
    denom = lcm(*(c.denominator for c in f.terms.values()))
    p = {e: c.numerator * (denom // c.denominator) for e, c in f.terms.items()}
    return _normalize(p, down)


def _from_int_poly(p: dict, nvars: int, down) -> MultiPoly:
    lc = p[min(p, key=down)]
    return MultiPoly._of(nvars, {e: Fraction(c, lc) for e, c in p.items()})


class _KeyMemo(dict):
    """Negated order key of each exponent, computed once; lives for one
    public call."""

    def __init__(self, order: MonomialOrder):
        self.order_key = order.key

    def __missing__(self, e: Vec) -> tuple:
        k = self[e] = tuple(-x for x in self.order_key(e))
        return k


def _divides(a: Vec, b: Vec) -> bool:
    return all(map(le, a, b))


def _reducer(p: dict, down) -> tuple[Vec, int, dict]:
    """``(lead, lc, terms)`` of a nonzero internal polynomial."""
    lead = min(p, key=down)
    return lead, p[lead], p


def _reducers(basis: Sequence[MultiPoly], down) -> list[tuple[Vec, int, dict]]:
    return [_reducer(_to_int_poly(g, down), down) for g in basis]


def _normal_form(p: dict, basis: Sequence[tuple[Vec, int, dict]], down) -> dict:
    """Full normal form of ``p`` against the reducers ``basis``; exact up to
    a positive rational scalar (integer cross-multiplication, contents
    stripped after every step).

    The terms wait in one heap and are popped in descending order.  A
    reduction at ``e`` only adds terms below ``e``, so each exponent is
    pushed once and the steps are the classic ones: the highest reducible
    term, reduced by the first reducer in list order whose lead divides it.
    A cancelled term stays in ``p`` as 0 until the end.
    """
    p = dict(p)
    heap = [(down(e), e) for e in p]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = p[e]
        if not c:
            continue
        hit = next((red for red in basis if _divides(red[0], e)), None)
        if hit is None:
            continue
        lead, lc, terms = hit
        g = gcd(c, lc)
        mult_p = lc // g  # > 0 since basis leads are positive
        mult_g = c // g
        if mult_p != 1:
            for k in p:
                p[k] *= mult_p
        shift = tuple(map(sub, e, lead))
        for ge, gc in terms.items():
            ne = tuple(map(add, ge, shift))
            v = p.get(ne)
            if v is None:
                heappush(heap, (down(ne), ne))
                p[ne] = -mult_g * gc
            else:
                p[ne] = v - mult_g * gc
        g = gcd_list(p.values())
        if g > 1:
            p = {k: v // g for k, v in p.items()}
    return _normalize({e: c for e, c in p.items() if c}, down)


def _spoly(f: tuple[Vec, int, dict], g: tuple[Vec, int, dict], lcm: Vec) -> dict:
    """S-polynomial of two reducers whose leads have least common multiple
    ``lcm``."""
    (fl, cf, fterms), (gl, cg, gterms) = f, g
    k = gcd(cf, cg)
    mf, mg = cg // k, cf // k
    sf = tuple(map(sub, lcm, fl))
    sg = tuple(map(sub, lcm, gl))
    s: dict = {}
    for e, c in fterms.items():
        ne = tuple(map(add, e, sf))
        s[ne] = s.get(ne, 0) + mf * c
    for e, c in gterms.items():
        ne = tuple(map(add, e, sg))
        v = s.get(ne, 0) - mg * c
        if v:
            s[ne] = v
        else:
            s.pop(ne, None)
    return {e: c for e, c in s.items() if c}


def _buchberger(ipolys: list[dict], down) -> list[dict]:
    R: list[tuple[Vec, int, dict]] = []  # reducers (lead, lc, terms)
    lcms: dict[tuple[int, int], Vec] = {}  # pending pairs and their lead lcm
    heap: list[tuple[int, int, int]] = []  # (lcm degree, i, j) of pending pairs

    def push(p: dict):
        new = len(R)
        R.append(_reducer(p, down))
        lead = R[new][0]
        for i in range(new):
            m = tuple(map(max, R[i][0], lead))
            lcms[i, new] = m
            heappush(heap, (sum(m), i, new))

    for p in ipolys:
        if p:
            push(p)
    while heap:
        _, i, j = heappop(heap)
        m = lcms.pop((i, j))
        # product criterion: coprime leading monomials
        if all(a + b == c for a, b, c in zip(R[i][0], R[j][0], m)):
            continue
        # chain criterion
        if any(
            k not in (i, j)
            and _divides(R[k][0], m)
            and (min(i, k), max(i, k)) not in lcms
            and (min(j, k), max(j, k)) not in lcms
            for k in range(len(R))
        ):
            continue
        nf = _normal_form(_spoly(R[i], R[j], m), R, down)
        if nf:
            push(nf)
    # minimalize: drop elements whose lead is divisible by another's
    basis: list[tuple[Vec, int, dict]] = []
    for red in sorted(R, key=lambda red: down(red[0]), reverse=True):
        if not any(_divides(lead, red[0]) for lead, _, _ in basis):
            basis.append(red)
    # inter-reduce tails
    for idx in range(len(basis)):
        others = basis[:idx] + basis[idx + 1 :]
        if others:
            basis[idx] = _reducer(_normal_form(basis[idx][2], others, down), down)
    return [p for _, _, p in sorted(basis, key=lambda red: down(red[0]), reverse=True)]


def groebner_basis(gens: Sequence[MultiPoly], order: MonomialOrder) -> list[MultiPoly]:
    """Reduced Groebner basis of ``<gens>`` under ``order`` (monic output).

    Deterministic: Buchberger with normal pair selection (minimal lcm total
    degree, ties by pair index) plus the product and chain criteria; the
    reduced basis is unique for the ideal and order regardless.  With the
    module flag ``SELF_CHECK`` set the result is re-verified: every input
    and every S-polynomial of the output must reduce to zero.
    """
    polys = [g for g in gens if not g.is_zero()]
    if len(polys) != len(gens):
        raise ValueError("generators must be nonzero")
    if not polys:
        return []
    nvars = polys[0].nvars
    if any(p.nvars != nvars for p in polys):
        raise ValueError("generators live in different rings")
    down = _KeyMemo(order).__getitem__
    ipolys = [_to_int_poly(p, down) for p in polys]
    basis = _buchberger(ipolys, down)
    result = [_from_int_poly(p, nvars, down) for p in basis]
    if SELF_CHECK:
        verify_groebner_basis(polys, result, order)
    return result


def normal_form(f: MultiPoly, basis: Sequence[MultiPoly], order: MonomialOrder) -> MultiPoly:
    """Normal form of ``f`` modulo ``basis`` (up to a positive scalar;
    exactly zero iff ``f`` reduces to zero)."""
    down = _KeyMemo(order).__getitem__
    ib = _reducers(basis, down)
    nf = _normal_form(_to_int_poly(f, down), ib, down) if not f.is_zero() else {}
    if not nf:
        return MultiPoly.zero(f.nvars)
    return _from_int_poly(nf, f.nvars, down)


def verify_groebner_basis(
    gens: Sequence[MultiPoly], gb: Sequence[MultiPoly], order: MonomialOrder
) -> None:
    """Raise ``AssertionError`` unless ``gb`` behaves like a Groebner basis
    for ``<gens>``: all inputs and all S-polynomials reduce to zero."""
    down = _KeyMemo(order).__getitem__
    ib = _reducers(gb, down)
    for f in gens:
        if _normal_form(_to_int_poly(f, down), ib, down):
            raise AssertionError("input generator does not reduce to zero")
    for j in range(len(ib)):
        for i in range(j):
            s = _spoly(ib[i], ib[j], tuple(map(max, ib[i][0], ib[j][0])))
            if s and _normal_form(s, ib, down):
                raise AssertionError("S-polynomial does not reduce to zero")


def eliminate_minimal_univariate(gens: Sequence[MultiPoly]) -> Optional[UniPoly]:
    """Monic minimal ``p`` with ``p(sum s_i)`` in ``<gens>``, or ``None``.

    Adjoins a fresh variable ``t`` and the relation ``t - sum s_i``, computes
    a Groebner basis under the block order ``{s_i} >> {t}``, and reads off
    the generator of the ``Q[t]`` elimination ideal.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return None
    r = polys[0].nvars
    lifted = [g.extend_vars(1) for g in polys]
    t_rel = {(0,) * r + (1,): 1}
    for i in range(r):
        t_rel[tuple(1 if k == i else 0 for k in range(r + 1))] = -1
    lifted.append(MultiPoly._of(r + 1, t_rel))
    gb = groebner_basis(lifted, block_elimination(r))
    pure = [g for g in gb if all(sum(e[:r]) == 0 for e in g.terms)]
    if not pure:
        return None
    if len(pure) > 1:
        raise AssertionError("elimination ideal of a PID gave several reduced generators")
    coeffs: dict[int, Fraction] = {e[r]: c for e, c in pure[0].terms.items()}
    top = max(coeffs)
    return UniPoly([coeffs.get(k, Fraction(0)) for k in range(top + 1)])


# ---------------------------------------------------------------------------
# rational roots
# ---------------------------------------------------------------------------


def _positive_divisors(n: int) -> list[int]:
    """Ascending positive divisors of ``n != 0``, listed from its
    factorization by trial division (each prime found is divided out)."""
    n = abs(n)
    divs = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            powers = [1]
            while n % p == 0:
                n //= p
                powers.append(powers[-1] * p)
            divs = [d * q for d in divs for q in powers]
        p += 1
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


def _divide_by_linear(a: list[int], num: int, den: int) -> Optional[list[int]]:
    """Integer quotient of ``sum a_i x^i`` by ``den*x - num``, or ``None``
    when it does not divide (synthetic division from the top, stopping at
    the first coefficient ``den`` does not divide)."""
    q = [0] * (len(a) - 1)
    carry = 0
    for k in range(len(a) - 1, 0, -1):
        top, rest = divmod(a[k] + num * carry, den)
        if rest:
            return None
        q[k - 1] = carry = top
    return q if a[0] + num * carry == 0 else None


def rational_roots(p: UniPoly) -> tuple[list[tuple[Fraction, int]], UniPoly]:
    """All rational roots of ``p`` with multiplicities, plus the unfactored
    remainder; ``prod (x - root)^mult * remainder == p`` exactly.

    ``p`` is cleared to a primitive integer polynomial and its zero roots
    are split off, leaving ``a_0 + ... + a_n x^n`` with ``a_0 != 0``.  A
    root ``num/den`` in lowest terms has ``den | a_n``, ``num | a_0`` and,
    by the Cauchy bound, ``|num| * |a_n| <= den * (|a_n| + max |a_i|)``.
    Candidates run by ascending ``den`` and ``num`` and are tested by
    integer synthetic division by ``den*x - num``; a hit replaces the
    polynomial by its quotient and retries the same candidate, which counts
    the multiplicity.  The quotient's end coefficients prune later
    candidates, and the search stops once the quotient has degree 0.  The
    remainder is read off the last integer quotient ``a``: it is
    ``lead(p) * a / a[-1]``, since ``p`` is that quotient times the found
    factors ``den*x - num`` and ``x^mult0`` up to a constant.
    """
    if p.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    denom = lcm(*(c.denominator for c in p.coeffs))
    a = [int(c * denom) for c in p.coeffs]
    g = gcd_list(a)
    mult0 = next(i for i, c in enumerate(a) if c)
    a = [c // g for c in a[mult0:]]
    roots: list[tuple[Fraction, int]] = [(Fraction(0), mult0)] if mult0 else []
    if len(a) > 1:
        lead = abs(a[-1])
        reach = lead + max(abs(c) for c in a[:-1])  # |num| * lead <= den * reach
        nums = _positive_divisors(a[0])
        for den in _positive_divisors(lead):
            if a[-1] % den:
                continue
            for num in nums:
                if len(a) == 1 or num * lead > den * reach:
                    break
                if a[0] % num or gcd(num, den) != 1:
                    continue
                for signed in (-num, num):
                    mult = 0
                    while len(a) > 1 and (quot := _divide_by_linear(a, signed, den)) is not None:
                        a = quot
                        mult += 1
                    if mult:
                        roots.append((Fraction(signed, den), mult))
    lead = p.coeffs[-1]
    roots.sort(key=lambda rm: rm[0])
    return roots, UniPoly([lead * c / a[-1] for c in a])


# ---------------------------------------------------------------------------
# the b-function driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BFunctionResult:
    """Outcome of the truncated b-function computation.

    ``b`` is monic with ``b = prod (s - root)^mult * unfactored_remainder``
    exactly.  ``stabilized`` is the certification flag: two consecutive
    truncation boxes agreed and the smallest root of ``b(-s)`` matched the
    log-canonical threshold.  ``truncation`` records the polynomial found at
    each box bound (``None`` when the elimination ideal was still zero).
    ``generator_count`` is the number of ``g_c`` in the last box, all of them
    nonzero; only those of minimal profile were eliminated.
    """

    b: UniPoly
    roots: tuple[tuple[Fraction, int], ...]
    unfactored_remainder: UniPoly
    box_used: int
    stabilized: bool
    generator_count: int
    truncation: tuple[tuple[int, Optional[UniPoly]], ...]


DEFAULT_CAP = 6


def _lct_matches(p: UniPoly, roots, remainder: UniPoly, lct_value) -> bool:
    """Does the smallest root of ``p(-s)`` equal the given threshold?
    ``roots`` and ``remainder`` are the factorization ``rational_roots(p)``."""
    if remainder.degree > 0:
        return False  # irrational factors: cannot certify
    if not roots:
        return p.degree == 0 and lct_value == float("inf")
    smallest = -max(r for r, _ in roots)
    return smallest == lct_value


def bfunction(
    S: SemigroupData,
    ideal,
    cap: int = DEFAULT_CAP,
) -> BFunctionResult:
    """Bernstein-Sato polynomial of a monomial ideal, with honest truncation.

    ``ideal`` may be a :class:`MonomialIdeal` (its minimal generators are
    used) or an explicit sequence of generator exponents (used as given,
    which the generator-independence property makes legitimate).  For each
    box bound ``B = 1, ..., cap`` the ideal of ``{g_c : |c_i| <= B}`` is
    eliminated; it is generated by the ``g_c`` of minimal profile
    ``phi(c)``, one per minimal profile, so only those are built.  The
    run stops once two consecutive bounds agree and the smallest root of
    ``b(-s)`` equals the log-canonical threshold.  If the cap is reached
    first, the last polynomial is reported with ``stabilized = False``; if
    no polynomial at all was found, :class:`TruncationExhausted` is raised.
    A ``cap`` below 1 raises ``ValueError``.
    """
    if isinstance(ideal, MonomialIdeal):
        betas = ideal.generators
    else:
        betas = tuple(tuple(int(x) for x in v) for v in ideal)
    if not betas:
        raise ValueError("the ideal needs at least one generator")
    if cap < 1:
        raise ValueError("the truncation cap must be a positive integer")
    r = len(betas)
    alphas = [f_map(S, b) for b in betas]

    from .multiplier import lct  # deferred: multiplier also imports this module

    lct_value = lct(S, monomial_ideal(S, betas))

    # each distinct truncation polynomial is factored at most once
    factorizations: dict[UniPoly, tuple] = {}

    def factor(p: UniPoly) -> tuple:
        if p not in factorizations:
            factorizations[p] = rational_roots(p)
        return factorizations[p]

    history: list[tuple[int, Optional[UniPoly]]] = []
    prev: Optional[UniPoly] = None
    final: Optional[UniPoly] = None
    stabilized = False
    for B in range(1, cap + 1):
        cs = c_vectors(r, B)
        minimal = minimal_points((_profile(alphas, c), c) for c in cs)
        p = eliminate_minimal_univariate(
            [MultiPoly._of(r, _falling_product(alphas, c)[0]) for _, c in minimal]
        )
        history.append((B, p))
        if p is not None and prev is not None and not p.divides(prev):
            raise AssertionError("larger truncation box failed to divide the smaller one")
        box_used, generator_count = B, len(cs)
        if p is not None:
            final = p
            if prev is not None and p == prev and _lct_matches(p, *factor(p), lct_value):
                stabilized = True
                break
        prev = p
    if final is None:
        raise TruncationExhausted(
            f"elimination ideal stayed zero for every box bound up to {cap}"
        )
    roots, remainder = factor(final)
    return BFunctionResult(
        b=final,
        roots=tuple(roots),
        unfactored_remainder=remainder,
        box_used=box_used,
        stabilized=stabilized,
        generator_count=generator_count,
        truncation=tuple(history),
    )
