"""Bernstein-Sato polynomials of monomial ideals.

The b-function of a monomial ideal in a normal toric semigroup ring is the
monic generator of the elimination ideal ``(<g_c : c> + <t - sum s_i>)
intersect Q[t]``, where the ``g_c`` are explicit products of generalized
binomial coefficients indexed by integer vectors ``c`` with coordinate sum
one.  The family of ``c`` is infinite, so it is truncated to the boxes
``|c_i| <= B``; the polynomial ``p_B`` of a box is always a polynomial
multiple of the true b-function.  The factors of ``g_c`` are nested falling
products whose lengths are the integer profile ``phi(c)``, so ``g_c``
divides ``g_c'`` when ``phi(c) <= phi(c')`` and only the ``g_c`` of minimal
profile in a box enter its ideal ``J``.  For every number ``r`` of
generators a box ``B*`` (:func:`_complete_box`) holds the whole minimal
family, so ``p_{B*}`` is the b-function, with no confirming box and no lct.
For one or two generators its roots and multiplicities are read off the
lines of the minimal ``g_c`` with no Groebner basis and no root search; for
three or more ``p_{B*}`` comes from one Groebner basis and a rational root
search.

The last box.  Take the forms ``c_i`` and ``u_k(c) = sum_i c_i alpha_ik``
on the plane ``sum c = 1``; they are the linear parts of the factors
(:func:`_linear_parts`), and a form constant on the plane cuts nothing.
The ``c_i`` alone span the dual of the plane's directions, so every closed
chamber of their arrangement is a pointed polyhedron: the hull of its
vertices plus its recession cone.  On a chamber every coordinate of
``phi``, a ``max(0, .)`` of a form of fixed sign there, is linear and does
not decrease along the recession cone.  By Caratheodory a ``c`` of the
chamber is ``p + sum mu_j d_j`` with ``p`` in the hull of the vertices,
``mu_j >= 0`` and at most ``r - 1`` extreme rays ``d_j``, taken primitive
integer.  Subtracting ``sum floor(mu_j) d_j`` leaves an integer ``c'`` of
the same chamber with ``phi(c') <= phi(c)`` and ``|c'_i| < M_i + R_i``:
``M_i`` is the largest ``|v_i|`` over the vertices ``v``, each cut out by
``r - 1`` independent forms, and ``R_i`` the sum of the ``r - 1`` largest
``|d_i|`` over the primitive ray directions, each cut out by ``r - 2``
forms and ``sum d = 0`` (``|c'_i| <= M_i`` when ``R_i = 0``).  So every
profile lies on or above a profile of the box ``B* = max(1, max_i
(ceil(M_i) + R_i - 1 if R_i else floor(M_i)))``: its ideal is the whole
family's, and ``p_{B*}`` is the b-function by the definition above.
:func:`_chamber_box` solves the ``C(m, r - 1) + C(m, r - 2)`` systems of
the ``m`` distinct forms, each from an integer fraction-free elimination,
and counts them against the call's ``REDUCTION_WORK_CAP`` counter before
any is solved.  ``B*`` is counted against ``GENERATORS_CAP`` before it is
listed.

The last box for one or two generators in closed form.  For ``r = 1`` the
plane is the point ``c = (1)``, and ``B* = 1``.  For ``r = 2`` write ``c =
(t, 1 - t)``: the vertices are ``t = 0``, ``t = 1`` and the zeros ``t_k =
alpha_2k / (alpha_2k - alpha_1k)`` of the nonconstant ``u_k``, and the only
ray is ``(1, -1)``, so ``R_i = 1`` and ``B* = max_i ceil(M_i)`` with ``M_1 =
max(1, |t_k|)`` and ``M_2 = max(1, |1 - t_k|)``.  The exponents are
nonnegative, so ``t_k >= 1`` when ``alpha_1k < alpha_2k`` and ``t_k <= 0``
when ``alpha_1k > alpha_2k``.  Hence ``B* = max(t_hi, 1 - t_lo)``, ``t_hi``
the maximum of 1 and the ``ceil(t_k)`` of the first kind and ``t_lo`` the
minimum of 0 and the ``floor(t_k)`` of the second, which
:func:`_complete_box` evaluates without listing the vertices.

The b-function of one or two generators from its lines.  Let ``J`` be the
ideal of the minimal ``g_c`` of ``B*`` and ``b`` the monic generator of ``J
intersect Q[L]``, ``L = sum s_i``.  For ``r = 1``, ``J = <g_(1)>`` with
``g_(1) = prod_k prod_{j=1..alpha_k} (alpha_k s + j) / alpha_k!``, so ``b =
prod_k prod_j (s + j/alpha_k)``, and a root's multiplicity is the number of
factors that vanish there.  For ``r = 2`` every minimal ``g_c`` is, up to a
constant, a product of lines in the plane of ``(s_1, s_2)``: ``s_i = j`` for
``0 <= j < phi_i`` and ``L_k = -j`` for ``1 <= j <= m_k``.  The b-function
exists, so ``L`` is constant on every flat of ``V(J)`` (the existence test
below), and :func:`_arrangement_roots` reads ``b`` off those flats:

- ``V(J)`` is the lines common to every ``g_c`` plus the points on some line
  of every ``g_c``.  A common line is ``L = gamma``; any other is a fault in
  the engine.  Membership in ``J`` is local at the points of ``V(J)``: ``f``
  lies in ``J`` exactly when it lies in ``J O_q`` for every ``q`` in ``V(J)``.
  At ``q`` every factor ``L - gamma'`` of ``b(L)`` with ``gamma' != L(q)`` is
  a unit, so the multiplicity of a root ``gamma`` is the largest over the
  ``q`` with ``L(q) = gamma`` of the least ``m`` with ``(L - gamma)^m`` in
  ``J O_q``.
- In ``O_q`` each ``g_c`` is a unit times the product ``h_c`` of its factors
  through ``q``, a binary form in ``X = s_1 - q_1``, ``Y = s_2 - q_2``, and
  ``L - gamma = X + Y``.  Let ``I`` be the homogeneous ideal of the ``h_c``.
  For a homogeneous ``f``, ``u f`` in ``I`` with ``u(q) != 0`` gives ``f`` in
  ``I``: the component of ``u f`` of degree ``deg f`` is ``u(q) f``, and ``I``
  holds the components of its members.  So the multiplicity at ``q`` is the
  least ``m`` with ``(X + Y)^m`` in ``I``, a rank test in the forms of degree
  ``m`` (Macaulay's method: Lazard, "Groebner bases, Gaussian elimination and
  resolution of systems of algebraic equations", EUROCAL 1983).
- A bound ends the tests.  Let ``(X + Y)^e`` divide every ``h_c``, and ``h_c
  = (X + Y)^e h'_c``.  Any other common factor of the ``h'_c`` is a line
  through ``q`` common to every ``g_c`` on which ``L`` is not constant, a
  fault in the engine.  So the ``h'_c`` have no common zero in ``P^1``, and
  neither have the forms of ``I'_D``, ``D`` the largest degree of the
  ``h'_c`` (they include ``X^i Y^(D-d) h'_c``).  Two general forms ``f, g``
  of ``I'_D`` are then coprime, so the Sylvester map ``(A, B) -> A f + B g``
  onto the forms of degree ``k`` is onto for ``k >= 2D - 1``: ``I'`` holds
  every form of degree ``>= 2D - 1``, and the multiplicity is at most ``e +
  2D - 1``.  Above ``e`` it is the least ``m`` with ``(X + Y)^m`` in ``I'``.
- The points to test: at a point of ``V(J)`` off the common lines, or on a
  common line with other factors through it, a line of the ``g_c`` with the
  fewest lines meets a different line of another ``g_c`` (if every line of
  every ``g_c`` through ``q`` were one line ``l``, it would be common, and
  every ``h_c`` a power of it: the local ideal is that of a general point of
  ``l``, whose multiplicity is the least multiplicity of ``l`` in a ``g_c``).
  So the meeting points of those lines, each kept when it lies on some line
  of every ``g_c``, together with the common lines, give every root with its
  multiplicity.  At a point the ``g_c`` whose factors through it contain
  another's are redundant, and each coordinate of ``phi`` has at most one
  factor through it, read off a threshold (:func:`_thresholds`).

The factor count ``sum phi`` of each minimal profile, before any line is
listed, then the candidate points and the echelon rows charge one
``REDUCTION_WORK_CAP`` counter per call, so ``<x^(10^30)>`` stops at once.

The truncation polynomial of three or more generators as an elimination
to the last variable.  ``p_B`` is the monic ``p`` of least degree with
``p(L)`` in ``J``, ``L = sum s_i``.  In the coordinates ``y = (s_1, ...,
s_{r-1}, L)`` a linear form ``a . s`` is ``sum_{i<r} (a_i - a_r) y_i + a_r
L``, so :func:`bfunction`
builds every ``g_c`` in ``y`` and ``p_B`` generates ``J intersect Q[L]``
with ``L`` the last variable.  One grevlex basis of ``J`` decides whether
``p_B`` exists; the normal forms ``NF(1), NF(L), NF(L^2), ...`` then first
become linearly dependent at ``k = deg p``, and the coefficients of that
dependency are ``p`` (the step behind FGLM: Faugere, Gianni, Lazard and
Mora, J. Symbolic Comput. 16, 1993).  The existence test:

- Every ``g_c`` is a product of affine-linear forms, ``s_i - j`` and ``L_k
  + j`` with ``L_k = sum_i alpha_ik s_i``.  So ``V(J)`` over ``C`` is a
  finite union of flats ``q + V`` (intersections of unions of hyperplanes),
  and a linear change of coordinates keeps it one.
- If ``p`` exists, the top form of ``p(L)`` is ``L^(deg p)``, so a power of
  ``L`` lies in ``LF(J)``, the ideal of the top-degree forms of the members
  of ``J``.  Conversely, let ``f`` in ``J`` have top form ``L^k``.  On a
  flat ``q + V`` the top coefficient in ``t`` of ``f(q + t v)`` is
  ``L(v)^k``, and ``f`` vanishes there, so ``L(v) = 0`` for every ``v`` in
  ``V``: ``L`` is constant on every flat, with values ``gamma_j``.  Then
  ``prod (L - gamma_j)`` vanishes on ``V(J)``, a power of it lies in ``J``
  (Nullstellensatz), and ``p`` exists.
- Under a graded order ``in(LF(J)) = in(J)``.  Under grevlex with ``L``
  last, a homogeneous polynomial whose lead is ``L^k`` is ``c L^k`` (Bayer
  and Stillman, "A criterion for detecting m-regularity", Invent. Math. 87,
  1987), so ``L^k`` lies in ``in(J)`` exactly when it lies in ``LF(J)``.
- Hence ``p`` exists exactly when some lead of the reduced grevlex basis of
  ``J`` is a pure power of ``L``.  A zero-dimensional ``J`` needs no
  separate case: it has such a lead, and so does the unit ideal (``L^0``).

So :func:`eliminate_minimal_univariate` is exact for every ideal generated
by products of affine-linear forms, and ``p_B``, vanishing exactly at the
values ``gamma_j``, splits over ``Q``: a root search that leaves a factor
of higher degree is a fault in the engine.

The Groebner engine is a deterministic Buchberger with the normal selection
strategy (minimal lcm degree, ties by pair index, read off a heap of pairs
whose lcm is computed once) and the standard product and chain criteria,
under one order, grevlex.  Polynomials are kept as primitive integer
dictionaries, contents stripped after every reduction.  Each monomial is
packed into one int (Monagan-Pearce, CASC 2007): the exponents sit in
fixed-width fields whose top bit is a guard, under the order's weight rows,
so int comparison is the monomial order, a product of monomials is an int
sum, and ``a`` divides ``b`` iff ``((b | G) - a) & G == G`` for the guard
mask ``G``.  The fields are sized before anything is packed; a new
monomial with a guard bit set means an exponent outgrew its field, and the
computation restarts with doubled fields, so exactness never rests on a
size guess.  Reduction work is counted, per step the terms of the reduced
polynomial times the 64-bit words of the cancelled coefficient (and per
power of ``L`` one unit per echelon row it meets), and past
``REDUCTION_WORK_CAP`` units in one elimination (of a b-function: the
bound on its box, its basis and the normal forms of the powers of ``L``
together) it raises :class:`WorkCapExceeded`: a few S-pairs can still swell
coefficients to tens of thousands of bits.  Only
:func:`eliminate_minimal_univariate` takes ``MultiPoly`` inputs, packed
once.  For three or more generators the b-function driver stays packed and
in integers from ``c`` to the roots: each ``g_c`` is built as a primitive
integer polynomial in fields sized from its box's profiles, the normal
forms report the positive scalar they multiplied by, the dependency comes
from a fraction-free echelon, and the rational roots are split off by
integer synthetic division, whose last quotient gives the unfactored
remainder.  The candidate roots come from the divisors of the end
coefficients, whose number is read off their factorization and counted
against ``DIVISORS_CAP`` before any is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from math import ceil, comb, factorial, floor, gcd, prod
from operator import itemgetter, mul
from typing import Optional, Sequence

from .exactnum import Vec, Work, WorkCapExceeded, _bareiss, _integer_row, primitive_vector
from .multipoly import MultiPoly, UniPoly
from .toric import MonomialIdeal, SemigroupData, f_map, minimal_points
from .toric import _semigroup_exponent

__all__ = [
    "monomial_generator",
    "build_generator",
    "eliminate_minimal_univariate",
    "c_vectors",
    "bfunction",
    "rational_roots",
    "BFunctionResult",
    "WorkCapExceeded",
    "GENERATORS_CAP",
    "REDUCTION_WORK_CAP",
    "DIVISORS_CAP",
]

#: Counted work cap: the ``c`` vectors of the one box a ``bfunction`` call
#: lists, counted before any of them is listed.
GENERATORS_CAP = 5_000

#: Counted work cap of one Groebner computation, or of one b-function (the
#: systems of its last box's bound, then its lines or its basis and the
#: normal forms of the powers of ``L``): each reduction or echelon step
#: counts the terms of the reduced polynomial times the 64-bit words of the
#: coefficient it cancels, and each power of ``L`` one unit per echelon row
#: it meets.  Building one ``g_c`` counts the same units per linear factor,
#: with a bound on its coefficients.
REDUCTION_WORK_CAP = 1_600_000

#: Counted work cap of one rational root search: the trial divisions that
#: factor the end coefficients plus their divisor counts, counted before any
#: divisor is listed.
DIVISORS_CAP = 1_000_000


# ---------------------------------------------------------------------------
# generator polynomials
# ---------------------------------------------------------------------------


def _profile(alphas: Sequence[Vec], c: Sequence[int]) -> Vec:
    """``phi(c) = (max(0, -c_i))_i + (max(0, u_k))_k`` with
    ``u = sum c_i alphas_i``: the lengths of the factors of ``g_c``."""
    u = [sum(x * a[k] for x, a in zip(c, alphas)) for k in range(len(alphas[0]))]
    return tuple(max(0, -x) for x in c) + tuple(max(0, x) for x in u)


def _linear_parts(alphas: Sequence[Vec]) -> list[Vec]:
    """Linear parts of the factors of every ``g_c`` in ``s`` coordinates:
    the ``s_i``, then ``L_k = sum_i alpha_ik s_i``."""
    r = len(alphas)
    return [tuple(int(j == i) for j in range(r)) for i in range(r)] + list(zip(*alphas))


def _falling_product(parts: Sequence[Vec], phi: Vec, pack: "_Packing") -> tuple[dict, int, int]:
    """``(g, content, denom)`` with ``g_c = content * g / denom`` and ``g`` a
    primitive integer polynomial packed in ``pack``, whose fields must hold
    its exponents (:meth:`_Packing.for_generators`): the product of the
    falling factors of ``g_c``, multiplied out and divided by its content.

    ``parts`` are the factors' linear parts in any coordinates on ``r``
    variables, the ``r`` of the ``s_i`` first (:func:`_linear_parts`), and
    ``phi`` is the profile: the factors are ``s_i`` of length ``phi_i`` and
    ``L_k + m_k`` of length ``m_k = phi_{r+k}``; ``denom`` is ``prod m!``.
    The product of the factors' 1-norms bounds every coefficient, and the
    build counts against a ``REDUCTION_WORK_CAP`` counter of its own.
    """
    r = len(parts[0])
    g = {0: 1}
    denom, norm = 1, 1
    work = Work("REDUCTION_WORK_CAP", REDUCTION_WORK_CAP)
    for k, (coeffs, m) in enumerate(zip(parts, phi)):
        top = m if k >= r else 0
        shifts = [(w, a) for w, a in zip(pack.weights, coeffs) if a]
        for j in range(m):
            factor = [(0, top - j), *shifts] if top - j else shifts  # one linear form
            out = {}
            for e, v in g.items():
                for w, a in factor:
                    ne = e + w
                    out[ne] = out.get(ne, 0) + v * a
            g = out
            norm *= sum(map(abs, coeffs)) + abs(top - j)
            work.charge(len(g) * (norm.bit_length() + 63 >> 6))
        denom *= factorial(m)
    content = gcd(*g.values())
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
    parts, phi = _linear_parts(alphas), _profile(alphas, c)
    pack = _Packing.for_generators(parts, [phi])
    g, content, denom = _falling_product(parts, phi, pack)
    terms = {pack.decode(e): Fraction(v * content, denom) for e, v in g.items()}
    return MultiPoly._of(len(alphas), terms)


def build_generator(S: SemigroupData, exponents: Sequence[Vec], c: Sequence[int]) -> MultiPoly:
    """Generator ``g_c`` of the b-function ideal for a monomial ideal with
    the given generator ``exponents`` in the semigroup.

    Since the facet map ``F`` is linear, this is :func:`monomial_generator`
    applied to the transported exponents ``F(beta_i)``: the binomial factors
    run over the facets ``sigma`` with ``F_sigma(sum c_i beta_i) > 0``.
    """
    return monomial_generator([f_map(S, b) for b in exponents], c)


def _c_vector_count(r: int, B: int) -> int:
    """``|{c in Z^r : sum c_i = 1, |c_i| <= B}|``: the ``x_i = c_i + B`` lie
    in ``[0, 2B]`` and sum to ``n = 1 + rB``, and inclusion-exclusion over
    the ``j`` coordinates forced past ``2B`` gives ``sum_j (-1)^j C(r, j)
    C(n - j (2B + 1) + r - 1, r - 1)``."""
    n, w = 1 + r * B, 2 * B + 1
    return sum(
        (-1) ** j * comb(r, j) * comb(n - j * w + r - 1, r - 1) for j in range(min(r, n // w) + 1)
    )


def c_vectors(r: int, B: int):
    """All ``c in Z^r`` with ``sum c_i = 1`` and ``|c_i| <= B``, in
    lexicographic order of the first ``r - 1`` coordinates.

    The family is counted first against ``GENERATORS_CAP``, so the cap
    raises :class:`WorkCapExceeded` before any vector is listed.
    """
    if r < 1:
        raise ValueError("need at least one generator")
    Work("GENERATORS_CAP", GENERATORS_CAP).charge(_c_vector_count(r, B))
    out = []
    for head in product(range(-B, B + 1), repeat=r - 1):
        last = 1 - sum(head)
        if -B <= last <= B:
            out.append(head + (last,))
    return out


# ---------------------------------------------------------------------------
# integer-core Buchberger on packed monomials
# ---------------------------------------------------------------------------

# internal polynomials: dict packed monomial -> nonzero int, content 1,
# positive leading coefficient under the order.  A packed monomial is one
# int whose comparison is the order (see ``_Packing``), so the leading
# monomial of ``p`` is ``max(p)`` and a min-heap of negated monomials pops
# them in descending order.


def _grevlex_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Weight rows of the one order on ``n`` variables, graded reverse
    lexicographic: the degree row, then ``-e_{n-1}, ..., -e_1`` (the row
    ``-e_0`` would be implied by the others).  Among monomials of one degree,
    a smaller exponent of the last variable wins, then of the one before."""
    return ((1,) * n, *(tuple(-int(j == i) for j in range(n)) for i in range(n - 1, 0, -1)))


class _FieldOverflow(Exception):
    """A packed exponent outgrew its field; the call restarts wider."""


class _Packing:
    """One int per monomial on ``nvars`` variables, plus ``work``, the
    call's ``REDUCTION_WORK_CAP`` counter (an uncapped one when omitted).

    Exponent ``e_i`` sits in bits ``[i*w, (i+1)*w)`` of width ``w =
    width``; the top bit of each field is a guard, clear while ``e_i <
    2^(w-1)``.  Above the exponents sit the ``_grevlex_rows``, first row
    highest, in signed fields of ``span`` bits, wide enough that any weight
    of in-range exponents stays below a quarter of the field.  Encoding is
    then the dot product of ``e`` with one packed int per variable, so a
    product of monomials is a sum of ints, and int comparison is grevlex:
    the first differing row outweighs all lower rows and the exponents.
    ``a`` divides ``b`` iff no field borrows its guard in ``(b | G) - a``.
    A sum of two in-range exponents stays below ``2^w``, so an exponent
    that outgrows its field sets its guard bit without disturbing the
    others, and every new monomial is checked for that.  One packing serves
    a whole computation: :meth:`run` doubles its fields in place when an
    exponent overflows, and the work counted so far stays.
    """

    def __init__(self, nvars: int, width: int, work: Optional[Work] = None):
        self.nvars, self.work = nvars, work or Work("REDUCTION_WORK_CAP", None)
        self._fields(width)

    @classmethod
    def fitting(cls, polys: Sequence[MultiPoly], cap: Optional[int] = None) -> "_Packing":
        """A packing whose fields hold twice the largest exponent of ``polys``,
        with a new counter of limit ``cap`` (``None`` for no cap)."""
        top = max((x for f in polys for e in f.terms for x in e), default=0)
        return cls(polys[0].nvars, top.bit_length() + 2, Work("REDUCTION_WORK_CAP", cap))

    @classmethod
    def for_generators(cls, parts: Sequence[Vec], profiles, work: Optional[Work] = None):
        """:meth:`fitting` for the ``g_c`` built from ``parts`` at ``profiles``,
        before any is built: a product's degree in ``x_i`` is its factors' sum."""
        n = len(parts[0])
        top = max(sum(m for a, m in zip(parts, phi) if a[i]) for phi in profiles for i in range(n))
        return cls(n, top.bit_length() + 2, work)

    def _fields(self, width: int) -> None:
        nvars = self.nvars
        rows = _grevlex_rows(nvars)
        low = nvars * width
        top = max(sum(map(abs, row)) for row in rows) * ((1 << (width - 1)) - 1)
        span = top.bit_length() + 2
        self.weights = [
            (1 << i * width)
            + sum(row[i] << low + k * span for k, row in enumerate(reversed(rows)))
            for i in range(nvars)
        ]
        self.guard = sum(1 << (i + 1) * width - 1 for i in range(nvars))
        self.width = width

    def run(self, fn, polys: list[dict]):
        """``fn(polys)``, ``polys`` packed here; while an exponent overflows, the
        fields double, ``polys`` are packed again and ``fn`` restarts."""
        while True:
            try:
                return fn(polys)
            except _FieldOverflow:
                self._fields(2 * self.width)
                polys = [self.recode(p, self.width // 2) for p in polys]

    def encode(self, e: Vec) -> int:
        if max(e, default=0) >> self.width - 1:
            raise _FieldOverflow
        return sum(map(mul, e, self.weights))

    def decode(self, m: int) -> Vec:
        w, mask = self.width, (1 << self.width) - 1
        return tuple(m >> i * w & mask for i in range(self.nvars))

    def recode(self, p: dict, width: int) -> dict:
        """``p``, packed in narrower fields of ``width`` bits, packed here."""
        old = _Packing(self.nvars, width)
        return {self.encode(old.decode(m)): c for m, c in p.items()}

    def to_int_poly(self, f: MultiPoly) -> dict:
        return _normalize(dict(zip(map(self.encode, f.terms), _integer_row(f.terms.values()))))


def _normalize(p: dict) -> dict:
    if not p:
        return p
    g = gcd(*p.values())
    if g > 1:
        p = {e: c // g for e, c in p.items()}
    if p[max(p)] < 0:
        p = {e: -c for e, c in p.items()}
    return p


def _reducer(p: dict) -> tuple[int, int, dict]:
    """``(lead, lc, terms)`` of a nonzero internal polynomial."""
    lead = max(p)
    return lead, p[lead], p


def _reduce(
    p: dict, basis: Sequence[tuple[int, int, dict]], pack: _Packing
) -> tuple[dict, int, int]:
    """``(q, num, den)``: the full normal form of ``p`` against the reducers
    ``basis``, exactly ``q = num/den * NF(p)`` with ``num, den > 0`` (integer
    cross-multiplication, contents stripped after every step).

    The terms wait in one heap and are popped in descending order.  A
    reduction at ``e`` only adds terms below ``e``, so each monomial is
    pushed once and the steps are the classic ones: the highest reducible
    term, reduced by the first reducer in list order whose lead divides it.
    A cancelled term stays in ``p`` as 0 until the end.  Each step charges
    the terms of ``p`` times the 64-bit words of the reduced coefficient to
    ``pack.work``.
    """
    guard = pack.guard
    p = dict(p)
    num = den = 1
    heap = [-e for e in p]
    heapify(heap)
    while heap:
        e = -heappop(heap)
        c = p[e]
        if not c:
            continue
        eg = e | guard
        for lead, lc, terms in basis:
            if (eg - lead) & guard == guard:
                break
        else:
            continue
        pack.work.charge(len(p) * (c.bit_length() + 63 >> 6))
        g = gcd(c, lc)
        mult_p = lc // g  # > 0 since basis leads are positive
        mult_g = c // g
        if mult_p != 1:
            num *= mult_p
            for k in p:
                p[k] *= mult_p
        shift = e - lead
        for ge, gc in terms.items():
            ne = ge + shift
            v = p.get(ne)
            if v is None:
                if ne & guard:
                    raise _FieldOverflow
                heappush(heap, -ne)
                p[ne] = -mult_g * gc
            else:
                p[ne] = v - mult_g * gc
        g = gcd(*p.values())
        if g > 1:
            den *= g
            p = {k: v // g for k, v in p.items()}
    return {e: c for e, c in p.items() if c}, num, den


def _normal_form(p: dict, basis: Sequence[tuple[int, int, dict]], pack: _Packing) -> dict:
    """Normal form of ``p`` against ``basis``, primitive with a positive
    lead: :func:`_reduce` up to its scalar."""
    return _normalize(_reduce(p, basis, pack)[0])


def _spoly(f: tuple[int, int, dict], g: tuple[int, int, dict], lcm: int, guard: int) -> dict:
    """S-polynomial of two reducers whose leads have least common multiple
    ``lcm``."""
    (fl, cf, fterms), (gl, cg, gterms) = f, g
    k = gcd(cf, cg)
    mf, mg = cg // k, cf // k
    sf, sg = lcm - fl, lcm - gl
    s: dict = {}
    for e, c in fterms.items():
        ne = e + sf
        s[ne] = s.get(ne, 0) + mf * c
    for e, c in gterms.items():
        ne = e + sg
        v = s.get(ne, 0) - mg * c
        if v:
            s[ne] = v
        else:
            s.pop(ne, None)
    if any(e & guard for e in s):
        raise _FieldOverflow
    return {e: c for e, c in s.items() if c}


def _buchberger(ipolys: list[dict], pack: _Packing) -> list[dict]:
    guard = pack.guard
    R: list[tuple[int, int, dict]] = []  # reducers (lead, lc, terms)
    leads: list[Vec] = []  # their leads as exponent tuples, for the lcm degree
    lcms: dict[tuple[int, int], Vec] = {}  # pending pairs and their lead lcm
    heap: list[tuple[int, int, int]] = []  # (lcm degree, i, j) of pending pairs

    def push(p: dict):
        new = len(R)
        R.append(_reducer(p))
        lead = pack.decode(R[new][0])
        leads.append(lead)
        for i in range(new):
            m = tuple(map(max, leads[i], lead))
            lcms[i, new] = m
            heappush(heap, (sum(m), i, new))

    for p in ipolys:
        push(p)
    while heap:
        _, i, j = heappop(heap)
        m = pack.encode(lcms.pop((i, j)))
        # product criterion: coprime leading monomials
        if R[i][0] + R[j][0] == m:
            continue
        # chain criterion
        mg = m | guard
        if any(
            k not in (i, j)
            and (mg - R[k][0]) & guard == guard
            and (min(i, k), max(i, k)) not in lcms
            and (min(j, k), max(j, k)) not in lcms
            for k in range(len(R))
        ):
            continue
        nf = _normal_form(_spoly(R[i], R[j], m, guard), R, pack)
        if nf:
            push(nf)
    # minimalize: drop elements whose lead is divisible by another's
    basis: list[tuple[int, int, dict]] = []
    for red in sorted(R, key=itemgetter(0)):
        eg = red[0] | guard
        if not any((eg - lead) & guard == guard for lead, _, _ in basis):
            basis.append(red)
    # inter-reduce tails
    for idx in range(len(basis)):
        others = basis[:idx] + basis[idx + 1 :]
        if others:
            basis[idx] = _reducer(_normal_form(basis[idx][2], others, pack))
    return [p for _, _, p in sorted(basis, key=itemgetter(0))]


def groebner_basis(polys: Sequence[dict], pack: _Packing) -> list[dict]:
    """Reduced Groebner basis in grevlex of ``<polys>``, nonzero integer
    polynomials packed in ``pack``: primitive with positive leads, in
    ascending order of leads, packed in ``pack`` as it is on return.

    Deterministic: Buchberger with normal pair selection (minimal lcm total
    degree, ties by pair index) plus the product and chain criteria; the
    reduced basis is unique for the ideal regardless.  The work is charged
    to ``pack.work``, and the fields widen in place as needed, so a caller's
    later steps share the one counter; past its cap
    :class:`WorkCapExceeded`.
    """
    if not all(polys):
        raise ValueError("generators must be nonzero")
    return pack.run(lambda polys: _buchberger(polys, pack), list(map(_normalize, polys)))


def verify_groebner_basis(gens: Sequence[dict], gb: Sequence[dict], pack: _Packing) -> None:
    """Raise ``AssertionError`` unless ``gb`` behaves like a Groebner basis
    for ``<gens>``, both packed in ``pack``: all inputs and all S-polynomials
    reduce to zero, in an uncapped packing that never charges ``pack.work``."""
    check = _Packing(pack.nvars, pack.width)

    def run(polys: list[dict]) -> None:
        ib = [_reducer(g) for g in polys[len(gens) :]]
        for f in polys[: len(gens)]:
            if _normal_form(f, ib, check):
                raise AssertionError("input generator does not reduce to zero")
        for j in range(len(ib)):
            for i in range(j):
                m = check.encode(tuple(map(max, check.decode(ib[i][0]), check.decode(ib[j][0]))))
                s = _spoly(ib[i], ib[j], m, check.guard)
                if s and _normal_form(s, ib, check):
                    raise AssertionError("S-polynomial does not reduce to zero")

    check.run(run, [*gens, *gb])


def _krylov(basis: Sequence[tuple[int, int, dict]], pack: _Packing) -> UniPoly:
    """Monic minimal ``p`` with ``p(x_last)`` in the ideal of the Groebner
    basis ``basis``, ``x_last`` the last variable; if none exists, only the
    work cap ends the loop.

    ``w_k`` is the reduced ``x_last * w_{k-1}`` (``w_0`` the reduced 1), one
    packed shift per step, so ``w_k = s_k * NF(x_last^k)`` for the product
    ``s_k`` of the scalars :func:`_reduce` reports.  Each ``w_k`` joins a
    fraction-free echelon that carries, per row, its integer combination of
    the ``w_j``; the first ``w_k`` that reduces to zero gives ``sum a_j w_j =
    0``, so ``p`` is ``sum a_j s_j t^j`` made monic.  An echelon step charges
    the terms of the reduced vector times the 64-bit words of the cancelled
    entry, like a reduction step, and each ``w_k`` one unit per row it
    meets, so the count grows with the loop even when every ``w_k`` is one
    monomial that no row cancels.
    """
    guard, step = pack.guard, pack.weights[-1]
    rows: list[tuple[int, dict, list[int]]] = []  # (pivot, vector, combination)
    scales: list[tuple[int, int]] = []  # s_k as (numerator, denominator)
    w, num, den = {0: 1}, 1, 1
    while True:
        w, n, d = _reduce(w, basis, pack)
        num, den = num * n, den * d
        scales.append((num, den))
        v, comb = dict(w), [0] * (len(scales) - 1) + [1]
        pack.work.charge(len(rows))
        for pivot, row, rcomb in rows:
            a = v.get(pivot)
            if not a:
                continue
            pack.work.charge(len(v) * (a.bit_length() + 63 >> 6))
            b = row[pivot]
            g = gcd(a, b)
            mv, mr = b // g, a // g
            if mv != 1:  # most pivots are units: skip scaling by 1
                v = {e: x * mv for e, x in v.items()}
                comb = [x * mv for x in comb]
            for e, y in row.items():
                v[e] = v.get(e, 0) - mr * y
            for j, y in enumerate(rcomb):
                comb[j] -= mr * y
            g = gcd(*v.values(), *comb)
            if g > 1:
                v = {e: x // g for e, x in v.items()}
                comb = [x // g for x in comb]
        v = {e: x for e, x in v.items() if x}
        if not v:
            top = comb[-1] * num
            return UniPoly([Fraction(c * sn * den, top * sd) for c, (sn, sd) in zip(comb, scales)])
        rows.append((max(v), v, comb))
        w = {e + step: c for e, c in w.items()}
        if any(e & guard for e in w):
            raise _FieldOverflow


def _eliminate(polys: list[dict], pack: _Packing) -> Optional[UniPoly]:
    """:func:`eliminate_minimal_univariate` of nonzero ``polys`` packed in
    ``pack``.  A lead with no front field set is a power of ``x_last``; the
    basis is packed again only if :func:`_krylov` widens the fields."""
    basis = groebner_basis(polys, pack)
    front = (1 << (pack.nvars - 1) * pack.width) - 1
    if all(max(p) & front for p in basis):
        return None  # every lead has a front variable, none is a power of x_last
    return pack.run(lambda basis: _krylov(list(map(_reducer, basis)), pack), basis)


def eliminate_minimal_univariate(gens: Sequence[MultiPoly]) -> Optional[UniPoly]:
    """Monic generator of ``<gens> intersect Q[x_last]``, ``x_last`` the last
    variable, or ``None`` when that intersection is zero.  Exact when every
    generator is a product of affine-linear forms (the module docstring
    gives the proof); :func:`bfunction` writes its ``g_c`` in coordinates
    whose last one is ``L = sum s_i``.  On other ideals a pure-power lead
    need not give a polynomial (``<y^2 - x>`` has the lead ``y^2``), and the
    call then ends with :class:`WorkCapExceeded`.

    One grevlex basis of ``J = <gens>`` decides: ``p`` exists exactly when
    some lead is a pure power of ``x_last``.  The normal forms of the powers
    of ``x_last`` (:func:`_krylov`) then first become dependent at ``deg
    p``.  The generators are packed once, and the core shared with
    :func:`bfunction` counts the basis and the normal forms against one
    ``REDUCTION_WORK_CAP``.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return None
    if any(p.nvars != polys[0].nvars for p in polys):
        raise ValueError("generators live in different rings")
    pack = _Packing.fitting(polys, REDUCTION_WORK_CAP)
    return _eliminate([pack.to_int_poly(p) for p in polys], pack)


# ---------------------------------------------------------------------------
# rational roots
# ---------------------------------------------------------------------------


def _positive_divisors(n: int, work: Work) -> list[int]:
    """Ascending positive divisors of ``n != 0``, listed from its
    factorization by trial division (each prime found is divided out).  Their
    cost is charged to ``work``, the ``DIVISORS_CAP`` counter of the root
    search: one unit per trial division, then the divisor count ``prod (e_i
    + 1)`` read off the factorization, before any divisor is listed."""
    n = abs(n)
    factors = []
    p = 2
    while p * p <= n:
        work.charge(1)
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            factors.append((p, k))
        p += 1
    if n > 1:
        factors.append((n, 1))
    work.charge(prod(k + 1 for _, k in factors))
    divs = [1]
    for p, k in factors:
        powers = [p**j for j in range(k + 1)]
        divs = [d * q for d in divs for q in powers]
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
    a = _integer_row(p.coeffs)
    g = gcd(*a)
    mult0 = next(i for i, c in enumerate(a) if c)
    a = [c // g for c in a[mult0:]]
    roots: list[tuple[Fraction, int]] = [(Fraction(0), mult0)] if mult0 else []
    if len(a) > 1:
        lead = abs(a[-1])
        reach = lead + max(abs(c) for c in a[:-1])  # |num| * lead <= den * reach
        work = Work("DIVISORS_CAP", DIVISORS_CAP)
        nums, dens = _positive_divisors(a[0], work), _positive_divisors(lead, work)
        for den in dens:
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
    """Outcome of the b-function computation; every returned result is
    certified.

    ``b`` is monic with ``b = prod (s - root)^mult * unfactored_remainder``
    exactly; ``b`` splits over ``Q``, so the remainder is always 1 (the
    field is kept for the report).  ``box_used`` is the proved last box
    ``B*`` of the module docstring, whose minimal ``g_c`` give ``b``, and
    ``truncation`` is its single entry ``(B*, b)``.  ``stabilized`` is
    always ``True`` (the field is kept for the report).  ``generator_count``
    is the number of ``g_c`` in ``B*``, all of them nonzero; only those of
    minimal profile were used.
    """

    b: UniPoly
    roots: tuple[tuple[Fraction, int], ...]
    unfactored_remainder: UniPoly
    box_used: int
    stabilized: bool
    generator_count: int
    truncation: tuple[tuple[int, UniPoly], ...]


def _direction(v: Sequence[int]) -> Vec:
    """The primitive form of the nonzero integer ``v`` with its first
    nonzero entry positive: one key per line through 0."""
    v = primitive_vector(v)
    return v if next(x for x in v if x) > 0 else tuple(-x for x in v)


def _kernel_line(rows: Sequence[Vec], n: int) -> Optional[Vec]:
    """The :func:`_direction` of the kernel of ``n - 1`` integer ``rows`` in
    ``n`` unknowns; ``None`` when their rank is below ``n - 1``.  After the
    fraction-free elimination row ``i`` reads ``p x_(pivot i) + a_i x_free =
    0``."""
    a, pivots, p = _bareiss(rows)
    if len(pivots) < n - 1:
        return None
    free = next(j for j in range(n) if j not in pivots)
    w = [0] * n
    w[free] = p
    for row, j in zip(a, pivots):
        w[j] = -row[free]
    return _direction(w)


def _chamber_box(alphas: Sequence[Vec], work: Work) -> int:
    """The chamber bound ``B*`` of the module docstring for generators with
    transported exponents ``alphas``, read off the vertices and the
    primitive ray directions of the arrangement of the distinct forms on
    ``sum c = 1``.  The systems are counted against ``work`` before any is
    solved."""
    r = len(alphas)
    forms = sorted({_direction(f) for f in _linear_parts(alphas) if len(set(f)) > 1})
    work.charge(sum(comb(len(forms), k) for k in (r - 1, r - 2) if k >= 0))
    top = [Fraction(0)] * r  # M_i, the largest |v_i| over the vertices v
    for rows in combinations(forms, r - 1):
        w = _kernel_line(rows, r)
        if w and sum(w):  # off sum c = 0: the vertex w / sum(w)
            top = [max(m, Fraction(abs(x), abs(sum(w)))) for m, x in zip(top, w)]
    rays = set()  # the directions d of the rays, each up to sign
    for rows in combinations(forms, r - 2) if r > 1 else ():
        rays.add(_kernel_line([*rows, (1,) * r], r))
    rays.discard(None)
    box = 1
    for i, m in enumerate(top):
        reach = sum(sorted((abs(d[i]) for d in rays), reverse=True)[: r - 1])  # R_i
        box = max(box, ceil(m) + reach - 1 if reach else floor(m))
    return box


def _complete_box(alphas: Sequence[Vec], work: Work) -> int:
    """The proved last box ``B*`` that holds every minimal profile for
    generators with transported exponents ``alphas`` (the module docstring
    gives the proof): the closed form for one or two generators, the
    chamber bound counted against ``work`` for more."""
    if len(alphas) == 1:
        return 1
    if len(alphas) > 2:
        return _chamber_box(alphas, work)
    t_hi, t_lo = 1, 0
    for a1, a2 in zip(*alphas):
        if a1 < a2:
            t_hi = max(t_hi, -(-a2 // (a2 - a1)))
        elif a1 > a2:
            t_lo = min(t_lo, a2 // (a2 - a1))
    return max(t_hi, 1 - t_lo)


def _plane_lines(alphas: Sequence[Vec], phi: Vec) -> dict:
    """The factors of ``g_c`` for two generators as primitive integer lines
    ``(a, b, c)``, ``a s_1 + b s_2 + c = 0`` with the first of ``a, b``
    positive, mapped to their multiplicities: ``s_i = j`` for ``j < phi_i``,
    then ``L_k = -j`` for ``j = 1 .. m_k``."""
    lines = {(1, 0, -j): 1 for j in range(phi[0])}
    for j in range(phi[1]):
        lines[0, 1, -j] = 1
    for a, b, m in zip(*alphas, phi[2:]):
        for j in range(1, m + 1):
            g = gcd(a, b, j)
            line = (a // g, b // g, j // g)
            lines[line] = lines.get(line, 0) + 1
    return lines


def _meet(l1: tuple, l2: tuple) -> Optional[tuple]:
    """The meeting point of two lines ``(a, b, c)`` as the primitive integer
    ``(x, y, z)``, ``z > 0``, of the point ``(x/z, y/z)``; ``None`` when they
    are parallel."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    z = a1 * b2 - b1 * a2
    if not z:
        return None
    x, y = b1 * c2 - c1 * b2, c1 * a2 - a1 * c2
    g = gcd(x, y, z) if z > 0 else -gcd(x, y, z)
    return x // g, y // g, z // g


def _thresholds(parts: Sequence[Vec], q: tuple) -> list[int]:
    """Per coordinate of a profile, the least length at which its falling
    product has a factor through ``q = (x, y, z)``, 0 for none: ``s_i = j``
    needs ``phi_i > j >= 0``, and ``L_k = -j`` needs ``m_k >= j >= 1``."""
    x, y, z = q
    out = []
    for i, (a, b) in enumerate(parts):
        v, rest = divmod(a * x + b * y, z)
        out.append(0 if rest else max(0, v + 1 if i < 2 else -v))
    return out


def _reaches(forms: list[list[int]], m: int, work: Work) -> bool:
    """Is ``U^m`` in the degree-``m`` span of the binary forms ``forms``
    (coefficients by ascending degree in ``Y``, ``U`` the other variable)?
    Their multiples ``Y^j h`` are the rows of a fraction-free integer
    echelon with pivots taken from the highest power of ``Y`` down, so
    ``U^m`` lies in the span exactly when the column of ``U^m`` gets a pivot.
    Each row charges one unit to ``work``."""
    pivots: dict[int, list[int]] = {}
    for h in forms:
        for j in range(m + 2 - len(h)):
            work.charge(1)
            v = [0] * j + h + [0] * (m + 1 - len(h) - j)
            while any(v):
                top = max(i for i, x in enumerate(v) if x)
                w = pivots.get(top)
                if w is None:
                    pivots[top] = v
                    if top == 0:
                        return True
                    break
                v = [w[top] * x - v[top] * y for x, y in zip(v, w)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
    return False


def _local_multiplicity(factors: list[dict], work: Work) -> int:
    """The least ``m`` with ``(X + Y)^m`` in the ideal of the binary forms
    ``prod (a X + b Y)^k`` over each ``{(a, b): k}`` of ``factors``: the
    multiplicity of ``L - L(q)`` at the point ``q`` they pass through (the
    module docstring gives the proof).  The power ``e`` of ``X + Y`` common
    to all is divided out; what is left has no common factor, and with its
    largest degree ``D`` the answer is at most ``e + 2D - 1``."""
    e = min(f.get((1, 1), 0) for f in factors)
    if set(factors[0]).intersection(*factors[1:]) - {(1, 1)}:
        raise AssertionError("the factors through a point share a line on which L is not constant")
    forms = []  # in U = X + Y and Y: a X + b Y = a U + (b - a) Y
    for f in factors:
        h = [1]
        for (a, b), k in f.items():
            for _ in range(k - e if a == b else k):
                h = [a * u + (b - a) * y for u, y in zip(h + [0], [0] + h)]
        forms.append(h)
    low, top = min(map(len, forms)) - 1, max(map(len, forms)) - 1
    if not low:
        return e
    for m in range(low, 2 * top):
        if _reaches(forms, m, work):
            return e + m
    raise AssertionError("no power of L - L(q) within the bound lies in the local ideal")


def _arrangement_roots(
    alphas: Sequence[Vec], profiles: Sequence[Vec], work: Work
) -> list[tuple[Fraction, int]]:
    """The roots of the b-function of one or two generators, ascending with
    their multiplicities, read off the linear factors of the ``g_c`` of the
    minimal ``profiles`` of the proved last box (the module docstring gives
    the proof).  The factor count of each profile, then the candidate
    points and the echelon rows charge ``work``, the call's
    ``REDUCTION_WORK_CAP`` counter."""
    for phi in profiles:
        work.charge(sum(phi))
    mult: dict[Fraction, int] = {}
    if len(alphas) == 1:  # the factors alpha_k s + j of g_(1)
        for a in alphas[0]:
            for j in range(1, a + 1):
                root = Fraction(-j, a)
                mult[root] = mult.get(root, 0) + 1
        return sorted(mult.items())
    flat = [_plane_lines(alphas, phi) for phi in profiles]
    for line in set(flat[0]).intersection(*flat[1:]):
        a, b, c = line
        if a != b:
            raise AssertionError("a line common to every g_c on which L is not constant")
        gamma = Fraction(-c, a)
        mult[gamma] = max(mult.get(gamma, 0), min(f[line] for f in flat))
    fewest, every = min(flat, key=len), set().union(*flat)
    work.charge(len(fewest) * len(every))
    points = {q for l1 in fewest for l2 in every if (q := _meet(l1, l2))}
    parts = [(1, 0), (0, 1), *zip(*alphas)]
    directions = [(a // gcd(a, b), b // gcd(a, b)) if a or b else None for a, b in parts]
    for q in points:
        rho = _thresholds(parts, q)
        masks = set()  # per g_c, the coordinates whose factor passes through q
        for phi in profiles:
            mask = sum(1 << i for i, (m, t) in enumerate(zip(phi, rho)) if t and m >= t)
            if not mask:
                break
            masks.add(mask)
        else:  # on some line of every g_c: q lies in V(J)
            factors = []
            for mask in masks:
                if not any(m & mask == m != mask for m in masks):  # a minimal one
                    f: dict = {}
                    for i, d in enumerate(directions):
                        if mask >> i & 1:
                            f[d] = f.get(d, 0) + 1
                    factors.append(f)
            gamma = Fraction(q[0] + q[1], q[2])
            mult[gamma] = max(mult.get(gamma, 0), _local_multiplicity(factors, work))
    return sorted(mult.items())


def bfunction(S: SemigroupData, ideal) -> BFunctionResult:
    """Bernstein-Sato polynomial of a monomial ideal, certified.

    ``ideal`` may be a :class:`MonomialIdeal` (its minimal generators are
    used) or an explicit sequence of generator exponents (checked as
    :func:`~toricbsato.toric.monomial_ideal` checks them, then used as
    given, which the generator-independence property makes legitimate).
    The one box is the proved last box ``B*`` (:func:`_complete_box`), whose
    ideal is the whole family's; it is generated by the ``g_c`` of minimal
    profile ``phi(c)``, one per minimal profile, so only those are used.
    For one or two generators the roots of ``b`` with their multiplicities
    are read off the lines of those ``g_c`` (:func:`_arrangement_roots`),
    with no Groebner basis and no root search.  For more, each ``g_c`` is
    built from its profile in the coordinates ``(s_1, ..., s_{r-1}, L)``,
    ``L = sum s_i`` last, straight into a packing sized from the profiles,
    ``b`` comes from :func:`eliminate_minimal_univariate`'s packed core and
    its roots from :func:`rational_roots`.  The only other way out is a
    counted cap: ``GENERATORS_CAP`` on the ``c`` vectors of ``B*``,
    ``REDUCTION_WORK_CAP`` on the bound, the lines or the elimination of
    one call, or ``DIVISORS_CAP`` within the root search raises
    :class:`WorkCapExceeded`.
    """
    if isinstance(ideal, MonomialIdeal):
        betas = ideal.generators
    else:
        betas = tuple(_semigroup_exponent(S, v) for v in ideal)
    if not betas:
        raise ValueError("the ideal needs at least one generator")
    r = len(betas)
    alphas = [f_map(S, b) for b in betas]
    work = Work("REDUCTION_WORK_CAP", REDUCTION_WORK_CAP)
    last = _complete_box(alphas, work)
    cs = c_vectors(r, last)
    profiles = [phi for phi, _ in minimal_points((_profile(alphas, c), c) for c in cs)]
    if r <= 2:  # b is read off the lines of the minimal g_c
        roots = _arrangement_roots(alphas, profiles, work)
        b = UniPoly.from_roots([x for x, k in roots for _ in range(k)])
        remainder = UniPoly([1])
    else:
        # the factors' linear parts in y = (s_1, ..., s_{r-1}, L): a . s = a' . y
        parts = [(*(x - a[-1] for x in a[:-1]), a[-1]) for a in _linear_parts(alphas)]
        pack = _Packing.for_generators(parts, profiles, work)
        b = _eliminate([_falling_product(parts, phi, pack)[0] for phi in profiles], pack)
        if b is None:
            raise AssertionError("the whole family's ideal holds no polynomial in L")
        roots, remainder = rational_roots(b)
        if remainder.degree > 0:
            raise AssertionError("a b-function with an irrational root")
    return BFunctionResult(
        b=b,
        roots=tuple(roots),
        unfactored_remainder=remainder,
        box_used=last,
        stabilized=True,
        generator_count=len(cs),
        truncation=((last, b),),
    )
