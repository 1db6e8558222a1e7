"""Multiplier ideals, log-canonical thresholds and jumping coefficients.

Everything runs through one geometric engine: transport a monomial ideal
along the facet map ``F`` into the orthant, take the Newton polyhedron of
the transported exponents (built once per ideal, on the ideal), and answer
membership questions about dilations of that polyhedron exactly.  A
monomial ``y^v`` lies in the multiplier ideal at parameter ``alpha``
precisely when ``F(v) + e`` lies in the relative interior of ``alpha``
times the polyhedron, where ``e`` is the all-ones vector indexed by
facets; twisted by a boundary divisor ``w``, the point is ``F(v - w)``.
Jumping coefficients are the parameter values where a lattice point of
the image ``F(NA)`` sits on the boundary; each reported one comes with a
lattice witness that is re-checked exactly.

Both lattice scans are one lattice walk, ``exactnum._lattice_lines``.
Minimal generators come from one walk of ``Z^d`` over a box that provably
holds them all.  A jumping witness on a tight facet solves an integer
inequality system over the kernel lattice of that facet, whose rows are
affine in ``alpha``: one Fourier-Motzkin elimination per facet, with
``alpha`` kept as a coordinate, projects the system for every candidate,
and each candidate only evaluates the projections at ``alpha = num /
den``.  In dimension >= 3 the witness lies in finite windows around the
rounded Fourier-Motzkin point, each walked through the evaluated
projections, so a coordinate is solved only where a real point remains;
that output carries an honest ``search_mode`` flag, not a silent claim of
completeness.  Three counted caps bound one
call, each a :class:`~toricbsato.exactnum.Work` counter charged before the
work is visited: the line solves and members of a generating-box scan
(``toric.SCAN_POINTS_CAP``, the one cap of every lattice scan), the jumping
candidates of a window (``CANDIDATES_CAP``) and the volume of the witness
windows (``WINDOW_POINTS_CAP``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, floor, prod
from operator import add
from typing import Optional, Sequence, Union

from . import toric
from .bsato import bfunction
from .exactnum import IntMatrix, Vec, Work, WorkCapExceeded, _fm_levels, _fm_witness, dot
from .exactnum import _lattice_lines, _rational, kernel_lattice_basis
from .polyhedra import NewtonPolyhedron, _vertex_rays, membership
from .toric import (
    MonomialIdeal,
    SemigroupData,
    _semigroup_exponent,
    build_semigroup,
    f_map,
    minimal_points,
    monomial_ideal,
)

__all__ = [
    "MultiplierIdealResult",
    "JumpingReport",
    "CorrespondenceReport",
    "transport",
    "transport_polynomial",
    "transported_polyhedron",
    "multiplier_ideal",
    "multiplier_ideal_with_boundary",
    "lct",
    "jumping_coefficients",
    "verify_correspondence",
    "identity_semigroup",
    "ambient_pair",
    "WorkCapExceeded",
]

Rational = Union[int, Fraction]

#: Witness-search windows in dimension >= 3 have radius ``WINDOW0 * KAPPA^i``
#: for ``i <= EXPANSIONS``.
WINDOW0 = 4
EXPANSIONS = 2
KAPPA = 3

#: Counted work caps, checked before the work starts: the jumping candidates
#: of one window, and the lattice points of all witness windows of one call.
CANDIDATES_CAP = 10_000
WINDOW_POINTS_CAP = 10_000_000


# ---------------------------------------------------------------------------
# transport along the facet map
# ---------------------------------------------------------------------------


def transport(S: SemigroupData, ideal) -> tuple[Vec, ...]:
    """Minimal generator exponents of the transported monomial ideal.

    ``ideal`` is a :class:`MonomialIdeal` or a plain list of exponent
    vectors.  The result lists ``F(beta)`` for the minimal generators
    ``beta``, sorted; since divisibility in the semigroup matches
    componentwise comparison of ``F``-images, this is also the minimal
    generating set of the transported ideal in the orthant.
    """
    return tuple(sorted(f_map(S, b) for b in monomial_ideal(S, ideal).generators))


def transport_polynomial(
    S: SemigroupData, term_lists: Sequence[Sequence[tuple[Rational, Sequence[int]]]]
) -> list[list[tuple[Fraction, Vec]]]:
    """Transport polynomial generators termwise: ``y^beta`` becomes
    ``x^{F(beta)}`` with coefficients untouched.

    Each generator is a list of ``(coefficient, exponent)`` terms with int
    or Fraction coefficients and integer exponents (a float, or a Fraction
    exponent, raises ``TypeError``).  Raises ``ValueError`` if an exponent
    has the wrong dimension or lies outside the semigroup.
    """
    out = []
    for terms in term_lists:
        mapped: dict[Vec, Fraction] = {}
        for coeff, beta in terms:
            q = f_map(S, _semigroup_exponent(S, beta))
            mapped[q] = mapped.get(q, Fraction(0)) + _rational(coeff)
        out.append(sorted(((e, c) for e, c in mapped.items() if c != 0)))
    return [[(c, e) for e, c in terms] for terms in out]


def transported_polyhedron(S: SemigroupData, ideal) -> NewtonPolyhedron:
    """Newton polyhedron of the transported ideal inside the orthant
    indexed by facets (recession cone = the full orthant), as cached on
    ``monomial_ideal(S, ideal)``."""
    return monomial_ideal(S, ideal).transported_polyhedron


def identity_semigroup(n: int) -> SemigroupData:
    """The free semigroup ``N^n`` (polynomial-ring case, A = identity)."""
    return build_semigroup(IntMatrix.identity(n))


def ambient_pair(S: SemigroupData, ideal) -> tuple[SemigroupData, MonomialIdeal]:
    """The transported pair: the free semigroup on the facet coordinates
    together with the transported monomial ideal."""
    S_free = identity_semigroup(S.nfacets)
    return S_free, monomial_ideal(S_free, transport(S, ideal))


# ---------------------------------------------------------------------------
# multiplier ideals by box enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierIdealResult:
    """Minimal generators of a multiplier ideal at one parameter value.

    ``generators`` are exponents ``v`` in the semigroup, an antichain under
    semigroup divisibility, sorted.  ``box_used`` is the componentwise
    bound on ``F(v)`` that provably holds every minimal generator, read off
    the member region's vertices; it clips each line of the complete scan,
    so ``stabilized`` is always ``True``.
    """

    alpha: Fraction
    mode: str
    generators: tuple[Vec, ...]
    box_used: tuple[int, ...]
    stabilized: bool


def _minimal_members(
    S: SemigroupData, ideal: MonomialIdeal, alpha: Fraction, mode: str, shift: Sequence
) -> MultiplierIdealResult:
    """Minimal semigroup points ``v`` with ``F(v) - shift`` in the relative
    interior (relint mode) or in (closed mode) ``alpha`` times the ideal's
    transported polyhedron: each facet ``(l, c)`` of it gives the cut
    ``(l F) . v > alpha c + l . shift`` (``>=`` when closed).

    Rounded to integer right-hand sides, the cuts and ``F(v) >= 0`` cut out
    a polyhedron ``R`` with recession cone ``cone(A)`` whose lattice points
    are the members.  By Caratheodory a member is ``p + sum mu_j a_j`` with
    ``p`` in the hull of the vertices of ``R`` and at most ``d`` nonzero
    ``mu_j >= 0``, and removing ``sum floor(mu_j) a_j`` leaves a member
    dividing it.  So for every integer functional ``f`` each minimal
    generator has ``f . v <= max_vertex f + reach``, the reach being the
    sum of the ``d`` largest positive ``f . a_j``.  The vertices come as
    the integer rays ``(y_0, x)`` of the homogenized region
    (:func:`~toricbsato.polyhedra._vertex_rays`), vertex ``x / y_0``; since
    the reach is an integer, ``max floor(f . x / y_0) + reach`` is that
    bound rounded down, in integers.

    Read off the facets, the bound is the box ``F_k(v) <= box_k`` reported
    as ``box_used``; read off the unit vectors and their negatives, it
    gives each exponent ``v_i`` an interval.  One lattice walk in ``Z^d``
    runs over the heads of the first ``d - 1`` intervals and solves each
    line of the last one exactly against the region rows and the box rows,
    so every ``t`` of the solved interval is a member.  ``SCAN_POINTS_CAP``
    counts the work paid for: the heads (one line solve each) before the
    walk, then each line's members before they are listed.  Along a line
    ``F(v)`` steps by ``F(e_d)``."""
    region = {f: 0 for f in S.facets}  # row -> integer right-hand side
    for ell, c in ideal.transported_polyhedron.facets:
        t = alpha * c + dot(ell, shift)
        b = floor(t) + 1 if mode == "relint" else ceil(t)
        row = tuple(dot(ell, col) for col in zip(*S.facets))  # l F
        region[row] = max(b, region.get(row, b))
    vertices = _vertex_rays(list(region.items()))
    cols = S.A.columns()

    def reach(steps) -> int:  # the sum of the d largest positive steps
        return sum(sorted((x for x in steps if x > 0), reverse=True)[: S.d])

    box = [
        max(dot(f, y[1:]) // y[0] for y in vertices) + reach(dot(f, a) for a in cols)
        for f in S.facets
    ]
    spans = [  # lo <= v_i <= hi on every minimal generator
        (min(-(-y[i + 1] // y[0]) for y in vertices) - reach(-x for x in row),
         max(y[i + 1] // y[0] for y in vertices) + reach(row))
        for i, row in enumerate(zip(*cols))
    ]
    work = Work("SCAN_POINTS_CAP", toric.SCAN_POINTS_CAP)
    work.charge(prod(hi - lo + 1 for lo, hi in spans[:-1]))
    bounds = [[(1, lo), (-1, -hi)] for lo, hi in spans]
    # the region rows, and -F_k(v) >= -box_k
    rows = list(region.items()) + [(tuple(-x for x in f), -b) for f, b in zip(S.facets, box)]
    members: list[tuple[Vec, Vec]] = []  # (q, v)
    step = tuple(f[-1] for f in S.facets)  # F(e_d)
    for head, lo, hi in _lattice_lines([[]] * (S.d - 1) + [rows], bounds):
        work.charge(hi - lo + 1)
        q = f_map(S, head + (lo,))
        for t in range(lo, hi + 1):
            members.append((q, head + (t,)))
            q = tuple(map(add, q, step))
    gens = tuple(sorted(v for _, v in minimal_points(members)))
    return MultiplierIdealResult(alpha, mode, gens, tuple(box), stabilized=True)


def _check_alpha_mode(alpha: Rational, mode: str) -> Fraction:
    alpha = _rational(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if mode not in ("relint", "closed"):
        raise ValueError("mode must be 'relint' or 'closed'")
    return alpha


def multiplier_ideal(
    S: SemigroupData,
    ideal,
    alpha: Rational,
    mode: str = "relint",
) -> MultiplierIdealResult:
    """Multiplier ideal of a monomial ideal at parameter ``alpha``.

    ``mode="relint"`` is the multiplier ideal proper (``F(v) + e`` in the
    relative interior of the dilated transported polyhedron);
    ``mode="closed"`` is its left limit, the ideal "just below" ``alpha``.
    Assumes a normal semigroup.  Each facet ``(l, c)`` of the polyhedron
    gives the cut ``(l F) . v > alpha c - l . e``; one scan of the exact
    generating box of :func:`_minimal_members` finds the generators.
    """
    alpha = _check_alpha_mode(alpha, mode)
    ideal = monomial_ideal(S, ideal)
    return _minimal_members(S, ideal, alpha, mode, tuple(-x for x in S.e))


def multiplier_ideal_with_boundary(
    S: SemigroupData,
    ideal,
    w: Sequence[Rational],
    alpha: Rational,
    mode: str = "relint",
) -> MultiplierIdealResult:
    """Multiplier ideal twisted by a boundary divisor encoded by ``w``.

    ``w`` is a rational vector in the character space; the associated
    boundary divisor is effective exactly when ``F(w) >= -e``, which is
    enforced.  Membership is ``v - w`` in the interior of ``alpha`` times
    the Newton polyhedron ``P`` of the ideal in the character space, read
    off the transported polyhedron ``T``: facet ``(l, c)`` of ``T`` gives
    the cut ``(l F) . v > alpha c + l . F(w)``.  This is exact since
    ``F(P) = T ∩ F(R^d)`` (a vector ``r >= 0`` in ``F(R^d)`` is ``F`` of a
    point of the cone) and ``F(R^d)`` meets the interior of ``alpha T``:
    each facet functional has ``l >= 0``, ``l != 0``, so it grows without
    bound along ``F(t sum_j a_j)``, whose coordinates are all positive.
    So the strict cuts cut out the image of the interior of ``alpha P``."""
    alpha = _check_alpha_mode(alpha, mode)
    ideal = monomial_ideal(S, ideal)
    wq = tuple(map(_rational, w))
    if len(wq) != S.d:
        raise ValueError("w must live in the character space")
    shift = f_map(S, wq)
    if any(x < -1 for x in shift):
        raise ValueError("boundary divisor not effective")
    return _minimal_members(S, ideal, alpha, mode, shift)


# ---------------------------------------------------------------------------
# thresholds and jumping coefficients
# ---------------------------------------------------------------------------


def lct(S: SemigroupData, ideal):
    """Log-canonical threshold: the dilation at which the all-ones point
    ``e`` hits the boundary of the transported polyhedron.  Returns a
    ``Fraction``, or ``None`` (unbounded) for the unit ideal, as cached on
    ``monomial_ideal(S, ideal)``."""
    return monomial_ideal(S, ideal).lct


@dataclass(frozen=True)
class JumpingReport:
    """Jumping coefficients up to ``window_max``, each with a witness.

    A witness for ``alpha`` is an exponent ``v`` in the semigroup whose
    image ``F(v) + e`` lies on the boundary of the ``alpha``-dilated
    polyhedron (closed member, not interior) — checked exactly before being
    reported.  ``search_mode`` is ``"exact"`` when the witness search is
    provably complete (character space of dimension <= 2) and
    ``"windowed"`` otherwise; candidates that could not be settled in the
    windowed regime are listed in ``unresolved``.  ``lct`` is ``None`` for
    the unit ideal, which has no jumping coefficient.
    """

    lct: Optional[Fraction]
    jumping: tuple[tuple[Fraction, Vec], ...]
    window_max: Fraction
    search_mode: str
    unresolved: tuple[Fraction, ...]
    bfunction_check: Optional[str] = None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _diophantine_particular(g: Sequence[int]) -> tuple[int, Vec]:
    """``(G, x)`` with ``g . x = G = gcd(g) > 0``, for ``g != 0``: when
    ``G`` divides ``rhs``, ``(rhs // G) x`` solves ``g . v = rhs``."""
    nz = [i for i, gi in enumerate(g) if gi]
    coeffs = [0] * len(g)
    i0 = nz[0]
    G = abs(g[i0])
    coeffs[i0] = 1 if g[i0] > 0 else -1
    for i in nz[1:]:
        G2, x, y = _xgcd(G, g[i])
        coeffs = [c * x for c in coeffs]
        coeffs[i] += y
        G = G2
    return G, tuple(coeffs)


def _tight_facet(S: SemigroupData, ell: Vec, c: int) -> tuple:
    """The eager part of the lattice set-up of the positive-offset facet
    ``(l, c)``, which does not depend on ``alpha``: ``(l, c, g, G, base)``
    with ``g = l F`` and ``g . base = G = gcd(g)``, all that the test
    whether ``G`` divides a candidate's right-hand side needs.  ``G > 0``:
    ``l >= 0``, ``l != 0``, and the facet normals of a full-dimensional
    cone have no positive dependence, so ``g != 0``.
    :func:`_parametric_levels` builds the rest on the facet's first use."""
    g = tuple(dot(ell, [facet[i] for facet in S.facets]) for i in range(S.d))
    G, base = _diophantine_particular(g)
    return ell, c, g, G, base


def _parametric_levels(S: SemigroupData, P: NewtonPolyhedron, facet: tuple) -> tuple:
    """``(kernel, levels)`` for the tight facet ``facet`` (a
    :func:`_tight_facet` set-up): ``kernel`` a basis of the integer kernel
    of ``g``, and the facet's witness rows for every ``alpha`` at once,
    projected.  With ``v = m base + sum tau_j k_j`` and ``m = (alpha c -
    l . e) / G`` the rows ``F(v) >= 0`` and ``l' . (F(v) + e) >= alpha
    c'``, one per facet ``(l', c')`` of ``P``, times ``G`` are integer rows
    ``u alpha + a . tau >= w``, since only ``m`` depends on ``alpha``:
    ``(c F(base)_s, G F(k)_s; (l . e) F(base)_s)`` and ``(c l' F(base) - G
    c', G l' F(k); (l . e) l' F(base) - G l' . e)``.  ``levels`` are their
    :func:`~toricbsato.exactnum._fm_levels` on ``(alpha, tau)``, the
    ``tau_j`` past ``tau_0`` eliminated, each row split as ``(u, a, w)``;
    ``None`` if they contradict each other at every ``alpha``."""
    ell, c, g, G, base = facet
    kernel = kernel_lattice_basis(IntMatrix([list(g)]))
    f_base, fk = f_map(S, base), [f_map(S, k) for k in kernel]
    le = dot(ell, S.e)
    rows = [((c * b, *(G * q[s] for q in fk)), le * b) for s, b in enumerate(f_base)]
    for l2, c2 in P.facets:
        lb = dot(l2, f_base)
        rows.append(((c * lb - G * c2, *(G * dot(l2, q) for q in fk)), le * lb - G * dot(l2, S.e)))
    levels = _fm_levels(rows, keep=2)
    return kernel, None if levels is None else [[(a[0], a[1:], w) for a, w in lv] for lv in levels]


def _witness_search(
    S: SemigroupData,
    P: NewtonPolyhedron,
    tight: Sequence[tuple],
    alpha: Fraction,
    scanned: Work,
    systems: dict,
) -> tuple[Optional[Vec], bool]:
    """Find ``v`` with ``F(v) + e`` on the boundary of ``alpha * P``.

    Works facet by facet over ``tight``, the :func:`_tight_facet` set-ups
    of the positive-offset facets: force one facet to be tight (the
    integer equation ``g . v = rhs``), take ``v = (rhs / G) base + sum
    tau_j k_j`` over its kernel lattice (no solution unless ``G`` divides
    ``rhs``), and look for a parameter choice satisfying the remaining
    inequalities.  The kernel lattice and the Fourier-Motzkin levels,
    parametric in ``alpha`` (:func:`_parametric_levels`), are made on the
    facet's first use and kept in ``systems``, the call's ``(kernel,
    levels)`` by facet index.  At ``alpha = num / den`` a row ``u alpha +
    a . tau >= w`` becomes ``(den a, den w - u num)``, a positive multiple
    of the row of the system at ``alpha``, so each evaluated level cuts
    every line exactly as that system's level does.  The rows state the
    exact re-check ``check``, so the first row-feasible point is the
    witness (one failing ``check`` raises ``AssertionError``): the least
    on the line of one kernel vector, else the first point of one lattice
    walk per window around the rounded Fourier-Motzkin point, through the
    evaluated levels.  Returns ``(witness, exhausted)``: ``exhausted``
    means a rationally feasible tight-facet system had no lattice point in
    the windows.  Each window's volume ``(2w+1)^k`` (a bound on the points
    its walk can reach) is charged to ``scanned``, the call's
    ``WINDOW_POINTS_CAP`` counter, before the window is searched.
    """
    e = S.e
    num, den = alpha.numerator, alpha.denominator
    exhausted = False
    for i, (ell, c, _, G, base) in enumerate(tight):
        rhs_q = alpha * c - dot(ell, e)
        if rhs_q.denominator != 1:
            continue
        rhs = int(rhs_q)

        def check(v: Vec) -> bool:
            q = f_map(S, v)
            if any(x < 0 for x in q):
                return False
            if dot(ell, q) != rhs:
                return False
            point = tuple(a + b for a, b in zip(q, e))
            return membership(P, point, alpha, "closed") and not membership(
                P, point, alpha, "relint"
            )

        if rhs == 0 and check((0,) * S.d):
            return (0,) * S.d, exhausted
        if rhs % G:
            continue
        if i not in systems:
            systems[i] = _parametric_levels(S, P, tight[i])
        kernel, parametric = systems[i]
        if parametric is None:
            continue
        levels = [
            [([den * x for x in a], den * w - u * num) for u, a, w in level]
            for level in parametric
        ]
        if not kernel:
            tau = () if all(c <= 0 for _, c in levels[0]) else None
        elif len(kernel) == 1:
            # the least t, else the greatest: F(k) != 0 bounds one end
            line = next(_lattice_lines(levels, [[]]), None)
            tau = None if line is None else (line[2] if line[1] is None else line[1],)
        else:
            point = _fm_witness(levels)
            if point is None:
                continue
            center = [int(round(x)) for x in point]
            width = WINDOW0
            for _ in range(EXPANSIONS + 1):
                scanned.charge((2 * width + 1) ** len(kernel))
                window = [[(1, x - width), (-1, -x - width)] for x in center]
                line = next(_lattice_lines(levels[::-1], window), None)
                if line is not None:
                    break
                width *= KAPPA
            tau = None if line is None else line[0] + (line[1],)
            exhausted = exhausted or tau is None
        if tau is None:
            continue
        m = rhs // G
        v = tuple(m * x + sum(t * k[j] for t, k in zip(tau, kernel)) for j, x in enumerate(base))
        if not check(v):
            raise AssertionError("a row-feasible witness failed the exact re-check")
        return v, exhausted
    return None, exhausted


def jumping_coefficients(
    S: SemigroupData,
    ideal,
    window_max: Rational,
) -> JumpingReport:
    """All jumping coefficients of the pair up to ``window_max``.

    Candidates are complete: a jump at ``alpha`` forces a lattice point of
    the image onto a tight positive-offset facet, so ``alpha`` is a
    multiple of ``1/c`` for some facet offset ``c``.  Each positive-offset
    facet's particular solution (:func:`_tight_facet`) is made once per
    call and shared by every candidate; its kernel lattice and the
    Fourier-Motzkin projection of its witness rows, with ``alpha`` kept as
    a coordinate, are made together on the facet's first use.  Witness
    search evaluates the projection at each candidate, solves one exact
    line per tight facet in dimension <= 2 and
    above that takes one lattice walk per window (radii ``WINDOW0 *
    KAPPA^i``, ``i <= EXPANSIONS``) through the evaluated levels; window
    volumes count against ``WINDOW_POINTS_CAP``.
    """
    T = _rational(window_max)
    ideal = monomial_ideal(S, ideal)
    threshold = lct(S, ideal)
    if threshold is not None and T < threshold:
        raise ValueError("window must reach the log-canonical threshold")
    P = transported_polyhedron(S, ideal)
    spans = [(c, max(1, ceil(threshold * c)), floor(T * c)) for _, c in P.facets if c > 0]
    Work("CANDIDATES_CAP", CANDIDATES_CAP).charge(sum(max(0, hi - lo + 1) for _, lo, hi in spans))
    candidates = {Fraction(n, c) for c, lo, hi in spans for n in range(lo, hi + 1)}
    tight = [_tight_facet(S, ell, c) for ell, c in P.facets if c > 0]
    search_mode = "exact" if S.d <= 2 else "windowed"
    jumps: list[tuple[Fraction, Vec]] = []
    unresolved: list[Fraction] = []
    scanned = Work("WINDOW_POINTS_CAP", WINDOW_POINTS_CAP)
    systems: dict = {}
    for alpha in sorted(candidates):
        witness, exhausted = _witness_search(S, P, tight, alpha, scanned, systems)
        if witness is not None:
            jumps.append((alpha, witness))
        elif exhausted and search_mode == "windowed":
            unresolved.append(alpha)
    if (jumps[0][0] if jumps else None) != threshold:
        raise AssertionError("threshold must head the jumping list")
    return JumpingReport(
        lct=threshold,
        jumping=tuple(jumps),
        window_max=T,
        search_mode=search_mode,
        unresolved=tuple(unresolved),
    )


# ---------------------------------------------------------------------------
# the correspondence verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    """Verdict of the roots-versus-jumping check.

    PASS: every jumping coefficient in ``[lct, lct + 1)`` is a root of
    ``b(-s)``, and the smallest root of ``b(-s)`` is the log-canonical
    threshold.  FAIL carries the specific violations.
    INCONCLUSIVE means only that some jumping candidates in the window are
    unsettled, not that the correspondence is wrong.  ``lct`` is ``None``
    for the unit ideal.
    """

    verdict: str
    lct: Optional[Fraction]
    roots_negated: tuple[tuple[Fraction, int], ...]
    jumping_in_window: tuple[Fraction, ...]
    failures: tuple[str, ...]
    notes: tuple[str, ...]
    bfunction_result: object
    jumping_report: Optional[JumpingReport]


def verify_correspondence(S: SemigroupData, ideal) -> CorrespondenceReport:
    """Check that jumping coefficients in ``[lct, lct + 1)`` are roots of
    ``b(-s)``, and that the smallest root of ``b(-s)`` is the threshold.
    :func:`bfunction` does not compare the two for one or two generators,
    whose b-function it proves by a complete family, so this is where the
    largest root of ``b`` meets the independently computed lct.  The unit
    ideal has no threshold and passes with an empty jumping set."""
    ideal = monomial_ideal(S, ideal)
    threshold = lct(S, ideal)
    res = bfunction(S, ideal)
    if threshold is None:
        return CorrespondenceReport(
            verdict="PASS",
            lct=threshold,
            roots_negated=(),
            jumping_in_window=(),
            failures=(),
            notes=("unit ideal: empty jumping set",),
            bfunction_result=res,
            jumping_report=None,
        )
    jr = jumping_coefficients(S, ideal, threshold + 1)
    roots_neg = sorted(((-r, mult) for r, mult in res.roots), key=lambda rm: rm[0])
    root_values = {r for r, _ in roots_neg}
    in_window = tuple(a for a, _ in jr.jumping if threshold <= a < threshold + 1)

    notes: list[str] = []
    unresolved_in_window = [a for a in jr.unresolved if threshold <= a < threshold + 1]
    if unresolved_in_window:
        notes.append(
            "unsettled jumping candidates in window: "
            + ", ".join(str(a) for a in unresolved_in_window)
        )
    failures = [
        f"jumping coefficient {a} is not a root of b(-s)" for a in in_window if a not in root_values
    ]
    smallest = roots_neg[0][0] if roots_neg else None
    if smallest != threshold:
        failures.append(f"smallest root of b(-s) is {smallest}, not the lct {threshold}")
    if failures:
        verdict = "FAIL"
    elif notes:
        verdict = "INCONCLUSIVE"
    else:
        verdict = "PASS"
    jr = replace(jr, bfunction_check=verdict)
    return CorrespondenceReport(
        verdict=verdict,
        lct=threshold,
        roots_negated=tuple(roots_neg),
        jumping_in_window=in_window,
        failures=tuple(failures),
        notes=tuple(notes),
        bfunction_result=res,
        jumping_report=jr,
    )
