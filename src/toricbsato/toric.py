"""Affine semigroup data for normal toric rings.

A semigroup datum is a ``d x m`` integer matrix ``A`` whose columns generate
a full-dimensional, strongly convex rational cone ``C`` and the full lattice
``Z^d``.  The datum carries the primitive integral support functions of the
facets of ``C``; stacking them gives the injective transport map
``F : Z^d -> Z^F`` that moves monomial ideals of the semigroup ring into an
ordinary polynomial ring; :func:`f_section` inverts it on its image.

Normality (``C intersect Z^d = NA``) is what makes membership testable by
``F(v) >= 0``; it is expensive to verify, so the verdict is computed once
per immutable datum, on first use, as each :class:`MonomialIdeal` caches
its transported polyhedron and lct.  Operations that rely on the
F-criterion document that caveat rather than re-checking.  Every lattice
scan counts its work against ``SCAN_POINTS_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import le
from typing import Iterable, Optional, Sequence

from .exactnum import (
    IntMatrix,
    Vec,
    Work,
    _bareiss,
    _int_vector,
    _lattice_lines,
    dot,
    lattice_is_saturated,
    rank,
)
from .polyhedra import NewtonPolyhedron, cone_facet_normals, newton_polyhedron, point_threshold

__all__ = [
    "StructuralError",
    "SemigroupData",
    "MonomialIdeal",
    "build_semigroup",
    "is_normal",
    "contains",
    "f_map",
    "f_section",
    "minimalize_exponents",
    "monomial_ideal",
]


#: Counted work cap of every lattice scan: the points of a normality box,
#: checked before the scan; the line solves and members of a multiplier
#: generating-box scan, each counted before it is paid for.
SCAN_POINTS_CAP = 1_000_000


class StructuralError(ValueError):
    """A structural assumption on the semigroup datum fails."""


@dataclass(frozen=True)
class SemigroupData:
    """Validated, immutable semigroup datum: matrix, facets, saturation.

    ``facets`` lists the primitive support vectors ``f`` with
    ``F_sigma(p) = f . p``, in descending lexicographic order; this fixed
    order is the coordinate order of ``Z^F`` everywhere downstream.  A datum
    compares and hashes by ``A``, ``facets`` and ``saturated``; the
    normality verdict it derives from them is cached on first use, outside
    the fields ``==`` compares, so it is computed once per datum.
    """

    A: IntMatrix
    facets: tuple[Vec, ...]
    saturated: bool

    @cached_property
    def normality_witness(self) -> Optional[Vec]:
        """The first point of ``C intersect Z^d`` outside ``NA``, or ``None``
        when the semigroup is normal.

        Any counterexample must appear among the lattice points of the
        zonotope ``{sum t_i a_i : t in [0,1]^m}`` (an irreducible semigroup
        element is a sub-[0,1) combination of the generators), so one lattice
        walk of the zonotope's integer bounding box, each last-coordinate line
        solved against ``F(p) >= 0``, lists every candidate point of ``C`` in
        lexicographic order.  A box of more than ``SCAN_POINTS_CAP`` points
        raises :class:`WorkCapExceeded`.
        """
        d = self.d
        cols = self.A.columns()
        lo = [sum(min(0, a[i]) for a in cols) for i in range(d)]
        hi = [sum(max(0, a[i]) for a in cols) for i in range(d)]
        Work("SCAN_POINTS_CAP", SCAN_POINTS_CAP).charge(prod(h - l + 1 for l, h in zip(lo, hi)))
        memo: dict = {}
        box = [[(1, l), (-1, -h)] for l, h in zip(lo, hi)]  # l <= p_i <= h
        lines = _lattice_lines([[]] * (d - 1) + [[(f, 0) for f in self.facets]], box)
        for head, first, last in lines:
            for t in range(first, last + 1):
                p = head + (t,)
                if not _combination_exists(self, cols, p, memo):
                    return p
        return None

    @property
    def d(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.A.cols

    @property
    def nfacets(self) -> int:
        return len(self.facets)

    @property
    def e(self) -> Vec:
        """The all-ones vector of ``Z^F`` (one coordinate per facet)."""
        return (1,) * self.nfacets


def build_semigroup(A: IntMatrix) -> SemigroupData:
    """Validate ``A`` and compute the facet support functions.

    Raises :class:`StructuralError` when the cone is not full-dimensional
    ("cone not full-dimensional") or not strongly convex ("cone not
    strongly convex": a zero column, or facet normals that do not span
    ``R^d``).  Whether the columns span all of ``Z^d`` is recorded in the
    ``saturated`` verdict rather than raised here, so that the normality
    checker can still exhibit a witness point on unsaturated input;
    the command line refuses an unsaturated datum ("ZA != Z^d").
    """
    if not isinstance(A, IntMatrix):
        A = IntMatrix(A)
    d = A.rows
    columns = A.columns()
    try:
        facets = tuple(cone_facet_normals(columns, d))
    except ValueError:
        raise StructuralError("cone not full-dimensional") from None
    if rank(facets) != d or not all(any(a) for a in columns):
        raise StructuralError("cone not strongly convex")
    S = SemigroupData(A=A, facets=facets, saturated=lattice_is_saturated(A))
    # completeness sanity check: all generators on the nonnegative side, and
    # for d >= 2 each facet is incident to at least one generator
    for f in facets:
        vals = [dot(f, a) for a in columns]
        if any(v < 0 for v in vals):
            raise AssertionError("facet normal negative on a generator")
        if d >= 2 and min(vals) != 0:
            raise AssertionError("facet not incident to any generator")
    return S


def f_map(S: SemigroupData, v: Sequence[int]) -> Vec:
    """Transport ``v`` to ``Z^F``: the tuple of support values ``F_sigma(v)``."""
    return tuple(dot(f, v) for f in S.facets)


def f_section(S: SemigroupData, q: Sequence[int]) -> Optional[Vec]:
    """The unique ``v`` with ``f_map(v) = q``, or ``None`` if there is none.

    ``F`` is injective (the cone is pointed and full-dimensional), so at most
    one preimage exists.  One fraction-free elimination of ``[F | I]`` gives
    an integer left inverse up to a scalar, ``X F = p I_d``, so it can only
    be ``v = X q / p``: rejected when ``p`` does not divide ``X q`` or when
    ``F v != q`` (``q`` outside the image of ``F``).
    """
    n, d = S.nfacets, S.d
    if len(q) != n:
        raise ValueError("q has wrong length")
    a, _, p = _bareiss([list(f) + [int(i == j) for j in range(n)] for i, f in enumerate(S.facets)])
    nums = [dot(row[d:], q) for row in a[:d]]
    if any(x % p for x in nums):
        return None
    v = tuple(x // p for x in nums)
    return v if f_map(S, v) == tuple(q) else None


def contains(S: SemigroupData, v: Sequence[int]) -> bool:
    """Membership of ``v`` in the semigroup via the support-function
    criterion ``F(v) >= 0``.

    Valid when the semigroup is normal; on unverified data this tests
    membership in ``C intersect Z^d`` only.
    """
    return all(x >= 0 for x in f_map(S, v))


def _semigroup_exponent(S: SemigroupData, v: Sequence[int]) -> Vec:
    """``v`` as an exponent of the semigroup: a float or a Fraction raises
    ``TypeError``, a wrong length or a point outside the semigroup (by
    :func:`contains`) ``ValueError``."""
    v = _int_vector(v)
    if len(v) != S.d:
        raise ValueError("exponent has wrong dimension")
    if not contains(S, v):
        raise ValueError(f"exponent {v} outside the semigroup")
    return v


def _combination_exists(S: SemigroupData, cols: Sequence[Vec], p: Vec, memo: dict) -> bool:
    """Is ``p`` a nonnegative integer combination of the columns ``cols``?

    Depth-first search on an explicit stack of ``(point, remaining columns)``;
    ``memo`` keeps each settled answer.  Each step lowers ``sum F(.)``, which
    is positive on the columns, so a point on the stack never comes back.
    """
    known = True if not any(p) else memo.get(p)
    if known is not None:
        return known
    stack = [(p, iter(cols))]
    while stack:
        q, rest = stack[-1]
        for a in rest:
            r = tuple(x - y for x, y in zip(q, a))
            if all(val >= 0 for val in f_map(S, r)):
                known = True if not any(r) else memo.get(r)
                if known:
                    memo.update((point, True) for point, _ in stack)
                    return True
                if known is None:
                    stack.append((r, iter(cols)))
                    break
        else:
            memo[q] = False
            stack.pop()
    return False


def is_normal(S: SemigroupData) -> bool:
    """Decide ``C intersect Z^d = NA`` exactly, by the datum's cached verdict."""
    return S.normality_witness is None


def minimal_points(points: Iterable[tuple[Vec, object]]) -> list[tuple[Vec, object]]:
    """The ``(key, value)`` pairs whose key is minimal under the
    componentwise order, one pair per minimal key.

    Sorted by coordinate sum, every key comes after the keys strictly below
    it, so one greedy pass keeps a key exactly when no kept key lies below
    or on it; of equal keys the first in input order stays.  The result is
    in ascending ``(sum, key)`` order.
    """
    kept: list[tuple[Vec, object]] = []
    for q, v in sorted(points, key=lambda qv: (sum(qv[0]), qv[0])):
        if not any(all(map(le, k, q)) for k, _ in kept):
            kept.append((q, v))
    return kept


def minimalize_exponents(S: SemigroupData, exps: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """Antichain of minimal exponents under semigroup divisibility.

    ``v`` divides ``w`` iff ``w - v`` lies in the semigroup, which under
    normality is the componentwise test ``f_map(w) >= f_map(v)``.  Returns
    the minimal elements sorted lexicographically.
    """
    vecs = {_int_vector(v) for v in exps}
    return tuple(sorted(v for _, v in minimal_points((f_map(S, v), v) for v in vecs)))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal of the semigroup ring, stored by its minimal
    generator exponents (a lex-sorted antichain); its transported polyhedron
    and lct are cached on first use, outside the fields ``==`` compares."""

    owner: SemigroupData
    generators: tuple[Vec, ...]

    @cached_property
    def transported_polyhedron(self) -> NewtonPolyhedron:
        """Newton polyhedron of the ``F(beta)`` plus the facet orthant."""
        rays = IntMatrix.identity(self.owner.nfacets).entries
        return newton_polyhedron([f_map(self.owner, b) for b in self.generators], rays)

    @cached_property
    def lct(self):
        """Threshold of ``e`` on the transported polyhedron (``None``: unit ideal)."""
        return point_threshold(self.transported_polyhedron, self.owner.e)


def monomial_ideal(S: SemigroupData, exps) -> MonomialIdeal:
    """Build a :class:`MonomialIdeal`, validating membership and minimalizing;
    an ideal owned by ``S`` is returned as it is, with its cached geometry."""
    if isinstance(exps, MonomialIdeal):
        if exps.owner is S:
            return exps
        exps = exps.generators
    if not exps:
        raise ValueError("a monomial ideal needs at least one generator")
    exps = [_semigroup_exponent(S, v) for v in exps]
    return MonomialIdeal(owner=S, generators=minimalize_exponents(S, exps))
