"""Exact rational convex geometry: cones and Newton polyhedra.

A Newton polyhedron here is ``conv(points) + cone(rays)`` for finitely many
integer points and integer recession rays.  Facets are computed exactly by
homogenizing to a cone one dimension up and scanning generator subsets for
supporting hyperplanes; the resulting H-representation has primitive integer
normals and integer offsets.  Facet normals and the vertices of an
inequality system each take one Bareiss elimination per subset.
Membership in dilations, relative-interior membership and the point
threshold (the dilation factor at which a point enters the boundary) are
all exact.  Every subset scan is counted with ``math.comb`` before it
starts, against ``SUBSETS_CAP``.

All polyhedra constructed here are required to be full-dimensional, so the
relative interior coincides with the topological interior and is cut out by
making every facet inequality strict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Optional, Sequence

from .exactnum import (
    Vec,
    WorkCapExceeded,
    _bareiss,
    dot,
    primitive_vector,
    rank,
)

__all__ = [
    "NewtonPolyhedron",
    "cone_facet_normals",
    "inequality_vertices",
    "newton_polyhedron",
    "membership",
    "point_threshold",
    "INFINITY",
]

#: Sentinel for an unbounded point threshold.  ``float("inf")`` compares
#: correctly against Fractions and carries no rounding, so it is safe here.
INFINITY = float("inf")

#: Counted work cap of every subset scan, checked before the scan.
SUBSETS_CAP = 100_000


def _subsets(n: int, k: int):
    """The ``k``-subsets of ``range(n)``; more than ``SUBSETS_CAP`` of them
    raise :class:`WorkCapExceeded` before any is listed."""
    count = comb(n, k)
    if count > SUBSETS_CAP:
        raise WorkCapExceeded("SUBSETS_CAP", count, SUBSETS_CAP)
    return combinations(range(n), k)


def cone_facet_normals(generators: Sequence[Vec], dim: int) -> list[Vec]:
    """Primitive facet normals of the full-dimensional cone spanned by
    ``generators`` in ``R^dim``.

    Scans all ``(dim-1)``-subsets of generators (at most ``SUBSETS_CAP``
    of them, counted first); a subset of rank ``dim-1`` determines a
    hyperplane, and its primitive normal is kept (suitably oriented) when
    all generators lie on one side.  The normal is read off one Bareiss
    elimination of the subset: with last pivot ``p``, the one free column
    ``f`` gets ``p`` and pivot column ``pivots[i]`` gets ``-a[i][f]``.
    This enumerates every facet because each facet of a finitely generated
    full-dimensional cone is spanned by ``dim-1`` linearly independent
    generators.  In dimension 1 the one empty subset has the normal
    ``(1,)``, so the scan gives ``(1,)``, ``(-1,)`` or nothing.

    The returned list is sorted in descending lexicographic order.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if any(len(g) != dim for g in gens):
        raise ValueError("generator dimension mismatch")
    found: set[Vec] = set()
    for subset in _subsets(len(gens), dim - 1):
        a, pivots, p = _bareiss([gens[i] for i in subset])
        if len(pivots) != dim - 1:
            continue  # the subset has rank < dim - 1
        free = next(j for j in range(dim) if j not in pivots)
        kernel = [0] * dim
        kernel[free] = p
        for row, c in zip(a, pivots):
            kernel[c] = -row[free]
        normal = primitive_vector(kernel)
        vals = [dot(normal, g) for g in gens]
        if all(v >= 0 for v in vals):
            found.add(normal)
        elif all(v <= 0 for v in vals):
            found.add(tuple(-x for x in normal))
    return sorted(found, reverse=True)


def inequality_vertices(rows: Sequence[Vec], rhs: Sequence) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of ``{x : rows[i] . x >= rhs[i]}``: the feasible
    solutions of the ``dim``-subsets of rows of full rank (at most
    ``SUBSETS_CAP`` subsets, counted first).  Empty when the polyhedron is
    empty or contains a line.

    Each subset is one Bareiss elimination of its rows with the right-hand
    side appended: the rows have full rank exactly when the pivots are the
    first ``dim`` columns, and then row ``i`` reads ``p x_i = a[i][-1]``
    for the last pivot ``p``.  Feasibility is tested on these numerators:
    ``r . x >= b`` exactly when ``(r . (p x) - b p) p >= 0``."""
    dim = len(rows[0])
    found: set[tuple[Fraction, ...]] = set()
    for subset in _subsets(len(rows), dim):
        a, pivots, p = _bareiss([list(rows[i]) + [rhs[i]] for i in subset])
        if pivots == list(range(dim)):
            num = [row[-1] for row in a]
            if all((dot(r, num) - b * p) * p >= 0 for r, b in zip(rows, rhs)):
                found.add(tuple(Fraction(x, p) for x in num))
    return sorted(found)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """H- and V-representation of ``conv(points) + cone(rays)``.

    ``facets`` is a tuple of ``(normal, offset)`` pairs encoding the
    irredundant inequalities ``normal . x >= offset`` with primitive integer
    normals and integer offsets.  ``vertices`` are the extreme points and
    ``recession_rays`` the primitive input rays.
    """

    ambient_dim: int
    vertices: tuple[Vec, ...]
    recession_rays: tuple[Vec, ...]
    facets: tuple[tuple[Vec, int], ...]


def newton_polyhedron(points: Sequence[Vec], rays: Sequence[Vec]) -> NewtonPolyhedron:
    """Build the polyhedron ``conv(points) + cone(rays)`` exactly.

    Both inputs must be nonempty and integral, and the result must be
    full-dimensional (equivalently: the homogenization cone over
    ``{(1, p)} u {(0, r)}`` has full rank); otherwise ``ValueError``.
    """
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise ValueError("at least one point is required")
    n = len(pts[0])
    rys = sorted({primitive_vector(r) for r in rays})
    if not rys:
        raise ValueError("at least one recession ray is required")
    if any(len(p) != n for p in pts) or any(len(r) != n for r in rys):
        raise ValueError("dimension mismatch between points and rays")

    homog = [(1,) + p for p in pts] + [(0,) + r for r in rys]
    if rank(homog) != n + 1:
        raise ValueError("polyhedron not full-dimensional")

    facets: list[tuple[Vec, int]] = []
    for w in cone_facet_normals(homog, n + 1):
        normal = w[1:]
        if all(x == 0 for x in normal):
            continue  # the hyperplane at infinity, not a polyhedron facet
        normal = primitive_vector(normal)
        offset = min(dot(normal, p) for p in pts)
        facets.append((normal, offset))
    facets = sorted(set(facets))

    # sanity: the V-representation satisfies the H-representation
    for normal, offset in facets:
        for p in pts:
            if dot(normal, p) < offset:
                raise AssertionError("input point violates computed facet")
        for r in rys:
            if dot(normal, r) < 0:
                raise AssertionError("input ray violates computed facet")

    vertices = []
    for p in pts:
        tight = [normal for normal, offset in facets if dot(normal, p) == offset]
        if rank(tight) == n:
            vertices.append(p)
    return NewtonPolyhedron(
        ambient_dim=n,
        vertices=tuple(vertices),
        recession_rays=tuple(rys),
        facets=tuple(facets),
    )


def membership(P: NewtonPolyhedron, q: Sequence, alpha, mode: str = "closed") -> bool:
    """Exact membership of ``q`` in the dilation ``alpha * P``.

    ``mode="closed"`` tests the closed polyhedron, ``mode="relint"`` its
    relative interior (= interior; the construction guarantees full
    dimension).  ``alpha`` must be a positive rational and ``q`` hold ints
    or Fractions; scaled by their common denominator ``D``, each facet
    compares integers, ``normal . (D q) >= (D alpha) offset``.
    """
    if mode not in ("closed", "relint"):
        raise ValueError("mode must be 'closed' or 'relint'")
    a = Fraction(alpha)
    if a <= 0:
        raise ValueError("dilation factor must be positive")
    if len(q) != P.ambient_dim:
        raise ValueError("point has wrong dimension")
    den = lcm(a.denominator, *(x.denominator for x in q))
    qs = [x.numerator * (den // x.denominator) for x in q]
    num = a.numerator * (den // a.denominator)
    for normal, offset in P.facets:
        lhs, rhs = dot(normal, qs), num * offset
        if lhs < rhs or (lhs == rhs and mode == "relint"):
            return False
    return True


def point_threshold(P: NewtonPolyhedron, q: Sequence):
    """The dilation factor at which ``q`` stops being interior, exactly.

    Returns ``min over facets with positive offset of (normal . q) / offset``
    as a ``Fraction``.  Special values: ``None`` (undefined) when some
    zero-offset facet has ``normal . q < 0``, so ``q`` never enters any
    dilation; ``INFINITY`` when no facet has a positive offset.
    """
    qv = [x if isinstance(x, int) else Fraction(x) for x in q]
    if len(qv) != P.ambient_dim:
        raise ValueError("point has wrong dimension")
    best = None
    for normal, offset in P.facets:
        lhs = dot(normal, qv)
        if offset == 0 and lhs < 0:
            return None
        if offset <= 0:
            continue
        ratio = Fraction(lhs, offset)
        if best is None or ratio < best:
            best = ratio
    if best is None:
        return INFINITY
    if best > 0 and all(offset >= 0 for _, offset in P.facets):
        # q must sit on the boundary of the critical dilation
        if not membership(P, qv, best, "closed") or membership(P, qv, best, "relint"):
            raise AssertionError("threshold point not on the critical boundary")
    return best
