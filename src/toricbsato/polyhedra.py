"""Exact rational convex geometry: cones and Newton polyhedra.

A Newton polyhedron here is ``conv(points) + cone(rays)`` for finitely many
integer points and integer recession rays, kept as its facets: the
inequalities ``normal . x >= offset`` with primitive integer normals and
integer offsets.  They are computed exactly by homogenizing to a cone one
dimension up: the facet normals of a cone and the vertices of an
inequality system are both the extreme rays of a cone ``{y : r . y >= 0}``,
found by one integer double description routine whose ray pairs are
counted against ``RAY_PAIRS_CAP``; :func:`inequality_vertices` reads the
vertices back off the facets.  The routine starts from ``dim`` independent
rows and the simplicial cone they cut out.  In general one fraction-free
elimination finds the first such rows and that cone's rays.  A Newton
polyhedron whose recession rays hold every unit vector (every transported
polyhedron: its recession cone is the orthant) needs none: the rows
``(1, p_0)`` and ``(0, e_k)`` form a unit upper triangular matrix, so they
are independent and the rays ``(1, 0)`` and ``(-p_0k, e_k)`` of its inverse
are integral and primitive.  Membership in dilations, relative-interior
membership and the point threshold (the dilation factor at which a point
enters the boundary) are all exact.

All polyhedra constructed here are required to be full-dimensional, so the
relative interior coincides with the topological interior and is cut out by
making every facet inequality strict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Optional, Sequence

from .exactnum import (
    Vec,
    Work,
    _bareiss,
    _int_vector,
    _integer_row,
    _rational,
    dot,
    primitive_vector,
)

__all__ = [
    "NewtonPolyhedron",
    "cone_facet_normals",
    "inequality_vertices",
    "newton_polyhedron",
    "membership",
    "point_threshold",
]

#: Counted work cap of one double description: its ``(+, -)`` ray pairs.
RAY_PAIRS_CAP = 10_000_000


def _simplicial_start(rows: Sequence[Vec], dim: int) -> Optional[list[tuple[int, Vec]]]:
    """The start of :func:`_cone_rays` read off one fraction-free
    elimination of ``[rows^T | I]``, or ``None`` when the rows do not span
    ``R^dim``.  The matrix has rank ``dim``, and its ``dim`` pivots all lie
    among the first ``len(rows)`` columns exactly when the rows span; they
    are then the first ``dim`` independent rows ``B``, as the identity
    block takes no part in choosing them.  The row operations ``L`` satisfy
    ``L B^T = p I``, so row ``j`` of ``L`` is ``p`` times column ``j`` of
    ``B^-1``, and ``p`` times that row a positive multiple of the column:
    the start ray tight on every row of ``B`` but row ``j``."""
    m = len(rows)
    a, pivots, p = _bareiss(
        [[r[k] for r in rows] + [int(k == j) for j in range(dim)] for k in range(dim)]
    )
    if pivots and pivots[-1] >= m:
        return None
    return [(i, primitive_vector([p * x for x in a[j][m:]])) for j, i in enumerate(pivots)]


def _cone_rays(
    rows: Sequence[Vec], dim: int, start: Optional[list[tuple[int, Vec]]] = None
) -> Optional[list[Vec]]:
    """Primitive extreme rays of ``{y : r . y >= 0 for r in rows}`` (integer
    rows in ``R^dim``), or ``None`` when the rows do not span ``R^dim``.

    Integer double description (Motzkin et al. 1953; Fukuda and Prodon
    1996).  It starts from ``dim`` independent rows ``B`` and the
    simplicial cone ``{y : B y >= 0}``, whose extreme rays are the columns
    of ``B^-1``, each tight on all rows of ``B`` but one.  ``start`` lists
    them as ``(row index, ray)`` pairs when the caller knows them in closed
    form; otherwise :func:`_simplicial_start` finds the first ``dim``
    independent rows and their rays by one elimination.  Each further row
    ``r`` keeps the rays with ``r . y >= 0`` and adds ``(r . u) w - (r . w)
    u`` for each adjacent pair with ``r . u > 0 > r . w``.  A ray's zero set
    (its tight rows) is a bitmask; two rays are adjacent when their common
    zero set has at least ``dim - 2`` rows and lies in no third ray's zero
    set.  Each row's pairs are counted before they are tested, against
    ``RAY_PAIRS_CAP``."""
    if start is None:
        start = _simplicial_start(rows, dim)
        if start is None:
            return None
    full = sum(1 << i for i, _ in start)
    rays = [(y, full ^ (1 << i)) for i, y in start]
    pairs = Work("RAY_PAIRS_CAP", RAY_PAIRS_CAP)
    for i, r in enumerate(rows):
        bit = 1 << i
        if full & bit:
            continue
        vals = [(dot(r, y), y, z) for y, z in rays]
        pos = [t for t in vals if t[0] > 0]
        neg = [t for t in vals if t[0] < 0]
        pairs.charge(len(pos) * len(neg))
        kept = [(y, z | bit if v == 0 else z) for v, y, z in vals if v >= 0]
        for vp, yp, zp in pos:
            for vn, yn, zn in neg:
                common = zp & zn
                if common.bit_count() >= dim - 2 and not any(
                    z & common == common and z != zp and z != zn for _, z in rays
                ):
                    y = primitive_vector([vp * x - vn * w for x, w in zip(yn, yp)])
                    kept.append((y, common | bit))
        rays = kept
    return [y for y, _ in rays]


def cone_facet_normals(generators: Sequence[Vec], dim: int) -> list[Vec]:
    """Primitive inner facet normals of the cone spanned by ``generators``
    in ``R^dim``, in descending lex order: the extreme rays of the dual cone
    ``{y : g . y >= 0}``.  ``ValueError`` unless the generators span
    ``R^dim``.  In dimension 1 a half-line gives ``(1,)`` or ``(-1,)``, the
    whole line nothing.
    """
    gens = [_int_vector(g) for g in generators]
    if any(len(g) != dim for g in gens):
        raise ValueError("generator dimension mismatch")
    rays = _cone_rays(gens, dim)
    if rays is None:
        raise ValueError("generators do not span R^dim")
    return sorted(rays, reverse=True)


def _vertex_rays(rows: Sequence[tuple[Vec, int]]) -> list[Vec]:
    """The vertices of ``{x : a . x >= c for (a, c) in rows}`` (integer
    rows of one arity) as integer rays ``(y_0, x)``, ``y_0 > 0``, of the
    cone ``{(y_0, x) : y_0 >= 0, a . x >= c y_0}``: the vertex is
    ``x / y_0``.  Empty when the polyhedron is empty or contains a line."""
    dim = len(rows[0][0])
    homog = [(1,) + (0,) * dim] + [(-c, *a) for a, c in rows]
    return [y for y in _cone_rays(homog, dim + 1) or [] if y[0] > 0]


def inequality_vertices(rows: Sequence[tuple[Vec, int]]) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of ``{x : a . x >= c for (a, c) in rows}``; empty
    when the polyhedron is empty or contains a line.  The rows must be
    integer (a float or a Fraction raises ``TypeError``), nonempty and of
    one arity (else ``ValueError``)."""
    checked = [(_int_vector(a), index(c)) for a, c in rows]
    if not checked or len({len(a) for a, _ in checked}) != 1:
        raise ValueError("inequality rows must be nonempty and of one arity")
    return sorted(tuple(Fraction(x, y[0]) for x in y[1:]) for y in _vertex_rays(checked))


@dataclass(frozen=True)
class NewtonPolyhedron:
    """``conv(points) + cone(rays)`` as its facets.

    ``facets`` is a sorted tuple of ``(normal, offset)`` pairs encoding the
    irredundant inequalities ``normal . x >= offset`` with primitive integer
    normals and integer offsets; ``inequality_vertices(list(P.facets))``
    gives the vertices.
    """

    ambient_dim: int
    facets: tuple[tuple[Vec, int], ...]


def newton_polyhedron(points: Sequence[Vec], rays: Sequence[Vec]) -> NewtonPolyhedron:
    """Build the polyhedron ``conv(points) + cone(rays)`` exactly.

    Both inputs must be nonempty and integral, and the result must be
    full-dimensional (equivalently: the homogenization cone over
    ``{(1, p)} u {(0, r)}`` has full rank); otherwise ``ValueError``.
    """
    pts = sorted({_int_vector(p) for p in points})
    if not pts:
        raise ValueError("at least one point is required")
    n = len(pts[0])
    rys = sorted({primitive_vector(r) for r in rays})
    if not rys:
        raise ValueError("at least one recession ray is required")
    if any(len(p) != n for p in pts) or any(len(r) != n for r in rys):
        raise ValueError("dimension mismatch between points and rays")

    homog = [(1,) + p for p in pts] + [(0,) + r for r in rys]
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    start = None
    if set(units) <= set(rys):
        # rows (1, p_0) and (0, e_k): unit upper triangular, so the start
        # rays are (1, 0) and (-p_0k, e_k), with no elimination
        start = [(0, (1,) + (0,) * n)] + [
            (len(pts) + rys.index(u), (-pts[0][k],) + u) for k, u in enumerate(units)
        ]
    normals = _cone_rays(homog, n + 1, start)
    if normals is None:
        raise ValueError("polyhedron not full-dimensional")

    facets: list[tuple[Vec, int]] = []
    for w in normals:
        normal = w[1:]
        if all(x == 0 for x in normal):
            continue  # the hyperplane at infinity, not a polyhedron facet
        normal = primitive_vector(normal)
        offset = min(dot(normal, p) for p in pts)
        facets.append((normal, offset))
    facets = sorted(set(facets))

    # sanity: every input point and ray satisfies every facet
    for normal, offset in facets:
        for p in pts:
            if dot(normal, p) < offset:
                raise AssertionError("input point violates computed facet")
        for r in rys:
            if dot(normal, r) < 0:
                raise AssertionError("input ray violates computed facet")
    return NewtonPolyhedron(ambient_dim=n, facets=tuple(facets))


def membership(P: NewtonPolyhedron, q: Sequence, alpha, mode: str = "closed") -> bool:
    """Exact membership of ``q`` in the dilation ``alpha * P``.

    ``mode="closed"`` tests the closed polyhedron, ``mode="relint"`` its
    relative interior (= interior; the construction guarantees full
    dimension).  ``alpha`` must be a positive rational and ``q`` hold ints
    or Fractions (a float raises ``TypeError``); scaled by their common
    denominator ``D``, each facet compares integers,
    ``normal . (D q) >= (D alpha) offset``.
    """
    if mode not in ("closed", "relint"):
        raise ValueError("mode must be 'closed' or 'relint'")
    *qs, num = _integer_row([*q, alpha])
    if num <= 0:
        raise ValueError("dilation factor must be positive")
    if len(qs) != P.ambient_dim:
        raise ValueError("point has wrong dimension")
    for normal, offset in P.facets:
        lhs, rhs = dot(normal, qs), num * offset
        if lhs < rhs or (lhs == rhs and mode == "relint"):
            return False
    return True


def point_threshold(P: NewtonPolyhedron, q: Sequence) -> Optional[Fraction]:
    """The dilation factor at which ``q`` stops being interior, exactly.

    Returns ``min over facets with positive offset of (normal . q) / offset``
    as a ``Fraction``, or ``None`` (unbounded) when no facet has a positive
    offset.  Raises ``ValueError`` when some zero-offset facet has
    ``normal . q < 0``: then ``q`` enters no dilation and has no threshold.
    A float coordinate raises ``TypeError``.
    """
    qv = [x if isinstance(x, int) else _rational(x) for x in q]
    if len(qv) != P.ambient_dim:
        raise ValueError("point has wrong dimension")
    best = None
    for normal, offset in P.facets:
        lhs = dot(normal, qv)
        if offset == 0 and lhs < 0:
            raise ValueError("point outside every dilation: threshold undefined")
        if offset <= 0:
            continue
        ratio = Fraction(lhs, offset)
        if best is None or ratio < best:
            best = ratio
    if best is not None and best > 0 and all(offset >= 0 for _, offset in P.facets):
        # q must sit on the boundary of the critical dilation
        if not membership(P, qv, best, "closed") or membership(P, qv, best, "relint"):
            raise AssertionError("threshold point not on the critical boundary")
    return best
