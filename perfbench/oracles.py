"""Reference answers that do not call the package under test.

Three independent sources, each exact over ``Fraction``:

* the principal family ``x^a`` on the affine line, in closed form:
  ``b(s) = prod_{j=1..a} (s + j/a)``, ``lct = 1/a``, jumps at ``j/a``;
* :class:`Hull2D`, a brute convex hull of the transported generators plus
  the first quadrant, for cones with two facets (after the acceptance
  suite's ``oracle_facets``);
* :class:`Segment`, for ideals with at most two generators on any cone:
  ``conv(a, b) + orthant`` has interior ``conv(a, b) + open orthant``, so
  membership is feasibility of one parameter ``lam`` in ``[0, 1]``.

Both oracles answer membership of a point in the closed or open dilation
``alpha * P`` and the dilation ``threshold(q)`` at which a positive point
``q`` sits on the boundary (so ``lct = threshold(e)`` and the jumping
numbers are the thresholds of ``F(v) + e`` over the semigroup).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

F = Fraction


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def f_map(facets, v):
    return tuple(dot(f, v) for f in facets)


# --- closed form --------------------------------------------------------------


def poly_from_roots(roots):
    """Ascending coefficients of ``prod (s - r)^m`` for ``roots = [(r, m)]``."""
    coeffs = [F(1)]
    for r, m in roots:
        for _ in range(m):
            shifted = [F(0)] + coeffs
            coeffs = [hi - r * lo for hi, lo in zip(shifted, coeffs + [F(0)])]
    return coeffs


def principal_roots(a):
    """Roots of ``b(s)`` for ``x^a`` on the line: ``-j/a``, ``j = 1..a``."""
    return [(F(-j, a), 1) for j in range(a, 0, -1)]


# --- 2-D hull oracle ----------------------------------------------------------


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _hull(points):
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


class Hull2D:
    """``conv(points) + first quadrant`` in the plane, by H-representation."""

    def __init__(self, points, far=10_000):
        points = [tuple(p) for p in points]
        rays = [(1, 0), (0, 1)]
        cloud = points + [(p[0] + far * r[0], p[1] + far * r[1]) for p in points for r in rays]
        hull = _hull(cloud)
        facets = set()
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            normal = _primitive((-(b[1] - a[1]), b[0] - a[0]))
            if normal == (0, 0) or any(dot(normal, r) < 0 for r in rays):
                continue
            facets.add((normal, min(dot(normal, p) for p in points)))
        self.facets = sorted(facets)

    def member(self, q, alpha, strict):
        if strict:
            return all(dot(n, q) > alpha * c for n, c in self.facets)
        return all(dot(n, q) >= alpha * c for n, c in self.facets)

    def threshold(self, q):
        return min(F(dot(n, q), c) for n, c in self.facets if c > 0)


# --- segment oracle -----------------------------------------------------------


class Segment:
    """``conv(a, b) + orthant`` for one or two transported generators."""

    def __init__(self, points):
        if not 1 <= len(points) <= 2:
            raise ValueError("the segment oracle takes one or two generators")
        self.a = tuple(points[0])
        self.b = tuple(points[-1])

    def member(self, q, alpha, strict):
        # q_k - alpha * (b_k + lam (a_k - b_k))  (> or >=)  0  for lam in [0, 1]
        lo, lo_open, hi, hi_open = F(0), False, F(1), False
        for qk, ak, bk in zip(q, self.a, self.b):
            c = qk - alpha * bk
            d = -alpha * (ak - bk)
            if d == 0:
                if c < 0 or (strict and c == 0):
                    return False
                continue
            t = F(-c) / d
            if d > 0:  # lam > t (strict) or lam >= t
                if t > lo or (t == lo and strict):
                    lo, lo_open = t, strict
            else:  # lam < t or lam <= t
                if t < hi or (t == hi and strict):
                    hi, hi_open = t, strict
        return lo < hi or (lo == hi and not lo_open and not hi_open)

    def threshold(self, q):
        """``1 / min_lam max_k (b_k + lam (a_k - b_k)) / q_k`` for ``q > 0``."""
        lines = [(F(bk, qk), F(ak - bk, qk)) for qk, ak, bk in zip(q, self.a, self.b)]
        lams = {F(0), F(1)}
        for (c1, d1), (c2, d2) in product(lines, repeat=2):
            if d1 != d2:
                lam = (c2 - c1) / (d1 - d2)
                if 0 < lam < 1:
                    lams.add(lam)
        best = min(max(c + lam * d for c, d in lines) for lam in lams)
        return 1 / best


def oracle_for(nfacets, transported):
    """The hull oracle for two-facet cones, else the segment oracle."""
    if nfacets == 2:
        return Hull2D(transported)
    return Segment(transported)


# --- lattice scans ------------------------------------------------------------


def lattice_points(facets, bound):
    """``(v, F(v))`` for every ``v`` of the normal semigroup with
    ``0 <= F(v) <= bound``, by scanning a character-space box.

    For every cone in the families ``|v_i| <= 2 * bound + 2`` covers the
    region; ``record_expected.py`` checks this against a box twice as wide.
    """
    d = len(facets[0])
    r = 2 * bound + 2
    out = []
    for v in product(range(-r, r + 1), repeat=d):
        q = f_map(facets, v)
        if all(0 <= x <= bound for x in q):
            out.append((v, q))
    return out


def jumps_in_box(oracle, facets, lo, hi, bound):
    """Thresholds of ``F(v) + e`` in ``[lo, hi]`` over the scanned box."""
    found = set()
    for _, q in lattice_points(facets, bound):
        t = oracle.threshold(tuple(x + 1 for x in q))
        if lo <= t <= hi:
            found.add(t)
    return sorted(found)
