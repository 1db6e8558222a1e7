"""Newton polyhedra: H-representation, membership, thresholds.

The 2-D facet enumeration is cross-checked against an independent
gift-wrapping convex hull: the polyhedron ``conv(points) + cone(rays)`` has
the same facets as the hull of ``points + {p + K r}`` for large ``K``, once
the artificial far edges are discarded (those whose inequality is violated
by pushing further along a ray).
"""

import json
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricbsato import exactnum, polyhedra
from toricbsato.exactnum import (
    WorkCapExceeded,
    _bareiss,
    _integer_row,
    dot,
    primitive_vector,
    rank,
    solve_linear,
)
from toricbsato.polyhedra import (
    cone_facet_normals,
    inequality_vertices,
    membership,
    newton_polyhedron,
    point_threshold,
)
from toricbsato.toric import build_semigroup, monomial_ideal

F = Fraction
ORTHANT2 = [(1, 0), (0, 1)]


# --- independent 2-D hull oracle -------------------------------------------


def _hull(points):
    """Monotone-chain convex hull, counterclockwise, no duplicates."""
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


def oracle_facets_2d(points, rays, K=10_000):
    """Facets of conv(points) + cone(rays) via a big-K hull."""
    cloud = list(points) + [
        (p[0] + K * r[0], p[1] + K * r[1]) for p in points for r in rays
    ]
    hull = _hull(cloud)
    n = len(hull)
    found = set()
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        normal = (-(b[1] - a[1]), b[0] - a[0])  # inward for ccw order
        if normal == (0, 0):
            continue
        normal = primitive_vector(normal)
        if any(dot(normal, r) < 0 for r in rays):
            continue  # artificial far edge
        offset = min(dot(normal, p) for p in points)
        found.add((normal, offset))
    return found


def test_running_example_polyhedron():
    P = newton_polyhedron([(2, 1), (1, 2)], ORTHANT2)
    assert set(P.facets) == {((1, 0), 1), ((0, 1), 1), ((1, 1), 3)}
    assert inequality_vertices(list(P.facets)) == [(1, 2), (2, 1)]


def test_translated_orthant():
    P = newton_polyhedron([(1, 1)], ORTHANT2)
    assert set(P.facets) == {((1, 0), 1), ((0, 1), 1)}
    assert inequality_vertices(list(P.facets)) == [(1, 1)]


def test_non_orthant_recession_cone():
    # same points, recession cone spanned by (1,0) and (1,3)
    P = newton_polyhedron([(1, 1), (1, 2)], [(1, 0), (1, 3)])
    assert set(P.facets) == {((3, -1), 1), ((1, 0), 1), ((0, 1), 1)}


def test_vertices_are_minimal_generators():
    # (2,2) = (1,1) + orthant, so it is not a vertex
    P = newton_polyhedron([(1, 1), (2, 2), (0, 3)], ORTHANT2)
    assert inequality_vertices(list(P.facets)) == [(0, 3), (1, 1)]


def test_empty_points_rejected():
    with pytest.raises(ValueError):
        newton_polyhedron([], ORTHANT2)


def test_a_normal_negative_on_a_ray_is_an_engine_fault(monkeypatch):
    # each point satisfies every facet by the choice of its offset, so the
    # sanity check tests the rays alone: a normal negative on (0, 1) fails
    monkeypatch.setattr(polyhedra, "_cone_rays", lambda rows, dim, start=None: [(0, 1, -1)])
    with pytest.raises(AssertionError, match="input ray violates computed facet"):
        newton_polyhedron([(1, 1)], ORTHANT2)


def test_newton_polyhedron_makes_no_rank_call(monkeypatch):
    """The double description of the homogenized cone is the spanning
    test and gives the facets; the polyhedron is kept as its facets, so no
    rank test runs."""
    calls = []

    def spy(rows):
        calls.append(rows)
        return rank(rows)

    monkeypatch.setattr(exactnum, "rank", spy)
    # a from-import of rank would bypass the exactnum attribute
    monkeypatch.setattr(polyhedra, "rank", spy, raising=False)
    P = newton_polyhedron([(0, 4), (1, 1), (2, 2), (4, 0)], ORTHANT2)
    assert inequality_vertices(list(P.facets)) == [(0, 4), (1, 1), (4, 0)]
    with pytest.raises(ValueError, match="polyhedron not full-dimensional"):
        newton_polyhedron([(0, 0), (1, 1)], [(1, 1)])
    assert calls == []


def reference_cone_rays(rows, dim):
    """The double description with its start from two eliminations: one of
    ``rows^T`` for the first ``dim`` independent rows ``B``, one of ``[B |
    I]`` for the columns of ``B^-1``.  Returns ``(rays, pairs)``, ``pairs``
    the ``(+, -)`` ray pairs tested, or ``None`` when the rows do not span
    ``R^dim``; no cap."""
    _, basis, _ = _bareiss(list(zip(*rows)))
    if len(basis) < dim:
        return None
    a, _, p = _bareiss([list(rows[i]) + [int(i == k) for k in basis] for i in basis])
    full = sum(1 << i for i in basis)
    rays = [
        (primitive_vector([p * row[dim + j] for row in a]), full ^ (1 << i))
        for j, i in enumerate(basis)
    ]
    pairs = 0
    for i, r in enumerate(rows):
        if i in basis:
            continue
        vals = [(dot(r, y), y, z) for y, z in rays]
        pos = [t for t in vals if t[0] > 0]
        neg = [t for t in vals if t[0] < 0]
        pairs += len(pos) * len(neg)
        kept = [(y, z | 1 << i if v == 0 else z) for v, y, z in vals if v >= 0]
        for vp, yp, zp in pos:
            for vn, yn, zn in neg:
                common = zp & zn
                if common.bit_count() >= dim - 2 and not any(
                    z & common == common and z != zp and z != zn for _, z in rays
                ):
                    y = primitive_vector([vp * x - vn * w for x, w in zip(yn, yp)])
                    kept.append((y, common | 1 << i))
        rays = kept
    return [y for y, _ in rays], pairs


def _cone_rays_and_pairs(rows, dim):
    """``polyhedra._cone_rays`` and the ray pairs its counter was charged."""
    counters = []

    def counted(cap, limit):
        counters.append(exactnum.Work(cap, limit))
        return counters[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "Work", counted)
        rays = polyhedra._cone_rays(rows, dim)
    return rays, sum(w.count for w in counters)


@given(
    st.integers(1, 5).flatmap(
        lambda dim: st.tuples(
            st.just(dim),
            st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=9),
        )
    )
)
@example((3, [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]))  # a row repeats a start row
@example((3, [(1, 1, 0), (2, 2, 0), (0, 0, 1)]))  # rank 2
@settings(max_examples=300, deadline=None)
def test_one_elimination_start_matches_the_two_elimination_reference(case):
    """The start read off one elimination of ``[rows^T | I]`` picks the
    reference's first independent rows and start rays: the same rays and
    the same ray-pair count, or ``None`` for both."""
    dim, rows = case
    want = reference_cone_rays(rows, dim)
    rays, pairs = _cone_rays_and_pairs(rows, dim)
    if want is None:
        assert rays is None
    else:
        assert set(rays) == set(want[0]) and len(rays) == len(want[0])
        assert pairs == want[1]


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=5),
            st.permutations([tuple(int(j == k) for j in range(n)) for k in range(n)]),
            st.lists(st.tuples(*[st.integers(-1, 3)] * n).filter(any), max_size=3),
        )
    )
)
@example(([(2, 1, 0), (1, 2, 0)], [(0, 0, 1), (1, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 2, 1)]))
@settings(max_examples=200, deadline=None)
def test_orthant_start_gives_the_reference_facets(case):
    """With every unit vector among the rays, shuffled and with extra rays
    (redundant ones in the orthant, or others), the closed-form start gives
    the facets of the elimination start."""
    points, units, extra = case
    rays = units + extra
    P = newton_polyhedron(points, rays)

    def elimination_start(rows, dim, start=None):
        return reference_cone_rays(rows, dim)[0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "_cone_rays", elimination_start)
        assert P == newton_polyhedron(points, rays)


def test_orthant_newton_polyhedron_makes_no_elimination(monkeypatch):
    """A Newton polyhedron whose rays hold every unit vector, as every
    transported polyhedron does, starts its double description in closed
    form; any other double description makes one elimination."""
    S = build_semigroup([[1, 1, 1, 1], [0, 1, 2, 3]])
    ideal = monomial_ideal(S, [(2, 1), (2, 3), (3, 6)])
    calls = []

    def spy(rows):
        calls.append(rows)
        return _bareiss(rows)

    monkeypatch.setattr(polyhedra, "_bareiss", spy)
    P = newton_polyhedron([(0, 4), (1, 1), (2, 2), (4, 0)], [(0, 1), (1, 1), (1, 0)])
    assert ideal.transported_polyhedron.facets
    assert calls == []
    assert inequality_vertices(list(P.facets)) == [(0, 4), (1, 1), (4, 0)]
    assert len(calls) == 1
    newton_polyhedron([(1, 1), (1, 2)], [(1, 0), (1, 3)])
    assert len(calls) == 2
    cone_facet_normals([(1, 0), (1, 3)], 2)
    assert len(calls) == 3


point_sets = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=6
)


@given(point_sets)
@settings(max_examples=120, deadline=None)
def test_facets_match_gift_wrapping(points):
    P = newton_polyhedron(points, ORTHANT2)
    assert set(P.facets) == oracle_facets_2d(points, ORTHANT2)


@given(point_sets, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=100)
def test_vh_consistency(points, k1, k2):
    """Input points and nonnegative ray combinations satisfy the H-rep."""
    P = newton_polyhedron(points, ORTHANT2)
    for p in points:
        q = (p[0] + k1, p[1] + k2)
        assert membership(P, q, 1, "closed")


@given(point_sets, st.fractions(min_value="1/3", max_value=3, max_denominator=6))
@settings(max_examples=80)
def test_dilation_consistency(points, alpha):
    P = newton_polyhedron(points, ORTHANT2)
    for q in product(range(0, 8), repeat=2):
        scaled = tuple(F(x) / alpha for x in q)
        assert membership(P, q, alpha, "closed") == membership(P, scaled, 1, "closed")


@given(point_sets)
@settings(max_examples=80)
def test_membership_monotone_under_orthant(points):
    P = newton_polyhedron(points, ORTHANT2)
    for q in product(range(0, 6), repeat=2):
        if membership(P, q, 1, "closed"):
            assert membership(P, (q[0] + 1, q[1]), 1, "closed")
            assert membership(P, (q[0], q[1] + 2), 1, "closed")
        t = point_threshold(P, q)
        t_up = point_threshold(P, (q[0] + 1, q[1] + 1))
        if t is not None and t_up is not None:
            assert t_up >= t


def _membership_fraction(P, q, alpha, mode="closed"):
    """Reference membership: every facet compared in ``Fraction``s."""
    if mode not in ("closed", "relint"):
        raise ValueError("mode must be 'closed' or 'relint'")
    a = F(alpha)
    if a <= 0:
        raise ValueError("dilation factor must be positive")
    qv = [F(x) for x in q]
    if len(qv) != P.ambient_dim:
        raise ValueError("point has wrong dimension")
    for normal, offset in P.facets:
        lhs = dot(normal, qv)
        rhs = a * offset
        if mode == "closed":
            if lhs < rhs:
                return False
        else:
            if lhs <= rhs:
                return False
    return True


entries = st.one_of(
    st.integers(-4, 20), st.fractions(min_value=-4, max_value=20, max_denominator=12)
)
alphas = st.one_of(
    st.integers(1, 4), st.fractions(min_value=F(1, 12), max_value=4, max_denominator=12)
)
ORTHANT3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@given(
    st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=1, max_size=5),
    st.sampled_from([ORTHANT3, [(1, 0, 0), (1, 3, 0), (0, 0, 1)]]),
    st.tuples(entries, entries, entries),
    alphas,
    st.sampled_from(["closed", "relint"]),
    st.booleans(),
)
@example([(2, 1, 0), (1, 2, 0)], ORTHANT3, (0, 0, 0), F(3, 2), "relint", True)
@settings(max_examples=300, deadline=None)
def test_integer_membership_matches_fraction_reference(points, rays, q, alpha, mode, on_point):
    """The integer membership agrees with the Fraction reference on points
    mixing ints and Fractions; ``on_point`` moves ``q`` onto ``alpha``
    times a vertex, where the closed and relint answers differ."""
    P = newton_polyhedron(points, rays)
    if on_point:
        q = tuple(alpha * x for x in inequality_vertices(list(P.facets))[0])
    assert membership(P, q, alpha, mode) == _membership_fraction(P, q, alpha, mode)


@given(
    st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=1, max_size=5),
    st.sampled_from([ORTHANT3, [(1, 0, 0), (1, 3, 0), (0, 0, 1)]]),
    st.tuples(*[st.integers(-4, 20)] * 3),
    st.integers(1, 12),
    st.integers(1, 12),
    st.booleans(),
)
@example([(2, 1, 0), (1, 2, 0)], ORTHANT3, (2, 1, 0), 1, 1, False)  # a vertex at alpha 1
@example([(2, 1, 0), (1, 2, 0)], ORTHANT3, (2, 2, 1), 4, 3, False)  # on x + y >= 3 at alpha 4/3
@settings(max_examples=300, deadline=None)
def test_integer_boundary_test_is_closed_and_not_relint(points, rays, q, num, den, on_vertex):
    """``_on_boundary`` is ``membership`` closed and not relint at ``alpha
    = num / den``; ``on_vertex`` moves ``q`` to ``num`` times a vertex and
    the dilation to ``num den / den``, a boundary point."""
    P = newton_polyhedron(points, rays)
    if on_vertex:
        q = tuple(num * x for x in inequality_vertices(list(P.facets))[0])
        num *= den
    alpha = F(num, den)
    want = membership(P, q, alpha, "closed") and not membership(P, q, alpha, "relint")
    assert polyhedra._on_boundary(P, q, num, den) == want


def test_membership_spot_values():
    P = newton_polyhedron([(2, 1), (1, 2)], ORTHANT2)
    assert membership(P, (2, 2), F(4, 3), "closed")
    assert not membership(P, (2, 2), F(4, 3), "relint")
    assert membership(P, (1, 1), F(2, 3), "closed")
    assert not membership(P, (1, 1), F(2, 3), "relint")
    assert membership(P, (10, 10), 4, "relint")
    with pytest.raises(ValueError):
        membership(P, (1, 1), 0, "closed")
    with pytest.raises(ValueError):
        membership(P, (1, 1), 1, "open")


def test_point_threshold():
    P = newton_polyhedron([(2, 1), (1, 2)], ORTHANT2)
    assert point_threshold(P, (1, 1)) == F(2, 3)
    assert point_threshold(P, (0, 0)) == 0
    assert point_threshold(P, (3, 3)) == 2
    # boundary check: at the threshold the point is closed-but-not-interior
    q, t = (1, 1), F(2, 3)
    assert membership(P, q, t, "closed") and not membership(P, q, t, "relint")
    # a rational point is checked scaled to integers
    assert point_threshold(P, (F(1, 2), F(1, 2))) == F(1, 3)


def test_point_threshold_degenerate_cases():
    orthant = newton_polyhedron([(0, 0)], ORTHANT2)
    # no positive offsets: every positive dilation contains the point
    assert point_threshold(orthant, (1, 1)) is None
    # a zero-offset facet excludes the point at every dilation
    with pytest.raises(ValueError, match="threshold undefined"):
        point_threshold(orthant, (-1, 0))


def _facets_by_subsets(generators, dim):
    """Reference: every ``(dim-1)``-subset of generators of rank ``dim-1``
    spans a hyperplane, kept (suitably oriented) when all generators lie on
    one side; each facet of a full-dimensional cone is spanned by such a
    subset.  The normal is read off one Bareiss elimination: with last pivot
    ``p`` the free column gets ``p`` and pivot column ``pivots[i]`` gets
    ``-a[i][free]``.  In dimension 1 the empty subset gives ``(1,)``."""
    found = set()
    for subset in combinations(generators, dim - 1):
        a, pivots, p = _bareiss(list(subset))
        if len(pivots) != dim - 1:
            continue
        free = next(j for j in range(dim) if j not in pivots)
        kernel = [0] * dim
        kernel[free] = p
        for row, c in zip(a, pivots):
            kernel[c] = -row[free]
        normal = primitive_vector(kernel)
        vals = [dot(normal, g) for g in generators]
        if all(v >= 0 for v in vals):
            found.add(normal)
        elif all(v <= 0 for v in vals):
            found.add(tuple(-x for x in normal))
    return sorted(found, reverse=True)


@st.composite
def spanning_generators(draw):
    """Generators spanning ``R^dim``, dimension 1 to 6, with mixed signs and
    duplicates; the lower end of the first coordinate sets how often the
    cone is pointed (always at 1) or the whole space."""
    dim = draw(st.integers(1, 6))
    lo = draw(st.sampled_from([-3, -1, 0, 1]))
    vec = st.tuples(st.integers(lo, 3), *[st.integers(-3, 3)] * (dim - 1))
    gens = draw(st.lists(vec, min_size=dim, max_size=10))
    gens += draw(st.lists(st.sampled_from(gens), max_size=3))
    assume(rank(gens) == dim)
    return dim, gens


@given(spanning_generators())
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 0)]))
@settings(max_examples=250, deadline=None)
def test_facet_normals_match_subset_scan(case):
    dim, gens = case
    assert cone_facet_normals(gens, dim) == _facets_by_subsets(gens, dim)


FOURTEEN_MIXED = Path(__file__).parents[1] / "scripts" / "problems" / "fourteen_mixed_columns.json"


def test_ray_pairs_cap(monkeypatch):
    # the 14 mixed-sign columns in dimension 5 test 811 ray pairs in all: a
    # cap one below that stops the call before its last pairs
    columns = list(zip(*json.loads(FOURTEEN_MIXED.read_text())["matrix"]))
    monkeypatch.setattr(polyhedra, "RAY_PAIRS_CAP", 811)
    assert len(cone_facet_normals(columns, 5)) == 42
    monkeypatch.setattr(polyhedra, "RAY_PAIRS_CAP", 810)
    with pytest.raises(WorkCapExceeded, match="RAY_PAIRS_CAP exceeded: 811 > 810") as exc:
        cone_facet_normals(columns, 5)
    assert exc.value.cap == "RAY_PAIRS_CAP"


def test_inequality_vertices_refuse_rows_that_are_not_integer():
    # each of these used to be answered: [(1, 0)], [], [] and an IndexError
    with pytest.raises(TypeError):
        inequality_vertices([((1, 0), F(3, 2)), ((0, 1), F(1, 3))])
    with pytest.raises(TypeError):
        inequality_vertices([((F(1, 2), 0), 1), ((0, 1), 0)])
    with pytest.raises(TypeError):
        inequality_vertices([((1.0, 0), 1), ((0, 1), 0)])
    with pytest.raises(ValueError, match="one arity"):
        inequality_vertices([((1, 0), 1), ((0, 1, 0), 0), ((0, 0, 1), 0)])
    with pytest.raises(ValueError, match="nonempty"):
        inequality_vertices([])


def test_rows_of_low_rank():
    # rank 2 in dimension 3: the dual cone and the inequality system both
    # hold the line through (0, 0, 1), so there is no facet cone and no vertex
    rows = [(1, i, 0) for i in range(450)]
    with pytest.raises(ValueError, match="do not span"):
        cone_facet_normals(rows, 3)
    assert inequality_vertices([(r, 0) for r in rows]) == []


def test_facet_normals_in_dimension_one():
    """The dual cone of a half-line is a half-line, with the one ray
    ``(1,)`` or ``(-1,)`` in the orientation of the generators; the whole
    line has none."""
    assert cone_facet_normals([(2,), (3,)], 1) == [(1,)]
    assert cone_facet_normals([(-2,), (-3,)], 1) == [(-1,)]
    assert cone_facet_normals([(-1,), (2,)], 1) == []


def _vertices_by_rank_and_solve(rows, rhs):
    """Reference: a rank test, then a separate exact solve, per subset."""
    dim = len(rows[0])
    found = set()
    for subset in combinations(range(len(rows)), dim):
        square = [rows[i] for i in subset]
        if rank(square) == dim:
            x = tuple(solve_linear(square, [rhs[i] for i in subset]))
            if all(dot(r, x) >= b for r, b in zip(rows, rhs)):
                found.add(x)
    return sorted(found)


# the relint boundary region of ``square`` with ideal <(1,0,0), (1,1,1)>,
# w = (0, 0, -1), alpha = 1: the row (1,0,0) . v >= 2 is implied by the
# first and fourth
SQUARE_BOUNDARY_REGION = [
    ((1, 0, -1), 2), ((1, -1, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 0),
    ((1, -1, 1), 1), ((1, 0, 0), 2), ((1, 1, -1), 3),
]


@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.lists(
            st.tuples(st.tuples(*[st.integers(-3, 3)] * dim), entries), min_size=1, max_size=6
        )
    ),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3)), max_size=3),
)
@example([((1, 0), 0), ((0, 1), 0), ((1, 1), F(5, 2)), ((2, 2), 5)], [])
@example(SQUARE_BOUNDARY_REGION, [])
@example(SQUARE_BOUNDARY_REGION, [(0, 0, 0), (0, 3, 1)])
@settings(max_examples=300, deadline=None)
def test_inequality_vertices_match_rank_and_solve(system, extra):
    """The vertices of the double description are those that a rank test
    and an exact solve find on every ``dim``-subset of rows.  Each
    ``(i, j, slack)`` in ``extra`` appends a duplicate of row ``i`` when
    ``i == j``, else the implied row ``row_i + row_j >= b_i + b_j - slack``.
    The double description takes integer rows ``(a, c)``, so each row is
    scaled to integers first."""
    for i, j, slack in extra:
        (ri, bi), (rj, bj) = system[i % len(system)], system[j % len(system)]
        if i == j:
            system = system + [(ri, bi)]
        else:
            system = system + [(tuple(x + y for x, y in zip(ri, rj)), bi + bj - slack)]
    rows = [r for r, _ in system]
    rhs = [b for _, b in system]
    scaled = [_integer_row([*r, b]) for r, b in system]
    integer_rows = [(tuple(row[:-1]), row[-1]) for row in scaled]
    assert inequality_vertices(integer_rows) == _vertices_by_rank_and_solve(rows, rhs)
