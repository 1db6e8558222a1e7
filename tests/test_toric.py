"""Semigroup data: facets, transport map, normality, ideals."""

from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricbsato import toric
from toricbsato.bsato import bfunction
from toricbsato.exactnum import IntMatrix, fm_feasible, primitive_vector, rank, solve_linear
from toricbsato.multiplier import transport_polynomial
from toricbsato.multipoly import MultiPoly
from toricbsato.polyhedra import cone_facet_normals, newton_polyhedron
from toricbsato.toric import (
    StructuralError,
    build_semigroup,
    contains,
    f_map,
    f_section,
    is_normal,
    minimal_points,
    minimalize_exponents,
    monomial_ideal,
)

# the running example: semigroup generated by (1,0),(1,1),(1,2),(1,3)
CUSP = [[1, 1, 1, 1], [0, 1, 2, 3]]


@pytest.fixture
def cusp():
    return build_semigroup(CUSP)


def test_facet_support_vectors(cusp):
    assert cusp.facets == ((3, -1), (0, 1))
    assert cusp.d == 2 and cusp.m == 4 and cusp.nfacets == 2
    assert cusp.e == (1, 1)


def test_facets_identity_and_simplicial():
    assert build_semigroup([[1, 0], [0, 1]]).facets == ((1, 0), (0, 1))
    S = build_semigroup([[1, 1, 1, 0], [0, 2, 1, 0], [0, 0, 0, 1]])
    assert S.facets == ((2, -1, 0), (0, 1, 0), (0, 0, 1))


def test_dimension_one():
    S = build_semigroup([[2]])
    assert S.facets == ((1,),)
    assert not S.saturated  # 2Z is a proper sublattice of Z
    assert cone_facet_normals(S.facets, S.d) == [(1,)]
    assert build_semigroup([[1]]).saturated


def test_one_rank_call_per_semigroup(monkeypatch):
    """The double description of the facets is the spanning test: the
    only rank call left is the one on the facet normals."""
    calls = []
    monkeypatch.setattr(toric, "rank", lambda rows: calls.append(rows) or rank(rows))
    S = build_semigroup(CUSP)
    assert calls == [S.facets]
    calls.clear()
    with pytest.raises(StructuralError, match="cone not full-dimensional"):
        build_semigroup([[1, 1], [2, 2]])
    assert calls == []


def test_structural_rejections():
    with pytest.raises(StructuralError, match="strongly convex"):
        build_semigroup([[1, -1]])
    with pytest.raises(StructuralError, match="strongly convex"):
        build_semigroup([[0, 1]])  # a zero column: no x has 0 . x > 0
    with pytest.raises(StructuralError, match="full-dimensional"):
        build_semigroup([[1, 1], [2, 2]])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=6
        )
    )
)
def test_pointedness_rank_test_matches_fourier_motzkin(columns):
    # a full-dimensional cone is strongly convex iff some x has a . x >= 1
    # on every generator a, iff its facet normals span R^d
    d = len(columns[0])
    if rank(columns) != d:
        return
    pointed, _ = fm_feasible([(a, 1) for a in columns])
    try:
        build_semigroup([list(row) for row in zip(*columns)])
    except StructuralError as exc:
        assert "strongly convex" in str(exc)
        assert not pointed
    else:
        assert pointed


def test_transport_map(cusp):
    assert f_map(cusp, (1, 1)) == (2, 1)
    assert f_map(cusp, (0, 0)) == (0, 0)
    # sections: (2,1) pulls back, (1,1) does not (3x - y = 1, y = 1 is not integral)
    assert f_section(cusp, (2, 1)) == (1, 1)
    assert f_section(cusp, (1, 1)) is None
    with pytest.raises(ValueError):
        f_section(cusp, (1, 1, 1))


@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_section_inverts_transport(v):
    S = build_semigroup(CUSP)
    assert f_section(S, f_map(S, v)) == v


def test_containment(cusp):
    assert contains(cusp, (1, 2))
    assert not contains(cusp, (0, 1))
    assert contains(cusp, (2, 3))
    assert contains(cusp, (0, 0))


def _combination_oracle(columns, facets, p, memo):
    """Test-side search: is p a nonnegative integer combination of columns?

    Recursion terminates because every column has a strictly positive total
    support value in a pointed cone.
    """
    if all(x == 0 for x in p):
        return True
    if p in memo:
        return memo[p]
    memo[p] = False
    for a in columns:
        q = tuple(x - y for x, y in zip(p, a))
        if all(sum(f[i] * q[i] for i in range(len(q))) >= 0 for f in facets):
            if _combination_oracle(columns, facets, q, memo):
                memo[p] = True
                break
    return memo[p]


@given(st.tuples(st.integers(0, 9), st.integers(0, 12)))
@settings(max_examples=150, deadline=None)
def test_membership_matches_generator_combinations(p):
    """On a normal semigroup, F(p) >= 0 iff p is an N-combination of columns."""
    S = build_semigroup(CUSP)
    assert is_normal(S)
    cols = [tuple(row[j] for row in CUSP) for j in range(4)]
    expected = _combination_oracle(cols, S.facets, p, {})
    assert contains(S, p) == expected


def test_normality_verdicts(cusp):
    assert is_normal(cusp) and cusp.normality_witness is None
    assert is_normal(build_semigroup([[1, 0], [0, 1]]))
    assert is_normal(build_semigroup([[1, 1, 1, 0], [0, 2, 1, 0], [0, 0, 0, 1]]))


def test_non_normal_witness():
    S = build_semigroup([[1, 1], [0, 3]])
    assert not S.saturated
    assert is_normal(S) is False
    assert S.normality_witness == (1, 1)
    # the witness is in the cone but not in the semigroup it claims to refute
    assert all(x >= 0 for x in f_map(S, S.normality_witness))
    cols = [(1, 0), (1, 3)]
    assert not _combination_oracle(cols, S.facets, (1, 1), {})


def test_saturated_but_not_normal():
    # dropping (1,2) keeps the lattice full but punches a hole in the semigroup
    S = build_semigroup([[1, 1, 1], [0, 1, 3]])
    assert S.saturated
    assert is_normal(S) is False
    assert S.normality_witness == (1, 2)


def test_is_normal_reads_the_columns_once(monkeypatch):
    # the combination search gets the columns from is_normal instead of
    # listing them again on every recursive call
    columns = IntMatrix.columns
    calls = []
    monkeypatch.setattr(IntMatrix, "columns", lambda self: calls.append(self) or columns(self))
    for matrix, verdict in [
        (CUSP, True),
        ([[1, 1, 1, 0], [0, 2, 1, 0], [0, 0, 0, 1]], True),
        ([[1, 1, 1], [0, 2, 3]], False),
    ]:
        S = build_semigroup(matrix)
        calls.clear()
        assert is_normal(S) is verdict
        assert calls == [S.A]
        # the verdict is computed once per datum: a second call scans nothing
        assert is_normal(S) is verdict
        assert calls == [S.A]
    assert S.normality_witness == (1, 1)


def test_deep_chain_is_normal_without_recursion():
    # the search tries the column (0, -1) first, so from (1, 0) it climbs
    # (1, 1), (1, 2), ... up to the column (1, 1000): a chain 1000 steps
    # deep, past the recursion limit of a search that recurses per step
    S = build_semigroup([[0, 1, 1], [-1, 0, 1000]])
    assert S.saturated
    assert is_normal(S) and S.normality_witness is None


def test_datum_is_immutable(cusp):
    with pytest.raises(FrozenInstanceError):
        cusp.saturated = False
    with pytest.raises(FrozenInstanceError):
        cusp.facets = ()


@st.composite
def mixed_sign_cones(draw):
    """A random pointed cone in dimension 2 or 3 with mixed-sign columns and
    a small zonotope box: columns with a positive first coordinate, moved by
    a unimodular shear of the first row, which keeps the cone pointed."""
    d = draw(st.sampled_from([2, 3]))
    cols = draw(
        st.lists(
            st.tuples(st.integers(1, 2), *[st.integers(-2, 2)] * (d - 1)), min_size=d, max_size=4
        )
    )
    shear = draw(st.integers(-2, 2))
    cols = [(c[0] + shear * c[1],) + c[1:] for c in cols]
    try:
        return build_semigroup([[c[i] for c in cols] for i in range(d)])
    except StructuralError:  # the columns span a proper subspace
        assume(False)


@given(mixed_sign_cones())
@settings(max_examples=80, deadline=None)
def test_normality_witness_matches_a_lexicographic_box_scan(S):
    """The verdict and the first witness agree with a scan of the zonotope's
    bounding box in lexicographic order against the combination oracle."""
    cols = S.A.columns()
    ranges = [
        range(sum(min(0, a[i]) for a in cols), sum(max(0, a[i]) for a in cols) + 1)
        for i in range(S.d)
    ]
    memo = {}
    expected = next(
        (
            p
            for p in product(*ranges)
            if all(x >= 0 for x in f_map(S, p))
            and not _combination_oracle(cols, S.facets, p, memo)
        ),
        None,
    )
    assert S.normality_witness == expected
    assert is_normal(S) is (expected is None)


def test_extreme_rays(cusp):
    # the extreme rays are the inner facet normals of the dual cone, which
    # the facet support vectors span
    assert cone_facet_normals(cusp.facets, cusp.d) == [(1, 3), (1, 0)]
    S = build_semigroup([[1, 0], [0, 1]])
    assert cone_facet_normals(S.facets, S.d) == [(1, 0), (0, 1)]
    S = build_semigroup([[1, 1, 1, 0], [0, 2, 1, 0], [0, 0, 0, 1]])
    assert cone_facet_normals(S.facets, S.d) == [(1, 2, 0), (1, 0, 0), (0, 0, 1)]


@st.composite
def pointed_cones(draw):
    """A random pointed cone in dimension 2 or 3.  Every column has a
    positive first coordinate, so the cone is pointed; the columns
    ``(1, 0, ..., 0)`` and ``(1, e_j)`` make it full-dimensional."""
    d = draw(st.sampled_from([2, 3]))
    extra = draw(
        st.lists(
            st.tuples(st.integers(1, 4), *[st.integers(-4, 4)] * (d - 1)), min_size=1, max_size=4
        )
    )
    cols = [tuple(1 if i == 0 or i == j else 0 for i in range(d)) for j in range(d)] + extra
    return build_semigroup([[c[i] for c in cols] for i in range(d)])


@given(pointed_cones())
@settings(max_examples=60, deadline=None)
def test_extreme_rays_invariant(S):
    """Each ray is primitive, lies in the cone and is cut out by facets of
    rank d - 1."""
    rays = cone_facet_normals(S.facets, S.d)
    assert len(rays) == len(set(rays)) >= S.d
    for r in rays:
        assert gcd(*r) == 1
        vals = f_map(S, r)
        assert all(v >= 0 for v in vals)
        assert rank([f for f, v in zip(S.facets, vals) if v == 0]) == S.d - 1


def _section_by_solve(S, q):
    """Reference lift: solve ``F v = q`` over Q, keep an integral solution
    whose image is ``q``."""
    x = solve_linear(S.facets, q)
    if x is None or any(c.denominator != 1 for c in x):
        return None
    v = tuple(int(c) for c in x)
    return v if f_map(S, v) == tuple(q) else None


@given(
    pointed_cones(),
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(-6, 6), min_size=8, max_size=8), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_section_matches_solve(S, v, qs):
    """``f_section`` inverts ``f_map`` on the lattice and agrees with the
    solve-then-check lift on arbitrary points of ``Z^F``."""
    v = tuple(v[: S.d])
    assert f_section(S, f_map(S, v)) == v
    for q in qs:
        q = tuple(q[: S.nfacets])
        assert f_section(S, q) == _section_by_solve(S, q)


def test_minimalize_exponents(cusp):
    assert minimalize_exponents(cusp, [(1, 1), (2, 2)]) == ((1, 1),)
    assert minimalize_exponents(cusp, [(1, 2), (1, 1)]) == ((1, 1), (1, 2))
    # duplicates collapse
    assert minimalize_exponents(cusp, [(1, 1), (1, 1)]) == ((1, 1),)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.integers()), max_size=12
        )
    )
)
@settings(max_examples=200)
def test_minimal_points_match_definition(points):
    # small coordinates force duplicates and ties in the coordinate sum
    def below(k, q):
        return all(x <= y for x, y in zip(k, q))

    minimal = {q for q, _ in points if not any(below(k, q) and k != q for k, _ in points)}
    kept = minimal_points(points)
    assert [q for q, _ in kept] == sorted(minimal, key=lambda q: (sum(q), q))
    first = {}
    for q, v in points:
        first.setdefault(q, v)
    assert all(v == first[q] for q, v in kept)


def test_monomial_ideal_validation(cusp):
    J = monomial_ideal(cusp, [(1, 1), (1, 2), (2, 2)])
    assert J.generators == ((1, 1), (1, 2))
    assert J.owner is cusp
    with pytest.raises(ValueError, match="at least one"):
        monomial_ideal(cusp, [])
    # bfunction uses a raw exponent list as given, after the same checks
    for build in (monomial_ideal, bfunction):
        with pytest.raises(ValueError, match=r"exponent \(0, 1\) outside the semigroup"):
            build(cusp, [(0, 1)])
        with pytest.raises(ValueError, match=r"exponent \(1, -1\) outside the semigroup"):
            build(PLANE, [(1, -1)])
        with pytest.raises(ValueError, match="wrong dimension"):
            build(cusp, [(1, 1), (1, 1, 1)])


PLANE = build_semigroup([[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "make",
    [
        lambda: IntMatrix([[1, 0.5], [0, 1]]),
        lambda: build_semigroup([[1, 1], [0, 2.9]]),
        lambda: primitive_vector([Fraction(3, 2), 3]),
        lambda: cone_facet_normals([(1, 0), (Fraction(1, 2), 1)], 2),
        lambda: newton_polyhedron([(Fraction(1, 2), 1), (2, 0)], [(1, 0), (0, 1)]),
        lambda: monomial_ideal(PLANE, [(1.7, 0)]),
        lambda: minimalize_exponents(PLANE, [(1, Fraction(2))]),
        lambda: bfunction(PLANE, [(2.0, 0)]),
        lambda: MultiPoly(2, {(1, 0.5): 1}),
        lambda: MultiPoly(2.7, {(1, 0): 1}),
        lambda: transport_polynomial(PLANE, [[(1, (1.5, 0.5))]]),
        lambda: transport_polynomial(PLANE, [[(1, (Fraction(3, 2), 1))]]),
    ],
    ids=[
        "IntMatrix", "build_semigroup", "primitive_vector", "cone_facet_normals",
        "newton_polyhedron", "monomial_ideal", "minimalize_exponents", "bfunction",
        "MultiPoly", "MultiPoly-nvars", "transport_polynomial-float",
        "transport_polynomial-Fraction",
    ],
)
def test_public_edge_refuses_non_integers(make):
    # an integer input that is a float or a Fraction is refused, never
    # truncated to a nearby lattice point
    with pytest.raises(TypeError):
        make()
