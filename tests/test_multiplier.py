"""Transport, multiplier ideals, thresholds, jumping coefficients."""

import dataclasses
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, floor, prod
from operator import add, mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricbsato import exactnum, multiplier, polyhedra, toric
from toricbsato.exactnum import (
    IntMatrix,
    _fm_levels,
    _fm_witness,
    _lattice_lines,
    _line_interval,
    _primitive_row,
    dot,
    rank,
    solve_linear,
)
from toricbsato.multiplier import (
    WorkCapExceeded,
    ambient_pair,
    jumping_coefficients,
    lct,
    multiplier_ideal,
    multiplier_ideal_with_boundary,
    transport,
    transport_polynomial,
    transported_polyhedron,
    verify_correspondence,
)
from toricbsato.multipoly import MultiPoly, UniPoly
from toricbsato.polyhedra import (
    cone_facet_normals,
    inequality_vertices,
    membership,
    newton_polyhedron,
    point_threshold,
)
from toricbsato.toric import (
    SemigroupData,
    build_semigroup,
    f_map,
    is_normal,
    monomial_ideal,
)

from test_bsato import random_normal_cones

F = Fraction
CUSP = [[1, 1, 1, 1], [0, 1, 2, 3]]

# Normal cones of dimension 2 and 3; the columns generate the semigroup.
NORMAL_CONES = {
    "cusp": CUSP,
    "a5": [[0, 1, 6], [1, 1, 5]],
    "plane": [[1, 0], [0, 1]],
    "simplicial": [[1, 1, 1, 0], [0, 2, 1, 0], [0, 0, 0, 1]],
    "square": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
    "cube4": [[1, 1, 1, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 1, 1]],
    "hexagon": [[1, 1, 1, 1, 1, 1, 1], [0, 1, 0, -1, -1, 0, 1], [0, 0, 1, 1, 0, -1, -1]],
}


@pytest.fixture
def cusp():
    return build_semigroup(CUSP)


@pytest.fixture
def cusp_ideal(cusp):
    return monomial_ideal(cusp, [(1, 1), (1, 2)])


def _in_ideal(S, gens, v):
    """Monomial-ideal membership by divisibility (componentwise on F-images)."""
    fv = f_map(S, v)
    return any(
        all(x >= y for x, y in zip(fv, f_map(S, g))) for g in gens
    )


# --- transport --------------------------------------------------------------


def test_transport(cusp, cusp_ideal):
    assert transport(cusp, cusp_ideal) == ((1, 2), (2, 1))
    # non-minimal input is minimalized first: (2,2) = (1,1) + (1,1)
    assert transport(cusp, [(1, 1), (2, 2)]) == ((2, 1),)


def test_transport_polynomial(cusp):
    out = transport_polynomial(cusp, [[(1, (1, 1)), (1, (1, 3))]])
    assert out == [[(F(1), (0, 3)), (F(1), (2, 1))]]
    # like terms combine, cancellation drops the term
    assert transport_polynomial(cusp, [[(1, (1, 1)), (-1, (1, 1))]]) == [[]]
    with pytest.raises(ValueError, match="outside the semigroup"):
        transport_polynomial(cusp, [[(1, (0, 1))]])
    with pytest.raises(ValueError, match="exponent has wrong dimension"):
        transport_polynomial(cusp, [[(1, (1, 1)), (1, (1, 1, 0))]])


def test_transported_polyhedron(cusp, cusp_ideal):
    P = transported_polyhedron(cusp, cusp_ideal)
    assert set(P.facets) == {((1, 0), 1), ((0, 1), 1), ((1, 1), 3)}


# --- multiplier ideals ------------------------------------------------------


def test_multiplier_spot_values(cusp, cusp_ideal):
    maximal = ((1, 0), (1, 1), (1, 2), (1, 3))
    cases = {
        F(1, 3): ((0, 0),),
        F(1, 2): ((0, 0),),
        F(2, 3): maximal,
        F(1): ((1, 1), (1, 2)),
    }
    for alpha, expected in cases.items():
        res = multiplier_ideal(cusp, cusp_ideal, alpha)
        assert res.generators == expected, alpha
        assert res.stabilized
        assert res.alpha == alpha and res.mode == "relint"


def test_closed_mode_is_left_limit(cusp, cusp_ideal):
    # the ideal "just below" 1 equals the relint ideal at the previous jump
    closed = multiplier_ideal(cusp, cusp_ideal, 1, mode="closed")
    at_lct = multiplier_ideal(cusp, cusp_ideal, F(2, 3))
    assert closed.generators == at_lct.generators
    with pytest.raises(ValueError):
        multiplier_ideal(cusp, cusp_ideal, 1, mode="open")
    with pytest.raises(ValueError):
        multiplier_ideal(cusp, cusp_ideal, 0)


def test_multiplier_ideals_shrink(cusp, cusp_ideal):
    grid = [F(1, 3), F(2, 3), F(5, 6), F(1), F(7, 6)]
    results = [multiplier_ideal(cusp, cusp_ideal, a).generators for a in grid]
    for smaller, larger in zip(results[1:], results):
        # every generator at the larger parameter lies in the smaller's ideal
        for g in smaller:
            assert _in_ideal(cusp, larger, g)


def test_pointwise_agreement_with_ambient(cusp, cusp_ideal):
    """v is in the multiplier ideal on X iff F(v) is in the one on the
    ambient polynomial ring, point by point."""
    S_free, J = ambient_pair(cusp, cusp_ideal)
    assert J.generators == ((1, 2), (2, 1))
    for alpha in (F(1, 3), F(2, 3), F(1), F(7, 6)):
        ours = multiplier_ideal(cusp, cusp_ideal, alpha).generators
        ambient = multiplier_ideal(S_free, J, alpha).generators
        for v in product(range(0, 4), repeat=2):
            if any(x < 0 for x in f_map(cusp, v)):
                continue
            assert _in_ideal(cusp, ours, v) == _in_ideal(S_free, ambient, f_map(cusp, v))


def _left_inverse(S):
    """Rational rows ``X`` with ``X F = I``: the inverse of the first ``d``
    independent facet rows, zero on the others, by ``solve_linear``."""
    picked = []
    for k, f in enumerate(S.facets):
        if len(picked) < S.d and rank([S.facets[j] for j in picked] + [f]) > len(picked):
            picked.append(k)
    square_t = [[S.facets[k][i] for k in picked] for i in range(S.d)]
    X = []
    for i in range(S.d):
        x = solve_linear(square_t, [int(i == j) for j in range(S.d)])
        row = [F(0)] * S.nfacets
        for k, xk in zip(picked, x):
            row[k] = xk
        X.append(row)
    return X


def _scan_minimal_members(S, bound, member):
    """Minimal generators with ``F(v) <= bound`` by a plain scan.

    The points of the image ``F(Z^d)`` in the box ``[0, bound]`` are listed
    in the character space: a rational left inverse ``X F = I`` bounds each
    coordinate of ``v = X F(v)``.  A member ``v`` is a minimal generator
    when no ``v - a_j`` is a member: the members form an ideal of a normal
    semigroup, so anything below ``v`` lies below some ``v - a_j``.
    """
    ranges = []
    for row in _left_inverse(S):
        lo, hi = (sum(f(0, x * b) for x, b in zip(row, bound)) for f in (min, max))
        ranges.append(range(ceil(lo), floor(hi) + 1))
    found = []
    for v in product(*ranges):
        # facet by facet, so most points of the box fail after one or two
        if not all(0 <= sum(map(mul, f, v)) <= b for f, b in zip(S.facets, bound)):
            continue
        if member(v) and not any(member(tuple(x - y for x, y in zip(v, a))) for a in S.A.columns()):
            found.append(v)
    return tuple(sorted(found))


@given(cone=st.sampled_from(sorted(NORMAL_CONES)), data=st.data())
@settings(max_examples=30, deadline=None)
def test_generating_box_holds_every_generator(cone, data):
    """Both multiplier functions agree with a plain scan of ``2 * box + 2``.

    Generators are sums of distinct columns of ``A``.
    """
    S = build_semigroup(NORMAL_CONES[cone])
    cols = S.A.columns()
    subsets = st.sets(st.integers(0, len(cols) - 1), min_size=1)
    picks = data.draw(st.lists(subsets, min_size=1, max_size=2))
    ideal = monomial_ideal(
        S, [tuple(sum(cols[j][i] for j in js) for i in range(S.d)) for js in picks]
    )
    alpha = F(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    _check_generating_box(S, ideal, alpha, data)


@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_generating_box_on_the_hexagon(data):
    # six facets: one column of A as the ideal at alpha = 1/2 or 1/3, the
    # distribution that raised WorkCapExceeded on some boundary draws
    S = build_semigroup(NORMAL_CONES["hexagon"])
    ideal = monomial_ideal(S, [tuple(data.draw(st.sampled_from(S.A.columns())))])
    _check_generating_box(S, ideal, F(1, data.draw(st.integers(2, 3))), data)


def _check_generating_box(S, ideal, alpha, data):
    """Draw a mode and the plain or boundary variant; compare with the scan,
    and the integer box with the box over the region's Fraction vertices."""
    regions = []

    def spy(rows, start):
        regions.append(rows)
        _assert_cached_start(S, rows, start)
        return polyhedra._vertex_rays(rows, start)

    mode = data.draw(st.sampled_from(["relint", "closed"]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiplier, "_vertex_rays", spy)
        if data.draw(st.booleans()):
            res = multiplier_ideal(S, ideal, alpha, mode)
            member = _plain_member(S, ideal, alpha, mode)
        else:
            k = data.draw(st.integers(1, 3))
            w = tuple(F(x, k) for x in data.draw(st.lists(st.integers(-2, 2), min_size=S.d, max_size=S.d)))
            assume(all(dot(f, w) >= -1 for f in S.facets))  # an effective boundary divisor
            res = multiplier_ideal_with_boundary(S, ideal, w, alpha, mode)
            member = _twisted_member(S, ideal, w, alpha, mode)
    assert res.stabilized
    assert res.box_used == _fraction_box(S, regions[0])
    assert res.generators == _scan_minimal_members(S, [2 * b + 2 for b in res.box_used], member)


def _fraction_box(S, region):
    """Reference generating box: ``floor(max_vertex F_k + reach)`` over the
    ``Fraction`` vertices of the region rows."""
    vertices = inequality_vertices(region)
    box = []
    for f in S.facets:
        reach = sum(sorted((dot(f, a) for a in S.A.columns()), reverse=True)[: S.d])
        box.append(floor(max(dot(f, x) for x in vertices) + reach))
    return tuple(box)


def _plain_member(S, ideal, alpha, mode):
    P = transported_polyhedron(S, ideal)

    def member(v):
        q = f_map(S, v)
        return min(q) >= 0 and membership(P, [x + 1 for x in q], alpha, mode)

    return member


def _twisted_member(S, ideal, w, alpha, mode):
    P = newton_polyhedron(ideal.generators, cone_facet_normals(S.facets, S.d))

    def member(v):
        return min(f_map(S, v)) >= 0 and membership(P, [x - y for x, y in zip(v, w)], alpha, mode)

    return member


def test_hexagon_generating_boxes_fit_the_scan_cap():
    # six facets: these generating boxes hold 1 464 100 and 12 744 900
    # points of Z^6, past SCAN_POINTS_CAP, but few exponents v of Z^3
    S = build_semigroup(NORMAL_CONES["hexagon"])
    twisted = monomial_ideal(S, [(1, 0, -1)])
    w = (2, 0, 0)
    res = multiplier_ideal_with_boundary(S, twisted, w, F(1, 2))
    member = _twisted_member(S, twisted, w, F(1, 2), "relint")
    assert res.generators == _scan_minimal_members(S, [2 * b + 2 for b in res.box_used], member)
    plain = monomial_ideal(S, [(6, -1, 0)])
    res = multiplier_ideal(S, plain, F(3, 2))
    assert res.generators == ((9, -2, 0), (9, -1, 0))
    assert res.box_used == (13, 13, 14, 14, 16, 16)
    member = _plain_member(S, plain, F(3, 2), "relint")
    assert res.generators == _scan_minimal_members(S, [2 * b + 2 for b in res.box_used], member)


def test_scan_cap_counts_line_solves_and_members():
    # the hexagon document at alpha = 10: the bounding box of v holds
    # 4 598 856 points, past SCAN_POINTS_CAP, but the scan pays for far
    # fewer line solves and members.  For a principal ideal <y^beta> on a
    # saturated semigroup J(10) = y^(5 beta) J(5), an exact oracle.
    S = build_semigroup(NORMAL_CONES["hexagon"])
    beta = (6, -1, 0)
    ideal = monomial_ideal(S, [beta])
    low = multiplier_ideal(S, ideal, 5).generators
    shifted = tuple(sorted(tuple(x + 5 * b for x, b in zip(v, beta)) for v in low))
    assert multiplier_ideal(S, ideal, 10).generators == shifted
    # d = 1: one line, whose members are counted before they are listed
    line = build_semigroup([[1]])
    res = multiplier_ideal(line, monomial_ideal(line, [(1,)]), 10**7)
    assert res.generators == ((10**7,),)


def test_generating_box_scan_reads_the_one_scan_cap(monkeypatch, cusp):
    # SCAN_POINTS_CAP is toric's, read when the scan starts: lowering it
    # there bounds the generating-box scan too.  The cusp's walk at alpha 2
    # has 2 heads, one line solve each, and its members reach 5 units in
    # all, which a cap of 3 refuses
    assert multiplier_ideal(cusp, [(1, 1), (1, 2)], 2).generators == ((2, 2), (2, 3), (2, 4))
    monkeypatch.setattr(toric, "SCAN_POINTS_CAP", 3)
    with pytest.raises(WorkCapExceeded, match="SCAN_POINTS_CAP exceeded: 5 > 3") as exc:
        multiplier_ideal(cusp, [(1, 1), (1, 2)], 2)
    assert exc.value.cap == "SCAN_POINTS_CAP"


def test_walk_bounds_come_from_the_region_vertices(monkeypatch):
    # the hexagon document at alpha = 30: the region's vertices bound the
    # exponent coordinates to 20 heads, whose lines list 46 members, so a
    # cap of 1 000 still finishes.  The exact oracle of a principal ideal
    # on a saturated semigroup is J(30) = y^(25 beta) J(5)
    monkeypatch.setattr(toric, "SCAN_POINTS_CAP", 1_000)
    S = build_semigroup(NORMAL_CONES["hexagon"])
    beta = (6, -1, 0)
    ideal = monomial_ideal(S, [beta])
    res = multiplier_ideal(S, ideal, 30)
    assert res.generators == ((180, -30, 0),)
    assert res.box_used == (155, 155, 185, 185, 215, 215)
    low = multiplier_ideal(S, ideal, 5).generators
    assert res.generators == tuple(sorted(tuple(x + 25 * b for x, b in zip(v, beta)) for v in low))


# --- boundary-twisted variant ----------------------------------------------


def test_boundary_twist_matches_plain(cusp, cusp_ideal):
    # w with F(w) = -e reproduces the plain multiplier ideal at the same alpha
    w = (F(-2, 3), -1)
    twisted = multiplier_ideal_with_boundary(cusp, cusp_ideal, w, F(2, 3))
    plain = multiplier_ideal(cusp, cusp_ideal, F(2, 3))
    assert twisted.generators == plain.generators


def test_boundary_effectivity(cusp, cusp_ideal):
    with pytest.raises(ValueError, match="not effective"):
        multiplier_ideal_with_boundary(cusp, cusp_ideal, (0, -2), F(2, 3))
    with pytest.raises(ValueError, match="character space"):
        multiplier_ideal_with_boundary(cusp, cusp_ideal, (0, 0, 0), F(2, 3))


def test_boundary_zero_divisor(cusp, cusp_ideal):
    """With w = 0 the origin has dilation threshold 0 in the untransported
    Newton polyhedron, so even tiny parameters give a proper ideal."""
    res = multiplier_ideal_with_boundary(cusp, cusp_ideal, (0, 0), F(1, 10))
    assert res.generators == ((1, 1), (1, 2))
    assert (0, 0) not in res.generators


# --- thresholds and jumping coefficients ------------------------------------


def test_lct_values(cusp, cusp_ideal):
    assert lct(cusp, cusp_ideal) == F(2, 3)
    plane = build_semigroup([[1, 0], [0, 1]])
    assert lct(plane, monomial_ideal(plane, [(1, 0), (0, 1)])) == 2
    line = build_semigroup([[1]])
    assert lct(line, monomial_ideal(line, [(2,)])) == F(1, 2)
    assert lct(cusp, monomial_ideal(cusp, [(0, 0)])) is None


def _count_calls(monkeypatch, fn):
    """Wrap ``fn`` in every ``toricbsato`` module that holds it; the returned
    list gets one entry per call."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "toricbsato" or name.startswith("toricbsato."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)
    return calls


def test_one_polyhedron_and_one_threshold_per_ideal(monkeypatch, cusp):
    polys = _count_calls(monkeypatch, polyhedra.newton_polyhedron)
    thresholds = _count_calls(monkeypatch, polyhedra.point_threshold)
    report = verify_correspondence(cusp, [(1, 1), (1, 2)])
    assert report.verdict == "PASS"
    assert (len(polys), len(thresholds)) == (1, 1)
    polys.clear()
    jumping_coefficients(cusp, monomial_ideal(cusp, [(1, 1), (1, 2)]), F(4, 3))
    assert len(polys) == 1


def test_both_multiplier_functions_share_one_polyhedron(monkeypatch, cusp):
    """The plain and the boundary variant read one ideal's transported
    polyhedron; no polyhedron is built in the character space."""
    polys = _count_calls(monkeypatch, polyhedra.newton_polyhedron)
    ideal = monomial_ideal(cusp, [(1, 1), (1, 2)])
    multiplier_ideal(cusp, ideal, F(2, 3))
    multiplier_ideal_with_boundary(cusp, ideal, (0, -1), F(1))
    assert len(polys) == 1


def test_equal_ideals_hash_alike_after_the_normality_scan():
    """Cached geometry, the normality verdict and the multiplier scan's
    set-up stay out of ``==``, ``hash`` and ``repr``: equal ideals on two
    equal data collapse in a set, whichever of them filled its caches."""
    S, T = build_semigroup(CUSP), build_semigroup(CUSP)
    assert is_normal(S) and "normality_witness" not in vars(T)
    a = monomial_ideal(S, [(1, 1), (1, 2)])
    b = monomial_ideal(T, [(1, 2), (1, 1)])
    assert a.lct == F(2, 3)
    multiplier_ideal(S, a, F(3, 2))
    multiplier_ideal_with_boundary(S, a, (0, -1), 1, "closed")
    jumping_coefficients(S, a, F(5, 3))
    cached = {"line_step", "reaches", "region_start"}
    assert cached <= set(vars(S)) and not cached & set(vars(T))
    assert "cuts" in vars(a) and "cuts" not in vars(b)
    assert S == T and hash(S) == hash(T) and repr(S) == repr(T)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1


def test_cached_geometry_stays_out_of_value_semantics(monkeypatch, cusp):
    a = monomial_ideal(cusp, [(1, 1), (1, 2)])
    b = monomial_ideal(cusp, [(1, 2), (1, 1)])
    assert a.lct == F(2, 3)  # builds a's polyhedron, not b's
    assert a == b and b == a and repr(a) == repr(b)
    assert hash(a) == hash(b)
    polys = _count_calls(monkeypatch, polyhedra.newton_polyhedron)
    same = dataclasses.replace(a)
    assert same.transported_polyhedron == a.transported_polyhedron
    other = dataclasses.replace(a, generators=((1, 0),))
    fresh = monomial_ideal(cusp, [(1, 0)])
    assert other.transported_polyhedron == fresh.transported_polyhedron
    assert other.transported_polyhedron != a.transported_polyhedron
    assert other.lct == fresh.lct != a.lct
    assert len(polys) == 3  # same, other and fresh; a's is reused


def test_jumping_running_example(cusp, cusp_ideal):
    jr = jumping_coefficients(cusp, cusp_ideal, F(4, 3))
    assert [(a, w) for a, w in jr.jumping] == [(F(2, 3), (0, 0)), (F(1), (1, 0))]
    assert jr.lct == F(2, 3)
    assert jr.window_max == F(4, 3)
    assert jr.search_mode == "exact"
    assert jr.unresolved == ()


def test_jumping_ambient_pair(cusp, cusp_ideal):
    S_free, J = ambient_pair(cusp, cusp_ideal)
    jr = jumping_coefficients(S_free, J, F(4, 3))
    assert [a for a, _ in jr.jumping] == [F(2, 3), F(1), F(4, 3)]
    # the semigroup pair's jumping set embeds into the ambient one
    ours = {a for a, _ in jumping_coefficients(cusp, cusp_ideal, F(4, 3)).jumping}
    assert ours <= {a for a, _ in jr.jumping}


def test_jumping_witnesses_sit_on_boundary(cusp, cusp_ideal):
    P = transported_polyhedron(cusp, cusp_ideal)
    jr = jumping_coefficients(cusp, cusp_ideal, F(4, 3))
    for alpha, v in jr.jumping:
        point = tuple(a + b for a, b in zip(f_map(cusp, v), cusp.e))
        assert membership(P, point, alpha, "closed")
        assert not membership(P, point, alpha, "relint")


def test_jumping_window_edges(cusp, cusp_ideal):
    only_lct = jumping_coefficients(cusp, cusp_ideal, F(2, 3))
    assert only_lct.jumping == ((F(2, 3), (0, 0)),)
    with pytest.raises(ValueError, match="reach the log-canonical"):
        jumping_coefficients(cusp, cusp_ideal, F(1, 2))
    # the unit ideal's threshold is unbounded: every window is empty
    unit = jumping_coefficients(cusp, monomial_ideal(cusp, [(0, 0)]), 5)
    assert unit.lct is None and unit.jumping == () and unit.unresolved == ()


def test_parameters_refuse_floats(cusp, cusp_ideal):
    # a float parameter is refused, not read as the rational it rounds to
    with pytest.raises(TypeError):
        multiplier_ideal(cusp, cusp_ideal, 0.5)
    with pytest.raises(TypeError):
        multiplier_ideal_with_boundary(cusp, cusp_ideal, (0, 0), 1.5)
    with pytest.raises(TypeError):
        multiplier_ideal_with_boundary(cusp, cusp_ideal, (0.0, 0), 1)
    with pytest.raises(TypeError):
        jumping_coefficients(cusp, cusp_ideal, 2.0)


SQUARE_POLYHEDRON = newton_polyhedron([(2, 0), (0, 2)], [(1, 0), (0, 1)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: membership(SQUARE_POLYHEDRON, (1, 1), 0.5),
        lambda: membership(SQUARE_POLYHEDRON, (0.5, 1), 1),
        lambda: point_threshold(SQUARE_POLYHEDRON, (0.5, 1)),
        lambda: transport_polynomial(build_semigroup(CUSP), [[(0.1, (1, 1))]]),
        lambda: MultiPoly(2, {(1, 0): 0.5}),
        lambda: MultiPoly.variable(1, 0) / 0.5,
        lambda: UniPoly([1, 0.5]),
        lambda: UniPoly([1, 1])(0.5),
        lambda: MultiPoly.variable(1, 0) + 0.5,
        lambda: MultiPoly.variable(1, 0) - 0.5,
        lambda: MultiPoly.variable(1, 0) * 0.5,
        lambda: UniPoly([1, 1]) + 0.5,
        lambda: UniPoly([1, 1]) - 0.5,
        lambda: UniPoly([1, 1]) * 0.5,
    ],
    ids=[
        "membership-alpha", "membership-point", "point_threshold",
        "transport_polynomial", "MultiPoly", "MultiPoly-divide", "UniPoly", "UniPoly-evaluate",
        "MultiPoly-add", "MultiPoly-subtract", "MultiPoly-multiply",
        "UniPoly-add", "UniPoly-subtract", "UniPoly-multiply",
    ],
)
def test_rationals_refuse_floats(make):
    # a float coordinate, dilation factor or coefficient is refused, not
    # read as the rational it rounds to
    with pytest.raises(TypeError):
        make()


def test_kernels_take_integer_rows_unchecked(monkeypatch):
    """Once an ideal's polyhedron is cached, the multiplier scan, the
    witness walk and its Fourier-Motzkin levels never re-check or rescale
    a row: exactness is checked where data enters."""
    S = build_semigroup([[1, 1, 1, 0], [0, 2, 1, 0], [0, 0, 0, 1]])
    J = monomial_ideal(S, [(1, 1, 1), (2, 0, 1)])
    J.transported_polyhedron, J.lct  # build the cached geometry first
    checked, levels = exactnum._integer_row, exactnum._fm_levels
    rows_checked, fm_runs = [], []
    monkeypatch.setattr(exactnum, "_integer_row", lambda r: rows_checked.append(r) or checked(r))
    monkeypatch.setattr(
        multiplier, "_fm_levels", lambda rows, keep=0: fm_runs.append(rows) or levels(rows, keep)
    )
    jumping_coefficients(S, J, 2)
    multiplier_ideal(S, J, F(3, 2))
    multiplier_ideal_with_boundary(S, J, (0, 0, -1), 1)
    assert fm_runs and rows_checked == []


def test_jumping_windowed_mode():
    S = build_semigroup([[1, 1, 1, 0], [0, 2, 1, 0], [0, 0, 0, 1]])
    J = monomial_ideal(S, [(1, 1, 1)])
    jr = jumping_coefficients(S, J, 2)
    assert jr.jumping == ((F(1), (0, 0, 0)), (F(2), (1, 1, 1)))
    assert jr.search_mode == "windowed"
    assert jr.unresolved == ()


# The windowed jumping ops of the ideal-scan benchmark workload, with their
# jumping and unresolved lists frozen from perfbench/expected.json, and the
# witnesses frozen from a per-point window scan (see _scan_window below).
WINDOWED_JUMPS = {
    "square": (
        [(3, 0, 0), (2, 2, 2)], "11/6",
        {"5/6": (0, 0, 0), "7/6": (1, 0, 0), "4/3": (1, 1, 1), "3/2": (2, 0, 0),
         "5/3": (2, 1, 1), "11/6": (3, 0, 0)},
        ["1"],
    ),
    "cube4": (
        [(3, 0, 0), (2, 3, 2)], "14/9",
        {"5/9": (0, 0, 0), "2/3": (1, 1, 0), "8/9": (1, 0, 0), "1": (1, 2, 1),
         "11/9": (2, 0, 0), "4/3": (3, 1, 0), "14/9": (2, 3, 2)},
        ["7/9", "10/9", "13/9"],
    ),
    "hexagon": (
        [(3, 0, 0), (2, 2, 0)], "4/3",
        {"1/3": (0, 0, 0), "1/2": (5, -4, 5), "2/3": (5, -4, 0), "5/6": (1, 1, 0),
         "1": (6, -3, 5), "7/6": (2, 1, 0), "4/3": (7, -4, 0)},
        ["5/12", "7/12", "3/4", "11/12", "13/12", "5/4"],
    ),
}


@pytest.mark.parametrize("cone", sorted(WINDOWED_JUMPS))
def test_windowed_jumping_ops(cone):
    gens, top, jumps, unresolved = WINDOWED_JUMPS[cone]
    S = build_semigroup(NORMAL_CONES[cone])
    J = monomial_ideal(S, gens)
    P = transported_polyhedron(S, J)
    jr = jumping_coefficients(S, J, F(top))
    assert jr.search_mode == "windowed"
    assert jr.jumping == tuple((F(a), v) for a, v in jumps.items())
    assert jr.unresolved == tuple(F(a) for a in unresolved)
    for alpha, v in jr.jumping:
        point = tuple(a + b for a, b in zip(f_map(S, v), S.e))
        assert membership(P, point, alpha, "closed")
        assert not membership(P, point, alpha, "relint")


# the cusp running example, the windowed ops and the second hexagon op of
# the ideal-scan workload
JUMP_ORACLE_CASES = {
    "cusp": (CUSP, [(1, 1), (1, 2)], "4/3"),
    **{cone: (NORMAL_CONES[cone], g, top) for cone, (g, top, _, _) in WINDOWED_JUMPS.items()},
    "hexagon-2": (NORMAL_CONES["hexagon"], [(4, 0, 0), (2, 1, 0)], "4/3"),
}


@pytest.mark.parametrize("case", sorted(JUMP_ORACLE_CASES))
def test_jumps_match_the_closed_relint_oracle(case):
    """An independent completeness oracle: ``alpha`` is a jump exactly when
    the closed-mode ideal (the left limit) differs from the multiplier
    ideal, since a closed generator outside the relint ideal lies on the
    boundary.  It shares no code with Fourier-Motzkin or the tight-facet
    set-up, and its lattice walk (no prefix systems) is checked against a
    ``product`` scan by ``test_lattice_lines_match_a_box_scan``.  Every
    reported jump passes it, every other candidate fails it, and so do the
    unresolved ones (10 over the three windowed ops)."""
    matrix, gens, top = JUMP_ORACLE_CASES[case]
    S = build_semigroup(matrix)
    J = monomial_ideal(S, gens)
    jr = jumping_coefficients(S, J, F(top))
    P = transported_polyhedron(S, J)
    candidates = {
        F(n, c)
        for _, c in P.facets if c > 0
        for n in range(max(1, ceil(jr.lct * c)), floor(F(top) * c) + 1)
    }
    jumps = {a for a, _ in jr.jumping}
    assert jumps | set(jr.unresolved) <= candidates
    for alpha in sorted(candidates):
        closed = multiplier_ideal(S, J, alpha, "closed").generators
        relint = multiplier_ideal(S, J, alpha, "relint").generators
        assert (closed != relint) == (alpha in jumps), alpha
    assert len(jr.unresolved) == {"square": 1, "cube4": 3, "hexagon": 6}.get(case, 0)


def reference_fm_witness(levels):
    """Back-substitution in ``Fraction``s through Fourier-Motzkin levels:
    each coordinate is the midpoint of its interval, or its one finite
    end, or 0."""
    n = len(levels)
    witness = []
    for k in range(1, n + 1):
        lo, hi = [], []  # the lower and the upper bounds on x_{k-1}
        for a, c in levels[n - k]:
            if a[k - 1]:
                bound = Fraction(c - dot(a[: k - 1], witness), a[k - 1])
                (lo if a[k - 1] > 0 else hi).append(bound)
        if lo and hi:
            witness.append((max(lo) + min(hi)) / 2)
        else:
            witness.append(max(lo) if lo else min(hi) if hi else Fraction(0))
    return witness


def reference_witness_search(S, P, tight, alpha, scanned, systems=None):
    """The witness search with one system per candidate and facet: the
    rows at ``alpha = num / den`` built afresh (``F(v) >= 0`` and the
    membership rows scaled by ``den``), a fresh :func:`_fm_levels` and
    :func:`reference_fm_witness` for the window centre.  ``systems`` is
    accepted and ignored, so it stands in for
    ``multiplier._witness_search``."""
    e = S.e
    num, den = alpha.numerator, alpha.denominator
    exhausted = False
    for g, c, le, G, base in tight:
        rhs_q = alpha * c - le
        if rhs_q.denominator != 1:
            continue
        rhs = int(rhs_q)

        def check(v):
            q = f_map(S, v)
            if any(x < 0 for x in q) or dot(g, v) != rhs:
                return False
            point = tuple(a + b for a, b in zip(q, e))
            return membership(P, point, alpha, "closed") and not membership(
                P, point, alpha, "relint"
            )

        if rhs == 0 and check((0,) * S.d):
            return (0,) * S.d, exhausted
        if rhs % G:
            continue
        kernel = exactnum.kernel_lattice_basis(IntMatrix([list(g)]))
        fk = [f_map(S, k) for k in kernel]
        v0 = tuple(rhs // G * t for t in base)
        f0 = f_map(S, v0)
        rows = [([q[s] for q in fk], -f0[s]) for s in range(S.nfacets)]
        rows += [
            ([den * dot(l2, q) for q in fk], num * c2 - den * (dot(l2, f0) + dot(l2, e)))
            for l2, c2 in P.facets
        ]
        if not kernel:
            tau = () if all(c <= 0 for _, c in rows) else None
        elif len(kernel) == 1:
            line = next(_lattice_lines([rows], [[]]), None)
            tau = None if line is None else (line[2] if line[1] is None else line[1],)
        else:
            levels = _fm_levels(rows)
            if levels is None:
                continue
            center = [int(round(x)) for x in reference_fm_witness(levels)]
            width = multiplier.WINDOW0
            for _ in range(multiplier.EXPANSIONS + 1):
                scanned.charge((2 * width + 1) ** len(kernel))
                window = [[(1, x - width), (-1, -x - width)] for x in center]
                line = next(_lattice_lines(levels[::-1], window), None)
                if line is not None:
                    break
                width *= multiplier.KAPPA
            tau = None if line is None else line[0] + (line[1],)
            exhausted = exhausted or tau is None
        if tau is None:
            continue
        v = tuple(x + sum(t * k[i] for t, k in zip(tau, kernel)) for i, x in enumerate(v0))
        assert check(v)
        return v, exhausted
    return None, exhausted


def _jumping_with(monkeypatch, search, S, J, top):
    """``jumping_coefficients`` with ``search`` as the witness search: the
    report (or the cap message) and the call's ``WINDOW_POINTS_CAP`` count."""
    counters = []

    def spy(S, P, tight, alpha, scanned, *rest):
        counters.append(scanned)
        return search(S, P, tight, alpha, scanned, *rest)

    monkeypatch.setattr(multiplier, "_witness_search", spy)
    try:
        report = jumping_coefficients(S, J, top)
    except WorkCapExceeded as exc:
        report = str(exc)
    return report, counters[0].count if counters else 0


@pytest.mark.parametrize(
    "d, cones, per_cone", [(1, 10, 3), (2, 40, 5), (3, 40, 5), (4, 5, 10)]
)
def test_parametric_search_matches_the_per_candidate_reference(monkeypatch, d, cones, per_cone):
    """One elimination per facet, evaluated at each candidate, gives the
    report of a fresh elimination per candidate and facet, witnesses and
    unresolved candidates included, and charges the same window volume.
    Ideals of 1-3 generators, each a combination of the columns with
    coefficients 0..2, searched up to ``lct + 1``."""
    search = multiplier._witness_search
    rng = random.Random(33 + d)
    stats = Counter()
    for S, cols in random_normal_cones(rng, d, cones):
        for _ in range(per_cone):
            gens = []
            for _ in range(rng.randint(1, 3)):
                k = [rng.randint(0, 2) for _ in cols]
                gens.append(tuple(sum(x * col[i] for x, col in zip(k, cols)) for i in range(d)))
            J = monomial_ideal(S, gens)
            if lct(S, J) is None:
                continue
            top = lct(S, J) + 1
            got = _jumping_with(monkeypatch, search, S, J, top)
            want = _jumping_with(monkeypatch, reference_witness_search, S, J, top)
            assert got == want, (cols, gens)
            stats.update(
                ideals=1, windows=got[1] > 0, unresolved=bool(getattr(got[0], "unresolved", ()))
            )
    # windows are searched from dimension 3 on, and some candidates stay unsettled
    assert (stats["windows"] > 0) == (d >= 3) and (stats["unresolved"] > 0) == (d >= 3), stats


# --- the Fraction references of the multiplier engine -----------------------


def fraction_minimal_members(S, ideal, alpha, mode, shift):
    """The generating-box scan with the region rebuilt on every call: cuts
    ``(l F) . v > alpha c + l . shift`` rounded in ``Fraction``s and merged
    with a parallel row of ``F(v) >= 0``, one elimination to start its
    double description, and the reaches summed afresh.  ``shift`` lives in
    ``Z^F``: ``-e`` for the multiplier ideal, ``F(w)`` with a boundary."""
    region = {f: 0 for f in S.facets}  # row -> integer right-hand side
    for ell, c in ideal.transported_polyhedron.facets:
        t = alpha * c + dot(ell, shift)
        b = floor(t) + 1 if mode == "relint" else ceil(t)
        row = tuple(dot(ell, col) for col in zip(*S.facets))  # l F
        region[row] = max(b, region.get(row, b))
    vertices = polyhedra._vertex_rays(list(region.items()))
    cols = S.A.columns()

    def reach(steps):  # the sum of the d largest positive steps
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
    work = exactnum.Work("SCAN_POINTS_CAP", toric.SCAN_POINTS_CAP)
    work.charge(prod(hi - lo + 1 for lo, hi in spans[:-1]))
    bounds = [[(1, lo), (-1, -hi)] for lo, hi in spans]
    rows = list(region.items()) + [(tuple(-x for x in f), -b) for f, b in zip(S.facets, box)]
    members = []  # (q, v)
    step = tuple(f[-1] for f in S.facets)  # F(e_d)
    for head, lo, hi in _lattice_lines([[]] * (S.d - 1) + [rows], bounds):
        work.charge(hi - lo + 1)
        q = f_map(S, head + (lo,))
        for t in range(lo, hi + 1):
            members.append((q, head + (t,)))
            q = tuple(map(add, q, step))
    gens = tuple(sorted(v for _, v in toric.minimal_points(members)))
    return multiplier.MultiplierIdealResult(alpha, mode, gens, tuple(box), stabilized=True)


def fraction_witness_search(S, P, tight, alpha, scanned, systems):
    """The witness search with a ``Fraction`` right-hand side and the
    re-check as two :func:`membership` calls; the facet functional ``l``
    of each tight facet is read back off ``P``, whose positive-offset
    facets ``tight`` lists in order."""
    e = S.e
    num, den = alpha.numerator, alpha.denominator
    exhausted = False
    ells = [ell for ell, c in P.facets if c > 0]
    for i, (ell, (_, c, _, G, base)) in enumerate(zip(ells, tight, strict=True)):
        rhs_q = alpha * c - dot(ell, e)
        if rhs_q.denominator != 1:
            continue
        rhs = int(rhs_q)

        def check(v):
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
            systems[i] = multiplier._parametric_levels(S, P, tight[i])
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
            line = next(_lattice_lines(levels, [[]]), None)
            tau = None if line is None else (line[2] if line[1] is None else line[1],)
        else:
            point = _fm_witness(levels)
            if point is None:
                continue
            center = [int(round(x)) for x in point]
            width = multiplier.WINDOW0
            for _ in range(multiplier.EXPANSIONS + 1):
                scanned.charge((2 * width + 1) ** len(kernel))
                window = [[(1, x - width), (-1, -x - width)] for x in center]
                line = next(_lattice_lines(levels[::-1], window), None)
                if line is not None:
                    break
                width *= multiplier.KAPPA
            tau = None if line is None else line[0] + (line[1],)
            exhausted = exhausted or tau is None
        if tau is None:
            continue
        m = rhs // G
        v = tuple(m * x + sum(t * k[j] for t, k in zip(tau, kernel)) for j, x in enumerate(base))
        assert check(v)
        return v, exhausted
    return None, exhausted


def _assert_cached_start(S, rows, start):
    """The semigroup's cached start is the elimination's start on the
    homogenized rows of this call."""
    homog = [(1,) + (0,) * S.d] + [(-c, *a) for a, c in rows]
    assert list(start) == list(S.region_start) == polyhedra._simplicial_start(homog, S.d + 1)


def _counted(fn):
    """``fn()`` (or its cap message) and the units it charged to the
    lattice caps, in order."""
    charges = []
    charge = exactnum.Work.charge

    def spy(self, units):
        if self.cap in ("SCAN_POINTS_CAP", "CANDIDATES_CAP", "WINDOW_POINTS_CAP"):
            charges.append((self.cap, units))
        return charge(self, units)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum.Work, "charge", spy)
        try:
            result = fn()
        except WorkCapExceeded as exc:
            result = str(exc)
    return result, charges


def _random_ideal(rng, S, cols):
    """1-3 generators, each a combination of the columns with coefficients 0..2."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        k = [rng.randint(0, 2) for _ in cols]
        gens.append(tuple(sum(x * col[i] for x, col in zip(k, cols)) for i in range(S.d)))
    return monomial_ideal(S, gens)


@pytest.mark.parametrize(
    "d, cones, multipliers, jumps, top",
    [(2, 40, 450, 100, 6), (3, 40, 450, 80, 6), (4, 5, 100, 20, 3)],
)
def test_engine_matches_the_fraction_references(monkeypatch, d, cones, multipliers, jumps, top):
    """Seeded random calls on normal cones of dimension 2-4 (1 000
    multiplier ideals at ``alpha = k / l``, ``k <= top``, ``l <= 4``, every
    other one with an effective boundary divisor, both modes; 200 jumping
    reports up to ``lct + 1``) give the results of the ``Fraction``
    references and charge the same units, in the same order, to
    ``SCAN_POINTS_CAP``, ``CANDIDATES_CAP`` and ``WINDOW_POINTS_CAP``.
    Every region starts from the semigroup's cached start."""
    rng = random.Random(38 + d)
    semigroups = random_normal_cones(rng, d, cones)
    if d == 4:  # this seed's random 4-D cones are simplicial; the 3-cube's cone has 6 facets
        cube = [(1, *p) for p in product((0, 1), repeat=3)]
        semigroups.append((build_semigroup([list(r) for r in zip(*cube)]), cube))
    vertex_rays = multiplier._vertex_rays

    def spy(rows, start):
        _assert_cached_start(S, rows, start)
        return vertex_rays(rows, start)

    monkeypatch.setattr(multiplier, "_vertex_rays", spy)
    for n in range(multipliers):
        S, cols = semigroups[n % len(semigroups)]
        J = _random_ideal(rng, S, cols)
        alpha, mode = F(rng.randint(1, top), rng.randint(1, 4)), rng.choice(["relint", "closed"])
        if n % 2:
            w = (2,) * d
            while min(f_map(S, w)) < -1:
                w = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d))
            got = _counted(lambda: multiplier_ideal_with_boundary(S, J, w, alpha, mode))
            want = _counted(lambda: fraction_minimal_members(S, J, alpha, mode, f_map(S, w)))
        else:
            got = _counted(lambda: multiplier_ideal(S, J, alpha, mode))
            want = _counted(lambda: fraction_minimal_members(S, J, alpha, mode, [-1] * S.nfacets))
        assert got == want, (cols, J.generators, alpha, mode)
    search = multiplier._witness_search
    n = 0
    while n < jumps:
        S, cols = semigroups[n % len(semigroups)]
        J = _random_ideal(rng, S, cols)
        if lct(S, J) is None:
            continue
        n += 1
        monkeypatch.setattr(multiplier, "_witness_search", search)
        got = _counted(lambda: jumping_coefficients(S, J, lct(S, J) + 1))
        monkeypatch.setattr(multiplier, "_witness_search", fraction_witness_search)
        want = _counted(lambda: jumping_coefficients(S, J, lct(S, J) + 1))
        assert got == want, (cols, J.generators)


def test_one_lattice_set_up_per_facet(monkeypatch):
    """A positive-offset facet's kernel lattice is computed once per call,
    not once per candidate, and only for a facet whose witness levels are
    built: together with them, on the facet's first use."""
    gens, top, _, _ = WINDOWED_JUMPS["hexagon"]
    S = build_semigroup(NORMAL_CONES["hexagon"])
    J = monomial_ideal(S, gens)
    P = transported_polyhedron(S, J)
    kernels = _count_calls(monkeypatch, multiplier.kernel_lattice_basis)
    levels = _count_calls(monkeypatch, multiplier._parametric_levels)
    jumping_coefficients(S, J, F(top))
    facets = [args[2] for args in levels]
    assert len(kernels) == len(facets) == len(set(facets))
    assert 0 < len(facets) < sum(1 for _, c in P.facets if c > 0)


def test_window_points_cap(monkeypatch):
    # the hexagon op scans 72 906 window points in all: a cap one below that
    # stops it before its last window, with the count in the message
    gens, top, _, _ = WINDOWED_JUMPS["hexagon"]
    S = build_semigroup(NORMAL_CONES["hexagon"])
    J = monomial_ideal(S, gens)
    monkeypatch.setattr(multiplier, "WINDOW_POINTS_CAP", 72906)
    jumping_coefficients(S, J, F(top))
    monkeypatch.setattr(multiplier, "WINDOW_POINTS_CAP", 72905)
    with pytest.raises(WorkCapExceeded, match="WINDOW_POINTS_CAP exceeded: 72906 > 72905"):
        jumping_coefficients(S, J, F(top))


def test_line_point_is_exact_on_integer_rows():
    # rows (a, c) and bounds (a, c) state a . x >= c
    big = 10**30 + 1  # big % 3 == 2; big / 3 as a float is off by about 10**13
    assert _line_interval([([3], -big)], (), []) == (-(big // 3), None)  # t >= -big/3
    assert _line_interval([([-3], -big)], (), []) == (None, big // 3)  # t <= big/3
    assert _line_interval([([3], big)], (), []) == (big // 3 + 1, None)  # t >= big/3
    assert _line_interval([([-3], big)], (), []) == (None, -(big // 3) - 1)  # t <= -big/3
    assert _line_interval([([1], 5), ([-1], -5)], (), []) == (5, 5)
    assert _line_interval([([2], 5), ([-2], -5)], (), []) is None  # 5/2 <= t <= 5/2
    assert _line_interval([([0], 1), ([1], 0)], (), []) is None
    assert _line_interval([([0], -1)], (), []) == (None, None)  # every t
    # the head enters each row: 2*big + 3t >= 0 and t <= 0 at head (big,)
    assert _line_interval([([2, 3], 0), ([0, -1], 0)], (big,), []) == (-(2 * big // 3), 0)
    # bounds clip the line: -7 <= t, 2 <= t <= 4
    assert _line_interval([([1], -7)], (), [(1, 2), (-1, -4)]) == (2, 4)
    assert _line_interval([([1], 5)], (), [(1, 2), (-1, -4)]) is None
    # an elimination row, a primitive tuple pair (a, c), is read as a . x >= c
    assert _line_interval([((1, 2), 3)], (1,), []) == (1, None)


ROW = st.tuples(st.lists(st.integers(-4, 4), min_size=3, max_size=3), st.integers(-12, 12))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ROW, max_size=4),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-12, 12)), max_size=2),
)
@example([([1, 0, 2], 5), ([0, 0, -2], -5)], [0, 0], [])  # empty: 5/2 <= t <= 5/2
@example([([1, 1, 0], 3)], [1, 1], [])  # a zero coefficient on t that fails
@example([([1, 1, 0], -3), ([0, 0, 1], -4)], [0, 0], [])  # half-infinite: t >= -4
@example([], [0, 0], [(-2, -7)])  # half-infinite: t <= 3
def test_line_interval_matches_brute_force(rows, head, bounds):
    # every finite end lies within 4*3*2 + 12 = 36 of 0, so the scan of
    # [-50, 50] shows both the ends and which of them are open
    lim = 50
    ts = [
        t for t in range(-lim, lim + 1)
        if all(dot(a, head + [t]) >= c for a, c in rows)
        and all(a * t >= c for a, c in bounds)
    ]
    line = _line_interval(rows, tuple(head), bounds)
    if line is None:
        assert ts == []
    else:
        lo, hi = line
        assert ts == list(range(-lim if lo is None else lo, (lim if hi is None else hi) + 1))


def _scan_window(rows, center, width):
    """Reference for the window walk: test every point of the window in
    product order and return the first that satisfies every row."""
    for tau in product(*(range(c - width, c + width + 1) for c in center)):
        if all(dot(a, tau) >= c for a, c in rows):
            return tau
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.tuples(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                          st.integers(-12, 12)),
                min_size=1, max_size=5,
            ),
            st.lists(st.integers(-3, 3), min_size=k, max_size=k),
        )
    ),
    st.integers(0, 3),
)
@example(([([1, 0], 1), ([-1, 0], 0)], [0, 0]), 1)  # infeasible: 1 <= x_0 <= 0
@example(([([2, 2], 1), ([-2, -2], -1)], [0, 0]), 3)  # the lattice-free sliver x_0 + x_1 = 1/2
# x_0 + 1 = 2 x_2: the first head x_0 = -2 has real points and no lattice
# point, so the walk backtracks to x_0 = -1
@example(([([1, 0, -2], -1), ([-1, 0, 2], 1)], [0, 0, 0]), 2)
def test_window_line_search_matches_point_scan(system, width):
    rows, center = system
    levels = _fm_levels(rows)
    expected = _scan_window(rows, center, width)
    if levels is None:
        assert expected is None
    else:
        window = [[(1, x - width), (-1, -x - width)] for x in center]
        line = next(_lattice_lines(levels[::-1], window), None)
        assert (None if line is None else line[0] + (line[1],)) == expected


def _evaluate(levels, alpha):
    """Levels on ``(alpha, tau)`` at one value of ``alpha``: the row
    ``(u, a; w)`` becomes ``(den a, den w - u num)``."""
    num, den = alpha.numerator, alpha.denominator
    return [
        [(tuple(den * x for x in a[1:]), den * w - a[0] * num) for a, w in level]
        for level in levels
    ]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.tuples(st.lists(st.integers(-4, 4), min_size=k + 1, max_size=k + 1),
                      st.integers(-12, 12)),
            min_size=1, max_size=6,
        )
    ),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
# eliminating tau_1 leaves alpha >= -1, a zero row of the last level at
# every alpha: true at 0, false at -2
@example([([1, 0, 1], 0), ([1, 0, -1], -2)], F(0))
@example([([1, 0, 1], 0), ([1, 0, -1], -2)], F(-2))
@example([([0, 0, 0], 1), ([1, 1, 1], 0)], F(0))  # infeasible at every alpha
def test_parametric_levels_evaluate_to_the_levels_at_alpha(rows, alpha):
    """Eliminating the ``tau_j`` past ``tau_0`` with ``alpha`` kept as the
    coordinate ``x_0`` commutes with fixing ``alpha``: each parametric
    level at ``alpha``, with its zero rows dropped, made primitive and
    deduplicated, is the level of the rows at ``alpha``, in order; and the
    evaluated levels are infeasible (:func:`_fm_witness` returns ``None``)
    exactly when the rows at ``alpha`` are."""
    levels = _fm_levels(rows, keep=2)
    at_alpha = _fm_levels(_evaluate([rows], alpha)[0])
    if levels is None:
        assert at_alpha is None
        return
    assert len(levels) == len(rows[0][0]) - 1
    evaluated = _evaluate(levels, alpha)
    witness = _fm_witness(evaluated)
    assert (witness is None) == (at_alpha is None)
    if at_alpha is None:
        return
    assert witness == reference_fm_witness(at_alpha)
    for level, want in zip(evaluated, at_alpha, strict=True):
        assert list(dict.fromkeys(_primitive_row(a, c) for a, c in level if any(a))) == want


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.tuples(st.lists(st.integers(-5, 5), min_size=k, max_size=k),
                      st.integers(-20, 20)),
            min_size=1, max_size=7,
        )
    )
)
@example([([2], 1), ([-2], -3)])  # 1/2 <= x <= 3/2: the midpoint 1 is exact
@example([([1], 0), ([-1], -1)])  # 0 <= x <= 1: midpoint 1/2 rounds to 0
@example([([1], 1), ([-1], -2)])  # 1 <= x <= 2: midpoint 3/2 rounds to 2
@example([([1, 0], 0), ([-1, 0], -1), ([-1, 2], 0), ([1, -2], -2)])  # x_1 in [x_0/2, x_0/2 + 1]
def test_integer_back_substitution_matches_fractions(rows):
    """The back-substitution over one common integer denominator gives the
    ``Fraction`` point coordinate for coordinate, so rounding it (half to
    even) gives the same window centre."""
    levels = _fm_levels(rows)
    assume(levels is not None)
    point = _fm_witness(levels)
    assert point == reference_fm_witness(levels)
    assert all(dot(a, point) >= c for a, c in rows)


def test_back_substitution_reports_an_empty_first_interval():
    # the levels of a system at one parameter value, whose last coordinate
    # was never eliminated: 1 <= x_0 <= 0 and 0 >= 1 are empty
    assert _fm_witness([[((1,), 1), ((-1,), 0)]]) is None
    assert _fm_witness([[((0,), 1), ((1,), 0)]]) is None
    assert _fm_witness([[((1, 1), 0)], [((1,), 1), ((-1,), 0)]]) is None
    # x_0 = 1/2 exactly is no empty interval
    assert _fm_witness([[((2,), 1), ((-2,), -1)]]) == [F(1, 2)]
    assert _fm_witness([[((0,), 0), ((1,), 2)]]) == [F(2)]
    # window centres round the midpoints 1/2 and 3/2 half to even
    assert [round(x) for x in _fm_witness([[((1,), 0), ((-1,), -1)]])] == [0]
    assert [round(x) for x in _fm_witness([[((1,), 1), ((-1,), -2)]])] == [2]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.tuples(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                          st.integers(-8, 8)),
                max_size=4,
            ),
            st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 4)), min_size=k, max_size=k),
        )
    ),
    st.booleans(),
)
@example(([], [(0, 1), (2, -1)]), False)  # an empty range of x_1: no line at all
@example(([], [(2, -1), (0, 1)]), False)  # an empty range of the head x_0
def test_lattice_lines_match_a_box_scan(system, last_as_rows):
    """With no prefix rows the walk is the box scan of the normality test
    and the generating box: every point of the box ``lo <= x_j <= lo + w``
    (empty when ``w = -1``) that meets the rows, in ``product`` order.  The
    last coordinate is clipped by its bounds, or, as in the generating box,
    by two rows while its bounds stay empty."""
    rows, box = system
    k = len(box)
    bounds = [[(1, lo), (-1, -lo - w)] for lo, w in box]
    if last_as_rows:
        unit = [0] * (k - 1)
        rows = rows + [(unit + [1], bounds[-1][0][1]), (unit + [-1], bounds[-1][1][1])]
        bounds[-1] = []
    lines = list(_lattice_lines([[]] * (k - 1) + [rows], bounds))
    assert all(lo <= hi for _, lo, hi in lines)
    points = [head + (t,) for head, lo, hi in lines for t in range(lo, hi + 1)]
    assert points == [
        x for x in product(*(range(lo, lo + w + 1) for lo, w in box))
        if all(dot(a, x) >= c for a, c in rows)
    ]


def test_window_walk_skips_heads_without_real_points(monkeypatch):
    """The hexagon op solves only the lines of window prefixes that hold a
    real point: 84 line solves, against 1 298 when every window head was
    solved."""
    gens, top, _, _ = WINDOWED_JUMPS["hexagon"]
    S = build_semigroup(NORMAL_CONES["hexagon"])
    J = monomial_ideal(S, gens)
    lines = _count_calls(monkeypatch, exactnum._line_interval)
    jumping_coefficients(S, J, F(top))
    assert len(lines) <= 100


def test_facet_order_invariance(cusp, cusp_ideal):
    """Outputs are facet-order independent: rebuild the datum with the two
    facets swapped and compare everything that lives in the character space."""
    swapped = SemigroupData(
        A=IntMatrix(CUSP),
        facets=(cusp.facets[1], cusp.facets[0]),
        saturated=True,
    )
    ideal_swapped = monomial_ideal(swapped, [(1, 1), (1, 2)])
    assert lct(swapped, ideal_swapped) == lct(cusp, cusp_ideal)
    for alpha in (F(2, 3), F(1)):
        assert (
            multiplier_ideal(swapped, ideal_swapped, alpha).generators
            == multiplier_ideal(cusp, cusp_ideal, alpha).generators
        )
    a_sw = [a for a, _ in jumping_coefficients(swapped, ideal_swapped, F(4, 3)).jumping]
    a_cn = [a for a, _ in jumping_coefficients(cusp, cusp_ideal, F(4, 3)).jumping]
    assert a_sw == a_cn


# --- the correspondence verifier --------------------------------------------


def test_verify_running_example(cusp, cusp_ideal):
    rep = verify_correspondence(cusp, cusp_ideal)
    assert rep.verdict == "PASS"
    assert rep.lct == F(2, 3)
    assert rep.roots_negated == ((F(2, 3), 1), (F(1), 2), (F(4, 3), 1))
    assert rep.jumping_in_window == (F(2, 3), F(1))
    assert rep.failures == () and rep.notes == ()
    assert rep.jumping_report.bfunction_check == "PASS"


def test_verify_checks_the_largest_root_itself(cusp, cusp_ideal, monkeypatch):
    # a b-function whose b(-s) has an extra root 1/3 below the lct 2/3: every
    # jumping coefficient in the window is still a root, so only the
    # comparison of the smallest root with the lct can fail it
    bfunction = multiplier.bfunction

    def with_extra_root(S, ideal):
        res = bfunction(S, ideal)
        extra = F(-1, 3)
        return dataclasses.replace(
            res,
            b=res.b * UniPoly([-extra, F(1)]),
            roots=tuple(sorted((*res.roots, (extra, 1)))),
        )

    monkeypatch.setattr(multiplier, "bfunction", with_extra_root)
    rep = verify_correspondence(cusp, cusp_ideal)
    assert rep.verdict == "FAIL"
    assert rep.failures == ("smallest root of b(-s) is 1/3, not the lct 2/3",)


def test_verify_unit_ideal(cusp):
    rep = verify_correspondence(cusp, monomial_ideal(cusp, [(0, 0)]))
    assert rep.verdict == "PASS"
    assert rep.lct is None
    assert rep.bfunction_result.b.degree == 0
    assert rep.jumping_report is None
