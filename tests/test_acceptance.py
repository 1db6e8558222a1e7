"""Acceptance gate: the contract this package promises, exact to the digit.

Every expected value here is either derived by hand, produced by an
independent oracle written inside this file, or a published closed form;
nothing is copied from the engine under test.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

import toricbsato.bsato as bsato
from toricbsato.bsato import bfunction, build_generator, c_vectors, monomial_generator
from toricbsato.exactnum import dot, primitive_vector
from toricbsato.multipoly import MultiPoly, UniPoly
from toricbsato.multiplier import (
    ambient_pair,
    identity_semigroup,
    jumping_coefficients,
    lct,
    multiplier_ideal,
    transport,
    verify_correspondence,
)
from toricbsato.polyhedra import cone_facet_normals, membership, newton_polyhedron
from toricbsato.toric import (
    StructuralError,
    build_semigroup,
    f_map,
    is_normal,
    monomial_ideal,
)

F = Fraction
CUSP = [[1, 1, 1, 1], [0, 1, 2, 3]]
CUSP_IDEAL = [(1, 1), (1, 2)]


@pytest.fixture(scope="module")
def cusp():
    return build_semigroup(CUSP)


# --- independent 2-D machinery used by several oracles below ----------------


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


def oracle_facets(points, K=10_000):
    """H-representation of conv(points) + first orthant, by brute hull."""
    rays = [(1, 0), (0, 1)]
    cloud = list(points) + [(p[0] + K * r[0], p[1] + K * r[1]) for p in points for r in rays]
    out = set()
    hull = _hull(cloud)
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        normal = (-(b[1] - a[1]), b[0] - a[0])
        if normal == (0, 0):
            continue
        normal = primitive_vector(normal)
        if any(dot(normal, r) < 0 for r in rays):
            continue
        out.add((normal, min(dot(normal, p) for p in points)))
    return out


def oracle_relint(facets, point, alpha):
    return all(dot(l, point) > alpha * c for l, c in facets)


def oracle_closed(facets, point, alpha):
    return all(dot(l, point) >= alpha * c for l, c in facets)


# --- 1: the running example, end to end -------------------------------------


def test_running_example_end_to_end(cusp):
    start = time.monotonic()
    ideal = monomial_ideal(cusp, CUSP_IDEAL)

    assert cusp.facets == ((3, -1), (0, 1))
    assert set(transport(cusp, ideal)) == {(2, 1), (1, 2)}

    res = bfunction(cusp, ideal)
    expected = UniPoly.from_roots([F(-1), F(-1), F(-2, 3), F(-4, 3)])
    assert res.b == expected
    # same polynomial written with cleared denominators, scaled back by 1/9
    cleared = (
        UniPoly([F(1), F(1)])
        * UniPoly([F(1), F(1)])
        * UniPoly([F(2), F(3)])
        * UniPoly([F(4), F(3)])
        * UniPoly([F(1, 9)])
    )
    assert res.b == cleared
    assert res.stabilized

    negated = sorted(((-r, m) for r, m in res.roots))
    assert negated == [(F(2, 3), 1), (F(1), 2), (F(4, 3), 1)]

    threshold = lct(cusp, ideal)
    assert threshold == F(2, 3) == negated[0][0]

    ours = jumping_coefficients(cusp, ideal, F(4, 3))
    assert [a for a, _ in ours.jumping] == [F(2, 3), F(1)]

    S_free, J = ambient_pair(cusp, ideal)
    amb = jumping_coefficients(S_free, J, F(4, 3))
    assert [a for a, _ in amb.jumping] == [F(2, 3), F(1), F(4, 3)]

    assert time.monotonic() - start < 60


# --- 2: the verifier on constructed instance families -----------------------


def test_verifier_passes_on_instance_families(cusp):
    assert verify_correspondence(cusp, monomial_ideal(cusp, CUSP_IDEAL)).verdict == "PASS"

    plane = identity_semigroup(2)
    assert verify_correspondence(plane, monomial_ideal(plane, [(1, 0), (0, 1)])).verdict == "PASS"

    line = build_semigroup([[1]])
    for a in (1, 2, 3):
        ideal = monomial_ideal(line, [(a,)])
        rep = verify_correspondence(line, ideal)
        assert rep.verdict == "PASS"
        # closed form for a single generator with F(beta) = (a)
        assert rep.bfunction_result.b == UniPoly.from_roots([F(-j, a) for j in range(1, a + 1)])
        assert rep.lct == F(1, a)

    simplicial = build_semigroup([[1, 1, 1, 0], [0, 2, 1, 0], [0, 0, 0, 1]])
    assert simplicial.nfacets == 3
    rep = verify_correspondence(simplicial, monomial_ideal(simplicial, [(1, 1, 1)]))
    assert rep.verdict == "PASS"


# --- 3: the two generator constructions coincide ----------------------------


def test_generator_identity_random(cusp):
    alphas = [f_map(cusp, b) for b in CUSP_IDEAL]
    pool = c_vectors(2, 4)
    rng = random.Random(404)
    draws = [rng.choice(pool) for _ in range(100)] + pool
    for c in draws:
        assert build_generator(cusp, CUSP_IDEAL, c) == monomial_generator(alphas, c)


# --- 4: the b-function ignores redundant generators -------------------------


def test_generator_set_independence(cusp):
    minimal = bfunction(cusp, CUSP_IDEAL)
    # beta_1 + beta_2 = (2,3) is already in the ideal
    redundant = bfunction(cusp, [(1, 1), (1, 2), (2, 3)])
    assert minimal.b == redundant.b
    assert minimal.roots == redundant.roots


# --- 5: truncations divide one another --------------------------------------


def test_truncation_divisibility(cusp):
    # three generators, so the box loop runs: boxes 1, 2, 3 give degrees
    # 4, 3, 3 (two generators compute only their proved last box)
    res = bfunction(cusp, monomial_ideal(cusp, [(1, 0), (1, 1), (1, 3)]))
    seen = [(B, p) for B, p in res.truncation if p is not None]
    assert len(seen) >= 2
    for (_, prev), (_, cur) in zip(seen, seen[1:]):
        assert cur.divides(prev)


# --- 6: image polyhedron versus orthant polyhedron --------------------------


def test_polyhedron_membership_sampling(cusp):
    """Relative-interior membership in the dilated image polyhedron equals
    (point lands in the transported cone) and (membership in the dilated
    orthant polyhedron) — sampled at 500 rational points, four dilations."""
    ideal = monomial_ideal(cusp, CUSP_IDEAL)
    points = transport(cusp, ideal)
    rays = cone_facet_normals(cusp.facets, cusp.d)
    image_rays = [primitive_vector(f_map(cusp, r)) for r in rays]
    P_image = newton_polyhedron(points, image_rays)
    P_orthant = newton_polyhedron(points, [(1, 0), (0, 1)])

    rng = random.Random(5)
    failures = 0
    for _ in range(500):
        v = (
            F(rng.randint(-18, 18), rng.randint(1, 6)),
            F(rng.randint(-18, 18), rng.randint(1, 6)),
        )
        q = tuple(dot(f, v) for f in cusp.facets)
        for alpha in (F(1, 3), F(2, 3), F(1), F(4, 3)):
            lhs = membership(P_image, q, alpha, "relint")
            rhs = all(x >= 0 for x in q) and membership(P_orthant, q, alpha, "relint")
            if lhs != rhs:
                failures += 1
    assert failures == 0


# --- 7: multiplier-ideal spot values ----------------------------------------


def test_multiplier_spot_values(cusp):
    ideal = monomial_ideal(cusp, CUSP_IDEAL)
    maximal = ((1, 0), (1, 1), (1, 2), (1, 3))
    assert multiplier_ideal(cusp, ideal, F(2, 3)).generators == maximal
    assert multiplier_ideal(cusp, ideal, 1).generators == ideal.generators
    for alpha in (F(1, 10), F(1, 3), F(1, 2), F(3, 5), F(659, 1000)):
        assert multiplier_ideal(cusp, ideal, alpha).generators == ((0, 0),)


# --- 8: polynomial-ring case against a brute-force oracle -------------------


def test_polynomial_ring_against_howald_oracle():
    """With the identity matrix the engine must reproduce the classical
    Newton-polyhedron description of multiplier ideals; the oracle here is a
    direct lattice scan of v + (1,1) against an independently computed hull."""
    plane = identity_semigroup(2)

    # published closed form first: lct of <x^3, y^2> is 1/3 + 1/2
    assert lct(plane, monomial_ideal(plane, [(3, 0), (0, 2)])) == F(5, 6)

    rng = random.Random(11)
    box = range(0, 16)
    for _ in range(10):
        while True:
            k = rng.randint(1, 3)
            exps = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(k)]
            if all(e != (0, 0) for e in exps):
                break
        facets = oracle_facets(exps)
        o_lct = min((F(dot(l, (1, 1)), c) for l, c in facets if c > 0), default=None)
        ideal = monomial_ideal(plane, exps)
        assert lct(plane, ideal) == o_lct

        window = o_lct + 1
        candidates = sorted(
            {
                F(n, c)
                for l, c in facets
                if c > 0
                for n in range(1, int(window * c) + 1)
                if o_lct <= F(n, c) <= window
            }
        )
        o_jumping = [
            alpha
            for alpha in candidates
            if any(
                oracle_closed(facets, (v[0] + 1, v[1] + 1), alpha)
                and not oracle_relint(facets, (v[0] + 1, v[1] + 1), alpha)
                for v in product(box, repeat=2)
            )
        ]
        jr = jumping_coefficients(plane, ideal, window)
        assert [a for a, _ in jr.jumping] == o_jumping, exps

        for alpha in {F(1, 2), F(1), o_lct, o_lct + F(1, 2)} | set(o_jumping):
            gens = multiplier_ideal(plane, ideal, alpha).generators
            for v in product(box, repeat=2):
                engine = any(all(x >= y for x, y in zip(v, g)) for g in gens)
                oracle = oracle_relint(facets, (v[0] + 1, v[1] + 1), alpha)
                assert engine == oracle, (exps, alpha, v)


# --- 9: Groebner engine soundness -------------------------------------------


def test_groebner_engine_soundness(cusp):
    # the session fixture wraps bsato.groebner_basis, so every elimination
    # in this suite re-verifies its basis: inputs and all S-polynomials of
    # each output reduce to zero
    assert bsato.groebner_basis.__wrapped__ is not None
    # and one elimination runs here on a system large enough to exercise
    # reduction, both criteria, and elimination: the whole box-2 family of
    # the cusp, written in the coordinates (s_1, L) with L = s_1 + s_2 last
    from toricbsato.bsato import eliminate_minimal_univariate

    # the linear parts s_1, s_2, 2 s_1 + s_2, s_1 + 2 s_2 of the factors
    # (the transported exponents are (2, 1) and (1, 2)) are, in (s_1, L),
    # s_1, L - s_1, s_1 + L and 2 L - s_1
    alphas = [(2, 1), (1, 2)]
    parts = [(1, 0), (-1, 1), (1, 1), (-1, 2)]
    profiles = [bsato._profile(alphas, c) for c in c_vectors(2, 2)]
    pack = bsato._Packing.for_generators(parts, profiles, bsato.REDUCTION_WORK_CAP)
    gens = [bsato._falling_product(parts, phi, pack)[0] for phi in profiles]
    p = bsato._eliminate(gens, pack)  # its basis is verified inside
    assert p is not None and p.is_monic()
    assert p == bfunction(cusp, CUSP_IDEAL).b

    x, L = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert eliminate_minimal_univariate([x, L - x]) == UniPoly([F(0), F(1)])
    assert eliminate_minimal_univariate([x - 1, L - x - 2]) == UniPoly([F(-3), F(1)])
    assert eliminate_minimal_univariate([x * 2 - L]) is None


# --- 10: structural validators ----------------------------------------------


def test_structural_validators(cusp):
    assert cusp.saturated and is_normal(cusp)
    plane = build_semigroup([[1, 0], [0, 1]])
    assert plane.saturated and is_normal(plane)

    bad = build_semigroup([[1, 1], [0, 3]])
    assert not bad.saturated
    assert is_normal(bad) is False
    assert bad.normality_witness == (1, 1)

    with pytest.raises(StructuralError, match="strongly convex"):
        build_semigroup([[1, -1]])
