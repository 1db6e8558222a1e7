"""Integer/rational linear algebra: Hermite form, kernels, Fourier-Motzkin."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricbsato.exactnum import (
    IntMatrix,
    dot,
    fm_feasible,
    gcd_list,
    hermite_normal_form,
    kernel_lattice_basis,
    lattice_is_saturated,
    primitive_vector,
    rank,
    solve_linear,
)

small_ints = st.integers(min_value=-9, max_value=9)


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_ints, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def test_primitive_vector():
    assert primitive_vector((4, -6, 2)) == (2, -3, 1)
    assert primitive_vector((0, 5)) == (0, 1)
    assert primitive_vector((-3,)) == (-1,)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_gcd_list():
    assert gcd_list([12, -18, 30]) == 6
    assert gcd_list([7]) == 7


def test_matrix_basics():
    m = IntMatrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.columns() == [(1, 3), (2, 4)]
    assert rank(m.entries) == 2
    assert IntMatrix.identity(2).entries == ((1, 0), (0, 1))


@given(matrices())
@settings(max_examples=120)
def test_hnf_is_column_transform(rows):
    """H = M * U with U unimodular, and H is lower-staircase."""
    m = IntMatrix(rows)
    assume(not m.is_zero())
    h, u = hermite_normal_form(m)
    assert gauss_jordan(u.entries, [0] * u.rows)[2] in (1, -1)
    assert tuple(tuple(dot(row, col) for col in u.columns()) for row in m.entries) == h.entries
    # pivot staircase: in each column the first nonzero sits strictly lower
    # than the previous column's, and entries left of a pivot are reduced
    prev = -1
    for j in range(h.cols):
        col = [h.entries[i][j] for i in range(h.rows)]
        nz = [i for i, x in enumerate(col) if x]
        if not nz:
            continue
        top = nz[0]
        assert top > prev
        pivot = col[top]
        assert pivot > 0
        for jj in range(j):
            assert 0 <= h.entries[top][jj] < pivot
        prev = top


def test_saturation_fixtures():
    assert lattice_is_saturated(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]]))
    assert lattice_is_saturated(IntMatrix.identity(3))
    # columns (1,0) and (1,3) generate Z x 3Z
    assert not lattice_is_saturated(IntMatrix([[1, 1], [0, 3]]))
    assert not lattice_is_saturated(IntMatrix([[2]]))


@given(matrices())
@settings(max_examples=120)
def test_kernel_vectors_annihilate(rows):
    m = IntMatrix(rows)
    basis = kernel_lattice_basis(m)
    assert len(basis) == m.cols - rank(rows)
    for k in basis:
        assert tuple(dot(row, k) for row in m.entries) == (0,) * m.rows


def test_kernel_is_saturated():
    # kernel of (2 4) is generated by (2,-1), not (4,-2)
    [k] = kernel_lattice_basis(IntMatrix([[2, 4]]))
    assert k in ((2, -1), (-2, 1))


def test_solve_linear():
    assert solve_linear([[2, 0], [0, 3]], [4, 9]) == [Fraction(2), Fraction(3)]
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_linear([[2]], [1]) == [Fraction(1, 2)]


def gauss_jordan(rows, rhs):
    """Reference: plain Fraction Gauss-Jordan on ``[rows | rhs]``.

    Returns ``(rank, solution or None, det)``; the solution has its free
    variables at 0, and ``det`` (square input only) is the product of the
    pivots times the sign of the row swaps.
    """
    n, m = len(rows), len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    pivots, sign, prod = [], 1, Fraction(1)
    for c in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prod *= a[r][c]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    solution = None
    if all(a[i][m] == 0 for i in range(len(pivots), n)):
        solution = [Fraction(0)] * m
        for i, c in enumerate(pivots):
            solution[c] = a[i][m]
    det_value = sign * prod if len(pivots) == n == m else 0
    return len(pivots), solution, det_value


sparse_rationals = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


# (rows, rhs) with 1-5 rows and 1-5 columns
rational_systems = st.integers(1, 5).flatmap(
    lambda r: st.tuples(
        st.integers(1, 5).flatmap(
            lambda c: st.lists(
                st.lists(sparse_rationals, min_size=c, max_size=c), min_size=r, max_size=r
            )
        ),
        st.lists(sparse_rationals, min_size=r, max_size=r),
    )
)


@given(rational_systems)
@settings(max_examples=300)
def test_elimination_matches_reference(system):
    """``rank`` and ``solve_linear`` on rows mixing ``int`` and ``Fraction``
    entries agree with a plain Fraction Gauss-Jordan elimination, and every
    returned solution solves the system."""
    rows, rhs = system
    ref_rank, ref_solution, _ = gauss_jordan(rows, rhs)
    assert rank(rows) == ref_rank
    x = solve_linear(rows, rhs)
    assert x == ref_solution
    if x is not None:
        assert [dot(row, x) for row in rows] == [Fraction(y) for y in rhs]


@given(rational_systems, st.data())
@settings(max_examples=100)
def test_elimination_refuses_floats(system, data):
    """A float anywhere raises ``TypeError``: it is never converted."""
    rows, rhs = system
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0])))  # the last column is the right-hand side
    value = float(data.draw(st.integers(-5, 5)))
    if j < len(rows[0]):
        rows = [list(row) for row in rows]
        rows[i][j] = value
        with pytest.raises(TypeError):
            rank(rows)
    else:
        rhs = list(rhs)
        rhs[i] = value
    with pytest.raises(TypeError):
        solve_linear(rows, rhs)


def grid_points(n, radius=4):
    from itertools import product

    return product(range(-radius, radius + 1), repeat=n)


def check_constraints(ineqs, x):
    for a, c, rel in ineqs:
        val = dot(a, x)
        if rel == ">=" and not val >= c:
            return False
        if rel == ">" and not val > c:
            return False
    return True


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=2, max_size=2),
            st.integers(-4, 4),
            st.sampled_from([">=", ">"]),
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=150)
def test_fm_feasible_against_grid(ineqs):
    """If any small integer grid point satisfies the system, fm must agree;
    and any witness fm returns must actually satisfy the system."""
    feasible, witness = fm_feasible(ineqs)
    if witness is not None:
        assert feasible
        assert check_constraints(ineqs, witness)
    grid_hit = any(check_constraints(ineqs, p) for p in grid_points(2))
    if grid_hit:
        assert feasible


def test_fm_strictness():
    # x >= 0 and -x >= 0 forces x = 0; the strict version is empty
    ok, w = fm_feasible([((1,), 0, ">="), ((-1,), 0, ">=")])
    assert ok and w == [0]
    ok, _ = fm_feasible([((1,), 0, ">"), ((-1,), 0, ">")])
    assert not ok


def test_fm_unbounded_direction():
    ok, w = fm_feasible([((1, 0), 5, ">"), ((0, 1), -2, ">=")])
    assert ok
    assert w[0] > 5 and w[1] >= -2
