"""Integer/rational linear algebra: Hermite form, kernels, Fourier-Motzkin."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricbsato.exactnum import (
    IntMatrix,
    Work,
    WorkCapExceeded,
    dot,
    fm_feasible,
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


def _hermite_two_matrices(M):
    """Reference: the column Hermite form with ``H`` and ``U`` kept as two
    matrices, updated in lockstep by the same column operations.  Refuses
    the zero matrix."""
    if all(x == 0 for row in M.entries for x in row):
        raise ValueError("hermite_normal_form requires a nonzero matrix")
    d, m = M.rows, M.cols
    H = [list(row) for row in M.entries]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap_cols(a, b):
        if a == b:
            return
        for i in range(d):
            H[i][a], H[i][b] = H[i][b], H[i][a]
        for i in range(m):
            U[i][a], U[i][b] = U[i][b], U[i][a]

    def addmul_col(dst, src, q):
        # column dst -= q * column src
        if q == 0:
            return
        for i in range(d):
            H[i][dst] -= q * H[i][src]
        for i in range(m):
            U[i][dst] -= q * U[i][src]

    def negate_col(a):
        for i in range(d):
            H[i][a] = -H[i][a]
        for i in range(m):
            U[i][a] = -U[i][a]

    col = 0
    for row in range(d):
        if col >= m:
            break
        while True:
            nz = [j for j in range(col, m) if H[row][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: (abs(H[row][j]), j))
            swap_cols(col, j0)
            clean = True
            for j in range(col + 1, m):
                if H[row][j] != 0:
                    addmul_col(j, col, H[row][j] // H[row][col])
                    if H[row][j] != 0:
                        clean = False
            if clean:
                break
        if H[row][col] == 0:
            continue  # no pivot in this row
        if H[row][col] < 0:
            negate_col(col)
        for j in range(col):
            addmul_col(j, col, H[row][j] // H[row][col])
        col += 1
    return IntMatrix(H), IntMatrix(U)


# single rows of up to six entries, the shape of the jumping witness search
single_rows = st.lists(st.lists(st.integers(-30, 30), min_size=1, max_size=6), min_size=1, max_size=1)


@given(st.one_of(matrices(), single_rows))
@settings(max_examples=300)
def test_hnf_matches_two_matrix_reference(rows):
    """One stacked column array gives the same ``H`` and ``U`` as the
    two-matrix reference: the kernel vectors, and so the jumping
    witnesses, come out unchanged."""
    m = IntMatrix(rows)
    assume(any(any(row) for row in rows))
    assert hermite_normal_form(m) == _hermite_two_matrices(m)


def test_hnf_of_the_zero_matrix():
    zero = IntMatrix([[0, 0, 0], [0, 0, 0]])
    assert hermite_normal_form(zero) == (zero, IntMatrix.identity(3))
    assert kernel_lattice_basis(zero) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel_lattice_basis(IntMatrix([[0]])) == [(1,)]


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
    return all(dot(a, x) >= c for a, c in ineqs)


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=2, max_size=2),
            st.integers(-4, 4),
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


def test_fm_unbounded_direction():
    ok, w = fm_feasible([((1, 0), 5), ((0, 1), -2)])
    assert ok
    assert w[0] >= 5 and w[1] >= -2


def _canon_constraint(a, c):
    """Reference helper: scale a Fraction constraint to a canonical integer
    form for deduplication."""
    denoms = [x.denominator for x in a] + [c.denominator]
    mult = 1
    for d in denoms:
        mult = mult * d // gcd(mult, d)
    ia = [int(x * mult) for x in a]
    ic = int(c * mult)
    g = gcd(*ia, ic)
    if g > 1:
        ia = [x // g for x in ia]
        ic //= g
    return tuple(ia), ic


def _fm_fraction_reference(ineqs):
    """Reference: Fourier-Motzkin on ``Fraction`` rows, each deduplicated
    by the integer key of :func:`_canon_constraint`; the first of equal
    rows stays, with its own scaling."""
    parsed = []
    n = None
    for a, c in ineqs:
        av = tuple(Fraction(x) for x in a)
        if n is None:
            n = len(av)
        parsed.append((av, Fraction(c)))
    if not parsed:
        return True, []

    def prune(system):
        seen = set()
        out = []
        for a, c in system:
            if all(x == 0 for x in a):
                if c > 0:
                    return None  # constant contradiction
                continue
            key = _canon_constraint(a, c)
            if key in seen:
                continue
            seen.add(key)
            out.append((a, c))
        return out

    levels = []
    cur = prune(parsed)
    if cur is None:
        return False, None
    for k in range(n, 0, -1):
        levels.append(cur)
        lows, ups, rest = [], [], []
        for a, c in cur:
            coef = a[k - 1]
            if coef > 0:
                lows.append((a, c))
            elif coef < 0:
                ups.append((a, c))
            else:
                rest.append((a[: k - 1], c))
        new = list(rest)
        for al, cl in lows:
            for au, cu in ups:
                pl, pu = -au[k - 1], al[k - 1]
                a_new = tuple(pl * al[i] + pu * au[i] for i in range(k - 1))
                new.append((a_new, pl * cl + pu * cu))
        cur = prune(new)
        if cur is None:
            return False, None
    witness = []
    for k in range(1, n + 1):
        lo = hi = None
        for a, c in levels[n - k]:
            coef = a[k - 1]
            if coef == 0:
                continue
            bound = (c - sum(a[i] * witness[i] for i in range(k - 1))) / coef
            if coef > 0:
                if lo is None or bound > lo:
                    lo = bound
            else:
                if hi is None or bound < hi:
                    hi = bound
        if lo is None and hi is None:
            val = Fraction(0)
        elif hi is None:
            val = lo
        elif lo is None:
            val = hi
        elif lo < hi:
            val = (lo + hi) / 2
        else:
            val = lo
        witness.append(val)
    return True, witness


@st.composite
def fm_systems(draw):
    """At most six constraints in at most four variables, ``Fraction``
    entries, zero rows, and repeats of earlier rows scaled by a positive
    factor (1 gives an exact duplicate), inserted anywhere."""
    n = draw(st.integers(0, 4))
    coefficients = st.one_of(
        st.lists(sparse_rationals, min_size=n, max_size=n), st.just([0] * n)
    )
    rows = draw(
        st.lists(
            st.tuples(coefficients, sparse_rationals),
            min_size=1,
            max_size=4,
        )
    )
    for _ in range(draw(st.integers(0, 6 - len(rows)))):
        a, c = draw(st.sampled_from(rows))
        t = draw(st.sampled_from([1, 2, Fraction(1, 3), Fraction(5, 2)]))
        rows.insert(draw(st.integers(0, len(rows))), ([t * x for x in a], t * c))
    return rows


@given(fm_systems())
@settings(max_examples=400, deadline=None)
def test_fm_feasible_matches_fraction_reference(ineqs):
    """Primitive integer rows give the same verdict and the same witness,
    Fraction for Fraction, as Fraction rows deduplicated by integer keys."""
    assert fm_feasible(ineqs) == _fm_fraction_reference(ineqs)


def test_fm_feasible_refuses_floats():
    with pytest.raises(TypeError):
        fm_feasible([((1.0, 0), 0)])
    with pytest.raises(TypeError):
        fm_feasible([((1, 0), 0.5)])
    with pytest.raises(ValueError, match="differing arity"):
        fm_feasible([((1,), 0), ((1, 2), 0)])


def test_work_counts_across_charges_and_raises_past_its_limit():
    work = Work("SOME_CAP", 10)
    work.charge(4)
    work.charge(6)
    assert work.count == 10  # at the limit is within it
    with pytest.raises(WorkCapExceeded) as exc:
        work.charge(3)
    assert str(exc.value) == "SOME_CAP exceeded: 13 > 10"
    assert exc.value.cap == "SOME_CAP"
    assert work.count == 13
    unlimited = Work("SOME_CAP", None)
    for _ in range(3):
        unlimited.charge(10**30)
    assert unlimited.count == 3 * 10**30
