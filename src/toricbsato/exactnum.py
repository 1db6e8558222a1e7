"""Exact integer and rational linear algebra used throughout the package.

Every computation in this package runs over Python's unbounded ``int`` and
``fractions.Fraction``; nothing here ever rounds.  This module collects the
lattice and feasibility primitives the geometric layers are built on:

* column-style Hermite normal form together with its unimodular
  transformation matrix, carried as one stacked array of columns,
* primitive integer vectors,
* one fraction-free (Bareiss) Gauss-Jordan elimination behind rank, exact
  solving over the rationals and the start of the double description,
* Fourier-Motzkin elimination: its levels, the exact projections onto
  each prefix of the coordinates (stopping, when asked, while a parameter
  coordinate and one more remain), and from them an exact rational
  witness by back-substitution in integers,
* one lattice walk, line by line with floor division only,
* :class:`Work`, the one counter of every counted work cap, and
  :class:`WorkCapExceeded`, which only it raises once a count passes its
  cap.

Every kernel takes integer rows ``(a, c)``, meaning ``a . x >= c``, as
they are, so a level of the elimination feeds the walk unchanged.
Exactness is checked once, where data enters: :func:`_int_vector` for
integer vectors, :func:`_integer_row` for rational rows cleared to
integers and :func:`_rational` for single rationals.

All vectors are plain tuples, matrices are immutable ``IntMatrix`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]

__all__ = [
    "IntMatrix",
    "Vec",
    "dot",
    "primitive_vector",
    "hermite_normal_form",
    "lattice_is_saturated",
    "rank",
    "kernel_lattice_basis",
    "solve_linear",
    "fm_feasible",
]


class WorkCapExceeded(RuntimeError):
    """A counted work cap would be exceeded; ``cap`` names it."""

    def __init__(self, cap: str, count: int, limit: int):
        super().__init__(f"{cap} exceeded: {count} > {limit}")
        self.cap = cap


class Work:
    """The ``count`` of work units charged against the cap named ``cap``;
    a count above ``limit`` raises :class:`WorkCapExceeded`, and ``limit =
    None`` never does.  Each cap's limit is a module constant read when the
    counter is made, so one call counts against one limit."""

    __slots__ = ("cap", "limit", "count")

    def __init__(self, cap: str, limit: Optional[int]):
        self.cap, self.limit, self.count = cap, limit, 0

    def charge(self, units: int) -> None:
        """Add ``units`` to the count; past the limit raise."""
        self.count += units
        if self.limit is not None and self.count > self.limit:
            raise WorkCapExceeded(self.cap, self.count, self.limit)


def dot(a: Sequence, b: Sequence):
    """Exact dot product of two equal-length sequences of ints or Fractions."""
    if len(a) != len(b):
        raise ValueError("dot: length mismatch")
    return sum(map(mul, a, b))


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with positive dimensions."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(_int_vector, self.entries))
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.cols)]


def primitive_vector(v: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries, keeping orientation.

    Raises ``ValueError`` on the zero vector, which has no primitive form,
    and ``TypeError`` on a non-integer entry.
    """
    v = _int_vector(v)
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form ``H = M * U`` with ``U`` unimodular.

    ``H`` has its pivot columns first (one pivot per nonzero row, positive
    pivot entries), zeros to the right of each pivot in its row, entries to
    the left of a pivot reduced into ``[0, pivot)``, and zero columns at the
    end.  ``|det U| = 1`` always, so the column lattices of ``M`` and ``H``
    coincide; the zero matrix gives ``H = 0``, ``U = I``.

    Each column of ``M`` is stacked over the same column of the identity,
    so one list of columns carries ``H`` (the top ``d`` entries) and ``U``
    (the rest) through the same swaps, subtractions and negations.
    """
    d, m = M.rows, M.cols
    cols = [list(c) + [int(i == j) for i in range(m)] for j, c in enumerate(M.columns())]

    def subtract(dst, src, row):
        # column dst -= q * column src, with q the floor quotient in ``row``
        q = cols[dst][row] // cols[src][row]
        if q:
            cols[dst] = [x - q * y for x, y in zip(cols[dst], cols[src])]

    col = 0
    for row in range(d):
        if col >= m:
            break
        while True:
            nz = [j for j in range(col, m) if cols[j][row] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: (abs(cols[j][row]), j))
            cols[col], cols[j0] = cols[j0], cols[col]
            for j in range(col + 1, m):
                subtract(j, col, row)
            if all(cols[j][row] == 0 for j in range(col + 1, m)):
                break
        if cols[col][row] == 0:
            continue  # no pivot in this row
        if cols[col][row] < 0:
            cols[col] = [-x for x in cols[col]]
        for j in range(col):
            subtract(j, col, row)
        col += 1
    rows = list(zip(*cols))
    return IntMatrix(rows[:d]), IntMatrix(rows[d:])


def lattice_is_saturated(M: IntMatrix) -> bool:
    """True iff the columns of ``M`` generate all of ``Z^d`` (d = row count).

    Checked on the Hermite normal form: the lattice is full exactly when the
    top-left ``d x d`` block of ``H`` is the identity.
    """
    H, _ = hermite_normal_form(M)
    return tuple(row[: M.rows] for row in H.entries) == IntMatrix.identity(M.rows).entries


_INEXACT = "exact arithmetic takes int and Fraction entries only"


def _integer_row(row: Sequence) -> list[int]:
    """``row`` times the lcm of its denominators: ints and Fractions only,
    anything else (a float above all) raises ``TypeError``."""
    if not all(isinstance(x, (int, Fraction)) for x in row):
        raise TypeError(_INEXACT)
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _rational(x) -> Fraction:
    """``x`` as a ``Fraction``, refused as an entry of :func:`_integer_row`."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(_INEXACT)
    return Fraction(x)


def _int_vector(v: Iterable) -> Vec:
    """``v`` as a tuple of ints; a float or a Fraction raises ``TypeError``."""
    return tuple(map(index, v))


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[Sequence[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows.

    Step ``k`` replaces every other row by
    ``(p_k * row - f * pivot_row) / p_{k-1}``; the division is exact because
    every entry is then a minor of the input matrix.  Returns
    ``(a, pivots, p)``: the reduced integer rows, whose row ``i`` carries
    the last pivot ``p`` in column ``pivots[i]`` and zeros in the other
    pivot columns (rows past ``len(pivots)`` are zero).
    """
    a = list(rows)
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    p = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        pc = top[c]
        for i in range(nrows):
            if i != r:
                f = a[i][c]
                a[i] = [(pc * x - f * y) // p for x, y in zip(a[i], top)]
        pivots.append(c)
        p = pc
    return a, pivots, p


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a matrix given as a sequence of rows (ints or Fractions)."""
    return len(_bareiss([_integer_row(row) for row in rows])[1])


def kernel_lattice_basis(M: IntMatrix) -> list[Vec]:
    """Basis of the saturated integer kernel lattice ``{x in Z^m : M x = 0}``.

    Computed from the column Hermite normal form: the columns of ``U`` that
    map to zero columns of ``H`` form a basis.  Returns ``[]`` for injective
    matrices, and the standard basis for the zero matrix.
    """
    H, U = hermite_normal_form(M)
    return [U.column(j) for j in range(M.cols) if not any(H.column(j))]


def solve_linear(M: Sequence[Sequence], b: Sequence) -> Optional[list[Fraction]]:
    """Solve ``M x = b`` exactly over the rationals; return one solution or
    ``None`` when the system is inconsistent.

    Free variables (if the system is underdetermined) are set to zero.
    Callers that need an integral solution check the denominators.
    """
    if len(M) != len(b):
        raise ValueError("solve_linear: shape mismatch")
    if not M:
        return []
    ncols = len(M[0])
    a, pivots, p = _bareiss([_integer_row([*row, rhs]) for row, rhs in zip(M, b)])
    if pivots and pivots[-1] == ncols:
        return None  # a pivot in the right-hand side: inconsistent
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = Fraction(a[i][-1], p)
    return x


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

def _primitive_row(a: Sequence[int], c: int) -> tuple[Vec, int]:
    """``a . x >= c`` divided by ``gcd(a, c)``: the one integer form of the
    row, and so its own deduplication key."""
    g = gcd(*a, c) or 1
    return tuple(x // g for x in a), c // g


def _fm_levels(
    rows: Sequence[tuple[Sequence[int], int]], keep: int = 0
) -> Optional[list[list[tuple[Vec, int]]]]:
    """The Fourier-Motzkin levels of the integer rows ``(a, c)`` of one
    arity ``n``, or ``None`` on a contradiction: level ``n - j`` holds the
    primitive rows on ``x_0 .. x_{j-1}``, the exact projection of the
    system onto them, level ``0`` the input rows made primitive; the first
    of equal rows stays.  The elimination stops once at most ``keep``
    coordinates remain, so the last level is the projection onto the first
    ``min(keep, n)``.  Eliminating the others commutes with fixing ``x_0``:
    where the system at one value of ``x_0`` is feasible, each level
    evaluated there is that system's level up to positive multiples and
    repeats, plus the rows on ``x_0`` alone, which evaluate to zero rows;
    :func:`_fm_witness` finishes such levels and finds the values where the
    system is infeasible."""
    levels = []
    system = [_primitive_row(a, c) for a, c in rows]
    for k in range(len(rows[0][0]) if rows else 0, -1, -1):
        # a zero row states 0 >= c: true or a contradiction
        if any(c > 0 for a, c in system if not any(a)):
            return None
        cur = list(dict.fromkeys(row for row in system if any(row[0])))
        if k == 0:
            return levels
        levels.append(cur)
        if k <= keep:
            return levels
        lows = [row for row in cur if row[0][k - 1] > 0]
        ups = [row for row in cur if row[0][k - 1] < 0]
        system = [(a[: k - 1], c) for a, c in cur if a[k - 1] == 0]
        for al, cl in lows:
            for au, cu in ups:
                # positive combination cancelling x_{k-1}
                pl, pu = -au[k - 1], al[k - 1]
                a_new = [pl * x + pu * y for x, y in zip(al[: k - 1], au)]
                system.append(_primitive_row(a_new, pl * cl + pu * cu))


def _fm_witness(levels: Sequence[Sequence[tuple[Vec, int]]]) -> Optional[list[Fraction]]:
    """A rational point of the system whose Fourier-Motzkin levels are
    ``levels`` (level ``n - j`` on ``x_0 .. x_{j-1}``), by back-substitution
    through the levels: each coordinate is the midpoint of its interval, or
    its one finite end, or 0.  ``None`` when the last level, the projection
    onto ``x_0``, is empty: a zero row ``0 >= c > 0`` or an empty interval.
    :func:`_fm_levels` rules both out, but the levels of a parametric
    system evaluated at one parameter have not eliminated ``x_0``.  Past
    ``x_0`` every interval is non-empty, since each level is the exact
    projection of the one before.

    The point is kept as integers ``p / D`` over one common denominator and
    bounds are compared by cross-multiplication; ``Fraction``s are built
    for the result only."""
    n = len(levels)
    ps: list[int] = []
    D = 1
    for k in range(1, n + 1):
        lo = hi = None  # the greatest lower, least upper bound on x_{k-1}: (r, m), r / (m D)
        for a, c in levels[n - k]:
            m = a[k - 1]
            # map stops at the end of ps: the sum is a[:k-1] . ps
            r = c * D - sum(map(mul, a, ps))
            if m > 0:
                if lo is None or r * lo[1] > lo[0] * m:
                    lo = r, m
            elif m < 0:
                if hi is None or r * hi[1] > hi[0] * m:  # r / m < hi, m < 0 < hi[1]
                    hi = -r, -m
            elif r > 0:
                return None  # only at x_0: 0 >= c > 0
        if lo and hi:
            if lo[0] * hi[1] > hi[0] * lo[1]:
                return None  # only at x_0: an empty interval
            r, m = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        else:
            r, m = lo or hi or (0, 1)
        # x_{k-1} = r / (m D): the common denominator becomes m D
        ps = [p * m for p in ps] + [r]
        D *= m
    return [Fraction(p, D) for p in ps]


def _line_interval(rows, head: Sequence[int], bounds) -> Optional[tuple]:
    """The integers ``t`` with ``a . (head + (t,)) >= c`` for each row
    ``(a, c)`` and ``a * t >= c`` for each bound ``(a, c)``:
    ``(lo, hi)``, with ``None`` for an open end, or ``None`` if there is no
    such ``t``.  Floor division only."""
    lo = hi = None
    # map stops at the end of head: the sum is r[:-1] . head
    for a, c in [(r[-1], c - sum(map(mul, r, head))) for r, c in rows] + bounds:
        if a > 0:
            bound = -(-c // a)  # ceil(c / a)
            lo = bound if lo is None else max(lo, bound)
        elif a < 0:
            bound = c // a  # floor(c / a)
            hi = bound if hi is None else min(hi, bound)
        elif c > 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _lattice_lines(systems, bounds):
    """The lattice points of the system ``systems[-1]`` as lines
    ``(head, lo, hi)``, ``x = head + (t,)`` for ``lo <= t <= hi``, in
    lexicographic order.  ``systems[j]`` holds integer rows ``(a, c)`` on
    ``x_0 .. x_j`` that the full system implies (none, or a
    :func:`_fm_levels` level), and ``bounds[j]`` bounds ``(a, c)``,
    ``a * x_j >= c``, that clip ``x_j``.  The bounds must close every line
    but the last, whose open ends come out as ``None``."""

    def walk(head: Vec):
        j = len(head)
        line = _line_interval(systems[j], head, bounds[j])
        if line is not None and j == len(systems) - 1:
            yield head, *line
        elif line is not None:
            for t in range(line[0], line[1] + 1):
                yield from walk(head + (t,))

    return walk(())


def fm_feasible(ineqs: Sequence[tuple[Sequence, object]]) -> tuple[bool, Optional[list[Fraction]]]:
    """Exact feasibility of the rows ``(a, c)``, ``a . x >= c``, with int or
    Fraction entries (a float raises ``TypeError``) and ``a`` of one length:
    Fourier-Motzkin elimination on primitive integer rows, then a rational
    witness by back-substitution.
    """
    rows = [_integer_row([*a, c]) for a, c in ineqs]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("fm_feasible: constraints of differing arity")
    levels = _fm_levels([(row[:-1], row[-1]) for row in rows])
    if levels is None:
        return False, None
    return True, _fm_witness(levels)
