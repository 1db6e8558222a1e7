"""Sparse multivariate and dense univariate polynomials over exact rationals.

``MultiPoly`` stores a mapping from exponent tuples to nonzero exact
rational coefficients (``int`` or ``Fraction``); the number of variables is
fixed per polynomial.  It carries no monomial order: the one order the
package computes with is the graded reverse-lexicographic order of the
Groebner engine in ``bsato``, packed into ints there, and ``format`` lists
terms in the same order for display.  ``UniPoly`` is a dense univariate polynomial used for
b-functions and root bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import index
from typing import Iterable, Mapping, Optional, Sequence

from .exactnum import _int_vector, _rational

__all__ = ["MultiPoly", "UniPoly"]


class MultiPoly:
    """Sparse polynomial in ``nvars`` variables over the rationals.

    ``terms`` maps exponent tuples to nonzero exact rationals, ``int`` or
    ``Fraction``: the public constructor stores ``Fraction``s (a float
    coefficient raises ``TypeError``), while integer-built polynomials keep
    their ``int``s.  Equality and hashing agree across the two types.
    Instances are treated as immutable values; all operations return new
    polynomials.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = index(nvars)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = _rational(coeff)
                if c == 0:
                    continue
                exp = _int_vector(exp)
                if len(exp) != self.nvars or any(x < 0 for x in exp):
                    raise ValueError("bad exponent tuple")
                total = clean[exp] + c if exp in clean else c
                if total:
                    clean[exp] = total
                else:
                    del clean[exp]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(nvars: int, terms: dict) -> "MultiPoly":
        """Wrap ``terms`` that are already clean (nonzero coefficients,
        nonnegative exponent tuples of length ``nvars``) without checking or
        copying them."""
        out = MultiPoly.__new__(MultiPoly)
        out.nvars = nvars
        out.terms = terms
        return out

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return MultiPoly(nvars, {exp: 1})

    @staticmethod
    def linear_form(coeffs: Sequence, const=0) -> "MultiPoly":
        """Polynomial ``sum coeffs[i] * x_i + const``."""
        n = len(coeffs)
        terms = {tuple(1 if j == i else 0 for j in range(n)): c for i, c in enumerate(coeffs)}
        terms[(0,) * n] = const
        return MultiPoly(n, terms)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MultiPoly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = _rational(other)
            if c == 0:
                return MultiPoly.zero(self.nvars)
            return MultiPoly._of(self.nvars, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MultiPoly._of(self.nvars, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _rational(scalar)
        if c == 0:
            raise ZeroDivisionError
        return self * (1 / c)

    # -- display ------------------------------------------------------

    def format(self, names: Optional[Sequence[str]] = None) -> str:
        """``c*m + ...`` with the terms in descending grevlex order, keyed
        ``(sum(e), -e[n-1], ..., -e[0])``."""
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        exps = sorted(self.terms, key=lambda e: (sum(e), *(-x for x in reversed(e))), reverse=True)
        return _format_terms(
            (self.terms[e], "*".join(names[i] + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k))
            for e in exps
        )

    def __repr__(self):
        return f"MultiPoly({self.format()})"


def _format_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """``c*m + ...`` over nonzero ``(c, m)`` pairs, ``m`` empty for the
    constant: a unit coefficient is left out, a negative term is joined by
    `` - ``, and no terms give ``"0"``."""
    out = ""
    for c, m in terms:
        part = str(c) if not m else m if c == 1 else f"-{m}" if c == -1 else f"{c}*{m}"
        if not out:
            out = part
        else:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out or "0"


def binom_poly(E: MultiPoly, m: int) -> MultiPoly:
    """Generalized binomial coefficient ``binom(E, m)`` as a polynomial.

    Falling-factorial form: ``E (E-1) ... (E-m+1) / m!``; ``m = 0`` gives 1.
    """
    if m < 0:
        raise ValueError("binom_poly needs m >= 0")
    result = MultiPoly.constant(E.nvars, 1)
    for j in range(m):
        result = result * (E - j)
    return result / factorial(m)


class UniPoly:
    """Dense univariate polynomial over ``Fraction`` (ascending coefficients);
    a float coefficient raises ``TypeError``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly([])

    @staticmethod
    def from_roots(roots: Sequence, lead=1) -> "UniPoly":
        """``lead * prod (x - r)``, multiplied out in integers: a root
        ``n/d`` gives the factor ``d x - n``, and the product of the ``d``
        is divided out once."""
        p, scale = [1], 1
        for r in map(_rational, roots):
            n, d = r.numerator, r.denominator
            p = [d * a - n * b for a, b in zip([0] + p, p + [0])]
            scale *= d
        lead = _rational(lead)
        return UniPoly([lead * Fraction(c, scale) for c in p])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return not self.is_zero() and self.coeffs[-1] == 1

    def __call__(self, x) -> Fraction:
        x = _rational(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly([other])
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = _rational(other)
            return UniPoly([k * c for k in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        if dd < dv:
            return UniPoly.zero(), UniPoly(rem)
        quot = [Fraction(0)] * (dd - dv + 1)
        lc = other.coeffs[-1]
        for k in range(dd - dv, -1, -1):
            c = rem[k + dv] / lc
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UniPoly(quot), UniPoly(rem)

    def divides(self, other: "UniPoly") -> bool:
        """True iff ``self`` divides ``other`` exactly."""
        if self.is_zero():
            return other.is_zero()
        _, r = other.divmod(self)
        return r.is_zero()

    def format(self, var: str = "s") -> str:
        return _format_terms(
            (c, "" if k == 0 else var if k == 1 else f"{var}^{k}")
            for k, c in reversed(list(enumerate(self.coeffs)))
            if c
        )

    def __repr__(self):
        return f"UniPoly({self.format()})"
