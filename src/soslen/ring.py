"""Monomials of fixed total degree and dense homogeneous forms.

Monomials are indexed in graded-lexicographic order with x1 > x2 > ... > xn;
within one total degree that is plain descending lex on exponent vectors.
Forms are dense coefficient vectors of exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .bounds import binomial, dim_forms

__all__ = [
    "monomials",
    "mono_rank",
    "mono_unrank",
    "Point",
    "Form",
    "multiply",
    "evaluate",
    "product_index_table",
    "form_to_text",
]


@lru_cache(maxsize=None)
def monomials(n: int, e: int) -> tuple[tuple[int, ...], ...]:
    """All degree-e exponent vectors in n variables, in index order."""
    if n < 1 or e < 0:
        raise ValueError(f"need n >= 1 and e >= 0, got ({n}, {e})")

    def gen(k, rem):
        if k == 1:
            yield (rem,)
            return
        for a in range(rem, -1, -1):
            for rest in gen(k - 1, rem - a):
                yield (a,) + rest

    return tuple(gen(n, e))


def mono_rank(exponents) -> int:
    """Index of an exponent vector among all monomials of its degree.

    Computed by counting predecessors with binomial sums, O(n) per call.
    """
    exponents = tuple(exponents)
    n = len(exponents)
    if n < 1 or any(a < 0 for a in exponents):
        raise ValueError(f"invalid exponent vector {exponents}")
    rem = sum(exponents)
    idx = 0
    for k in range(n - 1):
        a = exponents[k]
        # monomials sharing the prefix but with k-th exponent above a come first
        if rem - a - 1 >= 0:
            idx += binomial((n - k - 1) + (rem - a - 1), n - k - 1)
        rem -= a
    return idx


def mono_unrank(n: int, e: int, index: int) -> tuple[int, ...]:
    """Inverse of mono_rank for monomials of degree e in n variables."""
    total = dim_forms(n, e)
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for {total} monomials")
    expo = []
    rem = e
    for k in range(n - 1):
        vars_left = n - k - 1
        for a in range(rem, -1, -1):
            block = dim_forms(vars_left, rem - a)
            if index < block:
                expo.append(a)
                rem -= a
                break
            index -= block
    expo.append(rem)
    return tuple(expo)


@lru_cache(maxsize=None)
def product_index_table(n: int, e1: int, e2: int) -> tuple[tuple[int, ...], ...]:
    """table[i][j] = index of (monomial i of degree e1) * (monomial j of degree e2)."""
    m1 = monomials(n, e1)
    m2 = monomials(n, e2)
    index = {m: i for i, m in enumerate(monomials(n, e1 + e2))}
    return tuple(tuple(index[tuple(map(add, u, v))] for v in m2) for u in m1)


@dataclass(frozen=True)
class Point:
    """A projective point, stored through one choice of coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.coords or all(c == 0 for c in self.coords):
            raise ValueError("a point needs at least one nonzero coordinate")

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class Form:
    """A homogeneous polynomial with rational coefficients, stored densely.

    coeffs[i] is the coefficient of the i-th degree-`degree` monomial in
    index order; the length is always dim_forms(n, degree).
    """

    n: int
    degree: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        expect = dim_forms(self.n, self.degree)
        if len(self.coeffs) != expect:
            raise ValueError(
                f"expected {expect} coefficients for degree {self.degree} in "
                f"{self.n} variables, got {len(self.coeffs)}"
            )

    @classmethod
    def zero(cls, n, degree):
        return cls(n, degree, (Fraction(0),) * dim_forms(n, degree))

    @classmethod
    def from_coeffs(cls, n, degree, coeffs):
        return cls(n, degree, tuple(Fraction(c) for c in coeffs))

    @classmethod
    def from_terms(cls, n, degree, terms):
        """Build from {exponent tuple: coefficient}."""
        coeffs = [Fraction(0)] * dim_forms(n, degree)
        for expo, c in terms.items():
            if sum(expo) != degree or len(expo) != n:
                raise ValueError(f"term {expo} does not have degree {degree} in {n} vars")
            coeffs[mono_rank(expo)] += Fraction(c)
        return cls(n, degree, tuple(coeffs))

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other, same_degree=True)
        return Form(
            self.n, self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "Form") -> "Form":
        self._check_compatible(other, same_degree=True)
        return Form(
            self.n, self.degree, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c) -> "Form":
        c = Fraction(c)
        return Form(self.n, self.degree, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "Form") -> "Form":
        return multiply(self, other)

    def evaluate(self, point: Point):
        return evaluate(self, point)

    def _check_compatible(self, other: "Form", same_degree: bool = False):
        if not isinstance(other, Form):
            raise ValueError(f"expected a Form, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")
        if same_degree and other.degree != self.degree:
            raise ValueError(f"degrees differ: {self.degree} vs {other.degree}")


def multiply(f: Form, g: Form) -> Form:
    """Exact product of two forms."""
    f._check_compatible(g)
    table = product_index_table(f.n, f.degree, g.degree)
    out = [Fraction(0)] * dim_forms(f.n, f.degree + g.degree)
    for i, ci in enumerate(f.coeffs):
        if not ci:
            continue
        row = table[i]
        for j, cj in enumerate(g.coeffs):
            if cj:
                out[row[j]] += ci * cj
    return Form(f.n, f.degree + g.degree, tuple(out))


def _cleared(vectors) -> tuple[list[list[int]], list[int]]:
    """Integer vectors u_k = D_k v_k and their denominators D_k, the lcm of
    the denominators of v_k; exact for int or Fraction entries."""
    us, dens = [], []
    for v in vectors:
        D = math.lcm(*[c.denominator for c in v])
        us.append([c.numerator * (D // c.denominator) for c in v])
        dens.append(D)
    return us, dens


def _eval_rows_int(points, n: int, e: int) -> list[list]:
    """Exact evaluation matrix: one row of degree-e monomial values per
    point, in index order; integers for integer coordinates, exact for
    int or Fraction ones."""
    monos = monomials(n, e)
    rows = []
    for coords in points:
        pw = [[x**k for k in range(e + 1)] for x in coords]
        row = []
        for expo in monos:
            val = 1
            for v, a in enumerate(expo):
                if a:
                    val *= pw[v][a]
            row.append(val)
        rows.append(row)
    return rows


def evaluate(f: Form, point: Point):
    """Value of f at the point's coordinate representative.

    Homogeneous, so rescaling the coordinates by c rescales the value by
    c**degree.
    """
    if point.n != f.n:
        raise ValueError(f"point has {point.n} coordinates, form has {f.n} variables")
    (row,) = _eval_rows_int([point.coords], f.n, f.degree)
    return sum(map(mul, f.coeffs, row), Fraction(0))


def _coeff_to_text(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c) if isinstance(c, Fraction) else c)


def form_to_text(f: Form) -> str:
    """Render as "c * x1^a1 ... xn^an + ..." with exact "p/q" coefficients."""
    terms = []
    for c, expo in zip(f.coeffs, monomials(f.n, f.degree)):
        if not c:
            continue
        mono = " ".join(f"x{v + 1}^{a}" for v, a in enumerate(expo))
        terms.append(f"{_coeff_to_text(c)} * {mono}")
    return " + ".join(terms) if terms else "0"
