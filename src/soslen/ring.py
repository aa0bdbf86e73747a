"""Monomials of fixed total degree and dense homogeneous forms.

Monomials are indexed in graded-lexicographic order with x1 > x2 > ... > xn;
within one total degree that is plain descending lex on exponent vectors.
``monomials`` enumerates that order once per (n, e); ranks, unranks and
product tables are lookups in it.
Forms are dense coefficient vectors of exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .bounds import dim_forms

__all__ = [
    "monomials",
    "mono_rank",
    "mono_unrank",
    "Form",
    "multiply",
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


@lru_cache(maxsize=None)
def _mono_index(n: int, e: int) -> dict[tuple[int, ...], int]:
    """{exponent vector: index} over ``monomials(n, e)``."""
    return {m: i for i, m in enumerate(monomials(n, e))}


def mono_rank(exponents) -> int:
    """Index of an exponent vector among all monomials of its degree."""
    exponents = tuple(exponents)
    if not exponents or any(a < 0 for a in exponents):
        raise ValueError(f"invalid exponent vector {exponents}")
    return _mono_index(len(exponents), sum(exponents))[exponents]


def mono_unrank(n: int, e: int, index: int) -> tuple[int, ...]:
    """Inverse of mono_rank for monomials of degree e in n variables."""
    monos = monomials(n, e)
    if not 0 <= index < len(monos):
        raise ValueError(f"index {index} out of range for {len(monos)} monomials")
    return monos[index]


@lru_cache(maxsize=None)
def product_index_table(n: int, e1: int, e2: int) -> tuple[tuple[int, ...], ...]:
    """table[i][j] = index of (monomial i of degree e1) * (monomial j of degree e2),
    by keys: exponents read as base-(e1+e2+1) digits, so a product's key is a sum."""
    w = [(e1 + e2 + 1) ** v for v in range(n)]
    left, right, prod = ([sum(map(mul, m, w)) for m in monomials(n, e)] for e in (e1, e2, e1 + e2))
    index = {key: i for i, key in enumerate(prod)}
    return tuple(tuple(map(index.__getitem__, map(key.__add__, right))) for key in left)


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
    def from_coeffs(cls, n, degree, coeffs):
        return cls(n, degree, tuple(Fraction(c) for c in coeffs))

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other, same_degree=True)
        return Form(
            self.n, self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c) -> "Form":
        c = Fraction(c)
        return Form(self.n, self.degree, tuple(c * a for a in self.coeffs))

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


def form_to_text(f: Form) -> str:
    """Render as "c * x1^a1 ... xn^an + ..." with exact "p/q" coefficients."""
    terms = []
    for c, expo in zip(f.coeffs, monomials(f.n, f.degree)):
        if not c:
            continue
        mono = " ".join(f"x{v + 1}^{a}" for v, a in enumerate(expo))
        terms.append(f"{c} * {mono}")
    return " + ".join(terms) if terms else "0"
