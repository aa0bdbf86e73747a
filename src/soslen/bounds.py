"""Closed-form bounds for Pythagoras numbers of real forms.

Everything here is exact integer / rational arithmetic: irrational bounds
are carried as quadratic surds with floors and ceilings computed through
``math.isqrt``, never through floating point.  Floats appear only in
display helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InternalCheckError

__all__ = [
    "binomial",
    "dim_forms",
    "DegreeParams",
    "Surd",
    "lambda_lower",
    "Lambda_upper",
    "leep_length_bound",
    "s_min",
    "theta_lower",
    "asymptotic_constants",
    "UpperSource",
    "BoundsRow",
    "bounds_row",
    "bounds_table",
    "scan_leep_vs_lambda",
    "cmp_abs_sqrt_diff",
]


# No integer computed to be printed may have more bits: printing one in
# decimal takes seconds at 2^21 bits and grows with the square of its length.
MAX_BITS = 2**22


def _comb(a: int, b: int, what: str) -> int:
    """math.comb, with a ValueError naming ``what`` where log2 C(a, b)
    exceeds ``MAX_BITS``, checked before C(a, b) is computed."""
    k = min(b, a - b)
    if k > 0 and k * a.bit_length() > MAX_BITS:  # else C(a, b) < a^k fits
        if k > MAX_BITS:  # C(a, k) >= (a/k)^k >= 2^k
            bits = k
        elif a < 2**40:  # lgamma's rounding stays far below one bit
            bits = (math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)) / math.log(2)
        else:  # sum log(a - i) over i < k is below k log a, by at most k^2/a
            bits = (k * math.log(a) - math.lgamma(k + 1)) / math.log(2)
        if bits > MAX_BITS:
            raise ValueError(f"{what} has more than {MAX_BITS} bits, too large to compute")
    return math.comb(a, b)


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) with the convention C(a, b) = 0 for b > a."""
    if a < 0 or b < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({a}, {b})")
    if b > a:
        return 0
    return _comb(a, b, f"the binomial coefficient C({a}, {b})")


def dim_forms(n: int, e: int) -> int:
    """Dimension of the space of degree-e forms in n variables: C(n+e-1, n-1)."""
    if n < 1 or e < 0:
        raise ValueError(f"dim_forms requires n >= 1, e >= 0, got ({n}, {e})")
    return _comb(n + e - 1, n - 1, f"the dimension of degree-{e} forms in n={n} variables")


@dataclass(frozen=True)
class DegreeParams:
    """A pair (n, d): forms in n variables, sums of squares of degree 2d."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got (n={self.n}, d={self.d})")

    @property
    def N_d(self) -> int:
        return dim_forms(self.n, self.d)

    @property
    def N_2d(self) -> int:
        return dim_forms(self.n, 2 * self.d)


def _isqrt_ceil(r: int) -> int:
    q = math.isqrt(r)
    return q if q * q == r else q + 1


@dataclass(frozen=True)
class Surd:
    """The exact real number (add + sign*sqrt(radicand)) / den.

    den > 0, radicand >= 0, sign in {+1, -1}.  Floor and ceiling are exact
    (integer square roots); decimal output is for display only.
    """

    add: int
    sign: int
    radicand: int
    den: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if self.den <= 0:
            raise ValueError("denominator must be positive")

    @classmethod
    def sqrt_fraction(cls, value: Fraction) -> "Surd":
        """sqrt(p/q) represented exactly as sqrt(p*q)/q."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("cannot take the square root of a negative rational")
        return cls(0, 1, value.numerator * value.denominator, value.denominator)

    def __neg__(self) -> "Surd":
        return Surd(-self.add, -self.sign, self.radicand, self.den)

    def floor(self) -> int:
        # floor((a + x)/q) == floor((a + floor(x))/q) for integer a, q > 0
        if self.sign > 0:
            return (self.add + math.isqrt(self.radicand)) // self.den
        return (self.add - _isqrt_ceil(self.radicand)) // self.den

    def ceil(self) -> int:
        return -(-self).floor()

    def exact(self) -> Fraction | None:
        """The exact rational value, or None if the surd is irrational."""
        q = math.isqrt(self.radicand)
        if q * q != self.radicand:
            return None
        return Fraction(self.add + self.sign * q, self.den)

    def squared(self) -> Fraction:
        """Exact square; only defined for pure square roots (add == 0)."""
        if self.add != 0:
            raise ValueError("squared() is only defined for pure square roots")
        return Fraction(self.radicand, self.den * self.den)

    def approx(self, digits: int = 3) -> str:
        """Decimal approximation for display, computed via scaled integer sqrt."""
        scale = 10**digits
        scaled = Surd(self.add * scale, self.sign, self.radicand * scale * scale, self.den)
        t = scaled.floor()
        sign_str = "-" if t < 0 else ""
        t = abs(t)
        if digits == 0:
            return f"{sign_str}{t}"
        return f"{sign_str}{t // scale}.{t % scale:0{digits}d}"


def _quadratic_root(B: int, C: int, larger: bool, what: str) -> Surd:
    """The smaller or larger root (B -+ sqrt(B^2 - 4C)) / 2 of x^2 - B*x + C."""
    disc = B * B - 4 * C
    if disc < 0:
        raise InternalCheckError(f"negative discriminant {disc} for {what}")
    return Surd(B, 1 if larger else -1, disc, 2)


def lambda_lower(params: DegreeParams) -> tuple[Surd, int]:
    """Weak general lower bound for p(n,2d) and its integer ceiling.

    With e = N_{n,d} and a = N_{n,2d}, the value is
    (2e + 1 - sqrt((2e+1)^2 - 8a)) / 2, the smaller root of the
    independence count p*e - C(p,2) = a.
    """
    surd = _quadratic_root(
        2 * params.N_d + 1, 2 * params.N_2d, False, f"lambda({params.n},{2*params.d})"
    )
    return surd, surd.ceil()


def Lambda_upper(params: DegreeParams) -> tuple[Surd, int]:
    """General upper bound for p(n,2d) and its integer floor.

    With a = N_{n,2d}, the value is (-1 + sqrt(1 + 8a)) / 2, i.e. the
    solution of C(p+1, 2) = a.
    """
    surd = _quadratic_root(-1, -2 * params.N_2d, True, f"Lambda({params.n},{2*params.d})")
    return surd, surd.floor()


def leep_length_bound(n: int, d: int, m: int = 0) -> int:
    """Length bound for a sum of squares with a real zero of multiplicity 2m.

    Equals 1 + C(n+d-2, n-2) - C(n+m-3, n-2); the m = 0 case is the
    general bound L(n,2d), which for ternary forms reads d + 2.
    """
    if n < 2 or d < 1:
        raise ValueError(f"need n >= 2 and d >= 1, got (n={n}, d={d})")
    if not 0 <= m <= d:
        raise ValueError(f"multiplicity parameter m must satisfy 0 <= m <= d, got {m}")
    tail = binomial(n + m - 3, n - 2) if n + m - 3 >= 0 else 0
    return 1 + binomial(n + d - 2, n - 2) - tail


def s_min(params: DegreeParams) -> int:
    """Smallest point count s with C(N_d - s + 1, 2) <= N_{2d} - n*s.

    The inequality reads s^2 - B*s + C <= 0 with B = 2N_d - 2n + 1 and
    C = N_d(N_d + 1) - 2N_{2d}, so s is the ceiling of the smaller root,
    taken no lower than N_{n,d-1}: for n = 3 that is the smaller root
    itself, and for n >= 4 the root lies strictly above it (bracketing).
    """
    n, d = params.n, params.d
    if n < 3 or d < 2:
        raise ValueError(f"s_min requires n >= 3 and d >= 2, got (n={n}, d={d})")
    N_d = params.N_d
    B, C = 2 * N_d - 2 * n + 1, N_d * (N_d + 1) - 2 * params.N_2d
    s = max(dim_forms(n, d - 1), _quadratic_root(B, C, False, f"s_min({n},{2*d})").ceil())
    if s * s - B * s + C > 0:
        raise InternalCheckError(f"s={s} violates the point-count inequality at (n={n}, d={d})")
    if not s < N_d:
        raise InternalCheckError(f"s_min bracketing failed: s={s} >= N_d={N_d}")
    if n >= 4 and not dim_forms(n, d - 1) < s:
        # strict lower bracketing is a theorem for n >= 4 only
        raise InternalCheckError(f"s_min bracketing failed: s={s} <= N_(d-1) at n={n}")
    return s


def theta_lower(params: DegreeParams) -> int:
    """Lower bound N_d - s_min for the Pythagoras number p(n,2d)."""
    return params.N_d - s_min(params)


def asymptotic_constants(n: int) -> tuple[Surd, Surd]:
    """Exact growth constants (c_n, C_n) of p(n,2d) / d^((n-1)/2).

    c_n = sqrt((2^n - 2n)/(n-1)!) and C_n = sqrt(2^n/(n-1)!), returned as
    exact square roots of rationals.
    """
    if n < 3:
        raise ValueError(f"asymptotic constants are defined for n >= 3, got {n}")
    fact = math.factorial(n - 1)
    c_n = Surd.sqrt_fraction(Fraction(2**n - 2 * n, fact))
    C_n = Surd.sqrt_fraction(Fraction(2**n, fact))
    return c_n, C_n


class UpperSource(str, Enum):
    """Which of the two upper bounds (module-theoretic L or counting floor(Lambda)) won."""

    LEEP_L = "LeepL"
    LAMBDA_FLOOR = "LambdaFloor"


@dataclass(frozen=True)
class BoundsRow:
    """All closed-form quantities attached to one (n, d)."""

    params: DegreeParams
    N_d: int
    N_2d: int
    lam: Surd
    lam_ceil: int
    Lam: Surd
    Lam_floor: int
    leep_L: int
    s_min: int
    theta: int
    upper_best: int
    upper_source: UpperSource


def bounds_row(params: DegreeParams) -> BoundsRow:
    """Assemble the full row of bounds for one (n, d) with n >= 3, d >= 2."""
    lam, lam_ceil = lambda_lower(params)
    Lam, Lam_floor = Lambda_upper(params)
    leep = leep_length_bound(params.n, params.d, 0)
    s = s_min(params)
    theta = params.N_d - s
    if leep < Lam_floor:
        upper_best, source = leep, UpperSource.LEEP_L
    else:
        upper_best, source = Lam_floor, UpperSource.LAMBDA_FLOOR
    return BoundsRow(
        params=params,
        N_d=params.N_d,
        N_2d=params.N_2d,
        lam=lam,
        lam_ceil=lam_ceil,
        Lam=Lam,
        Lam_floor=Lam_floor,
        leep_L=leep,
        s_min=s,
        theta=theta,
        upper_best=upper_best,
        upper_source=source,
    )


def bounds_table(n_range, d_range) -> list[BoundsRow]:
    """Rows for every (n, d) in the given ranges (n >= 3, d >= 2 throughout)."""
    return [bounds_row(DegreeParams(n, d)) for n in n_range for d in d_range]


def scan_leep_vs_lambda(n_range, d_range) -> list[tuple[int, int, int, int]]:
    """All (n, d, L, floor(Lambda)) in the range with L strictly below floor(Lambda)."""
    hits = []
    for n in n_range:
        for d in d_range:
            L = leep_length_bound(n, d, 0)
            _, lam_floor = Lambda_upper(DegreeParams(n, d))
            if L < lam_floor:
                hits.append((n, d, L, lam_floor))
    return hits


def _cmp_linear_vs_sqrt_diff(delta: Fraction, A: Fraction, B: Fraction) -> int:
    """Exact sign of delta - 2*(sqrt(A) - sqrt(B)) for rationals A, B >= 0."""
    if delta < 0:
        if A >= B:
            return -1
        return -_cmp_linear_vs_sqrt_diff(-delta, B, A)
    if A <= B:
        return 0 if (delta == 0 and A == B) else 1
    # delta >= 0 and A > B: compare delta + 2*sqrt(B) against 2*sqrt(A);
    # both sides nonnegative, so squaring preserves the order.
    E = 4 * A - 4 * B - delta * delta
    if E < 0:
        return 1
    lhs = 16 * delta * delta * B
    rhs = E * E
    return (lhs > rhs) - (lhs < rhs)


def cmp_abs_sqrt_diff(a1, b1, a2, b2) -> int:
    """Exact sign of |sqrt(a1) - sqrt(b1)| - |sqrt(a2) - sqrt(b2)|.

    All four arguments are nonnegative rationals.  Used to compare
    convergence gaps of the asymptotic ratio without touching floats.
    """
    a1, b1, a2, b2 = (Fraction(x) for x in (a1, b1, a2, b2))
    if min(a1, b1, a2, b2) < 0:
        raise ValueError("cmp_abs_sqrt_diff requires nonnegative rationals")
    # |sqrt(a)-sqrt(b)|^2 = a + b - 2*sqrt(a*b); compare the two squares.
    return _cmp_linear_vs_sqrt_diff((a1 + b1) - (a2 + b2), a1 * b1, a2 * b2)
