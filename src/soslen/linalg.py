"""Dense exact linear algebra: rank/kernel over prime fields and the rationals.

The prime-field kernels are the performance core of the package.  Moduli
are limited to primes below 2^31.5, so products of two residues cannot
overflow int64 and every elimination runs as one vectorized numpy sweep.

Rational elimination is fraction-free (integer cross-multiplication with
per-row content extraction) and is used on the certificate path where
matrices stay small.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "P1",
    "P2",
    "DEFAULT_PRIMES",
    "is_probable_prime",
    "PrimeMatrix",
    "rank_mod_p",
    "rref_mod_p",
    "kernel_basis_mod_p",
    "RationalMatrix",
    "rank_rational",
    "kernel_basis_rational",
]

P1 = 2147483647  # 2^31 - 1
P2 = 2147483629  # largest prime below P1; keeps all products inside int64
DEFAULT_PRIMES = (P1, P2)

# Largest modulus whose squares fit in int64: isqrt(2^63 - 1).
_INT64_SAFE_PRIME = 3037000499

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin primality test, deterministic for m < 2^64."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _validate_modulus(p: int) -> None:
    """Reject anything but a prime in [2, 3037000499].

    The bound keeps every product of two residues inside int64; it is the
    only prime range the package supports.
    """
    if not 2 <= p <= _INT64_SAFE_PRIME:
        raise ValueError(
            f"prime modulus must satisfy 2 <= p <= {_INT64_SAFE_PRIME}, got {p}"
        )
    if not is_probable_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class PrimeMatrix:
    """Dense matrix over F_p, held as an int64 array of residues in [0, p)."""

    __slots__ = ("p", "shape", "arr")

    def __init__(self, rows, p: int, cols: int | None = None):
        _validate_modulus(p)
        self.p = p
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2:
                raise ValueError("expected a 2-d array")
            self.arr = rows.astype(np.int64) % p
        else:
            reduced = [[int(x) % p for x in row] for row in rows]
            ncols = len(reduced[0]) if reduced else cols
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            if any(len(row) != ncols for row in reduced):
                raise ValueError("ragged rows")
            self.arr = np.array(reduced, dtype=np.int64).reshape(len(reduced), ncols)
        self.shape = self.arr.shape


def _eliminate(A: np.ndarray, p: int, reduced: bool) -> list[int]:
    """In-place elimination over F_p; returns the pivot columns.

    The pivot is the first nonzero entry of the column at or below the
    current row.  With ``reduced`` every other row is cleared in the pivot
    column, leaving A in reduced row echelon form; without it only the rows
    below the pivot are, which is all the rank needs.
    """
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r, c:] = (A[r, c:] * inv) % p
        if reduced:
            f = A[:, c].copy()
            f[r] = 0
            rows = np.nonzero(f)[0]
            if rows.size:
                A[rows, c:] = (A[rows, c:] - f[rows, None] * A[r, c:][None, :]) % p
        else:
            f = A[r + 1 :, c]
            if f.size:
                A[r + 1 :, c:] = (A[r + 1 :, c:] - f[:, None] * A[r, c:][None, :]) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def rank_mod_p(M: PrimeMatrix) -> int:
    """Exact rank over F_p.  Deterministic: same entries give the same sweep."""
    return len(_eliminate(M.arr.copy(), M.p, reduced=False))


def rref_mod_p(M: PrimeMatrix):
    """Reduced row echelon form and pivot column list."""
    A = M.arr.copy()
    return A, _eliminate(A, M.p, reduced=True)


def kernel_basis_mod_p(M: PrimeMatrix) -> np.ndarray:
    """Basis of the right kernel over F_p: an int64 array of shape
    (cols - rank, cols), one row per basis vector."""
    n = M.shape[1]
    R, pivots = rref_mod_p(M)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[: len(pivots), free]).T % M.p
    return basis


class RationalMatrix:
    """Dense matrix of exact fractions (always in lowest terms)."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows, cols: int | None = None):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        ncols = len(self.rows[0]) if self.rows else cols
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        if any(len(row) != ncols for row in self.rows):
            raise ValueError("ragged rows")
        self.shape = (len(self.rows), ncols)


def _integer_rows(M: RationalMatrix) -> list[list[int]]:
    """Row-wise denominator clearing (does not change rank or kernel)."""
    out = []
    for row in M.rows:
        L = math.lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * L) for x in row])
    return out


def _divide_by_content(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = math.gcd(g, x)
        if g == 1:
            return row
    return row if g <= 1 else [x // g for x in row]


def _echelon_integer(rows: list[list[int]]):
    """Fraction-free row echelon form; returns (echelon rows, pivot columns)."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = _divide_by_content(
                    [pv * a - f * b for a, b in zip(rows[i], rows[r])]
                )
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def rank_rational(M: RationalMatrix) -> int:
    """Exact rank over the rationals."""
    if M.shape[0] == 0 or M.shape[1] == 0:
        return 0
    _, pivots = _echelon_integer(_integer_rows(M))
    return len(pivots)


def _normalize_kernel_vector(v: list[Fraction]) -> list[int]:
    """Clear denominators, divide by content, make the leading entry positive."""
    L = math.lcm(*(x.denominator for x in v))
    ints = [int(x * L) for x in v]
    ints = _divide_by_content(ints)
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def kernel_basis_rational(M: RationalMatrix) -> list[list[int]]:
    """Exact basis of the right kernel, normalized to integer content-1 vectors.

    Each returned vector v satisfies M @ v == 0 exactly; the count is
    cols - rank.  Vectors are canonical for a given input: integer entries
    with gcd 1 and positive leading (lowest-index nonzero) coefficient.
    """
    m, n = M.shape
    if m == 0 or n == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    ech, pivots = _echelon_integer(_integer_rows(M))
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            acc = Fraction(0)
            for c in range(pc + 1, n):
                if v[c]:
                    acc += ech[i][c] * v[c]
            v[pc] = -acc / ech[i][pc]
        basis.append(_normalize_kernel_vector(v))
    return basis
