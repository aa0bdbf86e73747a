"""Dense exact linear algebra: rank/kernel over prime fields and the rationals.

The prime-field kernels are the performance core of the package.  Moduli
are limited to primes below 2^31.5, so products of two residues cannot
overflow int64.  Rank, RREF and kernel share one blocked elimination: a
per-column int64 sweep finds the pivots of each 64-column panel, and the
rest of the matrix is updated by float64 matrix products (BLAS) on centred
16-bit limbs, whose every partial sum stays below 2^53 and so is exact.

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


# Panel width of the blocked elimination.  It is the inner dimension of every
# float64 product in _eliminate and enters the exactness argument there.
_PANEL = 64
# Rows per block of the trailing update, which bounds its float64 scratch.
_CHUNK = 256
_LIMB = 65536.0  # 2^16


def _sweep(A: np.ndarray, p: int, reduced: bool):
    """In-place per-column elimination of an int64 array over F_p.

    The pivot is the first nonzero entry of the column at or below the
    current row.  With ``reduced`` every other row is cleared in the pivot
    column, leaving A in reduced row echelon form; without it only the rows
    below the pivot are.  Returns the pivot columns and the row swaps made,
    as (current row, pivot row) pairs in order.
    """
    m, n = A.shape
    pivots = []
    swaps = []
    r = 0
    for c in range(n):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            A[[r, i]] = A[[i, r]]
            swaps.append((r, i))
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
    return pivots, swaps


def _centred(A: np.ndarray, p: int) -> np.ndarray:
    """Residues in [0, p) as a new float64 array of values in [-(p-1)/2, (p-1)/2]."""
    return np.where(A > (p - 1) // 2, A - p, A).astype(np.float64)


def _limbs(X: np.ndarray, p: int):
    """Split residues into centred 16-bit limbs: X = hi * 2^16 + lo (mod p),
    |hi| <= 2^14.5 + 1/2 and |lo| <= 2^15."""
    Xc = _centred(X, p)
    hi = np.round(Xc * (1 / _LIMB))
    return hi, Xc - hi * _LIMB


def _reduce(x: np.ndarray, p: int) -> None:
    """x mod p into [0, p), in place, for integral float64 entries |x| < 2^53.

    The quotient from the rounded reciprocal is off by at most one, so one
    correction by p in either direction finishes the job; every operand is
    an integer below 2^53, so each step is exact.
    """
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)


def _sub_mul(T: np.ndarray, F: np.ndarray, hi: np.ndarray, lo: np.ndarray, p: int) -> None:
    """T <- T - F . (hi * 2^16 + lo) mod p, in place; F centred, T in [0, p)."""
    t = F @ hi
    _reduce(t, p)
    t *= _LIMB
    t += F @ lo
    np.subtract(T, t, out=t)
    _reduce(t, p)
    T[...] = t


def _eliminate(W: np.ndarray, p: int, reduced: bool) -> list[int]:
    """In-place blocked elimination of a float64 array of residues over F_p;
    returns the pivot columns.

    The pivots are the greedy ones of a column-by-column sweep (the first
    column, left to right, that is independent of the earlier ones on the
    rows not yet used).  With ``reduced`` W ends in reduced row echelon
    form; without it only the pivot count is meaningful.

    Right-looking block elimination: for each panel of ``_PANEL`` columns
    the per-column sweep runs on an int64 copy of the panel's remaining
    rows and yields the panel's k pivots and row swaps.  The swaps are
    replayed on W, so the k pivot rows sit at r..r+k.  With B their k x k
    block at the pivot columns and R the rows themselves, X = B^-1 R is
    their reduced form, and every other row T (below; above too when
    ``reduced``) becomes T - F X, F being T at the pivot columns.

    Exactness: residues are integers below p <= 3037000499 < 2^53, so
    float64 holds them exactly.  In each product F X, F is centred to
    |f| <= (p-1)/2 < 2^30.5 and X is split into centred 16-bit limbs
    (``_limbs``), so each term has |f * limb| <= 2^45.5, and with an inner
    dimension k <= 64 every partial sum of the two GEMMs stays below
    64 * 2^45.5 = 2^51.5 < 2^53, whatever order BLAS adds in.  All sums
    after that are below 2^52 and ``_reduce`` is exact, so every rank is
    exact over F_p.
    """
    m, n = W.shape
    pivots = []
    r = 0
    for c0 in range(0, n, _PANEL):
        if r == m:
            break
        c1 = min(c0 + _PANEL, n)
        local, swaps = _sweep(W[r:, c0:c1].astype(np.int64), p, reduced=False)
        k = len(local)
        for a, b in swaps:
            W[[r + a, r + b], c0:] = W[[r + b, r + a], c0:]
        cols = [c0 + c for c in local]
        pivots += cols
        if k and (reduced or (c1 < n and r + k < m)):
            aug = np.hstack([W[r : r + k, cols].astype(np.int64), np.eye(k, dtype=np.int64)])
            _sweep(aug, p, reduced=True)  # leaves B^-1 in the right half
            X = np.zeros((k, n - c0))  # X = 0 - (-B^-1) R
            _sub_mul(X, -_centred(aug[:, k:], p), *_limbs(W[r : r + k, c0:], p), p)
            hi, lo = _limbs(X, p)
            others = [(r + k, m), (0, r)] if reduced else [(r + k, m)]
            for start, stop in others:
                for i in range(start, stop, _CHUNK):
                    j = min(i + _CHUNK, stop)
                    _sub_mul(W[i:j, c0:], _centred(W[i:j, cols], p), hi, lo, p)
            W[r : r + k, c0:] = X
        r += k
    return pivots


def rank_mod_p(M: PrimeMatrix) -> int:
    """Exact rank over F_p.  Deterministic: same entries give the same sweep."""
    return len(_eliminate(M.arr.astype(np.float64), M.p, reduced=False))


def rref_mod_p(M: PrimeMatrix):
    """Reduced row echelon form (int64) and pivot column list."""
    W = M.arr.astype(np.float64)
    pivots = _eliminate(W, M.p, reduced=True)
    return W.astype(np.int64), pivots


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
