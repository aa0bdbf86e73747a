"""Dense exact linear algebra: rank/kernel over prime fields and the rationals.

The prime-field kernels are the performance core of the package.  Moduli
are limited to primes below 2^31.5, so products of two residues cannot
overflow int64.  Rank, RREF and kernel share one blocked elimination: a
per-column int64 sweep finds the pivots of each 64-column panel, and the
rest of the matrix is updated by float64 matrix products (BLAS) on centred
16-bit limbs, whose every partial sum stays below 2^53 and so is exact.

The rational kernel is multimodular: the integer rows are reduced
modulo a fixed sequence of primes below 2^31, eliminated 16 primes at a
time in one batched Gauss-Jordan sweep, and the kernel vectors scaled by
the determinant of the pivot block, integers, are combined by CRT until an
exact check pins the canonical basis.  The rational rank, needed only as
a fallback, is fraction-free elimination (integer cross-multiplication
with per-row content extraction).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InternalCheckError
from .primes import DEFAULT_PRIMES, P1, P2, _validate_modulus, is_probable_prime

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


# Primes per elimination stack of the multimodular kernel; it bounds the
# (primes, rows, cols) int64 stack and so the kernel's memory.
_STACK = 16


@lru_cache(maxsize=None)
def _prime_block(k: int) -> tuple[int, ...]:
    """Block k of the kernel primes: a fixed sequence descending from
    2^31 - 1, ``_STACK`` at a time, so every run uses the same primes."""
    q = _prime_block(k - 1)[-1] - 2 if k else P1
    block = []
    while len(block) < _STACK:
        if is_probable_prime(q):
            block.append(q)
        q -= 2
    return tuple(block)


def _residue_stacks(rows: list[list[int]]):
    """Yield (primes, stack) for successive groups of ``_STACK`` kernel
    primes, the stack being the integer matrix reduced modulo each prime as
    a (primes, rows, cols) int64 array.

    Each |x| is split once into 16-bit limbs; a group is reduced as one
    integer matrix product against the powers 2^(16k) mod p, exact while
    there are fewer than 2^16 limbs (each term is below 2^16 * 2^31).
    """
    m, n = len(rows), len(rows[0])
    flat = [x for row in rows for x in row]
    width = 2 * max(1, -(-max(abs(x).bit_length() for x in flat) // 16))
    limbs = np.frombuffer(
        b"".join(abs(x).to_bytes(width, "little") for x in flat), dtype="<u2"
    ).reshape(len(flat), width // 2).astype(np.int64)
    neg = np.array([x < 0 for x in flat])
    for block in itertools.count():
        primes = _prime_block(block)
        P = np.array(primes, dtype=np.int64)
        radix = [[pow(65536, k, p) for p in primes] for k in range(width // 2)]
        res = limbs @ np.array(radix, dtype=np.int64) % P
        res[neg] = -res[neg] % P
        yield P, np.ascontiguousarray(res.T).reshape(len(primes), m, n)


def _rref_stack(A: np.ndarray, P: np.ndarray):
    """Gauss-Jordan elimination of a (primes, rows, cols) int64 stack, one
    column step for all primes at once.

    Returns (RREFs, primes, steps, dets).  ``steps`` lists the (column, row)
    of each pivot.  A prime whose pivot is not the smallest of the stack
    (no pivot in a column where another prime has one, or a later pivot
    row) is dropped: mod p the pivots can only come later than over the
    rationals, so the primes kept are those whose pivots are the
    lexicographically smallest.  They all pivot on the same rows, so those
    rows, in the order chosen, restricted to the pivot columns, form one
    integer matrix B; ``dets`` holds det B modulo each prime kept.
    """
    m, n = A.shape[1:]
    steps = []
    dets = np.ones(len(P), dtype=np.int64)
    T = np.empty_like(A)  # scratch for the update, allocated once
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = A[:, r:, c] != 0
        first = np.where(nz.any(axis=1), nz.argmax(axis=1), m)
        if first.min() == m:
            continue
        keep = first == first.min()
        if not keep.all():
            A, P, dets, T = A[keep], P[keep], dets[keep], T[keep]
        i = r + int(first.min())
        if i != r:
            A[:, [r, i]] = A[:, [i, r]]
        dets = dets * A[:, r, c] % P
        inv = np.array([pow(int(a), -1, int(p)) for a, p in zip(A[:, r, c], P)], dtype=np.int64)
        A[:, r, c:] = A[:, r, c:] * inv[:, None] % P[:, None]
        f = A[:, :, c].copy()
        f[:, r] = 0
        t = np.multiply(f[:, :, None], A[:, r, None, c:], out=T[:, :, c:])
        np.subtract(A[:, :, c:], t, out=t)
        np.remainder(t, P[:, None, None], out=A[:, :, c:])
        steps.append((c, i))
        r += 1
    return A, P, steps, dets


def _crt_extend(modulus: int, values: list[int], primes, X: np.ndarray):
    """Extend residues ``values`` mod ``modulus``, in place, by the rows of
    X (one row of residues per prime) with the Chinese remainder theorem.

    Returns the new modulus and whether every value kept its symmetric
    residue, the representative of least absolute value.
    """
    primes = [int(p) for p in primes]
    Q = math.prod(primes)
    coeffs = [Q // p * pow(Q // p, -1, p) for p in primes]
    inv = pow(modulus, -1, Q)
    same = True
    for i, col in enumerate(X.T):
        v = values[i]
        t = (sum(map(operator.mul, col.tolist(), coeffs)) - v % Q) * inv % Q
        same = same and t == (Q - 1 if 2 * v > modulus else 0)
        values[i] = v + modulus * t
    return modulus * Q, same


def _canonical(v: list[int]) -> list[int]:
    """Divide by the content and make the leading nonzero entry positive."""
    v = _divide_by_content(v)
    return [-x for x in v] if next(x for x in v if x) < 0 else v


def kernel_basis_rational(M: RationalMatrix) -> list[list[int]]:
    """Exact basis of the right kernel, normalized to integer content-1 vectors.

    Each returned vector v satisfies M @ v == 0 exactly; the count is
    cols - rank.  Vectors are canonical for a given input: one per
    non-pivot column fc of the rational echelon form, supported on fc and
    the pivot columns before it, with integer entries of gcd 1 and a
    positive leading (lowest-index nonzero) coefficient.

    Multimodular: the integer rows are eliminated modulo ``_STACK`` primes
    at a time (``_rref_stack``).  For the primes sharing the smallest
    pivots, with B their pivot block, the vector of free column fc scaled
    by det B is an integer vector: det B at fc and, at the pivot columns,
    minors of the pivot rows, so all at most H, Hadamard's bound of the
    rows.  Its residues are combined by CRT and read as symmetric residues
    once the modulus exceeds 2 H or they repeat from one stack to the next
    (no rational reconstruction is needed).  The loop stops when every
    vector w, built on its free column and the earlier pivot columns only,
    has w[fc] != 0 and M @ w == 0 exactly.  That pins the rational pivot
    columns: each mod-p free column is then dependent on the columns
    before it, and there are at least cols - rank of them.  So the basis
    is the canonical one whatever primes were used.
    """
    m, n = M.shape
    if m == 0 or n == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows = _integer_rows(M)
    hbits = sum(sum(x * x for x in row).bit_length() for row in rows) // 2 + 1
    # A prime is unlucky only if it divides one of the leading pivot minors,
    # whose product is at most H^min(m, n); the others multiply past 2 H
    # after hbits/30 primes more.  Needing more primes than this is a bug.
    limit = (min(m, n) + 1) * hbits // 30 + 3 * _STACK
    best = [(n + 1, 0)]  # above every list of pivots
    for used, (P, A) in enumerate(_residue_stacks(rows)):
        if used * _STACK > limit:
            raise InternalCheckError(f"multimodular kernel of a {m}x{n} matrix did not converge")
        R, P, steps, dets = _rref_stack(A, P)
        key = steps + [(n, 0)]
        if key > best:
            continue  # these primes are all unlucky
        pivots = [c for c, _ in steps]
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        if not free:
            return []  # full column rank mod p, so over the rationals too
        entries = [(i, fc) for fc in free for i, pc in enumerate(pivots) if pc < fc]
        if key < best:
            best, modulus, values = key, 1, [0] * (len(entries) + 1)
        ii = [i for i, _ in entries]
        cc = [fc for _, fc in entries]
        scaled = dets[:, None] * (-R[:, ii, cc] % P[:, None]) % P[:, None]
        fresh = modulus == 1
        modulus, same = _crt_extend(modulus, values, P, np.hstack([scaled, dets[:, None]]))
        if (fresh or not same) and modulus.bit_length() <= hbits + 1:
            continue
        *numerators, d = (v - modulus if 2 * v > modulus else v for v in values)
        basis = []
        it = iter(numerators)
        for fc in free:
            support = [pc for pc in pivots if pc < fc] + [fc]
            w = [0] * n
            for pc in support[:-1]:
                w[pc] = next(it)
            w[fc] = d
            if d == 0 or any(sum(row[c] * w[c] for c in support) for row in rows):
                break
            basis.append(_canonical(w))
        else:
            return basis
