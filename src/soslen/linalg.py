"""Dense exact linear algebra: rank/kernel over prime fields and the rationals.

The prime-field kernels are the performance core of the package.  Moduli
are limited to primes below 2^31.5, so products of two residues cannot
overflow int64, and every residue fits a uint32: a ``PrimeMatrix`` holds
one uint32 array, which producers fill with residues directly.  The rank
is a two-level blocked elimination of that array in place, so a rank
holds one copy of its matrix: a per-column int64 sweep finds the pivots
of each 32-column panel, mostly from its top rows, with the inverse of
their pivot block, and the rest of the matrix is updated by exact float64
matrix products (BLAS) on centred limbs (one below 2^23, two 16-bit ones
above), as in ``matmul_mod_p``: at once inside the panel's 128-column
block, and once per block right of it, a chunk of rows at a time.  The
rank leaves its matrix spent.  The sweep is one Gauss-Jordan step per
column; RREF and kernel run it on an int64 copy of the whole matrix.

The rational kernel is multimodular: the integer rows are reduced
modulo a fixed sequence of primes below 2^31, eliminated 16 primes at a
time in one batched Gauss-Jordan sweep, and the kernel vectors scaled by
the determinant of the pivot block, integers, are combined by CRT until an
exact check, made after every stack, pins the canonical basis.  The
witness's sum of squares reuses these primes, their reduction and CRT.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

import numpy as np

from .errors import InternalCheckError
from .primes import DEFAULT_PRIMES, P1, P2, _validate_modulus, is_probable_prime
from .ring import _cleared

__all__ = [
    "P1",
    "P2",
    "DEFAULT_PRIMES",
    "is_probable_prime",
    "PrimeMatrix",
    "rank_mod_p",
    "rref_mod_p",
    "kernel_basis_mod_p",
    "matmul_mod_p",
    "RationalMatrix",
    "rank_rational",
    "kernel_basis_rational",
]


class PrimeMatrix:
    """Dense matrix over F_p, held as one uint32 array ``arr`` of residues
    in [0, p): every supported modulus is below 2^32.

    ``rank_mod_p`` eliminates ``arr`` in place and deletes it, so the
    matrix is spent after its rank: any later use raises AttributeError,
    while ``shape`` and ``p`` stay readable.
    """

    __slots__ = ("p", "shape", "arr")

    def __init__(self, rows, p: int, cols: int | None = None):
        _validate_modulus(p)
        self.p = p
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2:
                raise ValueError("expected a 2-d array")
            # the ufunc reduces in buffered chunks, so no full-size temporary
            self.arr = np.empty(rows.shape, dtype=np.uint32)
            np.remainder(rows, p, out=self.arr, casting="unsafe")
        else:
            reduced = [[int(x) % p for x in row] for row in rows]
            ncols = len(reduced[0]) if reduced else cols
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            if any(len(row) != ncols for row in reduced):
                raise ValueError("ragged rows")
            self.arr = np.array(reduced, dtype=np.uint32).reshape(len(reduced), ncols)
        self.shape = self.arr.shape

    @classmethod
    def zeros(cls, shape: tuple[int, int], p: int) -> "PrimeMatrix":
        """The zero matrix, for a producer to write its residues into."""
        _validate_modulus(p)
        M = cls.__new__(cls)
        M.p, M.arr = p, np.zeros(shape, dtype=np.uint32)
        M.shape = M.arr.shape
        return M


# Panel width of the blocked elimination's per-column sweep.  The sweep
# grows with it and the BLAS update shrinks; 32 suits the many small
# matrices of the ik experiments.
_PANEL = 32
# Columns per block of _eliminate, whose update right of the block is one
# product per block.  It bounds the inner dimension of every float64 product
# (_eliminate, matmul_mod_p) and enters the exactness argument in _eliminate.
_OUTER = 128
# Rows per block of the trailing update and of matmul_mod_p, which bounds
# their float64 scratch.  64 and 256 rank a 1540 x 1330 or a 4677 x 4677
# matrix in the same time within noise; 64 peaks lowest.
_CHUNK = 64
_LIMB = 65536.0  # 2^16
_ONE_LIMB = 2**23  # primes below it need one limb (see _eliminate)


def _sweep(A: np.ndarray, p: int, carry: int = 0):
    """In-place Gauss-Jordan elimination of an int64 array of residues mod p,
    leaving A in reduced row echelon form.

    The pivot is the first nonzero entry of the column at or below the
    current row; every other row is cleared in the pivot column.  Returns
    the pivot columns and the row swaps made, as (current row, pivot row)
    pairs in order.  The last ``carry`` columns, zero on entry, are not
    swept: pivot row r gets a unit entry in carry column r after its swap,
    which the steps then update like any other, so with B the first k rows
    of A as swapped, at the k pivot columns, their carry block ends as B^-1.
    Entries are reduced every ``lag`` steps and at the end: k steps leave
    them in (-k (p-1)^2, p), inside int64 for k <= lag; a step reduces the
    pivot column and row that it reads.
    """
    m, n = A.shape
    n -= carry
    lag = (2**63 - p) // (p - 1) ** 2
    pivots = []
    swaps = []
    r = 0
    for c in range(n):
        np.remainder(A[:, c], p, out=A[:, c])
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            A[r], A[i] = A[i], A[r].copy()
            swaps.append((r, i))
        if carry:
            A[r, n + r] = 1
        A[r, c:] = A[r, c:] % p * pow(int(A[r, c]), -1, p) % p
        f = A[:, c].copy()
        f[r] = 0
        if r and r % lag == 0:  # r steps so far
            np.remainder(A[:, c:], p, out=A[:, c:])
        A[:, c:] -= f[:, None] * A[r, c:]
        pivots.append(c)
        r += 1
        if r == m:
            break
    np.remainder(A, p, out=A)
    return pivots, swaps


def _panel_sweep(P: np.ndarray, p: int):
    """Pivot columns, row swaps and B^-1 of ``_sweep`` with a carry block,
    on an int64 copy of the residues P."""
    A = np.hstack([P, np.zeros_like(P)]).astype(np.int64)
    pivots, swaps = _sweep(A, p, carry=P.shape[1])
    return pivots, swaps, A[: len(pivots), P.shape[1] :][:, : len(pivots)]


def _centred(A: np.ndarray, p) -> np.ndarray:
    """Residues in [0, p) as a new float64 array of values in [-(p-1)/2, (p-1)/2]."""
    A = A.astype(np.float64)  # first: uint32 residues less p would wrap
    return np.subtract(A, (A > (p - 1) // 2) * np.float64(p), out=A)


def _limbs(X: np.ndarray, p) -> list[np.ndarray]:
    """Centred float64 limbs of residues: below 2^23 the residues, |x| < 2^22;
    else X = hi * 2^16 + lo (mod p), |hi| <= 2^14.5 + 1/2 and |lo| <= 2^15."""
    Xc = _centred(X, p)
    if np.max(p) < _ONE_LIMB:
        return [Xc]
    hi = np.round(Xc * (1 / _LIMB))
    return [hi, Xc - hi * _LIMB]


def _reduce(x: np.ndarray, p) -> None:
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


def _limb_product(F: np.ndarray, limbs: list[np.ndarray], p) -> np.ndarray:
    """F . X modulo p, X given by its ``_limbs``, as a new float64 array of
    integers of magnitude below 2^53, for F centred and an inner dimension
    at most ``_OUTER`` (the exactness argument is in ``_eliminate``)."""
    t = F @ limbs[0]
    for limb in limbs[1:]:
        _reduce(t, p)
        t *= _LIMB
        t += F @ limb
    return t


def _sub_mul(T: np.ndarray, F: np.ndarray, limbs: list[np.ndarray], p) -> None:
    """T <- T - F . X mod p, in place, X given by its limbs; F centred, T in [0, p)."""
    t = _limb_product(F, limbs, p)
    np.subtract(T, t, out=t)
    _reduce(t, p)
    T[...] = t


def matmul_mod_p(A: np.ndarray, B: np.ndarray, p, out: np.ndarray | None = None):
    """A . B mod p, exactly, for arrays of residues in [0, p) (integer or
    integral float64) and any inner dimension: written over ``out``, an
    integer array, or else returned as a new int64 array.  Stacks of
    matrices multiply pairwise, each modulo its own prime: p is then an
    int64 array that broadcasts against them, as in the helpers above.

    Each ``_OUTER`` columns of A and rows of B add their product to the
    result, reduced each time (``_sub_mul`` of the negated A), so every
    float64 value stays below 2^53; A is taken ``_CHUNK`` rows at a time,
    which bounds the float64 scratch of a product with many rows.
    """
    if out is None:
        out = np.empty(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
    out[...] = 0
    for k in range(0, A.shape[-1], _OUTER):
        limbs = _limbs(B[..., k : k + _OUTER, :], p)
        for i in range(0, A.shape[-2], _CHUNK):
            F = _centred(A[..., i : i + _CHUNK, k : k + _OUTER], p)
            _sub_mul(out[..., i : i + _CHUNK, :], np.negative(F, out=F), limbs, p)
    return out


def _eliminate(W: np.ndarray, p: int) -> list[int]:
    """In-place blocked elimination of a uint32 array of residues over F_p;
    returns the pivot columns, whose count is the rank.

    The pivots are the greedy ones of a column-by-column sweep (the first
    column, left to right, that is independent of the earlier ones on the
    rows not yet used).

    Two-level right-looking elimination.  For each panel of ``_PANEL``
    columns the per-column sweep yields the panel's k pivots and row swaps.
    It runs on an int64 copy of the panel's top ``2 * _PANEL`` remaining
    rows first, and on all of them only if the top rows leave a panel
    column without a pivot: columns independent on some rows are
    independent on all rows, and the sweep treats each row alike, so the
    pivots and swaps are the same either way.  The swaps are replayed on W,
    so the k pivot rows sit at r..r+k.  With B their k x k block at the
    pivot columns and R the rows right of the panel, whose own columns are
    never read again, X = B^-1 R, and every row T below becomes T - F X
    there, F being T at the pivot columns.  The top-rows sweep carries
    B^-1, still right after a fallback that finds no more pivots (so the
    same steps); else the pivot rows alone, which need no swap, carry it.

    That update is applied at once only inside the panel's block of
    ``_OUTER`` columns.  Right of the block each panel records its centred F
    in L and the limbs of its X in Xs; a panel's pivot rows take the
    pending product L X before it forms its X, and the rows below the
    block's pivots take it when the block ends, ``_CHUNK`` rows at a time.
    Only those chunks, L and the X limbs are float64, so the scratch is
    bounded by ``_CHUNK`` and ``_OUTER`` times the width, not by W's size.

    Exactness: residues are integers below p <= 3037000499 < 2^53, so
    float64 holds them exactly.  In each product F X, F is centred to
    |f| <= (p-1)/2 < 2^30.5.  Below 2^23 X is one centred limb too, each
    term is below 2^44, and with an inner dimension at most ``_OUTER`` = 128
    every partial sum stays below 2^51, whatever order BLAS adds in.  Above
    it X is split into centred 16-bit limbs (|f * limb| <= 2^45.5), every
    partial sum of the two GEMMs stays below 2^52.5, and the reduced high
    part times 2^16 adds below 2^47.5 < 2^53 - 2^52.5.  So ``_reduce`` is
    exact, and every rank is exact over F_p.  X itself is ``matmul_mod_p``
    of B^-1 and R, whose inner dimension is k.
    """
    m, n = W.shape
    pivots = []
    L = np.empty((m, min(_OUTER, n)))
    r = 0
    for b0 in range(0, n, _OUTER):
        b1 = min(b0 + _OUTER, n)
        Xs = [np.empty((b1 - b0, n - b1)) for _ in range(1 + (p >= _ONE_LIMB))]
        K = 0  # filled columns of L and rows of the Xs
        for c0 in range(b0, b1, _PANEL):
            if r == m:
                return pivots
            c1 = min(c0 + _PANEL, b1)
            local, swaps, Binv = _panel_sweep(W[r : r + 2 * _PANEL, c0:c1], p)
            if len(local) < c1 - c0 and r + 2 * _PANEL < m:
                local, swaps = _sweep(W[r:, c0:c1].astype(np.int64), p)
            k = len(local)
            for a, b in swaps:
                for X in (W[r:, c0:], L[r:, :K]):
                    X[a], X[b] = X[b], X[a].copy()
            cols = [c0 + c for c in local]
            pivots += cols
            if k and c1 < n and r + k < m:
                if K and b1 < n:
                    _sub_mul(W[r : r + k, b1:], L[r : r + k, :K], [x[:K] for x in Xs], p)
                if len(Binv) < k:  # the fallback found pivots below the top rows
                    Binv = _panel_sweep(W[r : r + k, c0:c1], p)[2]
                limbs = _limbs(matmul_mod_p(Binv, W[r : r + k, c1:], p), p)  # of B^-1 R
                near = b1 - c1
                for x, limb in zip(Xs, limbs):
                    x[K : K + k] = limb[:, near:]
                L[r + k :, K : K + k] = _centred(W[r + k :, cols], p)
                near_limbs, step = [x[:, :near] for x in limbs], _CHUNK * n // max(near, 1)
                for i in range(r + k, m, step):  # as many cells a step as a far chunk
                    _sub_mul(W[i : i + step, c1:b1], L[i : i + step, K : K + k], near_limbs, p)
                K += k
            r += k
        if K and b1 < n:
            for i in range(r, m, _CHUNK):
                _sub_mul(W[i : i + _CHUNK, b1:], L[i : i + _CHUNK, :K], [x[:K] for x in Xs], p)
    return pivots


def rank_mod_p(M: PrimeMatrix) -> int:
    """Exact rank over F_p, eliminating M's array in place with no copy, so
    M is spent: its ``arr`` is deleted, and a later rank, RREF or kernel of
    M raises AttributeError.  Deterministic: same entries give the same
    sweep."""
    W = M.arr
    del M.arr  # first, so that no half-eliminated array is left readable
    return len(_eliminate(W, M.p))


def rref_mod_p(M: PrimeMatrix):
    """Reduced row echelon form (int64) and pivot column list by the
    per-column sweep on an int64 copy, faster than the blocked update
    below ~100 columns."""
    R = M.arr.astype(np.int64)
    return R, _sweep(R, M.p)[0]


def kernel_basis_mod_p(M: PrimeMatrix) -> np.ndarray:
    """Basis of the right kernel over F_p: an int64 array of shape
    (cols - rank, cols), one row per basis vector."""
    return _kernel_from_rref(*rref_mod_p(M), M.p)


def _kernel_from_rref(R: np.ndarray, pivots, p: int) -> np.ndarray:
    """``kernel_basis_mod_p`` from an RREF mod p and its pivot columns."""
    free = sorted(set(range(R.shape[1])) - set(pivots))
    basis = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[: len(pivots), free]).T % p
    return basis


class RationalMatrix:
    """Dense rational matrix of int or Fraction entries, stored as integer rows
    (``ring._cleared``: each row times the lcm of its denominators)."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows, cols: int | None = None):
        self.rows = tuple(map(tuple, _cleared(rows)[0]))
        ncols = len(self.rows[0]) if self.rows else cols
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        if any(len(row) != ncols for row in self.rows):
            raise ValueError("ragged rows")
        self.shape = (len(self.rows), ncols)


# Primes per elimination stack of the multimodular kernel; it bounds the
# (primes, rows, cols) int64 stack and so the kernel's memory.
_STACK = 16
# float64 cells of one product chunk of ``_residue_stacks``
_CELLS = 1 << 15


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

    Each |x| is split once into 16-bit limbs, kept as uint16; a group is
    reduced by float64 products of the limbs (negated for x < 0), ``_CELLS``
    at a time, with the 16-bit halves of the powers 2^(16k) mod p (built by
    doubling), exact below 2^21 limbs (each term is below 2^32).
    """
    m, n = len(rows), len(rows[0])
    flat = [x for row in rows for x in row]
    K = max(1, -(-max(abs(x).bit_length() for x in flat) // 16))
    limbs = np.frombuffer(
        b"".join(abs(x).to_bytes(2 * K, "little") for x in flat), dtype="<u2"
    ).reshape(len(flat), K)
    neg = np.array([x < 0 for x in flat])[:, None]
    chunk = max(1, _CELLS // max(K, _STACK))  # values per product
    for block in itertools.count():
        P = np.array(_prime_block(block), dtype=np.int64)
        radix, step = np.ones((1, len(P)), dtype=np.int64), 65536 % P
        while len(radix) < K:
            radix = np.vstack([radix, radix * step % P])
            step = step * step % P
        hi_radix, lo_radix = (half.T.astype(np.float64) for half in np.divmod(radix[:K], 65536))
        res = np.empty((len(P), len(flat)), dtype=np.int64)
        for j in range(0, len(flat), chunk):
            L = limbs[j : j + chunk].astype(np.float64)
            np.negative(L, out=L, where=neg[j : j + chunk])
            hi, lo = hi_radix @ L.T, lo_radix @ L.T
            hi %= P[:, None]
            hi *= 65536
            hi += np.remainder(lo, P[:, None], out=lo)
            res[:, j : j + chunk] = np.remainder(hi, P[:, None], out=hi)
        yield P, res.reshape(len(P), m, n)


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

    The stack is reduced every second step, and a step reduces the column
    and pivot row it reads: two updates stay above -2 (p-1)^2 > -2^63.
    """
    m, n = A.shape[1:]
    steps = []
    dets = np.ones(len(P), dtype=np.int64)
    T = np.empty_like(A)  # scratch for the update, allocated once
    r = 0
    for c in range(n):
        if r == m:
            break
        np.remainder(A[:, :, c], P[:, None], out=A[:, :, c])
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
        inv = np.array([pow(a, -1, p) for a, p in zip(A[:, r, c].tolist(), P.tolist())])
        A[:, r, c:] = A[:, r, c:] % P[:, None] * inv[:, None] % P[:, None]
        f = A[:, :, c].copy()
        f[:, r] = 0
        t = np.multiply(f[:, :, None], A[:, r, None, c:], out=T[:, :, c:])
        if r % 2:
            np.subtract(A[:, :, c:], t, out=t)
            np.remainder(t, P[:, None, None], out=A[:, :, c:])
        else:
            np.subtract(A[:, :, c:], t, out=A[:, :, c:])
        steps.append((c, i))
        r += 1
    np.remainder(A, P[:, None, None], out=A)
    return A, P, steps, dets


def _crt_extend(modulus: int, values: list[int], primes, X: np.ndarray):
    """Extend residues ``values`` mod ``modulus``, in place, by the rows of
    X (one row of residues per prime) with the Chinese remainder theorem,
    and return the new modulus."""
    primes = [int(p) for p in primes]
    Q = math.prod(primes)
    coeffs = [Q // p * pow(Q // p, -1, p) for p in primes]
    inv = pow(modulus, -1, Q)
    for i, (v, col) in enumerate(zip(values, X.T.tolist())):
        values[i] = v + modulus * ((sum(map(operator.mul, col, coeffs)) - v % Q) * inv % Q)
    return modulus * Q


def _symmetric(values: list[int], modulus: int) -> list[int]:
    """The representatives of least absolute value of residues mod ``modulus``."""
    return [v - modulus if 2 * v > modulus else v for v in values]


def _canonical(v: list[int]) -> list[int]:
    """Divide by the content and make the leading nonzero entry positive."""
    g = math.gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


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
    rows.  Its residues are combined by CRT and, after every stack, the
    first included, read as symmetric residues (no rational reconstruction
    is needed): they are the true integers once the modulus exceeds twice
    the largest of them, at the latest 2 H.  The loop stops when every
    vector w, built on its free column and the earlier pivot columns only,
    has w[fc] != 0 and M @ w == 0 exactly.  That test alone pins the
    rational pivot columns: each mod-p free column is then dependent on the
    columns before it, and there are at least cols - rank of them.  So the
    basis is the canonical one whatever primes were used and however few;
    a candidate read too early fails the test, and the next stack extends it.
    """
    m, n = M.shape
    if m == 0 or n == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows = M.rows
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
        modulus = _crt_extend(modulus, values, P, np.hstack([scaled, dets[:, None]]))
        *numerators, d = _symmetric(values, modulus)
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


def rank_rational(M: RationalMatrix) -> int:
    """Exact rank over the rationals: the column count less the size of the
    exact kernel basis."""
    return M.shape[1] - len(kernel_basis_rational(M))
