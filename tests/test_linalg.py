import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslen import linalg
from soslen.errors import InternalCheckError
from soslen.linalg import (
    DEFAULT_PRIMES,
    P1,
    P2,
    PrimeMatrix,
    RationalMatrix,
    is_probable_prime,
    kernel_basis_mod_p,
    kernel_basis_rational,
    rank_mod_p,
    rank_rational,
    rref_mod_p,
)


def det_expansion_mod_p(rows, p):
    """Determinant by permutation expansion: independent 5x5-scale oracle."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * rows[i][perm[i]]
        total += term
    return total % p


def det_fraction_free(rows):
    """Bareiss determinant over the integers (test-side oracle)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[-1][-1]


# largest prime whose residues multiply without overflowing int64
INT64_EDGE_PRIME = 3037000493
# the screening prime, the largest below 2^23, whose products take one limb,
# and the smallest prime above 2^23, whose products take two
Q = 8388593
ABOVE_ONE_LIMB = 8388617


class TestPrimeConstants:
    def test_default_primes_are_prime(self):
        assert is_probable_prime(P1) and is_probable_prime(P2)
        assert P1 == 2**31 - 1
        assert P1 != P2

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            PrimeMatrix([[1]], 2**62)
        with pytest.raises(ValueError):
            PrimeMatrix([[1]], 91)  # 7 * 13


class TestPrimeMatrix:
    def test_int64_input_is_reduced_in_one_allocation(self):
        rows = np.random.default_rng(3).integers(-(2**40), 2**40, (400, 300), dtype=np.int64)
        tracemalloc.start()
        try:
            M = PrimeMatrix(rows, P1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * rows.nbytes
        assert M.arr.dtype == np.uint32 and np.array_equal(M.arr, rows % P1)


class TestRankModP:
    def test_identity(self):
        assert rank_mod_p(PrimeMatrix(np.eye(5, dtype=np.int64), P1)) == 5

    def test_zero(self):
        assert rank_mod_p(PrimeMatrix([[0] * 7] * 3, P1)) == 0

    def test_duplicated_row(self):
        rng = random.Random(20)
        rows = [[rng.randrange(P1) for _ in range(20)] for _ in range(19)]
        rows.append(list(rows[7]))
        assert rank_mod_p(PrimeMatrix(rows, P1)) == 19

    @given(st.integers(0, 10**6), st.sampled_from((101, P1)))
    @settings(max_examples=60, deadline=None)
    def test_fullness_matches_determinant_oracle(self, seed, p):
        rng = random.Random(seed)
        rows = [[rng.randrange(p) for _ in range(5)] for _ in range(5)]
        full = rank_mod_p(PrimeMatrix(rows, p)) == 5
        assert full == (det_expansion_mod_p(rows, p) != 0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_rank_bounded_and_permutation_invariant(self, seed):
        rng = random.Random(seed)
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [[rng.randrange(7) for _ in range(n)] for _ in range(m)]
        r = rank_mod_p(PrimeMatrix(rows, P1))
        assert r <= min(m, n)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        cols = list(range(n))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in shuffled]
        assert rank_mod_p(PrimeMatrix(permuted, P1)) == r

    def test_prime_above_int64_bound_rejected(self):
        for p in (3037000507, 2**61 - 1):  # smallest and a far prime above the bound
            with pytest.raises(ValueError):
                PrimeMatrix([[1, 2], [3, 4]], p)
        M = PrimeMatrix([[1, 2, 3], [2, 4, 6], [7, 8, 10]], INT64_EDGE_PRIME)
        assert rank_mod_p(M) == 2

    def test_determinism(self):
        rng = random.Random(5)
        rows = [[rng.randrange(P1) for _ in range(12)] for _ in range(9)]
        a1, piv1 = rref_mod_p(PrimeMatrix(rows, P1))
        a2, piv2 = rref_mod_p(PrimeMatrix(rows, P1))
        assert piv1 == piv2
        assert np.array_equal(a1, a2)


class TestKernelModP:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_kernel_vectors_annihilate(self, seed):
        rng = random.Random(seed)
        m, n = rng.randrange(1, 7), rng.randrange(1, 9)
        rows = [[rng.randrange(P2) for _ in range(n)] for _ in range(m)]
        M = PrimeMatrix(rows, P2)
        kern = kernel_basis_mod_p(M)
        r = rank_mod_p(M)
        assert len(kern) == n - r
        for v in kern:
            vec = [int(x) for x in v]  # Python ints: no int64 overflow in the check
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) % P2 == 0

    def test_empty_matrix_kernel_is_everything(self):
        M = PrimeMatrix([], P1, cols=4)
        kern = kernel_basis_mod_p(M)
        assert len(kern) == 4


class TestRationalKernel:
    def test_identity_has_empty_kernel(self):
        assert kernel_basis_rational(RationalMatrix([[1, 0], [0, 1]])) == []

    def test_one_one(self):
        assert kernel_basis_rational(RationalMatrix([[1, 1]])) == [[1, -1]]

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_multiply_back_exact(self, seed):
        rng = random.Random(seed)
        m, n = rng.randrange(1, 9), rng.randrange(1, 13)
        rows = [
            [Fraction(rng.randrange(-50, 51), rng.randrange(1, 12)) for _ in range(n)]
            for _ in range(m)
        ]
        M = RationalMatrix(rows)
        kern = kernel_basis_rational(M)
        assert len(kern) == n - reference_rank_rational(M)
        for v in kern:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_normalization(self, seed):
        import math

        rng = random.Random(seed)
        rows = [[rng.randrange(-9, 10) for _ in range(6)] for _ in range(3)]
        for v in kernel_basis_rational(RationalMatrix(rows)):
            assert all(isinstance(x, int) for x in v)
            assert math.gcd(*v) == 1
            lead = next(x for x in v if x != 0)
            assert lead > 0


class TestRankViaPrimes:
    def test_rank_drop_is_one_sided(self):
        # [[p, 0], [0, 1]] has rational rank 2 but rank 1 mod p
        p = 101
        rows = [[p, 0], [0, 1]]
        assert rank_mod_p(PrimeMatrix(rows, p)) == 1
        assert rank_rational(RationalMatrix(rows)) == 2

    def test_random_nonsingular_full_at_two_primes(self):
        rng = random.Random(7)
        while True:
            rows = [[rng.randrange(-20, 21) for _ in range(10)] for _ in range(10)]
            if det_fraction_free(rows) != 0:
                break
        for p in DEFAULT_PRIMES:
            assert rank_mod_p(PrimeMatrix(rows, p)) == 10

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_mod_p_rank_never_exceeds_rational(self, seed):
        rng = random.Random(seed)
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        rq = rank_rational(RationalMatrix(rows))
        for p in (2, 3, 101):
            assert rank_mod_p(PrimeMatrix(rows, p)) <= rq


class TestRationalRankAgainstBareiss:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_square_fullness_matches_determinant(self, seed):
        rng = random.Random(seed)
        k = rng.randrange(1, 6)
        rows = [[rng.randrange(-8, 9) for _ in range(k)] for _ in range(k)]
        full = rank_rational(RationalMatrix(rows)) == k
        assert full == (det_fraction_free(rows) != 0)


@st.composite
def known_rank_instances(draw):
    """(rows, p, k) with rows = B.C mod p of rank exactly k.

    B = [L; random] and C = [U | random] with L unit lower-triangular and U
    unit upper-triangular (k x k), so B has full column rank and C full row
    rank.  Rows and columns are then shuffled so pivots are not in place.
    """
    p = draw(st.sampled_from((101, Q, ABOVE_ONE_LIMB, P1, INT64_EDGE_PRIME)))
    shape = draw(st.sampled_from(("tall", "wide", "zero", "equal_rows")))
    rng = draw(st.randoms(use_true_random=False))
    if shape == "tall":
        n = draw(st.integers(1, 8))
        m = draw(st.integers(n, 14))
    else:
        m = draw(st.integers(1, 8))
        n = draw(st.integers(m, 14)) if shape == "wide" else draw(st.integers(1, 14))
    k = {"zero": 0, "equal_rows": 1}.get(shape)
    if k is None:
        k = draw(st.integers(0, min(m, n)))
    if shape == "equal_rows":
        B = [[1] for _ in range(m)]
    else:
        B = [[rng.randrange(p) if i > j else int(i == j) for j in range(k)] for i in range(m)]
    C = [[rng.randrange(p) if j > i else int(i == j) for j in range(n)] for i in range(k)]
    rows = [[sum(B[i][t] * C[t][j] for t in range(k)) % p for j in range(n)] for i in range(m)]
    rng.shuffle(rows)
    cols = list(range(n))
    rng.shuffle(cols)
    return [[row[c] for c in cols] for row in rows], p, k


class TestKnownRank:
    """Reference properties of the elimination kernel on A = B.C of rank k."""

    @given(known_rank_instances())
    @settings(max_examples=250, deadline=None)
    def test_rank_pivots_and_kernel(self, instance):
        rows, p, k = instance
        M = PrimeMatrix(rows, p)
        _, pivots = rref_mod_p(M)
        assert len(pivots) == k
        kern = kernel_basis_mod_p(M)
        assert len(kern) == M.shape[1] - k
        for v in kern:
            vec = [int(x) for x in v]
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) % p == 0
        assert rank_mod_p(M) == k


def reference_eliminate(A, p, reduced):
    """The per-column int64 sweep the blocked kernel replaced, kept here as
    an independent oracle: in-place, returns the pivot columns."""
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


def reference_kernel(R, pivots, p):
    """Kernel basis read off an RREF: one vector per free column."""
    n = R.shape[1]
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[: len(pivots), free]).T % p
    return basis


def assert_matches_reference(A, p):
    """Rank, pivots, RREF bytes and kernel bytes equal the reference sweep's;
    returns the rank."""
    M = PrimeMatrix(A, p)
    R0 = M.arr.astype(np.int64)
    pivots0 = reference_eliminate(R0, p, reduced=True)
    assert linalg._eliminate(M.arr.copy(), p) == pivots0
    R, pivots = rref_mod_p(M)
    assert pivots == pivots0
    assert R.dtype == np.int64 and R.tobytes() == R0.tobytes()
    kern = kernel_basis_mod_p(M)
    assert kern.dtype == np.int64
    assert kern.tobytes() == reference_kernel(R0, pivots0, p).tobytes()
    rank = rank_mod_p(M)
    assert rank == len(pivots0)
    return rank


def _mod_product(B, C, p):
    """B . C mod p without int64 overflow, for residues and an inner
    dimension below 2^15: C is split into 16-bit halves, so every term is
    below 2^31.5 * 2^16 and every sum below 2^62.5."""
    return ((B @ (C >> 16) % p) * 65536 + B @ (C & 0xFFFF)) % p


PANEL_EDGE_COLUMNS = (31, 32, 33, 63, 64, 65, 96, 97, 127, 128, 129, 255, 256, 257)


@st.composite
def panel_instances(draw, primes=(101, Q, ABOVE_ONE_LIMB, P1, P2, INT64_EDGE_PRIME)):
    """(A, p, k): A = B.C mod p of rank exactly k with up to 300 columns.

    Built as in known_rank_instances, then one block of columns, as wide as
    a unit of 64, ``_PANEL`` or ``_OUTER`` columns, is inserted at a
    multiple of that unit: all zero ("zero_panel") or a copy of the first
    columns ("duplicated_block"), so that whole panels hold no pivot.  Zero rows on
    top, or every row twice, make the leading rows of a panel dependent, so
    its pivots need row swaps.
    """
    p = draw(st.sampled_from(primes))
    shape = draw(st.sampled_from(("tall", "wide", "zero", "equal_rows")))
    layout = draw(st.sampled_from(("plain", "zero_panel", "duplicated_block")))
    n = draw(st.one_of(st.sampled_from(PANEL_EDGE_COLUMNS), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = draw(st.sampled_from((64, linalg._PANEL, linalg._OUTER)))
    w = 0 if layout == "plain" else min(unit, n // 2)
    n0 = n - w
    if shape == "tall":
        m = draw(st.integers(n, n + 30))
    elif shape == "wide":
        m = n - draw(st.integers(0, n - 1))
    else:
        m = draw(st.integers(1, 230))
    k = {"zero": 0, "equal_rows": 1}.get(shape)
    if k is None:
        top = min(m, n0)
        k = draw(st.one_of(st.just(top), st.integers(max(0, top - 5), top), st.integers(0, top)))
    if shape == "equal_rows":
        B = np.ones((m, 1), dtype=np.int64)
    else:
        B = np.tril(rng.integers(0, p, (m, k), dtype=np.int64), -1)
        B[np.arange(k), np.arange(k)] = 1
        B = B[rng.permutation(m)]
    C0 = np.triu(rng.integers(0, p, (k, n0), dtype=np.int64), 1)
    C0[np.arange(k), np.arange(k)] = 1
    C0 = C0[:, rng.permutation(n0)]
    if layout == "zero_panel":
        at = unit * draw(st.integers(0, n0 // unit))
        block = np.zeros((k, w), dtype=np.int64)
    else:
        at = unit * draw(st.integers(1, n0 // unit)) if n0 >= unit else n0
        block = C0[:, :w]
    C = np.hstack([C0[:, :at], block, C0[:, at:]])
    A = _mod_product(B, C, p)
    rows = draw(st.sampled_from(("plain", "leading_zero_rows", "repeated_rows")))
    if rows == "leading_zero_rows":
        A = np.vstack([np.zeros((draw(st.integers(1, 70)), n), dtype=np.int64), A])
    elif rows == "repeated_rows":
        A = np.repeat(A, 2, axis=0)
    return A, p, k


def _assert_sub_mul_exact(inner, p=INT64_EDGE_PRIME):
    """``_sub_mul`` over ``inner`` columns, with F and X near (p-1)/2 (at the
    largest prime by default), equals the Python-integer T - F.X mod p."""
    h = (p - 1) // 2
    rng = np.random.default_rng(3)
    F = rng.integers(h - 1000, h + 1, (5, inner), dtype=np.int64)
    X = rng.integers(h - 1000, h + 1, (inner, 7), dtype=np.int64)
    X[:, :3] = p - X[:, :3]  # centred to -(p-1)/2 + ...: the other sign
    T = rng.integers(0, p, (5, 7), dtype=np.int64)
    out = T.astype(np.float64)
    linalg._sub_mul(out, F.astype(np.float64), linalg._limbs(X.astype(np.float64), p), p)
    expected = [
        [(int(T[i, j]) - sum(int(F[i, t]) * int(X[t, j]) for t in range(inner))) % p
         for j in range(7)]
        for i in range(5)
    ]
    assert out.astype(np.int64).tolist() == expected


class TestBlockedAgainstReference:
    """The blocked kernel against the per-column sweep, across panel edges."""

    @given(panel_instances())
    @settings(max_examples=300, deadline=None)
    def test_known_rank_matches_reference(self, instance):
        A, p, k = instance
        assert assert_matches_reference(A, p) == k

    def test_saturated_entries_at_largest_prime(self):
        # p - 1 and (p +- 1)/2 centre to -1 and -+(p - 1)/2, the largest
        # magnitudes the float64 products see; every third row block repeats
        # an earlier one so the matrix is rank-deficient across panels.
        p = INT64_EDGE_PRIME
        rng = np.random.default_rng(2)
        values = np.array([p - 1, (p - 1) // 2, (p + 1) // 2], dtype=np.int64)
        for m, n in ((150, 129), (140, 200), (64, 131), (300, 270)):
            A = values[rng.integers(0, 3, (m, n))]
            A[2 * m // 3 :] = A[: m - 2 * m // 3]
            rank = assert_matches_reference(A, p)
            assert rank <= 2 * m // 3
        A = np.full((130, 130), p - 1, dtype=np.int64)
        assert assert_matches_reference(A, p) == 1

    @pytest.mark.parametrize("p", (101, INT64_EDGE_PRIME))
    def test_rows_used_up_before_the_last_panel(self, p):
        # full row rank 40 < 200 columns: all 40 rows are pivot rows by
        # column 40, inside the second panel, and the loop stops with panels
        # left
        rng = np.random.default_rng(5)
        A = rng.integers(0, p, (40, 200), dtype=np.int64)
        A[:, 33] = A[:, 2]  # a dependent column inside the second panel
        assert assert_matches_reference(A, p) == 40

    @pytest.mark.parametrize("p", (101, INT64_EDGE_PRIME))
    def test_partial_last_panel(self, p):
        # 45 = 32 + 13 columns: the last panel is partial and the trailing
        # update from the first panel covers exactly its 13 columns
        rng = np.random.default_rng(6)
        A = _mod_product(rng.integers(0, p, (200, 41), dtype=np.int64),
                         rng.integers(0, p, (41, 45), dtype=np.int64), p)
        A[::3] = 0  # zero rows among the pivot candidates force row swaps
        assert assert_matches_reference(A, p) == 41

    @pytest.mark.parametrize("p", (101, INT64_EDGE_PRIME))
    def test_row_swaps_inside_a_block(self, p):
        # Zero rows among the pivot candidates force row swaps in every
        # panel, also after the first of a block, where the rows swapped
        # carry recorded but not yet applied updates of the columns right of
        # the block.
        rng = np.random.default_rng(8)
        A = _mod_product(rng.integers(0, p, (420, 290), dtype=np.int64),
                         rng.integers(0, p, (290, 300), dtype=np.int64), p)
        A[::3] = 0
        assert assert_matches_reference(A, p) == 280

    @pytest.mark.parametrize("p", (101, INT64_EDGE_PRIME))
    def test_panel_pivots_missing_from_the_top_rows(self, p):
        # The top 2 * _PANEL rows repeat the first 16 rows and are zero in
        # column 5, so they hold too few pivots: the first panel's sweep must
        # fall back to all rows, column 5's pivot among them.
        rng = np.random.default_rng(7)
        A = rng.integers(0, p, (200, 150), dtype=np.int64)
        top = 2 * linalg._PANEL
        A[:top] = np.tile(A[:16], (top // 16, 1))
        A[:top, 5] = 0
        assert assert_matches_reference(A, p) == 150

    def test_limb_product_exact_at_panel_width(self):
        # The float64 update T - F.X over an inner dimension of one full
        # panel, with F and X near the largest centred magnitude (p-1)/2 and
        # one sign, so the partial sums reach the bound of the exactness
        # argument; checked against Python integers.
        _assert_sub_mul_exact(linalg._PANEL)

    def test_limb_product_exact_at_block_width(self):
        # The same at the inner dimension of the far update, one full block:
        # the widest product the exactness argument allows.
        _assert_sub_mul_exact(linalg._OUTER)

    @pytest.mark.parametrize("inner", (1, 31, 32, 33, 84, 127, 128, 129, 252, 300))
    def test_matmul_mod_p_exact_for_any_inner_dimension(self, inner):
        # Entries near (p-1)/2 and one sign per row or column, so that an
        # unchunked product over more than 32 inner columns would pass 2^53.
        p = INT64_EDGE_PRIME
        h = (p - 1) // 2
        rng = np.random.default_rng(inner)
        A = rng.integers(h - 1000, h + 1, (5, inner), dtype=np.int64)
        B = rng.integers(h - 1000, h + 1, (inner, 7), dtype=np.int64)
        A[3:] = p - A[3:]
        B[:, :3] = p - B[:, :3]
        expected = [
            [sum(int(A[i, t]) * int(B[t, j]) for t in range(inner)) % p for j in range(7)]
            for i in range(5)
        ]
        for left, right in ((A, B), (A.astype(np.float64), B.astype(np.float64))):
            out = linalg.matmul_mod_p(left, right, p)
            assert out.dtype == np.int64 and out.tolist() == expected

    @pytest.mark.parametrize("p, limbs", ((Q, 1), (ABOVE_ONE_LIMB, 2)))
    def test_one_limb_below_2_23_and_two_above(self, p, limbs):
        # F and X near (p-1)/2 with one sign: below 2^23 the one product of
        # an inner dimension of _OUTER is the widest the bound 2^51 allows
        assert len(linalg._limbs(np.array([[1, p - 1]], dtype=np.uint32), p)) == limbs
        _assert_sub_mul_exact(linalg._OUTER, p)
        h = (p - 1) // 2
        rng = np.random.default_rng(p)
        for inner in (1, 127, 128, 129, 300):
            A = rng.integers(h - 1000, h + 1, (70, inner), dtype=np.int64)
            B = rng.integers(h - 1000, h + 1, (inner, 9), dtype=np.int64)
            A[40:] = p - A[40:]
            B[:, :4] = p - B[:, :4]
            expected = [[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in B.T]
                        for row in A]
            assert linalg.matmul_mod_p(A.astype(np.uint32), B, p).tolist() == expected

    def test_matmul_mod_p_empty_inner_dimension(self):
        out = linalg.matmul_mod_p(np.zeros((3, 0), dtype=np.int64),
                                  np.zeros((0, 4), dtype=np.int64), 101)
        assert out.dtype == np.int64 and out.tolist() == [[0] * 4] * 3


class TestUint32Storage:
    """A PrimeMatrix holds one uint32 array that rank_mod_p eliminates in place."""

    @given(panel_instances(primes=(2, 101, P1, P2, INT64_EDGE_PRIME)))
    @settings(max_examples=100, deadline=None)
    def test_rank_equals_reference(self, instance):
        A, p, k = instance
        M = PrimeMatrix(A, p)
        assert M.arr.dtype == np.uint32
        assert rank_mod_p(M) == len(reference_eliminate(A % p, p, reduced=False)) == k

    @pytest.mark.parametrize("p", (2, 101, P1, P2, INT64_EDGE_PRIME))
    def test_centred_uint32_equals_int64(self, p):
        h = (p - 1) // 2
        values = np.array([[0, 1, h, h + 1, p - 1, 2147483640 % p]], dtype=np.int64)
        expected = [[x - p if x > h else x for x in values[0].tolist()]]
        for A in (values, values.astype(np.uint32)):
            assert linalg._centred(A, p).tolist() == expected
        # centred only after the conversion: in uint32 the residue wraps to 4294967289
        assert linalg._centred(np.array([[2147483640]], dtype=np.uint32), P1).tolist() == [[-7]]

    @pytest.mark.parametrize("use", (rank_mod_p, rref_mod_p, kernel_basis_mod_p))
    def test_a_spent_matrix_raises(self, use):
        # 40 columns: above one panel, where the elimination updates rows and
        # not only permutes them, so a reused array would be wrong
        M = PrimeMatrix(np.random.default_rng(4).integers(0, P1, (50, 40)), P1)
        assert rank_mod_p(M) == 40
        assert (M.shape, M.p) == ((50, 40), P1)  # still readable, as the benchmark reads them
        with pytest.raises(AttributeError):
            use(M)


def _assert_inverts_pivot_block(P, p, pivots, swaps, Binv):
    """Binv . B == I mod p in Python integers, B being the first
    len(pivots) rows of P, as swapped, at the pivot columns."""
    rows = [[int(x) for x in row] for row in P]
    for a, b in swaps:
        rows[a], rows[b] = rows[b], rows[a]
    k = len(pivots)
    B = [[rows[i][c] for c in pivots] for i in range(k)]
    inv = [[int(x) for x in row] for row in Binv]
    assert len(inv) == k and all(len(row) == k for row in inv)
    product = [[sum(inv[i][t] * B[t][j] for t in range(k)) % p for j in range(k)]
               for i in range(k)]
    assert product == [[int(i == j) for j in range(k)] for i in range(k)]


def _panels(p):
    """Panels of ``_PANEL`` columns or fewer, as float64 residues: full
    rank; zero rows on every other row and rows reversed, so that most
    pivots need a swap; rank-deficient by repeated and zero columns; fewer
    rows than columns."""
    rng = np.random.default_rng(p % 1000)
    w = linalg._PANEL
    full = rng.integers(0, p, (2 * w, w))
    swapped = full.copy()
    swapped[::2] = 0
    swapped = swapped[::-1]
    staircase = np.triu(rng.integers(1, p, (2 * w, w)))[::-1]  # zero rows on top: every pivot swaps
    deficient = full.copy()
    deficient[:, 3] = deficient[:, 0]
    deficient[:, 7] = 0
    deficient[:, 20:] = deficient[:, 8:20] * 5 % p
    short = _mod_product(rng.integers(0, p, (20, 9)), rng.integers(0, p, (9, w)), p)
    narrow = rng.integers(0, p, (40, 13))
    narrow[:30] = 0
    for A in (full, swapped, staircase, deficient, short, narrow):
        yield A.astype(np.float64)


def reference_sweep(A, p, carry=0):
    """``_sweep`` as it was before its update was reduced lazily: the same
    steps, with every entry reduced mod p after each one."""
    m, n = A.shape
    n -= carry
    pivots, swaps = [], []
    r = 0
    for c in range(n):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            A[[r, i]] = A[[i, r]]
            swaps.append((r, i))
        if carry:
            A[r, n + r] = 1
        inv = pow(int(A[r, c]), -1, p)
        A[r, c:] = (A[r, c:] * inv) % p
        f = A[:, c].copy()
        f[r] = 0
        A[:, c:] = (A[:, c:] - f[:, None] * A[r, c:]) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, swaps


class TestLazySweep:
    """The per-column sweep reduces its update only as often as int64 needs
    (every step at INT64_EDGE_PRIME, every second at P1, once at Q); its
    RREF, pivots, swaps and carried inverse equal those of a sweep that
    reduces at every step."""

    @pytest.mark.parametrize("p", (7, 101, Q, P1, INT64_EDGE_PRIME))
    def test_equals_the_sweep_reduced_at_every_step(self, p):
        rng = np.random.default_rng(p % 997)
        h = (p - 1) // 2
        saturated = np.array([p - 1, h, h + 1], dtype=np.int64)[rng.integers(0, 3, (90, 70))]
        saturated[60:] = saturated[:30]  # rank-deficient: its last rows clear to zero
        tall = _mod_product(rng.integers(0, p, (200, 30)), rng.integers(0, p, (30, 45)), p)
        tall[::4] = 0
        cases = [P.astype(np.int64) for P in _panels(p)] + [saturated, tall]
        for A in cases:
            for carry in (0, A.shape[1]):
                got = np.hstack([A, np.zeros((A.shape[0], carry), dtype=np.int64)])
                want = got.copy()
                assert linalg._sweep(got, p, carry) == reference_sweep(want, p, carry)
                assert got.tobytes() == want.tobytes()
        assert linalg._sweep(saturated.copy(), p)[0] != []


class TestCarriedInverse:
    """The pivot block inverse that the panel sweep carries in extra columns."""

    @pytest.mark.parametrize("p", (7, 101, P1, P2))
    def test_panel_sweep_inverts_the_pivot_block(self, p):
        for P in _panels(p):
            pivots, swaps, Binv = linalg._panel_sweep(P, p)
            _assert_inverts_pivot_block(P, p, pivots, swaps, Binv)
            # the carry block changes neither the pivots, the swaps nor the RREF
            A = P.astype(np.int64)
            assert linalg._sweep(A, p) == (pivots, swaps)
            carried = np.hstack([P, np.zeros_like(P)]).astype(np.int64)
            linalg._sweep(carried, p, carry=P.shape[1])
            assert np.array_equal(carried[:, : P.shape[1]], A)

    def test_swaps_and_deficiency_are_exercised(self):
        found = [linalg._panel_sweep(P, 101) for P in _panels(101)]
        assert min(len(swaps) for _, swaps, _ in found[1:3]) >= 16
        assert len(found[3][0]) < linalg._PANEL and len(found[4][0]) == 9

    @pytest.mark.parametrize("p", (7, 101, P1, P2))
    def test_every_inverse_the_blocked_kernel_uses(self, p, monkeypatch):
        # the top-rows sweeps, and the fallback: the first panel's top rows
        # miss column 5's pivot, so its pivot rows are swept again, alone and
        # with no swap
        calls = []
        sweep = linalg._panel_sweep

        def checked(P, q):
            out = sweep(P, q)
            calls.append((P.copy(), out))
            return out

        monkeypatch.setattr(linalg, "_panel_sweep", checked)
        rng = np.random.default_rng(7)
        A = rng.integers(0, p, (200, 150), dtype=np.int64)
        top = 2 * linalg._PANEL
        A[:top] = np.tile(A[:16], (top // 16, 1))
        A[:top, 5] = 0
        swaps = _mod_product(rng.integers(0, p, (150, 100)), rng.integers(0, p, (100, 140)), p)
        swaps[::3] = 0
        for M in (A, swaps):
            expected = reference_eliminate(M.copy(), p, reduced=True)
            assert linalg._eliminate(M.astype(np.float64), p) == expected
        for P, (pivots, swap_list, Binv) in calls:
            _assert_inverts_pivot_block(P, p, pivots, swap_list, Binv)
        assert calls[1][0].shape[0] == len(calls[1][1][0]) > len(calls[0][1][0])
        assert calls[1][1][1] == []

    def test_one_sweep_per_panel_when_the_top_rows_hold_its_pivots(self, monkeypatch):
        counted = []
        sweep = linalg._sweep
        monkeypatch.setattr(linalg, "_sweep", lambda A, p, carry=0: counted.append(A.shape)
                            or sweep(A, p, carry))
        rng = np.random.default_rng(9)
        assert rank_mod_p(PrimeMatrix(rng.integers(0, P1, (200, 150)), P1)) == 150
        assert len(counted) == 5  # ceil(150 / _PANEL) panels, one sweep each
        counted.clear()
        A = rng.integers(0, P1, (200, 150), dtype=np.int64)
        A[:64, 5] = 0  # the first panel, and only it, falls back
        assert rank_mod_p(PrimeMatrix(A, P1)) == 150
        assert [shape[0] for shape in counted[:3]] == [64, 200, 32]
        assert len(counted) == 7


def _reference_divide_by_content(row):
    g = 0
    for x in row:
        g = math.gcd(g, x)
    return row if g <= 1 else [x // g for x in row]


def reference_echelon_rational(M):
    """Fraction-free row echelon form of a RationalMatrix, the
    elimination the multimodular kernel and rank replaced: integer
    cross-multiplication with per-row content division.  Returns the
    echelon rows and the pivot columns."""
    m, n = M.shape
    rows = []
    for row in M.rows:
        L = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * L) for x in row])
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
                rows[i] = _reference_divide_by_content(
                    [pv * a - f * b for a, b in zip(rows[i], rows[r])]
                )
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def reference_rank_rational(M):
    """Exact rank by fraction-free elimination, independent of linalg."""
    return len(reference_echelon_rational(M)[1])


def reference_kernel_basis_rational(M):
    """The fraction-free kernel the multimodular one replaced, kept here as
    an independent oracle: the echelon form above, back-substitution in
    exact fractions, then each vector cleared of denominators, divided by
    its content and made to lead with a positive entry."""
    m, n = M.shape
    if m == 0 or n == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    ech, pivots = reference_echelon_rational(M)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            acc = sum((ech[i][c] * v[c] for c in range(pc + 1, n) if v[c]), Fraction(0))
            v[pc] = -acc / ech[i][pc]
        L = math.lcm(*(x.denominator for x in v))
        ints = _reference_divide_by_content([int(x * L) for x in v])
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        basis.append(ints)
    return basis


@st.composite
def rational_kernel_instances(draw):
    """RationalMatrix B.C of rank at most k, with B and C of up to 60-bit
    entries (so up to about 120-bit products), optionally zeroed rows and
    columns, columns shuffled so the pivots are not leading, rows divided
    by random denominators, and empty shapes."""
    rng = draw(st.randoms(use_true_random=False))
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 9))
    k = draw(st.integers(0, min(m, n)))
    bits = draw(st.sampled_from((2, 31, 60)))
    B = [[rng.randint(-(2**bits), 2**bits) for _ in range(k)] for _ in range(m)]
    C = [[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(k)]
    rows = [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
    if n and draw(st.booleans()):
        for c in rng.sample(range(n), rng.randint(1, n)):
            for row in rows:
                row[c] = 0
    if m and draw(st.booleans()):
        rows[rng.randrange(m)] = [0] * n
    cols = list(range(n))
    rng.shuffle(cols)
    rows = [[row[c] for c in cols] for row in rows]
    if draw(st.booleans()):
        rows = [[Fraction(x, rng.randint(1, 2**bits)) for x in row] for row in rows]
    return RationalMatrix(rows, cols=n)


class TestRationalRank:
    """The rational rank is the column count less the multimodular kernel's size."""

    @given(rational_kernel_instances())
    @settings(max_examples=100, deadline=None)
    def test_equals_reference(self, M):
        assert rank_rational(M) == M.shape[1] - len(reference_kernel_basis_rational(M))

    def test_both_default_primes_unlucky(self):
        # rank 1 modulo P1 and P2, which the kernel's first prime block holds
        rows = [[P1 * P2, 0], [0, 1]]
        assert {P1, P2} <= set(linalg._prime_block(0))
        assert [rank_mod_p(PrimeMatrix(rows, p)) for p in (P1, P2)] == [1, 1]
        assert rank_rational(RationalMatrix(rows)) == 2

    def test_empty_shapes(self):
        assert rank_rational(RationalMatrix([], cols=3)) == 0
        assert rank_rational(RationalMatrix([[], []])) == 0


def _count_rref_stacks(monkeypatch):
    """Record each stack that the multimodular kernel eliminates."""
    calls = []
    real = linalg._rref_stack
    monkeypatch.setattr(linalg, "_rref_stack", lambda A, P: calls.append(1) or real(A, P))
    return calls


class TestResidueStacks:
    """``_residue_stacks`` against Python's ``x % p``."""

    @pytest.mark.parametrize("large", [False, True])
    def test_matches_python_remainder(self, large):
        rng = random.Random(11)
        values = [0, 1, -1] + [
            sign * (2 ** (16 * k) + e) for k in range(1, 6) for e in (-1, 1) for sign in (1, -1)
        ]
        if large:  # 313 limbs: the radix table doubles nine times
            values += [rng.choice([1, -1]) * rng.getrandbits(5000) for _ in range(7)]
        else:
            values = [x for x in values if abs(x) < 2**16]  # one limb
        values += [0] * (-len(values) % 3)
        rows = [values[i : i + 3] for i in range(0, len(values), 3)]
        for block, (P, S) in zip(range(3), linalg._residue_stacks(rows)):
            assert P.tolist() == list(linalg._prime_block(block))
            assert S.shape == (len(P), len(rows), 3)
            assert S.tolist() == [[[x % p for x in row] for row in rows] for p in P.tolist()]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_chunks_match_python_remainder(self, data):
        """Counts on and across the chunk boundary, one limb or 300 and more."""
        K = data.draw(st.sampled_from([1, 300, 313]), label="limbs")
        chunk = linalg._CELLS // max(K, linalg._STACK)
        count = data.draw(st.integers(1, 2).map(lambda q: q * chunk)
                          .flatmap(lambda c: st.integers(c - 1, c + 1)), label="values")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        values = [rng.choice([0, 1, -1]) * rng.getrandbits(rng.randint(1, 16 * K))
                  for _ in range(count)]
        values[rng.randrange(count)] = rng.choice([1, -1]) * (2 ** (16 * K) - 1)  # K limbs
        rows = [values] if data.draw(st.booleans(), label="one row") else [[x] for x in values]
        for block, (P, S) in zip(range(2), linalg._residue_stacks(rows)):
            assert P.tolist() == list(linalg._prime_block(block))
            assert S.tolist() == [[[x % p for x in row] for row in rows] for p in P.tolist()]

    @pytest.mark.parametrize("count, bits", [(40_000, 16), (2_000, 5000)])
    def test_scratch_does_not_grow_with_the_matrix(self, count, bits):
        """The float64 scratch has a fixed size: past the packed limbs (twice,
        while their bytes are joined) and the stack itself, a block allocates
        less than 1 MB, where converting every limb at once took 6-16 MB."""
        rng = random.Random(count)
        rows = [[rng.choice([1, -1]) * rng.getrandbits(bits)] for _ in range(count)]
        limb_bytes = 2 * count * -(-bits // 16)
        tracemalloc.start()
        try:
            P, S = next(linalg._residue_stacks(rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S.tolist() == [[[x % p for x in row] for row in rows] for p in P.tolist()]
        assert peak <= 2 * limb_bytes + S.nbytes + 20 * count + (1 << 20)

    def test_limbs_are_packed_once(self):
        """Each value's limbs are written into one preallocated buffer: on
        2,000 values of 5,000 bits (1.25 MB of limbs) the first block peaks
        below 2.0 MB, where joining one bytes object per value read 2.76 MB."""
        rng = random.Random(35)
        values = [rng.choice([1, -1]) * (rng.getrandbits(4999) | 1 << 4999) for _ in range(2000)]
        tracemalloc.start()
        try:
            P, S = next(linalg._residue_stacks([values]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S[:, 0].tolist() == [[x % p for x in values] for p in P.tolist()]
        assert peak < 2_000_000


class TestMultimodularKernel:
    """The multimodular kernel returns the fraction-free oracle's basis."""

    @given(rational_kernel_instances())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, M):
        assert kernel_basis_rational(M) == reference_kernel_basis_rational(M)

    def test_unlucky_first_prime_is_dropped(self):
        # mod P1 the second row is [1, 1, 1]: the pivots move from [0, 1] to [0, 2]
        rows = [[1, 1, 0], [1, 1 + P1, 1]]
        assert rref_mod_p(PrimeMatrix(rows, P1))[1] == [0, 2]
        M = RationalMatrix(rows)
        assert kernel_basis_rational(M) == reference_kernel_basis_rational(M) == [[1, -1, P1]]

    def test_unlucky_pivot_row_is_dropped(self):
        # mod P1 the first row starts with 0, so the first pivot moves to the
        # second row while the pivot columns stay [0, 1]
        rows = [[P1, 1, 2], [1, 0, 3]]
        stack = np.array([[[x % p for x in row] for row in rows] for p in (P1, P2)])
        _, kept, steps, dets = linalg._rref_stack(stack, np.array([P1, P2], dtype=np.int64))
        assert kept.tolist() == [P2] and steps == [(0, 0), (1, 1)]
        assert dets.tolist() == [(P1 * 0 - 1 * 1) % P2]  # det of the pivot block
        M = RationalMatrix(rows)
        assert kernel_basis_rational(M) == reference_kernel_basis_rational(M)

    def test_every_prime_of_two_stacks_unlucky(self):
        # column 0 vanishes modulo each prime of the first two stacks: their
        # candidate for the pivot list [1] repeats, is tried and refuted by
        # the exact check, and the third stack's smaller list [0] replaces it
        Q = math.prod(linalg._prime_block(0) + linalg._prime_block(1))
        M = RationalMatrix([[Q, 1], [2 * Q, 2]])
        assert kernel_basis_rational(M) == reference_kernel_basis_rational(M) == [[1, -Q]]

    def test_canonical_vectors_need_the_content_division(self):
        M = RationalMatrix([[2, 4, 6, 8]])
        assert kernel_basis_rational(M) == [[2, -1, 0, 0], [3, 0, -1, 0], [4, 0, 0, -1]]
        # the common denominator 6 leaves contents 3 and 2 to divide out
        M = RationalMatrix([[6, 3, 2]])
        assert kernel_basis_rational(M) == reference_kernel_basis_rational(M) == [
            [1, -2, 0], [1, 0, -3]]

    def test_small_kernel_returns_after_its_first_stack(self, monkeypatch):
        # Hadamard's bound of the rows, about 2^603, exceeds the first stack's
        # modulus, but the kernel vector [-1, 1] is read from it at once and
        # passes the exact check there
        calls = _count_rref_stacks(monkeypatch)
        M = RationalMatrix([[1, 1], [2**600, 2**600]])
        assert kernel_basis_rational(M) == reference_kernel_basis_rational(M) == [[1, -1]]
        assert len(calls) == 1

    def test_whole_first_stack_unlucky_is_refuted_by_the_exact_check(self, monkeypatch):
        # the leading 2x2 minor is Q1, the product of the first stack's
        # primes: every one of them pivots on [0, 2], and its candidate
        # [-1, 1, 0] fails M @ w == 0 (the second row gives Q1); the second
        # stack finds [0, 1], and its scaled vector [1, -1, Q1], larger
        # than half its modulus, is exact from the third
        Q1 = math.prod(linalg._prime_block(0))
        calls = _count_rref_stacks(monkeypatch)
        M = RationalMatrix([[1, 1, 0], [1, 1 + Q1, 1]])
        assert kernel_basis_rational(M) == reference_kernel_basis_rational(M) == [[1, -1, Q1]]
        assert len(calls) == 3

    def test_nonconvergence_is_an_internal_error(self, monkeypatch):
        # with every det B read as 0 the candidates vanish at their free
        # column: the support check refuses them, and the prime budget ends
        # the loop
        real = linalg._rref_stack

        def zero_dets(A, P):
            R, P, steps, dets = real(A, P)
            return R, P, steps, dets * 0

        monkeypatch.setattr(linalg, "_rref_stack", zero_dets)
        with pytest.raises(InternalCheckError):
            kernel_basis_rational(RationalMatrix([[1, 2, 3]]))
