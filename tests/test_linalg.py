import itertools
import math
import random
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
        r = rank_mod_p(M)
        kern = kernel_basis_mod_p(M)
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
        assert len(kern) == n - rank_rational(M)
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
    p = draw(st.sampled_from((101, P1, INT64_EDGE_PRIME)))
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
    @settings(max_examples=150, deadline=None)
    def test_rank_pivots_and_kernel(self, instance):
        rows, p, k = instance
        M = PrimeMatrix(rows, p)
        assert rank_mod_p(M) == k
        _, pivots = rref_mod_p(M)
        assert len(pivots) == k
        kern = kernel_basis_mod_p(M)
        assert len(kern) == M.shape[1] - k
        for v in kern:
            vec = [int(x) for x in v]
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) % p == 0


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
    R0 = M.arr.copy()
    pivots0 = reference_eliminate(R0, p, reduced=True)
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
    """B . C mod p without int64 overflow (every product is below p^2 < 2^63)."""
    A = np.zeros((B.shape[0], C.shape[1]), dtype=np.int64)
    for t in range(B.shape[1]):
        A = (A + B[:, t, None] * C[None, t, :] % p) % p
    return A


PANEL_EDGE_COLUMNS = (63, 64, 65, 128, 129)


@st.composite
def panel_instances(draw):
    """(A, p, k): A = B.C mod p of rank exactly k with up to 200 columns.

    Built as in known_rank_instances, then one block of columns is
    inserted at a multiple of 64: all zero ("zero_panel") or a copy of the
    first columns ("duplicated_block"), so that whole panels hold no pivot.
    Zero rows on top, or every row twice, make the leading rows of a panel
    dependent, so its pivots need row swaps.
    """
    p = draw(st.sampled_from((101, P1, P2, INT64_EDGE_PRIME)))
    shape = draw(st.sampled_from(("tall", "wide", "zero", "equal_rows")))
    layout = draw(st.sampled_from(("plain", "zero_panel", "duplicated_block")))
    n = draw(st.one_of(st.sampled_from(PANEL_EDGE_COLUMNS), st.integers(1, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = 0 if layout == "plain" else min(64, n // 2)
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
        at = 64 * draw(st.integers(0, n0 // 64))
        block = np.zeros((k, w), dtype=np.int64)
    else:
        at = 64 * draw(st.integers(1, n0 // 64)) if n0 >= 64 else n0
        block = C0[:, :w]
    C = np.hstack([C0[:, :at], block, C0[:, at:]])
    A = _mod_product(B, C, p)
    rows = draw(st.sampled_from(("plain", "leading_zero_rows", "repeated_rows")))
    if rows == "leading_zero_rows":
        A = np.vstack([np.zeros((draw(st.integers(1, 70)), n), dtype=np.int64), A])
    elif rows == "repeated_rows":
        A = np.repeat(A, 2, axis=0)
    return A, p, k


class TestBlockedAgainstReference:
    """The blocked kernel against the per-column sweep, across panel edges."""

    @given(panel_instances())
    @settings(max_examples=200, deadline=None)
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
        for m, n in ((150, 129), (140, 200), (64, 131)):
            A = values[rng.integers(0, 3, (m, n))]
            A[2 * m // 3 :] = A[: m - 2 * m // 3]
            rank = assert_matches_reference(A, p)
            assert rank <= 2 * m // 3
        A = np.full((130, 130), p - 1, dtype=np.int64)
        assert assert_matches_reference(A, p) == 1

    def test_limb_product_exact_at_panel_width(self):
        # The float64 update T - F.X over an inner dimension of one full
        # panel, with F and X near the largest centred magnitude (p-1)/2 and
        # one sign, so the partial sums reach the bound of the exactness
        # argument; checked against Python integers.
        from soslen.linalg import _PANEL, _limbs, _sub_mul

        p = INT64_EDGE_PRIME
        h = (p - 1) // 2
        rng = np.random.default_rng(3)
        F = rng.integers(h - 1000, h + 1, (5, _PANEL), dtype=np.int64)
        X = rng.integers(h - 1000, h + 1, (_PANEL, 7), dtype=np.int64)
        X[:, :3] = p - X[:, :3]  # centred to -(p-1)/2 + ...: the other sign
        T = rng.integers(0, p, (5, 7), dtype=np.int64)
        out = T.astype(np.float64)
        _sub_mul(out, F.astype(np.float64), *_limbs(X.astype(np.float64), p), p)
        expected = [
            [(int(T[i, j]) - sum(int(F[i, t]) * int(X[t, j]) for t in range(_PANEL))) % p
             for j in range(7)]
            for i in range(5)
        ]
        assert out.astype(np.int64).tolist() == expected


def _reference_divide_by_content(row):
    g = 0
    for x in row:
        g = math.gcd(g, x)
    return row if g <= 1 else [x // g for x in row]


def reference_kernel_basis_rational(M):
    """The fraction-free kernel the multimodular one replaced, kept here as
    an independent oracle: integer row echelon form with per-row content
    division, back-substitution in exact fractions, then each vector
    cleared of denominators, divided by its content and made to lead with
    a positive entry."""
    m, n = M.shape
    if m == 0 or n == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
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
    ech = rows[:r]
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
