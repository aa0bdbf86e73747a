import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
