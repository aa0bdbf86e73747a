import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslen import bounds
from soslen.bounds import (
    BoundsRow,
    DegreeParams,
    Lambda_upper,
    Surd,
    UpperSource,
    asymptotic_constants,
    binomial,
    bounds_row,
    bounds_table,
    cmp_abs_sqrt_diff,
    dim_forms,
    lambda_lower,
    leep_length_bound,
    s_min,
    scan_leep_vs_lambda,
    theta_lower,
)


def cmp_int_vs_sqrt(t: int, r: int) -> int:
    """Exact sign of t - sqrt(r) for integers t, r >= 0 (test-side oracle)."""
    if t < 0:
        return -1
    return (t * t > r) - (t * t < r)


def ceil_lambda_oracle(n: int, d: int) -> int:
    """Smallest integer c with c >= (2e+1 - sqrt((2e+1)^2 - 8a)) / 2.

    Brute scan with an integer-only predicate, independent of Surd.
    """
    e = dim_forms(n, d)
    a = dim_forms(n, 2 * d)
    q = 2 * e + 1
    disc = q * q - 8 * a
    for c in range(0, q + 1):
        # c >= (q - sqrt(disc))/2  <=>  sqrt(disc) >= q - 2c
        if cmp_int_vs_sqrt(q - 2 * c, disc) <= 0:
            return c
    raise AssertionError("no ceiling found")


def s_min_oracle(n: int, d: int) -> int:
    """Linear scan directly on the counting inequality (no quadratic)."""
    N_d = dim_forms(n, d)
    N_2d = dim_forms(n, 2 * d)
    for s in range(0, N_d):
        if binomial(N_d - s + 1, 2) <= N_2d - n * s:
            return s
    raise AssertionError("no feasible s")


class TestBinomialAndDims:
    def test_binomial_values(self):
        assert binomial(5, 2) == 10
        assert binomial(4, 0) == 1
        assert binomial(3, 5) == 0  # b > a convention

    def test_binomial_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    def test_dim_forms_values(self):
        assert dim_forms(3, 3) == 10
        assert dim_forms(3, 6) == 28
        assert dim_forms(4, 2) == 10

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_refused_where_the_binomial_exceeds_the_bit_bound(self, data):
        # a smaller bound, so that the binomials near it are quick to compute
        a = data.draw(st.one_of(st.integers(0, 20_000), st.integers(2**39, 2**41),
                                st.integers(0, 2**70)), label="a")
        b = data.draw(st.integers(0, min(a, 6_000)) | st.integers(max(0, a - 6_000), a), label="b")
        exact = math.comb(a, b).bit_length()  # log2 C(a, b) lies in (exact - 1, exact]
        with mock.patch.object(bounds, "MAX_BITS", 4096):
            try:
                got = binomial(a, b)
            except ValueError as exc:
                assert "more than 4096 bits" in str(exc)
                assert exact > 4096 - 1
            else:
                assert got == math.comb(a, b) and exact <= 4096 + 2

    def test_bit_bound_refuses_before_computing(self):
        # tests/test_cli.py::TestHugeInputs runs the dim_forms(10**9, 10**9)
        # of `bounds 1000000000 1000000000` in a process of its own
        with pytest.raises(ValueError, match="more than 4194304 bits"):
            binomial(10**400, 10**399)  # math.comb cannot take it at all
        assert dim_forms(3, 10**20) == math.comb(10**20 + 2, 2)

    @given(st.integers(1, 8), st.integers(0, 12))
    def test_dim_forms_counts_monomials(self, n, e):
        # stars and bars count
        assert dim_forms(n, e) == math.comb(n + e - 1, n - 1)


class TestSurd:
    @given(
        st.integers(-1000, 1000),
        st.sampled_from((1, -1)),
        st.integers(0, 10**6),
        st.integers(1, 500),
    )
    def test_floor_ceil_are_exact(self, add, sign, radicand, den):
        s = Surd(add, sign, radicand, den)
        f = s.floor()
        # den*f <= add + sign*sqrt(r) < den*(f+1), checked without floats
        if sign > 0:
            assert cmp_int_vs_sqrt(den * f - add, radicand) <= 0
            assert cmp_int_vs_sqrt(den * (f + 1) - add, radicand) > 0
        else:
            assert cmp_int_vs_sqrt(add - den * f, radicand) >= 0
            assert cmp_int_vs_sqrt(add - den * (f + 1), radicand) < 0
        assert s.ceil() in (f, f + 1)
        if s.exact() is not None:
            assert s.ceil() == math.ceil(s.exact())
            assert f == math.floor(s.exact())

    def test_exact_detects_perfect_squares(self):
        assert Surd(-1, 1, 81, 2).exact() == 4
        assert Surd(0, 1, 2, 1).exact() is None

    def test_approx_display(self):
        # truncated toward minus infinity, never rounded
        assert Surd(0, 1, 2, 1).approx(3) == "1.414"
        assert Surd(21, -1, 217, 2).approx(3) == "3.134"
        assert Surd(0, -1, 2, 1).approx(3) == "-1.415"

    def test_sqrt_fraction_squared(self):
        s = Surd.sqrt_fraction(Fraction(8, 6))
        assert s.squared() == Fraction(4, 3)


class TestLambdaBounds:
    def test_lambda_ceilings(self):
        assert lambda_lower(DegreeParams(3, 3))[1] == 4
        assert lambda_lower(DegreeParams(4, 2))[1] == 5

    def test_lambda_binary_forms_is_exactly_two(self):
        for d in range(1, 30):
            surd, c = lambda_lower(DegreeParams(2, d))
            assert c == 2
            assert surd.exact() == 2  # the discriminant is (2d-1)^2

    @given(st.integers(2, 8), st.integers(1, 25))
    def test_lambda_ceiling_matches_oracle(self, n, d):
        assert lambda_lower(DegreeParams(n, d))[1] == ceil_lambda_oracle(n, d)

    def test_Lambda_ternary_identity(self):
        for d in range(1, 51):
            surd, fl = Lambda_upper(DegreeParams(3, d))
            assert surd.exact() == 2 * d + 1
            assert fl == 2 * d + 1

    def test_surd_fields_match_their_formulas(self):
        # bounds and table print these fields, not only the ceiling and floor
        for n in range(1, 9):
            for d in range(1, 13):
                e, a = dim_forms(n, d), dim_forms(n, 2 * d)
                lam = Surd(2 * e + 1, -1, (2 * e + 1) ** 2 - 8 * a, 2)
                assert lambda_lower(DegreeParams(n, d))[0] == lam
                assert Lambda_upper(DegreeParams(n, d))[0] == Surd(-1, 1, 1 + 8 * a, 2)

    def test_Lambda_floors(self):
        assert Lambda_upper(DegreeParams(4, 2))[1] == 7
        assert Lambda_upper(DegreeParams(4, 3))[1] == 12

    @given(st.integers(3, 8), st.integers(2, 20))
    def test_defining_inequalities_hold_at_endpoints(self, n, d):
        # C(floor(Lambda)+1, 2) <= N_2d and ceil(lambda)*N_d - C(.,2) >= N_2d
        params = DegreeParams(n, d)
        lam_c = lambda_lower(params)[1]
        Lam_f = Lambda_upper(params)[1]
        assert binomial(Lam_f + 1, 2) <= params.N_2d
        assert lam_c * params.N_d - binomial(lam_c, 2) >= params.N_2d


class TestLeepBound:
    def test_ternary(self):
        for d in range(1, 20):
            assert leep_length_bound(3, d, 0) == d + 2

    def test_values(self):
        assert leep_length_bound(4, 3, 0) == 11
        assert leep_length_bound(3, 3, 1) == 4

    def test_m_validation(self):
        with pytest.raises(ValueError):
            leep_length_bound(3, 3, 4)
        with pytest.raises(ValueError):
            leep_length_bound(3, 3, -1)

    def test_exceptional_pair_scan(self):
        hits = scan_leep_vs_lambda(range(4, 11), range(1, 101))
        assert [(n, d) for n, d, _, _ in hits] == [(4, 3), (4, 4), (4, 5)]
        assert [lam for _, _, _, lam in hits] == [12, 17, 23]
        assert [L for _, _, L, _ in hits] == [11, 16, 22]


class TestSmin:
    def test_values(self):
        assert s_min(DegreeParams(4, 2)) == 5
        assert s_min(DegreeParams(5, 4)) == 48
        assert s_min(DegreeParams(3, 3)) == 6

    @given(st.integers(3, 6), st.integers(2, 16))
    @settings(max_examples=60)
    def test_matches_linear_scan_oracle(self, n, d):
        assert s_min(DegreeParams(n, d)) == s_min_oracle(n, d)

    def test_bracketing(self):
        for n in range(4, 8):
            for d in range(2, 9):
                s = s_min(DegreeParams(n, d))
                assert dim_forms(n, d - 1) < s < dim_forms(n, d)

    def test_ternary_lower_end_is_equality(self):
        # for n = 3 the smallest feasible s is exactly N_{d-1} = C(d+1, 2)
        for d in range(2, 12):
            assert s_min(DegreeParams(3, d)) == dim_forms(3, d - 1) == binomial(d + 1, 2)

    def test_requires_n3_d2(self):
        with pytest.raises(ValueError):
            s_min(DegreeParams(2, 3))
        with pytest.raises(ValueError):
            s_min(DegreeParams(4, 1))


class TestTheta:
    def test_values(self):
        assert theta_lower(DegreeParams(4, 3)) == 8
        assert theta_lower(DegreeParams(6, 5)) == 60
        assert theta_lower(DegreeParams(3, 3)) == 4

    def test_below_dimension(self):
        for n in range(3, 7):
            for d in range(2, 8):
                assert theta_lower(DegreeParams(n, d)) < dim_forms(n, d)


class TestAsymptoticConstants:
    def test_values(self):
        c4, C4 = asymptotic_constants(4)
        assert c4.squared() == Fraction(8, 6)
        assert C4.squared() == Fraction(16, 6)
        c3, _ = asymptotic_constants(3)
        assert c3.exact() == 1
        _, C5 = asymptotic_constants(5)
        assert C5.squared() == Fraction(32, 24)

    def test_ratio_approaches_constant(self):
        for n in (4, 5):
            c_sq = asymptotic_constants(n)[0].squared()
            gap = {}
            for d in (20, 200):
                theta = theta_lower(DegreeParams(n, d))
                gap[d] = Fraction(theta * theta, d ** (n - 1))
            assert cmp_abs_sqrt_diff(gap[200], c_sq, gap[20], c_sq) < 0


class TestCmpAbsSqrtDiff:
    def test_known_values(self):
        assert cmp_abs_sqrt_diff(4, 1, 9, 1) < 0  # 1 < 2
        assert cmp_abs_sqrt_diff(9, 1, 4, 1) > 0
        assert cmp_abs_sqrt_diff(9, 4, 4, 9) == 0  # |3-2| == |2-3|
        assert cmp_abs_sqrt_diff(2, 2, 5, 5) == 0  # both zero

    @given(
        st.fractions(min_value=0, max_value=50),
        st.fractions(min_value=0, max_value=50),
        st.fractions(min_value=0, max_value=50),
        st.fractions(min_value=0, max_value=50),
    )
    @settings(max_examples=200)
    def test_agrees_with_float_oracle_away_from_ties(self, a1, b1, a2, b2):
        lhs = abs(math.sqrt(a1) - math.sqrt(b1))
        rhs = abs(math.sqrt(a2) - math.sqrt(b2))
        if abs(lhs - rhs) < 1e-9:
            return  # too close for the float oracle to adjudicate
        assert cmp_abs_sqrt_diff(a1, b1, a2, b2) == (1 if lhs > rhs else -1)


class TestBoundsTable:
    def test_single_rows(self):
        r = bounds_row(DegreeParams(4, 2))
        assert (r.s_min, r.theta, r.upper_best) == (5, 5, 7)
        r = bounds_row(DegreeParams(3, 3))
        assert (r.theta, r.upper_best) == (4, 5)
        r = bounds_row(DegreeParams(3, 5))
        assert (r.theta, r.upper_best) == (6, 7)

    def test_upper_source_split(self):
        assert bounds_row(DegreeParams(3, 4)).upper_source is UpperSource.LEEP_L
        assert bounds_row(DegreeParams(4, 2)).upper_source is UpperSource.LAMBDA_FLOOR
        for d in (3, 4, 5):
            assert bounds_row(DegreeParams(4, d)).upper_source is UpperSource.LEEP_L
        assert bounds_row(DegreeParams(4, 6)).upper_source is UpperSource.LAMBDA_FLOOR
        assert bounds_row(DegreeParams(5, 3)).upper_source is UpperSource.LAMBDA_FLOOR

    def test_table_shape(self):
        rows = bounds_table(range(4, 7), range(2, 9))
        assert len(rows) == 21
        assert all(isinstance(r, BoundsRow) for r in rows)
        assert all(r.theta < r.N_d for r in rows)

    def test_exactness_no_floats(self):
        r = bounds_row(DegreeParams(5, 7))
        for value in (r.N_d, r.N_2d, r.lam_ceil, r.Lam_floor, r.leep_L, r.s_min,
                      r.theta, r.upper_best):
            assert isinstance(value, int)
        assert isinstance(r.lam, Surd) and isinstance(r.Lam, Surd)
