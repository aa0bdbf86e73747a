import pytest

import soslen.generic as generic
from soslen.bounds import binomial, dim_forms
from soslen.errors import GenericityError, GuardError, InternalCheckError
from soslen.generic import (
    DEFAULT_SEED,
    Quantity,
    Status,
    derive_seed,
    dim_square_component,
    generic_ideal_dim,
    ik_expected,
    ik_verify,
    run_jobs,
    sample_points,
    typical_length,
    vanishing_component,
)
from soslen.linalg import DEFAULT_PRIMES, P1, PrimeMatrix, rank_mod_p


class TestSampling:
    def test_deterministic_replay(self):
        a = sample_points(3, 2, 3, seed=99, prime=P1)
        b = sample_points(3, 2, 3, seed=99, prime=P1)
        assert a == b
        c = sample_points(3, 2, 3, seed=100, prime=P1)
        assert a.points != c.points

    def test_more_points_than_monomials(self):
        sp = sample_points(3, 2, 7, seed=5, prime=P1)
        mat = PrimeMatrix(generic._eval_matrix_mod_p(sp.points, 3, 2, P1), P1)
        assert rank_mod_p(mat) == 6  # capped at N_{3,2}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_points(3, 2, 0, seed=1, prime=P1)

    def test_tiny_prime_fails_genericity(self):
        # F_2 has too few points for 5 of them to impose independent conditions
        with pytest.raises(GenericityError):
            sample_points(3, 2, 5, seed=1, prime=2)

    def test_seed_derivation_is_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)


class TestVanishingComponent:
    def test_dimensions(self):
        vc = vanishing_component(sample_points(3, 3, 6, seed=2, prime=P1), 3)
        assert vc.dim == 4
        vc = vanishing_component(sample_points(4, 2, 9, seed=2, prime=P1), 2)
        assert vc.dim == 1
        vc = vanishing_component(sample_points(3, 2, 6, seed=2, prime=P1), 2)
        assert vc.dim == 0

    def test_requires_s_at_most_dimension(self):
        sp = sample_points(3, 2, 7, seed=5, prime=P1)
        with pytest.raises(ValueError):
            vanishing_component(sp, 2)

    def test_report_fields(self):
        vc = vanishing_component(sample_points(3, 3, 6, seed=2, prime=P1), 3)
        rep = vc.report
        assert rep.quantity is Quantity.DIM_VANISHING_D
        assert rep.status is Status.VERIFIED
        assert rep.computed == rep.expected == 4


class TestIkExpected:
    def test_exceptional_triples_use_min(self):
        assert ik_expected(3, 2, 5) == 14
        assert ik_expected(4, 2, 9) == 34
        assert ik_expected(5, 2, 14) == 69

    def test_generic_formula(self):
        assert ik_expected(3, 3, 6) == 18
        assert ik_expected(4, 3, 12) == 48

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ik_expected(3, 3, 5)  # below N_{d-1} = 6
        with pytest.raises(ValueError):
            ik_expected(3, 3, 10)  # = N_d
        with pytest.raises(ValueError):
            ik_expected(2, 3, 3)


class TestDimSquareComponent:
    def test_ternary_identity_instance(self):
        rep = dim_square_component(3, 3, 6, seed=8)
        assert rep.computed == 10  # C(5,2): pair products independent
        assert rep.status is Status.VERIFIED
        assert dim_forms(3, 6) - rep.computed == 18

    def test_exceptional_rank_one(self):
        rep = dim_square_component(3, 2, 5, seed=8)
        assert rep.computed == 1 and rep.status is Status.VERIFIED
        rep = dim_square_component(4, 2, 9, seed=8)
        assert rep.computed == 1
        assert dim_forms(4, 4) - rep.computed == 34

    def test_two_primes_recorded(self):
        rep = dim_square_component(3, 2, 5, seed=8)
        assert rep.primes == DEFAULT_PRIMES

    def test_impossible_excess_raises_internal(self, monkeypatch):
        monkeypatch.setattr(generic, "_square_rank", lambda *a: 10**9)
        with pytest.raises(InternalCheckError):
            dim_square_component(3, 3, 6, seed=8)

    def test_guard_blocks_large_jobs(self):
        # n=6, d=8, s=s_min: product matrix 13530 x 20349 > 4*10^7 entries
        with pytest.raises(GuardError):
            dim_square_component(6, 8, 1123, seed=1)

    def test_full_point_count_gives_empty_square(self):
        rep = dim_square_component(3, 2, 6, seed=8)  # s = N_d: kernel is zero
        assert rep.computed == 0

    def test_report_replay_bit_for_bit(self):
        a = dim_square_component(4, 2, 9, seed=12)
        b = dim_square_component(4, 2, 9, seed=12)
        assert a == b
        ta = typical_length(3, 2, seed=12)
        tb = typical_length(3, 2, seed=12)
        assert ta == tb


class TestIkVerify:
    def test_ternary_rows(self):
        for d in (2, 3, 4):
            s = binomial(d + 1, 2)
            rep = ik_verify(3, d, s, seed=4)
            assert rep.status is Status.VERIFIED
            assert rep.computed == rep.expected == 3 * s

    def test_exceptional_triples(self):
        for (n, d, s), h in (((3, 2, 5), 14), ((4, 2, 9), 34), ((5, 2, 14), 69)):
            rep = ik_verify(n, d, s, seed=4)
            assert rep.status is Status.VERIFIED and rep.computed == h

    def test_quaternary_smin_instance(self):
        rep = ik_verify(4, 3, 12, seed=4)
        assert rep.status is Status.VERIFIED and rep.computed == 48

    def test_report_is_hilbert_facet(self):
        rep = ik_verify(3, 3, 7, seed=4)
        assert rep.quantity is Quantity.HILBERT_H_2D
        assert rep.computed >= rep.expected  # proven direction

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            ik_verify(3, 2, 5, trials=trials)


class TestGenericIdealDim:
    def test_principal_ideal(self):
        rep = generic_ideal_dim(3, 3, 1, seed=6)
        assert rep.computed == 10

    def test_three_generic_cubics(self):
        rep = generic_ideal_dim(3, 3, 3, seed=6)
        assert rep.computed == 27  # 3*10 - C(3,2), not yet full

    def test_four_generic_cubics_fill(self):
        rep = generic_ideal_dim(3, 3, 4, seed=6)
        assert rep.computed == 28 == dim_forms(3, 6)

    def test_monotone_in_r(self):
        vals = [generic_ideal_dim(3, 2, r, seed=6).computed for r in range(1, 5)]
        assert vals == sorted(vals)

    def test_fos_cap_fills(self):
        for n, d in ((3, 2), (3, 3), (4, 2)):
            rep = generic_ideal_dim(n, d, 2 ** (n - 1), seed=6)
            assert rep.computed == dim_forms(n, 2 * d)

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            generic_ideal_dim(3, 2, 0, seed=6)


class TestVerdicts:
    """The verdict and resampling rules shared by the two-prime experiments."""

    def test_rank_below_expected_is_inconclusive(self):
        rep = generic_ideal_dim(3, 2, 1, seed=6, expected=100)
        assert rep.computed == 6
        assert rep.status is Status.INCONCLUSIVE_HIGH

    def test_rank_above_expected_is_internal_error(self):
        with pytest.raises(InternalCheckError) as exc:
            generic_ideal_dim(3, 2, 1, seed=6, expected=0)
        assert exc.value.report.status is Status.INTERNAL_ERROR
        assert exc.value.report.computed == 6 and exc.value.report.expected == 0

    def test_square_component_disagreement_every_round(self, monkeypatch):
        monkeypatch.setattr(generic, "_square_rank", lambda pts, n, d, p: p)
        with pytest.raises(GenericityError, match="prime disagreement"):
            dim_square_component(3, 3, 6, seed=8)

    def test_ideal_disagreement_every_round(self, monkeypatch):
        monkeypatch.setattr(generic, "rank_mod_p", lambda M: M.p)
        with pytest.raises(GenericityError, match="prime disagreement"):
            generic_ideal_dim(3, 2, 1, seed=6)


class TestTypicalLength:
    def test_ternary_values(self):
        assert typical_length(3, 1, seed=10).r_found == 3
        assert typical_length(3, 2, seed=10).r_found == 3
        res = typical_length(3, 3, seed=10)
        assert res.r_found == 4 and res.status.value == "Exact"

    def test_consistency_invariant(self):
        res = typical_length(4, 2, seed=10)
        assert res.certified_lower <= res.r_found <= res.fos_cap
        assert res.r_found == 5

    def test_r_max_too_small_gives_interval_only(self):
        res = typical_length(3, 3, r_max=3, seed=10)
        assert res.r_found is None
        assert res.status.value == "IntervalOnly"

    def test_serialization_dict(self):
        d = typical_length(3, 2, seed=10).to_dict()
        assert d == {
            "n": 3, "d": 2, "r_found": 3, "certified_lower": 3,
            "fos_cap": 4, "status": "Exact",
        }

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            typical_length(3, 2, trials=trials)


class TestWorkQueue:
    def test_serial_and_parallel_agree(self):
        jobs = [dict(n=3, d=2, s=s, trials=2, seed=3) for s in range(3, 6)]
        serial = run_jobs(ik_verify, jobs, parallelism=1)
        parallel = run_jobs(ik_verify, jobs, parallelism=2)
        assert serial == parallel
        assert [r.s for r in serial] == [3, 4, 5]
