import concurrent.futures
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soslen.generic as generic
from soslen import linalg
from soslen.bounds import DegreeParams, binomial, dim_forms, lambda_lower
from soslen.cli import main
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
    typical_length,
)
from soslen.linalg import DEFAULT_PRIMES, P1, P2, PrimeMatrix, kernel_basis_mod_p, rank_mod_p
from soslen.primes import SCREEN_PRIME as Q
from soslen.primes import is_probable_prime
from soslen.ring import monomials, product_index_table
from soslen.witness import build_witness

# largest prime whose residues multiply without overflowing int64
INT64_EDGE_PRIME = 3037000493


def next_prime(x: int) -> int:
    """Smallest prime above x."""
    q = x + 1
    while not is_probable_prime(q):
        q += 1
    return q


def reference_eval_matrix(points, n, e, p):
    """Monomial values by Python integer powers, one entry at a time."""
    return [[math.prod(pow(x, k, p) for x, k in zip(pt, mono)) % p
             for mono in monomials(n, e)] for pt in points]


def per_variable_eval_matrix(points, n, e, p):
    """The per-variable formulation the factor form replaced: powers of
    every coordinate, then one gathered s x N_e product per variable."""
    X = np.asarray(points, dtype=np.int64).reshape(len(points), n).T % p
    powers = np.ones((n, len(points), e + 1), dtype=np.int64)  # x_v^k mod p
    for k in range(1, e + 1):
        powers[:, :, k] = powers[:, :, k - 1] * X % p
    exponents = np.array(monomials(n, e), dtype=np.int64).reshape(-1, n)
    vals = powers[0][:, exponents[:, 0]]
    for v in range(1, n):
        vals = vals * powers[v][:, exponents[:, v]] % p
    return vals


def reference_pair_product_rows(vecs, n, d, p):
    """Coefficient rows of the products v_i v_j, i <= j, scattered one
    outer product at a time through the product index table; independent
    of ``matmul_mod_p``, which the evaluation form also uses."""
    b = vecs.shape[0]
    T = np.asarray(product_index_table(n, d, d), dtype=np.int64).ravel()
    rows = np.zeros((b * (b + 1) // 2, dim_forms(n, 2 * d)), dtype=np.int64)
    k = 0
    for i in range(b):
        for j in range(i, b):
            outer = vecs[i][:, None] * vecs[j][None, :] % p
            np.add.at(rows[k], T, outer.ravel())
            k += 1
    return rows


def coefficient_rank(vectors, n, d, p):
    """Rank of the pair products in coefficient form: the loop the
    evaluation form replaced, now its exact fallback."""
    vecs = np.array([[int(x) % p for x in v] for v in vectors],
                    dtype=np.int64).reshape(len(vectors), dim_forms(n, d))
    return rank_mod_p(PrimeMatrix(reference_pair_product_rows(vecs, n, d, p), p))


def peak_kb(argv) -> int:
    """VmHWM in kB of one ``soslen argv`` run in a fresh process, which must
    exit 0.  The peak is VmHWM, not ru_maxrss: a process that subprocess
    starts by vfork keeps the peak of its parent's memory across exec."""
    code = (
        "import sys\n"
        "from soslen.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    env = dict(os.environ)
    env.pop("PYLAB_CACHE", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1])


class TestSampling:
    def test_deterministic_replay(self):
        a = generic._sample_instance(3, 2, 3, 99, (P1,))
        b = generic._sample_instance(3, 2, 3, 99, (P1,))
        assert a == b
        c = generic._sample_instance(3, 2, 3, 100, (P1,))
        assert a != c

    def test_more_points_than_monomials(self):
        points = generic._sample_instance(3, 2, 7, 5, (P1,))
        mat = PrimeMatrix(generic._eval_matrix_mod_p(points, 3, 2, P1), P1)
        assert rank_mod_p(mat) == 6  # capped at N_{3,2}

    def test_tiny_prime_fails_genericity(self):
        # F_2 has too few points for 5 of them to impose independent conditions
        with pytest.raises(GenericityError):
            generic._sample_instance(3, 2, 5, 1, (2,))

    def test_seed_derivation_is_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)


def reference_gate(points, n, d, p):
    """The gate as two ranks: E_d at full rank and, when s >= N_{d-1}, E_{d-1} too."""
    s, N_prev = len(points), dim_forms(n, d - 1)

    def rank(e):
        return rank_mod_p(PrimeMatrix(generic._eval_matrix_mod_p(points, n, e, p), p))

    return rank(d) == min(s, dim_forms(n, d)) and (s < N_prev or rank(d - 1) == N_prev)


@st.composite
def gate_inputs(draw):
    """(points, n, d, p): random points, some with x1 = 0 mod p, repeated
    or congruent ones, or points on a line through the origin."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    p = draw(st.sampled_from((2, 7, 101, Q, P1)))
    s = draw(st.integers(max(1, dim_forms(n, d - 1) - 2), dim_forms(n, d) + 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = draw(st.sampled_from((3, p, P2)))
    pts = [[rng.randrange(-bound, bound) for _ in range(n)] for _ in range(s)]
    kind = draw(st.sampled_from(("random", "x1 zero", "repeated", "collinear")))
    if kind == "x1 zero":
        for pt in rng.sample(pts, rng.randint(1, s)):
            pt[0] = p * rng.randrange(-2, 3)
    elif kind == "repeated" and s >= 2:
        i, j = rng.sample(range(s), 2)
        pts[j] = [x + p * rng.randrange(-1, 2) for x in pts[i]]
    elif kind == "collinear":
        a, b = ([rng.randrange(-bound, bound) for _ in range(n)] for _ in range(2))
        pts = [[u * x + v * y for x, y in zip(a, b)]
               for u, v in ((rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(s))]
    return pts, n, d, p


class TestGate:
    """The gate reads both ranks from the RREF of E_d, whose first N_{d-1}
    columns are diag(x1) E_{d-1}; it ranks E_{d-1} itself only when their
    pivots fall short and some x1 is 0 mod p."""

    @given(gate_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_rank_gate(self, case):
        pts, n, d, p = case
        assert generic._gate_ok(pts, n, d, p) == reference_gate(pts, n, d, p)

    @pytest.mark.parametrize("pts, ok", [
        # x1 = 0 at two of three points: E_1 = I has full rank, while the
        # first three columns of E_2 hold one pivot
        ([(0, 1, 0), (1, 0, 0), (0, 0, 1)], True),
        # three points on the plane x3 = 0: E_2 has full rank 3 with pivots
        # x1^2, x1x2, x2^2, two of them among the first three columns, and
        # E_1 has rank 2
        ([(1, 2, 0), (3, 1, 0), (2, 5, 0)], False),
    ])
    @pytest.mark.parametrize("p", (7, 101, Q, P1))
    def test_pivots_below_n_prev_and_the_direct_rank(self, pts, ok, p):
        assert reference_gate(pts, 3, 2, p) is ok
        assert generic._gate_ok(pts, 3, 2, p) is ok

    @staticmethod
    def record_calls(monkeypatch):
        calls = []
        for name in ("rref_mod_p", "rank_mod_p", "_gate_ok", "_square_rank"):
            def recorded(*args, _name=name, _f=getattr(generic, name)):
                p = args[0].p if _name.endswith("_mod_p") else args[3]
                shape = args[0].shape if _name.endswith("_mod_p") else None
                calls.append((_name, p, shape))
                return _f(*args)

            monkeypatch.setattr(generic, name, recorded)
        generic._eval_rref.cache_clear()
        return calls

    def test_one_elimination_per_instance_at_the_screening_prime(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        rep = ik_verify(6, 3, 40)
        assert rep.status is Status.VERIFIED and rep.primes == DEFAULT_PRIMES
        assert calls[:3] == [("_gate_ok", Q, None), ("rref_mod_p", Q, (40, 56)),
                             ("_square_rank", Q, None)]
        # the rest is the pair-product rank: no evaluation matrix, no P1
        assert [c for c in calls[3:] if c[0] != "rank_mod_p"] == []
        assert all(p == Q and 40 not in shape for _, p, shape in calls[3:])

    def test_configured_primes_below_q_share_one_rref_at_the_first(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        rep = ik_verify(6, 3, 40, primes=(101, 103))
        assert rep.status is Status.VERIFIED
        assert calls[:3] == [("_gate_ok", 101, None), ("rref_mod_p", 101, (40, 56)),
                             ("_square_rank", 101, None)]
        assert [c[0] for c in calls[3:]] == ["rank_mod_p"] * (len(calls) - 3)


class TestEvalMatrix:
    @given(
        n=st.integers(1, 4),
        half=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_python_powers(self, n, half, data):
        # negative, zero and repeated coordinates, and any that fit int64;
        # at the largest prime, p - 1 and -1 make products of (p - 1)^2,
        # just below 2^63
        p = data.draw(st.sampled_from((2, 101, INT64_EDGE_PRIME)))
        e = data.draw(st.sampled_from((0, 1, 2 * half)))
        coord = st.one_of(
            st.integers(-1000, 1000),
            st.sampled_from((0, -1, p - 1, p - 2, 2**63 - 1, -(2**63) + 1)),
            st.integers(-(2**63) + 1, 2**63 - 1),
        )
        points = data.draw(st.lists(st.tuples(*[coord] * n), min_size=0, max_size=6))
        points += points[:2]
        got = generic._eval_matrix_mod_p(points, n, e, p)
        assert got.dtype == np.int64
        assert got.shape == (len(points), dim_forms(n, e))
        assert got.tolist() == reference_eval_matrix(points, n, e, p)

    @pytest.mark.parametrize("n, d", [
        (n, d) for n in range(2, 7) for d in range(1, 7) if dim_forms(n, 2 * d) <= 1000
    ])
    def test_lattice_is_unisolvent_above_2d(self, n, d):
        # the points y >= 0 with |y| = 2d determine every degree-2d form mod
        # p > 2d, which is what lets pair_products_rank work in values
        Y = monomials(n, 2 * d)
        N_2d = dim_forms(n, 2 * d)
        p = next_prime(2 * d)
        assert rank_mod_p(PrimeMatrix(generic._eval_matrix_mod_p(Y, n, 2 * d, p), p)) == N_2d
        # mod 2 <= 2d no point set does: x^2 y - x y^2 vanishes on all of F_2^n
        assert rank_mod_p(PrimeMatrix(generic._eval_matrix_mod_p(Y, n, 2 * d, 2), 2)) < N_2d

    @pytest.mark.parametrize("p", (2, 101, P1, INT64_EDGE_PRIME))
    def test_matches_the_per_variable_form(self, p):
        # e = 0 and n = 1 included, coordinates negative and past p
        rng = np.random.default_rng(p % 1000)
        for n in (1, 2, 3, 6, 9):
            for e in range(7 if n < 9 else 3):
                points = rng.integers(-(10**12), 10**12, (7, n))
                points[0] = -1
                points[1, 0] = 0
                got = generic._eval_matrix_mod_p(points, n, e, p)
                old = per_variable_eval_matrix(points, n, e, p)
                assert got.dtype == old.dtype and np.array_equal(got, old)

    def test_factors_list_the_variables_in_monomial_order(self):
        for n in range(1, 7):
            for e in range(7):
                counts = [np.bincount(row, minlength=n).tolist() for row in generic._factors(n, e)]
                assert counts == [list(m) for m in monomials(n, e)]


@pytest.fixture(scope="module")
def witness_basis():
    cert = build_witness(3, 3)
    return cert.basis


@st.composite
def pair_product_inputs(draw):
    """(vectors, n, d, p): random residue vectors with zero and repeated
    ones, b = 0 and 1 among them, or a vanishing basis of sampled points."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    N_d = dim_forms(n, d)
    p = draw(st.sampled_from((next_prime(2 * d), 101, P1, P2, INT64_EDGE_PRIME)))
    if draw(st.booleans()):
        s = draw(st.integers(1, N_d))
        pts = generic._sample_instance(n, d, s, draw(st.integers(0, 2**32)), (P1,))
        return kernel_basis_mod_p(PrimeMatrix(generic._eval_matrix_mod_p(pts, n, d, p), p)), n, d, p
    b = draw(st.sampled_from((0, 1, draw(st.integers(2, 7)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    vecs = rng.integers(0, p, (b, N_d), dtype=np.int64)
    if b >= 2 and draw(st.booleans()):
        vecs[draw(st.integers(0, b - 1))] = 0
    if b >= 2 and draw(st.booleans()):
        vecs[-1] = vecs[0]
    return vecs, n, d, p


class TestPairProductsRank:
    """The evaluation form against the coefficient-form rows."""

    @given(pair_product_inputs())
    @settings(max_examples=80, deadline=None)
    def test_matches_coefficient_form(self, case):
        vecs, n, d, p = case
        assert generic.pair_products_rank(vecs, n, d, p) == coefficient_rank(vecs, n, d, p)
        as_ints = [[int(x) - p if x % 2 else int(x) for x in v] for v in vecs]
        assert generic.pair_products_rank(as_ints, n, d, p) == coefficient_rank(vecs, n, d, p)

    @pytest.mark.parametrize("p", (7, 101, P1, P2, INT64_EDGE_PRIME))
    def test_big_integer_witness_basis(self, witness_basis, p):
        b = len(witness_basis)
        rank = generic.pair_products_rank(witness_basis, 3, 3, p)
        assert rank == coefficient_rank(witness_basis, 3, 3, p)
        if p in DEFAULT_PRIMES:
            assert rank == b * (b + 1) // 2

    def test_coefficient_rows_only_on_a_shortfall(self, monkeypatch):
        # the 21 products of the six quadratic monomials span all 15
        # quartics; 15 random points of F_p^3 often fall short of that at
        # p = 2 and 11 (at 11 also by one), and never at P1
        calls, ranks, first = [], [], []
        rows, rank = generic._pair_product_rows, generic.rank_mod_p
        monkeypatch.setattr(generic, "_pair_product_rows", lambda *a: calls.append(a) or rows(*a))
        monkeypatch.setattr(generic, "rank_mod_p", lambda M: ranks.append(rank(M)) or ranks[-1])
        eye = np.eye(6, dtype=np.int64)
        for p in (2, 11, P1):
            for seed in range(20):
                calls.clear()
                ranks.clear()
                assert generic.pair_products_rank(eye, 3, 2, p, seed=seed) == 15
                assert len(calls) == len(ranks) - 1 == (ranks[0] < 15)
                first.append((p, ranks[0]))
        assert (2, 6) in first and (11, 14) in first
        assert [r for p, r in first if p == P1] == [15] * 20

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 101, P1))
    def test_coefficient_rows_match_reference(self, p):
        rng = np.random.default_rng(p)
        for n, d in ((2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2)):
            N_d = dim_forms(n, d)
            for b in (0, 1, int(rng.integers(2, 8))):
                vecs = rng.integers(0, p, (b, N_d), dtype=np.int64)
                if b >= 3:
                    vecs[1] = 0
                    vecs[-1] = vecs[0]
                rows = generic._pair_product_rows(vecs, n, d, p).arr
                assert rows.shape == (b * (b + 1) // 2, dim_forms(n, 2 * d))
                assert np.array_equal(rows % p, reference_pair_product_rows(vecs, n, d, p) % p)

    def test_fallback_at_small_prime(self):
        # mod 5 <= 2d = 6 the lattice points do not separate degree-6 forms;
        # ranked in values, the 55 products of all cubic monomials give 22
        assert generic.pair_products_rank(np.eye(10), 3, 3, 5) == 28


class TestCompressedPairProducts:
    """Pair products ranked from K random squares (U G)_k^2 at random points."""

    @given(pair_product_inputs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_never_above_and_at_large_primes_equal(self, case, data):
        vecs, n, d, p = case
        full = coefficient_rank(vecs, n, d, p)
        target = data.draw(st.integers(0, dim_forms(n, 2 * d) + 1))
        seed = data.draw(st.integers(0, 2**64 - 1))
        rank = generic.pair_products_rank(vecs, n, d, p, target, seed)
        assert rank <= full
        if rank < target:
            assert rank == full
        if p > 2**30:
            assert rank >= min(target, full)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_target_from_the_rank_up_gives_the_rank(self, data):
        # the point rank never exceeds R, so at a target >= R it is R or it
        # falls back to the coefficient rows: the seed decides only which
        n, d = data.draw(st.sampled_from(((2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (2, 3))))
        p = data.draw(st.sampled_from((3, 5, 101, P1)))
        N_d = dim_forms(n, d)
        if data.draw(st.booleans()):
            s = data.draw(st.integers(max(1, N_d - 8), N_d))
            pts = generic._sample_instance(n, d, s, data.draw(st.integers(0, 2**32)), (P1,))
            vecs = kernel_basis_mod_p(PrimeMatrix(generic._eval_matrix_mod_p(pts, n, d, p), p))[:8]
        else:  # b <= 8 small combinations of k <= b random rows: dependent ones too
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
            b = data.draw(st.integers(0, 8))
            k = data.draw(st.integers(0, b))
            vecs = rng.integers(0, 3, (b, k)) @ rng.integers(0, p, (k, N_d)) % p
        R = coefficient_rank(vecs, n, d, p)
        pairs = len(vecs) * (len(vecs) + 1) // 2
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3))
        for target in range(R, pairs + 2):
            for seed in seeds:
                assert generic.pair_products_rank(vecs, n, d, p, target, seed) == R
        assert generic.pair_products_rank(vecs, n, d, p) == R

    @pytest.mark.parametrize("n, d, s", [(4, 3, 10), (4, 3, 11), (5, 2, 14), (6, 3, 21)])
    def test_ik_instances_rank_from_one_row_above_the_bound(self, n, d, s, monkeypatch):
        shapes = []
        rank = generic.rank_mod_p
        monkeypatch.setattr(generic, "rank_mod_p", lambda M: shapes.append(M.shape) or rank(M))
        pts = generic._sample_instance(n, d, s, 3, DEFAULT_PRIMES)
        kern = kernel_basis_mod_p(PrimeMatrix(generic._eval_matrix_mod_p(pts, n, d, P1), P1))
        bound = dim_forms(n, 2 * d) - ik_expected(n, d, s)
        b = dim_forms(n, d) - s
        shapes.clear()
        assert generic._square_rank(pts, n, d, P1) == bound
        rows = min(bound + 1, b * (b + 1) // 2)
        assert shapes == [(rows, min(rows, dim_forms(n, 2 * d)))]
        assert generic.pair_products_rank(kern, n, d, P1) == bound

    def test_rank_one_above_the_bound_still_exits_5(self, monkeypatch, capsys):
        # with ik_expected one too high, the bound is one below the true rank
        # 44 of (4, 3, 10): K = 44 rows still show it, 43 would not
        expected = generic.ik_expected
        monkeypatch.setattr(generic, "ik_expected", lambda n, d, s: expected(n, d, s) + 1)
        with pytest.raises(InternalCheckError) as exc:
            dim_square_component(4, 3, 10, seed=3)
        assert (exc.value.report.computed, exc.value.report.expected) == (44, 43)
        assert main(["ik", "4", "3", "10"]) == 5
        assert "internal check violated" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_ik_30_2_460_peaks_below_200_mb(self):
        # 15 products at 15 points; a 465 x 40920 table of values at the
        # lattice |y| = 4 once held 152 MB per prime and made it peak at 430 MB.
        assert peak_kb(["ik", "30", "2", "460"]) <= 200 * 1024

    def test_witness_ranks_every_pair_product(self, monkeypatch):
        seen = []
        ranked = generic.pair_products_rank

        def spy(vectors, *args, **kwargs):
            seen.append((args, kwargs))
            return ranked(vectors, *args, **kwargs)

        shapes = []
        rank = generic.rank_mod_p
        monkeypatch.setattr(generic, "pair_products_rank", spy)
        monkeypatch.setattr(generic, "rank_mod_p", lambda M: shapes.append(M.shape) or rank(M))
        cert = build_witness(3, 4)
        b = len(cert.basis)
        assert seen and all(args[:2] == (3, 4) and len(args) == 3 and not kw
                            for args, kw in seen)
        pairs = b * (b + 1) // 2
        assert shapes and set(shapes) == {(pairs, min(pairs, dim_forms(3, 8)))}


class TestOneResidueMatrix:
    """Each large rank holds one uint32 matrix, written by its producer and
    eliminated in place: no second block the size of the matrix, which as
    int64 or float64 would take twice its bytes."""

    def test_typical_matrix_ranks_in_its_one_uint32_array(self):
        # the 1540 x 1330 ideal matrix of typical 4 9's seven forms
        n, d, r = 4, 9, 7
        forms = np.random.default_rng(1).integers(0, P1, (r, dim_forms(n, d)))
        product_index_table(n, d, d)  # cached: not part of the peak
        tracemalloc.start()
        try:
            M = generic._ideal_matrix(forms, n, d, P1)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert rank_mod_p(M) == 1330
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, cols = M.shape
        size = 4 * m * cols
        # float64 scratch: L (m x _OUTER), X's limbs and a panel's products
        # (a few _OUTER-row blocks) and a chunk's update (a few _CHUNK-row blocks)
        scratch = 8 * (linalg._OUTER * (m + 4 * cols) + 8 * linalg._CHUNK * cols)
        assert scratch < 2 * size
        assert built <= 1.1 * size
        assert peak <= size + scratch

    def test_squares_are_written_into_the_matrix_that_is_ranked(self, monkeypatch):
        # 60 vectors of N_{4,10} = 286: K = 1772 squares at m = N_{4,20} = 1771 points
        vecs = np.random.default_rng(2).integers(0, P1, (60, dim_forms(4, 10)))
        seen = []

        def stub(M):
            seen.append((tracemalloc.get_traced_memory()[1], M.arr.dtype, M.arr.nbytes))
            return 10**9  # above the target: no fallback

        monkeypatch.setattr(generic, "rank_mod_p", stub)
        tracemalloc.start()
        try:
            generic.pair_products_rank(vecs, 4, 10, P1)
        finally:
            tracemalloc.stop()
        [(peak, dtype, size)] = seen
        assert dtype == np.uint32 and size == 4 * 1772 * 1771
        assert peak <= 2 * size

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_typical_4_10_peaks_below_80_mb(self):
        # its 2288 x 1771 ideal matrix peaked at 108 MB as int64 rows, a
        # reduced int64 copy and a float64 copy
        assert peak_kb(["typical", "4", "10"]) <= 80 * 1024


class TestVanishingDimension:
    def test_dimensions(self):
        # the degree-d forms vanishing on s gated points: N_d - s of them
        for n, d, s, dim in ((3, 3, 6, 4), (4, 2, 9, 1), (3, 2, 6, 0)):
            points = generic._sample_instance(n, d, s, 2, (P1,))
            mat = PrimeMatrix(generic._eval_matrix_mod_p(points, n, d, P1), P1)
            assert len(kernel_basis_mod_p(mat)) == dim == dim_forms(n, d) - s


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

    def test_guard_counts_the_lattice_matrix(self, monkeypatch):
        # n=40, d=2, s=800: 210 x 123410 pair products pass the guard, but the
        # 820 x 123410 lattice values behind them do not
        def no_rank(*args):
            raise AssertionError("a guarded job was ranked")

        monkeypatch.setattr(generic, "_square_rank", no_rank)
        with pytest.raises(GuardError):
            dim_square_component(40, 2, 800)

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

    def test_every_trial_inconclusive_returns_the_last(self, monkeypatch):
        seeds = []
        square = generic.dim_square_component

        def counted(n, d, s, seed, **kwargs):
            seeds.append(seed)
            return square(n, d, s, seed=seed, **kwargs)

        monkeypatch.setattr(generic, "dim_square_component", counted)
        monkeypatch.setattr(generic, "_square_rank", lambda *a: 0)  # h = N_4, above 12
        rep = ik_verify(3, 2, 4, trials=3, seed=4)
        assert seeds == [derive_seed(4, "ik", 3, 2, 4, t) for t in range(3)]
        assert rep.seed == seeds[-1]
        assert rep.status is Status.INCONCLUSIVE_HIGH and rep.quantity is Quantity.HILBERT_H_2D
        assert (rep.computed, rep.expected) == (dim_forms(3, 4), ik_expected(3, 2, 4))


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


@pytest.fixture
def primes_ranked(monkeypatch):
    """The primes the rank experiments rank at, in call order: ``_experiment``
    runs with its rank callable wrapped to record each prime."""
    ranked = []
    experiment = generic._experiment

    def recording(sample, rank, what, **fields):
        def recorded(instance, p):
            ranked.append(p)
            return rank(instance, p)

        return experiment(sample, recorded, what, **fields)

    monkeypatch.setattr(generic, "_experiment", recording)
    return ranked


class TestVerdicts:
    """The verdict and resampling rules shared by the two-prime experiments.

    dim_square_component(3, 3, 6) has the proven rank bound N_6 - 18 = 10.
    With both default primes above it, the screening prime Q is ranked
    first."""

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

    def test_rank_meeting_the_bound_is_ranked_at_the_first_prime_only(self, primes_ranked):
        rep = dim_square_component(3, 3, 6, seed=8)
        assert (rep.computed, rep.expected, rep.status) == (10, 10, Status.VERIFIED)
        assert primes_ranked == [Q] and rep.primes == DEFAULT_PRIMES
        # the screening prime is the one ranked; the report lists the configured ones
        rep = dim_square_component(3, 3, 6, seed=8, primes=(P2, P1))
        assert rep.status is Status.VERIFIED and rep.primes == (P2, P1)
        assert primes_ranked == [Q, Q]
        # with a configured prime below Q, the first configured prime is ranked
        below = (8388587, 8388581)
        rep = dim_square_component(3, 3, 6, seed=8, primes=below)
        assert rep.status is Status.VERIFIED and rep.primes == below
        assert primes_ranked == [Q, Q, below[0]]
        primes_ranked.clear()
        reports = [ik_verify(3, 2, s, seed=4) for s in range(3, 6)]
        assert [r.status for r in reports] == [Status.VERIFIED] * 3
        assert typical_length(3, 2, seed=10).r_found == 3
        assert primes_ranked == [Q] * 4  # one rank per instance

    def test_first_prime_short_of_the_bound_ranks_every_prime(self, monkeypatch, primes_ranked):
        monkeypatch.setattr(generic, "_square_rank", lambda pts, n, d, p: 9)
        rep = dim_square_component(3, 3, 6, seed=8)
        assert (rep.computed, rep.status) == (9, Status.INCONCLUSIVE_HIGH)
        assert primes_ranked == [Q, P1, P2]

    @pytest.mark.parametrize("first", [9, 11])
    def test_first_prime_off_the_bound_and_the_second_disagreeing_resamples(
            self, monkeypatch, primes_ranked, first):
        monkeypatch.setattr(generic, "_square_rank",
                            lambda pts, n, d, p: {Q: first, P1: first, P2: 10}[p])
        with pytest.raises(GenericityError, match="prime disagreement"):
            dim_square_component(3, 3, 6, seed=8)
        assert primes_ranked == [Q, P1, P2] * generic._SAMPLE_ROUNDS

    def test_first_prime_above_the_bound_needs_agreement_to_fail(self, monkeypatch,
                                                                 primes_ranked, capsys):
        monkeypatch.setattr(generic, "_square_rank", lambda pts, n, d, p: 11)
        with pytest.raises(InternalCheckError, match="rank 11 exceeds the structural bound 10"):
            dim_square_component(3, 3, 6, seed=8)
        assert primes_ranked == [Q, P1, P2]
        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        assert main(["ik", "3", "3", "6"]) == 5
        assert primes_ranked == [Q, P1, P2] * 2
        assert "internal check violated" in capsys.readouterr().err

    def test_a_none_rank_resamples(self, monkeypatch, primes_ranked):
        # None (more kernel vectors than N_d - s) at every prime bounds
        # nothing, so the instance is resampled rather than reported
        instances = []

        def none_first(pts, n, d, p):
            instances.append(pts)
            return None if pts == instances[0] else 10

        monkeypatch.setattr(generic, "_square_rank", none_first)
        rep = dim_square_component(3, 3, 6, seed=8)
        assert (rep.computed, rep.status) == (10, Status.VERIFIED)
        assert primes_ranked == [Q, P1, P2, Q]
        monkeypatch.setattr(generic, "_square_rank", lambda pts, n, d, p: None)
        with pytest.raises(GenericityError, match="prime disagreement"):
            dim_square_component(3, 3, 6, seed=8)

    def test_no_expected_value_ranks_every_prime(self, primes_ranked):
        rep = generic_ideal_dim(3, 2, 1, seed=6)
        assert (rep.computed, rep.expected, rep.status) == (6, None, Status.VERIFIED)
        assert primes_ranked == [P1, P2]

    def test_second_prime_short_of_the_bound_is_never_asked(self, monkeypatch, primes_ranked):
        # the first prime meets the bound, so the second's shortfall, which
        # would be a disagreement in every round, is never computed; the
        # screening prime falls short, so the report comes from the first
        # prime: a build that took a screening rank below the bound fails here
        square_rank, rank = generic._square_rank, generic.rank_mod_p
        monkeypatch.setattr(generic, "_square_rank",
                            lambda pts, n, d, p: square_rank(pts, n, d, p) - (p in (Q, P2)))
        rep = ik_verify(3, 3, 6, seed=8)
        assert (rep.computed, rep.expected, rep.status) == (18, 18, Status.VERIFIED)
        assert rep.primes == DEFAULT_PRIMES
        monkeypatch.setattr(generic, "rank_mod_p", lambda M: rank(M) - (M.p in (Q, P2)))
        res = typical_length(3, 2, seed=10)
        assert (res.r_found, res.status.value) == (3, "Exact")
        assert primes_ranked == [Q, P1, Q, P1]


class TestScreeningPrime:
    """Experiments with a proven bound rank first at the screening prime Q
    when every configured prime exceeds it; a Q-rank settles an instance
    only when it equals the bound, and the report still lists the
    configured primes."""

    def test_screening_rank_below_the_bound_gives_way_to_the_first_prime(
            self, monkeypatch, primes_ranked):
        monkeypatch.setattr(generic, "_square_rank",
                            lambda pts, n, d, p: {Q: 9, P1: 10, P2: 10}[p])
        rep = dim_square_component(3, 3, 6, seed=8)
        assert (rep.computed, rep.expected, rep.status) == (10, 10, Status.VERIFIED)
        assert primes_ranked == [Q, P1] and rep.primes == DEFAULT_PRIMES

    def test_screening_rank_above_the_bound_never_fails_alone(self, monkeypatch, primes_ranked):
        monkeypatch.setattr(generic, "_square_rank",
                            lambda pts, n, d, p: {Q: 11, P1: 10, P2: 10}[p])
        rep = dim_square_component(3, 3, 6, seed=8)
        assert (rep.computed, rep.status) == (10, Status.VERIFIED)
        assert primes_ranked == [Q, P1]
        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        assert main(["ik", "3", "3", "6"]) == 0

    def test_points_congruent_mod_the_screening_prime_are_not_screened(
            self, monkeypatch, primes_ranked):
        # the second point is the first plus Q e1: generic at P1, but mod Q
        # only five points, whose kernel has one vector more.  Its rank, 13,
        # bounds nothing: with the bound patched to 13 it would be taken
        # as a certificate, while the rank of the six points is 10.
        pts = list(generic._sample_instance(3, 3, 6, 8, DEFAULT_PRIMES))
        pts[1] = (pts[0][0] + Q,) + pts[0][1:]
        assert generic._square_rank(pts, 3, 3, Q) is None
        assert generic._square_rank(pts, 3, 3, P1) == 10
        monkeypatch.setattr(generic, "_sample_instance", lambda *args: tuple(pts))
        rep = dim_square_component(3, 3, 6, seed=8)
        assert (rep.computed, rep.status) == (10, Status.VERIFIED)
        assert primes_ranked == [Q, P1]
        primes_ranked.clear()
        monkeypatch.setattr(generic, "ik_expected", lambda n, d, s: 15)  # bound 28 - 15
        rep = dim_square_component(3, 3, 6, seed=8)
        assert (rep.computed, rep.expected, rep.status) == (10, 13, Status.INCONCLUSIVE_HIGH)
        assert primes_ranked == [Q, P1, P2]

    @pytest.mark.parametrize("argv", [
        ["ik", "--sweep", "3", "4", "--prime", "7", "--prime2", "101"],
        ["ik", "--sweep", "3", "4", "--prime", "101", "--prime2", "103"],
        ["typical", "3", "3", "--prime", "7", "--prime2", "101"],
        ["typical", "3", "3", "--prime", P1, "--prime2", "101"],
    ])
    def test_a_configured_prime_below_it_turns_the_screen_off(self, argv, monkeypatch,
                                                               primes_ranked, capsys):
        monkeypatch.delenv("PYLAB_CACHE", raising=False)
        main([str(a) for a in argv])
        assert primes_ranked and Q not in primes_ranked


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

    def test_counting_bound_starts_the_only_run(self):
        # the r <= 2^(n-1) with r N_d - C(r,2) >= N_2d, the only ones that
        # can fill degree 2d, form one run that starts at lambda_lower
        for n in range(1, 16):
            r = np.arange(1, 2 ** (n - 1) + 1, dtype=np.int64)
            for d in range(1, 41):
                params = DegreeParams(n, d)
                assert params.N_2d < 2**62
                fills = np.flatnonzero(r * params.N_d - r * (r - 1) // 2 >= params.N_2d) + 1
                lower = lambda_lower(params)[1]
                if fills.size:
                    assert fills[0] == lower and fills[-1] - fills[0] == fills.size - 1
                else:
                    assert lower > r[-1]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            typical_length(3, 2, trials=trials)

    def test_inconclusive_trials_move_on_to_the_next_r(self, monkeypatch):
        # (3, 2) starts at r = 3, where 3 forms fill N_4 = 15 only generically:
        # ranked one short there, every trial is inconclusive and r = 4 is next
        attempts = []
        ideal = generic.generic_ideal_dim

        def counted(n, d, r, seed, **kwargs):
            rep = ideal(n, d, r, seed=seed, **kwargs)
            attempts.append((r, rep.seed, rep.status))
            return rep

        monkeypatch.setattr(generic, "generic_ideal_dim", counted)
        monkeypatch.setattr(generic, "rank_mod_p", lambda M: 15 if M.shape[0] > 3 * 6 else 14)
        res = typical_length(3, 2, seed=10, trials=3)
        assert (res.r_found, res.certified_lower, res.status.value) == (4, 3, "IntervalOnly")
        assert attempts == [
            (3, derive_seed(10, "typical", 3, 2, 3, t), Status.INCONCLUSIVE_HIGH) for t in range(3)
        ] + [(4, derive_seed(10, "typical", 3, 2, 4, 0), Status.VERIFIED)]


class TestWorkQueue:
    def test_serial_and_parallel_agree(self):
        jobs = [dict(n=3, d=2, s=s, trials=2, seed=3) for s in range(3, 6)]
        serial = run_jobs(ik_verify, jobs, parallelism=1)
        parallel = run_jobs(ik_verify, jobs, parallelism=2)
        assert serial == parallel
        assert [r.s for r in serial] == [3, 4, 5]

    def test_pool_has_at_most_one_worker_per_job(self, monkeypatch):
        # the real pool forks all its workers at the first submit, so a
        # recording stand-in checks the size asked for without forking
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)

        def double(x):
            return 2 * x

        jobs = [dict(x=x) for x in range(3)]
        assert run_jobs(double, jobs, parallelism=100_000) == [0, 2, 4]
        assert run_jobs(double, jobs, parallelism=2) == [0, 2, 4]
        assert sizes == [3, 2]
        assert run_jobs(double, jobs[:1], parallelism=8) == [0]
        assert run_jobs(double, [], parallelism=8) == []
        assert sizes == [3, 2]  # one job or none runs serially, with no pool
