"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything asserted here is exact integer arithmetic;
the stated runtime budgets are asserted too.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from soslen.bounds import (
    DegreeParams,
    Lambda_upper,
    asymptotic_constants,
    binomial,
    cmp_abs_sqrt_diff,
    dim_forms,
    scan_leep_vs_lambda,
    theta_lower,
)
from soslen.cli import paper_table_text
from soslen.generic import Status, ik_verify, typical_length
from soslen.linalg import DEFAULT_PRIMES, RationalMatrix, kernel_basis_rational
from soslen.ring import mono_rank, mono_unrank, monomials
from soslen.witness import basis_representation, build_witness, gram_equivalent, random_mix
from test_linalg import reference_rank_rational

SEED_A = 20101
SEED_B = 56001

# reports from the experiment criteria, checked globally by criterion 7
ALL_REPORTS = []

PAPER_TABLE_ROWS = {
    "s_min(4,d):": [5, 12, 24, 41, 65, 97, 137],
    "p(4,2d)≥:": [5, 8, 11, 15, 19, 23, 28],
    "p(4,2d)≤:": [7, 11, 16, 22, 29, 36, 43],
    "s_min(5,d):": [8, 21, 48, 94, 166, 273, 422],
    "p(5,2d)≥:": [7, 14, 22, 32, 44, 57, 73],
    "p(5,2d)≤:": [11, 20, 30, 44, 59, 77, 97],
    "s_min(6,d):": [10, 34, 88, 192, 374, 670, 1123],
    "p(6,2d)≥:": [11, 22, 38, 60, 88, 122, 164],
    "p(6,2d)≤:": [15, 29, 50, 77, 110, 152, 201],
}


def _report(num: int, elapsed: float, budget: float, detail: str):
    print(f"[criterion {num}] PASS ({elapsed:.2f}s / budget {budget:.0f}s): {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_paper_table_reproduction():
    t0 = time.time()
    text = paper_table_text()
    parsed = {
        line.split()[0]: [int(x) for x in line.split()[1:]]
        for line in text.splitlines()
        if line
    }
    count = 0
    for label, expected in PAPER_TABLE_ROWS.items():
        assert parsed[label] == expected, f"row {label} deviates"
        count += len(expected)
    assert count == 63
    _report(1, time.time() - t0, 1.0, "all 63 table numbers match")


def test_criterion_2_lambda_identity_and_exceptional_pairs():
    t0 = time.time()
    for d in range(1, 51):
        surd, floor = Lambda_upper(DegreeParams(3, d))
        assert surd.exact() == 2 * d + 1 and floor == 2 * d + 1
    hits = scan_leep_vs_lambda(range(4, 11), range(1, 101))
    assert [(n, 2 * d) for n, d, _, _ in hits] == [(4, 6), (4, 8), (4, 10)]
    assert [lam for *_, lam in hits] == [12, 17, 23]
    assert all(L == lam - 1 for _, _, L, lam in hits)
    _report(2, time.time() - t0, 1.0,
            "Lambda(3,2d)=2d+1 for d=1..50; exceptional pairs exactly {(4,6),(4,8),(4,10)}")


def test_criterion_3_ternary_hilbert_identity():
    t0 = time.time()
    for d in range(2, 11):
        s = binomial(d + 1, 2)
        for seed in (SEED_A, SEED_B):
            rep = ik_verify(3, d, s, seed=seed)
            ALL_REPORTS.append(rep)
            assert rep.status is Status.VERIFIED, (d, seed, rep)
            assert rep.computed == 3 * s
            assert rep.primes == DEFAULT_PRIMES
    _report(3, time.time() - t0, 30.0,
            "h = 3*C(d+1,2) verified for d=2..10 at both primes, two seeds each")


def test_criterion_4_ik_sweep():
    t0 = time.time()
    checked = 0
    exceptional = {(3, 2, 5): 14, (4, 2, 9): 34, (5, 2, 14): 69}
    for n in (3, 4, 5):
        for d in (2, 3):
            for s in range(dim_forms(n, d - 1), dim_forms(n, d)):
                rep = ik_verify(n, d, s, seed=SEED_A)
                ALL_REPORTS.append(rep)
                assert rep.status is Status.VERIFIED, (n, d, s, rep)
                if (n, d, s) in exceptional:
                    assert rep.computed == exceptional[(n, d, s)]
                checked += 1
    assert checked == 53
    _report(4, time.time() - t0, 300.0,
            f"{checked} instances verified incl. the three min-rule triples")


def test_criterion_5_typical_lengths():
    t0 = time.time()
    expected = {(3, 1): 3, (3, 2): 3}
    expected.update({(3, d): 4 for d in range(3, 9)})
    expected.update({(4, d): 5 for d in range(2, 5)})
    expected.update({(4, d): 6 for d in range(5, 9)})
    expected.update({(4, d): 7 for d in (9, 10)})
    for (n, d), t_val in expected.items():
        res = typical_length(n, d, seed=SEED_A)
        assert res.r_found == t_val, (n, d, res)
        assert res.certified_lower <= res.r_found <= 2 ** (n - 1)
    _report(5, time.time() - t0, 600.0,
            "t(3,2d) for d=1..8 and t(4,2d) for d=2..10 all reproduced")


def test_criterion_6_certified_lengths(tmp_path):
    t0 = time.time()
    cert_paths = []
    for d in range(2, 7):
        cert = build_witness(3, d, binomial(d + 1, 2), seed=SEED_A)
        assert cert.length == d + 1, (d, cert.length)
        path = tmp_path / f"cert_3_{d}.json"
        path.write_text(_cert_json(cert))
        cert_paths.append(str(path))
    cert44 = build_witness(4, 2, 5, seed=SEED_A)
    assert cert44.length == 5
    path44 = tmp_path / "cert_4_2.json"
    path44.write_text(_cert_json(cert44))
    cert_paths.append(str(path44))

    checker = Path(__file__).resolve().parents[1] / "scripts" / "verify_certificate.py"
    proc = subprocess.run(
        [sys.executable, str(checker), *cert_paths], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("certificate valid") == 6
    _report(6, time.time() - t0, 120.0,
            "lengths d+1 (d=2..6) and 5 at (4,2,5); all re-verified independently")


def _cert_json(cert):
    import json

    return json.dumps(cert.to_dict(), sort_keys=True) + "\n"


def test_criterion_7a_proven_inequality_never_violated():
    t0 = time.time()
    assert ALL_REPORTS, "experiment criteria must run first"
    for rep in ALL_REPORTS:
        assert rep.expected is None or rep.computed >= rep.expected
    _report(7, time.time() - t0, 60.0,
            f"7a: h >= expected on all {len(ALL_REPORTS)} recorded instances")


def test_criterion_7b_two_prime_agreement():
    t0 = time.time()
    for rep in ALL_REPORTS:
        assert rep.primes == DEFAULT_PRIMES  # agreement enforced at creation
    _report(7, time.time() - t0, 60.0, "7b: every instance ran and agreed at both primes")


def test_criterion_7c_monomial_bijection_exhaustive():
    t0 = time.time()
    checked = 0
    for n in range(1, 11):
        for e in range(0, 41):
            N = dim_forms(n, e)
            if N > 10**4:
                break
            monos = monomials(n, e)
            oracle = sorted(
                (
                    tuple(
                        c - p - 1
                        for c, p in zip(cuts + (e + n - 1,), (-1,) + cuts)
                    )
                    for cuts in itertools.combinations(range(e + n - 1), n - 1)
                ),
                reverse=True,
            )
            assert list(monos) == oracle
            for idx, m in enumerate(monos):
                assert mono_rank(m) == idx and mono_unrank(n, e, idx) == m
            checked += N
    _report(7, time.time() - t0, 60.0, f"7c: bijection exhaustive over {checked} monomials")


def test_criterion_7d_gram_invariance_100_mixes():
    t0 = time.time()
    cert = build_witness(3, 3, 6, seed=SEED_A)
    rep = basis_representation(cert)
    for seed in range(100):
        mixed = random_mix(rep, seed)
        assert gram_equivalent(rep, mixed)
    _report(7, time.time() - t0, 60.0, "7d: gram tensor invariant under 100 random mixes")


def test_criterion_7e_kernel_multiply_back_100():
    t0 = time.time()
    rng = random.Random(SEED_A)
    for _ in range(100):
        m, n = rng.randrange(1, 9), rng.randrange(1, 13)
        rows = [
            [Fraction(rng.randrange(-60, 61), rng.randrange(1, 14)) for _ in range(n)]
            for _ in range(m)
        ]
        M = RationalMatrix(rows)
        kern = kernel_basis_rational(M)
        assert len(kern) == n - reference_rank_rational(M)
        for v in kern:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
    _report(7, time.time() - t0, 60.0, "7e: exact multiply-back on 100 random matrices")


def test_criterion_8_asymptotic_convergence():
    t0 = time.time()
    for n in (4, 5):
        c_sq = asymptotic_constants(n)[0].squared()
        gap = {}
        for d in (20, 200):
            theta = theta_lower(DegreeParams(n, d))
            gap[d] = Fraction(theta * theta, d ** (n - 1))  # exact ratio squared
        assert cmp_abs_sqrt_diff(gap[200], c_sq, gap[20], c_sq) < 0
    _report(8, time.time() - t0, 1.0,
            "theta/d^((n-1)/2) strictly closer to c_n at d=200 than at d=20 for n=4,5")
