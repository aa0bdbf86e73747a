#!/usr/bin/env python3
"""Standalone re-verifier for sos length certificate files.

Deliberately independent of the package that writes the certificates:
plain standard-library integer arithmetic only.  A certificate file holds
{n, d, s, primes, seed, points, basis, witness, length, injectivity_rank}
with all coefficient vectors indexed by degree-graded lexicographic
monomial order (x1 > x2 > ... > xn, descending).

Checks performed:
  1. shape: length == len(basis) == C(n+d-1, n-1) - s, vector lengths match
  2. multiply-back: witness == sum of squares of the basis vectors (exact)
  3. vanishing: every basis vector and the witness vanish at every point
  4. rank evidence: the matrix of pairwise basis products has full row
     rank C(b+1, 2) modulo every listed prime

Exit status 0 if and only if every check passes.  A file that cannot be
read or lacks a field is reported as one INVALID line and counts as failed.
"""

import argparse
import itertools
import json
import math
import sys


def monomials(n, e):
    """Degree-e exponent vectors in n variables, descending lex order."""
    out = []
    for cuts in itertools.combinations(range(e + n - 1), n - 1):
        prev = -1
        expo = []
        for c in cuts:
            expo.append(c - prev - 1)
            prev = c
        expo.append(e + n - 2 - prev)
        out.append(tuple(expo))
    out.sort(reverse=True)
    return out


def eval_vector(vec, monos, coords):
    total = 0
    for c, expo in zip(vec, monos):
        if c:
            term = c
            for x, a in zip(coords, expo):
                term *= x**a
            total += term
    return total


def rank_mod_p(rows, p):
    rows = [[x % p for x in row] for row in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, m):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def verify(cert):
    n, d, s = cert["n"], cert["d"], cert["s"]
    basis, witness, points = cert["basis"], cert["witness"], cert["points"]
    monos_d = monomials(n, d)
    monos_2d = monomials(n, 2 * d)
    index_2d = {m: i for i, m in enumerate(monos_2d)}
    N_d = math.comb(n + d - 1, n - 1)
    b = len(basis)
    failures = []

    def check(name, ok):
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    check(
        "shape: length == #basis == N_d - s, vector lengths match",
        cert["length"] == b == N_d - s
        and all(len(v) == N_d for v in basis)
        and len(witness) == len(monos_2d)
        and len(points) == s
        and all(len(pt) == n for pt in points),
    )

    total = [0] * len(monos_2d)
    for v in basis:
        for i, ci in enumerate(v):
            if ci:
                ei = monos_d[i]
                for j, cj in enumerate(v):
                    if cj:
                        k = index_2d[tuple(a + c for a, c in zip(ei, monos_d[j]))]
                        total[k] += ci * cj
    check("multiply-back: witness == sum of basis squares", total == list(witness))

    vanish = all(
        eval_vector(v, monos_d, pt) == 0 for v in basis for pt in points
    ) and all(eval_vector(witness, monos_2d, pt) == 0 for pt in points)
    check("vanishing: basis and witness vanish at every point", vanish)

    expected_rank = b * (b + 1) // 2
    rank_ok = cert["injectivity_rank"] == expected_rank
    for p in cert["primes"]:
        rows = []
        for i in range(b):
            for j in range(i, b):
                row = [0] * len(monos_2d)
                for a, ca in enumerate(basis[i]):
                    if ca:
                        ei = monos_d[a]
                        for c, cc in enumerate(basis[j]):
                            if cc:
                                k = index_2d[tuple(x + y for x, y in zip(ei, monos_d[c]))]
                                row[k] += ca * cc
                rows.append(row)
        rank_ok = rank_ok and rank_mod_p(rows, p) == expected_rank
    check(f"rank evidence: pair products have rank C(b+1,2) = {expected_rank}", rank_ok)

    return failures


# What a missing, unreadable, non-JSON or ill-shaped certificate raises;
# each is reported as one INVALID line instead of a traceback.
MALFORMED = (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("certificates", nargs="+", help="certificate JSON files")
    args = ap.parse_args()
    bad = 0
    for path in args.certificates:
        try:
            with open(path) as fh:
                cert = json.load(fh)
            print(f"{path}: n={cert['n']} d={cert['d']} s={cert['s']} claimed length {cert['length']}")
            failures = verify(cert)
        except MALFORMED as exc:
            bad += 1
            print(f"{path}: INVALID (malformed certificate: {type(exc).__name__}: {exc})")
            continue
        if failures:
            bad += 1
            print(f"{path}: INVALID ({len(failures)} failed checks)")
        else:
            print(f"{path}: certificate valid, sos length = {cert['length']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
