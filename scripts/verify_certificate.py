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
  4. independent points: the s x N_d evaluation matrix of the points has
     rank s modulo one of the listed primes or of EXTRA_PRIMES (printed
     only when it fails), so the basis spans every degree-d form vanishing
     on the points
  5. rank evidence: the list of primes is not empty and the matrix of
     pairwise basis products has full row rank C(b+1, 2) modulo every
     listed prime

Exit status 0 if and only if every check passes.  A file that cannot be
read or lacks a field is reported as one INVALID line and counts as failed.
"""

import argparse
import functools
import itertools
import json
import math
import sys

# Primes tried after the listed ones for the independent-points check: a
# valid certificate fails it only if its rank drops modulo all of them.
EXTRA_PRIMES = (4294967291, 4294967279, 1000000007, 998244353)


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
    return tuple(out)


@functools.lru_cache(maxsize=1024)
def monomial_values(monos, coords):
    """Values of the monomials at one point, from per-variable power tables."""
    top = max((max(expo) for expo in monos), default=0)
    powers = [[x**k for k in range(top + 1)] for x in coords]
    values = []
    for expo in monos:
        val = 1
        for pw, a in zip(powers, expo):
            if a:
                val *= pw[a]
        values.append(val)
    return tuple(values)


def eval_vector(vec, monos, coords):
    return sum(c * v for c, v in zip(vec, monomial_values(tuple(monos), tuple(coords))) if c)


def rank_mod_p(rows, p):
    """Rank of an integer matrix modulo p.

    Each row is packed into one integer with a lane of ``size`` bytes per
    column, so a row update is one big-integer multiply-add.  An update
    adds t times the pivot row, its lanes reduced below p and t in [0, p),
    so lanes never borrow; a row takes at most one update per pivot, so
    its lanes stay below p + m p^2 and never carry into the next lane.  A
    lane is reduced mod p only where it is read.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    size = -(-(p + m * p * p).bit_length() // 8)
    bits = 8 * size
    mask = (1 << bits) - 1

    def pack(values):
        return int.from_bytes(b"".join((x % p).to_bytes(size, "little") for x in values), "little")

    packed = [pack(row) for row in rows]
    rank = 0
    for col in range(n):
        shift = col * bits
        piv = next((i for i in range(rank, m) if (packed[i] >> shift & mask) % p), None)
        if piv is None:
            continue
        packed[rank], packed[piv] = packed[piv], packed[rank]
        lanes = (packed[rank] >> shift).to_bytes((n - col) * size, "little")
        pivot = pack(int.from_bytes(lanes[k : k + size], "little") for k in range(0, len(lanes), size))
        inv = pow(pivot & mask, -1, p)
        pivot <<= shift
        for i in range(rank + 1, m):
            f = (packed[i] >> shift & mask) % p
            if f:
                packed[i] += (p - f) * inv % p * pivot
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
    # product[i][j]: position of monomial i times monomial j among monos_2d
    product = [[index_2d[tuple(a + c for a, c in zip(ei, ej))] for ej in monos_d] for ei in monos_d]
    N_d = math.comb(n + d - 1, n - 1)
    b = len(basis)
    failures = []

    def check(name, ok, quiet=False):
        if not (ok and quiet):
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
        nz = [(i, c) for i, c in enumerate(v) if c]
        for a, (i, ci) in enumerate(nz):
            row = product[i]
            total[row[i]] += ci * ci
            for j, cj in nz[a + 1 :]:
                total[row[j]] += 2 * ci * cj
    check("multiply-back: witness == sum of basis squares", total == list(witness))

    vanish = all(
        eval_vector(v, monos_d, pt) == 0 for v in basis for pt in points
    ) and all(eval_vector(witness, monos_2d, pt) == 0 for pt in points)
    check("vanishing: basis and witness vanish at every point", vanish)

    # The basis spans the forms vanishing on the points only if the points
    # impose s independent conditions.  Full rank mod any prime proves that;
    # a line is printed only when every prime tried fails.
    evaluation = [monomial_values(monos_d, tuple(pt)) for pt in points]
    check(
        f"independent points: evaluation matrix has rank s = {s} modulo a prime",
        any(rank_mod_p(evaluation, p) == s for p in [*cert["primes"], *EXTRA_PRIMES]),
        quiet=True,
    )

    expected_rank = b * (b + 1) // 2
    rank_ok = cert["injectivity_rank"] == expected_rank and len(cert["primes"]) > 0
    for p in cert["primes"]:
        reduced = [[c % p for c in v] for v in basis]
        rows = []
        for i in range(b):
            for j in range(i, b):
                row = [0] * len(monos_2d)
                nz_j = [(c, cc) for c, cc in enumerate(reduced[j]) if cc]
                for a, ca in enumerate(reduced[i]):
                    if ca:
                        pos = product[a]
                        for c, cc in nz_j:
                            row[pos[c]] += ca * cc
                rows.append(row)
        rank_ok = rank_ok and rank_mod_p(rows, p) == expected_rank
    check(f"rank evidence: pair products have rank C(b+1,2) = {expected_rank}", rank_ok)

    return failures


# What a missing, unreadable, non-JSON, too deeply nested or ill-shaped
# certificate raises; each is reported as one INVALID line instead of a
# traceback.
MALFORMED = (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError,
             RecursionError)


def main():
    # certificates of ternary forms from d = 13 on hold integers of more than
    # 4,300 digits, the default limit on int <-> str conversion since 3.10.7
    getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)(0)
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
