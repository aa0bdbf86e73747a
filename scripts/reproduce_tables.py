#!/usr/bin/env python3
"""Reproduce the headline tables and checks from the command line in one go.

Runs, in order:
  * the closed-form bounds table (n = 4..6, d = 2..8),
  * the ternary Hilbert identity h = 3*C(d+1,2) for d = 2..8,
  * the exceptional squared-ideal triples (3,2,5), (4,2,9), (5,2,14),
  * typical lengths t(3,2d) for d = 1..8 and t(4,2d) for d = 2..10,
  * the asymptotic-ratio convergence check for n = 4 and 5.

The largest rows, t(4,18) and t(4,20), take about a second each on a
2-core x86-64 Xeon; the whole script takes about 4 s there.
"""

import argparse
import sys
import time
from fractions import Fraction

from soslen.bounds import (
    DegreeParams,
    asymptotic_constants,
    binomial,
    cmp_abs_sqrt_diff,
    theta_lower,
)
from soslen.cli import paper_table_text
from soslen.generic import ik_verify, typical_length


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=271828)
    args = ap.parse_args()

    print("== bounds table (s_min / lower / upper) ==")
    print(paper_table_text())

    print("== ternary squared-ideal identity: h = 3*C(d+1,2) ==")
    for d in range(2, 9):
        rep = ik_verify(3, d, binomial(d + 1, 2), seed=args.seed)
        print(f"  d={d}: h={rep.computed} expected={rep.expected} {rep.status.value}")

    print("== exceptional triples (min rule) ==")
    for n, d, s in ((3, 2, 5), (4, 2, 9), (5, 2, 14)):
        rep = ik_verify(n, d, s, seed=args.seed)
        print(f"  (n={n}, d={d}, s={s}): h={rep.computed} expected={rep.expected} {rep.status.value}")

    print("== typical lengths ==")
    rows = [(3, d) for d in range(1, 9)] + [(4, d) for d in range(2, 11)]
    for n, d in rows:
        t0 = time.time()
        res = typical_length(n, d, seed=args.seed)
        print(
            f"  t({n},{2*d}) = {res.r_found}  [lower {res.certified_lower}, "
            f"cap {res.fos_cap}, {res.status.value}; {time.time()-t0:.1f}s]"
        )

    print("== asymptotic ratio theta/d^((n-1)/2) vs c_n (exact comparison) ==")
    for n in (4, 5):
        c_sq = asymptotic_constants(n)[0].squared()
        gaps = {}
        for d in (20, 200):
            theta = theta_lower(DegreeParams(n, d))
            gaps[d] = Fraction(theta * theta, d ** (n - 1))
        closer = cmp_abs_sqrt_diff(gaps[200], c_sq, gaps[20], c_sq) < 0
        print(f"  n={n}: gap at d=200 < gap at d=20: {closer}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
