"""Rational sums of squares with certified exact length.

A certificate is built from s random rational points: the witness form is
the sum of squares of a canonical basis of the degree-d forms vanishing on
them.  Its length is pinned from both sides.  The upper bound is the basis
size b = N_d - s.  For the lower bound, every summand of any
representation must vanish on the (real) points, hence lies in the span of
the basis; and the pairwise products of the basis are independent —
witnessed by full row rank of their coefficient matrix mod p, which
implies full rational rank — so the symmetric coefficient tensor of every
representation coincides with that of the basis representation, whose rank
is b.  The certified length claim is unconditional for the recorded
points; no conjecture enters.

The samples are gated by the exact rational rank of their degree-(d-1)
evaluation matrix, and the basis comes from the multimodular kernel of
``linalg``.  The package registers ``generic`` and ``linalg`` as lazy
modules, so they, and numpy with them, load at the first call that
``build_witness`` makes through them; loading, mixing and comparing
representations needs neither.

Representations, Gram tensors and mixes share one exact integer kernel.
Each vector's denominators are cleared once (u_k = D_k v_k), and the upper
triangle of L * sum_k v_k v_k^T, with L = lcm(D_k^2), is formed in integers
by column dot products.  The target check collapses it through the
monomial product table, counting each off-diagonal entry twice; the Gram
tensor is it divided by L and mirrored.  ``Fraction`` objects are built
only at that boundary.  A representation keeps the Gram that its target
check computed, so comparing two representations computes no other.

A new certificate's witness coefficients come from residues instead
(``_sum_of_squares_int``): the same collapse modulo the kernel's primes,
combined by CRT up to a proven bound, with no products of basis entries
thousands of bits long.  Representations stay exact and numpy-free:
importing numpy costs more than their whole Gram at (4,5) (from residues,
``mix`` and ``gramcheck`` ran 1.20x and 1.33x slower on such a
certificate), and their tensor and comparison need the Gram itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import mul
from pathlib import Path

from . import generic, linalg
from .bounds import DegreeParams, binomial, dim_forms, s_min
from .errors import CertificationError, GenericityError
from .fileio import canonical_json, write_atomic
from .primes import DEFAULT_PRIMES, DEFAULT_SEED
from .ring import Form, _cleared, _eval_rows_int, product_index_table

__all__ = [
    "COORD_BOUND",
    "SosRepresentation",
    "GramTensor",
    "LengthCertificate",
    "build_witness",
    "basis_representation",
    "gram_tensor",
    "gram_equivalent",
    "random_rational_orthogonal",
    "mix_representation",
    "random_mix",
    "save_certificate",
    "load_certificate",
    "save_representation",
    "load_sos_file",
]

# Point coordinates are drawn from [-COORD_BOUND, COORD_BOUND]: small enough
# to keep the kernel entries manageable, large enough that the genericity
# gate essentially always passes on the first round.
COORD_BOUND = 1000


@dataclass(frozen=True)
class _IntGram:
    """den * sum_k v_k v_k^T in integers, upper triangle by rows:
    ``upper[i][c]`` is the entry at (i, i + c)."""

    den: int
    upper: tuple[tuple[int, ...], ...]


def _int_gram(vectors) -> _IntGram:
    """The exact Gram sum_k v_k v_k^T of int or Fraction vectors, over the
    common denominator L = lcm(D_k^2), with (L / D_k^2) u_k u_k^T summed by
    one column dot product per upper-triangle entry."""
    us, dens = _cleared(vectors)
    den = math.lcm(*[D * D for D in dens])
    cols = list(zip(*us))
    weights = [den // (D * D) for D in dens]
    upper = []
    for i, col in enumerate(cols):
        wcol = col if den == 1 else list(map(mul, weights, col))
        upper.append(tuple(sum(map(mul, wcol, other)) for other in cols[i:]))
    return _IntGram(den, tuple(upper))


def _square_sum(gram: _IntGram, n: int, d: int) -> list:
    """Coefficients of the sum of squares whose Gram is ``gram``: each entry
    lands on the product of its two monomials, off the diagonal twice."""
    table = product_index_table(n, d, d)
    out = [0] * dim_forms(n, 2 * d)
    for i, row in enumerate(gram.upper):
        prod = table[i]
        out[prod[i]] += row[0]
        for j, g in enumerate(row[1:], i + 1):
            out[prod[j]] += 2 * g
    if gram.den == 1:
        return out
    return [Fraction(x, gram.den) for x in out]


def _sum_of_squares_int(vectors, n: int, d: int) -> list:
    """Coefficients of the sum of squares of degree-d coefficient vectors:
    ints for int vectors, exact for int or Fraction entries.

    The numerators c of L * sum_k v_k^2 = sum_k w_k u_k^2 come modulo the
    kernel's primes, a stack at a time: the Gram U^T diag(w) U mod p summed
    whole onto the products of its two monomials (so each off-diagonal
    entry counts twice), and |c| <= B = sum_k w_k (sum |u_k|)^2 is the
    symmetric residue once the CRT modulus exceeds 2 B.
    """
    import numpy as np  # here, not at the top: representations must not load it

    us, dens = _cleared(vectors)
    den = math.lcm(*[D * D for D in dens])
    weights = [den // (D * D) for D in dens]
    bound = sum(w * sum(map(abs, u)) ** 2 for w, u in zip(weights, us))
    N2 = dim_forms(n, 2 * d)
    index = np.array(product_index_table(n, d, d)).ravel()
    modulus, values = 1, [0] * N2
    for P, U in linalg._residue_stacks(us):
        W = np.array([[w % int(p) for w in weights] for p in P])  # all 1 for int vectors
        F = U.transpose(0, 2, 1) * W[:, None] % P[:, None, None]
        G = linalg.matmul_mod_p(F, U, P[:, None, None])
        sums = np.array([np.bincount(index, g.ravel(), N2) for g in G])  # < N_d p < 2^53
        modulus = linalg._crt_extend(modulus, values, P, sums.astype(np.int64) % P[:, None])
        if modulus > 2 * bound:
            break
    out = linalg._symmetric(values, modulus)
    return out if den == 1 else [Fraction(x, den) for x in out]


@dataclass(frozen=True)
class SosRepresentation:
    """A tuple of degree-d forms together with the sum of their squares.

    The constructor checks the target against the Gram of the summands and
    keeps that Gram for ``gram_tensor`` and ``gram_equivalent``.
    """

    summands: tuple[Form, ...]
    target: Form
    gram: _IntGram = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        if not self.summands:
            raise ValueError("need at least one summand")
        n, d = self.summands[0].n, self.summands[0].degree
        for q in self.summands:
            if q.n != n or q.degree != d:
                raise ValueError("summands must be forms of one (n, degree)")
        gram = _int_gram([q.coeffs for q in self.summands])
        object.__setattr__(self, "gram", gram)
        total = _square_sum(gram, n, d)
        if tuple(total) != self.target.coeffs or self.target.degree != 2 * d:
            raise ValueError("summand squares do not sum to the stated target")

    @property
    def n(self) -> int:
        return self.summands[0].n

    @property
    def d(self) -> int:
        return self.summands[0].degree


@dataclass(frozen=True)
class GramTensor:
    """Symmetric coefficient tensor sum(v_i v_i^T) in the full monomial basis."""

    n: int
    d: int
    matrix: tuple[tuple[Fraction, ...], ...]


def gram_tensor(rep: SosRepresentation) -> GramTensor:
    """Exact symmetric tensor of a representation; rank = dim span(summands)."""
    N = dim_forms(rep.n, rep.d)
    g = rep.gram
    mat = [[Fraction(0)] * N for _ in range(N)]
    for i, row in enumerate(g.upper):
        for j, x in enumerate(row, i):
            mat[i][j] = mat[j][i] = Fraction(x, g.den)
    return GramTensor(rep.n, rep.d, tuple(tuple(row) for row in mat))


def gram_equivalent(rep1: SosRepresentation, rep2: SosRepresentation) -> bool:
    """Whether two representations of one form are orthogonally equivalent.

    Over a real coefficient field equal tensors are equivalent
    representations and conversely, so exact entrywise comparison decides:
    G1 / L1 == G2 / L2 exactly when G1 L2 == G2 L1.
    """
    if (rep1.n, rep1.d) != (rep2.n, rep2.d):
        raise ValueError("representations live in different spaces")
    if rep1.target.coeffs != rep2.target.coeffs:
        raise ValueError("representations have different targets")
    g1, g2 = rep1.gram, rep2.gram
    return all(
        x * g2.den == y * g1.den
        for row1, row2 in zip(g1.upper, g2.upper)
        for x, y in zip(row1, row2)
    )


@dataclass(frozen=True)
class LengthCertificate:
    """Self-contained record pinning the exact sos length of the witness.

    The fields mirror the serialized format: integer points, the canonical
    integer basis of the vanishing forms (graded-lex coefficient order),
    the witness coefficients, and the injectivity evidence (primes at
    which the pair-product matrix reached full row rank).  ``to_dict``
    and ``from_dict`` read the field list, and how deep each field nests
    tuples, from the annotations below.
    """

    n: int
    d: int
    s: int
    primes: tuple[int, ...]
    seed: int
    points: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]
    witness: tuple[int, ...]
    length: int
    injectivity_rank: int

    def to_dict(self) -> dict:
        return {f.name: _nest(getattr(self, f.name), list, f.type.count("tuple"))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "LengthCertificate":
        return cls(**{f.name: _nest(data[f.name], tuple, f.type.count("tuple"))
                      for f in fields(cls)})


def _nest(value, kind, depth: int):
    """``value`` with its outer ``depth`` levels of sequences rebuilt as
    ``kind``: lists for JSON, tuples for the record."""
    return kind(_nest(v, kind, depth - 1) for v in value) if depth else value


def build_witness(
    n: int,
    d: int,
    s: int | None = None,
    seed: int = DEFAULT_SEED,
    primes=DEFAULT_PRIMES,
    allow_large: bool = False,
) -> LengthCertificate:
    """Construct a rational sum of squares whose exact length is N_d - s.

    Samples s integer points, checks that no degree-(d-1) form vanishes on
    them (full rational rank of their evaluation matrix), takes the
    canonical integer kernel basis of the degree-d evaluation matrix, and
    certifies injectivity of the pair-product map by full row rank mod p.
    Defaults to the smallest certifiable point count s_min(n, d).  A job
    whose pair-product rank builds a matrix of more than
    ``generic.MAX_DENSE_ENTRIES`` entries needs allow_large.
    """
    if n < 3 or d < 2:
        raise ValueError(f"witness construction needs n >= 3 and d >= 2, got ({n}, {d})")
    params = DegreeParams(n, d)
    N_d = params.N_d
    smallest = s_min(params)
    if s is None:
        s = smallest
    if not smallest <= s < N_d:
        raise ValueError(
            f"s={s} outside the certifiable range [{smallest}, {N_d}): below "
            f"s_min the pair products are forced dependent, at N_d the kernel is 0"
        )
    b = N_d - s
    target_rank = binomial(b + 1, 2)
    generic._check_pair_product_guard(b, n, d, allow_large, "witness job")
    N_prev = dim_forms(n, d - 1)
    injectivity_failed = False

    for rnd in range(generic._SAMPLE_ROUNDS):
        rng = random.Random(generic.derive_seed(seed, "witness", n, d, s, rnd))
        points = generic._raw_points(n, s, -COORD_BOUND, COORD_BOUND + 1, rng)

        if linalg.rank_rational(linalg.RationalMatrix(_eval_rows_int(points, n, d - 1))) != N_prev:
            continue
        basis = linalg.kernel_basis_rational(linalg.RationalMatrix(_eval_rows_int(points, n, d)))
        if len(basis) != b:  # the same test as degree-d evaluation rank != s
            continue

        evidence_primes = tuple(
            p for p in primes if generic.pair_products_rank(basis, n, d, p) == target_rank
        )
        if not evidence_primes:
            injectivity_failed = True
            continue

        witness_vec = _sum_of_squares_int(basis, n, d)

        # exact self-check: the witness vanishes on every point (the kernel
        # has already checked exactly that every basis vector does)
        for row2d, coords in zip(_eval_rows_int(points, n, 2 * d), points):
            if sum(a * c for a, c in zip(row2d, witness_vec)) != 0:
                raise CertificationError(f"witness does not vanish at {coords}")

        return LengthCertificate(
            n=n,
            d=d,
            s=s,
            primes=evidence_primes,
            seed=seed,
            points=tuple(points),
            basis=tuple(tuple(v) for v in basis),
            witness=tuple(witness_vec),
            length=b,
            injectivity_rank=target_rank,
        )

    if injectivity_failed:
        raise CertificationError(
            f"pair-product rank stayed below {target_rank} at every prime for "
            f"{generic._SAMPLE_ROUNDS} samples at (n={n}, d={d}, s={s})"
        )
    raise GenericityError(
        f"no rational sample of {s} points passed the exact rank gate in "
        f"{generic._SAMPLE_ROUNDS} rounds"
    )


def basis_representation(cert: LengthCertificate) -> SosRepresentation:
    """The certificate's own representation: squares of the kernel basis."""
    summands = [Form.from_coeffs(cert.n, cert.d, v) for v in cert.basis]
    target = Form.from_coeffs(cert.n, 2 * cert.d, cert.witness)
    return SosRepresentation(summands=tuple(summands), target=target)


# (leg, leg, hypotenuse): rational cos/sin pairs for exact rotations
PYTHAGOREAN_TRIPLES = (
    (3, 4, 5),
    (5, 12, 13),
    (8, 15, 17),
    (7, 24, 25),
    (20, 21, 29),
    (9, 40, 41),
    (12, 35, 37),
    (28, 45, 53),
)


def random_rational_orthogonal(size: int, seed: int):
    """Random orthogonal matrix with rational entries.

    Composed of 2*size + 2 Givens rotations with Pythagorean-triple cosines
    on random coordinate pairs, plus occasional sign flips.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rng = random.Random(seed)
    rows = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    if size == 1:
        return ((Fraction(rng.choice((1, -1))),),)
    for _ in range(2 * size + 2):
        i, j = rng.sample(range(size), 2)
        a, b, c = rng.choice(PYTHAGOREAN_TRIPLES)
        cs, sn = Fraction(a, c), Fraction(b, c)
        if rng.random() < 0.5:
            sn = -sn
        for row in rows:
            ri, rj = row[i], row[j]
            row[i] = cs * ri - sn * rj
            row[j] = sn * ri + cs * rj
        if rng.random() < 0.25:
            k = rng.randrange(size)
            for row in rows:
                row[k] = -row[k]
    return tuple(tuple(row) for row in rows)


def mix_representation(rep: SosRepresentation, matrix) -> SosRepresentation:
    """Right-multiply the summand tuple by an orthogonal matrix.

    New summand j is sum_i matrix[i][j] * p_i, formed in integers over the
    common denominator of its matrix column and the summands' own;
    orthogonality preserves the sum of squares, which the constructor
    re-verifies exactly.
    """
    m = len(rep.summands)
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise ValueError(f"mixing matrix must be {m}x{m}")
    us, dens = _cleared([q.coeffs for q in rep.summands])
    cols = list(zip(*us))
    new = []
    for j in range(m):
        # matrix[i][j] * p_i = (a / e) * u_i / D_i, over E = lcm(e * D_i)
        entries = [Fraction(matrix[i][j]) for i in range(m)]
        E = math.lcm(*[c.denominator * D for c, D in zip(entries, dens) if c])
        coefs = [c.numerator * (E // (c.denominator * D)) for c, D in zip(entries, dens)]
        coeffs = tuple(Fraction(sum(map(mul, coefs, col)), E) for col in cols)
        new.append(Form(rep.n, rep.d, coeffs))
    return SosRepresentation(summands=tuple(new), target=rep.target)


def random_mix(rep: SosRepresentation, seed: int) -> SosRepresentation:
    return mix_representation(rep, random_rational_orthogonal(len(rep.summands), seed))


def save_certificate(cert: LengthCertificate, path) -> None:
    write_atomic(path, canonical_json(cert.to_dict()))


def load_certificate(path) -> LengthCertificate:
    return LengthCertificate.from_dict(json.loads(Path(path).read_text()))


def representation_to_dict(rep: SosRepresentation) -> dict:
    return {
        "kind": "sos_representation",
        "n": rep.n,
        "d": rep.d,
        "summands": [[str(c) for c in q.coeffs] for q in rep.summands],
        "target": [str(c) for c in rep.target.coeffs],
    }


def representation_from_dict(data: dict) -> SosRepresentation:
    n, d = data["n"], data["d"]
    summands = tuple(Form.from_coeffs(n, d, vec) for vec in data["summands"])
    target = Form.from_coeffs(n, 2 * d, data["target"])
    return SosRepresentation(summands=summands, target=target)


def save_representation(rep: SosRepresentation, path) -> None:
    write_atomic(path, canonical_json(representation_to_dict(rep)))


def load_sos_file(path) -> SosRepresentation:
    """Load either a certificate or a representation file as a representation.

    A file that is not parseable JSON, is of neither shape, or has a missing
    or ill-typed field is a ValueError that names the file.
    """
    try:
        data = json.loads(Path(path).read_text())
        if "basis" in data and "witness" in data:
            return basis_representation(LengthCertificate.from_dict(data))
        if data.get("kind") == "sos_representation":
            return representation_from_dict(data)
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError,
            RecursionError) as exc:
        raise ValueError(f"{path} is malformed ({type(exc).__name__}: {exc})") from None
    raise ValueError(f"{path} is neither a certificate nor a representation file")
