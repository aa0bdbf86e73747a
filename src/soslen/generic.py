"""Generic instances and dimension experiments over prime fields.

Every dimension count here is probabilistic only in the completeness
direction: a rank computed mod p never exceeds the rational rank of the
same integer instance, and the instance rank never exceeds the generic
rank.  So whenever a computed Hilbert-function value meets its proven
lower bound, that single instance is an unconditional certificate; excess
values only ever trigger resampling, never refutation.

Every experiment ranks its integer instance at the first prime (after
``SCREEN_PRIME`` when it has one) and reports the first rank that meets the
proven bound; only a rank short of the bound or above it (or an experiment
with no bound) is ranked at the other primes too, and then they must agree.
Coordinates are sampled below the smaller prime so one point set serves
every modulus, and gated at the prime ranked first, by its rank's RREF.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .bounds import MAX_BITS, DegreeParams, binomial, dim_forms, lambda_lower
from .errors import GenericityError, GuardError, InternalCheckError
from .linalg import _CHUNK, PrimeMatrix, _kernel_from_rref, matmul_mod_p, rank_mod_p, rref_mod_p
from .primes import DEFAULT_PRIMES, DEFAULT_SEED, SCREEN_PRIME, sha256
from .ring import monomials, product_index_table

__all__ = [
    "DEFAULT_SEED",
    "MAX_DENSE_ENTRIES",
    "derive_seed",
    "Quantity",
    "Status",
    "DimensionReport",
    "pair_products_rank",
    "dim_square_component",
    "EXCEPTIONAL_TRIPLES",
    "ik_range",
    "ik_expected",
    "ik_verify",
    "generic_ideal_dim",
    "TypicalStatus",
    "TypicalLengthResult",
    "typical_length",
    "run_jobs",
]

MAX_DENSE_ENTRIES = 40_000_000
# No job may hold more dense entries (16 GiB as uint32), whatever
# allow_large says: about 100 times the guard, far above every job the tests
# and benchmark run (``typical 6 6`` ranks about 4 * 10^7 entries).
_CEILING = 2**32
_SAMPLE_ROUNDS = 5


def derive_seed(base: int, *tags) -> int:
    """Stable 64-bit seed derived from a base seed and hashable tags."""
    digest = sha256(repr((int(base), tags)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Quantity(str, Enum):
    DIM_SQUARE_COMPONENT_2D = "DimSquareComponent_2d"
    HILBERT_H_2D = "HilbertH2d"
    GENERIC_IDEAL_DIM_M_R = "GenericIdealDim_m_r"


class Status(str, Enum):
    VERIFIED = "Verified"
    INCONCLUSIVE_HIGH = "InconclusiveHigh"
    INTERNAL_ERROR = "InternalError"


@dataclass(frozen=True)
class DimensionReport:
    """Outcome of one rank experiment, replayable from (args, seed, primes).
    The fields are declared in the order of the CSV columns."""

    quantity: Quantity
    n: int
    d: int
    s: int | None
    r: int | None
    computed: int
    expected: int | None
    status: Status
    seed: int
    primes: tuple[int, ...]

    def to_dict(self) -> dict:
        return {**vars(self), "quantity": self.quantity.value,
                "status": self.status.value, "primes": list(self.primes)}


def _raw_points(n: int, s: int, lo: int, hi: int, rng: random.Random) -> list[tuple[int, ...]]:
    """s nonzero integer points with coordinates drawn from [lo, hi)."""
    pts = []
    for _ in range(s):
        while True:
            coords = tuple(rng.randrange(lo, hi) for _ in range(n))
            if any(coords):
                break
        pts.append(coords)
    return pts


@lru_cache(maxsize=None)
def _factors(n: int, e: int) -> np.ndarray:
    """Read-only N_{n,e} x e variables of the degree-e monomials, in
    ``monomials`` order: x1^2 x3 is [0, 0, 2]."""
    monos = np.array(monomials(n, e), dtype=np.int64)
    factors = np.repeat(np.tile(np.arange(n), len(monos)), monos.ravel()).reshape(len(monos), e)
    factors.flags.writeable = False
    return factors


def _eval_matrix_mod_p(points, n: int, e: int, p: int):
    """s x N_{n,e} matrix of monomial values at the points, reduced mod p,
    as the transpose of a C-contiguous array.

    Coordinates may be any integers that fit int64 (negative ones too).
    Every value is below p <= 3037000499, so each product of two is below
    2^63 and the int64 arithmetic is exact.
    """
    X = np.asarray(points, dtype=np.int64).reshape(len(points), n).T.copy() % p
    factors = _factors(n, e)
    vals = X[factors[:, 0]] if e else np.ones((1, len(points)), dtype=np.int64)
    for k in range(1, e):
        vals *= X[factors[:, k]]
        vals %= p
    return vals.T


@lru_cache(maxsize=1)
def _eval_rref(points: tuple, n: int, d: int, p: int):
    """Read-only RREF mod p and pivots of the degree-d evaluation matrix of
    the last instance, which the gate and the square rank share."""
    R, pivots = rref_mod_p(PrimeMatrix(_eval_matrix_mod_p(points, n, d, p), p))
    R.flags.writeable = False
    return R, tuple(pivots)


def _gate_ok(points, n: int, d: int, p: int) -> bool:
    """Genericity gate: maximal evaluation rank, and no forms of degree d-1
    vanish on the whole set whenever the point count allows that check.
    E_d's first N_{d-1} columns are diag(x1) E_{d-1}: E_{d-1} is ranked
    itself only if their pivots fall short and some x1 is 0 mod p."""
    s, N_prev = len(points), dim_forms(n, d - 1)
    pivots = _eval_rref(tuple(map(tuple, points)), n, d, p)[1]
    return len(pivots) == min(s, dim_forms(n, d)) and (
        s < N_prev or sum(c < N_prev for c in pivots) == N_prev
        or (any(pt[0] % p == 0 for pt in points)
            and rank_mod_p(PrimeMatrix(_eval_matrix_mod_p(points, n, d - 1, p), p)) == N_prev))


def _first_prime(primes, expected) -> int:
    """The prime an experiment ranks first: ``SCREEN_PRIME`` if it has a
    proven bound and every configured prime exceeds it, else the first."""
    return SCREEN_PRIME if expected is not None and min(primes) > SCREEN_PRIME else primes[0]


def _sample_instance(n, d, s, seed, primes):
    """Integer point set passing the gate at ``_first_prime``, or
    GenericityError.  Coordinates lie below the smallest prime, so the one
    set serves every modulus.  A gate passed mod p also passes over Q; an
    instance that is not generic at another prime shows up there as a
    disagreement or a None rank, and ``_experiment`` resamples it."""
    bound, p = min(primes), _first_prime(primes, _expected_square_rank(n, d, s))
    for rnd in range(_SAMPLE_ROUNDS):
        rng = random.Random(derive_seed(seed, "points", rnd))
        pts = _raw_points(n, s, 0, bound, rng)
        if _gate_ok(pts, n, d, p):
            return tuple(pts)
    raise GenericityError(
        f"no generic sample of {s} points found in {_SAMPLE_ROUNDS} rounds at "
        f"(n={n}, d={d}); prime too small or pathological parameters"
    )


def _pair_product_rows(vecs: np.ndarray, n: int, d: int, prime: int) -> PrimeMatrix:
    """C(b+1,2) x N_{2d} coefficient rows mod prime of the products v_i v_j,
    i <= j, in that order, for residue rows ``vecs``: row (i, j) is v_j
    times the multiples v_i x^beta of ``_ideal_matrix``."""
    b = len(vecs)
    M = PrimeMatrix.zeros((b * (b + 1) // 2, dim_forms(n, 2 * d)), prime)
    row = 0
    for i in range(b):
        ideal = _ideal_matrix(vecs[i : i + 1], n, d, prime).arr
        matmul_mod_p(vecs[i:], ideal, prime, out=M.arr[row : row + b - i])
        row += b - i
    return M


def pair_products_rank(vectors, n: int, d: int, prime: int, target=None, seed=0) -> int:
    """Rank R mod prime of the coefficient matrix of the C(b+1,2) pairwise
    products of degree-d coefficient vectors (any integers; reduced here),
    when R <= ``target`` (default min(C(b+1,2), N_{2d})); above it, a value
    from ``target`` up to R.  Full row rank certifies rational independence.

    It ranks the squares (U G)_k^2 of K = min(target + 1, C(b+1,2)) random
    combinations of G, the vectors' values at m = min(K, N_{2d}) random
    points; U and then the points are the little-endian 64-bit words of
    ``random.Random(seed).randbytes``, mod prime.  The squares combine the
    products and the columns evaluate them, so that rank is at most R, and
    short of it with probability at most 2(d+1)R/p where some U and points
    reach R (Schwartz, JACM 1980; Zippel, EUROSAM 1979).  A rank reaching a
    target >= R is R; one below it gives way to the coefficient rows' rank,
    exact at every prime.  So U and the points decide only whether that
    fallback runs, never the value.
    """
    vecs = PrimeMatrix(vectors, prime, cols=dim_forms(n, d)).arr
    b, N_2d = len(vecs), dim_forms(n, 2 * d)
    pairs = b * (b + 1) // 2
    target = min(pairs, N_2d) if target is None else target
    K = min(target + 1, pairs)
    words = np.frombuffer(random.Random(seed).randbytes(8 * K * (b + n)), dtype="<u8")
    words = (words % np.uint64(prime)).astype(np.int64)
    U, points = words[: K * b].reshape(K, b), words[K * b :].reshape(K, n)[: min(K, N_2d)]
    G = matmul_mod_p(vecs, _eval_matrix_mod_p(points, n, d, prime).T, prime)
    squares = PrimeMatrix.zeros((K, len(points)), prime)
    S = matmul_mod_p(U, G, prime, out=squares.arr)
    for i in range(0, K, _CHUNK):  # squared in int64 by chunk, below prime^2 < 2^63
        X = S[i : i + _CHUNK].astype(np.int64)
        np.remainder(X * X, prime, out=S[i : i + _CHUNK], casting="unsafe")
    rank = rank_mod_p(squares)
    if rank < target:
        return rank_mod_p(_pair_product_rows(vecs, n, d, prime))
    return rank


def _expected_square_rank(n: int, d: int, s: int) -> int | None:
    """The proven bound N_{2d} - ik_expected on the square-component rank."""
    if n >= 3 and d >= 2 and s in ik_range(n, d):
        return dim_forms(n, 2 * d) - ik_expected(n, d, s)
    return None


def _square_rank(points, n: int, d: int, p: int) -> int | None:
    """Rank of the pairwise products of a vanishing-ideal basis, with the
    proven bound as the target: a rank above it still shows.  None if the
    kernel mod p has more than N_d - s vectors, more than the rational
    kernel reduced, whose rank bounds nothing (the gate rules that out at
    the prime ranked first, whose RREF the kernel is read from)."""
    key = tuple(map(tuple, points))
    kern = _kernel_from_rref(*_eval_rref(key, n, d, p), p)
    if len(kern) != dim_forms(n, d) - len(points):
        return None
    seed = derive_seed(p, "compress", key)
    return pair_products_rank(kern, n, d, p, _expected_square_rank(n, d, len(points)), seed)


def _check_guard(entries: int, allow_large: bool, what: str):
    if entries > _CEILING:
        raise GuardError(
            f"{what} needs a dense matrix with {entries} entries "
            f"(> {_CEILING}), more than --allow-large admits"
        )
    if entries > MAX_DENSE_ENTRIES and not allow_large:
        raise GuardError(
            f"{what} needs a dense matrix with {entries} entries "
            f"(> {MAX_DENSE_ENTRIES}); pass allow_large/--allow-large to run it"
        )


def _check_pair_product_guard(b: int, n: int, d: int, allow_large: bool, what: str):
    """Guard a pair-product rank of b vectors by its exact fallback, which
    holds C(b+1,2) x N_{2d} coefficient rows and builds one N_d x N_{2d}
    ``_ideal_matrix`` block per vector (405 MB each at ``ik 40 2 800``)."""
    _check_guard(max(binomial(b + 1, 2), dim_forms(n, d)) * dim_forms(n, 2 * d), allow_large, what)


def _check_square_guard(n: int, d: int, s: int, allow_large: bool):
    """Guard the square-component job of s points, whose vanishing ideal
    has N_d - s basis vectors in degree d."""
    _check_pair_product_guard(dim_forms(n, d) - s, n, d, allow_large, "square-component job")


def _check_ideal_guard(r: int, params: DegreeParams, allow_large: bool):
    """Guard the r N_d x N_{2d} ideal matrix of r degree-d forms."""
    _check_guard(r * params.N_d * params.N_2d, allow_large, "generic-ideal job")


def _experiment(sample, rank, what: str, **fields) -> DimensionReport:
    """Report, with ``fields``, the rank ``rank(instance, p)`` of the first
    instance ``sample(rnd)`` that is settled (GenericityError after
    _SAMPLE_ROUNDS rounds).  A rank equal to the expected value at
    ``_first_prime`` or at the first prime settles it alone: a rank mod p
    never exceeds the rational rank, which never exceeds the proven bound,
    so other primes could only fall short.  Any other first-prime rank
    settles it only if every prime ranks alike and none is None (no bound).
    Verified if it meets the expected value (or none is set),
    InconclusiveHigh below it; above it a proven bound failed, so raise
    InternalCheckError with ``what`` formatted by the report."""
    first, *others = fields["primes"]
    screen = _first_prime(fields["primes"], fields["expected"])
    for rnd in range(_SAMPLE_ROUNDS):
        instance = sample(rnd)
        if screen != first and rank(instance, screen) == fields["expected"]:
            ranks = {fields["expected"]}
            break
        ranks = {rank(instance, first)}
        if ranks != {fields["expected"]}:
            ranks.update(rank(instance, p) for p in others)
        if len(ranks) == 1 and None not in ranks:
            break
    else:
        where = ", ".join(f"{k}={fields[k]}" for k in "ndsr" if fields[k] is not None)
        raise GenericityError(
            f"prime disagreement persisted for {_SAMPLE_ROUNDS} samples at ({where})"
        )
    report = DimensionReport(computed=ranks.pop(), status=Status.VERIFIED, **fields)
    if report.expected is None or report.computed == report.expected:
        return report
    if report.computed < report.expected:
        return replace(report, status=Status.INCONCLUSIVE_HIGH)
    raise InternalCheckError(
        what.format(**vars(report)), report=replace(report, status=Status.INTERNAL_ERROR)
    )


def _first_verified(run, trials: int) -> DimensionReport:
    """The first Verified report of run(0), ..., run(trials - 1), else the last."""
    for t in range(trials):
        report = run(t)
        if report.status is Status.VERIFIED:
            break
    return report


def dim_square_component(
    n: int,
    d: int,
    s: int,
    seed: int = DEFAULT_SEED,
    primes=DEFAULT_PRIMES,
    allow_large: bool = False,
) -> DimensionReport:
    """Dimension of span{p_i p_j} for a vanishing-ideal basis of s generic points.

    The first prime's rank settles the instance when it meets the proven
    bound; otherwise every prime must agree (see ``_experiment``).  The
    report carries the rank facet; the Hilbert-function value is N_{2d} -
    computed.  A rank above the conjectured dimension would break a proven
    inequality and raises InternalCheckError.
    """
    N_d = DegreeParams(n, d).N_d
    if not 1 <= s <= N_d:
        raise ValueError(f"need 1 <= s <= N_d = {N_d}, got s={s}")
    _check_square_guard(n, d, s, allow_large)

    return _experiment(
        lambda rnd: _sample_instance(n, d, s, derive_seed(seed, "square", rnd), primes),
        lambda pts, p: _square_rank(pts, n, d, p),
        "square-component rank {computed} exceeds the structural bound "
        "{expected} at (n={n}, d={d}, s={s})",
        quantity=Quantity.DIM_SQUARE_COMPONENT_2D, expected=_expected_square_rank(n, d, s),
        n=n, d=d, s=s, r=None, seed=seed, primes=tuple(primes),
    )


EXCEPTIONAL_TRIPLES = frozenset({(3, 2, 5), (4, 2, 9), (5, 2, 14)})


def ik_range(n: int, d: int) -> range:
    """The point counts s of the expected-value formula, [N_{d-1}, N_d)."""
    if n < 3 or d < 2:
        raise ValueError(f"expected-value formula needs n >= 3, d >= 2, got ({n}, {d})")
    return range(dim_forms(n, d - 1), dim_forms(n, d))


def ik_expected(n: int, d: int, s: int) -> int:
    """Conjectured Hilbert-function value h_{2d} of the squared point ideal.

    max{n*s, N_{2d} - C(N_d - s + 1, 2)}, with max replaced by min at the
    three exceptional triples (3,2,5), (4,2,9), (5,2,14).
    """
    s_range = ik_range(n, d)
    if s not in s_range:
        raise ValueError(f"s={s} outside [N_(d-1), N_d) = [{s_range.start}, {s_range.stop})")
    params = DegreeParams(n, d)
    N_d, N_2d = params.N_d, params.N_2d
    a = n * s
    c = N_2d - binomial(N_d - s + 1, 2)
    return min(a, c) if (n, d, s) in EXCEPTIONAL_TRIPLES else max(a, c)


def ik_verify(
    n: int,
    d: int,
    s: int,
    trials: int = 3,
    seed: int = DEFAULT_SEED,
    primes=DEFAULT_PRIMES,
    allow_large: bool = False,
) -> DimensionReport:
    """Search for one concrete instance meeting the conjectured h_{2d}.

    Since computed h >= exact h >= generic h >= expected, equality at any
    instance certifies the value for (n, d, s); excess is never a
    refutation, so failed trials only yield InconclusiveHigh.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    expected = ik_expected(n, d, s)
    rep = _first_verified(
        lambda t: dim_square_component(n, d, s, seed=derive_seed(seed, "ik", n, d, s, t),
                                       primes=primes, allow_large=allow_large),
        trials,
    )
    return replace(rep, quantity=Quantity.HILBERT_H_2D,
                   computed=dim_forms(n, 2 * d) - rep.computed, expected=expected)


def _ideal_matrix(forms: np.ndarray, n: int, d: int, p: int) -> PrimeMatrix:
    """Rows p_i * x^beta over all degree-d monomials x^beta, mod p."""
    r, N_d = forms.shape
    M = PrimeMatrix.zeros((r * N_d, dim_forms(n, 2 * d)), p)
    T = np.asarray(product_index_table(n, d, d), dtype=np.int64)
    rows_idx = np.arange(N_d)[:, None]
    residues = forms % p
    for i in range(r):
        M.arr[i * N_d : (i + 1) * N_d][rows_idx, T] = residues[i][None, :]
    return M


def generic_ideal_dim(
    n: int,
    d: int,
    r: int,
    seed: int = DEFAULT_SEED,
    primes=DEFAULT_PRIMES,
    expected: int | None = None,
    allow_large: bool = False,
) -> DimensionReport:
    """Degree-2d dimension of the ideal generated by r random degree-d forms.

    The computed rank is a certified lower bound for the generic value m_r;
    with no expected value the report is Verified as soon as both primes
    agree.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    params = DegreeParams(n, d)
    N_d = params.N_d
    _check_ideal_guard(r, params, allow_large)
    bound = min(primes)

    def random_forms(rnd):
        rng = random.Random(derive_seed(seed, "forms", rnd))
        return np.array(
            [[rng.randrange(bound) for _ in range(N_d)] for _ in range(r)],
            dtype=np.int64,
        )

    return _experiment(
        random_forms,
        lambda forms, p: rank_mod_p(_ideal_matrix(forms, n, d, p)),
        "ideal dimension {computed} exceeds the cap {expected}",
        quantity=Quantity.GENERIC_IDEAL_DIM_M_R, expected=expected,
        n=n, d=d, s=None, r=r, seed=seed, primes=tuple(primes),
    )


class TypicalStatus(str, Enum):
    EXACT = "Exact"
    INTERVAL_ONLY = "IntervalOnly"


@dataclass(frozen=True)
class TypicalLengthResult:
    """Smallest square count whose generic sums fill a dense set of forms."""

    n: int
    d: int
    r_found: int | None
    certified_lower: int
    fos_cap: int
    status: TypicalStatus

    def to_dict(self) -> dict:
        return {**vars(self), "status": self.status.value}


def typical_length(
    n: int,
    d: int,
    r_max: int | None = None,
    seed: int = DEFAULT_SEED,
    primes=DEFAULT_PRIMES,
    trials: int = 3,
    allow_large: bool = False,
) -> TypicalLengthResult:
    """Smallest r whose generic degree-2d ideal component is full.

    One full-rank instance certifies the upper bound (rank is maximal on a
    dense open set); the lower certificate is the counting bound
    ``lambda_lower``, whose ceiling is also where the scan starts, since
    r*N_d - C(r,2) < N_{2d} makes full rank impossible over any field.
    """
    params = DegreeParams(n, d)
    if r_max is not None and r_max < 1:
        raise ValueError(f"need r_max >= 1, got {r_max}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    certified_lower = lambda_lower(params)[1]
    if r_max is None or certified_lower <= r_max:
        # the first job's guard, before the cap, whose n bits a huge n cannot hold
        _check_ideal_guard(certified_lower, params, allow_large)
    if n - 1 > MAX_BITS:  # the cap's bit length, checked before the cap is formed
        raise GuardError(f"typical at n={n} needs a cap 2^(n-1) of more than {MAX_BITS} bits")
    cap = 1 << (n - 1)
    limit = cap if r_max is None else min(r_max, cap)
    r_found = None
    for r in range(certified_lower, limit + 1):
        rep = _first_verified(
            lambda t: generic_ideal_dim(n, d, r, seed=derive_seed(seed, "typical", n, d, r, t),
                                        primes=primes, expected=params.N_2d,
                                        allow_large=allow_large),
            trials,
        )
        if rep.status is Status.VERIFIED:
            r_found = r
            break
    status = TypicalStatus.EXACT if r_found == certified_lower else TypicalStatus.INTERVAL_ONLY
    return TypicalLengthResult(
        n=n,
        d=d,
        r_found=r_found,
        certified_lower=certified_lower,
        fos_cap=cap,
        status=status,
    )


def _call_with_kwargs(job):
    worker, kwargs = job
    return worker(**kwargs)


def run_jobs(worker, kwargs_list, parallelism: int = 1):
    """Run independent experiment jobs, results in submission order.

    Each job owns its matrices, so jobs only share read-only tables; with
    more than one worker they are dispatched to a process pool of at most
    one worker per job, since the pool starts all its workers at once.
    A worker that dies is a MemoryError: the usual killer of a worker is
    the operating system's out-of-memory handler.
    """
    jobs = [(worker, kwargs) for kwargs in kwargs_list]
    workers = min(parallelism, len(jobs))
    if workers <= 1:
        return [_call_with_kwargs(job) for job in jobs]
    import concurrent.futures  # here: with logging, it costs a serial run ~8 ms
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_call_with_kwargs, jobs))
    except concurrent.futures.process.BrokenProcessPool:
        raise MemoryError("a worker process died") from None
