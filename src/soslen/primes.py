"""The default primes and seed, the check every modulus passes, and the
sha256 behind derived seeds and cache keys.

Nothing here imports numpy: a seeded command validates its primes and
builds its cache key from these before it knows whether it will reach
linear algebra at all.  ``linalg`` and ``generic`` re-export the names.
"""

from __future__ import annotations

from functools import lru_cache

# The interpreter's own sha256, as random.py takes its sha512: hashlib maps
# OpenSSL's libcrypto, about 3.6 MB of peak memory for one digest a process.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

P1 = 2147483647  # 2^31 - 1
P2 = 2147483629  # largest prime below P1; keeps all products inside int64
DEFAULT_PRIMES = (P1, P2)

DEFAULT_SEED = 271828

# Largest prime below 2^23, whose products need one float64 limb; ranked
# first when every configured prime exceeds it.  No option sets it.
SCREEN_PRIME = 8388593

# Largest modulus whose squares fit in int64: isqrt(2^63 - 1).
_INT64_SAFE_PRIME = 3037000499

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin primality test, deterministic for m < 2^64."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _validate_modulus(p: int) -> None:
    """Reject anything but a prime in [2, 3037000499].

    The bound keeps every product of two residues inside int64; it is the
    only prime range the package supports.
    """
    if not 2 <= p <= _INT64_SAFE_PRIME:
        raise ValueError(
            f"prime modulus must satisfy 2 <= p <= {_INT64_SAFE_PRIME}, got {p}"
        )
    if not is_probable_prime(p):
        raise ValueError(f"modulus {p} is not prime")
