"""Arbitrary-precision integer utilities: modular arithmetic, primality,
prime generation and randomness.

Everything operates on plain Python ints.  ``RngHandle`` wraps the random
source so that code needing randomness can be replayed deterministically in
tests by seeding; unseeded handles draw from the OS entropy pool.
"""

import math
import random

from .errors import NotInvertibleError

MILLER_RABIN_ROUNDS = 40


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i in range(limit) if flags[i])


_SMALL_PRIMES = _sieve(1024)
# below this bound trial division alone is a complete primality test
_TRIAL_DIVISION_BOUND = _SMALL_PRIMES[-1] ** 2

_sysrand = random.SystemRandom()


class RngHandle:
    """Source of random bits.

    A handle must not be shared across concurrent callers.  Two handles with
    the same seed replay identical streams; ``seed=None`` uses the system
    entropy source.
    """

    def __init__(self, seed=None):
        self.seed = seed
        self._rng = random.SystemRandom() if seed is None else random.Random(seed)

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)


def mod_exp(base: int, exponent: int, modulus: int) -> int:
    """Compute ``base**exponent mod modulus`` (builtin three-argument pow)."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    return pow(base, exponent, modulus)


def mod_inv(a: int, modulus: int) -> int:
    """Return b with ``a*b == 1 (mod modulus)``, 0 < b < modulus (builtin pow).

    Works for any modulus >= 2, prime or not; raises NotInvertibleError when
    gcd(a, modulus) != 1.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertibleError(
            f"{a} is not invertible modulo {modulus} (gcd={math.gcd(a, modulus)})"
        ) from None


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin test with ``rounds`` random bases after small-prime trial division.

    False-positive probability is at most 4**-rounds.  Deterministic for
    n < ~10**6 (covered entirely by trial division).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _TRIAL_DIVISION_BOUND:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + _sysrand.randrange(n - 3)  # base in [2, n-2]
        x = mod_exp(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gen_prime(bits: int, rng: RngHandle) -> int:
    """Generate a prime with exactly ``bits`` bits (top bit set)."""
    if bits < 8:
        raise ValueError("prime size must be >= 8 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, MILLER_RABIN_ROUNDS):
            return candidate


def rand_below(upper: int, rng: RngHandle) -> int:
    """Uniform integer in [1, upper-1], by rejection sampling (no modulo bias)."""
    if upper < 2:
        raise ValueError(f"upper bound must be >= 2, got {upper}")
    k = (upper - 1).bit_length()
    while True:
        v = rng.getrandbits(k)
        if 1 <= v <= upper - 1:
            return v
