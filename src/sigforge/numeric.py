"""Arbitrary-precision integer utilities: modular arithmetic, primality,
prime generation and randomness, and the fixed-base comb with its Horner loop,
written once for any group: the curves' G and DSA's g and y mod p read it.

Everything operates on plain Python ints.  ``RngHandle`` wraps the random
source so that code needing randomness can be replayed deterministically in
tests by seeding; unseeded handles draw from the OS entropy pool.
"""

import functools
import math
import random

from .errors import NotInvertibleError

MILLER_RABIN_ROUNDS = 40

# Rounds for a random odd candidate of at least this many bits: one that
# passes them is composite with probability at most 2^-80, by the
# Damgard-Landrock-Pomerance bound (HAC Table 4.4).  HAC lists fewer rounds
# from 650 bits on (4, then 3 at 850 and 2 at 1300); five is kept as a floor,
# since the bound is proved for uniformly drawn odd integers and DSA's
# p = q*t + 1 is not drawn that way.
_RANDOM_CANDIDATE_ROUNDS = (
    (550, 5),
    (450, 6),
    (400, 7),
    (350, 8),
    (300, 9),
    (250, 12),
    (200, 15),
    (150, 18),
    (100, 27),
)

# Candidates are trial-divided by every odd prime below this bound with a
# gcd against their product.  Swept over 2^10..2^16 on 512- and 1024-bit
# candidates, 2^13..2^14 rejected cheapest: a larger product costs more per
# gcd than the extra candidates it rejects save.
_TRIAL_DIVISION_BOUND = 1 << 14
# A first gcd with the product of the odd primes below this bound rejects
# four candidates in five for a fraction of the cost of reducing the full
# product mod n: at 1024 bits, 16 us per candidate against 60 us for the
# full product alone (2-vCPU x86-64 VM, CPython 3.11.7).
_FIRST_GCD_BOUND = 1 << 8


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i in range(limit) if flags[i])


@functools.cache
def _odd_small_primes():
    """(the odd primes below _TRIAL_DIVISION_BOUND as a set, the product of
    those below _FIRST_GCD_BOUND, the product of all of them).

    Built on first use (about 2 ms), so that importing the package stays cheap.
    """
    primes = _sieve(_TRIAL_DIVISION_BOUND)[1:]
    first = math.prod(p for p in primes if p < _FIRST_GCD_BOUND)
    return frozenset(primes), first, math.prod(primes)


_sysrand = random.SystemRandom()


class RngHandle:
    """Source of random bits.

    A handle must not be shared across concurrent callers.  Two handles with
    the same seed replay identical streams; ``seed=None`` uses the system
    entropy source.
    """

    def __init__(self, seed=None):
        self._rng = random.SystemRandom() if seed is None else random.Random(seed)

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)


def are_ints(*values) -> bool:
    """Whether every value is an int; verify takes any key or signature a caller builds."""
    return all(isinstance(value, int) for value in values)


def is_int_pair(value) -> bool:
    """Whether value is a tuple or list of two ints; verify takes anything a caller passes."""
    return isinstance(value, (tuple, list)) and len(value) == 2 and are_ints(*value)


def mod_exp(base: int, exponent: int, modulus: int) -> int:
    """Compute ``base**exponent mod modulus`` (builtin three-argument pow)."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    return pow(base, exponent, modulus)


# --- fixed-base comb (Lim-Lee 1994; HMV Alg. 3.45), for any group ------------
#
# A group is given by its step x -> 2x (a doubling on a curve, a squaring mod p),
# its add, its neutral element and a description that both take as their last
# argument; curves also step by halving, where the teeth run the other way.
# An exponent 0 <= k < 2^(COMB_ROWS * e) is read as COMB_ROWS rows of e bits,
# row i weighing tooth i = step^(i*e)(base); table v sums the COMB_TEETH teeth
# v, v + COMB_TABLES, ..., so the product costs e steps, one digit per table
# each, and at most COMB_TABLES * e adds.  Two tables of eight teeth read 16
# rows: a 256-bit exponent takes 16 steps and at most 32 adds, from 2 x 256
# entries that cost 510 adds to build.  Seven teeth, or one table of eight or
# nine, sped G's products up less; four tables double the memory again.
COMB_TEETH = 8
COMB_TABLES = 2
COMB_ROWS = COMB_TABLES * COMB_TEETH


def comb_teeth(base, bits: int, step, group):
    """(e, teeth) for exponents of up to ``bits`` bits: e = ceil(bits / COMB_ROWS)
    and the COMB_ROWS teeth base, step^e(base), step^(2e)(base), ..., one chain
    of (COMB_ROWS - 1) * e steps."""
    e = -(-bits // COMB_ROWS)
    teeth = [base]
    for _ in range(COMB_ROWS - 1):
        for _ in range(e):
            base = step(base, group)
        teeth.append(base)
    return e, teeth


def comb_tables(teeth, add, neutral, group, normalize=list):
    """The comb's COMB_TABLES tables of 2^COMB_TEETH entries: entry a of table v
    is the sum of teeth COMB_TABLES * j + v over the bits j of a.  ``normalize``
    maps a list of elements to equal ones in the form that ``add`` takes as its
    second operand; it is applied to the teeth before the
    COMB_TABLES * (2^COMB_TEETH - 1) additions (510) and to the entries after them."""
    teeth, entries = normalize(teeth), []
    for v in range(COMB_TABLES):
        own, table = teeth[v::COMB_TABLES], [neutral]
        for a in range(1, 1 << COMB_TEETH):  # a without its lowest bit, plus that bit's tooth
            table.append(add(table[a & (a - 1)], own[(a & -a).bit_length() - 1], group))
        entries += table
    entries = normalize(entries)
    return tuple(tuple(entries[v << COMB_TEETH :][: 1 << COMB_TEETH]) for v in range(COMB_TABLES))


def comb_streams(k: int, e: int, tables) -> list:
    """The comb's (digits, table) streams, one per table, of e columns for
    0 <= k < 2^(COMB_ROWS * e), least significant first: column i of table v
    holds bits i + (COMB_TABLES * j + v) * e of k, high j first.  Any other k
    raises ValueError, since it has no such reading."""
    if not 0 <= k < 1 << (COMB_ROWS * e):
        raise ValueError(f"comb exponent outside [0, 2^{COMB_ROWS * e})")
    bits, span = format(k, f"0{COMB_ROWS * e}b"), COMB_TABLES * e
    return [([int(bits[span - v * e - 1 - i :: span], 2) for i in range(e)], table)
            for v, table in enumerate(tables)]


def horner(streams, step, add, neutral, group):
    """The sum of step^i(table[u_i]) over the digits u_i of every (digits, table)
    stream, digits given least significant first and as many in each stream, by
    Horner's rule on one chain; a zero digit adds nothing.  Every comb product
    and every scalar multiplication runs through it."""
    acc = neutral
    for i in reversed(range(len(streams[0][0]))):
        acc = step(acc, group)
        for digits, table in streams:
            if digits[i]:
                acc = add(acc, table[digits[i]], group)
    return acc


# comb tables kept for comb_pow: a DSA key that signs and verifies reads two,
# g's and y's, so eight keep four keys' worth
POWER_TABLES = 8


def _mul_mod(a, b, modulus):
    return a * b % modulus


def _square_mod(a, modulus):
    return a * a % modulus


@functools.lru_cache(maxsize=POWER_TABLES)
def _power_tables(base: int, modulus: int, bits: int) -> tuple:
    """(e, tables) of base's comb mod modulus.  Each holds COMB_TABLES << COMB_TEETH
    residues (512), 1.06 MB at the widest modulus the hash rule names, 15,360
    bits (512 x 2 KB), so the POWER_TABLES kept take at most 8.5 MB; building one
    there takes 0.5 s for 512-bit exponents and 0.3 s for 160-bit ones (2-vCPU VM,
    CPython 3.11.7)."""
    e, teeth = comb_teeth(base, bits, _square_mod, modulus)
    return e, comb_tables(teeth, _mul_mod, 1, modulus)


def comb_pow(modulus: int, bits: int, *terms) -> int:
    """The product of base^k mod modulus over the (base, k) terms, for
    0 <= k < 2^(COMB_ROWS * e), e = ceil(bits / COMB_ROWS): each base's comb
    tables, cached per (base, modulus, bits), read on one chain of e squarings.
    Equal to pow for any base; no exponent is reduced, since nothing here knows
    a base's order."""
    streams = []
    for base, k in terms:
        e, tables = _power_tables(base, modulus, bits)
        streams += comb_streams(k, e, tables)
    return horner(streams, _square_mod, _mul_mod, 1, modulus)


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
    """Miller-Rabin test with ``rounds`` random bases after trial division.

    A composite passes with probability at most 4**-rounds.  Trial division
    by the primes below 2^14 decides every n < 2^28 on its own.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n < 3 or n % 2 == 0:
        return n == 2
    primes, first_product, product = _odd_small_primes()
    if n < _TRIAL_DIVISION_BOUND:
        return n in primes
    if math.gcd(n, first_product) != 1 or math.gcd(n, product % n) != 1:
        return False
    if n < _TRIAL_DIVISION_BOUND**2:
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


def random_candidate_rounds(bits: int) -> int:
    """Miller-Rabin rounds for a randomly drawn candidate of ``bits`` bits.

    From 100 bits on, a composite random candidate passes them with
    probability at most 2^-80 (HAC Table 4.4), with at least 5 rounds;
    below 100 bits the table has no entry and the count is
    MILLER_RABIN_ROUNDS.  Only for candidates drawn at random: a number
    chosen by someone else gets the default of ``is_probable_prime``.
    """
    for size, rounds in _RANDOM_CANDIDATE_ROUNDS:
        if bits >= size:
            return rounds
    return MILLER_RABIN_ROUNDS


def gen_prime(bits: int, rng: RngHandle) -> int:
    """Generate a prime with exactly ``bits`` bits (top bit set).

    Each random candidate gets ``random_candidate_rounds(bits)`` Miller-Rabin rounds.
    """
    if bits < 8:
        raise ValueError("prime size must be >= 8 bits")
    rounds = random_candidate_rounds(bits)
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rounds):
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
