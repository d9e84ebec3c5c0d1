"""Finite-field signature schemes: textbook RSA and DSA.

RSA signs the bare digest integer (no padding scheme) and is therefore a
faithful textbook construction, not a production-hardened one.  It signs by
the Chinese remainder theorem over the two primes of n and checks every
signature against e before returning it.  DSA follows
the classic (r, s) construction over a prime-order subgroup of Z_p*; its
signing and verification equations and its nonce loop are written once, for
any group of prime order q, and ECDSA reuses them over a curve.  Every power
of g or y -- g^k when signing, y = g^x, and verify's g^u1 * y^u2 as two terms
on one chain of squarings -- goes through ``numeric.comb_pow``, the fixed-base
comb that G's multiples use, with each base's tables cached; it returns exactly
pow, never reducing an exponent mod q.  RSA and parameter generation keep
builtin pow.

The ``*_sign_digest`` / ``*_verify_digest`` variants take the already-reduced
digest integer (and, for DSA, the nonce) directly and trust the key; plain
``verify`` checks the key by the rule key import reads, ``*_public_problem``,
and then, like ``sign``, hashes the message with the selected algorithm.
"""

import math
from typing import Callable, NamedTuple, Optional

from .errors import MissingPrivateKeyError, NotInvertibleError, SignatureCheckError
from .hashing import digest_to_int, select_hash_for_modulus, sign_hash
from .numeric import (
    RngHandle,
    are_ints,
    comb_pow,
    gen_prime,
    is_int_pair,
    is_probable_prime,
    mod_exp,
    mod_inv,
    rand_below,
    random_candidate_rounds,
)

RSA_PUBLIC_EXPONENT = 65537
RSA_MAX_EXPONENT_BITS = 256  # FIPS 186-5 keeps e below 2^256, which caps verify's work
DSA_MAX_SUBGROUP_BITS = 512  # the widest digest the hash rule names

# Bases tried when factoring n from e and d: the 25 primes below 100.  A
# random base splits a two-prime n with probability at least 1/2 (HAC 8.2.2),
# so if these act as random bases, all of them fail, and a valid key is
# refused, on about one key in 2^25.  A prime n never splits, nor does a
# prime power p^k, whose unit group is cyclic; on both, 2^n = 2 (mod p) for
# the prime p dividing n.  So the first two bases that fail are followed by
# one exponentiation, 2^n mod n, and n is refused when 2^n - 2 shares a
# factor with it: a prime or prime-power n after three exponentiations.  A
# valid key pays for that exponentiation with probability at most 1/4, and a
# two-prime n = pq shares a factor with 2^n - 2 only if the order of 2 modulo
# p divides q - 1, or the same with p and q swapped.
_FACTORING_BASES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def rsa_factor_modulus(n: int, e: int, d: int):
    """(p, q) with p*q = n, found from e*d - 1 (HAC 8.2.2).

    Writes e*d - 1 = 2^t * r with r odd and, for each base g, squares
    g^r mod n up to t times, looking for a square root of 1 other than +-1.
    Raises ValueError when some base has g^(e*d - 1) != 1 (mod n), so d does
    not invert e, or when no base splits n, as on a prime or prime-power n.
    """
    k = e * d - 1
    t = (k & -k).bit_length() - 1
    r = k >> t
    for g in _FACTORING_BASES:
        # reached only when two bases failed to split n
        if g == _FACTORING_BASES[2] and math.gcd(mod_exp(2, n, n) - 2, n) != 1:
            break
        x = mod_exp(g, r, n)
        if x == 1:
            continue
        for _ in range(t):
            y = x * x % n
            if y == 1:
                break
            x = y
        else:
            raise ValueError("d does not invert e modulo n")
        if x != n - 1:
            p = math.gcd(x - 1, n)
            return p, n // p
    raise ValueError("n does not split into two factors from e and d")


class RsaKey(NamedTuple("RsaKey", [("n", int), ("e", int), ("d", Optional[int])])):
    """An RSA key; ``d`` is None on a public key.

    A named tuple of (n, e, d), which alone are compared, hashed and shown.
    A private key also holds, beside the tuple, the primes p and q of n and
    its CRT values dp = d mod (p - 1), dq = d mod (q - 1) and q_inv = q^-1
    mod p; on a public key all five are None.  Key generation passes p and q
    in; otherwise they are found from (n, e, d) when the key is built, which
    raises ValueError if that fails.
    """

    p = q = dp = dq = q_inv = None

    def __new__(cls, n, e, d=None, p=None, q=None):
        key = super().__new__(cls, n, e, d)
        if d is not None:
            if p is None:
                p, q = rsa_factor_modulus(n, e, d)
            key.__dict__.update(p=p, q=q, dp=d % (p - 1), dq=d % (q - 1), q_inv=mod_inv(q, p))
        return key

    # _replace calls _make, which here builds through __new__: a replaced key derives its CRT values again
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def key_size(self) -> int:
        return self.n.bit_length()

    @property
    def hash_name(self) -> str:
        return select_hash_for_modulus(self.key_size)

    @property
    def has_private(self) -> bool:
        return self.d is not None

    def public_only(self) -> "RsaKey":
        return RsaKey(n=self.n, e=self.e)


def rsa_public_problem(n, e) -> Optional[str]:
    """Why (n, e) is refused as an RSA public key, or None; each field's first check is that it is an int."""
    if not (isinstance(n, int) and n >= 3 and n % 2 == 1):
        return "field 'n' is not a valid RSA modulus"
    try:
        select_hash_for_modulus(n.bit_length())
    except ValueError as exc:
        return f"field 'n': {exc}"
    if not (isinstance(e, int) and 2 < e < min(n, 1 << RSA_MAX_EXPONENT_BITS) and e % 2 == 1):
        return "field 'e' is out of range: odd, above 2, below n and 2^256"
    return None


class DsaParams(NamedTuple):
    p: int
    q: int
    g: int

    def power(self, *terms) -> int:
        """The product of base^k mod p over the (base, k) terms, each k below
        2^(COMB_ROWS * e) with e = ceil(bits(q) / COMB_ROWS), by ``numeric.comb_pow``."""
        return comb_pow(self.p, self.q.bit_length(), *terms)


class DsaKey(NamedTuple):
    params: DsaParams
    y: int
    x: Optional[int] = None

    @property
    def key_size(self) -> int:
        return self.params.p.bit_length()

    @property
    def hash_name(self) -> str:
        return select_hash_for_modulus(self.key_size)

    @property
    def has_private(self) -> bool:
        return self.x is not None

    def public_only(self) -> "DsaKey":
        return DsaKey(params=self.params, y=self.y)


def dsa_public_problem(p, q, g, y) -> Optional[str]:
    """Why these are refused as a DSA public key, or None; each field's first check is that it is an int."""
    if not (are_ints(p, q) and 2 < q < p):
        return "fields 'p', 'q' are out of range"
    try:
        select_hash_for_modulus(p.bit_length())
    except ValueError as exc:
        return f"field 'p': {exc}"
    # before import's g^q mod p, whose comb a hostile q = (p - 1)/2 makes full-size
    if q.bit_length() > DSA_MAX_SUBGROUP_BITS:
        return f"field 'q' is wider than {DSA_MAX_SUBGROUP_BITS} bits"
    if (p - 1) % q != 0:
        return "field 'q' does not divide p - 1"
    if not (isinstance(g, int) and 2 <= g < p - 1):
        return "field 'g' is not a generator of the order-q subgroup"
    # NIST SP 800-89: y = 1 is g^0, under which x = 0 signs every message
    if not (isinstance(y, int) and 1 < y < p - 1):
        return "field 'y' is out of range: above 1, below p - 1"
    return None


class DsaSignature(NamedTuple):
    r: int
    s: int


def rsa_keygen(modulus_bits: int, rng: RngHandle) -> RsaKey:
    """Generate an RSA key: two random half-size primes, e = 65537."""
    select_hash_for_modulus(modulus_bits)  # refuses a size under the hash rule's minimum
    if modulus_bits % 2:
        raise ValueError("RSA modulus size must be even")
    e = RSA_PUBLIC_EXPONENT
    half = modulus_bits // 2
    while True:
        p = gen_prime(half, rng)
        q = gen_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != modulus_bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = mod_inv(e, phi)
        except NotInvertibleError:
            continue
        return RsaKey(n=n, e=e, d=d, p=p, q=q)


def rsa_sign_digest(key: RsaKey, hm: int) -> int:
    """hm^d mod n, computed mod p and mod q and recombined (Garner).

    The result is checked against e before it is returned: a wrong half
    would reveal a factor of n (Boneh-DeMillo-Lipton), so a mismatch raises
    SignatureCheckError and no signature leaves.  An e that verify refuses
    raises ValueError before any exponentiation.
    """
    if key.d is None:
        raise MissingPrivateKeyError("RSA signing requires the private exponent d")
    if key.e >= 1 << RSA_MAX_EXPONENT_BITS:
        raise ValueError(f"RSA signing requires e below 2^{RSA_MAX_EXPONENT_BITS}, as verify does")
    hm %= key.n
    s_p = mod_exp(hm, key.dp, key.p)
    s_q = mod_exp(hm, key.dq, key.q)
    s = s_q + key.q * ((s_p - s_q) * key.q_inv % key.p)
    if not rsa_verify_digest(key, hm, s):
        raise SignatureCheckError("RSA signature failed its check against e; it was withheld")
    return s


def rsa_sign(key: RsaKey, message: bytes) -> int:
    return rsa_sign_digest(key, digest_to_int(message, sign_hash(key), key.n))


def rsa_verify_digest(key: RsaKey, hm: int, signature: int) -> bool:
    return isinstance(signature, int) and 0 <= signature < key.n and mod_exp(signature, key.e, key.n) == hm


def rsa_verify(key: RsaKey, message: bytes, signature: int) -> bool:
    return not rsa_public_problem(key.n, key.e) and rsa_verify_digest(
        key, digest_to_int(message, key.hash_name, key.n), signature
    )


def dsa_paramgen(L: int, N: int, rng: RngHandle) -> DsaParams:
    """Generate DSA domain parameters: q | p - 1, g of order q.

    q is a fresh N-bit prime; p is found by drawing random even t until
    p = q*t + 1 is an L-bit prime; g = h^((p-1)/q) for the first h >= 2
    that gives g != 1.
    """
    if not 8 <= N <= DSA_MAX_SUBGROUP_BITS:
        raise ValueError(f"subgroup size N must be 8 to {DSA_MAX_SUBGROUP_BITS} bits")
    if L <= N:
        raise ValueError("modulus size L must exceed subgroup size N")
    q = gen_prime(N, rng)
    t_lo = ((1 << (L - 1)) - 1) // q + 1
    t_hi = ((1 << L) - 2) // q
    rounds = random_candidate_rounds(L)
    while True:
        t = t_lo + rand_below(t_hi - t_lo + 2, rng) - 1
        if t % 2:
            continue  # odd t would make p even
        p = q * t + 1
        if p.bit_length() != L:
            continue
        if is_probable_prime(p, rounds):
            break
    exp = (p - 1) // q
    h = 2
    while True:
        g = mod_exp(h, exp, p)
        if g != 1:
            return DsaParams(p=p, q=q, g=g)
        h += 1


def dsa_keygen(params: DsaParams, rng: RngHandle) -> DsaKey:
    x = rand_below(params.q, rng)
    y = params.power((params.g, x))
    return DsaKey(params=params, y=y, x=x)


def dsa_sign_equation(q: int, x: Optional[int], commit: Callable, hm: int, k: int) -> Optional[DsaSignature]:
    """r = commit(k) mod q and s = (hm + x*r)/k mod q in a group of prime order q,
    as DSA (g^k mod p) and ECDSA (the x of k*G) commit; None when r or s is 0."""
    if x is None:
        raise MissingPrivateKeyError("signing requires the private key")
    r = commit(k) % q
    if r == 0:
        return None
    s = (hm + x * r) * mod_inv(k, q) % q
    if s == 0:
        return None
    return DsaSignature(r, s)


def dsa_nonce_loop(key, q: int, sign_digest: Callable, message: bytes, rng: RngHandle) -> DsaSignature:
    """Hash the message, then draw k in [1, q) until sign_digest(key, hm, k) gives a signature."""
    hm = digest_to_int(message, sign_hash(key), q)
    while True:
        sig = sign_digest(key, hm, rand_below(q, rng))
        if sig is not None:
            return sig


def dsa_verify_equation(q: int, combine: Callable, hm: int, sig) -> bool:
    """Whether 0 < r, s < q and combine(hm/s, r/s) mod q == r: g^u1 * y^u2 mod p
    for DSA, the x of u1*G + u2*Q for ECDSA."""
    if not is_int_pair(sig):
        return False
    r, s = sig
    # q is prime on generated keys, but a caller or a key file can give a
    # composite q, modulo which s may have no inverse
    if not (0 < r < q and 0 < s < q and math.gcd(s, q) == 1):
        return False
    w = mod_inv(s, q)
    return combine(hm * w % q, r * w % q) % q == r


def dsa_sign_digest(key: DsaKey, hm: int, k: int) -> Optional[DsaSignature]:
    params = key.params
    return dsa_sign_equation(params.q, key.x, lambda k: params.power((params.g, k)), hm, k)


def dsa_sign(key: DsaKey, message: bytes, rng: RngHandle) -> DsaSignature:
    return dsa_nonce_loop(key, key.params.q, dsa_sign_digest, message, rng)


def dsa_verify_digest(key: DsaKey, hm: int, sig: DsaSignature) -> bool:
    params = key.params
    return dsa_verify_equation(params.q, lambda u1, u2: params.power((params.g, u1), (key.y, u2)), hm, sig)


def dsa_verify(key: DsaKey, message: bytes, sig: DsaSignature) -> bool:
    params = key.params
    return not dsa_public_problem(params.p, params.q, params.g, key.y) and dsa_verify_digest(
        key, digest_to_int(message, key.hash_name, params.q), sig
    )
