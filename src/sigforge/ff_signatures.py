"""Finite-field signature schemes: textbook RSA and DSA.

RSA signs the bare digest integer (no padding scheme) and is therefore a
faithful textbook construction, not a production-hardened one.  DSA follows
the classic (r, s) construction over a prime-order subgroup of Z_p*.

The ``*_sign_digest`` / ``*_verify_digest`` variants take the already-reduced
digest integer (and, for DSA, the nonce) directly; the plain ``sign``/
``verify`` entry points hash the message with the automatically selected
algorithm first.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import MissingPrivateKeyError, NotInvertibleError
from .hashing import digest_to_int, select_hash_for_modulus
from .numeric import RngHandle, gen_prime, is_probable_prime, mod_exp, mod_inv, rand_below

RSA_PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RsaKey:
    n: int
    e: int
    modulus_bits: int
    d: Optional[int] = None

    @property
    def has_private(self) -> bool:
        return self.d is not None

    def public_only(self) -> "RsaKey":
        return RsaKey(n=self.n, e=self.e, modulus_bits=self.modulus_bits)


@dataclass(frozen=True)
class DsaParams:
    p: int
    q: int
    g: int


@dataclass(frozen=True)
class DsaKey:
    params: DsaParams
    y: int
    x: Optional[int] = None

    @property
    def has_private(self) -> bool:
        return self.x is not None

    def public_only(self) -> "DsaKey":
        return DsaKey(params=self.params, y=self.y)


class DsaSignature(NamedTuple):
    r: int
    s: int


def rsa_keygen(modulus_bits: int, rng: RngHandle) -> RsaKey:
    """Generate an RSA key: two random half-size primes, e = 65537."""
    if modulus_bits < 512:
        raise ValueError(f"RSA modulus of {modulus_bits} bits is too small (minimum 512)")
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
        return RsaKey(n=n, e=e, d=d, modulus_bits=modulus_bits)


def rsa_sign_digest(key: RsaKey, hm: int) -> int:
    if key.d is None:
        raise MissingPrivateKeyError("RSA signing requires the private exponent d")
    return mod_exp(hm, key.d, key.n)


def rsa_sign(key: RsaKey, message: bytes) -> int:
    alg = select_hash_for_modulus(key.modulus_bits)
    return rsa_sign_digest(key, digest_to_int(message, alg, key.n))


def rsa_verify_digest(key: RsaKey, hm: int, signature: int) -> bool:
    if not 0 <= signature < key.n:
        return False
    return mod_exp(signature, key.e, key.n) == hm


def rsa_verify(key: RsaKey, message: bytes, signature: int) -> bool:
    alg = select_hash_for_modulus(key.modulus_bits)
    return rsa_verify_digest(key, digest_to_int(message, alg, key.n), signature)


def dsa_paramgen(L: int, N: int, rng: RngHandle) -> DsaParams:
    """Generate DSA domain parameters: q | p - 1, g of order q.

    q is a fresh N-bit prime; p is found by drawing random even t until
    p = q*t + 1 is an L-bit prime; g = h^((p-1)/q) for the first h >= 2
    that gives g != 1.
    """
    if N < 8:
        raise ValueError("subgroup size N must be >= 8 bits")
    if L <= N:
        raise ValueError("modulus size L must exceed subgroup size N")
    q = gen_prime(N, rng)
    t_lo = ((1 << (L - 1)) - 1) // q + 1
    t_hi = ((1 << L) - 2) // q
    while True:
        t = t_lo + rand_below(t_hi - t_lo + 2, rng) - 1
        if t % 2:
            continue  # odd t would make p even
        p = q * t + 1
        if p.bit_length() != L:
            continue
        if is_probable_prime(p):
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
    y = mod_exp(params.g, x, params.p)
    return DsaKey(params=params, y=y, x=x)


def dsa_sign_digest(key: DsaKey, hm: int, k: int) -> Optional[DsaSignature]:
    """(r, s) for the digest integer and nonce k; None when r or s is 0
    (the caller redraws k)."""
    if key.x is None:
        raise MissingPrivateKeyError("DSA signing requires the private exponent x")
    p, q, g = key.params.p, key.params.q, key.params.g
    r = mod_exp(g, k, p) % q
    if r == 0:
        return None
    s = (hm + key.x * r) * mod_inv(k, q) % q
    if s == 0:
        return None
    return DsaSignature(r, s)


def dsa_sign(key: DsaKey, message: bytes, rng: RngHandle) -> DsaSignature:
    # checked before hashing too: the hash rule refuses a modulus under 512 bits
    # before the first draw would reach dsa_sign_digest's check
    if key.x is None:
        raise MissingPrivateKeyError("DSA signing requires the private exponent x")
    params = key.params
    alg = select_hash_for_modulus(params.p.bit_length())
    hm = digest_to_int(message, alg, params.q)
    while True:
        k = rand_below(params.q, rng)
        sig = dsa_sign_digest(key, hm, k)
        if sig is not None:
            return sig


def dsa_verify_digest(key: DsaKey, hm: int, sig: DsaSignature) -> bool:
    p, q, g = key.params.p, key.params.q, key.params.g
    r, s = sig
    if not (0 < r < q and 0 < s < q):
        return False
    w = mod_inv(s, q)
    u1 = hm * w % q
    u2 = r * w % q
    v = mod_exp(g, u1, p) * mod_exp(key.y, u2, p) % p % q
    return v == r


def dsa_verify(key: DsaKey, message: bytes, sig: DsaSignature) -> bool:
    params = key.params
    alg = select_hash_for_modulus(params.p.bit_length())
    return dsa_verify_digest(key, digest_to_int(message, alg, params.q), sig)
