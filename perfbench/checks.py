"""Correctness checks for sigforge outputs, written apart from sigforge.

Nothing here imports sigforge.  Curve parameters arrive as plain ints.  The
group law is a textbook affine one: builtin ``pow`` for prime fields and
this module's own GF(2^m) arithmetic for binary fields.  OpenSSL, through
``cryptography``, checks ECDSA on the curves it knows and DSA; ``sympy``
checks DSA primality.  Every checker returns a bool.
"""

import hashlib

_HASHES = {
    160: hashlib.sha1,
    224: hashlib.sha224,
    256: hashlib.sha256,
    384: hashlib.sha384,
    512: hashlib.sha512,
}


def hash_bits_for_order(order_bits):
    """Digest width the paper's rule pairs with a curve order of this size."""
    for bound, bits in ((384, 512), (256, 384), (224, 256)):
        if order_bits > bound:
            return bits
    return 224 if order_bits >= 160 else 160


def hash_bits_for_modulus(modulus_bits):
    """Digest width the paper's rule pairs with an RSA/DSA modulus of this size."""
    for bound, bits in ((15360, 512), (7680, 384), (3072, 256), (2048, 224)):
        if modulus_bits >= bound:
            return bits
    return 160


def digest(data, hash_bits):
    return _HASHES[hash_bits](data).digest()


def truncated_digest(data, hash_bits, modulus):
    """Leftmost bitlen(modulus) bits of the digest, reduced mod modulus."""
    value = int.from_bytes(digest(data, hash_bits), "big")
    excess = hash_bits - modulus.bit_length()
    if excess > 0:
        value >>= excess
    return value % modulus


# --- GF(2^m) ------------------------------------------------------------------


def gf2_mul(a, b, m, poly):
    """Shift-and-add product with the reduction folded into every shift."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return result


def gf2_inv(a, poly):
    """Binary inversion algorithm (Hankerson-Menezes-Vanstone, Alg. 2.49)."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    u, v, g1, g2 = a, poly, 1, 0
    while u != 1 and v != 1:
        while not u & 1:
            u >>= 1
            g1 = g1 >> 1 if not g1 & 1 else (g1 ^ poly) >> 1
        while not v & 1:
            v >>= 1
            g2 = g2 >> 1 if not g2 & 1 else (g2 ^ poly) >> 1
        if u.bit_length() > v.bit_length():
            u, g1 = u ^ v, g1 ^ g2
        else:
            v, g2 = v ^ u, g2 ^ g1
    return g1 if u == 1 else g2


# --- curves -----------------------------------------------------------------


class Curve:
    """An affine curve: y^2 = x^3+ax+b (weierstrass), y^2+xy = x^3+ax^2+b over
    GF(2^m) (koblitz), or ax^2+y^2 = 1+bx^2y^2 (edwards, b is d).

    ``field`` is the prime p, or the pair (m, poly) for a binary field.
    """

    def __init__(self, form, field, a, b, g, n):
        self.form, self.field, self.a, self.b, self.g, self.n = form, field, a, b, tuple(g), n
        self.neutral = (0, 1) if form == "edwards" else None

    def add(self, P, Q):
        if self.form == "edwards":
            return self._add_edwards(P, Q)
        if P is None:
            return Q
        if Q is None:
            return P
        if self.form == "koblitz":
            return self._add_binary(P, Q)
        return self._add_prime(P, Q)

    def _add_prime(self, P, Q):
        p = self.field
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    def _add_binary(self, P, Q):
        m, poly = self.field
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if y2 == x1 ^ y1:
                return None
            lam = x1 ^ gf2_mul(y1, gf2_inv(x1, poly), m, poly)
            x3 = gf2_mul(lam, lam, m, poly) ^ lam ^ self.a
            return x3, gf2_mul(x1, x1, m, poly) ^ gf2_mul(lam ^ 1, x3, m, poly)
        lam = gf2_mul(y1 ^ y2, gf2_inv(x1 ^ x2, poly), m, poly)
        x3 = gf2_mul(lam, lam, m, poly) ^ lam ^ x1 ^ x2 ^ self.a
        return x3, gf2_mul(lam, x1 ^ x3, m, poly) ^ x3 ^ y1

    def _add_edwards(self, P, Q):
        p, d = self.field, self.b
        (x1, y1), (x2, y2) = P, Q
        t = d * x1 * x2 * y1 * y2 % p
        x3 = (x1 * y2 + y1 * x2) * pow(1 + t, -1, p) % p
        return x3, (y1 * y2 - self.a * x1 * x2) * pow(1 - t, -1, p) % p

    def mul(self, k, P):
        """k*P by right-to-left double-and-add."""
        acc = self.neutral
        while k:
            if k & 1:
                acc = self.add(acc, P)
            P = self.add(P, P)
            k >>= 1
        return acc


def public_point_matches(curve, ka, q):
    return curve.mul(ka, curve.g) == tuple(q)


def ecdsa_textbook(curve, q, message, r, s):
    """Textbook ECDSA verification: x(u1*G + u2*Q) mod n == r."""
    n = curve.n
    if not (0 < r < n and 0 < s < n):
        return False
    e = truncated_digest(message, hash_bits_for_order(n.bit_length()), n)
    w = pow(s, -1, n)
    point = curve.add(curve.mul(e * w % n, curve.g), curve.mul(r * w % n, tuple(q)))
    return point != curve.neutral and point[0] % n == r


def eddsa_nonce(curve, message):
    """r = H(H(m) || m), truncated and reduced mod n; 0 becomes 1."""
    hash_bits = hash_bits_for_order(curve.n.bit_length())
    r = truncated_digest(digest(message, hash_bits) + message, hash_bits, curve.n)
    return r or 1


def eddsa_equation(curve, q, ka, message, big_r, s):
    """s == r + h*ka exactly, with r and h recomputed from the scheme's definition."""
    hash_bits = hash_bits_for_order(curve.n.bit_length())
    modulus = curve.n if curve.form == "koblitz" else curve.field
    h = (big_r[0] + q[0] + truncated_digest(message, hash_bits, modulus)) % modulus
    return s == eddsa_nonce(curve, message) + h * ka


def eddsa_commitment(curve, message, big_r):
    """R == r*G for the recomputed nonce r."""
    return curve.mul(eddsa_nonce(curve, message), curve.g) == tuple(big_r)


# --- OpenSSL-backed checks --------------------------------------------------

# sigforge curve name -> (cryptography curve class name, digest width)
OPENSSL_CURVES = {
    "p256": ("SECP256R1", 256),
    "secp256k1": ("SECP256K1", 256),
    "p384": ("SECP384R1", 384),
    "p521": ("SECP521R1", 512),
}
_OPENSSL_HASHES = {160: "SHA1", 224: "SHA224", 256: "SHA256", 384: "SHA384", 512: "SHA512"}


def _openssl_hash(hash_bits):
    from cryptography.hazmat.primitives import hashes

    return getattr(hashes, _OPENSSL_HASHES[hash_bits])()


def ecdsa_openssl(curve_name, q, message, r, s):
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.hazmat.primitives.asymmetric.utils import encode_dss_signature

    cls_name, hash_bits = OPENSSL_CURVES[curve_name]
    try:
        key = ec.EllipticCurvePublicNumbers(q[0], q[1], getattr(ec, cls_name)()).public_key()
        key.verify(encode_dss_signature(r, s), message, ec.ECDSA(_openssl_hash(hash_bits)))
    except (InvalidSignature, ValueError):
        return False
    return True


def openssl_public_matches(curve_name, ka, q):
    """derive_private_key(ka) has public point Q."""
    from cryptography.hazmat.primitives.asymmetric import ec

    curve = getattr(ec, OPENSSL_CURVES[curve_name][0])()
    numbers = ec.derive_private_key(ka, curve).public_key().public_numbers()
    return (numbers.x, numbers.y) == tuple(q)


def dsa_key(p, q, g, y, x):
    """p, q prime (sympy); q | p-1; g of order q; y = g^x."""
    from sympy import isprime

    return (
        isprime(p)
        and isprime(q)
        and (p - 1) % q == 0
        and 1 < g < p
        and pow(g, q, p) == 1
        and 0 < x < q
        and pow(g, x, p) == y
    )


def dsa_openssl(p, q, g, y, message, r, s):
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import dsa
    from cryptography.hazmat.primitives.asymmetric.utils import encode_dss_signature

    try:
        key = dsa.DSAPublicNumbers(y, dsa.DSAParameterNumbers(p, q, g)).public_key()
        key.verify(
            encode_dss_signature(r, s), message, _openssl_hash(hash_bits_for_modulus(p.bit_length()))
        )
    except (InvalidSignature, ValueError):
        return False
    return True


def rsa_key(n, e, d, bits, probe):
    """n has the requested size and d inverts e on a probe value."""
    return n.bit_length() == bits and pow(pow(probe, d, n), e, n) == probe % n


def rsa_signature(n, e, message, s):
    """s^e mod n equals the truncated digest recomputed with hashlib."""
    hm = truncated_digest(message, hash_bits_for_modulus(n.bit_length()), n)
    return 0 <= s < n and pow(s, e, n) == hm
