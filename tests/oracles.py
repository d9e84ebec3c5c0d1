"""Independent reference implementations used as test oracles.

Everything here is written from first principles (brute force, enumeration,
schoolbook arithmetic) and deliberately shares no code with the package.
Points at infinity are None; affine points are (x, y) tuples.
"""


def naive_mod_exp(base, exponent, modulus):
    """Repeated multiplication, one step per exponent unit."""
    result = 1 % modulus
    for _ in range(exponent):
        result = (result * base) % modulus
    return result


def brute_mod_inv(a, modulus):
    """Scan every candidate; None when no inverse exists."""
    for b in range(1, modulus):
        if (a * b) % modulus == 1:
            return b
    return None


def trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# --- GF(2)[x] schoolbook arithmetic ----------------------------------------


def poly_mul_naive(a, b):
    """Carry-less schoolbook product of two bit-mask polynomials."""
    out = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            for j in range(b.bit_length()):
                if (b >> j) & 1:
                    out ^= 1 << (i + j)
    return out


def poly_mod_naive(a, m):
    """Polynomial long division remainder."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def gf_mul_naive(a, b, poly):
    return poly_mod_naive(poly_mul_naive(a, b), poly)


def poly_mul_shift(a, b):
    """Carry-less shift-and-add product: one pass over the bits of b."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf_mul_shift(a, b, poly):
    """Field product fast enough for registry-sized fields."""
    return poly_mod_naive(poly_mul_shift(a, b), poly)


def gf_inv_euclid(a, poly):
    """Inverse by the extended Euclidean algorithm with polynomial long division."""
    r0, r1 = poly, a
    s0, s1 = 0, 1
    while r1 != 1:
        q, r = 0, r0
        while r.bit_length() >= r1.bit_length():
            shift = r.bit_length() - r1.bit_length()
            q ^= 1 << shift
            r ^= r1 << shift
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ poly_mul_shift(s1, q)
    return poly_mod_naive(s1, poly)


def builtin_mod_inv(a, p):
    """Inverse by the interpreter's three-argument pow, for registry-sized
    prime fields where brute_mod_inv cannot finish."""
    return pow(a, -1, p)


def sqrt_mod_prime(a, p):
    """A square root of a modulo an odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


def gf_inv_naive(a, poly, m):
    """Brute-force scan of all nonzero field elements."""
    for b in range(1, 1 << m):
        if gf_mul_naive(a, b, poly) == 1:
            return b
    return None


# --- curve point enumeration by direct substitution -------------------------


def weierstrass_points(p, a, b):
    return [
        (x, y)
        for x in range(p)
        for y in range(p)
        if (y * y - (x * x * x + a * x + b)) % p == 0
    ]


def edwards_points(p, a, d):
    return [
        (x, y)
        for x in range(p)
        for y in range(p)
        if (a * x * x + y * y - 1 - d * x * x * y * y) % p == 0
    ]


def koblitz_points(m, poly, a, b):
    pts = []
    for x in range(1 << m):
        for y in range(1 << m):
            lhs = gf_mul_naive(y, y, poly) ^ gf_mul_naive(x, y, poly)
            x2 = gf_mul_naive(x, x, poly)
            rhs = gf_mul_naive(x2, x, poly) ^ gf_mul_naive(a, x2, poly) ^ b
            if lhs == rhs:
                pts.append((x, y))
    return pts


# --- independent group laws --------------------------------------------------


def w_add(P, Q, p, a, inv=brute_mod_inv):
    """Chord-and-tangent sum on y^2 = x^3 + ax + b over F_p."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * inv(2 * y1 % p, p) % p
    else:
        lam = (y2 - y1) * inv((x2 - x1) % p, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def ed_add(P, Q, p, a, d, inv=brute_mod_inv):
    """Unified twisted-Edwards sum; neutral is (0, 1)."""
    x1, y1 = P
    x2, y2 = Q
    t = d * x1 * x2 * y1 * y2 % p
    x3 = (x1 * y2 + y1 * x2) * inv((1 + t) % p, p) % p
    y3 = (y1 * y2 - a * x1 * x2) * inv((1 - t) % p, p) % p
    return (x3, y3)


def k_add(P, Q, m, poly, a, fast=False):
    """Binary-Weierstrass sum on y^2 + xy = x^3 + ax^2 + b over GF(2^m).

    Schoolbook product and brute-force inverse, or with ``fast`` the
    shift-and-add product and the Euclidean inverse.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q

    def mul(u, v):
        return gf_mul_shift(u, v, poly) if fast else gf_mul_naive(u, v, poly)

    def inv(u):
        return gf_inv_euclid(u, poly) if fast else gf_inv_naive(u, poly, m)

    if x1 == x2:
        if y2 == x1 ^ y1:
            return None
        lam = x1 ^ mul(y1, inv(x1))
        x3 = mul(lam, lam) ^ lam ^ a
    else:
        lam = mul(y1 ^ y2, inv(x1 ^ x2))
        x3 = mul(lam, lam) ^ lam ^ a ^ x1 ^ x2
    y3 = mul(lam, x1 ^ x3) ^ x3 ^ y1
    return (x3, y3)


def double_and_add(k, P, add, neutral):
    """k*P for k >= 0 by plain left-to-right double-and-add over an affine law."""
    acc = neutral
    for bit in bin(k)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, P)
    return acc


def cyclic_table(add, G, neutral):
    """All multiples of G in order: [neutral, G, 2G, ...] until it cycles."""
    table = [neutral]
    P = G
    while P != neutral:
        table.append(P)
        P = add(P, G)
    return table
