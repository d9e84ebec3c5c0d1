"""GF(2^m) arithmetic in polynomial basis.

Field elements are ints whose bit i is the coefficient of x^i, so addition is
XOR and every element fits in m bits.  ``BinaryField`` carries the extension
degree and the reduction polynomial (same encoding, bit m set).
"""

from dataclasses import dataclass

from .errors import NotInvertibleError


def _poly_mod(value: int, poly: int) -> int:
    d = poly.bit_length()
    while value.bit_length() >= d:
        value ^= poly << (value.bit_length() - d)
    return value


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _spread_bits(a: int) -> int:
    # squaring in GF(2)[x]: coefficient of x^i moves to x^(2i)
    r = 0
    while a:
        low = a & -a
        r |= 1 << (2 * (low.bit_length() - 1))
        a ^= low
    return r


def is_irreducible(poly: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial given as a bit mask."""
    m = poly.bit_length() - 1
    if m < 1 or not poly & 1:
        return False

    def square_mod(t):
        return _poly_mod(_spread_bits(t), poly)

    factors = []
    k, f = m, 2
    while f * f <= k:
        if k % f == 0:
            factors.append(f)
            while k % f == 0:
                k //= f
        f += 1
    if k > 1:
        factors.append(k)

    x = 2
    for r in factors:
        t = x
        for _ in range(m // r):
            t = square_mod(t)
        if _poly_gcd(t ^ x, poly) != 1:
            return False
    t = x
    for _ in range(m):
        t = square_mod(t)
    return t == x


@dataclass(frozen=True)
class BinaryField:
    """GF(2^m) with the given reduction polynomial (degree m, constant term 1)."""

    m: int
    poly: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("extension degree must be >= 1")
        if self.poly.bit_length() != self.m + 1 or not self.poly & 1:
            raise ValueError(
                f"reduction polynomial must have degree {self.m} and constant term 1"
            )

    @property
    def size(self) -> int:
        return 1 << self.m

    def _check(self, *values):
        for v in values:
            if not 0 <= v < (1 << self.m):
                raise ValueError(f"{v} is not an element of GF(2^{self.m})")

    def mul(self, a: int, b: int) -> int:
        """Carry-less product reduced modulo the field polynomial."""
        self._check(a, b)
        prod = 0
        x = a
        while x:
            low = x & -x
            prod ^= b << (low.bit_length() - 1)
            x ^= low
        return _poly_mod(prod, self.poly)

    def square(self, a: int) -> int:
        self._check(a)
        return _poly_mod(_spread_bits(a), self.poly)

    def inv(self, a: int) -> int:
        """Inverse via extended Euclid over GF(2)[x]."""
        self._check(a)
        if a == 0:
            raise NotInvertibleError("0 has no inverse in a binary field")
        u, v = a, self.poly
        g1, g2 = 1, 0
        # invariant: g1*a == u and g2*a == v (mod poly)
        while u != 1:
            if u.bit_length() < v.bit_length():
                u, v = v, u
                g1, g2 = g2, g1
            j = u.bit_length() - v.bit_length()
            u ^= v << j
            g1 ^= g2 << j
        return _poly_mod(g1, self.poly)
