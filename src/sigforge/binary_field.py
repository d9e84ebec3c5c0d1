"""GF(2^m) arithmetic in polynomial basis.

Field elements are ints whose bit i is the coefficient of x^i, so addition is
XOR and every element fits in m bits.  ``BinaryField`` carries the extension
degree and the reduction polynomial (same encoding, bit m set).

The arithmetic leans on the interpreter's integer and bytes primitives:

- Multiplication spreads each bit of both operands into its own byte and
  multiplies the two spread integers once.  Byte k of that product counts the
  pairs i + j = k with both bits set, so its low bit is coefficient k of the
  carry-less product.  A count stays below 256, and never carries into the
  next byte, only while one operand has at most 255 bits, so that operand is
  taken 255 bits (one lane) at a time; every registry field fits in one lane.
- Squaring reads the binary digits of its operand as base-4 digits, which
  puts a zero bit after every bit: coefficient i moves to x^(2i).
- Reduction folds the bits at and above x^m back onto the polynomial's lower
  terms, since x^m = poly - x^m modulo poly (Hankerson-Menezes-Vanstone,
  Guide to ECC, 2.3.5).  Each fold is one shift-and-XOR per term; the
  registry's trinomials and pentanomials need two or three folds.
- The square root and the half-trace, which point halving needs, are
  GF(2)-linear maps: each is a table of its values on every 4-bit window of
  its operand, built on first use and kept on the field, and is applied as
  one lookup per window.  The trace is the parity of the operand's bits
  under a fixed mask.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .errors import NotInvertibleError

_LANE_BITS = 255
_LANE_MASK = (1 << _LANE_BITS) - 1
_BIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")
_BYTE_PARITY = bytes(b"01"[i & 1] for i in range(256))
_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _byte_per_bit(a: int) -> int:
    """The int whose byte i is bit i of a."""
    return int.from_bytes(format(a, "b").encode("ascii").translate(_BIT_TO_BYTE), "big")


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials."""
    spread_b = _byte_per_bit(b)
    prod = shift = 0
    while a:
        counts = _byte_per_bit(a & _LANE_MASK) * spread_b
        bits = counts.to_bytes(counts.bit_length() // 8 + 1, "big").translate(_BYTE_PARITY)
        prod ^= int(bits, 2) << shift
        a >>= _LANE_BITS
        shift += _LANE_BITS
    return prod


def _poly_square(a: int) -> int:
    """Square in GF(2)[x]: coefficient of x^i moves to x^(2i)."""
    return int(format(a, "b"), 4)


def _window_tables(columns) -> tuple:
    """The GF(2)-linear map that sends x^i to columns[i], as one table per
    4-bit window of its operand, most significant window first: entry v of a
    window's table is the image of v placed at that window."""
    tables = []
    for j in range(0, len(columns), 4):
        table = [0]
        for column in columns[j : j + 4]:
            table += [v ^ column for v in table]
        tables.append(tuple(table))
    return tuple(reversed(tables))


def _apply_windows(tables: tuple, a: int) -> int:
    """The image of a under _window_tables' map: one lookup per hex digit of a."""
    out = 0
    for table, v in zip(tables, format(a, f"0{len(tables)}x").encode("ascii").translate(_HEX_TO_NIBBLE)):
        out ^= table[v]
    return out


def _poly_mod(value: int, poly: int) -> int:
    d = poly.bit_length()
    while value.bit_length() >= d:
        value ^= poly << (value.bit_length() - d)
    return value


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def is_irreducible(poly: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial given as a bit mask."""
    m = poly.bit_length() - 1
    if m < 1 or not poly & 1:
        return False
    ring = BinaryField(m, poly)
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
            t = ring.square(t)
        if _poly_gcd(t ^ x, poly) != 1:
            return False
    t = x
    for _ in range(m):
        t = ring.square(t)
    return t == x


@dataclass(frozen=True)
class BinaryField:
    """GF(2^m) with the given reduction polynomial (degree m, constant term 1)."""

    m: int
    poly: int
    # exponents of the terms of poly below x^m, and 2^m - 1; set from poly
    _taps: tuple = field(init=False, repr=False, compare=False)
    _mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("extension degree must be >= 1")
        if self.poly.bit_length() != self.m + 1 or not self.poly & 1:
            raise ValueError(
                f"reduction polynomial must have degree {self.m} and constant term 1"
            )
        taps = tuple(i for i in range(self.m) if (self.poly >> i) & 1)
        object.__setattr__(self, "_taps", taps)
        object.__setattr__(self, "_mask", (1 << self.m) - 1)

    @property
    def size(self) -> int:
        return 1 << self.m

    def _reduce(self, v: int) -> int:
        """v mod poly, for any v >= 0, by folding the high part onto the taps."""
        m, mask, taps = self.m, self._mask, self._taps
        high = v >> m
        while high:
            v &= mask
            for t in taps:
                v ^= high << t
            high = v >> m
        return v

    def mul(self, a: int, b: int) -> int:
        """Carry-less product reduced modulo the field polynomial; a and b must be elements."""
        return self._reduce(_clmul(a, b))

    def square(self, a: int) -> int:
        return self._reduce(_poly_square(a))

    def sqrt(self, a: int) -> int:
        """The square root, a^(2^(m-1)); a must be an element."""
        return _apply_windows(self._sqrt_tables, a)

    def half_trace(self, a: int) -> int:
        """A root z of z^2 + z = a + Tr(a), linear in a, as the half-trace is
        for odd m; a must be an element.  Raises ValueError for even m."""
        return _apply_windows(self._half_trace_tables[0], a)

    def trace(self, a: int) -> int:
        """Tr(a) = a + a^2 + a^4 + ... + a^(2^(m-1)), 0 or 1; a must be an element.
        Raises ValueError for even m."""
        return (a & self._half_trace_tables[1]).bit_count() & 1

    @cached_property
    def _sqrt_tables(self) -> tuple:
        # sqrt(x^2i) = x^i and sqrt(x^(2i+1)) = x^i * sqrt(x)
        root_x = 2
        for _ in range(self.m - 1):
            root_x = self.square(root_x)
        columns = [self._reduce(root_x << (i >> 1)) if i & 1 else 1 << (i >> 1) for i in range(self.m)]
        return _window_tables(columns)

    @cached_property
    def _half_trace_tables(self) -> tuple:
        """(tables, mask): the half-trace's window tables and the trace's bit
        mask, from one GF(2) elimination.

        z -> z^2 + z maps GF(2^m) onto the trace-0 elements; for odd m, Tr(1) = 1,
        so those and 1 span the field.  Each row holds an image above bit m and
        its preimage below, bit m standing for Tr: rows z^2 + z | z for z = x^j,
        j >= 1, and 1 | Tr.  Reducing x^i against them leaves the preimage z_i
        and the flag t_i with z_i^2 + z_i + t_i = x^i, so t_i = Tr(x^i).
        """
        m = self.m
        if m % 2 == 0:
            raise ValueError(f"the half-trace needs an odd extension degree, not {m}")
        pivots = {}  # bit length of a row -> the row

        def reduced(row):
            while row >> (m + 1):
                pivot = pivots.get(row.bit_length())
                if pivot is None:
                    break
                row ^= pivot
            return row

        rows = [(self._reduce(1 << 2 * j) ^ 1 << j) << (m + 1) | 1 << j for j in range(1, m)]
        for row in rows + [1 << (m + 1) | 1 << m]:
            row = reduced(row)
            pivots[row.bit_length()] = row
        solutions = [reduced(1 << (i + m + 1)) for i in range(m)]
        mask = sum((z >> m & 1) << i for i, z in enumerate(solutions))
        return _window_tables([z & self._mask for z in solutions]), mask

    def inv(self, a: int) -> int:
        """Inverse via extended Euclid over GF(2)[x] (HMV Algorithm 2.48).

        g1 and g2 keep degree below m throughout, so g1 needs no reduction.
        """
        if not 0 < a < self.size:
            raise NotInvertibleError(f"{a} is not a nonzero element of GF(2^{self.m})")
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
        return g1
