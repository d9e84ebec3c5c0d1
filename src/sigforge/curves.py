"""Curve forms, group laws and scalar multiplication.

Three curve forms are supported, all with affine coordinates:

* ``weierstrass`` -- y^2 = x^3 + ax + b over a prime field; the neutral
  element is the point at infinity, represented as ``None``.
* ``koblitz``     -- y^2 + xy = x^3 + ax^2 + b over GF(2^m); neutral is
  ``None`` as above.
* ``edwards``     -- a*x^2 + y^2 = 1 + d*x^2*y^2 over a prime field; the
  neutral element is the affine point (0, 1), never ``None``.

Points are ``Point(x, y)`` named tuples of ints; for binary fields the ints
are the polynomial bit patterns.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from . import numeric
from .binary_field import BinaryField, is_irreducible

WEIERSTRASS = "weierstrass"
KOBLITZ = "koblitz"
EDWARDS = "edwards"
FORMS = (WEIERSTRASS, KOBLITZ, EDWARDS)

PRIME_FORMS = (WEIERSTRASS, EDWARDS)


class Point(NamedTuple):
    x: int
    y: int


# the point at infinity for weierstrass/koblitz curves
PointLike = Optional[Point]


@dataclass(frozen=True)
class CurveSpec:
    """A named curve: form, field, coefficients, base point, order, cofactor.

    ``b`` holds the second curve coefficient; for Edwards curves it is the
    parameter conventionally called d (exposed as the ``d`` property).
    """

    name: str
    form: str
    field: Union[int, BinaryField]
    a: int
    b: int
    g: Point
    n: int
    h: int

    @property
    def d(self) -> int:
        return self.b

    @property
    def field_size(self) -> int:
        if isinstance(self.field, BinaryField):
            return self.field.size
        return self.field


def neutral(curve: CurveSpec) -> PointLike:
    """The group identity: (0, 1) on Edwards curves, infinity (None) otherwise."""
    return Point(0, 1) if curve.form == EDWARDS else None


def is_neutral(point: PointLike, curve: CurveSpec) -> bool:
    return point == neutral(curve)


def is_on_curve(point: PointLike, curve: CurveSpec) -> bool:
    """Membership test; the neutral element always belongs to the curve."""
    if point is None:
        return curve.form != EDWARDS
    x, y = point
    if curve.form == KOBLITZ:
        f = curve.field
        if not (0 <= x < f.size and 0 <= y < f.size):
            return False
        lhs = f.mul(y, y) ^ f.mul(x, y)
        x2 = f.mul(x, x)
        rhs = f.mul(x2, x) ^ f.mul(curve.a, x2) ^ curve.b
        return lhs == rhs
    p = curve.field
    if not (0 <= x < p and 0 <= y < p):
        return False
    if curve.form == WEIERSTRASS:
        return (y * y - (x * x * x + curve.a * x + curve.b)) % p == 0
    # edwards: a*x^2 + y^2 == 1 + d*x^2*y^2
    x2, y2 = x * x % p, y * y % p
    return (curve.a * x2 + y2 - 1 - curve.d * x2 * y2) % p == 0


def _require_on_curve(point, curve):
    if not is_on_curve(point, curve):
        raise ValueError(f"point {point} is not on curve {curve.name}")


def _add_weierstrass(p1, p2, curve):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    p = curve.field
    if p1.x == p2.x:
        if (p1.y + p2.y) % p == 0:
            return None
        lam = (3 * p1.x * p1.x + curve.a) * numeric.mod_inv(2 * p1.y % p, p) % p
    else:
        lam = (p2.y - p1.y) * numeric.mod_inv((p2.x - p1.x) % p, p) % p
    x3 = (lam * lam - p1.x - p2.x) % p
    y3 = (lam * (p1.x - x3) - p1.y) % p
    return Point(x3, y3)


def _add_koblitz(p1, p2, curve):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    f = curve.field
    if p1.x == p2.x:
        if p2.y == p1.x ^ p1.y:  # p2 == -p1, including the self-inverse x == 0 case
            return None
        if p1.y != p2.y:
            raise ValueError("points share an x coordinate but are unrelated")
        # doubling, x != 0: lambda = x + y/x
        lam = p1.x ^ f.mul(p1.y, f.inv(p1.x))
        x3 = f.square(lam) ^ lam ^ curve.a
    else:
        lam = f.mul(p1.y ^ p2.y, f.inv(p1.x ^ p2.x))
        x3 = f.square(lam) ^ lam ^ curve.a ^ p1.x ^ p2.x
    y3 = f.mul(lam, p1.x ^ x3) ^ x3 ^ p1.y
    return Point(x3, y3)


def _add_edwards(p1, p2, curve):
    p = curve.field
    x1, y1 = p1
    x2, y2 = p2
    t = curve.d * x1 * x2 % p * y1 % p * y2 % p
    den1 = (1 + t) % p
    den2 = (1 - t) % p
    if den1 == 0 or den2 == 0:
        raise ValueError(
            f"edwards addition denominator vanished on {curve.name}: "
            "curve parameters do not give a complete addition law"
        )
    x3 = (x1 * y2 + y1 * x2) * numeric.mod_inv(den1, p) % p
    y3 = (y1 * y2 - curve.a * x1 * x2) * numeric.mod_inv(den2, p) % p
    return Point(x3, y3)


_ADD = {WEIERSTRASS: _add_weierstrass, KOBLITZ: _add_koblitz, EDWARDS: _add_edwards}


def point_add(p1: PointLike, p2: PointLike, curve: CurveSpec) -> PointLike:
    """Group sum of two on-curve points."""
    _require_on_curve(p1, curve)
    _require_on_curve(p2, curve)
    return _ADD[curve.form](p1, p2, curve)


def negate(point: PointLike, curve: CurveSpec) -> PointLike:
    """The group inverse of an on-curve point."""
    _require_on_curve(point, curve)
    if point is None:
        return None
    if curve.form == WEIERSTRASS:
        return Point(point.x, (-point.y) % curve.field)
    if curve.form == KOBLITZ:
        return Point(point.x, point.x ^ point.y)
    return Point((-point.x) % curve.field, point.y)


def scalar_mul(k: int, point: PointLike, curve: CurveSpec) -> PointLike:
    """k-fold group sum by left-to-right double-and-add; k may be any int >= 0."""
    if k < 0:
        raise ValueError("scalar must be non-negative")
    _require_on_curve(point, curve)
    acc = neutral(curve)
    if k == 0 or is_neutral(point, curve):
        return acc
    add = _ADD[curve.form]
    for i in range(k.bit_length() - 1, -1, -1):
        acc = add(acc, acc, curve)
        if (k >> i) & 1:
            acc = add(acc, point, curve)
    return acc


def order_bits(curve: CurveSpec) -> int:
    """Bit length of the base point order n."""
    return curve.n.bit_length()


def validate_curve(curve: CurveSpec, rounds: int = numeric.MILLER_RABIN_ROUNDS) -> None:
    """Check every CurveSpec invariant; raises ValueError naming the first failure.

    Checks: known form, h >= 1, n probable-prime, field validity (prime
    modulus / irreducible reduction polynomial), non-singularity, base point
    membership, n*G = neutral, and the Hasse bound on h*n.
    """

    def fail(reason):
        raise ValueError(f"curve {curve.name!r}: {reason}")

    if curve.form not in FORMS:
        fail(f"unknown form {curve.form!r}")
    if curve.h < 1:
        fail("cofactor must be >= 1")
    if curve.n < 2 or not numeric.is_probable_prime(curve.n, rounds):
        fail("order n is not prime")
    if curve.form == KOBLITZ:
        if not isinstance(curve.field, BinaryField):
            fail("koblitz form requires a BinaryField")
        if not is_irreducible(curve.field.poly):
            fail("reduction polynomial is not irreducible")
        if curve.b == 0:
            fail("singular curve (b = 0)")
    else:
        p = curve.field
        if not isinstance(p, int) or p < 3 or not numeric.is_probable_prime(p, rounds):
            fail("field modulus is not an odd prime")
        if curve.form == WEIERSTRASS:
            if (4 * curve.a**3 + 27 * curve.b**2) % p == 0:
                fail("singular curve (zero discriminant)")
        else:
            if curve.a % p == 0 or curve.d % p == 0 or curve.a % p == curve.d % p:
                fail("degenerate edwards parameters")
    if not is_on_curve(curve.g, curve):
        fail("base point is not on the curve")
    if not is_neutral(scalar_mul(curve.n, curve.g, curve), curve):
        fail("n * G is not the neutral element")
    q = curve.field_size
    t = curve.h * curve.n - (q + 1)
    if t * t > 4 * q:
        fail("h * n violates the Hasse bound")
