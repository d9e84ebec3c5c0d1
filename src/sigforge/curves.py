"""Curve forms, group laws and scalar multiplication.

Three curve forms are supported:

* ``weierstrass`` -- y^2 = x^3 + ax + b over a prime field; the neutral
  element is the point at infinity, represented as ``None``.
* ``koblitz``     -- y^2 + xy = x^3 + ax^2 + b over GF(2^m); neutral is
  ``None`` as above.
* ``edwards``     -- a*x^2 + y^2 = 1 + d*x^2*y^2 over a prime field; the
  neutral element is the affine point (0, 1), never ``None``.

Points are ``Point(x, y)`` named tuples of ints in affine coordinates; for
binary fields the ints are the polynomial bit patterns.  Internally the group
law runs in coordinates that need no field inversion per step: Jacobian
(X, Y, Z) ~ (X/Z^2, Y/Z^3) on Weierstrass curves, extended twisted-Edwards
(X, Y, Z, T) ~ (X/Z, Y/Z) with T = XY/Z on Edwards curves, and affine ones on
Koblitz curves.  Every addend has Z = 1, so addition is mixed only.  Each public
result is converted back to affine once, so it does not depend on coordinates.
The prime-field formulas read a and d centred, as -3 rather than p - 3, the
Weierstrass doubling is the one a picks (dbl-2001-b for a = -3, M = 3X^2 for
a = 0), and where p = 2^k - 1 every ``% p`` folds 2^k to 1 before the native
remainder: each chosen once per curve, from its parameters (``CurveSpec._law``).

Scalar multiplication is one Horner loop over streams of scalars' digits, each
with a table chosen from the curve's parameters, and mul_add's two products
share its chain; that loop and G's comb are numeric's, which DSA's g and y read
too.  On the anomalous binary curves -- koblitz form with b = 1 and
a in {0, 1}: k163 and k233 in the registry -- the Frobenius map
tau(x, y) = (x^2, y^2) replaces doubling in a width-w tau-adic NAF (Solinas
2000), and the scalar is reduced modulo tau^m - 1, which fixes every point of
E(GF(2^m)): exact for any scalar and curve point, whatever n and h are.
Elsewhere G's comb, two tables and so two streams, reads k mod n, exact as the
tests prove n*G neutral on registry curves; other points take a width-w NAF.  On
the cofactor-2 binary curves -- koblitz form, h = 2, odd n and m, not anomalous:
sect113r1, b163 and b233 in the registry -- the step, and the comb teeth's, is
point halving (Knudsen 1999; HMV Alg. 3.81), no inversion, over the digits of
k * 2^(t-1) mod n.  That is exact only on the order-n subgroup 2E, where
Tr(x) = Tr(a) and G lies; any other point is P' + T with T = (0, sqrt(b)) of
order 2 and P' in 2E, and k*P = k*P' + (k mod 2)*T.  Everywhere else the step
is doubling, and the NAF is of k itself.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import accumulate
from types import SimpleNamespace
from typing import NamedTuple, Optional, Union

from . import numeric
from .binary_field import BinaryField, is_irreducible

WEIERSTRASS = "weierstrass"
KOBLITZ = "koblitz"
EDWARDS = "edwards"
FORMS = (WEIERSTRASS, KOBLITZ, EDWARDS)


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
    The curve operations trust these values: the tests prove every registry
    curve with ``validate_curve``, and any other must pass it before use.

    On a prime field the group law reads constants derived from these fields
    once per curve and cached on it, not compared, hashed or shown: ``_p``,
    the modulus its formulas reduce by (``_reduction_modulus``); ``_a`` and
    ``_d``, the coefficients centred, so that a = p - 3 is read as -3; and
    ``_law``, the form's coordinates with the doubling chosen by that a.
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

    @cached_property
    def _p(self):
        return _reduction_modulus(self.field)

    @cached_property
    def _a(self):
        return _centred(self.a, self.field)

    @cached_property
    def _d(self):
        return _centred(self.d, self.field)

    @cached_property
    def _law(self):
        law = SimpleNamespace(**vars(_COORDS[self.form]))
        if self.form == WEIERSTRASS:
            law.double = _JACOBIAN_DOUBLINGS.get(self._a, _double_jacobian)
        return law


def _centred(c, p):
    """c mod p as the residue of least absolute value."""
    c %= p
    return c - p if c > p // 2 else c


def _reduction_modulus(p):
    """p, or where p = 2^k - 1 an int equal to p whose ``x % p`` first folds x to
    (x & p) + (x >> k), equal mod p as 2^k = 1 (Solinas 1999; HMV 2.2), so that
    the native ``%`` finishes on about k bits: exact for every int, negative too."""
    k = p.bit_length()
    if p != (1 << k) - 1:
        return p

    class _Mersenne(int):
        def __rmod__(self, x, p=p, k=k):
            return ((x & p) + (x >> k)) % p

        def __reduce__(self):
            return _reduction_modulus, (int(self),)

    return _Mersenne(p)


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
    size = curve.field_size
    if not (0 <= x < size and 0 <= y < size):
        return False
    if curve.form == KOBLITZ:
        f = curve.field
        lhs = f.mul(y, y) ^ f.mul(x, y)
        x2 = f.mul(x, x)
        rhs = f.mul(x2, x) ^ f.mul(curve.a, x2) ^ curve.b
        return lhs == rhs
    p = curve.field
    if curve.form == WEIERSTRASS:
        return (y * y - (x * x * x + curve.a * x + curve.b)) % p == 0
    # edwards: a*x^2 + y^2 == 1 + d*x^2*y^2
    x2, y2 = x * x % p, y * y % p
    return (curve.a * x2 + y2 - 1 - curve.d * x2 * y2) % p == 0


def _require_on_curve(point, curve):
    if not is_on_curve(point, curve):
        raise ValueError(f"point {point} is not on curve {curve.name}")


# --- Weierstrass: Jacobian coordinates, Z = 0 at infinity ----------------

_JACOBIAN_INFINITY = (1, 1, 0)


def _lift_jacobian(point, curve):
    return _JACOBIAN_INFINITY if point is None else (point.x, point.y, 1)


def _doubled_jacobian(P, M, p):
    # dbl-1998-cmo-2's last step from M, shared by the doublings below (HMV 3.2.2);
    # a point with Y = 0 has order 2 and doubles to Z3 = 0, the point at infinity
    X1, Y1, Z1 = P
    YY = Y1 * Y1 % p
    S = 4 * X1 * YY % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * YY * YY) % p
    return (X3, Y3, 2 * Y1 * Z1 % p)


def _double_jacobian(P, curve):
    # any a: M = 3X^2 + aZ^4
    X1, _, Z1 = P
    p = curve._p
    ZZ = Z1 * Z1 % p
    return _doubled_jacobian(P, (3 * X1 * X1 + curve._a * ZZ * ZZ) % p, p)


def _double_jacobian_minus3(P, curve):
    # dbl-2001-b, a = -3: M = 3(X - Z^2)(X + Z^2)
    X1, _, Z1 = P
    p = curve._p
    ZZ = Z1 * Z1 % p
    return _doubled_jacobian(P, 3 * (X1 - ZZ) * (X1 + ZZ) % p, p)


def _double_jacobian_a0(P, curve):
    # a = 0: M = 3X^2
    p = curve._p
    return _doubled_jacobian(P, 3 * P[0] * P[0] % p, p)


# the doubling each centred a picks; any other a takes the general one
_JACOBIAN_DOUBLINGS = {-3: _double_jacobian_minus3, 0: _double_jacobian_a0}


def _add_jacobian(P, Q, curve):
    # add-1998-cmo-2 with Z2 = 1, mixed Jacobian-affine: every addend Q is normalised
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    if Z1 == 0:
        return Q
    if Z2 == 0:
        return P
    p = curve._p
    Z1Z1 = Z1 * Z1 % p
    U2 = X2 * Z1Z1 % p
    S2 = Y2 * Z1 % p * Z1Z1 % p
    H = (U2 - X1) % p
    R = (S2 - Y1) % p
    if H == 0:  # same x: P == Q doubles, P == -Q cancels
        return _double_jacobian(P, curve) if R == 0 else _JACOBIAN_INFINITY
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    Y3 = (R * (V - X3) - Y1 * HHH) % p
    return (X3, Y3, Z1 * H % p)


def _negate_jacobian(P, curve):
    X, Y, Z = P
    return (X, -Y % curve._p, Z)


def _to_affine_jacobian(P, curve, zi=None):
    X, Y, Z = P
    if Z == 0:
        return None
    p = curve._p
    zi = zi or numeric.mod_inv(Z, p)
    zi2 = zi * zi % p
    return Point(X * zi2 % p, Y * zi2 % p * zi % p)


# --- Edwards: extended coordinates (Hisil-Wong-Carter-Dawson 2008) -------

_EXTENDED_NEUTRAL = (0, 1, 1, 0)


def _lift_extended(point, curve):
    x, y = point
    return (x, y, 1, x * y % curve._p)


def _extended_result(E, F, G, H, curve):
    """(EF, GH, FG, EH), the common last step of the add and double formulas.

    F and G are Z1*Z2*(1 -/+ d*x1*x2*y1*y2), the affine law's denominators
    scaled by a nonzero factor, so they vanish exactly where the affine law
    would divide by zero: on curves without a complete addition law.
    """
    p = curve._p
    F %= p
    G %= p
    if F == 0 or G == 0:
        raise ValueError(
            f"edwards addition denominator vanished on {curve.name}: "
            "curve parameters do not give a complete addition law"
        )
    H %= p
    return (E * F % p, G * H % p, F * G % p, E * H % p)


def _add_extended(P, Q, curve):
    # madd-2008-hwcd (Q normalised), unified: also right for P == Q and the neutral element
    p = curve._p
    X1, Y1, Z1, T1 = P
    X2, Y2, _, T2 = Q
    A = X1 * X2 % p
    B = Y1 * Y2 % p
    C = curve._d * T1 % p * T2 % p
    E = ((X1 + Y1) * (X2 + Y2) - A - B) % p
    return _extended_result(E, Z1 - C, Z1 + C, B - curve._a * A, curve)


def _double_extended(P, curve):
    # dbl-2008-hwcd; on a curve point its F and G vanish where the add formula's do for P + P
    p = curve._p
    X1, Y1, Z1, _ = P
    A = X1 * X1 % p
    B = Y1 * Y1 % p
    D = curve._a * A % p
    E = ((X1 + Y1) * (X1 + Y1) - A - B) % p
    G = D + B
    return _extended_result(E, G - 2 * Z1 * Z1, G, D - B, curve)


def _negate_extended(P, curve):
    X, Y, Z, T = P
    p = curve._p
    return (-X % p, Y, Z, -T % p)


def _to_affine_extended(P, curve, zi=None):
    X, Y, Z, _ = P
    p = curve._p
    zi = zi or numeric.mod_inv(Z, p)
    return Point(X * zi % p, Y * zi % p)


# --- Koblitz: affine coordinates, one field inversion per step -------------


class _Halved(NamedTuple):  # a half, as halve-and-add below leaves it
    x: int
    lam: int


def _unhalve(P, curve):
    """Affine form of a _Halved point, any other as it is: koblitz lift and to_affine."""
    if type(P) is not _Halved:
        return P
    return Point(P.x, curve.field.mul(P.x, P.x ^ P.lam))


def _add_koblitz(p1, p2, curve):
    p1 = _unhalve(p1, curve)  # a halving chain's accumulator, as _halve left it
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    f = curve.field
    if p1.x == p2.x:
        # on the curve, the only points with a given x are P and -P
        if p2.y == p1.x ^ p1.y:  # p2 == -p1, including the self-inverse x == 0 case
            return None
        # doubling, x != 0: lambda = x + y/x
        lam = p1.x ^ f.mul(p1.y, f.inv(p1.x))
        x3 = f.square(lam) ^ lam ^ curve.a
    else:
        lam = f.mul(p1.y ^ p2.y, f.inv(p1.x ^ p2.x))
        x3 = f.square(lam) ^ lam ^ curve.a ^ p1.x ^ p2.x
    y3 = f.mul(lam, p1.x ^ x3) ^ x3 ^ p1.y
    return Point(x3, y3)


def _double_koblitz(P, curve):
    return _add_koblitz(P, P, curve)


def _negate_koblitz(P, curve):
    return None if P is None else Point(P.x, P.x ^ P.y)


# One form's internal point representation and its group law on it:
#   neutral              the neutral element
#   lift(point, curve)   affine Point (or None) -> internal point
#   double(P, curve)     2P
#   add(P, Q, curve)     P + Q, for any P and a Q with Z = 1 (Z = 0 at infinity)
#   negate(P, curve)     -P
#   to_affine(P, curve[, 1/Z])  internal point -> affine Point, or None at infinity
_COORDS = {
    WEIERSTRASS: SimpleNamespace(
        neutral=_JACOBIAN_INFINITY,
        lift=_lift_jacobian,
        double=_double_jacobian,
        add=_add_jacobian,
        negate=_negate_jacobian,
        to_affine=_to_affine_jacobian,
    ),
    EDWARDS: SimpleNamespace(
        neutral=_EXTENDED_NEUTRAL,
        lift=_lift_extended,
        double=_double_extended,
        add=_add_extended,
        negate=_negate_extended,
        to_affine=_to_affine_extended,
    ),
    KOBLITZ: SimpleNamespace(
        neutral=None,
        lift=_unhalve,
        double=_double_koblitz,
        add=_add_koblitz,
        negate=_negate_koblitz,
        to_affine=_unhalve,
    ),
}


def point_add(p1: PointLike, p2: PointLike, curve: CurveSpec) -> PointLike:
    """Group sum of two on-curve points."""
    _require_on_curve(p1, curve)
    _require_on_curve(p2, curve)
    c = curve._law
    return c.to_affine(c.add(c.lift(p1, curve), c.lift(p2, curve), curve), curve)


def negate(point: PointLike, curve: CurveSpec) -> PointLike:
    """The group inverse of an on-curve point."""
    _require_on_curve(point, curve)
    c = curve._law
    return c.to_affine(c.negate(c.lift(point, curve), curve), curve)


# --- scalar multiplication ---------------------------------------------------

# G's comb (numeric.comb_teeth, numeric.comb_tables): k mod n, exact as n * G is neutral
# (tests prove it per registry curve), is read as numeric.COMB_ROWS rows of
# e = ceil(bits(n) / COMB_ROWS) bits, so a multiple of G costs e steps and at most
# COMB_TABLES * e additions: 16 and 32 on p256.
# Variable-base width-w NAF (HMV Alg. 3.36): nonzero digits are odd, below
# 2^(w-1) in size and at least w places apart, over 2^(w-2) odd multiples.
WNAF_WIDTH = 4
# Width-w tau-adic NAF on the anomalous binary curves (HMV 3.4): multiples
# of G read a cached table of 2^(TNAF_FIXED_WIDTH-2) points, any other point
# builds its 2^(TNAF_WIDTH-2) points per call.
TNAF_FIXED_WIDTH = 6
TNAF_WIDTH = 4
# fixed-base tables kept: comb tables and tau-adic tables of G, one per curve
FIXED_BASE_TABLES = 128


def _signed_table(odd, c, curve):
    """Table indexed by a signed odd digit u with |u| < 2 * len(odd): odd[u >> 1]
    for u > 0, and its negative for u < 0, which Python indexes from the end."""
    table = [c.neutral] * (4 * len(odd))
    for j, P in enumerate(odd):
        table[2 * j + 1], table[-2 * j - 1] = P, c.negate(P, curve)
    return tuple(table)


def _product(terms, c, curve):
    """The sum of k * P over terms (k, read, t, T) on one chain: read(k) gives the
    (digits, table) streams, digit i naming the multiple of P that weighs 2^i, or
    tau^i on the anomalous curves, shorter streams padded with zeros.  Where
    _halves holds, P lies in 2E, and halving between the t digits of
    k * 2^(t-1) mod n, t the longest term's, read from the least significant,
    weighs digit i 2^(i-t+1): k mod n times P, and T, of order 2, adds for odd k."""
    if _halves(curve):
        t = max(term[2] for term in terms)
        streams = [
            ([0] * (t - len(digits)) + digits[::-1], table)
            for k, read, _, _ in terms
            for digits, table in read((k << (t - 1)) % curve.n)
        ]
        step = _halve
    else:
        streams = [stream for k, read, _, _ in terms for stream in read(k)]
        t = max(len(digits) for digits, _ in streams)
        streams = [(digits + [0] * (t - len(digits)), table) for digits, table in streams]
        step = _frobenius if _is_anomalous(curve) else c.double
    acc = numeric.horner(streams, step, c.add, c.neutral, curve)
    for k, _, _, T in terms:
        if T and k & 1:
            acc = c.add(acc, T, curve)
    return acc


def _normalized(points, c, curve):
    """The points with Z = 1, or Z = 0 at infinity, from one field inversion
    (Montgomery's trick): 1/Z_i is the product of every other Z over the product
    of them all, a Z of 0 counting as 1.  Koblitz points need only unhalving."""
    if curve.form == KOBLITZ:
        return [_unhalve(P, curve) for P in points]
    p = curve._p
    zs = [P[2] or 1 for P in points]
    before = list(accumulate(zs, lambda a, z: a * z % p, initial=1))
    after = list(accumulate(reversed(zs), lambda a, z: a * z % p, initial=1))[::-1]
    inv = numeric.mod_inv(before[-1], p)
    return [
        c.lift(c.to_affine(P, curve, inv * before[i] % p * after[i + 1] % p), curve)
        for i, P in enumerate(points)
    ]


@lru_cache(maxsize=FIXED_BASE_TABLES)
def _comb_table(curve: CurveSpec) -> tuple:
    """(e, tables) of G's comb, teeth and entries normalised.  Tooth i is
    2^(i*e) * G or, where _halves holds, G halved (COMB_ROWS - 1 - i) * e times,
    2^(i*e) times G halved (COMB_ROWS - 1) * e times, so that nothing doubles."""
    c = curve._law
    step = _halve if _halves(curve) else c.double
    e, teeth = numeric.comb_teeth(c.lift(curve.g, curve), curve.n.bit_length(), step, curve)
    if step is _halve:
        teeth.reverse()
    return e, numeric.comb_tables(teeth, c.add, c.neutral, curve, partial(_normalized, c=c, curve=curve))


def _comb_term(k, curve):
    """k * G as a term of _product: the comb's streams of e columns, one per table."""
    e, tables = _comb_table(curve)
    if _halves(curve):  # tooth i is 2^(i*e) times G halved (COMB_ROWS - 1) * e times
        k <<= (numeric.COMB_ROWS - 1) * e
    return k % curve.n, lambda k: numeric.comb_streams(k, e, tables), e, None


def _wnaf(k):
    """Width-WNAF_WIDTH NAF digits of k >= 0, least significant first."""
    full, half = 1 << WNAF_WIDTH, 1 << (WNAF_WIDTH - 1)
    digits = []
    while k:
        u = 0
        if k & 1:
            u = k & (full - 1)
            if u >= half:
                u -= full
            k -= u
        digits.append(u)
        k >>= 1
    return digits


def _wnaf_table(P, c, curve):
    """Signed-digit table of the odd multiples of P that width-WNAF_WIDTH NAF digits
    name, normalised, as is the 2P that builds them."""
    twice = _normalized([c.double(P, curve)], c, curve)[0]
    odd = [P]  # odd[i] = (2i + 1) * P
    for _ in range((1 << (WNAF_WIDTH - 2)) - 1):
        odd.append(c.add(odd[-1], twice, curve))
    return _signed_table(_normalized(odd, c, curve), c, curve)


def _naf_term(k, point, curve, c):
    """k * point as a term: a width-w NAF of k or, where _halves holds, of
    k * 2^(t-1) mod n, exact on 2E only: a point P outside it, Tr(x) != Tr(a), is
    P' + T with T = (0, sqrt(b)) of order 2, P' = P + T in 2E, and k*P = k*P' + (k mod 2)*T."""
    f = curve.field
    T = None
    if _halves(curve) and point is not None and f.trace(point.x) != f.trace(curve.a):
        T = Point(0, f.sqrt(curve.b))
        point = c.add(point, T, curve)
    table = _wnaf_table(c.lift(point, curve), c, curve)
    return k, lambda k: [(_wnaf(k), table)], curve.n.bit_length() + 1, T


# --- cofactor-2 binary curves: halve-and-add (Knudsen 1999; HMV 3.6) --------
#
# When h = 2 and n is odd, E(GF(2^m)) is cyclic of order 2n, so every point of
# the order-n subgroup 2E has exactly one half in 2E; for odd m, a point
# (x, y) != O lies in 2E iff Tr(x) = Tr(a), and Tr(a) = 1.  Halving costs a
# half-trace, a multiply, a trace and a square root, and no inversion.  The
# halves are kept in lambda-representation (x, lambda = x + y/x), from which
# y = x(x + lambda) costs one multiply, paid only before an addition.


def _halves(curve):
    """Whether halving replaces doubling: koblitz form, h = 2, odd n and m, and
    not anomalous; in the registry sect113r1, b163 and b233."""
    return (
        curve.form == KOBLITZ
        and curve.h == 2
        and curve.n % 2 == 1
        and curve.field.m % 2 == 1
        and not _is_anomalous(curve)
    )


def _halve(P, curve):
    """The half of P in 2E, for P in 2E given affine or as _Halved (HMV Alg. 3.81).

    lam solves lam^2 + lam = x + a, so the half Q = (u, v) has lambda_Q = lam
    or lam + 1, and x = lambda_Q^2 + lambda_Q + a, y = u^2 + (lambda_Q + 1)x
    give u^2 = t + x or t with t = y + x*lam; the choice is the one with
    Tr(u) = Tr(a), which comes to Tr(t) = 0 for lambda_Q = lam.
    """
    if P is None:
        return None
    f, x = curve.field, P.x
    lam = f.half_trace(x ^ curve.a)
    if type(P) is _Halved:
        t = f.mul(x, x ^ P.lam ^ lam)
    else:
        t = P.y ^ f.mul(x, lam)
    if f.trace(t):
        return _Halved(f.sqrt(t), lam ^ 1)
    return _Halved(f.sqrt(t ^ x), lam)


# --- anomalous binary curves: tau-adic NAF (Solinas 2000; HMV 3.4) ----------
#
# On y^2 + xy = x^3 + ax^2 + 1 over GF(2^m) with a in {0, 1}, the Frobenius
# map tau(x, y) = (x^2, y^2) is a group endomorphism with tau^2 - mu*tau + 2 = 0,
# mu = (-1)^(1-a).  An element r0 + r1*tau of Z[tau], held as the pair (r0, r1),
# acts on points as r0*P + r1*tau(P), and multiplying by tau costs two squarings.


def _is_anomalous(curve):
    """Whether tau acts on the curve: koblitz form, b = 1 and a in {0, 1}."""
    return curve.form == KOBLITZ and curve.b == 1 and curve.a in (0, 1)


def _tau_power(j, mu):
    """tau^j = U_j*tau - 2*U_(j-1) for j >= 1, with U_0 = 0, U_1 = 1 and
    U_(i+1) = mu*U_i - 2*U_(i-1)."""
    u_prev, u = 0, 1
    for _ in range(j - 1):
        u_prev, u = u, mu * u - 2 * u_prev
    return -2 * u_prev, u


def _tau_reduce(k, d0, d1, mu):
    """k - q*(d0 + d1*tau), with q the quotient k / (d0 + d1*tau) in Q(tau)
    rounded coordinate-wise: the remainder has norm at most that of the divisor.

    The quotient is k times the conjugate (d0 + mu*d1) - d1*tau over the norm.
    """
    norm = d0 * d0 + mu * d0 * d1 + 2 * d1 * d1
    q0 = (2 * k * (d0 + mu * d1) + norm) // (2 * norm)
    q1 = (norm - 2 * k * d1) // (2 * norm)
    return k - q0 * d0 + 2 * q1 * d1, -q0 * d1 - q1 * d0 - mu * q1 * d1


@lru_cache(maxsize=None)
def _frobenius_modulus(m, mu):
    """tau^m - 1 as (d0, d1).  tau^m fixes every point of E(GF(2^m)), so a scalar
    reduced modulo it gives the same product on every curve point.  Its norm is
    the group order h*n, but it is derived from m and mu alone: reducing modulo
    (tau^m - 1)/(tau - 1) instead would be exact only on the order-n subgroup."""
    d0, d1 = _tau_power(m, mu)
    return d0 - 1, d1


@lru_cache(maxsize=None)
def _tnaf_constants(w, mu):
    """(t, alphas): t = tau mod tau^w as an integer mod 2^w, and alpha_u = u mod
    tau^w as (r0, r1) for odd u = 1, 3, ..., 2^(w-1) - 1."""
    d0, d1 = _tau_power(w, mu)
    t = -d0 * pow(d1, -1, 1 << w) % (1 << w)  # d0 + d1*t = 0 (mod 2^w)
    return t, tuple(_tau_reduce(u, d0, d1, mu) for u in range(1, 1 << (w - 1), 2))


def _tnaf(r0, r1, w, mu):
    """Width-w tau-adic NAF of r0 + r1*tau, least significant first (Solinas 2000).

    A digit u stands for sign(u) * alpha_|u|; nonzero digits are at least w
    places apart.
    """
    t, alphas = _tnaf_constants(w, mu)
    full, half = 1 << w, 1 << (w - 1)
    digits = []
    while r0 or r1:
        u = 0
        if r0 & 1:
            u = (r0 + r1 * t) & (full - 1)
            if u >= half:
                u -= full
            a0, a1 = alphas[abs(u) >> 1]
            if u > 0:
                r0, r1 = r0 - a0, r1 - a1
            else:
                r0, r1 = r0 + a0, r1 + a1
        digits.append(u)
        # divide by tau: 2 = tau*(mu - tau), so r0 = 2s gives s*mu - s*tau + r1
        s = r0 >> 1
        r0, r1 = r1 + mu * s, -s
    return digits


def _frobenius(P, curve):
    """tau(x, y) = (x^2, y^2); it fixes the point at infinity."""
    square = curve.field.square
    return None if P is None else Point(square(P.x), square(P.y))


def _tnaf_table(point, curve, w, mu):
    """Signed-digit table of alpha_u * point for odd u below 2^(w-1), each
    alpha_u applied through its own width-2 tau-adic NAF."""
    c = _COORDS[KOBLITZ]
    base = _signed_table([point], c, curve)
    _, alphas = _tnaf_constants(w, mu)
    odd = [numeric.horner([(_tnaf(a0, a1, 2, mu), base)], _frobenius, c.add, c.neutral, curve)
           for a0, a1 in alphas]
    return _signed_table(odd, c, curve)


@lru_cache(maxsize=FIXED_BASE_TABLES)
def _tnaf_table_of_g(curve, mu):
    return _tnaf_table(curve.g, curve, TNAF_FIXED_WIDTH, mu)


def _tnaf_term(k, point, curve):
    """k * point as a term of _product on an anomalous binary curve: the width-w
    tau-adic NAF of k reduced modulo tau^m - 1; no halving, so no chain length."""
    mu = 1 if curve.a == 1 else -1
    r = _tau_reduce(k, *_frobenius_modulus(curve.field.m, mu), mu)
    if point == curve.g:
        w, table = TNAF_FIXED_WIDTH, _tnaf_table_of_g(curve, mu)
    else:
        w, table = TNAF_WIDTH, _tnaf_table(point, curve, TNAF_WIDTH, mu)
    return r, lambda r: [(_tnaf(*r, w, mu), table)], None, None


def _term(k, point, curve, c):
    """k * point as a term of _product: the tau-adic NAF on the anomalous binary
    curves, elsewhere the comb for G and the NAF otherwise."""
    if k < 0:
        raise ValueError("scalar must be non-negative")
    _require_on_curve(point, curve)
    if _is_anomalous(curve):
        return _tnaf_term(k, point, curve)
    if point == curve.g:
        return _comb_term(k, curve)
    return _naf_term(k, point, curve, c)


def scalar_mul(k: int, point: PointLike, curve: CurveSpec) -> PointLike:
    """k-fold group sum, for any int k >= 0.

    On the anomalous binary curves (koblitz form, b = 1, a in {0, 1}) k is
    reduced modulo tau^m - 1, which is exact on every curve point, and applied
    as a width-w tau-adic NAF: multiples of ``curve.g`` read a table cached per
    curve, other points build theirs per call.  Elsewhere multiples of the base
    point read k mod n, exact since n*G is neutral, through a comb
    with two tables cached per curve, and any other point uses a width-w NAF.
    On the cofactor-2 binary curves both halve, reading k * 2^(t-1) mod n, and
    the NAF adds a correction by the point of order 2 that keeps it exact on
    every curve point; elsewhere both double, and the NAF is of k itself.
    """
    c = curve._law
    return c.to_affine(_product([_term(k, point, curve, c)], c, curve), curve)


def mul_add(k1: int, p1: PointLike, k2: int, p2: PointLike, curve: CurveSpec) -> PointLike:
    """k1 * p1 + k2 * p2, each scalar read as in ``scalar_mul``; both products share
    one chain of doublings, tau maps or halvings (interleaving; HMV 3.3.3), as
    long as the longer product alone, and the sum is converted to affine once."""
    c = curve._law
    return c.to_affine(_product([_term(k1, p1, curve, c), _term(k2, p2, curve, c)], c, curve), curve)


def validate_curve(curve: CurveSpec) -> None:
    """Check every CurveSpec invariant; raises ValueError naming the first failure.

    Checks: known form, h >= 1, n probable-prime, field validity (prime
    modulus / irreducible reduction polynomial and a, b in GF(2^m)),
    non-singularity, base point membership, (n - 1)*G = -G, and the Hasse bound.
    """

    def fail(reason):
        raise ValueError(f"curve {curve.name!r}: {reason}")

    if curve.form not in FORMS:
        fail(f"unknown form {curve.form!r}")
    if curve.h < 1:
        fail("cofactor must be >= 1")
    if curve.n < 2 or not numeric.is_probable_prime(curve.n):
        fail("order n is not prime")
    if curve.form == KOBLITZ:
        if not isinstance(curve.field, BinaryField):
            fail("koblitz form requires a BinaryField")
        if not is_irreducible(curve.field.poly):
            fail("reduction polynomial is not irreducible")
        if not (0 <= curve.a < curve.field.size and 0 <= curve.b < curve.field.size):
            fail("coefficients a and b must be field elements")
        if curve.b == 0:
            fail("singular curve (b = 0)")
    else:
        p = curve.field
        if not isinstance(p, int) or p < 3 or not numeric.is_probable_prime(p):
            fail("field modulus is not an odd prime")
        if curve.form == WEIERSTRASS:
            if (4 * curve.a**3 + 27 * curve.b**2) % p == 0:
                fail("singular curve (zero discriminant)")
        else:
            if curve.a % p == 0 or curve.d % p == 0 or curve.a % p == curve.d % p:
                fail("degenerate edwards parameters")
    if not is_on_curve(curve.g, curve):
        fail("base point is not on the curve")
    # n*G = neutral, checked as (n - 1)*G = -G: the comb would read n*G as 0*G;
    # halving, in its teeth too, is exact for G in 2E (none outside passes)
    if scalar_mul(curve.n - 1, curve.g, curve) != negate(curve.g, curve):
        fail("n * G is not the neutral element")
    q = curve.field_size
    t = curve.h * curve.n - (q + 1)
    if t * t > 4 * q:
        fail("h * n violates the Hasse bound")
