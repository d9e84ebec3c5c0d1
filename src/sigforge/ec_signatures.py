"""Elliptic-curve signature schemes: ECDSA and a hash-nonce EdDSA variant.

Both schemes are generic over any CurveSpec, whatever its form: ECDSA runs
on Edwards curves and EdDSA on Weierstrass or Koblitz curves just as well as
on their conventional forms.  ECDSA is DSA's (r, s) scheme over the curve's
order-n group, and reuses ff_signatures' equations and nonce loop.  Both
verifies and key import read one public-key rule, ``ec_public_problem``.

The EdDSA variant here derives its nonce as r = H(H(m) || m) reduced mod n,
computes the challenge h from the x coordinates of R and the public key plus
the hashed message, and leaves s = r + h*k_a unreduced.  It is deterministic:
signing the same message twice yields byte-identical signatures.
"""

from typing import NamedTuple, Optional

from .curves import (
    CurveSpec,
    KOBLITZ,
    Point,
    is_neutral,
    is_on_curve,
    mul_add,
    negate,
    scalar_mul,
)
from .ff_signatures import DsaSignature, dsa_sign_equation, dsa_nonce_loop, dsa_verify_equation
from .hashing import digest, digest_to_int, select_hash_for_order, sign_hash
from .numeric import RngHandle, is_int_pair, rand_below


class EcKey(NamedTuple):
    curve: CurveSpec  # a registry curve, or one that passed validate_curve
    q: Point  # public point
    ka: Optional[int] = None  # private scalar

    @property
    def key_size(self) -> int:
        """Bits of the base point order n, by which ECDSA and EdDSA alike pick the hash."""
        return self.curve.n.bit_length()

    @property
    def hash_name(self) -> str:
        return select_hash_for_order(self.key_size)

    @property
    def has_private(self) -> bool:
        return self.ka is not None

    def public_only(self) -> "EcKey":
        return EcKey(curve=self.curve, q=self.q)


def ec_public_problem(curve: CurveSpec, point) -> Optional[str]:
    """Why point is refused as a public key on curve, or None; any point is taken."""
    try:
        select_hash_for_order(curve.n.bit_length())
    except ValueError as exc:
        return f"field 'curve': {exc}"
    if not (is_int_pair(point) and is_on_curve(point, curve)):
        return "fields 'qx', 'qy' are not a point on the curve"
    if is_neutral(point, curve):
        return "public point is the neutral element"
    return None


class EddsaSignature(NamedTuple):
    R: Point
    s: int


def ec_keygen(curve: CurveSpec, rng: RngHandle) -> EcKey:
    """Draw a private scalar in [1, n-1] and derive the public point."""
    ka = rand_below(curve.n, rng)
    return EcKey(curve=curve, q=scalar_mul(ka, curve.g, curve), ka=ka)


def _x(point: Optional[Point]) -> int:
    """The x coordinate, 0 at infinity; Edwards' neutral (0, 1) has x = 0 already."""
    return 0 if point is None else point.x


def ecdsa_sign_digest(key: EcKey, hm: int, k_r: int) -> Optional[DsaSignature]:
    """DSA's (r, s) over the curve, committing to the x coordinate of k_r*G."""
    curve = key.curve
    return dsa_sign_equation(curve.n, key.ka, lambda k: _x(scalar_mul(k, curve.g, curve)), hm, k_r)


def ecdsa_sign(key: EcKey, message: bytes, rng: RngHandle) -> DsaSignature:
    """Sign with a fresh random nonce per call; nonce reuse leaks the key."""
    return dsa_nonce_loop(key, key.curve.n, ecdsa_sign_digest, message, rng)


def ecdsa_verify_digest(key: EcKey, hm: int, sig: DsaSignature) -> bool:
    curve = key.curve
    return dsa_verify_equation(curve.n, lambda u1, u2: _x(mul_add(u1, curve.g, u2, key.q, curve)), hm, sig)


def ecdsa_verify(key: EcKey, message: bytes, sig: DsaSignature) -> bool:
    return not ec_public_problem(key.curve, key.q) and ecdsa_verify_digest(
        key, digest_to_int(message, key.hash_name, key.curve.n), sig
    )


def eddsa_nonce(curve: CurveSpec, message: bytes, alg: str) -> int:
    """Deterministic nonce: digest-then-message rehashed, reduced mod n.

    A zero value (probability ~2^-n) is replaced by 1 so the scheme stays
    redraw-free.
    """
    r = digest_to_int(digest(message, alg) + message, alg, curve.n)
    return r if r != 0 else 1


def eddsa_challenge_modulus(curve: CurveSpec) -> int:
    """The field prime, or n on binary-field curves, which have no prime modulus."""
    return curve.n if curve.form == KOBLITZ else curve.field


def eddsa_challenge(curve: CurveSpec, big_r: Point, public: Point, message: bytes, alg: str) -> int:
    """Challenge h = R_x + Q_x + hashed message, reduced by the challenge modulus."""
    modulus = eddsa_challenge_modulus(curve)
    return (big_r.x + public.x + digest_to_int(message, alg, modulus)) % modulus


def eddsa_sign(key: EcKey, message: bytes) -> EddsaSignature:
    curve, alg = key.curve, sign_hash(key)
    r = eddsa_nonce(curve, message, alg)
    big_r = scalar_mul(r, curve.g, curve)
    h = eddsa_challenge(curve, big_r, key.q, message, alg)
    return EddsaSignature(big_r, r + h * key.ka)  # s deliberately unreduced


def eddsa_verify(key: EcKey, message: bytes, sig: EddsaSignature) -> bool:
    curve = key.curve
    if ec_public_problem(curve, key.q) or not (isinstance(sig, (tuple, list)) and len(sig) == 2):
        return False
    big_r, s = sig
    # an honest s = r + h*ka is at most modulus*(n-1); the bound keeps the work
    # of s*G independent of the size of a forged s
    if not (isinstance(s, int) and 0 <= s < curve.n * eddsa_challenge_modulus(curve)):
        return False
    if not (is_int_pair(big_r) and is_on_curve(big_r, curve)):
        return False
    big_r = Point(*big_r)
    h = eddsa_challenge(curve, big_r, key.q, message, key.hash_name)
    # s*G - h*Q = R, one two-term product; -Q rather than (n - h)*Q, which
    # equals -h*Q only when Q has no component outside the order-n subgroup
    return mul_add(s, curve.g, h, negate(key.q, curve), curve) == big_r
