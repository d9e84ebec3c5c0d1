"""The signature schemes as one table.

``SCHEMES`` maps each algorithm name to a ``Scheme`` record holding what the
other layers need to know about it: key generation, signing and verification,
and the field layout of its key and signature files.  It is the only list of
algorithms in the package; each key derives its own ``key_size`` and ``hash_name``.

The records reach the scheme functions through this module's globals at call
time (hence the small lambdas), so a wrapper bound over a module attribute,
such as a profiler's, also sees the calls made through the table.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

from .curves import Point, is_neutral, scalar_mul
from .ec_signatures import (
    EcKey,
    EddsaSignature,
    ec_keygen,
    ec_public_problem,
    ecdsa_sign,
    ecdsa_verify,
    eddsa_sign,
    eddsa_verify,
)
from .errors import KeyFileError, UnknownCurveError
from .ff_signatures import (
    DsaKey,
    DsaParams,
    DsaSignature,
    RsaKey,
    dsa_keygen,
    dsa_paramgen,
    dsa_public_problem,
    dsa_sign,
    dsa_verify,
    rsa_keygen,
    rsa_public_problem,
    rsa_sign,
    rsa_sign_digest,
    rsa_verify,
)
from .hashing import digest_bits, select_hash_for_modulus
from .registry import get_curve

DEFAULT_BITS = 2048


@dataclass(frozen=True)
class Scheme:
    """What the other layers need of one algorithm; its hash is the key's ``hash_name``."""

    keygen: Callable  # (rng, bits, curve name) -> key; None picks the default
    sign: Callable  # (key, message, rng) -> signature
    verify: Callable  # (key, message, signature) -> bool
    on_curve: bool  # takes a curve (key files carry form and curve) or a modulus size
    key_fields: Tuple[str, ...]  # integer key fields in file order, the private one last
    key_ints: Callable  # key -> the values of key_fields
    parse_key: Callable  # (form, curve,) *key_fields values -> key; a public key omits the last
    sig_fields: Tuple[str, ...]
    sig_ints: Callable  # signature -> the values of sig_fields
    sig_from_ints: Callable  # *sig_fields values -> signature


def get_scheme(algorithm: str) -> Scheme:
    if algorithm not in SCHEMES:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {tuple(SCHEMES)}")
    return SCHEMES[algorithm]


def dsa_subgroup_bits(modulus_bits: int) -> int:
    """Subgroup size paired with a DSA modulus: the width of its selected hash."""
    return digest_bits(select_hash_for_modulus(modulus_bits))


def _dsa_keygen(rng, bits, curve):
    size = bits or DEFAULT_BITS
    return dsa_keygen(dsa_paramgen(size, dsa_subgroup_bits(size), rng), rng)


# --- key file validators ------------------------------------------------------


def _refuse(problem):
    if problem:
        raise KeyFileError(problem)


def _parse_rsa_key(n, e, d=None):
    _refuse(rsa_public_problem(n, e))
    if d is not None and not 0 < d < n:
        raise KeyFileError("field 'd' is out of range")
    try:
        # building a private key factors n from e and d; each probe signature
        # is then checked against e by the signer itself
        key = RsaKey(n=n, e=e, d=d)
        if d is not None:
            for probe in (2, 3):
                rsa_sign_digest(key, probe)
    except ValueError:
        raise KeyFileError("fields 'n', 'e', 'd' are not a consistent RSA key") from None
    return key


def _parse_dsa_key(p, q, g, y, x=None):
    _refuse(dsa_public_problem(p, q, g, y))
    params = DsaParams(p=p, q=q, g=g)
    # through the comb tables that sign and verify read, so both arrive built
    if params.power((g, q)) != 1:
        raise KeyFileError("field 'g' is not a generator of the order-q subgroup")
    if params.power((y, q)) != 1:
        raise KeyFileError("field 'y' is not in the order-q subgroup")
    if x is not None:
        if not 0 < x < q:
            raise KeyFileError("field 'x' is out of range")
        if params.power((g, x)) != y:
            raise KeyFileError("fields 'x', 'y' are not a consistent DSA key")
    return DsaKey(params=params, y=y, x=x)


def _parse_ec_key(form, name, qx, qy, ka=None):
    try:
        curve = get_curve(name)
    except UnknownCurveError as exc:
        raise KeyFileError(f"field 'curve': {exc}") from exc
    if name != curve.name:
        raise KeyFileError(f"field 'curve': {name!r} is not written as {curve.name!r}")
    if form != curve.form:
        raise KeyFileError(f"field 'form': curve {curve.name!r} has form {curve.form!r}")
    public = Point(qx, qy)
    _refuse(ec_public_problem(curve, public))
    # import-only, like DSA's y^q: where h > 1 a curve point need not have order n
    if curve.h > 1 and not is_neutral(scalar_mul(curve.n, public, curve), curve):
        raise KeyFileError("fields 'qx', 'qy' are not a point of the order-n subgroup")
    if ka is not None:
        if not 0 < ka < curve.n:
            raise KeyFileError("field 'ka' is out of range")
        if scalar_mul(ka, curve.g, curve) != public:
            raise KeyFileError("fields 'ka', 'qx', 'qy' are not a consistent key pair")
    return EcKey(curve=curve, q=public, ka=ka)


# --- the table ----------------------------------------------------------------


def _ec_scheme(default_curve, **entries):
    """ECDSA and EdDSA share keys: a private scalar and its public point."""
    return Scheme(
        keygen=lambda rng, bits, curve: ec_keygen(get_curve(curve or default_curve), rng),
        on_curve=True,
        key_fields=("qx", "qy", "ka"),
        key_ints=lambda key: (key.q.x, key.q.y, key.ka),
        parse_key=_parse_ec_key,
        **entries,
    )


# DSA and ECDSA: one (r, s) signature type and file layout
_DSA_SIGNATURE = dict(sig_fields=("r", "s"), sig_ints=lambda sig: (sig.r, sig.s), sig_from_ints=DsaSignature)

SCHEMES = {
    "rsa": Scheme(
        keygen=lambda rng, bits, curve: rsa_keygen(bits or DEFAULT_BITS, rng),
        sign=lambda key, message, rng: rsa_sign(key, message),
        verify=lambda key, message, sig: rsa_verify(key, message, sig),
        on_curve=False,
        key_fields=("n", "e", "d"),
        key_ints=lambda key: (key.n, key.e, key.d),
        parse_key=_parse_rsa_key,
        sig_fields=("s",),
        sig_ints=lambda sig: (sig,),
        sig_from_ints=lambda s: s,
    ),
    "dsa": Scheme(
        keygen=_dsa_keygen,
        sign=lambda key, message, rng: dsa_sign(key, message, rng),
        verify=lambda key, message, sig: dsa_verify(key, message, sig),
        on_curve=False,
        key_fields=("p", "q", "g", "y", "x"),
        key_ints=lambda key: (key.params.p, key.params.q, key.params.g, key.y, key.x),
        parse_key=_parse_dsa_key,
        **_DSA_SIGNATURE,
    ),
    "ecdsa": _ec_scheme(
        "secp256k1",
        sign=lambda key, message, rng: ecdsa_sign(key, message, rng),
        verify=lambda key, message, sig: ecdsa_verify(key, message, sig),
        **_DSA_SIGNATURE,
    ),
    "eddsa": _ec_scheme(
        "ed25519",
        sign=lambda key, message, rng: eddsa_sign(key, message),
        verify=lambda key, message, sig: eddsa_verify(key, message, sig),
        sig_fields=("rx", "ry", "s"),
        sig_ints=lambda sig: (sig.R.x, sig.R.y, sig.s),
        sig_from_ints=lambda rx, ry, s: EddsaSignature(Point(rx, ry), s),
    ),
}
