"""Verify on hostile input: any ints, huge or negative, and any non-ints in
place of a signature part or of the whole signature give a bool, within
bounded time, on all four algorithms.  Keys are held to the public-key rule
that key import reads: a key whose size the hash rule refuses gives False,
and so does a directly built key with a negative modulus, order or exponent,
an RSA exponent of 2^256 or more, a field that is not an int, or a public
point that is not an int pair.  So do the keys under which anyone can sign:
RSA e = 1, where s = hm verifies, and DSA y = 1, where a signature made with
x = 0 verifies for any message.  Each key that import refuses for a cheap
reason verifies to False when it is built directly."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from sigforge.cryptosystem import generate_key, sign_message, verify_message
from sigforge.curves import Point, scalar_mul
from sigforge.ec_signatures import EcKey, EddsaSignature
from sigforge.errors import KeyFileError, MissingPrivateKeyError
from sigforge.ff_signatures import DsaKey, DsaParams, DsaSignature, RsaKey, dsa_paramgen, dsa_sign_digest
from sigforge.hashing import digest_to_int, select_hash_for_modulus
from sigforge.keystore import parse_key, render_key
from sigforge.numeric import RngHandle
from sigforge.registry import get_curve

from conftest import TOY_W17

MESSAGE = b"hostile signature message"

# far above any honest verify on these keys (milliseconds), far below the
# seconds that a scalar multiplication or exponentiation by an unbounded
# 2^16-bit part would take
TIME_BOUND_S = 1.0

HOSTILE = settings(max_examples=60, deadline=None, derandomize=True, database=None)

INTS = st.one_of(
    st.integers(),
    st.integers(-(2**600), 2**600),
    st.integers(-(2**65536), 2**65536),
)
NON_INTS = st.one_of(
    st.none(),
    st.floats(allow_nan=True),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.tuples(st.integers(), st.integers()),
    st.lists(st.integers(), max_size=3),
    st.decimals(allow_nan=False, allow_infinity=False),
)
PARTS = st.one_of(INTS, NON_INTS)
# a whole signature of any shape: a bare part, or a tuple or list of any length
WHOLE = st.one_of(
    PARTS,
    st.tuples(),
    st.tuples(PARTS),
    st.tuples(PARTS, PARTS),
    st.tuples(PARTS, PARTS, PARTS),
    st.lists(PARTS, max_size=3),
)

KEYS = {
    "rsa": dict(bits=512),
    "dsa": dict(bits=512),
    "ecdsa": dict(curve="p256"),
    "eddsa": dict(curve="ed25519"),
}


@pytest.fixture(scope="module")
def signed():
    """{algorithm: (key, a valid signature of MESSAGE)}."""
    out = {}
    for i, (algorithm, kwargs) in enumerate(KEYS.items()):
        key = generate_key(algorithm, RngHandle(6100 + i), **kwargs)
        out[algorithm] = key, sign_message(algorithm, key, MESSAGE, RngHandle(6200 + i))
    return out


@pytest.fixture(scope="module")
def drawn(signed):
    """{algorithm: [(key, a valid signature of MESSAGE)]}: the pair of ``signed``
    and, for ECDSA and EdDSA, one on a binary curve, so that hostile parts reach
    its products too: k163's take the tau-adic NAF, b163's halve."""
    out = {algorithm: [pair] for algorithm, pair in signed.items()}
    for i, (algorithm, curve) in enumerate((("ecdsa", "k163"), ("eddsa", "b163"))):
        key = generate_key(algorithm, RngHandle(6400 + i), curve=curve)
        out[algorithm].append((key, sign_message(algorithm, key, MESSAGE, RngHandle(6500 + i))))
    return out


def assert_bool_in_bounded_time(algorithm, key, sig):
    start = time.monotonic()
    result = verify_message(algorithm, key, MESSAGE, sig)
    elapsed = time.monotonic() - start
    assert isinstance(result, bool), (sig, result)
    assert elapsed < TIME_BOUND_S, (sig, elapsed)
    return result


@HOSTILE
@given(s=PARTS)
def test_rsa(signed, s):
    assert_bool_in_bounded_time("rsa", signed["rsa"][0], s)


@HOSTILE
@given(r=PARTS, s=PARTS, keep=st.sampled_from(("r", "s", None)))
def test_dsa(signed, r, s, keep):
    key, good = signed["dsa"]
    sig = DsaSignature(good.r if keep == "r" else r, good.s if keep == "s" else s)
    assert_bool_in_bounded_time("dsa", key, sig)


@HOSTILE
@given(r=PARTS, s=PARTS, keep=st.sampled_from(("r", "s", None)))
def test_ecdsa(drawn, r, s, keep):
    for key, good in drawn["ecdsa"]:
        sig = DsaSignature(good.r if keep == "r" else r, good.s if keep == "s" else s)
        assert_bool_in_bounded_time("ecdsa", key, sig)


@HOSTILE
@given(
    rx=PARTS,
    ry=PARTS,
    s=PARTS,
    keep=st.sampled_from(("R", "s", None)),
    as_point=st.booleans(),
)
def test_eddsa(drawn, rx, ry, s, keep, as_point):
    for key, good in drawn["eddsa"]:
        big_r = good.R if keep == "R" else (Point(rx, ry) if as_point else (rx, ry))
        sig = EddsaSignature(big_r, good.s if keep == "s" else s)
        assert_bool_in_bounded_time("eddsa", key, sig)


@pytest.mark.parametrize(
    "algorithm,make",
    (
        ("rsa", lambda good: 5.0),
        ("rsa", lambda good: float(good)),
        ("dsa", lambda good: DsaSignature(float(good.r), good.s)),
        ("dsa", lambda good: DsaSignature(good.r, "1")),
        ("ecdsa", lambda good: DsaSignature(1.0, 2)),
        ("ecdsa", lambda good: DsaSignature(good.r, (1, 2))),
        ("eddsa", lambda good: EddsaSignature(("a", "b"), 5)),
        ("eddsa", lambda good: EddsaSignature(good.R, 5.0)),
        ("eddsa", lambda good: EddsaSignature(good.R, float(good.s))),
        ("eddsa", lambda good: EddsaSignature(Point(float(good.R.x), good.R.y), good.s)),
    ),
)
def test_non_int_parts_are_invalid(signed, algorithm, make):
    key, good = signed[algorithm]
    assert assert_bool_in_bounded_time(algorithm, key, good) is True
    assert assert_bool_in_bounded_time(algorithm, key, make(good)) is False


@pytest.mark.parametrize("algorithm", tuple(KEYS))
@HOSTILE
@given(sig=WHOLE)
def test_whole_signature(drawn, algorithm, sig):
    for key, _ in drawn[algorithm]:
        assert_bool_in_bounded_time(algorithm, key, sig)


@pytest.mark.parametrize("algorithm", tuple(KEYS))
@pytest.mark.parametrize("sig", (5, None, (1, 2, 3), (1,), "abc"), ids=repr)
def test_wrong_shape_is_invalid(signed, algorithm, sig):
    assert assert_bool_in_bounded_time(algorithm, signed[algorithm][0], sig) is False


@pytest.mark.parametrize("algorithm", ("dsa", "ecdsa", "eddsa"))
def test_signature_as_a_list(signed, algorithm):
    key, good = signed[algorithm]
    parts = [list(part) if isinstance(part, tuple) else part for part in good]
    assert assert_bool_in_bounded_time(algorithm, key, parts) is True
    assert assert_bool_in_bounded_time(algorithm, key, parts[::-1]) is False


# keys under the hash rule's minimum sizes (512-bit moduli, 80-bit orders);
# key files refuse them, but a caller can build them directly
_TOY_POINT = scalar_mul(3, TOY_W17.g, TOY_W17)
SMALL_KEYS = {
    "rsa": (RsaKey(n=3233, e=17, d=2753), 5),
    "dsa": (DsaKey(DsaParams(p=23, q=11, g=4), y=18, x=3), DsaSignature(1, 2)),
    "ecdsa": (EcKey(TOY_W17, _TOY_POINT, 3), DsaSignature(1, 2)),
    "eddsa": (EcKey(TOY_W17, _TOY_POINT, 3), EddsaSignature(TOY_W17.g, 2)),
}


# keys of sizes the hash rule accepts, with a value that key files refuse but
# a caller can build directly: (algorithm, key factory, signature)
_ODD_1024 = 2**1023 + 1
_Q127 = 2**127 - 1  # prime
# s = hm verifies under e = 1 for any n
_E1_FORGERY = digest_to_int(MESSAGE, select_hash_for_modulus(1024), _ODD_1024)
# y = g^0 = 1: with x = 0, s = hm/k verifies for any message, on valid (p, q, g)
_Y1_KEY = DsaKey(dsa_paramgen(512, 160, RngHandle(6300)), y=1, x=0)
_Y1_FORGERY = dsa_sign_digest(_Y1_KEY, digest_to_int(MESSAGE, _Y1_KEY.hash_name, _Y1_KEY.params.q), 12345)
HOSTILE_KEYS = {
    "rsa n < 0": ("rsa", lambda: RsaKey(n=-_ODD_1024, e=65537), 5),
    "rsa e < 0": ("rsa", lambda: RsaKey(n=_ODD_1024, e=-65537), 5),
    "dsa p < 0": ("dsa", lambda: DsaKey(DsaParams(p=-_ODD_1024, q=_Q127, g=2), y=3), DsaSignature(1, 1)),
    "dsa q < 0": ("dsa", lambda: DsaKey(DsaParams(p=_ODD_1024, q=-_Q127, g=2), y=3), DsaSignature(1, 1)),
    # key files keep e below 2^256; with an exponent of 2^18 bits verify took over a second
    "rsa e >= 2^256": ("rsa", lambda: RsaKey(n=_ODD_1024, e=2**262144 + 1), 5),
    "rsa n = float": ("rsa", lambda: RsaKey(n=float(_ODD_1024), e=65537), 5),
    "dsa p = float": ("dsa", lambda: DsaKey(DsaParams(p=float(_ODD_1024), q=_Q127, g=2), y=3), DsaSignature(1, 1)),
    "dsa p = 'ab'": ("dsa", lambda: DsaKey(DsaParams(p="ab", q=_Q127, g=2), y=3), DsaSignature(1, 1)),
    "rsa e = 1": ("rsa", lambda: RsaKey(n=_ODD_1024, e=1), _E1_FORGERY),
    "dsa y = 1": ("dsa", _Y1_KEY.public_only, _Y1_FORGERY),
    "dsa y = 'ab'": ("dsa", lambda: DsaKey(DsaParams(p=_ODD_1024, q=_Q127, g=2), y="ab"), DsaSignature(1, 1)),
    "ecdsa p256 Q = 'ab'": ("ecdsa", lambda: EcKey(get_curve("p256"), "ab"), DsaSignature(1, 2)),
    "ecdsa k163 Q = (1.0, 2.0)": ("ecdsa", lambda: EcKey(get_curve("k163"), Point(1.0, 2.0)), DsaSignature(1, 2)),
}


@pytest.mark.parametrize("case", tuple(HOSTILE_KEYS))
def test_hostile_key_is_invalid(case):
    algorithm, make_key, sig = HOSTILE_KEYS[case]
    assert assert_bool_in_bounded_time(algorithm, make_key(), sig) is False


# each public-key refusal of the key-file mutation table, and DSA's y = 1 and
# y = p - 1, made to a seeded key: (algorithm, change, import's refusal)
REFUSED_KEYS = {
    "rsa n + 1": ("rsa", lambda key: RsaKey(n=key.n + 1, e=key.e), "not a valid RSA modulus"),
    "rsa e = 2": ("rsa", lambda key: RsaKey(n=key.n, e=2), "field 'e' is out of range"),
    "dsa q = p": ("dsa", lambda key: _dsa(key, q=key.params.p), "fields 'p', 'q' are out of range"),
    "dsa q + 2": ("dsa", lambda key: _dsa(key, q=key.params.q + 2), "field 'q' does not divide p - 1"),
    "dsa g = 1": ("dsa", lambda key: _dsa(key, g=1), "not a generator"),
    "dsa y = 1": ("dsa", lambda key: _dsa(key, y=1), "field 'y' is out of range"),
    "dsa y = p - 1": ("dsa", lambda key: _dsa(key, y=key.params.p - 1), "field 'y' is out of range"),
    "eddsa neutral": ("eddsa", lambda key: EcKey(key.curve, Point(0, 1)), "neutral element"),
}


def _dsa(key, y=None, **params):
    return DsaKey(key.params._replace(**params), y=key.y if y is None else y)


@pytest.mark.parametrize("case", tuple(REFUSED_KEYS))
def test_key_import_refuses_verifies_to_false(signed, case):
    algorithm, change, reason = REFUSED_KEYS[case]
    key, good = signed[algorithm]
    refused = change(key)
    with pytest.raises(KeyFileError, match=reason):
        parse_key(render_key(algorithm, refused, public_only=True))
    assert assert_bool_in_bounded_time(algorithm, refused, good) is False


@pytest.mark.parametrize("algorithm", tuple(SMALL_KEYS))
def test_key_size_the_hash_rule_refuses(algorithm):
    key, sig = SMALL_KEYS[algorithm]
    assert assert_bool_in_bounded_time(algorithm, key, sig) is False
    assert assert_bool_in_bounded_time(algorithm, key.public_only(), sig) is False
    with pytest.raises(ValueError, match="too small"):
        sign_message(algorithm, key, MESSAGE, RngHandle(1))


@pytest.mark.parametrize("algorithm", tuple(SMALL_KEYS))
def test_public_only_key_refused_before_the_hash_rule(algorithm):
    key, _ = SMALL_KEYS[algorithm]
    with pytest.raises(MissingPrivateKeyError):
        sign_message(algorithm, key.public_only(), MESSAGE, RngHandle(1))
