"""Keys, parameter sets, records and curves are named tuples of their compared fields.

Each class keeps what it had as a frozen record: equal fields give equal objects
with equal hashes, no field can be assigned, and the repr shows the class and
the compared fields only.  ``RsaKey``, ``BinaryField`` and ``CurveSpec`` keep
derived values beside the tuple, which copies, pickles and ``_replace`` must
carry or derive again, never drop.
"""

import copy
import pickle

import pytest

from sigforge.bench import BenchConfig, BenchRecord
from sigforge.binary_field import BinaryField
from sigforge.curves import CurveSpec, scalar_mul
from sigforge.ec_signatures import EcKey, ec_keygen
from sigforge.ff_signatures import DsaKey, DsaParams, RsaKey, rsa_keygen, rsa_sign
from sigforge.numeric import RngHandle
from sigforge.registry import get_curve
from sigforge.schemes import Scheme, get_scheme

F163 = get_curve("b163").field


def _used(curve):
    """The curve after a product, so its cached constants are set."""
    scalar_mul(3, curve.g, curve)
    return curve


# class -> (its compared fields, a function that builds a fresh instance each call)
RECORDS = {
    Scheme: (
        ("keygen", "sign", "verify", "on_curve", "key_fields", "key_ints", "parse_key")
        + ("sig_fields", "sig_ints", "sig_from_ints"),
        lambda: Scheme(*get_scheme("ecdsa")),
    ),
    BenchConfig: (("algorithm", "bits", "curve"), lambda: BenchConfig("ecdsa", curve="p256")),
    BenchRecord: (
        ("algorithm", "form", "curve", "key_size", "hash_name", "keygen_s", "sign_s", "verify_s", "first_use_s"),
        lambda: BenchRecord("rsa", "-", "-", 512, "sha256", 0.5, 0.25, 0.125),
    ),
    DsaParams: (("p", "q", "g"), lambda: DsaParams(p=23, q=11, g=4)),
    DsaKey: (("params", "y", "x"), lambda: DsaKey(DsaParams(p=23, q=11, g=4), y=18, x=3)),
    EcKey: (("curve", "q", "ka"), lambda: ec_keygen(get_curve("p256"), RngHandle(5))),
    RsaKey: (("n", "e", "d"), lambda: rsa_keygen(512, RngHandle(6))),
    CurveSpec: (("name", "form", "field", "a", "b", "g", "n", "h"), lambda: _used(CurveSpec(*get_curve("e521")))),
    BinaryField: (("m", "poly"), lambda: BinaryField(F163.m, F163.poly)),
}


@pytest.mark.parametrize("cls", tuple(RECORDS), ids=lambda cls: cls.__name__)
def test_each_class_keeps_equality_hash_immutability_and_repr(cls):
    fields, make = RECORDS[cls]
    one, other = make(), make()
    assert type(one) is cls and one is not other
    assert one == other and hash(one) == hash(other)
    assert cls._fields == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(one, name, getattr(other, name))
    assert one == other
    shown = ", ".join(f"{name}={getattr(one, name)!r}" for name in fields)
    assert repr(one) == f"{cls.__name__}({shown})"


def test_repr_checks_see_derived_values():
    # the repr above is checked on instances that hold values beside the tuple
    assert set(vars(RECORDS[RsaKey][1]())) == {"p", "q", "dp", "dq", "q_inv"}
    assert set(vars(RECORDS[CurveSpec][1]())) == {"_p", "_a", "_d", "_law"}
    assert set(vars(RECORDS[BinaryField][1]())) == {"_taps", "_mask"}


def test_rsa_key_from_n_e_d_is_the_generated_key():
    generated = rsa_keygen(512, RngHandle(8))
    imported = RsaKey(generated.n, generated.e, generated.d)
    assert imported == generated and hash(imported) == hash(generated)
    assert {imported.p, imported.q} == {generated.p, generated.q}
    assert rsa_sign(imported, b"same") == rsa_sign(generated, b"same")


def test_public_rsa_key_has_no_crt_values():
    public = rsa_keygen(512, RngHandle(9)).public_only()
    assert (public.p, public.q, public.dp, public.dq, public.q_inv) == (None,) * 5


def _rsa_works(original, copied):
    assert vars(copied) == vars(original)
    assert rsa_sign(copied, b"copied") == rsa_sign(original, b"copied")


def _field_works(original, copied):
    assert (copied._taps, copied._mask) == (original._taps, original._mask)
    a, b = 0b1011 << 150, 0b111 << 77
    assert copied.mul(a, b) == original.mul(a, b) and copied.half_trace(a) == original.half_trace(a)


def _curve_works(original, copied):
    k = 0x1234567 << 100
    for point in (original.g, scalar_mul(5, original.g, original)):
        assert scalar_mul(k, point, copied) == scalar_mul(k, point, original)


DERIVED = {
    "rsa": (lambda: rsa_keygen(512, RngHandle(10)), _rsa_works),
    "field": (lambda: BinaryField(F163.m, F163.poly), _field_works),
    "curve": (lambda: _used(get_curve("b163")), _curve_works),
}


@pytest.mark.parametrize(
    "how", (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))), ids=("copy", "deepcopy", "pickle")
)
@pytest.mark.parametrize("kind", tuple(DERIVED))
def test_copies_keep_derived_values(kind, how):
    make, works = DERIVED[kind]
    original = make()
    copied = how(original)
    assert type(copied) is type(original) and copied == original and hash(copied) == hash(original)
    works(original, copied)


def test_rsa_replace_derives_crt_values_or_raises():
    key = rsa_keygen(512, RngHandle(11))
    same = key._replace(e=key.e)
    assert same == key and {same.p, same.q} == {key.p, key.q}
    assert rsa_sign(same, b"replaced") == rsa_sign(key, b"replaced")
    assert key._replace(d=None).dp is None
    with pytest.raises(ValueError, match="does not invert"):
        key._replace(d=key.d + 2)


def test_field_replace_derives_taps_or_raises():
    same = F163._replace(poly=F163.poly)
    _field_works(F163, same)
    with pytest.raises(ValueError, match="degree 163"):
        F163._replace(poly=F163.poly >> 1)
    with pytest.raises(ValueError, match="degree"):
        F163._replace(m=F163.m + 1)
