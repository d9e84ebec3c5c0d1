import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigforge
from sigforge.curves import is_on_curve, negate, scalar_mul, validate_curve
from sigforge.errors import UnknownCurveError
from sigforge.numeric import RngHandle, is_probable_prime, rand_below
from sigforge.registry import curve_names, get_curve

REQUIRED = {
    "weierstrass": ("secp192k1", "secp256k1", "p256", "p384", "p521"),
    "edwards": ("ed25519", "ed448", "e521", "numsp384t1"),
    "koblitz": ("k163", "b163", "k233", "b233", "sect113r1"),
}

# published order sizes in bits
ORDER_BITS = {
    "secp192k1": 192,
    "secp256k1": 256,
    "p256": 256,
    "p384": 384,
    "p521": 521,
    "ed25519": 253,
    "ed448": 446,
    "e521": 519,
    "numsp384t1": 382,
    "k163": 163,
    "b163": 163,
    "k233": 232,
    "b233": 233,
    "sect113r1": 113,
}


def test_required_registry_present():
    names = set(curve_names())
    for form, members in REQUIRED.items():
        for name in members:
            assert name in names
            assert get_curve(name).form == form


def test_registry_size():
    assert len(curve_names()) >= 14


def test_every_curve_has_a_published_order_size():
    assert set(ORDER_BITS) == set(curve_names())


@pytest.mark.parametrize("name,bits", sorted(ORDER_BITS.items()))
def test_order_bits_match_published_sizes(name, bits):
    assert get_curve(name).n.bit_length() == bits


def test_unknown_curve_lists_names():
    with pytest.raises(UnknownCurveError) as err:
        get_curve("nonexistent")
    assert "secp256k1" in str(err.value)
    assert "ed25519" in str(err.value)


# a fresh process, so that no earlier test's work can stand in for the lookup's
NO_CHECK_LOOKUP = """
from sigforge import curves, numeric
from sigforge.registry import curve_names, get_curve

def refuse(*args):
    raise AssertionError("a lookup ran a check")

curves.validate_curve = numeric.is_probable_prime = refuse
for name in curve_names():
    assert get_curve(name).name == name
assert get_curve("P256") is get_curve("p256")
"""


def test_lookup_runs_no_check():
    # registry constants are proved once, by test_full_invariants; a lookup reads the table
    src = str(Path(sigforge.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", NO_CHECK_LOOKUP], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_lookup_is_case_insensitive():
    assert get_curve("ED25519") is get_curve("ed25519")


@pytest.mark.parametrize("name", curve_names())
def test_full_invariants(name):
    curve = get_curve(name)
    validate_curve(curve)
    assert is_on_curve(curve.g, curve)
    # n*G = neutral; the comb reads multiples of G mod n, so n*G itself reads as 0*G
    assert scalar_mul(curve.n - 1, curve.g, curve) == negate(curve.g, curve)
    assert is_probable_prime(curve.n, 40)
    q = curve.field_size
    t = curve.h * curve.n - (q + 1)
    assert t * t <= 4 * q


@pytest.mark.parametrize("name", sorted(ORDER_BITS))
def test_random_multiples_stay_on_curve(name):
    curve = get_curve(name)
    rng = RngHandle(hash(name) & 0xFFFF)
    for _ in range(100):
        k = rand_below(curve.n, rng)
        assert is_on_curve(scalar_mul(k, curve.g, curve), curve)
