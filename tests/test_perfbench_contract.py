"""The names the benchmark in perfbench/ reaches into sigforge for must exist.

``perfbench/tracing.py`` wraps the functions listed in its ``TRACED`` table
and the ``BinaryField`` methods in ``FIELD_METHODS``; ``perfbench/run.py``
calls the public API below and reads the fields of the keys and signatures
it returns.  A rename or a changed return type in sigforge then fails here
rather than only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sigforge.binary_field import BinaryField
from sigforge.cryptosystem import generate_key, sign_message
from sigforge.numeric import RngHandle

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# (module, attribute) that perfbench/run.py calls
RUN_CALLS = (
    ("cryptosystem", "generate_key"),
    ("cryptosystem", "sign_message"),
    ("cryptosystem", "verify_message"),
    ("numeric", "RngHandle"),
    ("registry", "get_curve"),
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in TRACING_MODULE.TRACED] + list(RUN_CALLS))
def test_name_resolves_on_sigforge(module, attr):
    assert callable(getattr(importlib.import_module("sigforge." + module), attr))


@pytest.mark.parametrize("method", TRACING_MODULE.FIELD_METHODS)
def test_traced_field_method_exists(method):
    assert callable(getattr(BinaryField, method))


def _rsa_reads(key, sig):
    return key.n, key.e, key.d, sig


def _dsa_reads(key, sig):
    r, s = sig
    return key.params.p, key.params.q, key.params.g, key.y, key.x, r, s


def _ecdsa_reads(key, sig):
    r, s = sig
    return key.curve.n, key.ka, *key.q, r, s


def _eddsa_reads(key, sig):
    return key.curve.n, key.ka, *key.q, *sig.R, sig.s


# what perfbench/run.py reads from a generated key and its signature, as ints
@pytest.mark.parametrize(
    "algorithm,bits,curve,reads",
    (
        ("rsa", 512, None, _rsa_reads),
        ("dsa", 512, None, _dsa_reads),
        ("ecdsa", None, "secp192k1", _ecdsa_reads),
        ("eddsa", None, "ed25519", _eddsa_reads),
    ),
)
def test_returned_objects_have_what_run_reads(algorithm, bits, curve, reads):
    key = generate_key(algorithm, RngHandle(algorithm), bits, curve)
    sig = sign_message(algorithm, key, b"contract", RngHandle(1))
    assert all(isinstance(value, int) for value in reads(key, sig))
