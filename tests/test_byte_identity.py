"""Byte-identity regression: seeded keys, signatures and bench columns.

The SHA-256 values below were taken from the rendered files before the
algorithm dispatch was collapsed into ``sigforge.schemes``; any change to
key generation, nonce draws, field order or number formatting shows up here.
"""

import hashlib

import pytest

from sigforge import Cryptosystem
from sigforge.bench import BenchConfig, emit_csv, run_bench
from sigforge.keystore import render_key, render_signature

MESSAGE = b"byte-identity regression message"

SYSTEMS = {
    "rsa-512": dict(algorithm="rsa", bits=512, seed=4101),
    "dsa-1024": dict(algorithm="dsa", bits=1024, seed=4102),
    "ecdsa-p256": dict(algorithm="ecdsa", curve="p256", seed=4103),
    "ecdsa-ed25519": dict(algorithm="ecdsa", curve="ed25519", seed=4104),
    "eddsa-ed25519": dict(algorithm="eddsa", curve="ed25519", seed=4105),
    "eddsa-k163": dict(algorithm="eddsa", curve="k163", seed=4106),
}

BENCH_CONFIGS = (
    BenchConfig("rsa", bits=512),
    BenchConfig("dsa", bits=512),
    BenchConfig("ecdsa", curve="secp192k1"),
    BenchConfig("ecdsa", curve="ed25519"),
    BenchConfig("eddsa", curve="secp256k1"),
    BenchConfig("eddsa", curve="k163"),
)

EXPECTED = {
    "dsa-1024": {
        "private": "f7a7fae6c61dcfcd939bcb2bc1cf62fb41b49f6d7f9d7724ef6b5146ae845b83",
        "public": "10bc1f225d21fbc7e25a3002b75ea66d2a1aafc6ed4c50113e309b95cefb590d",
        "signature": "d87789cb47cd073b690eafdf16406a72c5017c6d8ffee8822ad61246bd76ca6d",
    },
    "ecdsa-ed25519": {
        "private": "2b44369de97fce5d946b70466349b6b8cee4d4690193a6490bc845a1d528bec8",
        "public": "495c4815049f481e87ce77dccc2f193fe132d9ae0388050d123a9b910c812825",
        "signature": "b9033ebbac8a49df2ff0815b67a930c971db54c7eb859c13ff8e96f0b0963ed6",
    },
    "ecdsa-p256": {
        "private": "9c25ab9bae20cf9dfb73edd2b2296663ade3a5183700c67f6fc5478b503ea348",
        "public": "7592ee14b1ee6cf18f6ccef9774bfb06ae4fd652a8be3d8f8f1206a4221a8edb",
        "signature": "6d8b8e2b222fce75c8a28057f608aeefe0d13a2b90a9f8e84588038b1d55f6d8",
    },
    "eddsa-ed25519": {
        "private": "64d3f6c709dcb6fa159e06551706cec4062eb3374ab73fdc470ec13620314fae",
        "public": "a42b8576157c233af75f103d7e0350f11871f3653fd7d55116a3ab5b380b0527",
        "signature": "c2bdfbc90fd9bce9d2d60b759efa930ca2c1bfb933970e33e04ecaed594929c4",
    },
    "eddsa-k163": {
        "private": "a78165cb20385d5d4c709bd9d7e89ac98320551a9ce845b95a7c9008e8d8536e",
        "public": "1a1b0625377e4371e690e3d4c34cff03af92b5158a82dcdd809e7a159aa1e69d",
        "signature": "e839952ad57a59f739485e560b582501699e743c3f084600a7a2be1a078bed7c",
    },
    "rsa-512": {
        "private": "cc648f8d994813e47b177084e6cd74d015f5e6a58a6f717de2264beca058a771",
        "public": "95b6636c492dc2d3398a2cfa182fc5826993b0c012ee63b01a6e83e96c2ad234",
        "signature": "c94c01e638024448a6c4e79a082254c23fe4083dc59f68685f567d85dac2925d",
    },
    "bench": "4d324f83a075c88d9d707b6b4e0b33aa3d6cddf3948d94a8f8bd918afc406865",
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def system_files(label):
    """{file kind: rendered text} for one seeded system."""
    kwargs = dict(SYSTEMS[label])
    algorithm = kwargs.pop("algorithm")
    system = Cryptosystem(algorithm, **kwargs)
    return {
        "private": render_key(algorithm, system.key),
        "public": render_key(algorithm, system.key, public_only=True),
        "signature": render_signature(algorithm, system.sign(MESSAGE)),
    }


def bench_columns():
    """The seeded bench CSV with the three time columns cut off."""
    csv = emit_csv(run_bench(BENCH_CONFIGS, repeats=3, seed=4200))
    return "".join(",".join(row.split(",")[:5]) + "\n" for row in csv.splitlines())


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_seeded_files_unchanged(label):
    got = {kind: _sha(text) for kind, text in system_files(label).items()}
    assert got == EXPECTED[label]


def test_bench_columns_unchanged():
    assert _sha(bench_columns()) == EXPECTED["bench"]
