"""Seeded 2048-bit RSA and DSA keys, and one signature of each, pinned byte
for byte.

The benchmark's finite-field workload generates its keys from these seeds.
The SHA-256 values were taken from the rendered files before the prime
search used one gcd for trial division and fewer Miller-Rabin rounds on
random candidates, and before RSA signed by the CRT: those changes make a
candidate cheaper to reject or a signature cheaper to make, and must not
change which candidate is accepted or which signature comes out.
"""

import hashlib

import pytest

from sigforge.cryptosystem import generate_key, sign_message
from sigforge.keystore import render_key, render_signature
from sigforge.numeric import RngHandle

MESSAGE = b"keygen pin message"

EXPECTED = {
    "rsa": {
        "private": "8f2c59dcfb02a32659c8ac83af22ec9b9b2ed4f6686b6b0c430b80a35d8bf31e",
        "public": "0e6a49bf3e45b16f26ac5a139889f372298ddc747752d6a70c51661898c50795",
        "signature": "ecf01304588bc5fa77e7a468da636b71dfe719b0d8a0d8e7930073c83efdce61",
    },
    "dsa": {
        "private": "c1ca612818933025c7c57116428f9785db9bf41bded445cfced473d2e98aae02",
        "public": "b91fdf64bf94c59389cf25d423a7f56fb797f1e6abeaa7d368e83edcc7c137e8",
        "signature": "c5ef99c6f45ef966b76a87a87641105ce584d606f175ff71190debf171ae2468",
    },
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(EXPECTED))
def test_seeded_2048_bit_key_unchanged(algorithm):
    key = generate_key(algorithm, RngHandle(f"keygen:{algorithm}-2048"), 2048)
    signature = sign_message(algorithm, key, MESSAGE, RngHandle(2048))
    got = {
        "private": _sha(render_key(algorithm, key)),
        "public": _sha(render_key(algorithm, key, public_only=True)),
        "signature": _sha(render_signature(algorithm, signature)),
    }
    assert got == EXPECTED[algorithm]
