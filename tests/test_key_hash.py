"""Each key derives its size and hash from its own fields, and every consumer agrees.

The consumers are the ``bench`` record, the key's ``hash_name`` and the hash
that signing and verification pass to ``digest_to_int``; all three must hold
before and after a render/parse round trip of the key file.
"""

import dataclasses

import pytest

from sigforge import bench, ec_signatures, ff_signatures
from sigforge.bench import BenchConfig, bench_one
from sigforge.cryptosystem import generate_key, sign_message, verify_message
from sigforge.ff_signatures import RsaKey, rsa_sign, rsa_verify
from sigforge.keystore import parse_key, render_key
from sigforge.numeric import RngHandle
from sigforge.schemes import get_scheme

MESSAGE = b"a key picks its own hash"

# (algorithm, bits, curve, key size, hash); 2048 is the smallest modulus that
# gets sha224, 2047 bits would get sha160
CASES = (
    ("rsa", 2048, None, 2048, "sha224"),
    ("dsa", 1024, None, 1024, "sha160"),
    ("ecdsa", None, "p384", 384, "sha384"),
    ("eddsa", None, "ed25519", 253, "sha256"),
)


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"{case[0]}-{case[1] or case[2]}")
def case(request):
    algorithm, bits, curve, size, hash_name = request.param
    key = generate_key(algorithm, RngHandle(f"key-hash:{algorithm}"), bits, curve)
    return algorithm, key, size, hash_name


@pytest.fixture
def digest_algs(monkeypatch):
    """The hash of every digest_to_int call the signature modules make."""
    seen = []
    for module in (ff_signatures, ec_signatures):

        def record(message, alg, order, original=module.digest_to_int):
            seen.append(alg)
            return original(message, alg, order)

        monkeypatch.setattr(module, "digest_to_int", record)
    return seen


def bench_reports(monkeypatch, algorithm, key):
    """(key_size, hash) of the bench record for a run whose keygen yields ``key``."""
    scheme = dataclasses.replace(get_scheme(algorithm), keygen=lambda rng, bits, curve: key)
    monkeypatch.setattr(bench, "get_scheme", lambda name: scheme)
    record = bench_one(BenchConfig(algorithm), 1, RngHandle(0))
    return record.key_size, record.hash_name


def test_bench_key_and_signer_agree_before_and_after_a_round_trip(case, monkeypatch, digest_algs):
    algorithm, key, size, hash_name = case
    _, parsed = parse_key(render_key(algorithm, key))
    for candidate in (key, parsed):
        assert (candidate.key_size, candidate.hash_name) == (size, hash_name)
        assert bench_reports(monkeypatch, algorithm, candidate) == (size, hash_name)
        digest_algs.clear()
        signature = sign_message(algorithm, candidate, MESSAGE, RngHandle(1))
        assert verify_message(algorithm, candidate, MESSAGE, signature) is True
        assert digest_algs and set(digest_algs) == {hash_name}
    assert verify_message(algorithm, parsed, MESSAGE, sign_message(algorithm, key, MESSAGE, RngHandle(2)))


def test_directly_built_rsa_key_signature_verifies_after_a_round_trip():
    generated = generate_key("rsa", RngHandle("key-hash:rsa"), 2048)
    key = RsaKey(n=generated.n, e=generated.e, d=generated.d)
    signature = rsa_sign(key, MESSAGE)
    for public_only in (False, True):
        _, parsed = parse_key(render_key("rsa", key, public_only))
        assert rsa_verify(parsed, MESSAGE, signature) is True
