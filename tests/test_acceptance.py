"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
report.  The roundtrip matrix and the timing harness dominate the runtime
(several minutes; binary-field curves are the slow rows).
"""

import time

import pytest

from sigforge.bench import BenchConfig, run_bench
from sigforge.curves import Point, is_neutral, is_on_curve, negate, point_add, scalar_mul, validate_curve
from sigforge.ec_signatures import (
    EcKey,
    ec_keygen,
    ecdsa_sign,
    ecdsa_sign_digest,
    ecdsa_verify,
    eddsa_sign,
    eddsa_verify,
)
from sigforge.errors import KeyFileError
from sigforge.ff_signatures import (
    DsaKey,
    DsaParams,
    DsaSignature,
    dsa_keygen,
    dsa_paramgen,
    dsa_sign,
    dsa_sign_digest,
    dsa_verify,
    dsa_verify_digest,
    rsa_keygen,
    rsa_sign,
    rsa_verify,
)
from sigforge.hashing import select_hash_for_modulus, select_hash_for_order
from sigforge.keystore import parse_key, render_key
from sigforge.numeric import RngHandle, is_probable_prime, mod_exp, mod_inv, rand_below
from sigforge.registry import curve_names, get_curve

from conftest import TOY_ED13, TOY_W17
from oracles import cyclic_table, ed_add, edwards_points, w_add, weierstrass_points

ALL_CURVES = (
    "secp192k1",
    "secp256k1",
    "p256",
    "p384",
    "p521",
    "ed25519",
    "ed448",
    "e521",
    "numsp384t1",
    "k163",
    "b163",
    "k233",
    "b233",
    "sect113r1",
)

MESSAGES_PER_CONFIG = 50


def _pass(number, text):
    print(f"\nPASS criterion {number}: {text}")


def _random_message(rng):
    return bytes(rng.getrandbits(8) for _ in range(48))


def _flip_random_bit(message, rng):
    bit = rng.getrandbits(16) % (len(message) * 8)
    tampered = bytearray(message)
    tampered[bit // 8] ^= 1 << (bit % 8)
    return bytes(tampered)


def test_criterion_1_roundtrip_matrix():
    """ECDSA and EdDSA on every registry curve, plus RSA and DSA: every
    signature verifies and every single-bit message flip is rejected."""
    rng = RngHandle(1001)
    start = time.monotonic()
    assert set(ALL_CURVES) == set(curve_names())

    checked = 0
    for name in ALL_CURVES:
        curve = get_curve(name)
        key = ec_keygen(curve, rng)
        for _ in range(MESSAGES_PER_CONFIG):
            message = _random_message(rng)
            sig = ecdsa_sign(key, message, rng)
            assert ecdsa_verify(key, message, sig), (name, "ecdsa")
            assert not ecdsa_verify(key, _flip_random_bit(message, rng), sig)
            checked += 1
        for _ in range(MESSAGES_PER_CONFIG):
            message = _random_message(rng)
            sig = eddsa_sign(key, message)
            assert eddsa_verify(key, message, sig), (name, "eddsa")
            assert not eddsa_verify(key, _flip_random_bit(message, rng), sig)
            checked += 1

    for bits in (1024, 2048):
        key = rsa_keygen(bits, rng)
        for _ in range(MESSAGES_PER_CONFIG):
            message = _random_message(rng)
            sig = rsa_sign(key, message)
            assert rsa_verify(key, message, sig), ("rsa", bits)
            assert not rsa_verify(key, _flip_random_bit(message, rng), sig)
            checked += 1

    dsa_key = dsa_keygen(dsa_paramgen(1024, 160, rng), rng)
    for _ in range(MESSAGES_PER_CONFIG):
        message = _random_message(rng)
        sig = dsa_sign(dsa_key, message, rng)
        assert dsa_verify(dsa_key, message, sig)
        assert not dsa_verify(dsa_key, _flip_random_bit(message, rng), sig)
        checked += 1

    elapsed = time.monotonic() - start
    assert elapsed < 600, f"matrix took {elapsed:.0f}s, budget is 600s"
    _pass(1, f"roundtrip matrix, {checked} sign/verify/tamper triples in {elapsed:.0f}s")


def test_criterion_2_toy_curve_oracle_equivalence():
    """Exhaustive brute-force addition-table equality and group axioms on the
    toy Weierstrass and toy Edwards curves."""
    w_universe = [None] + weierstrass_points(17, 2, 2)
    e_universe = edwards_points(13, 1, 7)
    assert len(w_universe) == 19 and len(e_universe) == 20

    cases = (
        (TOY_W17, w_universe, lambda P, Q: w_add(P, Q, 17, 2), None),
        (TOY_ED13, e_universe, lambda P, Q: ed_add(P, Q, 13, 1, 7), (0, 1)),
    )
    for curve, universe, oracle_add, neutral_t in cases:
        as_pt = lambda t: None if t is None else Point(*t)
        as_t = lambda P: None if P is None else (P.x, P.y)
        for P in universe:
            assert is_on_curve(as_pt(P), curve)
            for Q in universe:
                got = point_add(as_pt(P), as_pt(Q), curve)
                assert as_t(got) == oracle_add(P, Q), (curve.name, P, Q)
        pts = [as_pt(t) for t in universe]
        neutral_p = as_pt(neutral_t)
        for P in pts:
            assert point_add(P, neutral_p, curve) == (P if P is not None else neutral_p)
            if P is not None or curve is TOY_ED13:
                inverse_candidates = [Q for Q in pts if is_neutral(point_add(P, Q, curve), curve)]
                assert len(inverse_candidates) == 1
        for P in pts:
            for Q in pts:
                assert point_add(P, Q, curve) == point_add(Q, P, curve)
                pq = point_add(P, Q, curve)
                for R in pts:
                    assert point_add(pq, R, curve) == point_add(P, point_add(Q, R, curve), curve)
    _pass(2, "toy-curve addition tables and group axioms, exhaustive and exact")


def test_criterion_3_dsa_known_answer():
    """Toy DSA vector: k=7, digest 5 under (p=23, q=11, g=4, x=3, y=18)."""
    params = DsaParams(p=23, q=11, g=4)
    key = DsaKey(params=params, y=18, x=3)
    assert mod_exp(4, 3, 23) == 18

    sig = dsa_sign_digest(key, 5, 7)
    assert sig == DsaSignature(8, 1)

    w = mod_inv(sig.s, 11)
    u1, u2 = 5 * w % 11, sig.r * w % 11
    assert (u1, u2) == (5, 8)
    assert mod_exp(4, u1, 23) * mod_exp(18, u2, 23) % 23 % 11 == sig.r
    assert dsa_verify_digest(key, 5, sig)
    _pass(3, "DSA toy vector signs to (8, 1) and verifies via u1=5, u2=8")


def test_criterion_4_proof_chain_properties():
    """The verification-algebra identities behind all four schemes."""
    g = TOY_W17.g
    n = TOY_W17.n
    table = cyclic_table(lambda P, Q: w_add(P, Q, 17, 2), (5, 1), None)

    # ECDSA: u1 + u2 always reproduces the nonce point k_r * G
    for ka in range(1, n):
        q_point = scalar_mul(ka, g, TOY_W17)
        key = EcKey(TOY_W17, q_point, ka)
        for kr in range(1, n):
            for m in range(n):
                sig = ecdsa_sign_digest(key, m, kr)
                if sig is None:
                    continue
                w = mod_inv(sig.s, n)
                u1 = scalar_mul(m * w % n, g, TOY_W17)
                u2 = scalar_mul(sig.r * w % n, q_point, TOY_W17)
                total = point_add(u1, u2, TOY_W17)
                assert total == scalar_mul(kr, g, TOY_W17)
                assert (total.x, total.y) == table[kr]

    # EdDSA: (r + h*ka) * G == r*G + (h*ka) * G
    for r in range(n):
        for h in range(n):
            for ka in range(n):
                lhs = scalar_mul(r + h * ka, g, TOY_W17)
                rhs = point_add(
                    scalar_mul(r, g, TOY_W17), scalar_mul(h * ka, g, TOY_W17), TOY_W17
                )
                assert lhs == rhs

    # RSA: signing then verifying is the identity on 100 random values
    rsa_key = rsa_keygen(512, RngHandle(4004))
    rng = RngHandle(4005)
    for _ in range(100):
        m = rand_below(rsa_key.n, rng)
        assert mod_exp(mod_exp(m, rsa_key.d, rsa_key.n), rsa_key.e, rsa_key.n) == m

    # DSA: every toy nonce/digest with s != 0 round-trips
    toy = DsaKey(params=DsaParams(23, 11, 4), y=18, x=3)
    for k in range(1, 11):
        for hm in range(11):
            sig = dsa_sign_digest(toy, hm, k)
            if sig is not None:
                assert dsa_verify_digest(toy, hm, sig)

    _pass(4, "ECDSA/EdDSA/RSA/DSA verification-algebra identities, exact")


def test_criterion_5_hash_selection_tables():
    """The hash-selection rules reproduce the published pairings exactly."""
    from test_hashing import MODULUS_HASH_VECTORS, ORDER_HASH_VECTORS

    assert len(ORDER_HASH_VECTORS) >= 100
    for name, bits, expected in ORDER_HASH_VECTORS:
        assert select_hash_for_order(bits) == expected, name
    for bits, expected in MODULUS_HASH_VECTORS:
        assert select_hash_for_modulus(bits) == expected, bits
    _pass(5, f"hash selection reproduces all {len(ORDER_HASH_VECTORS)} catalog rows and the modulus table")


def test_criterion_6_registry_validation():
    """Every shipped curve passes the full invariant set at 40 rounds."""
    for name in ALL_CURVES:
        curve = get_curve(name)
        validate_curve(curve)
        assert is_on_curve(curve.g, curve)
        # n*G = neutral; the comb reads multiples of G mod n, so n*G itself reads as 0*G
        assert scalar_mul(curve.n - 1, curve.g, curve) == negate(curve.g, curve)
        assert is_probable_prime(curve.n, 40)
        q = curve.field_size
        t = curve.h * curve.n - (q + 1)
        assert t * t <= 4 * q
    _pass(6, f"all {len(ALL_CURVES)} registry curves pass base-point, order, primality and Hasse checks")


def test_criterion_7_performance_orderings():
    """Machine-independent timing ratios at repeats=5."""
    start = time.monotonic()
    records = {
        (r.algorithm, r.curve if r.curve != "-" else r.key_size): r
        for r in run_bench(
            [
                BenchConfig("rsa", bits=3072),
                BenchConfig("rsa", bits=2048),
                BenchConfig("rsa", bits=1024),
                BenchConfig("dsa", bits=2048),
                BenchConfig("ecdsa", curve="p256"),
                BenchConfig("eddsa", curve="ed25519"),
            ],
            repeats=5,
            seed=7007,
        )
    }
    elapsed = time.monotonic() - start

    rsa3072 = records[("rsa", 3072)].keygen_s
    rsa2048 = records[("rsa", 2048)].keygen_s
    rsa1024 = records[("rsa", 1024)].keygen_s
    dsa2048 = records[("dsa", 2048)].keygen_s
    ecdsa_p256 = records[("ecdsa", "p256")]
    eddsa_ed = records[("eddsa", "ed25519")]

    ratio_rsa_ec = rsa3072 / ecdsa_p256.keygen_s
    ratio_rsa_rsa = rsa2048 / rsa1024
    ratio_dsa_ec = dsa2048 / ecdsa_p256.keygen_s
    assert ratio_rsa_ec >= 50, f"rsa3072/ecdsa-p256 keygen ratio {ratio_rsa_ec:.1f} < 50"
    assert ratio_rsa_rsa >= 3, f"rsa2048/rsa1024 keygen ratio {ratio_rsa_rsa:.1f} < 3"
    assert ratio_dsa_ec >= 50, f"dsa2048/ecdsa-p256 keygen ratio {ratio_dsa_ec:.1f} < 50"
    assert eddsa_ed.sign_s < 1.0
    assert ecdsa_p256.verify_s < 1.0
    assert elapsed < 300, f"harness took {elapsed:.0f}s, budget is 300s"
    _pass(
        7,
        "performance orderings hold "
        f"(rsa3072/ec {ratio_rsa_ec:.0f}x, rsa2048/rsa1024 {ratio_rsa_rsa:.1f}x, "
        f"dsa2048/ec {ratio_dsa_ec:.0f}x, harness {elapsed:.0f}s)",
    )


def test_criterion_8_determinism_and_randomization():
    """10 EdDSA signatures identical; 10 ECDSA signatures all distinct in r."""
    message = b"the same message, signed ten times"

    ed_key = ec_keygen(get_curve("ed25519"), RngHandle(8008))
    ed_sigs = [eddsa_sign(ed_key, message) for _ in range(10)]
    assert all(sig == ed_sigs[0] for sig in ed_sigs)
    assert all(eddsa_verify(ed_key, message, sig) for sig in ed_sigs)

    ec_key = ec_keygen(get_curve("p256"), RngHandle(8009))
    rng = RngHandle(8010)
    ec_sigs = [ecdsa_sign(ec_key, message, rng) for _ in range(10)]
    assert len({sig.r for sig in ec_sigs}) == 10, "nonce collision across 10 signatures"
    assert all(ecdsa_verify(ec_key, message, sig) for sig in ec_sigs)
    _pass(8, "EdDSA byte-identical across 10 runs; ECDSA r all distinct, all valid")


def test_criterion_9_keystore_fuzz():
    """1000 single-byte mutations: every one either fails to parse or still
    denotes the original key."""
    rng = RngHandle(9009)
    corpus = []
    dsa_key = dsa_keygen(dsa_paramgen(512, 160, rng), rng)
    corpus.append(("dsa", dsa_key, False))
    corpus.append(("dsa", dsa_key, True))
    rsa_key = rsa_keygen(1024, rng)
    corpus.append(("rsa", rsa_key, False))  # public-only n carries no redundancy
    ec_small = ec_keygen(get_curve("secp192k1"), rng)
    corpus.append(("ecdsa", ec_small, False))
    corpus.append(("ecdsa", ec_small, True))
    ed_key = ec_keygen(get_curve("ed25519"), rng)
    corpus.append(("eddsa", ed_key, False))
    corpus.append(("eddsa", ed_key, True))

    mutations = 0
    rejected = 0
    while mutations < 1000:
        algorithm, key, public = corpus[mutations % len(corpus)]
        original = render_key(algorithm, key, public_only=public)
        raw = bytearray(original.encode())
        pos = rng.getrandbits(20) % len(raw)
        raw[pos] = rng.getrandbits(8)
        mutations += 1
        try:
            algorithm2, key2 = parse_key(bytes(raw).decode("utf-8"))
        except (KeyFileError, UnicodeDecodeError):
            rejected += 1
            continue
        assert render_key(algorithm2, key2, public_only=public) == original, (
            f"silently different key after mutating byte {pos} of a "
            f"{'public' if public else 'private'} {algorithm} file"
        )
    assert mutations == 1000
    _pass(9, f"keystore fuzz: {mutations} mutations, {rejected} rejected, rest semantically identical")
