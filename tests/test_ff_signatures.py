import copy
import math

import pytest

import sigforge.ff_signatures as ff_module
import sigforge.numeric as numeric
from sigforge.errors import MissingPrivateKeyError, SignatureCheckError
from sigforge.ff_signatures import (
    DsaKey,
    DsaParams,
    DsaSignature,
    RsaKey,
    dsa_keygen,
    dsa_paramgen,
    dsa_public_problem,
    dsa_sign,
    dsa_sign_digest,
    dsa_verify,
    dsa_verify_digest,
    rsa_factor_modulus,
    rsa_keygen,
    rsa_sign,
    rsa_sign_digest,
    rsa_verify,
    rsa_verify_digest,
)
from sigforge.hashing import digest_to_int
from sigforge.numeric import RngHandle, gen_prime, is_probable_prime, mod_exp, mod_inv, rand_below
from sigforge.schemes import dsa_subgroup_bits

# p=61, q=53 -> n=3233, phi=3120, e=17, d=2753
TOY_RSA = RsaKey(n=3233, e=17, d=2753)

# p=23, q=11, g=4, x=3 -> y = 4^3 mod 23 = 18
TOY_DSA_PARAMS = DsaParams(p=23, q=11, g=4)
TOY_DSA = DsaKey(params=TOY_DSA_PARAMS, y=18, x=3)


class TestRsaKeygen:
    def test_toy_private_exponent(self):
        # extended-Euclid oracle on phi = 3120
        assert mod_inv(17, 3120) == 2753

    def test_generated_key_invariants(self):
        key = rsa_keygen(512, RngHandle(31))
        assert key.n.bit_length() == 512
        assert key.e == 65537
        rng = RngHandle(32)
        for _ in range(25):
            m = rand_below(key.n, rng)
            assert mod_exp(mod_exp(m, key.d, key.n), key.e, key.n) == m

    def test_seeded_reproducibility(self):
        assert rsa_keygen(512, RngHandle(77)) == rsa_keygen(512, RngHandle(77))

    def test_too_small(self):
        with pytest.raises(ValueError):
            rsa_keygen(510, RngHandle(0))

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            rsa_keygen(513, RngHandle(0))


class TestRsaSignVerify:
    def test_injected_digest_toy_vector(self):
        assert rsa_sign_digest(TOY_RSA, 65) == mod_exp(65, 2753, 3233)
        assert rsa_verify_digest(TOY_RSA, 65, rsa_sign_digest(TOY_RSA, 65))

    def test_roundtrip(self):
        key = rsa_keygen(512, RngHandle(1))
        sig = rsa_sign(key, b"hello")
        assert rsa_verify(key, b"hello", sig)

    def test_deterministic(self):
        key = rsa_keygen(512, RngHandle(2))
        assert rsa_sign(key, b"same message") == rsa_sign(key, b"same message")

    def test_message_bit_flip_fails(self):
        key = rsa_keygen(512, RngHandle(3))
        sig = rsa_sign(key, b"hello")
        assert not rsa_verify(key, b"hellp", sig)

    def test_signature_perturbation_fails(self):
        key = rsa_keygen(512, RngHandle(4))
        sig = rsa_sign(key, b"hello")
        assert not rsa_verify(key, b"hello", sig + 1)
        assert not rsa_verify(key, b"hello", sig ^ 1)

    def test_oversized_signature_verifies_false(self):
        key = rsa_keygen(512, RngHandle(5))
        sig = rsa_sign(key, b"hello")
        assert not rsa_verify(key, b"hello", sig + key.n)
        assert not rsa_verify(key, b"hello", -1)

    def test_random_single_bit_perturbations(self):
        key = rsa_keygen(512, RngHandle(6))
        message = b"the quick brown fox"
        sig = rsa_sign(key, message)
        rng = RngHandle(60)
        for _ in range(500):
            bit = rng.getrandbits(9) % (len(message) * 8)
            tampered = bytearray(message)
            tampered[bit // 8] ^= 1 << (bit % 8)
            assert not rsa_verify(key, bytes(tampered), sig)
        for _ in range(500):
            flipped = sig ^ (1 << (rng.getrandbits(9) % sig.bit_length()))
            assert not rsa_verify(key, message, flipped)

    def test_public_only_cannot_sign(self):
        with pytest.raises(MissingPrivateKeyError):
            rsa_sign_digest(TOY_RSA.public_only(), 65)


class TestRsaCrt:
    def test_toy_key_factored_from_e_and_d(self):
        assert {TOY_RSA.p, TOY_RSA.q} == {61, 53}
        assert sorted(rsa_factor_modulus(3233, 17, 2753)) == [53, 61]

    def test_every_toy_digest_matches_the_plain_exponentiation(self):
        for hm in range(3233):
            assert rsa_sign_digest(TOY_RSA, hm) == mod_exp(hm, 2753, 3233), hm

    def test_factored_key_equals_the_generated_one(self):
        key = rsa_keygen(512, RngHandle(33))
        rebuilt = RsaKey(n=key.n, e=key.e, d=key.d)
        assert rebuilt == key
        assert {rebuilt.p, rebuilt.q} == {key.p, key.q}
        rng = RngHandle(34)
        for _ in range(20):
            hm = rand_below(key.n, rng)
            s = rsa_sign_digest(rebuilt, hm)
            assert s == rsa_sign_digest(key, hm) == mod_exp(hm, key.d, key.n)

    def test_keys_two_bases_fail_to_split_still_factor(self, monkeypatch):
        # such keys reach the gcd(2^n - 2, n) check before the third base
        gated = 0
        for seed in range(40, 56):
            key = rsa_keygen(512, RngHandle(seed))
            calls = []

            def counting_mod_exp(base, exponent, modulus):
                calls.append(base)
                return pow(base, exponent, modulus)

            monkeypatch.setattr(ff_module, "mod_exp", counting_mod_exp)
            assert set(rsa_factor_modulus(key.n, key.e, key.d)) == {key.p, key.q}
            monkeypatch.undo()
            gated += calls[:3] == [2, 3, 2]
        assert gated

    def test_prime_modulus_does_not_split(self):
        n = gen_prime(512, RngHandle(35))
        e = 65537
        with pytest.raises(ValueError, match="does not split"):
            rsa_factor_modulus(n, e, mod_inv(e, n - 1))

    def test_wrong_private_exponent_is_refused(self):
        key = rsa_keygen(512, RngHandle(36))
        with pytest.raises(ValueError, match="does not invert"):
            RsaKey(n=key.n, e=key.e, d=key.d + 2)

    @pytest.mark.parametrize("half", ("dp", "dq", "q_inv"))
    def test_corrupted_crt_value_raises(self, half):
        key = rsa_keygen(512, RngHandle(37))
        faulty = copy.copy(key)
        object.__setattr__(faulty, half, getattr(key, half) + 1)
        with pytest.raises(SignatureCheckError):
            rsa_sign_digest(faulty, 65)
        with pytest.raises(SignatureCheckError):
            rsa_sign(faulty, b"hello")

    @pytest.mark.parametrize("prime", ("p", "q"))
    def test_faulty_half_exponentiation_never_returns_a_signature(self, monkeypatch, prime):
        key = rsa_keygen(512, RngHandle(38))
        modulus = getattr(key, prime)

        def faulty_mod_exp(base, exponent, m):
            result = mod_exp(base, exponent, m)
            return result ^ 1 if m == modulus else result

        monkeypatch.setattr(ff_module, "mod_exp", faulty_mod_exp)
        with pytest.raises(SignatureCheckError):
            rsa_sign(key, b"hello")

    def test_exponent_past_2_to_256_refused_before_exponentiating(self, monkeypatch):
        # e = 65537 + phi(n) * 2^300 is congruent to 65537, so d still inverts
        # it and the CRT signature is right, but verify refuses e >= 2^256
        key = rsa_keygen(1024, RngHandle(39))
        phi = (key.p - 1) * (key.q - 1)
        wide = RsaKey(n=key.n, e=65537 + phi * 2**300, d=key.d, p=key.p, q=key.q)

        def no_mod_exp(*args):
            raise AssertionError("exponentiation with an e that verify refuses")

        monkeypatch.setattr(ff_module, "mod_exp", no_mod_exp)
        for sign in (lambda: rsa_sign_digest(wide, 65), lambda: rsa_sign(wide, b"hello")):
            with pytest.raises(ValueError, match=r"e below 2\^256") as refused:
                sign()
            assert not isinstance(refused.value, SignatureCheckError)


class TestDsaParamgen:
    def test_toy_divisibility(self):
        assert (TOY_DSA_PARAMS.p - 1) % TOY_DSA_PARAMS.q == 0

    def test_toy_generator_from_sequential_scan(self):
        # h = 2 gives g = 2^((23-1)/11) mod 23 = 4, whose order divides 11
        assert mod_exp(2, 22 // 11, 23) == 4
        assert mod_exp(4, 11, 23) == 1

    def test_generated_params_invariants(self):
        params = dsa_paramgen(128, 32, RngHandle(10))
        assert params.p.bit_length() == 128
        assert params.q.bit_length() == 32
        assert (params.p - 1) % params.q == 0
        assert is_probable_prime(params.p, 40)
        assert is_probable_prime(params.q, 40)
        assert params.g != 1
        assert mod_exp(params.g, params.q, params.p) == 1

    def test_seeded_reproducibility(self):
        assert dsa_paramgen(96, 32, RngHandle(11)) == dsa_paramgen(96, 32, RngHandle(11))

    def test_p_search_uses_the_random_candidate_schedule(self, monkeypatch):
        seen = set()

        def spy(n, rounds):
            seen.add(rounds)
            return is_probable_prime(n, rounds)

        monkeypatch.setattr(ff_module, "is_probable_prime", spy)
        params = dsa_paramgen(1024, 160, RngHandle(20))
        assert seen == {5}
        assert is_probable_prime(params.p, 40)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            dsa_paramgen(160, 160, RngHandle(0))
        with pytest.raises(ValueError, match="subgroup size"):
            dsa_paramgen(4096, 513, RngHandle(0))


class TestDsaKeygen:
    def test_toy_public_value(self):
        assert mod_exp(4, 3, 23) == 18  # 4^3 = 64 = 18 (mod 23)

    def test_private_in_range(self):
        params = dsa_paramgen(96, 32, RngHandle(12))
        rng = RngHandle(13)
        for _ in range(20):
            key = dsa_keygen(params, rng)
            assert 1 <= key.x <= params.q - 1
            assert key.y == mod_exp(params.g, key.x, params.p)


class TestDsaSignVerify:
    def test_known_answer(self):
        sig = dsa_sign_digest(TOY_DSA, 5, 7)
        assert sig == DsaSignature(8, 1)

    def test_known_answer_verification_internals(self):
        # w = 1/s = 1, u1 = 5, u2 = 8, (4^5 * 18^8 mod 23) mod 11 = 8 = r
        w = mod_inv(1, 11)
        u1 = 5 * w % 11
        u2 = 8 * w % 11
        assert (u1, u2) == (5, 8)
        assert (pow(4, u1, 23) * pow(18, u2, 23)) % 23 % 11 == 8
        assert dsa_verify_digest(TOY_DSA, 5, DsaSignature(8, 1))

    def test_tampered_signature_fails(self):
        assert not dsa_verify_digest(TOY_DSA, 5, DsaSignature(8, 2))
        assert not dsa_verify_digest(TOY_DSA, 6, DsaSignature(8, 1))

    def test_range_rules(self):
        assert not dsa_verify_digest(TOY_DSA, 5, DsaSignature(0, 1))
        assert not dsa_verify_digest(TOY_DSA, 5, DsaSignature(8, 0))
        assert not dsa_verify_digest(TOY_DSA, 5, DsaSignature(8, 11))
        assert not dsa_verify_digest(TOY_DSA, 5, DsaSignature(11, 1))

    def test_verification_algebra_exhaustive_on_toy_params(self):
        # every nonce and every digest with s != 0 must round-trip
        checked = 0
        for k in range(1, 11):
            for hm in range(0, 11):
                sig = dsa_sign_digest(TOY_DSA, hm, k)
                if sig is None:
                    continue
                assert dsa_verify_digest(TOY_DSA, hm, sig), (k, hm)
                checked += 1
        assert checked > 80

    def test_roundtrip_with_generated_params(self):
        params = dsa_paramgen(1024, 160, RngHandle(14))
        key = dsa_keygen(params, RngHandle(15))
        rng = RngHandle(16)
        for i in range(10):
            message = f"message {i}".encode()
            sig = dsa_sign(key, message, rng)
            assert 0 < sig.r < params.q and 0 < sig.s < params.q
            assert dsa_verify(key, message, sig)
            assert not dsa_verify(key, message + b"!", sig)

    def test_randomized_signatures_differ(self):
        params = dsa_paramgen(1024, 160, RngHandle(17))
        key = dsa_keygen(params, RngHandle(18))
        rng = RngHandle(19)
        s1 = dsa_sign(key, b"fixed", rng)
        s2 = dsa_sign(key, b"fixed", rng)
        assert s1 != s2
        assert dsa_verify(key, b"fixed", s1) and dsa_verify(key, b"fixed", s2)

    def test_public_only_cannot_sign(self):
        with pytest.raises(MissingPrivateKeyError):
            dsa_sign_digest(TOY_DSA.public_only(), 5, 7)
        with pytest.raises(MissingPrivateKeyError):
            dsa_sign(TOY_DSA.public_only(), b"m", RngHandle(0))


@pytest.fixture(scope="module")
def ff_dsa_keys():
    """The benchmark's finite-field workload keys, DSA-1024 and DSA-2048, by their seeds."""
    return {
        bits: dsa_keygen(
            dsa_paramgen(bits, dsa_subgroup_bits(bits), RngHandle(f"keygen:dsa-{bits}")), RngHandle(bits)
        )
        for bits in (1024, 2048)
    }


def _pow_verify(key, message, sig):
    """dsa_verify with builtin pow for both exponentiations: the oracle."""
    p, q, g, y = key.params.p, key.params.q, key.params.g, key.y
    r, s = sig
    if dsa_public_problem(p, q, g, y) or not (0 < r < q and 0 < s < q and math.gcd(s, q) == 1):
        return False
    w = pow(s, -1, q)
    hm = digest_to_int(message, key.hash_name, q)
    return pow(g, hm * w % q, p) * pow(y, r * w % q, p) % p % q == r


def _forbid_mod_exp(monkeypatch):
    def no_mod_exp(*args):
        raise AssertionError("DSA exponentiation outside the comb")

    monkeypatch.setattr(ff_module, "mod_exp", no_mod_exp)
    monkeypatch.setattr(numeric, "mod_exp", no_mod_exp)


class TestDsaComb:
    """DSA exponentiates g and y through the fixed-base comb that G's multiples
    use: equal to pow on any key, never through mod_exp, on one chain."""

    @pytest.mark.parametrize("bits", (1024, 2048))
    def test_comb_equals_pow_on_the_workload_keys(self, ff_dsa_keys, bits):
        key = ff_dsa_keys[bits]
        p, q, g = key.params.p, key.params.q, key.params.g
        width = numeric.COMB_ROWS * -(-q.bit_length() // numeric.COMB_ROWS)
        rng = RngHandle(bits + 1)
        exponents = [0, 1, q - 1, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(8)]
        for base in (g, key.y, rand_below(p, rng)):
            for k in exponents:
                assert numeric.comb_pow(p, q.bit_length(), (base, k)) == pow(base, k, p), (base, k)

    @pytest.mark.parametrize("bits", (1024, 2048))
    def test_keygen_sign_and_verify_call_no_mod_exp(self, ff_dsa_keys, monkeypatch, bits):
        key = ff_dsa_keys[bits]
        assert dsa_verify(key, b"m", dsa_sign(key, b"m", RngHandle(1)))  # both tables built
        _forbid_mod_exp(monkeypatch)
        for i in range(4):
            message = b"message %d" % i
            sig = dsa_sign(key, message, RngHandle(i))
            assert dsa_verify(key, message, sig)
            assert not dsa_verify(key, message + b"!", sig)
        other = dsa_keygen(key.params, RngHandle(2))
        assert other.y == pow(key.params.g, other.x, key.params.p)

    @pytest.mark.parametrize("bits", (1024, 2048))
    def test_verify_terms_share_one_chain_of_e_squarings(self, ff_dsa_keys, monkeypatch, bits):
        # g^u1 and y^u2 read their comb columns on one chain of e squarings,
        # where two exponentiations each took about bits(q) of them
        key = ff_dsa_keys[bits]
        e = -(-key.params.q.bit_length() // numeric.COMB_ROWS)
        sig = dsa_sign(key, b"m", RngHandle(3))
        assert dsa_verify(key, b"m", sig)  # both tables built
        squarings = []

        def counted_square(a, modulus, square=numeric._square_mod):
            squarings.append(a)
            return square(a, modulus)

        monkeypatch.setattr(numeric, "_square_mod", counted_square)
        assert dsa_verify(key, b"m", sig)
        assert len(squarings) == e
        squarings.clear()
        dsa_sign(key, b"m", RngHandle(4))
        assert len(squarings) % e == 0 and squarings  # e per nonce tried

    def test_hostile_keys_verify_as_the_pow_oracle(self, monkeypatch):
        # keys that pass the public-key rule but not import: a composite q, a g
        # of order 2q, y = p - 2, and a q of 512 bits, each with signatures
        # made by an x (some verify, some do not) and tampered ones
        rng = RngHandle(70)
        q = 3 * gen_prime(158, rng)
        p = 2
        while not (p.bit_length() == 512 and is_probable_prime(p)):
            p = q * (rng.getrandbits(512 - q.bit_length()) << 1) + 1
        g = pow(2, (p - 1) // q, p)
        valid = dsa_paramgen(512, 160, RngHandle(71))
        twisted = DsaParams(valid.p, valid.q, valid.p - valid.g)
        wide = dsa_paramgen(1024, 512, RngHandle(72))
        keys = {
            "composite q": DsaKey(DsaParams(p, q, g), y=pow(g, 12345, p), x=12345),
            "g of order 2q": DsaKey(twisted, y=pow(twisted.g, 6789, twisted.p), x=6789),
            "y = p - 2": DsaKey(valid, y=valid.p - 2, x=1),
            "q of 512 bits": DsaKey(wide, y=pow(wide.g, 4242, wide.p), x=4242),
        }
        assert not is_probable_prime(q) and pow(g, q, p) == 1
        assert pow(twisted.g, twisted.q, twisted.p) != 1
        verdicts = set()
        for name, key in keys.items():
            p, q, g = key.params.p, key.params.q, key.params.g
            assert dsa_public_problem(p, q, g, key.y) is None, name
            hm = digest_to_int(b"m", key.hash_name, q)
            sigs = [sig for k in range(2, 40) if math.gcd(k, q) == 1 for sig in [dsa_sign_digest(key, hm, k)] if sig]
            sigs += [DsaSignature(sig.r, sig.s + 1) for sig in sigs[:5]] + [DsaSignature(1, 1)]
            with monkeypatch.context() as patched:
                _forbid_mod_exp(patched)
                for sig in sigs:
                    verdict = dsa_verify(key.public_only(), b"m", sig)
                    assert verdict is _pow_verify(key, b"m", sig), (name, sig)
                    verdicts.add((name, verdict))
        assert {("composite q", True), ("g of order 2q", True), ("g of order 2q", False)} <= verdicts
        assert ("q of 512 bits", True) in verdicts and ("y = p - 2", False) in verdicts
