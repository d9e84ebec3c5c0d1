import pytest

from sigforge import ec_signatures
from sigforge.curves import Point, negate, point_add, scalar_mul
from sigforge.ec_signatures import (
    EcKey,
    EddsaSignature,
    ec_keygen,
    ecdsa_sign,
    ecdsa_sign_digest,
    ecdsa_verify,
    ecdsa_verify_digest,
    eddsa_challenge,
    eddsa_challenge_modulus,
    eddsa_nonce,
    eddsa_sign,
    eddsa_verify,
)
from sigforge.errors import MissingPrivateKeyError
from sigforge.ff_signatures import DsaSignature
from sigforge.hashing import digest_to_int, select_hash_for_order
from sigforge.numeric import RngHandle, mod_inv
from sigforge.registry import get_curve

from conftest import TOY_ED13, TOY_K16, TOY_W17


def toy_key(ka):
    return EcKey(curve=TOY_W17, q=scalar_mul(ka, TOY_W17.g, TOY_W17), ka=ka)


def toy_multiples():
    return [scalar_mul(k, TOY_W17.g, TOY_W17) for k in range(19)]


class TestEcKeygen:
    def test_injected_scalar_two(self):
        assert toy_key(2).q == Point(6, 3)

    def test_public_point_on_curve(self):
        curve = get_curve("secp256k1")
        rng = RngHandle(21)
        for _ in range(5):
            key = ec_keygen(curve, rng)
            assert 1 <= key.ka < curve.n
            assert scalar_mul(key.ka, curve.g, curve) == key.q

    def test_seeded_reproducibility(self):
        curve = get_curve("ed25519")
        assert ec_keygen(curve, RngHandle(5)) == ec_keygen(curve, RngHandle(5))


class TestEcdsaToyVector:
    def test_sign_digest_known_answer(self):
        # k_a=7, k_r=3, m=4 on the toy curve: R = 3G = (10,6), r = 10,
        # s = (4 + 10*7) * inv(3) mod 19 = 17 * 13 mod 19 = 12
        key = toy_key(7)
        table = toy_multiples()
        sig = ecdsa_sign_digest(key, 4, 3)
        expected_r = table[3].x % 19
        expected_s = (4 + expected_r * 7) * mod_inv(3, 19) % 19
        assert sig == DsaSignature(expected_r, expected_s)
        assert sig == DsaSignature(10, 12)

    def test_verify_known_answer(self):
        key = toy_key(7)
        assert ecdsa_verify_digest(key, 4, DsaSignature(10, 12))

    def test_wrong_s_rejected(self):
        key = toy_key(7)
        for s in range(1, 19):
            if s in (12, 19 - 12):
                continue  # (r, n-s) is the valid malleable twin: same R_x
            assert not ecdsa_verify_digest(key, 4, DsaSignature(10, s))

    def test_signature_malleability_twin(self):
        # without low-s normalization, (r, -s) verifies: -R shares R_x
        key = toy_key(7)
        assert ecdsa_verify_digest(key, 4, DsaSignature(10, 19 - 12))

    def test_range_rules(self):
        key = toy_key(7)
        assert not ecdsa_verify_digest(key, 4, DsaSignature(0, 12))
        assert not ecdsa_verify_digest(key, 4, DsaSignature(10, 0))
        assert not ecdsa_verify_digest(key, 4, DsaSignature(10, 19))

    @pytest.mark.parametrize("curve", (TOY_W17, TOY_ED13, TOY_K16), ids=lambda curve: curve.name)
    def test_neutral_sum_never_verifies(self, curve):
        # hm = -r*ka makes u1*G + u2*Q neutral for every s; its x reads as 0,
        # which no r in [1, n) matches
        n, ka = curve.n, 2
        key = EcKey(curve, scalar_mul(ka, curve.g, curve), ka)
        for r in range(1, n):
            for s in range(1, n):
                assert not ecdsa_verify_digest(key, -r * ka % n, DsaSignature(r, s))


class TestEcdsaAlgebra:
    def test_u1_plus_u2_recovers_nonce_point_exhaustively(self):
        # u1*G + u2*Q == k_r*G for every private key, nonce and digest
        table = toy_multiples()
        n = 19
        for ka in range(1, n):
            key = toy_key(ka)
            for kr in range(1, n):
                expected_r = table[kr].x % n
                for m in range(n):
                    sig = ecdsa_sign_digest(key, m, kr)
                    if sig is None:
                        continue
                    w = mod_inv(sig.s, n)
                    u1 = scalar_mul(m * w % n, TOY_W17.g, TOY_W17)
                    u2 = scalar_mul(sig.r * w % n, key.q, TOY_W17)
                    assert point_add(u1, u2, TOY_W17) == table[kr]
                    assert sig.r == expected_r

    def test_nonce_reuse_leaks_equal_r(self):
        key = toy_key(5)
        sig_a = ecdsa_sign_digest(key, 3, 11)
        sig_b = ecdsa_sign_digest(key, 9, 11)
        assert sig_a.r == sig_b.r
        assert sig_a.s != sig_b.s


class TestEcdsaOnRegistryCurves:
    @pytest.mark.parametrize("name", ("secp256k1", "ed25519", "sect113r1"))
    def test_roundtrip_all_forms(self, name):
        curve = get_curve(name)
        rng = RngHandle(41)
        key = ec_keygen(curve, rng)
        sig = ecdsa_sign(key, b"cross-form signing", rng)
        assert 0 < sig.r < curve.n and 0 < sig.s < curve.n
        assert ecdsa_verify(key, b"cross-form signing", sig)
        assert not ecdsa_verify(key, b"cross-form signing!", sig)

    def test_signatures_randomized_but_all_verify(self):
        curve = get_curve("secp192k1")
        rng = RngHandle(42)
        key = ec_keygen(curve, rng)
        sigs = [ecdsa_sign(key, b"same", rng) for _ in range(5)]
        assert len({sig.r for sig in sigs}) == 5
        assert all(ecdsa_verify(key, b"same", sig) for sig in sigs)

    def test_public_only_cannot_sign(self):
        curve = get_curve("secp192k1")
        key = ec_keygen(curve, RngHandle(43)).public_only()
        with pytest.raises(MissingPrivateKeyError):
            ecdsa_sign(key, b"m", RngHandle(44))


class TestEddsaIdentity:
    def test_linearity_exhaustive_on_toy_curve(self):
        # (r + h*ka)*G == r*G + (h*ka)*G for all r, h, ka in range
        g = TOY_W17.g
        table = toy_multiples()
        for r in range(19):
            for h in range(19):
                for ka in range(19):
                    lhs = scalar_mul(r + h * ka, g, TOY_W17)
                    rhs = point_add(
                        scalar_mul(r, g, TOY_W17), scalar_mul(h * ka, g, TOY_W17), TOY_W17
                    )
                    assert lhs == rhs
                    assert lhs == table[(r + h * ka) % 19]

    def test_toy_vector(self):
        # r=5, h=3, ka=2: s = 11 and s*G == R + h*Q
        ka, r, h = 2, 5, 3
        key = toy_key(ka)
        s = r + h * ka
        assert s == 11
        big_r = scalar_mul(r, TOY_W17.g, TOY_W17)
        lhs = scalar_mul(s, TOY_W17.g, TOY_W17)
        rhs = point_add(big_r, scalar_mul(h, key.q, TOY_W17), TOY_W17)
        assert lhs == rhs


class TestEddsaOnRegistryCurves:
    @pytest.mark.parametrize("name", ("ed25519", "secp256k1", "k163"))
    def test_roundtrip_all_forms(self, name):
        curve = get_curve(name)
        key = ec_keygen(curve, RngHandle(51))
        sig = eddsa_sign(key, b"cross-form signing")
        assert eddsa_verify(key, b"cross-form signing", sig)
        assert not eddsa_verify(key, b"cross-form signing!", sig)

    def test_deterministic_signatures(self):
        key = ec_keygen(get_curve("ed25519"), RngHandle(52))
        sigs = [eddsa_sign(key, b"stable message") for _ in range(5)]
        assert all(sig == sigs[0] for sig in sigs)

    def test_nonce_depends_only_on_message(self):
        curve = get_curve("ed25519")
        alg = select_hash_for_order(curve.n.bit_length())
        assert eddsa_nonce(curve, b"m1", alg) == eddsa_nonce(curve, b"m1", alg)
        assert eddsa_nonce(curve, b"m1", alg) != eddsa_nonce(curve, b"m2", alg)
        assert 1 <= eddsa_nonce(curve, b"m1", alg) < curve.n

    def test_challenge_recomputed_identically_by_verifier(self):
        curve = get_curve("secp256k1")
        key = ec_keygen(curve, RngHandle(53))
        alg = select_hash_for_order(curve.n.bit_length())
        sig = eddsa_sign(key, b"msg")
        h = eddsa_challenge(curve, sig.R, key.q, b"msg", alg)
        assert 0 <= h < curve.field
        assert scalar_mul(sig.s, curve.g, curve) == point_add(
            sig.R, scalar_mul(h, key.q, curve), curve
        )

    def test_s_left_unreduced(self):
        key = ec_keygen(get_curve("secp192k1"), RngHandle(54))
        sig = eddsa_sign(key, b"large s expected")
        assert sig.s > key.curve.n  # challenge times private scalar dominates

    def test_perturbed_s_rejected(self):
        key = ec_keygen(get_curve("ed25519"), RngHandle(55))
        sig = eddsa_sign(key, b"msg")
        assert not eddsa_verify(key, b"msg", EddsaSignature(sig.R, sig.s + 1))

    def test_negated_r_rejected(self):
        key = ec_keygen(get_curve("ed25519"), RngHandle(56))
        sig = eddsa_sign(key, b"msg")
        flipped = EddsaSignature(negate(sig.R, key.curve), sig.s)
        assert not eddsa_verify(key, b"msg", flipped)

    def test_off_curve_r_verifies_false_not_raises(self):
        key = ec_keygen(get_curve("ed25519"), RngHandle(57))
        sig = eddsa_sign(key, b"msg")
        bad = EddsaSignature(Point(sig.R.x, (sig.R.y + 1) % key.curve.field), sig.s)
        assert eddsa_verify(key, b"msg", bad) is False

    def test_negative_s_verifies_false(self):
        key = ec_keygen(get_curve("ed25519"), RngHandle(58))
        sig = eddsa_sign(key, b"msg")
        assert eddsa_verify(key, b"msg", EddsaSignature(sig.R, -1)) is False

    @pytest.mark.parametrize("name", ("ed25519", "k163"))
    def test_s_beyond_honest_range_rejected(self, name, monkeypatch):
        # adding n*modulus keeps s*G, since n*G is neutral, but an honest s is at
        # most modulus*(n-1); verify rejects it before any scalar multiplication
        curve = get_curve(name)
        key = ec_keygen(curve, RngHandle(60))
        sig = eddsa_sign(key, b"msg")
        forged = EddsaSignature(sig.R, sig.s + curve.n * eddsa_challenge_modulus(curve))
        assert scalar_mul(forged.s, curve.g, curve) == scalar_mul(sig.s, curve.g, curve)

        def no_scalar_mul(*args):
            raise AssertionError("scalar multiplication on an out-of-range s")

        monkeypatch.setattr(ec_signatures, "scalar_mul", no_scalar_mul)
        monkeypatch.setattr(ec_signatures, "mul_add", no_scalar_mul)
        assert eddsa_verify(key, b"msg", forged) is False

    def test_public_only_cannot_sign(self):
        key = ec_keygen(get_curve("ed25519"), RngHandle(59)).public_only()
        with pytest.raises(MissingPrivateKeyError):
            eddsa_sign(key, b"m")


class TestOffCurvePublicKey:
    # key files are checked on import, but a directly built EcKey is not
    @pytest.mark.parametrize("name", ("p256", "k163"))
    def test_verify_returns_false_before_any_scalar_multiplication(self, name, monkeypatch):
        curve = get_curve(name)
        key = EcKey(curve=curve, q=Point(1, 1))

        def no_scalar_mul(*args):
            raise AssertionError("scalar multiplication with an off-curve public key")

        monkeypatch.setattr(ec_signatures, "scalar_mul", no_scalar_mul)
        monkeypatch.setattr(ec_signatures, "mul_add", no_scalar_mul)
        assert ecdsa_verify(key, b"m", DsaSignature(1, 1)) is False
        assert eddsa_verify(key, b"m", EddsaSignature(curve.g, 5)) is False

    @pytest.mark.parametrize(
        "name,neutral",
        (("p256", None), ("k163", None), ("ed25519", Point(0, 1))),
        ids=("p256", "k163", "ed25519"),
    )
    def test_neutral_public_key_rejects_keyless_forgeries(self, name, neutral, monkeypatch):
        # with Q neutral both equations lose their key term: ECDSA's u1*G + u2*Q
        # is k*G for s = hm / k, and EdDSA's s*G - h*Q = R holds for s = r
        curve = get_curve(name)
        key = EcKey(curve=curve, q=neutral)
        message = b"signed by no one"
        k = 12345
        hm = digest_to_int(message, select_hash_for_order(curve.n.bit_length()), curve.n)
        forged_ecdsa = DsaSignature(
            scalar_mul(k, curve.g, curve).x % curve.n, hm * mod_inv(k, curve.n) % curve.n
        )
        forged_eddsa = EddsaSignature(scalar_mul(k, curve.g, curve), k)

        def no_scalar_mul(*args):
            raise AssertionError("scalar multiplication with the neutral public key")

        monkeypatch.setattr(ec_signatures, "scalar_mul", no_scalar_mul)
        monkeypatch.setattr(ec_signatures, "mul_add", no_scalar_mul)
        assert ecdsa_verify(key, message, forged_ecdsa) is False
        assert eddsa_verify(key, message, forged_eddsa) is False
        assert eddsa_verify(key, message, EddsaSignature(curve.g, 5)) is False


class TestEddsaTorsionComponent:
    def test_verdict_follows_the_parity_of_the_challenge(self):
        # Q' = Q + T with T = (0, -1) of order 2 is on the curve but outside the
        # order-n subgroup, and key files are not checked for that.  An honest
        # signature under Q' satisfies s*G - h*Q' = R - h*T, so it verifies
        # exactly when h is even; computing -h*Q' as (n - h)*Q' would flip that
        curve = get_curve("ed25519")
        seeded = ec_keygen(curve, RngHandle(62))
        torsion = Point(0, curve.field - 1)
        key = EcKey(curve=curve, q=point_add(seeded.q, torsion, curve), ka=seeded.ka)
        alg = select_hash_for_order(curve.n.bit_length())
        parities = set()
        for i in range(16):
            message = b"torsion %d" % i
            sig = eddsa_sign(key, message)
            h = eddsa_challenge(curve, sig.R, key.q, message, alg)
            parities.add(h % 2)
            assert eddsa_verify(key, message, sig) == (h % 2 == 0)
        assert parities == {0, 1}


class TestEddsaKeyRecovery:
    def test_one_signature_and_its_message_reveal_the_private_scalar(self):
        # the paper's variant as specified: the nonce r = H(H(m) || m) ignores
        # the key and s = r + h*ka is left unreduced, so ka = (s - r) / h exactly
        curve = get_curve("ed25519")
        key = ec_keygen(curve, RngHandle(61))
        message = b"a public message"
        sig = eddsa_sign(key, message)
        alg = select_hash_for_order(curve.n.bit_length())
        r = eddsa_nonce(curve, message, alg)
        h = eddsa_challenge(curve, sig.R, key.q, message, alg)
        assert (sig.s - r) % h == 0
        assert (sig.s - r) // h == key.ka
        assert (sig.s - r) * mod_inv(h, curve.n) % curve.n == key.ka
