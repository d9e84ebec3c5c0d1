import pytest

from sigforge import Cryptosystem, schemes
from sigforge.schemes import dsa_subgroup_bits


class TestConstruction:
    def test_defaults(self):
        ecdsa = Cryptosystem("ecdsa", seed=1)
        assert ecdsa.key.curve.name == "secp256k1"
        eddsa = Cryptosystem("eddsa", seed=1)
        assert eddsa.key.curve.name == "ed25519"

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            Cryptosystem("dilithium")

    def test_form_cross_checked(self):
        Cryptosystem("eddsa", form="edwards", curve="ed25519", seed=1)
        with pytest.raises(ValueError, match="form"):
            Cryptosystem("eddsa", form="koblitz", curve="ed25519", seed=1)

    def test_curve_rejected_for_rsa(self):
        with pytest.raises(ValueError):
            Cryptosystem("rsa", curve="ed25519", bits=512, seed=1)

    @pytest.mark.parametrize("form,curve", (("edwards", None), (None, "p256")))
    def test_curve_options_refused_before_any_keygen(self, monkeypatch, form, curve):
        calls = []
        monkeypatch.setattr(schemes, "rsa_keygen", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="does not take a form or curve"):
            Cryptosystem("rsa", form=form, curve=curve)
        assert calls == []

    @pytest.mark.parametrize("algorithm", ("ecdsa", "eddsa"))
    def test_bits_rejected_for_curves(self, algorithm):
        with pytest.raises(ValueError, match="bits"):
            Cryptosystem(algorithm, bits=4096, seed=1)

    def test_seed_reproducible(self):
        a = Cryptosystem("ecdsa", curve="secp192k1", seed=9)
        b = Cryptosystem("ecdsa", curve="secp192k1", seed=9)
        assert a.key == b.key

    def test_dsa_subgroup_pairing(self):
        assert dsa_subgroup_bits(1024) == 160
        assert dsa_subgroup_bits(2048) == 224
        assert dsa_subgroup_bits(3072) == 256
        assert dsa_subgroup_bits(7680) == 384
        assert dsa_subgroup_bits(15360) == 512


class TestSignVerify:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "rsa", "bits": 512},
            {"algorithm": "dsa", "bits": 512},
            {"algorithm": "ecdsa", "curve": "secp192k1"},
            {"algorithm": "eddsa", "curve": "ed25519"},
        ],
        ids=lambda kw: kw["algorithm"],
    )
    def test_roundtrip(self, kwargs):
        system = Cryptosystem(seed=3, **kwargs)
        signature = system.sign(b"payload")
        assert system.verify(b"payload", signature)
        assert not system.verify(b"payloae", signature)

    def test_string_messages_are_utf8(self):
        system = Cryptosystem("eddsa", seed=4)
        assert system.verify(b"Hello, world!", system.sign("Hello, world!"))

    @pytest.mark.parametrize("message", (5, 0, True, None, 1.5))
    def test_messages_that_are_not_bytes_or_str_refused(self, message):
        # bytes(5) would be five zero bytes, and bytes(10**10) ten gigabytes
        system = Cryptosystem("eddsa", seed=4)
        signature = system.sign(bytes(5))
        with pytest.raises(TypeError):
            system.sign(message)
        with pytest.raises(TypeError):
            system.verify(message, signature)
        assert system.verify(bytearray(5), signature)
        assert system.verify(memoryview(bytes(5)), signature)

    def test_cross_form_combination(self):
        system = Cryptosystem("eddsa", form="weierstrass", curve="secp256k1", seed=5)
        assert system.verify(b"m", system.sign(b"m"))


class TestKeyFileFlow:
    def test_public_export_then_verify(self, tmp_path):
        signer = Cryptosystem("eddsa", curve="ed25519", seed=6)
        signer.export_keys(tmp_path / "public.txt", public=True)
        signature = signer.sign("Hello, world!")

        verifier = Cryptosystem("eddsa", curve="ed25519", key_file=tmp_path / "public.txt")
        assert verifier.verify("Hello, world!", signature) is True
        assert verifier.verify("Hello, world?", signature) is False

    def test_private_export_can_sign(self, tmp_path):
        signer = Cryptosystem("ecdsa", curve="secp192k1", seed=7)
        signer.export_keys(tmp_path / "private.txt")
        clone = Cryptosystem("ecdsa", key_file=tmp_path / "private.txt")
        assert signer.verify(b"m", clone.sign(b"m"))

    def test_algorithm_mismatch_rejected(self, tmp_path):
        Cryptosystem("eddsa", seed=8).export_keys(tmp_path / "k.txt", public=True)
        with pytest.raises(ValueError, match="algorithm"):
            Cryptosystem("ecdsa", key_file=tmp_path / "k.txt")

    def test_bits_mismatch_rejected(self, tmp_path):
        Cryptosystem("rsa", bits=1024, seed=10).export_keys(tmp_path / "k.txt", public=True)
        assert Cryptosystem("rsa", bits=1024, key_file=tmp_path / "k.txt").key.key_size == 1024
        with pytest.raises(ValueError, match="1024-bit key, not 4096 bits"):
            Cryptosystem("rsa", bits=4096, key_file=tmp_path / "k.txt")

    def test_curve_mismatch_rejected(self, tmp_path):
        Cryptosystem("eddsa", curve="ed448", seed=9).export_keys(tmp_path / "k.txt", public=True)
        with pytest.raises(ValueError, match="curve"):
            Cryptosystem("eddsa", curve="ed25519", key_file=tmp_path / "k.txt")
