"""High-level API: build a cryptosystem, export keys, sign, verify.

    from sigforge import Cryptosystem

    signer = Cryptosystem(algorithm="eddsa", form="edwards", curve="ed25519")
    signer.export_keys("public.txt", public=True)
    signature = signer.sign(b"Hello, world!")

    verifier = Cryptosystem(algorithm="eddsa", key_file="public.txt")
    assert verifier.verify(b"Hello, world!", signature)
"""

from . import keystore
from .numeric import RngHandle
from .schemes import get_scheme


def generate_key(algorithm: str, rng: RngHandle, bits=None, curve=None):
    """Fresh key material for any supported algorithm."""
    return get_scheme(algorithm).keygen(rng, bits, curve)


def sign_message(algorithm: str, key, message: bytes, rng: RngHandle):
    return get_scheme(algorithm).sign(key, message, rng)


def verify_message(algorithm: str, key, message: bytes, signature) -> bool:
    return get_scheme(algorithm).verify(key, message, signature)


class Cryptosystem:
    """A configured signing/verifying endpoint.

    Without ``key_file`` a fresh key is generated; with it, the key material
    is loaded (and may be public-only, in which case only verification
    works).  ``seed`` makes key generation and signing nonces reproducible.
    """

    def __init__(self, algorithm, *, form=None, curve=None, bits=None, key_file=None, seed=None):
        algorithm = algorithm.lower()
        scheme = get_scheme(algorithm)
        if scheme.on_curve and bits is not None:
            raise ValueError(f"{algorithm} does not take bits; its curve sets the key size")
        if not scheme.on_curve and (form is not None or curve is not None):
            raise ValueError(f"{algorithm} does not take a form or curve")
        self.algorithm = algorithm
        self.rng = RngHandle(seed)
        if key_file is not None:
            file_alg, key = keystore.import_key(key_file)
            if file_alg != algorithm:
                raise ValueError(
                    f"key file holds a {file_alg!r} key, but algorithm is {algorithm!r}"
                )
            if bits is not None and key.key_size != bits:
                raise ValueError(f"key file holds a {key.key_size}-bit key, not {bits} bits")
            self.key = key
        else:
            self.key = scheme.keygen(self.rng, bits, curve)
        if scheme.on_curve:
            if curve is not None and self.key.curve.name != curve.lower():
                raise ValueError(f"key uses curve {self.key.curve.name!r}, not {curve!r}")
            if form is not None and self.key.curve.form != form.lower():
                raise ValueError(
                    f"curve {self.key.curve.name!r} has form {self.key.curve.form!r}, "
                    f"not {form!r}"
                )

    @staticmethod
    def _as_bytes(message) -> bytes:
        if isinstance(message, int):  # bytes(n) would be n zero bytes
            raise TypeError(f"message must be bytes-like or str, not {type(message).__name__}")
        return message.encode("utf-8") if isinstance(message, str) else bytes(message)

    def sign(self, message):
        return sign_message(self.algorithm, self.key, self._as_bytes(message), self.rng)

    def verify(self, message, signature) -> bool:
        return verify_message(self.algorithm, self.key, self._as_bytes(message), signature)

    def export_keys(self, path, public: bool = False) -> None:
        keystore.export_key(self.algorithm, self.key, path, public_only=public)
