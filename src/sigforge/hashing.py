"""Message digesting and automatic hash selection.

Hash algorithms are named by their digest width: ``sha160`` (SHA-1),
``sha224``, ``sha256``, ``sha384`` and ``sha512``.  The two selection rules
pick a hash from the RSA/DSA modulus size or from an elliptic curve's order
size; messages are reduced to integers by leftmost-bits truncation followed
by modular reduction.
"""

import hashlib
from typing import Optional

from .errors import MissingPrivateKeyError

SHA160 = "sha160"
SHA224 = "sha224"
SHA256 = "sha256"
SHA384 = "sha384"
SHA512 = "sha512"

_CONSTRUCTORS = {
    SHA160: hashlib.sha1,
    SHA224: hashlib.sha224,
    SHA256: hashlib.sha256,
    SHA384: hashlib.sha384,
    SHA512: hashlib.sha512,
}


def digest_bits(alg: str) -> int:
    if alg not in _CONSTRUCTORS:
        raise ValueError(f"unknown hash algorithm {alg!r}")
    return int(alg[3:])


def select_hash_for_modulus(bits: int) -> str:
    """Hash for an RSA/DSA modulus of the given bit size."""
    if bits < 512:
        raise ValueError(f"key size {bits} is too small (minimum 512 bits)")
    if bits >= 15360:
        return SHA512
    if bits >= 7680:
        return SHA384
    if bits >= 3072:
        return SHA256
    if bits >= 2048:
        return SHA224
    return SHA160


def select_hash_for_order(order_bits: int) -> str:
    """Hash for an elliptic curve whose base point order has the given bit size."""
    if order_bits < 80:
        raise ValueError(f"curve order of {order_bits} bits is too small (minimum 80)")
    if order_bits > 384:
        return SHA512
    if order_bits > 256:
        return SHA384
    if order_bits > 224:
        return SHA256
    if order_bits >= 160:
        return SHA224
    return SHA160


def sign_hash(key) -> str:
    """The key's ``hash_name`` for signing: a public-only key raises
    MissingPrivateKeyError before the rule can refuse the key's size."""
    if not key.has_private:
        raise MissingPrivateKeyError("signing requires the private key")
    return key.hash_name


def verify_hash(key) -> Optional[str]:
    """The key's ``hash_name``, or None where the rule refuses the key's size:
    verify then answers False, where sign raises."""
    try:
        return key.hash_name
    except ValueError:
        return None


def digest(message: bytes, alg: str) -> bytes:
    if alg not in _CONSTRUCTORS:
        raise ValueError(f"unknown hash algorithm {alg!r}")
    return _CONSTRUCTORS[alg](message).digest()


def digest_to_int(message: bytes, alg: str, order: int) -> int:
    """Digest interpreted as a big-endian integer, fitted to [0, order).

    When the digest is wider than the order, only its leftmost bitlen(order)
    bits are kept before the final reduction.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    raw = digest(message, alg)
    value = int.from_bytes(raw, "big")
    width = 8 * len(raw)
    target = order.bit_length()
    if width > target:
        value >>= width - target
    return value % order
