"""Message digesting and automatic hash selection.

Hash algorithms are named by their digest width: ``sha160`` (SHA-1),
``sha224``, ``sha256``, ``sha384`` and ``sha512``.  Two selection tables
pick a hash from the RSA/DSA modulus size or from an elliptic curve's order
size, and one lookup reads both.  Messages are reduced to integers by
leftmost-bits truncation followed by modular reduction.  A key whose size
selection refuses fails its scheme's public-key rule before verify hashes.
"""

import hashlib

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
    return 8 * len(digest(b"", alg))


# (fewest bits, hash) rows, largest first; a size below the last row is refused
_MODULUS_TABLE = ((15360, SHA512), (7680, SHA384), (3072, SHA256), (2048, SHA224), (512, SHA160))
_ORDER_TABLE = ((385, SHA512), (257, SHA384), (225, SHA256), (160, SHA224), (80, SHA160))


def _lookup(table, bits: int, refusal: str) -> str:
    for fewest, alg in table:
        if bits >= fewest:
            return alg
    raise ValueError(refusal)


def select_hash_for_modulus(bits: int) -> str:
    """Hash for an RSA/DSA modulus of the given bit size."""
    return _lookup(_MODULUS_TABLE, bits, f"key size {bits} is too small (minimum 512 bits)")


def select_hash_for_order(order_bits: int) -> str:
    """Hash for an elliptic curve whose base point order has the given bit size."""
    return _lookup(_ORDER_TABLE, order_bits, f"curve order of {order_bits} bits is too small (minimum 80)")


def sign_hash(key) -> str:
    """The key's ``hash_name`` for signing: a public-only key raises
    MissingPrivateKeyError before the rule can refuse the key's size."""
    if not key.has_private:
        raise MissingPrivateKeyError("signing requires the private key")
    return key.hash_name


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
