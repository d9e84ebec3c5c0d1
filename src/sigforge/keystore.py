"""Bit-exact text serialization of keys and signatures.

File format: UTF-8 text, LF line endings, trailing newline required.  The
first line is a header ("sigforge-key v1" or "sigforge-sig v1"), followed by
"name: value" lines with lowercase names and canonical base-10 integers.
Public key files never contain private fields (d, x, ka).

Importing validates everything that can be validated: field sets are exact,
integers canonical, points must lie on their named curve, exponents must be
in range, and private material must be consistent with the public material.
A mutated file either fails to parse or still denotes the same key -- never a
silently different one.
"""

import re

from .errors import KeyFileError, MissingPrivateKeyError
from .schemes import SCHEMES, get_scheme

KEY_HEADER = "sigforge-key v1"
SIG_HEADER = "sigforge-sig v1"

_DECIMAL = re.compile(r"^(0|[1-9][0-9]*)$")

# The longest integer field: a value below a 15360-bit modulus, the largest
# size hashing.select_hash_for_modulus names a hash for (2^15360 - 1 has
# 4,624 digits).  Longer fields are never written, and are refused on import
# before any conversion.
MAX_FIELD_DIGITS = 4624
# Decimal conversions go chunk by chunk: 600 digits is below the interpreter's
# int/str digit limit at every value that limit can be set to (at least 640).
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _to_decimal(value: int) -> str:
    """Canonical base-10 text of a non-negative int of any length."""
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(value))
    return "".join(reversed(chunks))


def _from_decimal(text: str) -> int:
    """Inverse of _to_decimal for a string of ASCII digits."""
    value = 0
    for start in range(0, len(text), _CHUNK_DIGITS):
        chunk = text[start : start + _CHUNK_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _check_length(lineno, name, value):
    if len(value) > MAX_FIELD_DIGITS:
        raise KeyFileError(
            f"line {lineno}: field {name!r} is too long "
            f"({len(value)} digits, at most {MAX_FIELD_DIGITS})"
        )


def _render(header, pairs):
    """The file text; refuses, as the parser would, any field over MAX_FIELD_DIGITS."""
    lines = [header]
    for lineno, (name, value) in enumerate(pairs, start=2):
        _check_length(lineno, name, value)
        lines.append(f"{name}: {value}")
    return "\n".join(lines) + "\n"


def _parse_lines(text, header):
    if not text.endswith("\n"):
        raise KeyFileError("file must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != header:
        raise KeyFileError(f"line 1: expected header {header!r}")
    fields = {}
    for lineno, line in enumerate(lines[1:], start=2):
        name, sep, value = line.partition(": ")
        if not sep or not name or not value:
            raise KeyFileError(f"line {lineno}: expected 'name: value', got {line!r}")
        if name in fields:
            raise KeyFileError(f"line {lineno}: duplicate field {name!r}")
        fields[name] = (lineno, value)
    return fields


def _read_text(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KeyFileError(f"not valid UTF-8: {exc}") from exc


def _write_text(path, text):
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


class _FieldReader:
    def __init__(self, fields):
        self.fields = fields

    def take_str(self, name):
        if name not in self.fields:
            raise KeyFileError(f"missing field {name!r}")
        _, value = self.fields.pop(name)
        return value

    def take_int(self, name):
        if name not in self.fields:
            raise KeyFileError(f"missing field {name!r}")
        lineno, value = self.fields.pop(name)
        if not _DECIMAL.match(value):
            raise KeyFileError(
                f"line {lineno}: field {name!r} is not a canonical decimal integer"
            )
        _check_length(lineno, name, value)
        return _from_decimal(value)

    def take_scheme(self):
        algorithm = self.take_str("algorithm")
        if algorithm not in SCHEMES:
            raise KeyFileError(f"unknown algorithm {algorithm!r}")
        return algorithm, SCHEMES[algorithm]

    def finish(self):
        if self.fields:
            name = next(iter(self.fields))
            lineno, _ = self.fields[name]
            raise KeyFileError(f"line {lineno}: unexpected field {name!r}")


# --- keys -----------------------------------------------------------------


def render_key(algorithm: str, key, public_only: bool = False) -> str:
    """Serialize a key; ``public_only`` strips the private field."""
    scheme = get_scheme(algorithm)
    if not public_only and not key.has_private:
        raise MissingPrivateKeyError("cannot export private material from a public-only key")
    pairs = [("algorithm", algorithm)]
    if scheme.on_curve:
        pairs += [("form", key.curve.form), ("curve", key.curve.name)]
    pairs.append(("type", "public" if public_only else "private"))
    count = len(scheme.key_fields) - public_only
    pairs += zip(scheme.key_fields[:count], map(_to_decimal, scheme.key_ints(key)[:count]))
    return _render(KEY_HEADER, pairs)


def parse_key(text: str):
    """Inverse of render_key; returns (algorithm, key).  Raises KeyFileError
    naming the offending line or field on any malformed or inconsistent input."""
    reader = _FieldReader(_parse_lines(text, KEY_HEADER))
    algorithm, scheme = reader.take_scheme()
    kind = reader.take_str("type")
    if kind not in ("public", "private"):
        raise KeyFileError(f"field 'type' must be 'public' or 'private', got {kind!r}")
    values = [reader.take_str("form"), reader.take_str("curve")] if scheme.on_curve else []
    *public, private = scheme.key_fields
    values += [reader.take_int(name) for name in public]
    values.append(reader.take_int(private) if kind == "private" else None)
    reader.finish()
    return algorithm, scheme.parse_key(*values)


def export_key(algorithm: str, key, path, public_only: bool = False) -> None:
    _write_text(path, render_key(algorithm, key, public_only))


def import_key(path):
    return parse_key(_read_text(path))


# --- signatures -------------------------------------------------------------


def render_signature(algorithm: str, sig) -> str:
    scheme = get_scheme(algorithm)
    pairs = [("algorithm", algorithm)] + list(zip(scheme.sig_fields, map(_to_decimal, scheme.sig_ints(sig))))
    return _render(SIG_HEADER, pairs)


def parse_signature(text: str):
    """Inverse of render_signature; returns (algorithm, signature)."""
    reader = _FieldReader(_parse_lines(text, SIG_HEADER))
    algorithm, scheme = reader.take_scheme()
    values = [reader.take_int(name) for name in scheme.sig_fields]
    reader.finish()
    return algorithm, scheme.sig_from_ints(*values)


def export_signature(algorithm: str, sig, path) -> None:
    _write_text(path, render_signature(algorithm, sig))


def import_signature(path):
    return parse_signature(_read_text(path))
