"""Bit-exact text serialization of keys and signatures.

File format: UTF-8 text, LF line endings, trailing newline required.  The
first line is a header ("sigforge-key v1" or "sigforge-sig v1"), followed by
"name: value" lines with lowercase names and canonical base-10 integers.
Public key files never contain private fields (d, x, ka).

Importing reads the lines against the field order the writer uses and
refuses the first line out of place.  Integers must be canonical, points on
their named curve, exponents in range, and private material consistent.
A mutated file either fails to parse or still denotes the same key -- never a
silently different one.
"""

import itertools
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
    """The (line number, name, value) of each field line, in file order."""
    if not text.endswith("\n"):
        raise KeyFileError("file must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != header:
        raise KeyFileError(f"line 1: expected header {header!r}")
    fields = []
    for lineno, line in enumerate(lines[1:], start=2):
        name, sep, value = line.partition(": ")
        if not sep or not name or not value:
            raise KeyFileError(f"line {lineno}: expected 'name: value', got {line!r}")
        fields.append((lineno, name, value))
    return fields


def _read_layout(fields, layout):
    """The values of fields named as ``layout``, in order; refuses the first line out of place."""
    for index, (field, expected) in enumerate(itertools.zip_longest(fields, layout)):
        if field is None:
            raise KeyFileError(f"missing field {expected!r}")
        lineno, name, _ = field
        if name == expected:
            continue
        if name in layout[:index]:
            raise KeyFileError(f"line {lineno}: duplicate field {name!r}")
        if expected is None:
            raise KeyFileError(f"line {lineno}: unexpected field {name!r}")
        raise KeyFileError(f"line {lineno}: expected field {expected!r}, got {name!r}")
    return [value for _, _, value in fields]


def _int(field):
    lineno, name, value = field
    if not _DECIMAL.match(value):
        raise KeyFileError(f"line {lineno}: field {name!r} is not a canonical decimal integer")
    _check_length(lineno, name, value)
    return _from_decimal(value)


def _read_scheme(fields):
    (algorithm,) = _read_layout(fields[:1], ("algorithm",))
    if algorithm not in SCHEMES:
        raise KeyFileError(f"unknown algorithm {algorithm!r}")
    return algorithm, SCHEMES[algorithm]


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


# --- keys -----------------------------------------------------------------


def _key_layout(scheme, public):
    """The field names of a key file, in file order."""
    curve = ("form", "curve") if scheme.on_curve else ()
    return ("algorithm", *curve, "type", *scheme.key_fields[: len(scheme.key_fields) - public])


def render_key(algorithm: str, key, public_only: bool = False) -> str:
    """Serialize a key; ``public_only`` strips the private field."""
    scheme = get_scheme(algorithm)
    if not public_only and not key.has_private:
        raise MissingPrivateKeyError("cannot export private material from a public-only key")
    curve = (key.curve.form, key.curve.name) if scheme.on_curve else ()
    ints = scheme.key_ints(key)[: len(scheme.key_fields) - public_only]
    values = (algorithm, *curve, "public" if public_only else "private", *map(_to_decimal, ints))
    return _render(KEY_HEADER, zip(_key_layout(scheme, public_only), values))


def parse_key(text: str):
    """Inverse of render_key; returns (algorithm, key).  Raises KeyFileError
    naming the offending line or field on any malformed or inconsistent input."""
    fields = _parse_lines(text, KEY_HEADER)
    algorithm, scheme = _read_scheme(fields)
    layout = _key_layout(scheme, public=True)
    head = layout[: layout.index("type") + 1]
    _, *curve, kind = _read_layout(fields[: len(head)], head)
    if kind not in ("public", "private"):
        raise KeyFileError(f"field 'type' must be 'public' or 'private', got {kind!r}")
    _read_layout(fields, _key_layout(scheme, kind == "public"))
    return algorithm, scheme.parse_key(*curve, *map(_int, fields[len(curve) + 2 :]))


def export_key(algorithm: str, key, path, public_only: bool = False) -> None:
    _write_text(path, render_key(algorithm, key, public_only))


def import_key(path):
    return parse_key(_read_text(path))


# --- signatures -------------------------------------------------------------


def _sig_layout(scheme):
    """The field names of a signature file, in file order."""
    return ("algorithm", *scheme.sig_fields)


def render_signature(algorithm: str, sig) -> str:
    scheme = get_scheme(algorithm)
    values = (algorithm, *map(_to_decimal, scheme.sig_ints(sig)))
    return _render(SIG_HEADER, zip(_sig_layout(scheme), values))


def parse_signature(text: str):
    """Inverse of render_signature; returns (algorithm, signature)."""
    fields = _parse_lines(text, SIG_HEADER)
    algorithm, scheme = _read_scheme(fields)
    _read_layout(fields, _sig_layout(scheme))
    return algorithm, scheme.sig_from_ints(*map(_int, fields[1:]))


def export_signature(algorithm: str, sig, path) -> None:
    _write_text(path, render_signature(algorithm, sig))


def import_signature(path):
    return parse_signature(_read_text(path))
