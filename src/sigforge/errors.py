"""Exception types shared across the package."""


class NotInvertibleError(ValueError):
    """Raised when an element has no inverse for the given modulus/field."""


class UnknownCurveError(ValueError):
    """Raised when a curve name is not present in the registry."""


class MissingPrivateKeyError(ValueError):
    """Raised when a signing operation is attempted with a public-only key."""


class KeyFileError(ValueError):
    """Raised when a key or signature file cannot be parsed or validated."""


class SignatureCheckError(ValueError):
    """Raised when a freshly computed signature fails its own check, as a
    faulty computation would make it; the signature is not returned."""
