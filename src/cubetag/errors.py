"""Exception types shared across the package.

Every failure the package raises is a ``CubeTagError``. Generic domain
errors (bad modulus, non-prime factor, out-of-range radix and the like) are
``InvalidArgumentError``, which is also a ``ValueError``; the other classes
exist where callers need to distinguish the failure, e.g. a failed inversion
modulo a composite reveals a factor.
"""

import reprlib

__all__ = [
    "CubeTagError", "InvalidArgumentError", "InvalidCiphertextError",
    "InvalidMessageError", "KeyFileError", "KeyGenerationError", "NonResidueError",
    "NotInvertibleError", "PrivateKeyRequiredError", "TagRangeError",
]


def _show(value: object) -> str:
    """A value as messages show it: a non-int as ``reprlib.repr`` shows it; an int as its decimal,
    abridged past 40 characters like reprlib, or past the int/str limit as its bit length."""
    if not isinstance(value, int):
        return reprlib.repr(value)
    try:
        text = str(value)
    except ValueError:
        return f"<{value.bit_length()}-bit int>"
    return text if len(text) <= 40 else f"{text[:18]}...{text[-19:]}"


class CubeTagError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(CubeTagError, ValueError):
    """An argument outside the domain the function accepts."""


class NotInvertibleError(CubeTagError):
    """gcd(a, modulus) != 1, so no modular inverse exists.

    ``gcd`` carries the common divisor; modulo a composite this is a factor.
    """

    def __init__(self, a: int, modulus: int, gcd: int):
        super().__init__(f"{_show(a)} is not invertible mod {_show(modulus)} (gcd {_show(gcd)})")
        self.a = a
        self.modulus = modulus
        self.gcd = gcd


class NonResidueError(CubeTagError):
    """The value has no k-th root for the requested modulus."""


class InvalidMessageError(CubeTagError):
    """Message rejected at encryption time (out of range or gcd(m, n) != 1)."""

    def __init__(self, message: str, factor: int | None = None):
        if factor is not None:
            message += f" (shared factor {_show(factor)} would leak)"
        super().__init__(message)
        self.factor = factor


class InvalidCiphertextError(CubeTagError):
    """Ciphertext cannot be decrypted: outside [1, n) or not coprime to n."""


class TagRangeError(InvalidCiphertextError):
    """Rank tag outside [1, root count]."""


class KeyGenerationError(CubeTagError):
    """Key constraints could not be satisfied."""


class KeyFileError(CubeTagError):
    """Malformed key or ciphertext file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PrivateKeyRequiredError(CubeTagError):
    """Operation needs the private key section but got a public-only key."""
