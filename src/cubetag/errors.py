"""Exception types shared across the package.

Every failure the package raises is a ``CubeTagError``, and a class exists only where a caller
can act on the distinction. A bad argument (a modulus, a factor that is not prime or does not
fit the mode, a radix out of range and the like) is ``InvalidArgumentError``, also a
``ValueError``; a (c, tag) pair that cannot be inverted is ``InvalidCiphertextError``; the
other classes carry what a caller acts on (a shared factor, a gcd, a line) or name a public key.
"""

import reprlib

__all__ = [
    "CubeTagError", "InvalidArgumentError", "InvalidCiphertextError", "InvalidMessageError",
    "KeyFileError", "NotInvertibleError", "PrivateKeyRequiredError",
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


def _require_int(name: str, value: object) -> int:
    """The argument `name`'s value if it is an int (a bool is one), else InvalidArgumentError."""
    if not isinstance(value, int):
        raise InvalidArgumentError(f"{name} must be an int, got {_show(value)}")
    return value


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


class InvalidMessageError(CubeTagError):
    """Message rejected at encryption time (out of range or gcd(m, n) != 1)."""

    def __init__(self, message: str, factor: int | None = None):
        if factor is not None:
            message += f" (shared factor {_show(factor)} would leak)"
        super().__init__(message)
        self.factor = factor


class InvalidCiphertextError(CubeTagError):
    """(c, tag) has no inverse: c no k-th residue in [1, n) coprime to n, or a tag out of range."""


class KeyFileError(CubeTagError):
    """Malformed key or ciphertext file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PrivateKeyRequiredError(CubeTagError):
    """Operation needs the private key section but got a public-only key."""
