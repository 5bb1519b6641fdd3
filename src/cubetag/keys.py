"""Key generation and the line-oriented key and ciphertext file format.

A key is an exponent (3, or 2 for the squaring variant) and the factors of
a prime or two-prime modulus; the roots of unity, and so the tag range,
follow from the factors. Each KeyMode's row in ``_MODES`` holds what sets
the modes apart: the exponent, the factor shapes key generation samples,
the totient constraint, and the private key-file fields.

Both communicating parties hold the factors; the private key file carries
them, the ``.pub`` variant only the mode and modulus. ``KeyMaterial.factors``
is the one gate to the private part. A file is read back by rebuilding the
key from its factors and requiring ``serialize_key`` to reproduce it.

Proving the factors prime is the bulk of loading a key. ``key_from_factors``
tests each factor once and keeps it as a proven prime, which every later
primality guard accepts without a test; a factor read from a file is
untrusted and gets that one test, a factor from ``generate_key`` arrives
proven by its own search.
"""

from __future__ import annotations

import enum
import math
import random
import re
import reprlib
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Callable

from .errors import InvalidArgumentError, KeyFileError, KeyGenerationError, PrivateKeyRequiredError
from .modular import _ProvenPrime, is_probable_prime
from .roots import (
    UnityRootSet,
    cube_roots_of_unity_composite,
    cube_roots_of_unity_prime,
    square_roots_of_unity_composite,
)

_MAX_PRIME_TRIES_PER_BIT = 256

# Canonical ASCII decimal: no sign, no leading zero, at most 4300 digits
# (Python's default int/str conversion limit).
_DECIMAL = re.compile(r"0|[1-9][0-9]{0,4299}")


class KeyMode(enum.Enum):
    CUBIC3_PRIME = "CUBIC3_PRIME"
    CUBIC3_COMPOSITE = "CUBIC3_COMPOSITE"
    CUBIC9_COMPOSITE = "CUBIC9_COMPOSITE"
    SQUARE_COMPOSITE = "SQUARE_COMPOSITE"

    @property
    def exponent(self) -> int:
        """Public transformation exponent: cube or square."""
        return _MODES[self].exponent


@dataclass(frozen=True)
class _Mode:
    exponent: int
    shapes: tuple[Callable[[int], bool], ...]  # one per factor keygen samples
    constraint: Callable[[int, int], bool]  # (p, phi) -> acceptable
    requirement: str
    private_fields: tuple[str, ...]  # key-file lines after mode and n


# c % 9 in (4, 7) is 3 || c-1: 3 divides c-1 but 9 does not. Exactly one
# factor of a CUBIC3 key contributes the 3 (q-1 avoids it); CUBIC9 keygen
# keeps both factors at 3 || p-1, the shape keys have always had, though
# factors with 9 | p-1 are accepted. A prime-mode file implies p = n and so
# carries no factor lines.
_MODES = {
    KeyMode.CUBIC3_PRIME: _Mode(
        3, (lambda c: c % 9 in (4, 7) and c % 4 == 3,),
        lambda p, phi: phi % 9 in (3, 6) and p % 4 == 3,
        "3 | p-1, 9 not dividing p-1 and p = 3 mod 4", ("phi", "alpha")),
    KeyMode.CUBIC3_COMPOSITE: _Mode(
        3, (lambda c: c % 9 in (4, 7), lambda c: c % 3 == 2),
        lambda p, phi: phi % 9 in (3, 6),
        "phi divisible by 3 but not 9", ("p", "q", "phi", "alpha")),
    KeyMode.CUBIC9_COMPOSITE: _Mode(
        3, (lambda c: c % 9 in (4, 7), lambda c: c % 9 in (4, 7)),
        lambda p, phi: phi % 9 == 0,
        "phi divisible by 9", ("p", "q", "phi", "alpha")),
    KeyMode.SQUARE_COMPOSITE: _Mode(
        2, (lambda c: True, lambda c: True),
        lambda p, phi: True,
        "distinct odd primes", ("p", "q", "phi")),
}


@dataclass(frozen=True)
class KeyMaterial:
    """A key, possibly public-only (factors, alpha and roots absent)."""

    mode: KeyMode
    n: int
    p: int | None = None
    q: int | None = None
    alpha: int | None = None
    unity_roots: UnityRootSet | None = field(default=None, repr=False)

    @property
    def has_private(self) -> bool:
        return self.p is not None

    @property
    def factors(self) -> tuple[int, ...]:
        """The primes of n: (n,) in prime mode, else (p, q)."""
        if self.p is None:
            raise PrivateKeyRequiredError("operation needs the private key (the factors of n)")
        return (self.p,) if self.q is None else (self.p, self.q)

    @property
    def phi(self) -> int:
        """Euler's totient of n, from the factors."""
        return math.prod(f - 1 for f in self.factors)

    @property
    def roots(self) -> UnityRootSet:
        if self.unity_roots is None:
            raise PrivateKeyRequiredError(
                "operation needs the private key (unity roots are derived from the factors)"
            )
        return self.unity_roots

    def public(self) -> "KeyMaterial":
        """Strip everything but the mode and modulus."""
        return KeyMaterial(mode=self.mode, n=self.n)


def key_from_factors(mode: KeyMode, p: int, q: int | None = None) -> KeyMaterial:
    """Assemble full key material from explicit factors, checking the mode's
    divisibility constraints.

    Each factor is tested for primality once, here (40 random Miller-Rabin
    rounds above ~3.3e24), and stored as a proven prime, so the root routines
    below, and a later key_from_factors given this key's p and q, skip the test.
    """
    spec = _MODES[mode]
    factors = (p,) if q is None else (p, q)
    if len(factors) != len(spec.shapes):
        raise InvalidArgumentError(
            f"{mode.value} takes {len(spec.shapes)} factor(s), got {len(factors)}"
        )
    for factor in factors:
        if factor < 3 or factor % 2 == 0 or not is_probable_prime(factor):
            raise InvalidArgumentError(f"factors must be odd primes; {factor} is not")
    factors = tuple(map(_ProvenPrime, factors))
    p, q = factors if len(factors) == 2 else (factors[0], None)
    if p == q:
        raise InvalidArgumentError("factors must be distinct")
    phi = math.prod(f - 1 for f in factors)
    if not spec.constraint(p, phi):
        raise KeyGenerationError(f"{mode.value} needs {spec.requirement}; p={p}, phi={phi} fails")
    if spec.exponent == 2:
        root_set = square_roots_of_unity_composite(p, q)
    elif q is None:
        root_set = cube_roots_of_unity_prime(p)
    else:
        root_set = cube_roots_of_unity_composite(p, q)
    alpha = root_set.smallest_nontrivial if "alpha" in spec.private_fields else None
    return KeyMaterial(mode=mode, n=math.prod(factors), p=p, q=q, alpha=alpha, unity_roots=root_set)


def _random_prime(rng: random.Random, bits: int, accept) -> int:
    """Random prime of exactly `bits` bits satisfying `accept(p)`."""
    for _ in range(_MAX_PRIME_TRIES_PER_BIT * bits):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if accept(candidate) and is_probable_prime(candidate, rng=rng):
            return _ProvenPrime(candidate)  # the seeded test just run is the proof
    raise KeyGenerationError(
        f"no {bits}-bit prime satisfying the mode constraints found; "
        "constraints may be unsatisfiable at this size"
    )


def generate_key(
    mode: KeyMode,
    bits: int = 256,
    seed: int | None = None,
    p: int | None = None,
    q: int | None = None,
) -> KeyMaterial:
    """Generate key material for `mode` with an approximately `bits`-bit
    modulus; deterministic for a given (mode, bits, seed).

    Explicit p/q override random generation so desk-scale keys (e.g. n = 77
    or 91) can be reproduced exactly; they are still validated against the
    mode's constraints.
    """
    if p is not None:
        return key_from_factors(mode, p, q)
    if q is not None:
        raise InvalidArgumentError("q given without p")
    if bits < 8:
        raise InvalidArgumentError(f"bits must be >= 8, got {bits}")
    rng = random.Random(seed)
    shapes = _MODES[mode].shapes
    factors: list[int] = []
    for i, shape in enumerate(shapes):
        size = bits * (i + 1) // len(shapes) - bits * i // len(shapes)
        factors.append(_random_prime(rng, size, lambda c: shape(c) and c not in factors))
    return key_from_factors(mode, *factors)


def _file_lines(text: str) -> list[str]:
    """The lines of a key or ciphertext file, whose last line must end in LF."""
    if not text:
        raise KeyFileError("empty file")
    if not text.endswith("\n"):
        raise KeyFileError("missing final line feed", line=text.count("\n") + 1)
    return text[:-1].split("\n")


def _decimal_field(lines: list[str], index: int, name: str) -> int:
    """The value of line `index`, which must read `name=<canonical decimal>`."""
    if index >= len(lines):
        raise KeyFileError(f"missing {name}= line", line=index + 1)
    line = lines[index]
    if not (line.startswith(name + "=") and _DECIMAL.fullmatch(line, len(name) + 1)):
        raise KeyFileError(
            f"expected {name}=<canonical decimal>, got {reprlib.repr(line)}", line=index + 1
        )
    return int(line[len(name) + 1:])


def _require_lines(lines: list[str], serialized: str) -> None:
    """Require a file's lines to read exactly as `serialized`, naming the first that differs."""
    for number, (got, want) in enumerate(zip_longest(lines, _file_lines(serialized)), 1):
        if got != want:
            expected = "end of file" if want is None else reprlib.repr(want)
            found = "end of file" if got is None else reprlib.repr(got)
            raise KeyFileError(f"expected {expected}, got {found}", line=number)


def serialize_key(key: KeyMaterial) -> str:
    """Render a key file; a public key (``key.public()``) gives only mode and n."""
    lines = [f"mode={key.mode.value}", f"n={key.n}"]
    if key.has_private:
        lines += [f"{name}={getattr(key, name)}" for name in _MODES[key.mode].private_fields]
    return "".join(line + "\n" for line in lines)


def parse_key(text: str) -> KeyMaterial:
    """Parse a key file: two lines (mode, n) for a public key, else a private
    file that must read exactly as serialize_key writes the key its factors give.

    Only the mode, n, the factor lines and alpha are read. The key is rebuilt
    with key_from_factors, keeping the file's alpha when it is a nontrivial
    root of 1, and every other field is checked by that comparison. Raises
    KeyFileError naming the first line at fault.
    """
    lines = _file_lines(text)
    mode = next((m for m in KeyMode if lines[0] == f"mode={m.value}"), None)
    if mode is None:
        raise KeyFileError(f"expected mode=<key mode>, got {reprlib.repr(lines[0])}", line=1)
    n = _decimal_field(lines, 1, "n")
    if n < 2:
        raise KeyFileError(f"modulus {n} out of range", line=2)
    if len(lines) == 2:
        return KeyMaterial(mode=mode, n=n)

    fields = _MODES[mode].private_fields
    factors = [_decimal_field(lines, 2 + i, f) for i, f in enumerate(fields) if f in ("p", "q")]
    try:
        key = key_from_factors(mode, *(factors or [n]))
    except (ValueError, KeyGenerationError) as exc:
        # name the p= line, or n= in prime mode where n is the factor
        raise KeyFileError(f"invalid key material: {exc}", line=3 if factors else 2) from exc
    # The agreed alpha need not be the smallest nontrivial root; keep the file's choice.
    agreed = dict(zip(fields, lines[2:])).get("alpha")
    key = next(
        (replace(key, alpha=u) for u in key.roots.nontrivial() if agreed == f"alpha={u}"), key
    )
    _require_lines(lines, serialize_key(key))
    return key
