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
from .roots import UnityRootSet, _require_odd_prime, _unity_roots

__all__ = [
    "KeyMaterial", "KeyMode", "generate_key", "key_from_factors", "parse_key", "serialize_key",
]

_MAX_PRIME_TRIES_PER_BIT = 256

# Canonical ASCII decimal: no sign, no leading zero, at most 4300 digits (Python's default
# int/str limit), so below _DECIMAL_BOUND. The longest file is six lines of alpha=<4300 digits>.
_MAX_DIGITS = 4300
_DECIMAL_BOUND = 10**_MAX_DIGITS
_DECIMAL = re.compile(rf"0|[1-9][0-9]{{0,{_MAX_DIGITS - 1}}}")
_MAX_FILE_CHARS = 6 * (len("alpha=") + _MAX_DIGITS + 1)


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
# factors with 9 | p-1 are accepted. A prime-mode file's one factor is n, so it
# carries no p= or q= line.
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
        """The k-th roots of 1 mod n, reached like every private part through ``factors``."""
        self.factors  # the one gate: a public key raises PrivateKeyRequiredError here
        return self.unity_roots

    def public(self) -> "KeyMaterial":
        """Strip everything but the mode and modulus."""
        return KeyMaterial(mode=self.mode, n=self.n)


def key_from_factors(mode: KeyMode, p: int, q: int | None = None) -> KeyMaterial:
    """Assemble full key material from explicit factors, checking cheapest first:
    the factor count, distinctness, each factor's primality, the mode's constraint.

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
    if p == q:
        raise InvalidArgumentError("factors must be distinct")
    for factor in factors:
        _require_odd_prime(factor)
    factors = tuple(map(_ProvenPrime, factors))
    p, q = factors if len(factors) == 2 else (factors[0], None)
    phi = math.prod(f - 1 for f in factors)
    if not spec.constraint(p, phi):
        raise KeyGenerationError(f"{mode.value} needs {spec.requirement}; p={p}, phi={phi} fails")
    root_set = _unity_roots(spec.exponent, factors)
    alpha = root_set.roots[1] if "alpha" in spec.private_fields else None
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
    if len(text) > _MAX_FILE_CHARS:
        raise KeyFileError(f"file longer than {_MAX_FILE_CHARS} characters",
                           line=text.count("\n", 0, _MAX_FILE_CHARS) + 1)
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


def _decimal_lines(fields: dict[str, int]) -> str:
    """`name=value` lines, refusing a value that is no canonical decimal of the formats."""
    if any(not 0 <= value < _DECIMAL_BOUND for value in fields.values()):
        raise InvalidArgumentError(f"file values must be decimals of at most {_MAX_DIGITS} digits")
    return "".join(f"{name}={value}\n" for name, value in fields.items())


def serialize_key(key: KeyMaterial) -> str:
    """Render a key file; a public key (``key.public()``) gives only mode and n."""
    names = ("n", *_MODES[key.mode].private_fields) if key.has_private else ("n",)
    return f"mode={key.mode.value}\n" + _decimal_lines({f: getattr(key, f) for f in names})


def parse_key(text: str) -> KeyMaterial:
    """Parse a key file: two lines (mode, n) for a public key, else a private
    file that must read exactly as serialize_key writes the key its factors give.

    Only mode, n, the factors and alpha are read; the factors are p= and q= (lines 3 and
    4), or n= (line 2) in prime mode, the one-factor case. n is compared with their product
    before any primality test, then key_from_factors rebuilds the key, keeping the file's
    alpha when it is a nontrivial root of 1. KeyFileError names the first line at fault; for
    invalid factors, that of the factor a primality check refused, else the first factor's.
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

    spec = _MODES[mode]  # the factors: the last of the n, p, q lines, one per factor
    names = ("mode", "n", *spec.private_fields)
    at = [i for i, name in enumerate(names) if name in ("n", "p", "q")][-len(spec.shapes):]
    factors = [_decimal_field(lines, i, names[i]) for i in at]
    try:  # a product too long for the n= line fails here, as invalid key material
        _require_lines(lines[:2], serialize_key(KeyMaterial(mode, math.prod(factors))))
        key = key_from_factors(mode, *factors)
    except (ValueError, KeyGenerationError) as exc:
        refused = (i for i, f in zip(at, factors) if str(exc) == f"{f} is not an odd prime")
        raise KeyFileError(f"invalid key material: {exc}", line=next(refused, at[0]) + 1) from exc
    # The agreed alpha need not be the smallest nontrivial root; keep the file's choice.
    agreed = dict(zip(names, lines)).get("alpha")
    key = next(
        (replace(key, alpha=u) for u in key.roots.nontrivial() if agreed == f"alpha={u}"), key
    )
    _require_lines(lines, serialize_key(key))
    return key
