"""Key generation and the line-oriented key file format.

A key fixes the modulus and which transformation applies:

* CUBIC3_PRIME      n = p prime, 3 | p-1 but 9 does not divide p-1, p = 3 mod 4
* CUBIC3_COMPOSITE  n = p*q, phi(n) divisible by 3 but not 9
* CUBIC9_COMPOSITE  n = p*q, phi(n) divisible by 9 (nine cube roots of 1)
* SQUARE_COMPOSITE  n = p*q, squaring transformation with four unity roots

Both communicating parties hold the factors; the private key file carries
them, the ``.pub`` variant only the mode and modulus.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from .errors import KeyFileError, KeyGenerationError, PrivateKeyRequiredError
from .modular import is_probable_prime
from .roots import (
    UnityRootSet,
    cube_roots_of_unity_composite,
    cube_roots_of_unity_prime,
    square_roots_of_unity_composite,
)

_MAX_PRIME_TRIES_PER_BIT = 256


class KeyMode(enum.Enum):
    CUBIC3_PRIME = "CUBIC3_PRIME"
    CUBIC3_COMPOSITE = "CUBIC3_COMPOSITE"
    CUBIC9_COMPOSITE = "CUBIC9_COMPOSITE"
    SQUARE_COMPOSITE = "SQUARE_COMPOSITE"

    @property
    def exponent(self) -> int:
        """Public transformation exponent: cube or square."""
        return 2 if self is KeyMode.SQUARE_COMPOSITE else 3


@dataclass(frozen=True)
class KeyMaterial:
    """A key, possibly public-only (factors, totient, and roots absent)."""

    mode: KeyMode
    n: int
    p: int | None = None
    q: int | None = None
    phi: int | None = None
    alpha: int | None = None
    unity_roots: UnityRootSet | None = field(default=None, repr=False)

    @property
    def has_private(self) -> bool:
        return self.phi is not None

    @property
    def roots(self) -> UnityRootSet:
        if self.unity_roots is None:
            raise PrivateKeyRequiredError(
                "operation needs the private key (unity roots are derived from the factors)"
            )
        return self.unity_roots

    @property
    def root_count(self) -> int:
        return len(self.roots)

    def public(self) -> "KeyMaterial":
        """Strip everything but the mode and modulus."""
        return KeyMaterial(mode=self.mode, n=self.n)


def _require_prime(value: int) -> None:
    if value < 2 or not is_probable_prime(value):
        raise ValueError(f"{value} is not prime")


def _require_odd_distinct(p: int, q: int) -> None:
    _require_prime(p)
    _require_prime(q)
    if p == 2 or q == 2:
        raise ValueError("factors must be odd primes")
    if p == q:
        raise ValueError("factors must be distinct")


def key_from_factors(mode: KeyMode, p: int, q: int | None = None) -> KeyMaterial:
    """Assemble full key material from explicit factors, checking the mode's
    divisibility constraints."""
    if mode is KeyMode.CUBIC3_PRIME:
        if q is not None:
            raise ValueError("prime mode takes a single factor")
        _require_prime(p)
        phi = p - 1
        if p % 3 != 1 or phi % 9 == 0:
            raise KeyGenerationError(
                f"prime mode needs 3 | p-1 and 9 does not divide p-1; p={p} fails"
            )
        if p % 4 != 3:
            raise KeyGenerationError(f"prime mode needs p = 3 mod 4; p={p} fails")
        root_set = cube_roots_of_unity_prime(p)
        return KeyMaterial(
            mode=mode, n=p, p=p, q=None, phi=phi,
            alpha=root_set.smallest_nontrivial, unity_roots=root_set,
        )
    if q is None:
        raise ValueError(f"{mode.value} needs two factors")
    _require_odd_distinct(p, q)
    phi = (p - 1) * (q - 1)
    if mode is KeyMode.CUBIC3_COMPOSITE:
        if phi % 9 not in (3, 6):
            raise KeyGenerationError(
                f"phi={phi} must be divisible by 3 but not 9 for {mode.value}"
            )
        root_set = cube_roots_of_unity_composite(p, q)
    elif mode is KeyMode.CUBIC9_COMPOSITE:
        if phi % 9 != 0:
            raise KeyGenerationError(f"phi={phi} must be divisible by 9 for {mode.value}")
        root_set = cube_roots_of_unity_composite(p, q)
    elif mode is KeyMode.SQUARE_COMPOSITE:
        root_set = square_roots_of_unity_composite(p, q)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    alpha = None if mode is KeyMode.SQUARE_COMPOSITE else root_set.smallest_nontrivial
    return KeyMaterial(
        mode=mode, n=p * q, p=p, q=q, phi=phi, alpha=alpha, unity_roots=root_set,
    )


def _random_prime(rng: random.Random, bits: int, accept) -> int:
    """Random prime of exactly `bits` bits satisfying `accept(p)`."""
    for _ in range(_MAX_PRIME_TRIES_PER_BIT * bits):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if accept(candidate) and is_probable_prime(candidate, rng=rng):
            return candidate
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
        raise ValueError("q given without p")
    if bits < 8:
        raise ValueError(f"bits must be >= 8, got {bits}")
    rng = random.Random(seed)

    if mode is KeyMode.CUBIC3_PRIME:
        prime = _random_prime(
            rng, bits,
            lambda c: c % 3 == 1 and c % 4 == 3 and (c - 1) % 9 != 0,
        )
        return key_from_factors(mode, prime)

    p_bits = bits // 2
    q_bits = bits - p_bits
    if mode is KeyMode.CUBIC3_COMPOSITE:
        # Exactly one factor contributes the 3: 3 || p-1, and q-1 avoids 3.
        fp = _random_prime(rng, p_bits, lambda c: c % 9 in (4, 7))
        fq = _random_prime(rng, q_bits, lambda c: c % 3 == 2 and c != fp)
    elif mode is KeyMode.CUBIC9_COMPOSITE:
        # 3 | p-1 for both factors gives nine unity roots; the search keeps
        # to 3 || p-1 (9 never divides p-1), the shape keys have always had.
        fp = _random_prime(rng, p_bits, lambda c: c % 9 in (4, 7))
        fq = _random_prime(rng, q_bits, lambda c: c % 9 in (4, 7) and c != fp)
    elif mode is KeyMode.SQUARE_COMPOSITE:
        fp = _random_prime(rng, p_bits, lambda c: True)
        fq = _random_prime(rng, q_bits, lambda c: c != fp)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return key_from_factors(mode, fp, fq)


# Key file format: LF-terminated "field=decimal" lines in fixed order.
# Public section: mode, n. Private section by mode:
#   CUBIC3_PRIME      phi, alpha      (p is implied: n itself)
#   CUBIC3/9_COMPOSITE  p, q, phi, alpha
#   SQUARE_COMPOSITE  p, q, phi
def _private_fields(mode: KeyMode) -> tuple[str, ...]:
    if mode is KeyMode.CUBIC3_PRIME:
        return ("phi", "alpha")
    if mode is KeyMode.SQUARE_COMPOSITE:
        return ("p", "q", "phi")
    return ("p", "q", "phi", "alpha")


def serialize_key(key: KeyMaterial, include_private: bool = True) -> str:
    """Render a key file; with include_private=False only mode and n."""
    lines = [f"mode={key.mode.value}", f"n={key.n}"]
    if include_private and key.has_private:
        for name in _private_fields(key.mode):
            lines.append(f"{name}={getattr(key, name)}")
    return "".join(line + "\n" for line in lines)


def parse_key(text: str) -> KeyMaterial:
    """Parse a key file, re-deriving and validating the private material.

    Raises KeyFileError (with the line number) on any malformation.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines == [""]:
        raise KeyFileError("empty key file")

    def take(idx: int, name: str) -> int:
        if idx >= len(lines):
            raise KeyFileError(f"missing {name}= line", line=idx + 1)
        prefix = name + "="
        if not lines[idx].startswith(prefix):
            raise KeyFileError(f"expected {name}=<decimal>, got {lines[idx]!r}", line=idx + 1)
        value = lines[idx][len(prefix):]
        if not (value.isascii() and value.isdigit()):
            raise KeyFileError(f"{name} is not a decimal integer: {value!r}", line=idx + 1)
        return int(value)

    if not lines[0].startswith("mode="):
        raise KeyFileError(f"expected mode=<...>, got {lines[0]!r}", line=1)
    mode_string = lines[0][len("mode="):]
    try:
        mode = KeyMode(mode_string)
    except ValueError:
        raise KeyFileError(f"unknown mode {mode_string!r}", line=1) from None
    n = take(1, "n")
    if n < 2:
        raise KeyFileError(f"modulus {n} out of range", line=2)

    if len(lines) == 2:
        return KeyMaterial(mode=mode, n=n)

    fields = _private_fields(mode)
    if len(lines) != 2 + len(fields):
        raise KeyFileError(
            f"expected {2 + len(fields)} lines for a private {mode.value} key, got {len(lines)}",
            line=len(lines),
        )
    values = {name: take(2 + i, name) for i, name in enumerate(fields)}

    if mode is KeyMode.CUBIC3_PRIME:
        fp, fq = n, None
    else:
        fp, fq = values["p"], values["q"]
        if fp * fq != n:
            raise KeyFileError(f"p*q = {fp * fq} does not match n = {n}", line=3)
    try:
        key = key_from_factors(mode, fp, fq)
    except (ValueError, KeyGenerationError) as exc:
        raise KeyFileError(f"invalid key material: {exc}") from exc
    if values["phi"] != key.phi:
        raise KeyFileError(
            f"phi = {values['phi']} does not match the factors",
            line=3 + fields.index("phi"),
        )
    if "alpha" in values:
        alpha = values["alpha"]
        if alpha <= 1 or alpha >= n or pow(alpha, 3, n) != 1:
            raise KeyFileError(
                f"alpha = {alpha} is not a nontrivial cube root of 1 mod n",
                line=3 + fields.index("alpha"),
            )
        if alpha != key.alpha:
            # The agreed root neednot be the smallest; keep the file's choice.
            key = KeyMaterial(
                mode=key.mode, n=key.n, p=key.p, q=key.q, phi=key.phi,
                alpha=alpha, unity_roots=key.unity_roots,
            )
    return key
