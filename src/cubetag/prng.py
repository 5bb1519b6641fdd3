"""Pseudorandom generation by iterated cubing modulo n.

The state evolves as s -> s**3 mod n with n = p*q and nine cube roots of 1
(3 divides both p-1 and q-1), so every state has nine cube-root preimages
and inverting a step is as hard as the nine-root decryption problem. Output
digits are the state reduced to a caller-chosen radix (2 for bits); the key
holder steps modulo p and q and joins each state by Garner's CRT.

Small moduli cycle quickly (mod 91 the state enters the (8, 57) cycle); that
is fine for testing and inherent to desk-scale parameters. Seeds equal to a
root of unity are permitted but produce constant streams.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidArgumentError, _require_int, _show

__all__ = ["PrngState", "digit_stream", "pack_bits_hex", "prng_init", "prng_next"]


class PrngState(NamedTuple):
    n: int
    s: int


def prng_init(key, seed: int) -> PrngState:
    """Start a generator at seed s0; requires a private key with nine cube
    roots of 1 (so 9 | phi; PrivateKeyRequiredError for a public key) and
    gcd(s0, n) = 1 with 1 < s0 < n."""
    if len(key.roots) != 9:
        raise InvalidArgumentError("generator needs a private key with nine cube roots of 1")
    n = key.n
    if not 1 < _require_int("seed", seed) < n:
        raise InvalidArgumentError(f"seed must be in (1, {_show(n)}), got {_show(seed)}")
    if math.gcd(seed, n) != 1:
        raise InvalidArgumentError(f"seed {_show(seed)} shares a factor with the modulus")
    return PrngState(n=n, s=seed)


def prng_next(state: PrngState) -> tuple[PrngState, int]:
    """Advance one step; returns the new state and its value s' = s**3 mod n."""
    n, s = state
    n, s = _require_int("n", n), _require_int("s", s)
    if n < 2:
        raise InvalidArgumentError(f"modulus must be >= 2, got {_show(n)}")
    s = pow(s, 3, n)
    return PrngState(n=n, s=s), s


def digit_stream(key, seed: int, radix: int, count: int) -> list[int]:
    """First `count` output digits for (key, seed, radix): prng_next's states mod radix, the
    seed never emitted. Each step cubes a = s mod p and b = s mod q, and the digit is Garner's
    s = b + q*((a - b)*(q^-1 mod p) mod p) reduced mod radix, s itself never formed: _garner's
    two-factor case written out, since its general loop makes a 2048-bit digit ~20% slower."""
    seed, radix, count = map(_require_int, ("seed", "radix", "count"), (seed, radix, count))
    if count < 0:
        raise InvalidArgumentError(f"count must be >= 0, got {_show(count)}")
    n = prng_init(key, seed).n
    if not 2 <= radix < n:
        raise InvalidArgumentError(f"radix must be in [2, {_show(n)}), got {_show(radix)}")
    p, q = key.factors
    q_inv, q_radix = key._record[1][0], q % radix
    a = b = seed
    digits = []
    for _ in range(count):
        a, b = pow(a, 3, p), pow(b, 3, q)
        digits.append((b + q_radix * ((a - b) * q_inv % p)) % radix)
    return digits


def pack_bits_hex(bits: list[int]) -> str:
    """Pack a sequence of bits MSB-first into lowercase hex, zero-padding the
    tail nibble."""
    if any(_require_int("bit", b) not in (0, 1) for b in bits):
        raise InvalidArgumentError("bit stream must contain only 0 and 1")
    padded = [*bits, 0, 0, 0]
    nibbles = (padded[i:i + 4] for i in range(0, len(bits), 4))
    return "".join(format(8 * a + 4 * b + 2 * c + d, "x") for a, b, c, d in nibbles)
