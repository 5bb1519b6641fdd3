"""Reference results every benchmark op is checked against.

Built from builtin arithmetic and the benchmark's own keys only, so no
check shares a code path with the package under test.
"""

from __future__ import annotations

import random

from inputs import Key, is_prime

_ROOT_COUNT = {"CUBIC3_PRIME": 3, "CUBIC3_COMPOSITE": 3, "CUBIC9_COMPOSITE": 9, "SQUARE_COMPOSITE": 4}


def ciphertext_text(m: int, key: Key) -> str:
    """The ciphertext file for m: c = m**k mod n and the tag, m's 1-based
    rank among its companions."""
    companions = sorted(m * u % key.n for u in key.roots)
    return f"c={pow(m, key.exponent, key.n)}\ntag={companions.index(m) + 1}\n"


def digits(n: int, seed: int, radix: int, count: int) -> list[int]:
    """Iterated cubing: s <- s**3 mod n, emitting s mod radix."""
    out = []
    s = seed
    for _ in range(count):
        s = pow(s, 3, n)
        out.append(s % radix)
    return out


def bits_hex(bits: list[int]) -> str:
    """Pack bits MSB-first into lowercase hex, zero-padding the last nibble."""
    padded = bits + [0] * (-len(bits) % 4)
    return "".join(
        "%x" % (padded[i] * 8 + padded[i + 1] * 4 + padded[i + 2] * 2 + padded[i + 3])
        for i in range(0, len(padded), 4)
    )


def game_ok(m: int, n: int, alice: int, bob: int, c: int, recovered: int, success: bool) -> bool:
    """A round is right when c = m**3, success means matching choices, and a
    matching pair recovers the message."""
    if c != pow(m, 3, n) or success != (alice == bob):
        return False
    return recovered == m if alice == bob else 1 <= recovered < n


def roots_ok(roots: list[int], key: Key) -> bool:
    """The listed values are the mode's count of distinct unity roots."""
    return (
        len(roots) == _ROOT_COUNT[key.mode]
        and len(set(roots)) == len(roots)
        and all(pow(r, key.exponent, key.n) == 1 for r in roots)
    )


def key_file_ok(text: str, mode: str, bits: int) -> bool:
    """A generated private key file names `mode`, has a modulus of about
    `bits` bits, and its factors are primes meeting the mode's constraints."""
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    if fields.get("mode") != mode:
        return False
    n = int(fields["n"])
    if n.bit_length() not in (bits - 1, bits):
        return False
    rng = random.Random(n)
    if mode == "CUBIC3_PRIME":
        p = n
        return (
            is_prime(p, rng) and int(fields["phi"]) == p - 1
            and p % 3 == 1 and (p - 1) % 9 != 0 and p % 4 == 3
        )
    p, q = int(fields["p"]), int(fields["q"])
    phi = (p - 1) * (q - 1)
    if p * q != n or p == q or int(fields["phi"]) != phi:
        return False
    if not (is_prime(p, rng) and is_prime(q, rng)):
        return False
    if mode == "CUBIC3_COMPOSITE":
        return phi % 3 == 0 and phi % 9 != 0
    if mode == "CUBIC9_COMPOSITE":
        return phi % 9 == 0
    return True
