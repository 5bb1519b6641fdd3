"""Rank-tagged encryption by cubing or squaring modulo n.

Cubing (or squaring) maps several messages to one ciphertext; the preimages
of c = m**k differ from m exactly by a k-th root of unity. The sender
therefore publishes, next to c, the 1-based rank of m inside the ascending
sorted companion set {m*u mod n : u a root of 1}. The receiver recovers any
one root of c, rebuilds the same companion set from it, and picks the
tagged element.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidArgumentError, InvalidCiphertextError, InvalidMessageError, _show
from .formats import decimal_field, decimal_lines, file_lines, require_lines
from .modular import _garner, _kth_root

__all__ = [
    "TaggedCiphertext", "companion_table", "cube_root_by_exponent", "decrypt",
    "decrypt_candidates", "encrypt", "parse_ciphertext",
    "serialize_ciphertext",
]

# Largest modulus companion_table will sweep; the table is exhaustive by design.
_TABLE_LIMIT = 1_000_000


class TaggedCiphertext(NamedTuple):
    c: int
    tag: int


def _companions(value: int, key) -> list[int]:
    n = key.n
    return sorted(value * u % n for u in key.roots)


def _require_ciphertext(c: int, key) -> None:
    """A ciphertext has a unique tagged preimage only as an int in [1, n) and coprime to n."""
    n = key.n
    if not isinstance(c, int) or not 1 <= c < n or math.gcd(c, n) != 1:
        raise InvalidCiphertextError(
            f"ciphertext must be in [1, {_show(n)}) and coprime to n, got {_show(c)}")


def encrypt(m: int, key) -> TaggedCiphertext:
    """Encrypt m as (m**k mod n, rank of m among its companions).

    m must lie in [1, n) and be coprime to n; a shared factor is rejected
    because transmitting its cube would hand an eavesdropper a factor of n.
    """
    n = key.n
    if not isinstance(m, int) or not 1 <= m < n:
        raise InvalidMessageError(f"message must be in [1, {_show(n)}), got {_show(m)}")
    g = math.gcd(m, n)
    if g != 1:
        raise InvalidMessageError(f"message {_show(m)} shares a factor with the modulus", factor=g)
    companions = _companions(m, key)
    tag = companions.index(m) + 1
    return TaggedCiphertext(c=pow(m, key.mode.exponent, n), tag=tag)


def cube_root_by_exponent(c: int, key) -> int:
    """One cube root of c via a single modular exponentiation.

    Only possible when 9 does not divide phi(n): the exponent is
    3^-1 mod phi/3, i.e. (phi+3)/9 for phi = 6 mod 9 and (2*phi+3)/9 for
    phi = 3 mod 9. Decryption does not use it (see decrypt_candidates).
    """
    _require_ciphertext(c, key)
    phi, n = key.phi, key.n
    if key.mode.exponent != 3 or phi % 9 not in (3, 6):
        raise InvalidArgumentError(f"exponent inversion needs cubing with 3 || phi, "
                                   f"got phi = {_show(phi)}")
    root = pow(c, pow(3, -1, phi // 3), n)
    if pow(root, 3, n) != c:
        raise InvalidCiphertextError(f"{_show(c)} is not a cubic residue mod {_show(n)}")
    return root


def decrypt_candidates(c: int, key) -> list[int]:
    """The full ascending preimage set of c: every x with x**k = c mod n, k the key's exponent.

    One k-th root modulo each prime factor, joined by CRT (a prime modulus is the one-factor
    case), and its companions. Raises InvalidCiphertextError unless c is an int in [1, n),
    coprime to n and a k-th residue, and PrivateKeyRequiredError for a public key.
    """
    _require_ciphertext(c, key)
    factors, (unity, inverses), k = key.factors, key._record, key.mode.exponent
    roots = [_kth_root(c, f, k, u) for f, u in zip(factors, unity)]
    return _companions(_garner(roots, factors, inverses), key)


def decrypt(ct: TaggedCiphertext, key) -> int:
    """Invert a tagged ciphertext: recover one root, list its companions in
    ascending order, return the tag-th one."""
    c, tag = ct
    expected = len(key.roots)
    if not isinstance(tag, int) or not 1 <= tag <= expected:
        raise InvalidCiphertextError(f"tag {_show(tag)} outside [1, {expected}]")
    return decrypt_candidates(c, key)[tag - 1]


def serialize_ciphertext(ct: TaggedCiphertext) -> str:
    c, tag = ct
    return decimal_lines({"c": c, "tag": tag})


def parse_ciphertext(text: str, mode) -> TaggedCiphertext:
    """Parse a file that reads exactly as serialize_ciphertext writes it, else KeyFileError names
    the first line at fault. `mode` is checked and not used; it stays while bench/workloads.py
    passes it (ROADMAP items 1 and 4)."""
    from .keys import KeyMode  # here, so importing this module loads no key module
    if not isinstance(mode, KeyMode):
        raise InvalidArgumentError(f"mode must be a KeyMode, got {_show(mode)}")
    lines = file_lines(text)
    ct = TaggedCiphertext(decimal_field(lines, 0, "c"), decimal_field(lines, 1, "tag"))
    require_lines(lines, serialize_ciphertext(ct))
    return ct


def companion_table(key):
    """Yield (companions, c) rows covering every message coprime to n,
    ordered by each companion set's smallest member.

    Refuses moduli above _TABLE_LIMIT; the sweep is exhaustive by design.
    """
    n = key.n
    if n > _TABLE_LIMIT:
        raise InvalidArgumentError(f"modulus {_show(n)} too large for an exhaustive table "
                                   f"(limit {_TABLE_LIMIT})")
    k = key.mode.exponent
    seen = bytearray(n)
    for m in range(1, n):
        if seen[m] or math.gcd(m, n) != 1:
            continue
        companions = _companions(m, key)
        for value in companions:
            seen[value] = 1
        yield companions, pow(m, k, n)
