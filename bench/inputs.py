"""Seeded benchmark inputs, built with the standard library only.

Keys are made here from mode-constrained primes rather than with
``cubetag.generate_key``, so a change to the package's key generation never
changes another workload's inputs. The key file text follows the package's
documented line format.
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path

MODES = ("CUBIC3_PRIME", "CUBIC3_COMPOSITE", "CUBIC9_COMPOSITE", "SQUARE_COMPOSITE")

# Product of the odd primes below 2000: one gcd discards most composites
# before any modular exponentiation.
_SIEVE_LIMIT = 2000
_SMALL_ODD_PRIMES = [
    p for p in range(3, _SIEVE_LIMIT, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))
]
_PRIMORIAL = math.prod(_SMALL_ODD_PRIMES)
_MR_ROUNDS = 24


def is_prime(n: int, rng: random.Random) -> bool:
    """Trial division by small primes, then Miller-Rabin with random bases."""
    if n < _SIEVE_LIMIT:
        return n == 2 or (n > 2 and n % 2 == 1 and n in _SMALL_ODD_PRIMES)
    if n % 2 == 0 or math.gcd(n, _PRIMORIAL) != 1:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(_MR_ROUNDS):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(rng: random.Random, bits: int, residues: tuple[int, ...]) -> int:
    """Random `bits`-bit prime whose residue mod 72 is one of `residues`.

    Mod 72 fixes the mod-9 class (which powers of 3 divide p-1) and the
    mod-8 class (which powers of 2 do), which is all the key modes and the
    square-root paths depend on.
    """
    while True:
        base = rng.getrandbits(bits) | (1 << (bits - 1))
        candidate = base - base % 72 + rng.choice(residues)
        if candidate.bit_length() == bits and is_prime(candidate, rng):
            return candidate


# p mod 72 classes: 3 || p-1 means p = 4 or 7 mod 9; 3 does not divide p-1
# means p = 2 mod 3; prime mode also needs p = 3 mod 4.
_ODD = tuple(r for r in range(72) if r % 2 == 1 and r % 3 != 0)
_THREE_EXACT = tuple(r for r in _ODD if r % 9 in (4, 7))
_NO_THREE = tuple(r for r in _ODD if r % 3 == 2)
_PRIME_MODE = tuple(r for r in _THREE_EXACT if r % 4 == 3)
# Square keys take one factor down each square-root path, so every key set
# costs the same: p = 5 mod 8 (4 exactly divides p-1) goes through
# Tonelli-Shanks, q = 3 mod 4 through the (q+1)/4 exponent.
_SQUARE_P = tuple(r for r in _ODD if r % 8 == 5)
_SQUARE_Q = tuple(r for r in _ODD if r % 4 == 3)


def factors_for(mode: str, bits: int, rng: random.Random) -> tuple[int, int | None]:
    """Prime factors of a `bits`-bit modulus for `mode`."""
    if mode == "CUBIC3_PRIME":
        return _prime(rng, bits, _PRIME_MODE), None
    half = bits // 2
    while True:
        if mode == "CUBIC3_COMPOSITE":
            p, q = _prime(rng, half, _THREE_EXACT), _prime(rng, bits - half, _NO_THREE)
        elif mode == "CUBIC9_COMPOSITE":
            p, q = _prime(rng, half, _THREE_EXACT), _prime(rng, bits - half, _THREE_EXACT)
        else:
            p, q = _prime(rng, half, _SQUARE_P), _prime(rng, bits - half, _SQUARE_Q)
        if p != q and (p * q).bit_length() == bits:
            return p, q


def unity_roots(order: int, p: int, q: int | None) -> list[int]:
    """Ascending order-th roots of 1 modulo p or p*q (order 2 or 3)."""
    per_prime = []
    for f in (p,) if q is None else (p, q):
        if order == 2:
            per_prime.append((1, f - 1))
        elif (f - 1) % 3:
            per_prime.append((1,))
        else:
            g = 2
            while pow(g, (f - 1) // 3, f) == 1:
                g += 1
            w = pow(g, (f - 1) // 3, f)
            per_prime.append((1, w, w * w % f))
    if q is None:
        return sorted(per_prime[0])
    q_inv = pow(q, -1, p)
    return sorted(
        (rq + q * ((rp - rq) * q_inv % p)) for rp in per_prime[0] for rq in per_prime[1]
    )


class Key:
    """A benchmark key: the factors, the values the key file holds, and the
    reference unity roots the checks use."""

    def __init__(self, mode: str, p: int, q: int | None):
        self.mode, self.p, self.q = mode, p, q
        self.n = p if q is None else p * q
        self.phi = p - 1 if q is None else (p - 1) * (q - 1)
        self.exponent = 2 if mode == "SQUARE_COMPOSITE" else 3
        self.roots = unity_roots(self.exponent, p, q)

    def text(self) -> str:
        """The private key file, in the package's line format."""
        if self.mode == "CUBIC3_PRIME":
            fields = [("phi", self.phi), ("alpha", self.roots[1])]
        elif self.mode == "SQUARE_COMPOSITE":
            fields = [("p", self.p), ("q", self.q), ("phi", self.phi)]
        else:
            fields = [("p", self.p), ("q", self.q), ("phi", self.phi), ("alpha", self.roots[1])]
        lines = [f"mode={self.mode}", f"n={self.n}"] + [f"{k}={v}" for k, v in fields]
        return "".join(line + "\n" for line in lines)


def key_set(bits: int, rng: random.Random) -> dict[str, Key]:
    """One `bits`-bit key per mode."""
    return {mode: Key(mode, *factors_for(mode, bits, rng)) for mode in MODES}


# A 2048-bit prime search takes seconds, so seeds share a small pool of key
# sets, each generated once per checkout and kept as factors on disk.
KEY_POOL = 4


def pooled_key_set(bits: int, seed: int, cache_dir: Path) -> dict[str, Key]:
    """The key set of pool entry seed mod KEY_POOL, from cache when present."""
    entry = seed % KEY_POOL
    path = cache_dir / f"keys-{bits}-{entry}.json"
    try:
        factors = json.loads(path.read_text())
        return {mode: Key(mode, *factors[mode]) for mode in MODES}
    except (OSError, ValueError, KeyError, TypeError):
        pass
    keys = key_set(bits, random.Random(f"keys-{bits}-{entry}"))
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({mode: [k.p, k.q] for mode, k in keys.items()}))
    os.replace(tmp, path)
    return keys


def coprime_below(n: int, rng: random.Random) -> int:
    """Uniform message in [2, n) coprime to n."""
    while True:
        m = rng.randrange(2, n)
        if math.gcd(m, n) == 1:
            return m


def desk_specs(limit: int) -> list[tuple[str, int, int | None]]:
    """Every valid (mode, p, q) with modulus below `limit`, in the order the
    slow desk-scale sweep test enumerates them."""
    primes = [2] + [p for p in range(3, limit, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
    odd = primes[1:]
    specs: list[tuple[str, int, int | None]] = [
        ("CUBIC3_PRIME", p, None)
        for p in primes
        if p % 3 == 1 and p % 4 == 3 and (p - 1) % 9 != 0
    ]
    for i, p in enumerate(odd):
        if p * p >= limit:
            break
        for q in odd[i + 1:]:
            if p * q >= limit:
                break
            phi = (p - 1) * (q - 1)
            if phi % 3 == 0:
                mode = "CUBIC9_COMPOSITE" if phi % 9 == 0 else "CUBIC3_COMPOSITE"
                specs.append((mode, p, q))
            specs.append(("SQUARE_COMPOSITE", p, q))
    return specs
