"""Roots of unity modulo primes and two-factor composites.

The cipher's companion sets are built from the k-th roots of 1 (k = 2 or 3):
mod a prime, the powers of one primitive root of unity (no square root is
taken); mod p*q, every pair of per-prime roots joined by CRT. Root sets are
always returned in ascending order, which is the shared canonical ordering
the rank tags rely on; the set sizes that occur here are 1 or 3 modulo a
prime and 1, 3, 4 or 9 modulo p*q. ``_unity_roots`` is the one place a
key's exponent and factor count pick the routine that builds its roots.
"""

from __future__ import annotations

import math

from .errors import InvalidArgumentError, _show
from .modular import _ProvenPrime, _primitive_unity_root, crt_combine, is_probable_prime

__all__ = ["cube_roots_of_unity_composite", "cube_roots_of_unity_prime",
           "square_roots_of_unity_composite"]


class UnityRootSet:
    """The roots of 1 mod `modulus`, ascending from 1. Package-internal and built only by
    the routines below, so never re-checked: the tests hold its invariants."""

    __slots__ = ("modulus", "roots")

    def __init__(self, modulus: int, roots: tuple[int, ...]):
        self.modulus, self.roots = modulus, roots

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def _require_odd_prime(p: int) -> _ProvenPrime:
    if p < 3 or p % 2 == 0 or not is_probable_prime(p):
        raise InvalidArgumentError(f"{_show(p)} is not an odd prime")
    return _ProvenPrime(p)  # so a later guard accepts p untested


def _garner_product(p: int, q: int, roots_p: tuple, roots_q: tuple) -> UnityRootSet:
    """The roots of 1 mod p*q: every pair of per-prime roots, joined by CRT."""
    combined = sorted(crt_combine(rp, rq, p, q) for rp in roots_p for rq in roots_q)
    return UnityRootSet(p * q, tuple(combined))


def cube_roots_of_unity_prime(p: int) -> UnityRootSet:
    """All solutions of x**3 = 1 mod p, which must be an odd prime (tested).

    For p = 2 mod 3 (and p = 3) cubing is a bijection and {1} is returned.
    For p = 1 mod 3 they are 1, z, z**2 for z = g**((p-1)/3), a primitive
    cube root of 1 (g the least cubic non-residue); no square root is taken.
    """
    _require_odd_prime(p)
    if p % 3 != 1:
        return UnityRootSet(p, (1,))
    _, z = _primitive_unity_root(p, 3, 1, (p - 1) // 3)
    return UnityRootSet(p, tuple(sorted((1, z, z * z % p))))


def cube_roots_of_unity_composite(p: int, q: int) -> UnityRootSet:
    """Cube roots of 1 mod p*q, one per pair of per-prime roots: 1, 3 or 9 of them."""
    p, q = _require_odd_prime(p), _require_odd_prime(q)
    return _garner_product(p, q, *(cube_roots_of_unity_prime(f).roots for f in (p, q)))


def square_roots_of_unity_composite(p: int, q: int) -> UnityRootSet:
    """The four solutions of x**2 = 1 mod p*q for distinct odd primes p, q."""
    _require_odd_prime(p)
    _require_odd_prime(q)
    return _garner_product(p, q, (1, p - 1), (1, q - 1))


def _unity_roots(order: int, factors: tuple[int, ...], alpha=None) -> UnityRootSet:
    """A key's roots of 1: cube roots mod one prime, or roots of this order mod p*q.

    Where the factors give exactly three cube roots of 1, a nontrivial one `alpha` (a key file's)
    certifies them as 1, alpha, alpha**2 with no search. The routines are looked up as module
    globals at call time, so a wrapper installed on them sees every call made through here.
    """
    if order == 3 and isinstance(alpha, int) and sum(f % 3 == 1 for f in factors) == 1:
        n = math.prod(factors)
        if 1 < alpha < n and (square := alpha * alpha % n) * alpha % n == 1:
            return UnityRootSet(n, tuple(sorted((1, alpha, square))))
    if len(factors) == 1:
        return cube_roots_of_unity_prime(*factors)
    derive = square_roots_of_unity_composite if order == 2 else cube_roots_of_unity_composite
    return derive(*factors)
