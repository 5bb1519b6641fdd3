"""Roots of unity modulo primes and two-factor composites.

The cipher's companion sets are built from the k-th roots of 1 (k = 2 or 3). Mod a prime one
rule, ``_prime_unity_roots``, gives them as the powers of one nontrivial root: -1, a recorded or
certified root, or a searched one (no square root is taken). Mod p*q every pair of per-prime
roots is joined by CRT. Root sets are ascending, the canonical order the rank tags rely on: 1 or
3 roots mod a prime, 1, 3, 4 or 9 mod p*q. ``_unity_roots`` builds each key's roots; only a
cubic key built from its factors alone, none with 9 | f-1, takes the public composite routine.
"""

from __future__ import annotations

from .errors import InvalidArgumentError, _show
from .modular import _ProvenPrime, _garner, _primitive_unity_root, crt_combine, is_probable_prime

__all__ = ["cube_roots_of_unity_composite", "cube_roots_of_unity_prime"]


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
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_probable_prime(p):
        raise InvalidArgumentError(f"{_show(p)} is not an odd prime")
    return _ProvenPrime(p)  # so a later guard accepts p untested


def _garner_product(p: int, q: int, roots_p: tuple, roots_q: tuple, q_inv: int) -> UnityRootSet:
    """The roots of 1 mod p*q: every pair of per-prime roots, joined by Garner's CRT."""
    combined = sorted(_garner(rp, rq, p, q, q_inv) for rp in roots_p for rq in roots_q)
    return UnityRootSet(p * q, tuple(combined))


def _prime_unity_roots(f: int, k: int, unity=None, alpha=None) -> tuple[int, ...]:
    """The k-th roots of 1 mod a proven prime f, ascending: the powers of -1 for squares, else of
    the zeta of f's AMM record `unity` (k**2 | f-1), or of alpha mod f where that is a nontrivial
    root (a key file's alpha spares a search), else of a searched root where k | f-1, else {1}."""
    z = f - 1 if k == 2 else unity[1] if unity else (alpha or 1) % f
    if z == 1 or pow(z, k, f) != 1:
        z = _primitive_unity_root(f, k)[1] if (f - 1) % k == 0 else 1
    return tuple(sorted({pow(z, i, f) for i in range(k)}))


def cube_roots_of_unity_prime(p: int) -> UnityRootSet:
    """All solutions of x**3 = 1 mod p, which must be an odd prime (tested): {1} where cubing
    is a bijection (p = 3 or 2 mod 3), else 1, z, z**2 for z = g**((p-1)/3), a primitive cube
    root of 1 (g the least cubic non-residue)."""
    return UnityRootSet(p, _prime_unity_roots(_require_odd_prime(p), 3))


def cube_roots_of_unity_composite(p: int, q: int) -> UnityRootSet:
    """Cube roots of 1 mod p*q, one per pair of per-prime roots: 1, 3 or 9 of them."""
    p, q = _require_odd_prime(p), _require_odd_prime(q)
    roots = (cube_roots_of_unity_prime(f).roots for f in (p, q))
    return _garner_product(p, q, *roots, crt_combine(1, 0, p, q) // q)  # q**-1 mod p


def _unity_roots(k: int, factors: tuple[int, ...], alpha=None):
    """A key's roots of 1 and its record, which decrypts reuse: per factor f, the (g**t, zeta) of
    the AMM search where k**2 | f-1 (else None), and for two factors Garner's q**-1 mod p. Mod
    each f the roots follow _prime_unity_roots, given that record and alpha, except that a cubic
    key built from its factors alone with no such record takes the public composite routine,
    looked up as a module global at call time so a wrapper installed on it sees the call."""
    unity = tuple(_primitive_unity_root(f, k) if (f - 1) % k**2 == 0 else None for f in factors)
    q_inv = crt_combine(1, 0, *factors) // factors[1] if len(factors) == 2 else None
    if q_inv and k == 3 and alpha is None and not any(unity):
        return cube_roots_of_unity_composite(*factors), (unity, q_inv)
    roots = [_prime_unity_roots(f, k, u, alpha) for f, u in zip(factors, unity)]
    if q_inv:
        return _garner_product(*factors, *roots, q_inv), (unity, q_inv)
    return UnityRootSet(factors[0], roots[0]), (unity, None)
