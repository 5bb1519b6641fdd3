"""Arbitrary-precision modular arithmetic primitives.

Everything operates on plain Python ints (the language's native bignum) and
returns canonical residues in ``[0, modulus)``. All functions are pure and
safe for concurrent use.
"""

from __future__ import annotations

import math
import random

from .errors import InvalidArgumentError, NonResidueError, NotInvertibleError

__all__ = ["crt_combine", "is_probable_prime", "kth_root_mod_prime", "mod_inverse"]

# Deterministic Miller-Rabin witnesses: the first 13 primes decide primality
# for every n below this bound (Sorenson & Webster).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Random witnesses above that bound: a false-positive rate below 4**-40.
_MR_ROUNDS = 40

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)


def mod_inverse(a: int, modulus: int) -> int:
    """Return b in [1, modulus) with a*b = 1 mod modulus.

    Raises NotInvertibleError when gcd(a, modulus) != 1; the exception carries
    the gcd because for a composite modulus that value is a factor.
    """
    if a < 0:
        raise InvalidArgumentError(f"a must be non-negative, got {a}")
    if modulus < 2:
        raise InvalidArgumentError(f"modulus must be >= 2, got {modulus}")
    a %= modulus
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertibleError(a, modulus, math.gcd(a, modulus)) from None


def crt_combine(residue_p: int, residue_q: int, p: int, q: int) -> int:
    """Combine residues mod p and mod q into the unique value mod p*q.

    Garner's form: r_q + q*((r_p - r_q)*(q^-1 mod p) mod p).
    """
    if p < 2 or q < 2:
        raise InvalidArgumentError("crt moduli must be >= 2")
    if math.gcd(p, q) != 1:
        raise InvalidArgumentError(f"crt moduli must be coprime, gcd({p}, {q}) != 1")
    residue_q %= q
    return residue_q + q * ((residue_p - residue_q) * pow(q, -1, p) % p)


def _primitive_unity_root(p: int, k: int) -> tuple[int, int]:
    """The least k-th non-residue g of p, and zeta = g**((p-1)/k), a primitive k-th root of 1."""
    g = 2
    while (zeta := pow(g, (p - 1) // k, p)) == 1:
        g += 1
    return g, zeta


def kth_root_mod_prime(c: int, p: int, k: int) -> int:
    """Return one k-th root x of c mod an odd prime p, for k = 2 or 3.

    Adleman-Manders-Miller: write p-1 = k**s * t with k not dividing t and
    guess x = c**(k^-1 mod t). The guess is a root whenever s <= 1 and c is a
    residue; otherwise x**k / c lies in the subgroup generated by g**t, g the
    least k-th non-residue, and x is corrected there one base-k digit at a
    time. For k = 2 this is Tonelli-Shanks. p must be prime (not tested):
    the result is a verified root, else a CubeTagError is raised (for p prime,
    NonResidueError exactly when c has no k-th root).
    """
    if k not in (2, 3):
        raise InvalidArgumentError(f"root order must be 2 or 3, got {k}")
    if p < 3 or p % 2 == 0:
        raise InvalidArgumentError(f"modulus must be an odd prime, got {p}")
    c %= p
    if c == 0:
        return 0
    s, t = 0, p - 1
    while t % k == 0:
        s, t = s + 1, t // k
    x = pow(c, pow(k, -1, t), p)
    if (x_k := pow(x, k, p)) == c:
        return x
    error = x_k * mod_inverse(c, p) % p  # x**k / c
    g, zeta = _primitive_unity_root(p, k)
    generator = pow(g, t, p)
    m = s  # for a residue, error has order below k**m; generator has order k**m
    while error != 1:
        top = error
        for i in range(1, m):
            lifted = pow(top, k, p)
            if lifted == 1:
                break
            top = lifted
        else:
            raise NonResidueError(f"{c} has no {'square' if k == 2 else 'cube'} root mod {p}")
        # top = error**(k**(i-1)) = zeta**j for some 0 < j < k.
        w = pow(generator, k ** (m - i - 1), p)
        generator, m = pow(w, k, p), i
        step = k - 1 if top == zeta else 1  # k - j, so zeta**step * top == 1
        x = x * pow(w, step, p) % p
        error = error * pow(generator, step, p) % p
    return x


class _ProvenPrime(int):
    """An int that has passed is_probable_prime, so the test need not run again.

    Arithmetic on it gives plain ints: only the factor itself carries the proof.
    """

    __slots__ = ()


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test with small-prime trial division first.

    Deterministic (fixed witness set) for n below ~3.3e24; above that bound
    _MR_ROUNDS random witnesses are drawn from ``rng`` (a fresh system RNG by
    default). A ``_ProvenPrime`` has passed this test already and returns True
    at once; any other int is tested in full.
    """
    if isinstance(n, _ProvenPrime):
        return True
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    # n is odd and larger than every trial-division prime here.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        witnesses = _MR_DETERMINISTIC_BASES
    else:
        if rng is None:
            rng = random.Random()
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS))
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
