"""Arbitrary-precision modular arithmetic primitives.

Everything operates on plain Python ints (the language's native bignum) and
returns canonical residues in ``[0, modulus)``. All functions are pure and safe
for concurrent use.
"""

from __future__ import annotations

import math

from .errors import (InvalidArgumentError, InvalidCiphertextError, NotInvertibleError,
                     _require_int, _show)

__all__ = ["crt_combine", "is_probable_prime", "mod_inverse"]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)
_TRIAL_PRODUCT = math.prod(_SMALL_PRIMES)  # trial division by all of them is one gcd
# Deterministic Miller-Rabin witnesses: the first 13 primes decide primality
# for every n below this bound (Sorenson & Webster).
_MR_DETERMINISTIC_BASES = _SMALL_PRIMES[:13]
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def mod_inverse(a: int, modulus: int) -> int:
    """Return b in [1, modulus) with a*b = 1 mod modulus.

    Raises NotInvertibleError when gcd(a, modulus) != 1; the exception carries
    the gcd because for a composite modulus that value is a factor.
    """
    a, modulus = _require_int("a", a), _require_int("modulus", modulus)
    if a < 0:
        raise InvalidArgumentError(f"a must be non-negative, got {_show(a)}")
    if modulus < 2:
        raise InvalidArgumentError(f"modulus must be >= 2, got {_show(modulus)}")
    a %= modulus
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertibleError(a, modulus, math.gcd(a, modulus)) from None


def crt_combine(residue_p: int, residue_q: int, p: int, q: int) -> int:
    """Combine residues mod p and mod q into the unique value mod p*q, by _garner."""
    residue_p, residue_q, p, q = map(_require_int, ("residue_p", "residue_q", "p", "q"),
                                     (residue_p, residue_q, p, q))
    if p < 2 or q < 2:
        raise InvalidArgumentError("crt moduli must be >= 2")
    if math.gcd(p, q) != 1:
        raise InvalidArgumentError(f"crt moduli must be coprime, gcd({_show(p)}, {_show(q)}) != 1")
    return _garner((residue_p, residue_q), (p, q), (pow(q, -1, p), 1))


def _garner(residues, factors, inverses) -> int:
    """crt_combine over any coprime factors, unchecked: inverses[i] is the product of the later
    factors inverted mod factors[i], 1 for the last. For p, q: r_q + q*((r_p - r_q)*q_inv mod p)."""
    x, m = 0, 1
    for r, f, inverse in zip(reversed(residues), reversed(factors), reversed(inverses)):
        x, m = x + m * ((r - x) * inverse % f), m * f
    return x


def _primitive_unity_root(p: int, k: int) -> tuple[int, int]:
    """For p-1 = k**s * t, k not dividing t, s >= 1, and g the least k-th non-residue: g**t, of
    order k**s, and zeta = (g**t)**(k**(s-1)) = g**((p-1)/k), a primitive k-th root of 1.
    That g is prime (residues are closed under products), so g runs 2, 3, 5, 7, 9, ...; for
    k = 2 the Jacobi symbol passes over a residue with no exponentiation."""
    s, t = 0, p - 1
    while t % k == 0:
        s, t = s + 1, t // k
    g = 2
    while k == 2 and _jacobi(g, p) == 1 or (
            zeta := pow(generator := pow(g, t, p), k ** (s - 1), p)) == 1:
        g += 1 + g % 2
    return generator, zeta


def _kth_root(c: int, p: int, k: int, unity: tuple[int, int] | None) -> int:
    """One k-th root x of c mod an odd prime p, for k = 2 or 3; `unity` is
    _primitive_unity_root(p, k) where k**2 | p-1, else None (a key's record holds it).

    Adleman-Manders-Miller: with p-1 = k**s * t, k not dividing t, guess x = c**e, e = k^-1 mod t:
    a root whenever s <= 1 and c is a residue. Otherwise x**k / c = x**(k-1) * c**(e-1), taken
    with no inverse, lies in the subgroup generated by g**t, g the least k-th non-residue, and x is
    corrected there one base-k digit at a time against zeta = (g**t)**(k**(s-1)) (Tonelli-Shanks
    for k = 2). Every step keeps x**k = error * c, so x is returned only once it is a root;
    InvalidCiphertextError is raised exactly when c has none."""
    c %= p
    if c == 0:
        return 0
    s, t = 0, p - 1
    while t % k == 0:
        s, t = s + 1, t // k
    z = pow(c, (pow(k, -1, t) or t) - 1, p)  # c**(e-1), e in [1, t] so that e-1 >= 0
    x = z * c % p
    error = pow(x, k - 1, p) * z % p  # x**k / c
    if error != 1 and s > 1:  # else the guess is a root of every residue mod a prime
        generator, zeta = unity
        m = s  # for a residue, error has order below k**m; generator has order k**m
        while error != 1:
            top = error
            for i in range(1, m):
                lifted = pow(top, k, p)
                if lifted == 1:
                    break
                top = lifted
            else:
                break  # error has order k**m: c is no residue
            # top = error**(k**(i-1)) = zeta**j for some 0 < j < k.
            w = pow(generator, k ** (m - i - 1), p)
            generator, m = pow(w, k, p), i
            step = k - 1 if top == zeta else 1  # k - j, so zeta**step * top == 1
            x = x * pow(w, step, p) % p
            error = error * pow(generator, step, p) % p
    if error != 1:
        raise InvalidCiphertextError(
            f"{_show(c)} has no {'square' if k == 2 else 'cube'} root mod {_show(p)}")
    return x


class _ProvenPrime(int):
    """An int that has passed is_probable_prime, so the test need not run again.

    Arithmetic on it and a pickle of it give plain ints: only the factor itself carries the proof.
    """

    __slots__ = ()

    def __reduce__(self):
        return int, (int(self),)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: is odd n > 2 a strong probable prime to base a?"""
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0: 1, -1, or 0 when gcd(a, n) > 1."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 2, Selfridge's method A:
    the first D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.

    With n + 1 = d * 2**s, d odd, n passes when U_d = 0 or V_(d*2**r) = 0
    mod n for some 0 <= r < s. The chain holds (u, v) = c * (U_k, V_k), c a power of two and
    so a unit mod n. From (1, 1) at k = 1, k -> k + 1 is (u + v, D*u + v), and k -> 2k is
    (2uv, v**2 + D*u**2) as V_k**2 - D*U_k**2 = 4*Q**k: no Q**k, and no halving mod n.
    """
    if math.isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0 and abs(D) != n:  # n shares a factor with D, so is composite
            return False
        D = -D - 2 if D > 0 else 2 - D
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2**s, d odd
    u = v = 1
    for bit in bin((n + 1) >> s)[3:]:
        u, v = 2 * u * v % n, (v * v + D * (u * u)) % n  # u * u, so CPython squares
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        u, v = 2 * u * v % n, (v * v + D * (u * u)) % n
        if v == 0:
            return True
    return False


def _baillie_psw(n: int) -> bool:
    """Baillie-PSW for odd n > 2: a strong base-2 Miller-Rabin round, then a strong Lucas test."""
    return _strong_probable_prime(n, 2) and _strong_lucas(n)


def is_probable_prime(n: int) -> bool:
    """Primality test: small-prime trial division, then Miller-Rabin with the
    first 13 primes as witnesses below ~3.3e24, where that is deterministic,
    and Baillie-PSW above it.

    Baillie-PSW (a strong base-2 Miller-Rabin round and a strong Lucas test)
    has no known counterexample, but no proven error bound either; it draws
    no random witnesses, so an adversary's input is tested as any other.
    A ``_ProvenPrime`` has passed this test already and returns True at once;
    any other int is tested in full.
    """
    if isinstance(n, _ProvenPrime):
        return True
    if _require_int("n", n) <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return False
    # n is odd and larger than every trial-division prime here.
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_DETERMINISTIC_BASES)
    return _baillie_psw(n)
