"""Independent brute-force oracles used by the tests.

Deliberately implemented with nothing but builtin arithmetic so they share
no code path with the package under test.
"""

import math


def sieve(limit: int) -> list[int]:
    """All primes below limit."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i, f in enumerate(flags) if f]


def kth_roots_of_unity(n: int, k: int) -> tuple[int, ...]:
    """All x in [1, n) with x**k = 1 mod n, ascending."""
    return tuple(x for x in range(1, n) if pow(x, k, n) == 1)


def kth_root_preimages(n: int, k: int) -> dict[int, list[int]]:
    """Map c -> ascending [x : x**k = c mod n] over x coprime to n."""
    preimages: dict[int, list[int]] = {}
    for x in range(1, n):
        if math.gcd(x, n) == 1:
            preimages.setdefault(pow(x, k, n), []).append(x)
    return preimages


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True
