"""Exhaustive desk-scale round-trip sweep, slow tier.

Every valid key of every mode with modulus below 10000, every coprime
message: decrypt(encrypt(m)) == m. The nine-root keys where a factor's
totient is divisible by 9 exercise the digit-correction branch of the
per-factor root. The sweep takes minutes; run it with `pytest -m slow`.
"""

import math

import pytest

from cubetag import KeyMode, decrypt, encrypt, key_from_factors
from oracles import sieve

pytestmark = pytest.mark.slow

LIMIT = 10_000


def _desk_keys():
    primes = sieve(LIMIT)
    odd = [p for p in primes if p > 2]
    for p in primes:
        if p % 3 == 1 and p % 4 == 3 and (p - 1) % 9 != 0:
            yield key_from_factors(KeyMode.CUBIC3_PRIME, p)
    for i, p in enumerate(odd):
        if p * p >= LIMIT:
            break
        for q in odd[i + 1:]:
            if p * q >= LIMIT:
                break
            phi = (p - 1) * (q - 1)
            if phi % 3 == 0:
                if phi % 9 == 0:
                    yield key_from_factors(KeyMode.CUBIC9_COMPOSITE, p, q)
                else:
                    yield key_from_factors(KeyMode.CUBIC3_COMPOSITE, p, q)
            yield key_from_factors(KeyMode.SQUARE_COMPOSITE, p, q)


def test_round_trip_exhaustive_below_10000():
    keys = messages = 0
    for key in _desk_keys():
        n = key.n
        for m in range(1, n):
            if math.gcd(m, n) != 1:
                continue
            recovered = decrypt(encrypt(m, key), key)
            assert recovered == m, (key.mode.value, key.p, key.q, m, recovered)
            messages += 1
        keys += 1
    print(f"  [desk-scale sweep: {keys} keys, {messages} messages]")
