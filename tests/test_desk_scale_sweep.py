"""Exhaustive desk-scale round-trip sweep, slow tier.

Every valid key of every mode with modulus below 10000, every coprime
message: decrypt(encrypt(m)) == m. The nine-root keys where a factor's
totient is divisible by 9 exercise the digit-correction branch of the
per-factor root. The sweep takes minutes; run it with `pytest -m slow`.
"""

import math

import pytest

from cubetag import decrypt, encrypt, key_from_factors
from shaped_primes import desk_specs

pytestmark = pytest.mark.slow

LIMIT = 10_000


def test_round_trip_exhaustive_below_10000():
    keys = messages = 0
    for mode, p, q in desk_specs(LIMIT):
        if q is not None and p > q:  # each pair once, the smaller factor first
            continue
        key = key_from_factors(mode, p, q)
        n = key.n
        for m in range(1, n):
            if math.gcd(m, n) != 1:
                continue
            recovered = decrypt(encrypt(m, key), key)
            assert recovered == m, (key.mode.value, key.p, key.q, m, recovered)
            messages += 1
        keys += 1
    print(f"  [desk-scale sweep: {keys} keys, {messages} messages]")
