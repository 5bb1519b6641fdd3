import builtins
import math

import pytest

import cubetag.prng
from cubetag import (
    KeyMode,
    PrivateKeyRequiredError,
    digit_stream,
    generate_key,
    key_from_factors,
    pack_bits_hex,
    prng_init,
    prng_next,
)
from oracles import kth_root_preimages, sieve


def _states(key, seed, count):
    """The generator's definition: `count` states from iterating prng_next, mod n."""
    state, states = prng_init(key, seed), []
    for _ in range(count):
        state, value = prng_next(state)
        states.append(value)
    return states


class TestInit:
    def test_valid_state(self, key91):
        state = prng_init(key91, 2)
        assert (state.n, state.s) == (91, 2)

    def test_shared_factor_rejected(self, key91):
        with pytest.raises(ValueError):
            prng_init(key91, 7)

    def test_wrong_mode_rejected(self, key77):
        # phi(77) = 60 is not divisible by 9
        with pytest.raises(ValueError):
            prng_init(key77, 2)
        # 9 | phi here, but all three unity roots come from one factor
        probe = key_from_factors(KeyMode.CUBIC9_COMPOSITE, 1000081, 1000037)
        with pytest.raises(ValueError, match="nine cube roots"):
            prng_init(probe, 2)

    def test_seed_bounds(self, key91):
        with pytest.raises(ValueError):
            prng_init(key91, 1)
        with pytest.raises(ValueError):
            prng_init(key91, 91)
        assert prng_init(key91, 90).s == 90

    def test_public_key_rejected(self, key91):
        with pytest.raises(PrivateKeyRequiredError):
            prng_init(key91.public(), 2)
        with pytest.raises(PrivateKeyRequiredError):
            digit_stream(key91.public(), 2, 2, 3)


class TestAdvance:
    def test_cubing_sequence(self, key91):
        # 2 -> 8 -> 57 -> 8: tiny modulus enters the (8, 57) cycle
        state = prng_init(key91, 2)
        values = []
        for _ in range(4):
            state, value = prng_next(state)
            values.append(value)
        assert values == [8, 57, 8, 57]

    def test_emit_reduces_to_radix(self, key91):
        # states 8, 57 give digits 8 and 57 mod 10
        assert digit_stream(key91, 2, 10, 2) == [8, 7]

    def test_radix_bounds(self, key91):
        with pytest.raises(ValueError):
            digit_stream(key91, 2, 1, 1)
        with pytest.raises(ValueError):
            digit_stream(key91, 2, 91, 1)
        (digit,) = digit_stream(key91, 2, 90, 1)
        assert 0 <= digit < 90


class TestStreams:
    def test_first_bits(self, key91):
        assert digit_stream(key91, 2, 2, 3) == [0, 1, 0]

    def test_deterministic(self, key91):
        a = digit_stream(key91, 5, 7, 50)
        b = digit_stream(key91, 5, 7, 50)
        assert a == b
        assert all(0 <= d < 7 for d in a)

    def test_seed_itself_never_emitted(self, key91):
        # seed 2 mod 2 would be 0 as digit zero; the stream starts at s1 = 8
        bits = digit_stream(key91, 2, 90, 1)
        assert bits == [8]

    def test_negative_count_rejected(self, key91):
        with pytest.raises(ValueError):
            digit_stream(key91, 2, 2, -1)

    def test_coprimality_preserved_forever(self):
        for p, q in [(7, 13), (19, 103), (13, 31)]:
            key = key_from_factors(KeyMode.CUBIC9_COMPOSITE, p, q)
            n = key.n
            for s in range(2, n):
                if math.gcd(s, n) == 1:
                    assert math.gcd(pow(s, 3, n), n) == 1

    def test_every_state_has_nine_preimages(self, key91):
        # every reachable state (a coprime cube) has exactly 9 cube roots
        preimages = kth_root_preimages(91, 3)
        state = prng_init(key91, 2)
        for _ in range(6):
            state, value = prng_next(state)
            assert len(preimages[value]) == 9
        # and the same holds across the whole image set
        assert all(len(roots) == 9 for roots in preimages.values())


class TestPerPrimeStepping:
    """digit_stream steps modulo p and q; its digits are the mod-n states reduced to the radix."""

    def test_matches_definition_for_every_small_key_and_seed(self):
        # every key with nine roots and n < 1000, both factor orders, every coprime seed
        primes = [f for f in sieve(1000 // 7) if f % 3 == 1]
        pairs = [(p, q) for p in primes for q in primes if p != q and p * q < 1000]
        assert len(pairs) == 2 * 24
        for p, q in pairs:
            key = key_from_factors(KeyMode.CUBIC9_COMPOSITE, p, q)
            for seed in range(2, key.n):
                if math.gcd(seed, key.n) != 1:
                    continue
                states = _states(key, seed, 8)
                for radix in (2, 3, 10, key.n - 1):
                    expected = [s % radix for s in states]
                    assert digit_stream(key, seed, radix, 8) == expected, (p, q, seed, radix)

    @pytest.mark.parametrize("bits", [1024, 2048])
    def test_matches_definition_at_real_size(self, bits):
        key = generate_key(KeyMode.CUBIC9_COMPOSITE, bits=bits, seed=1)
        for seed in (2, 12345, key.n - 2, key.n // 3):
            states = _states(key, seed, 40)
            for radix in (2, 10, 2**64 + 13):
                assert digit_stream(key, seed, radix, 40) == [s % radix for s in states]

    def test_never_reduces_mod_n(self, monkeypatch):
        key = generate_key(KeyMode.CUBIC9_COMPOSITE, bits=1024, seed=1)
        moduli = []

        def recording_pow(base, exponent, modulus=None):
            moduli.append(modulus)
            return builtins.pow(base, exponent, modulus)

        monkeypatch.setattr(cubetag.prng, "pow", recording_pow, raising=False)
        digit_stream(key, 12345, 2, 100)
        assert set(moduli) == set(key.factors)
        assert key.n not in moduli


class TestHexPacking:
    @pytest.mark.parametrize(
        "bits,expected",
        [
            ([0, 1, 0], "4"),
            ([0, 1, 0, 1], "5"),
            ([1, 1, 1, 1], "f"),
            ([1, 0, 0, 0, 1], "88"),
            ([], ""),
            ((1, 0, 1, 1), "b"),  # any sequence of bits, not only a list
            ((0, 1, 0), "4"),
        ],
    )
    def test_packing(self, bits, expected):
        assert pack_bits_hex(bits) == expected

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            pack_bits_hex([0, 2, 1])
