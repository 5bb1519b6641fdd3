import math
import random

import pytest

from cubetag import (
    InvalidMessageError,
    KeyMode,
    PrivateKeyRequiredError,
    key_from_factors,
    partition_nine_roots,
    play_round,
)
from shaped_primes import desk_specs

# The four {1, x, x**2} triples over the nine unity roots mod 91.
GROUPS_91 = ((1, 9, 81), (1, 16, 74), (1, 22, 29), (1, 53, 79))


class TestPartition:
    def test_wrong_size_rejected(self, key77):
        with pytest.raises(ValueError):
            partition_nine_roots(key77.roots)

    def test_invariants_over_desk_scale_moduli(self):
        # every nine-root key below 10000, the smaller factor first
        keys = [key_from_factors(mode, p, q) for mode, p, q in desk_specs(10_000)
                if mode is KeyMode.CUBIC9_COMPOSITE and p < q and p % 3 == q % 3 == 1]
        assert len(keys) == 305
        for key in keys:
            grouping = partition_nine_roots(key.roots)
            assert len(grouping.groups) == 4
            non_unit = sorted(u for t in grouping.groups for u in t if u != 1)
            assert non_unit == list(key.roots.roots[1:])
            for one, x, x_squared in grouping.groups:
                assert one == 1 and x < x_squared and x_squared == x * x % key.n


class TestPlayRound:
    def test_matching_choice_recovers_message(self, key91):
        for choice in range(1, 5):
            round_ = play_round(key91, 24, choice, choice)
            assert round_.success
            assert round_.recovered == 24
            assert round_.c == 83

    def test_matching_choice_for_many_messages(self, key91):
        for m in range(2, 91):
            if math.gcd(m, 91) != 1:
                continue
            for choice in (1, 4):
                round_ = play_round(key91, m, choice, choice)
                assert round_.success and round_.recovered == m

    def test_companion_set_of_chosen_triple(self, key91):
        # group 1 holds root 9: the sender's 3-element set for m=24
        companions = sorted(24 * u % 91 for u in GROUPS_91[0])
        assert companions == [24, 33, 34]
        round_ = play_round(key91, 24, 1, 1)
        assert (round_.coset, round_.tag) == (2, 1)

    def test_out_of_range_choice_rejected(self, key91):
        with pytest.raises(ValueError):
            play_round(key91, 24, 0, 1)
        with pytest.raises(ValueError):
            play_round(key91, 24, 1, 5)

    def test_three_root_key_rejected(self, key77):
        with pytest.raises(ValueError):
            play_round(key77, 12, 1, 1)
        # a CUBIC9 key whose roots come from one factor alone has only 3
        probe = key_from_factors(KeyMode.CUBIC9_COMPOSITE, 1000081, 1000037)
        with pytest.raises(ValueError, match="nine cube roots"):
            play_round(probe, 12, 1, 1)

    def test_public_key_rejected(self, key91):
        with pytest.raises(PrivateKeyRequiredError):
            play_round(key91.public(), 24, 1, 1)

    def test_non_coprime_message_rejected(self, key91):
        with pytest.raises(InvalidMessageError):
            play_round(key91, 14, 1, 1)

    def test_success_frequency_near_quarter(self, key91):
        rng = random.Random(20260810)
        trials = 10_000
        successes = 0
        for _ in range(trials):
            m = rng.randrange(2, 91)
            while math.gcd(m, 91) != 1:
                m = rng.randrange(2, 91)
            if play_round(key91, m, rng.randint(1, 4), rng.randint(1, 4)).success:
                successes += 1
        # four-sigma band around trials/4 for a Bernoulli(1/4) count
        sigma = (trials * 0.25 * 0.75) ** 0.5
        assert abs(successes - trials / 4) < 4 * sigma
