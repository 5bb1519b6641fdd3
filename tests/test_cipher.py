import copy
import math
import pickle

import pytest

import cubetag.cipher
import cubetag.modular
import cubetag.roots
from cubetag import (
    InvalidCiphertextError,
    InvalidMessageError,
    KeyFileError,
    KeyMode,
    PrivateKeyRequiredError,
    TaggedCiphertext,
    companion_table,
    cube_root_by_exponent,
    decrypt,
    decrypt_candidates,
    encrypt,
    generate_key,
    key_from_factors,
    parse_ciphertext,
    parse_key,
    serialize_ciphertext,
    serialize_key,
)
from oracles import kth_root_preimages
from shaped_primes import desk_specs

class TestEncrypt:
    def test_out_of_range_rejected(self, key77):
        with pytest.raises(InvalidMessageError):
            encrypt(0, key77)
        with pytest.raises(InvalidMessageError):
            encrypt(77, key77)

    def test_shared_factor_rejected_and_reported(self, key77):
        with pytest.raises(InvalidMessageError) as info:
            encrypt(21, key77)
        assert info.value.factor == 7

    def test_needs_private_key(self, key77):
        with pytest.raises(PrivateKeyRequiredError):
            encrypt(12, key77.public())


class TestCubeRootByExponent:
    def test_prime_example(self, key31):
        assert cube_root_by_exponent(2, key31) == 4

    def test_identity(self, key31, key77):
        assert cube_root_by_exponent(1, key31) == 1
        assert cube_root_by_exponent(1, key77) == 1

    def test_needs_private_key(self, key77):
        with pytest.raises(PrivateKeyRequiredError):
            cube_root_by_exponent(34, key77.public())

    def test_nine_root_mode_unsupported(self, key91):
        with pytest.raises(ValueError):
            cube_root_by_exponent(83, key91)

    def test_non_residue_rejected(self, key31):
        residues = {pow(m, 3, 31) for m in range(1, 31)}
        assert 3 not in residues
        with pytest.raises(InvalidCiphertextError):
            cube_root_by_exponent(3, key31)


class TestDecryptCandidatesByCrt:
    def test_search_path_when_nine_divides_factor_totient(self):
        # 9 | 18: the mod-19 root needs digit correction
        key = key_from_factors(KeyMode.CUBIC9_COMPOSITE, 19, 5)
        for m in (2, 17, 41):
            c = pow(m, 3, 95)
            candidates = decrypt_candidates(c, key)
            assert candidates == sorted(set(candidates)) and len(candidates) == len(key.roots)
            assert all(pow(x, 3, 95) == c for x in candidates)

    def test_large_factor_with_nine_dividing_totient(self):
        # 9 | p-1 with p above the old exhaustive-search bound of 10**6
        key = key_from_factors(KeyMode.CUBIC9_COMPOSITE, 1000099, 5)
        for m in (2, 3, 123456, key.n - 1):
            c = pow(m, 3, key.n)
            candidates = decrypt_candidates(c, key)
            assert candidates == sorted(set(candidates)) and len(candidates) == len(key.roots)
            assert all(pow(x, 3, key.n) == c for x in candidates)
            assert decrypt(encrypt(m, key), key) == m

    def test_needs_private_key(self, key91):
        with pytest.raises(PrivateKeyRequiredError):
            decrypt_candidates(83, key91.public())


def _composite_keys(limit):
    """Every composite key with n < limit, the factors in both orders."""
    return (key_from_factors(mode, p, q) for mode, p, q in desk_specs(limit) if q is not None)


def _keys_that_correct_their_guess(limit):
    """Every desk key with n < limit and a factor whose roots take the AMM correction with the
    generator the key searched for when it was built: 9 | f-1 (CUBIC9) or 8 | f-1 (SQUARE), the
    factors in both orders."""
    for key in _composite_keys(limit):
        power = {KeyMode.CUBIC9_COMPOSITE: 9, KeyMode.SQUARE_COMPOSITE: 8}.get(key.mode)
        if power and any((f - 1) % power == 0 for f in key.factors):
            yield key


def _candidates_or_none(c, key):
    try:
        return decrypt_candidates(c, key)
    except InvalidCiphertextError:
        return None


def test_record_path_matches_the_oracle():
    # each key as built and as read from its file (alpha a certificate, where one is written):
    # every coprime c gets exactly its preimages, or no root; as copy and pickle rebuild the key,
    # every c with a root gets the same preimages
    keys = list(_keys_that_correct_their_guess(2000))
    assert {key.mode for key in keys} == {KeyMode.CUBIC9_COMPOSITE, KeyMode.SQUARE_COMPOSITE}
    for key in keys:
        loaded, copies = parse_key(serialize_key(key)), [copy.deepcopy(key),
                                                        pickle.loads(pickle.dumps(key))]
        assert [loaded, *copies] == [key] * 3
        preimages = kth_root_preimages(key.n, key.mode.exponent)
        for c in range(1, key.n):
            if math.gcd(c, key.n) == 1:
                expected = preimages.get(c)
                assert _candidates_or_none(c, key) == _candidates_or_none(c, loaded) == expected
        for c, expected in preimages.items():
            assert [decrypt_candidates(c, copied) for copied in copies] == [expected] * 2


class TestDecrypt:
    def test_tag_out_of_range(self, key77):
        with pytest.raises(InvalidCiphertextError):
            decrypt(TaggedCiphertext(34, 4), key77)
        with pytest.raises(InvalidCiphertextError):
            decrypt(TaggedCiphertext(34, 0), key77)

    def test_non_coprime_ciphertext_rejected(self, key77):
        # 7**3 mod 77 = 35 shares the factor 7; 22 and 55 share a factor
        # too, although their root sets ([11, 22, 44] for 22) look complete
        for c in (pow(7, 3, 77), 22, 55):
            with pytest.raises(InvalidCiphertextError):
                decrypt_candidates(c, key77)
            with pytest.raises(InvalidCiphertextError):
                decrypt(TaggedCiphertext(c, 1), key77)

    def test_ciphertext_outside_modulus_rejected(self, key77):
        # c = 111 would otherwise reduce to 34 and decrypt to 12
        for c in (0, 77, 77 + 34):
            with pytest.raises(InvalidCiphertextError):
                decrypt_candidates(c, key77)
            with pytest.raises(InvalidCiphertextError):
                decrypt(TaggedCiphertext(c, 1), key77)
            with pytest.raises(InvalidCiphertextError):
                cube_root_by_exponent(c, key77)

    def test_round_trip_exhaustive(self, key31, key77, key91):
        for key in (key31, key77, key91):
            for m in range(1, key.n):
                if math.gcd(m, key.n) == 1:
                    assert decrypt(encrypt(m, key), key) == m

    def test_tags_cover_exactly_the_root_count(self, key31, key77, key91, key77_square):
        for key, count in ((key31, 3), (key77, 3), (key91, 9), (key77_square, 4)):
            tags = {
                encrypt(m, key).tag
                for m in range(1, key.n)
                if math.gcd(m, key.n) == 1
            }
            assert tags == set(range(1, count + 1))

    def test_probe_key_round_trips(self):
        # 9 | p-1 for p = 1000081 and 3 || q-1: a CUBIC9 key with only 3 roots
        key = key_from_factors(KeyMode.CUBIC9_COMPOSITE, 1000081, 1000037)
        assert len(key.roots) == 3
        for m in (2, 3, 1000080, 987654321, key.n - 1):
            ct = encrypt(m, key)
            assert decrypt(ct, key) == m
            assert decrypt_candidates(ct.c, key) == sorted(m * u % key.n for u in key.roots)


class TestRootCountAgainstRabin:
    """The abstract's one quantitative claim, at a real size: cubing has 3 roots (9 with two
    cubic factors) where Rabin's squaring has 4, so a tag takes log2 3 ~ 1.58 bits against 2.
    A decimal file spends one character on any tag up to 9, so the files are the same size."""

    @pytest.mark.parametrize("mode, count", [
        (KeyMode.CUBIC3_PRIME, 3), (KeyMode.CUBIC3_COMPOSITE, 3),
        (KeyMode.CUBIC9_COMPOSITE, 9), (KeyMode.SQUARE_COMPOSITE, 4),
    ])
    def test_root_count_tags_and_file_bytes(self, keys1024, mode, count):
        key = keys1024[mode]
        assert len(key.roots) == count
        # 2*u for the roots u share one c and one companion set: their tags are 1..count
        cts = [encrypt(2 * u % key.n, key) for u in key.roots]
        assert sorted(ct.tag for ct in cts) == list(range(1, count + 1))
        with pytest.raises(InvalidCiphertextError):
            decrypt(TaggedCiphertext(cts[0].c, count + 1), key)
        for ct in cts:
            assert ct.c == cts[0].c
            assert serialize_ciphertext(ct) == f"c={ct.c}\n" + f"tag={ct.tag}\n"
            assert len(f"tag={ct.tag}\n") == 6

    # The exponentiations each op makes, counted for the messages 2, 3, 5 and 7: those whose
    # exponent is above 2**64, so not a cube or a square. Encrypting makes none. Decrypting makes
    # one per factor in every mode: the SQUARE key's factors have 4 | p-1 and 16 | q-1, so a wrong
    # first guess is corrected against the generator the key searched for once, when it was built.
    @pytest.mark.parametrize("mode, decrypt_counts", [
        (KeyMode.CUBIC3_PRIME, [1, 1, 1, 1]), (KeyMode.CUBIC3_COMPOSITE, [2, 2, 2, 2]),
        (KeyMode.CUBIC9_COMPOSITE, [2, 2, 2, 2]), (KeyMode.SQUARE_COMPOSITE, [2, 2, 2, 2]),
    ])
    def test_exponentiations_per_op(self, keys1024, mode, decrypt_counts, record_calls):
        key = keys1024[mode]
        for module in (cubetag.modular, cubetag.cipher, cubetag.roots):
            calls = record_calls(module, "pow")

        def exponentiations():
            return sum(args[1] > 1 << 64 for _, args in calls)

        counts = []
        for m in (2, 3, 5, 7):
            calls.clear()
            ct = encrypt(m, key)
            assert exponentiations() == 0
            assert decrypt(ct, key) == m
            counts.append(exponentiations())
        assert counts == decrypt_counts

    @pytest.mark.parametrize("mode", list(KeyMode), ids=lambda mode: mode.name)
    def test_one_recombination_per_decrypt(self, keys1024, mode, record_calls):
        # every mode joins its roots mod each factor by the one Garner loop: prime mode's one
        # root passes through it too, as the one-factor case
        key = keys1024[mode]
        calls = record_calls(cubetag.cipher, "_garner")
        for m in (2, 3, 5, 7):
            ct = encrypt(m, key)
            calls.clear()
            assert decrypt(ct, key) == m and len(calls) == 1, m


@pytest.mark.parametrize("mode", [KeyMode.CUBIC3_COMPOSITE, KeyMode.CUBIC9_COMPOSITE,
                                  KeyMode.SQUARE_COMPOSITE, pytest.param(None, id="below_300")],
                         ids=lambda mode: mode.name)
def test_a_wrong_tag_decrypt_factors_n(keys1024, mode):
    # decrypt answers r**k with a tag not r's by x = r*u for a root of 1 u != 1, and gcd(x - r, n)
    # is a factor of n where u is 1 mod one factor only: for some wrong tag always, and for every
    # one exactly where the key has 3 roots (4 and 9 roots include u != 1 mod both factors), so a
    # service that decrypts chosen ciphertexts hands out a factor of n: the 1024-bit seed-1 keys
    # for r = 2, 3, 5, 7, and every desk key below 300 for every coprime r
    if mode is None:
        cases = [(key, [r for r in range(1, key.n) if math.gcd(r, key.n) == 1])
                 for key in _composite_keys(300)]
        assert (len(cases), sum(len(rs) for _, rs in cases)) == (168, 20408)
    else:
        cases = [(keys1024[mode], (2, 3, 5, 7))]
    for key, rs in cases:
        for r in rs:
            ct = encrypt(r, key)
            factored = [1 < math.gcd(decrypt((ct.c, tag), key) - r, key.n) < key.n
                        for tag in range(1, len(key.roots) + 1) if tag != ct.tag]
            assert any(factored) and all(factored) == (len(key.roots) == 3), (key.n, r)


def test_only_a_non_residue_builds_its_error(record_calls):
    # seed 5's 1024-bit SQUARE q has 32 | q-1, so 11 of these 12 first guesses mod q are
    # corrected; the InvalidCiphertextError, with the decimal forms of c and the factor, is built
    # only where c has no root
    key = generate_key(KeyMode.SQUARE_COMPOSITE, bits=1024, seed=5)
    shown = record_calls(cubetag.modular, "_show")
    for m in range(2, 14):
        assert decrypt(encrypt(m, key), key) == m
    assert shown == []
    with pytest.raises(InvalidCiphertextError):  # 7 is no square mod q
        decrypt_candidates(encrypt(2, key).c * 7 % key.n, key)
    assert len(shown) == 2


class TestCompanionTable:
    def test_composite_row_count(self, key77):
        rows = list(companion_table(key77))
        assert len(rows) == 20
        assert all(len(companions) == 3 for companions, _ in rows)

    def test_square_mode_rows(self, key77_square):
        rows = list(companion_table(key77_square))
        assert len(rows) == 15
        assert all(len(companions) == 4 for companions, _ in rows)

    def test_large_modulus_refused(self):
        key = generate_key(KeyMode.CUBIC3_COMPOSITE, bits=48, seed=0)
        assert key.n > 1_000_000
        with pytest.raises(ValueError):
            next(companion_table(key))


class TestCiphertextFiles:
    def test_round_trip(self, key77, key91):
        ct = encrypt(24, key91)
        text = serialize_ciphertext(ct)
        assert text == "c=83\ntag=2\n"
        assert parse_ciphertext(text, key91.mode) == ct
        # the record is the two values its file holds
        assert TaggedCiphertext._fields == ("c", "tag") and ct == (83, 2)
        assert serialize_ciphertext((34, 1)) == "c=34\ntag=1\n"
        assert decrypt((34, 1), key77) == 12  # a plain (c, tag) pair decrypts too

    def test_malformed_rejected(self, key91):
        for bad in ("", "c=83\n", "c=83\ntag=2\nextra=1\n", "tag=2\nc=83\n", "c=83\ntag=x\n",
                    "c=\u0661\ntag=1\n", "c=83\ntag=\u00b2\n"):
            with pytest.raises(KeyFileError):
                parse_ciphertext(bad, key91.mode)
        for bad, line in (("c=083\ntag=2\n", 1), ("c=83\ntag=02\n", 2), ("c=83\ntag=2", 2),
                          (f"c={'7' * 5000}\ntag=2\n", 1), ("c=83\n", 2),
                          ("c=83\ntag=2\nextra=1\n", 3), ("c=83\ntag=2\n\n", 3)):
            with pytest.raises(KeyFileError) as info:
                parse_ciphertext(bad, key91.mode)
            assert info.value.line == line
