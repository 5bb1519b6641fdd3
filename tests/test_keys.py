import copy
import hashlib
import math
import pickle
import re
import reprlib
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubetag.cipher
import cubetag.keys
import cubetag.modular
import cubetag.prng
import cubetag.roots
from cubetag import (
    CubeTagError,
    InvalidArgumentError,
    KeyFileError,
    KeyMaterial,
    KeyMode,
    PrivateKeyRequiredError,
    TaggedCiphertext,
    cli,
    cube_roots_of_unity_composite,
    cube_roots_of_unity_prime,
    decrypt,
    digit_stream,
    encrypt,
    generate_key,
    is_probable_prime,
    key_from_factors,
    parse_ciphertext,
    parse_key,
    serialize_ciphertext,
    serialize_key,
)
from cubetag.formats import MAX_FILE_CHARS
from oracles import kth_roots_of_unity, sieve
from shaped_primes import SHAPED_PRIMES


def _accepted_cubic_mode(p, q=None):
    """The cubic mode key_from_factors accepts for a prime or a pair, or None."""
    modes = [KeyMode.CUBIC3_PRIME] if q is None else [
        KeyMode.CUBIC3_COMPOSITE, KeyMode.CUBIC9_COMPOSITE]
    accepted = []
    for mode in modes:
        try:
            key_from_factors(mode, p, q)
        except InvalidArgumentError as exc:  # a shape refusal names the mode; re-raise others
            if not str(exc).startswith(f"{mode.value} needs "):
                raise
            continue
        accepted.append(mode)
    assert len(accepted) <= 1
    return accepted[0] if accepted else None


class TestClassifyModulus:
    """Which cubic mode a factor set satisfies, as key_from_factors enforces it."""

    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (7, 11, KeyMode.CUBIC3_COMPOSITE),
            (7, 13, KeyMode.CUBIC9_COMPOSITE),
            (5, 11, None),
            (19, 5, KeyMode.CUBIC9_COMPOSITE),  # 9 | 18 alone forces the nine-root case
        ],
    )
    def test_composite(self, p, q, expected):
        assert _accepted_cubic_mode(p, q) == expected

    @pytest.mark.parametrize(
        "p,expected",
        [
            (31, KeyMode.CUBIC3_PRIME),
            (11, None),  # 2 mod 3: cubing is a bijection
            (19, None),  # 9 | p-1: no exponent inverse
            (13, None),  # 1 mod 4: outside the supported prime shape
        ],
    )
    def test_single_prime(self, p, expected):
        assert _accepted_cubic_mode(p) == expected

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            _accepted_cubic_mode(115)  # 5 * 23, and 115 = 7 mod 36 fits prime mode
        with pytest.raises(ValueError):
            _accepted_cubic_mode(7, 15)

    def test_equal_factors_rejected(self):
        for mode in (KeyMode.CUBIC3_COMPOSITE, KeyMode.CUBIC9_COMPOSITE, KeyMode.SQUARE_COMPOSITE):
            with pytest.raises(InvalidArgumentError, match="distinct"):
                key_from_factors(mode, 7, 7)

    def test_agrees_with_totient_arithmetic_below_100(self):
        primes = sieve(100)[1:]  # key_from_factors takes odd primes only
        for i, p in enumerate(primes):
            for q in primes[i + 1:]:
                phi = (p - 1) * (q - 1)
                if phi % 3 != 0:
                    expected = None
                elif phi % 9 == 0:
                    expected = KeyMode.CUBIC9_COMPOSITE
                else:
                    expected = KeyMode.CUBIC3_COMPOSITE
                assert _accepted_cubic_mode(p, q) == expected


class TestForcedKeys:
    def test_example_composite_key(self, key77):
        assert (key77.n, key77.p, key77.q, key77.phi, key77.alpha) == (77, 7, 11, 60, 23)
        assert key77.unity_roots.roots == (1, 23, 67)

    def test_example_nine_root_key(self, key91):
        assert (key91.n, key91.phi) == (91, 72)
        assert key91.alpha == 9
        assert len(key91.unity_roots) == 9

    def test_example_prime_key(self, key31):
        assert (key31.n, key31.p, key31.phi, key31.alpha) == (31, 31, 30, 5)

    def test_square_key(self, key77_square):
        assert key77_square.alpha is None
        assert key77_square.unity_roots.roots == (1, 34, 43, 76)

    def test_constraint_rejections(self):
        with pytest.raises(InvalidArgumentError):
            key_from_factors(KeyMode.CUBIC3_COMPOSITE, 5, 11)  # phi coprime to 3
        with pytest.raises(InvalidArgumentError):
            key_from_factors(KeyMode.CUBIC3_COMPOSITE, 7, 13)  # 9 | phi
        with pytest.raises(InvalidArgumentError):
            key_from_factors(KeyMode.CUBIC9_COMPOSITE, 7, 11)  # 9 does not divide phi
        with pytest.raises(InvalidArgumentError):
            key_from_factors(KeyMode.CUBIC3_PRIME, 13)  # 1 mod 4
        with pytest.raises(InvalidArgumentError):
            key_from_factors(KeyMode.CUBIC3_PRIME, 19)  # 9 | p-1
        with pytest.raises(ValueError):
            key_from_factors(KeyMode.SQUARE_COMPOSITE, 7, 7)
        with pytest.raises(ValueError):
            key_from_factors(KeyMode.SQUARE_COMPOSITE, 7, 2)
        with pytest.raises(ValueError):
            key_from_factors(KeyMode.CUBIC3_COMPOSITE, 7)  # missing factor
        with pytest.raises(ValueError):
            key_from_factors(KeyMode.CUBIC3_PRIME, 31, 7)  # extra factor

    def test_nine_root_key_with_single_nine_divisible_factor(self):
        key = key_from_factors(KeyMode.CUBIC9_COMPOSITE, 19, 5)
        assert key.phi == 72
        assert len(key.unity_roots) == 3  # nine-root mode key, but only 3 roots exist


class TestGenerateKey:
    def test_deterministic_given_seed(self):
        a = generate_key(KeyMode.CUBIC3_COMPOSITE, bits=48, seed=1234)
        b = generate_key(KeyMode.CUBIC3_COMPOSITE, bits=48, seed=1234)
        assert a == b
        c = generate_key(KeyMode.CUBIC3_COMPOSITE, bits=48, seed=1235)
        assert c != a

    def test_cubic3_totient_congruence_holds_over_1000_keys(self):
        for seed in range(1000):
            key = generate_key(KeyMode.CUBIC3_COMPOSITE, bits=32, seed=seed)
            assert key.phi % 9 in (3, 6)
            assert key.phi % 3 == 0

    @pytest.mark.parametrize("bits", [16, 32, 49])
    def test_modulus_size(self, bits):
        key = generate_key(KeyMode.SQUARE_COMPOSITE, bits=bits, seed=5)
        assert key.n.bit_length() in (bits - 1, bits)

    def test_cubic9_shape(self):
        key = generate_key(KeyMode.CUBIC9_COMPOSITE, bits=32, seed=9)
        assert key.phi % 9 == 0
        assert len(key.unity_roots) == 9
        # both factors keep the exponent path available
        assert (key.p - 1) % 9 != 0 and (key.q - 1) % 9 != 0

    def test_prime_mode_shape(self):
        key = generate_key(KeyMode.CUBIC3_PRIME, bits=24, seed=3)
        p = key.n
        assert p % 3 == 1 and p % 4 == 3 and (p - 1) % 9 != 0
        assert key.alpha == key.unity_roots.roots[1]

    def test_key_files_frozen(self):
        # Reproducible across versions: changing these breaks every stored seed.
        expected = {
            KeyMode.CUBIC3_PRIME: (
                "mode=CUBIC3_PRIME\nn=10159659862873454491\nphi=10159659862873454490\n"
                "alpha=4888595848876250274\n"
            ),
            KeyMode.CUBIC3_COMPOSITE: (
                "mode=CUBIC3_COMPOSITE\nn=8998915973865716207\np=2272212871\nq=3960419417\n"
                "phi=8998915967633083920\nalpha=1809813546257104992\n"
            ),
            KeyMode.CUBIC9_COMPOSITE: (
                "mode=CUBIC9_COMPOSITE\nn=7062050938685339899\np=2272212871\nq=3108005869\n"
                "phi=7062050933305121160\nalpha=2957701677324991381\n"
            ),
            KeyMode.SQUARE_COMPOSITE: (
                "mode=SQUARE_COMPOSITE\nn=6699450872443654991\np=2948425721\nq=2272212871\n"
                "phi=6699450867223016400\n"
            ),
        }
        for mode, text in expected.items():
            assert serialize_key(generate_key(mode, bits=64, seed=1)) == text
        # the modulus README's `keygen --mode cubic9 --bits 256 --seed 42` prints
        assert generate_key(KeyMode.CUBIC9_COMPOSITE, bits=256, seed=42).n == int(
            "36703152446882432410605368686976888659897578541367855530573680524776577506609"
        )

    def test_real_size_key_files_frozen(self):
        # 1024-bit factors lie above the deterministic bound, where each candidate
        # draws witnesses from the seeded RNG: any change to those draws moves the keys.
        expected = {
            KeyMode.CUBIC3_PRIME: "ed82c614473ad24d7bbf42dd8c3f43e903b57ed3e8d8ba301e71400d0a4d7c61",
            KeyMode.CUBIC3_COMPOSITE: "880dde2155d8a3667c119a8f9794fce7c84b7d3e90af3a570cad07b6f0f5ebc3",
            KeyMode.CUBIC9_COMPOSITE: "2c488d9c97916e3734ef0d3af4e866e58fb571e1dc378dd41df69eb191994c1e",
            KeyMode.SQUARE_COMPOSITE: "da06d45aaf906fbc3ce6351729ee97d6a5ce10bc05bafa99dbbe05f2272cc1b6",
        }
        for mode, digest in expected.items():
            text = serialize_key(generate_key(mode, bits=1024, seed=1))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, mode

    def test_bits_floor(self):
        with pytest.raises(ValueError):
            generate_key(KeyMode.CUBIC3_COMPOSITE, bits=7, seed=0)

    def test_bits_ceiling_refused_before_the_search(self, monkeypatch):
        # n < 2**bits fits the n= line's 4300 digits for every n only below 14285 bits
        assert 2**14284 < 10**4300 < 2**14285

        def no_search(*args, **kwargs):
            raise AssertionError("prime search started")

        monkeypatch.setattr(cubetag.keys, "is_probable_prime", no_search)
        with pytest.raises(InvalidArgumentError, match="bits must be < 14285, got 14285"):
            generate_key(KeyMode.CUBIC3_COMPOSITE, bits=14285, seed=1)
        with pytest.raises(AssertionError, match="prime search started"):
            generate_key(KeyMode.CUBIC3_COMPOSITE, bits=14284, seed=1)

    def test_unsatisfiable_size_rejected(self):
        # 13 is the only 4-bit prime with 3 | p-1 but not 9 | p-1, and the
        # factors must differ, so no seed can succeed.
        with pytest.raises(InvalidArgumentError):
            generate_key(KeyMode.CUBIC9_COMPOSITE, bits=8, seed=0)

    def test_q_without_p_rejected(self):
        with pytest.raises(ValueError):
            generate_key(KeyMode.CUBIC3_COMPOSITE, q=11)


def _rebuilt(key, **changes):
    """The key its constructor gives from `key`'s arguments with `changes` applied."""
    return KeyMaterial(**{"mode": key.mode, "n": key.n, "p": key.p, "q": key.q, **changes})


class TestEveryKeyIsChecked:
    """KeyMaterial checks every key against its factors; its constructor is the one way in."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"mode": KeyMode.CUBIC3_PRIME},  # takes one factor
            {"mode": KeyMode.CUBIC9_COMPOSITE},  # 9 does not divide phi = 60
            {"mode": "CUBIC3_COMPOSITE"},  # the mode's name, not the KeyMode
            {"n": 78},
            {"n": 1},
            {"n": 0},
            {"n": 10**4300},  # no n= line holds it
            {"p": 13},  # 13 * 11 is not n
            {"p": 11},  # equal factors
            {"p": None},  # a public key cannot keep q
            {"q": 13},
            {"q": None},  # CUBIC3_COMPOSITE takes two factors
            {"n": 7 * 15, "q": 15},  # 15 is not prime
            {"alpha": 5},  # no cube root of 1 mod 77
            {"alpha": 1},  # the trivial root
            {"alpha": 34},  # a square root of 1, not a cube root
        ],
        ids="-".join,
    )
    def test_clashing_replace_refused(self, key77, changes):
        # alpha is derived, so the constructor takes no such argument
        error = TypeError if "alpha" in changes else CubeTagError
        with pytest.raises(error):
            _rebuilt(key77, **changes)

    def test_mode_switch_without_alpha(self, key77, key77_square):
        # alpha follows the mode: the smallest nontrivial cube root, none in SQUARE mode
        assert _rebuilt(key77, mode=KeyMode.SQUARE_COMPOSITE) == key77_square
        assert _rebuilt(key77_square, mode=KeyMode.CUBIC3_COMPOSITE) == key77

    def test_alpha_choices(self, key77, key77_square):
        # the key makes the choice: the smallest nontrivial root, none in SQUARE mode
        assert key77.alpha == 23 == key77.unity_roots.roots[1]
        assert key77_square.alpha is None
        for alpha in (None, 23, 67):
            with pytest.raises(TypeError, match="alpha"):
                KeyMaterial(KeyMode.CUBIC3_COMPOSITE, 77, 7, 11, alpha=alpha)

    def test_public_key_refusals(self):
        for mode in KeyMode:
            for n in (0, 1, -77):
                with pytest.raises(InvalidArgumentError, match="at least 2"):
                    KeyMaterial(mode, n)
            with pytest.raises(InvalidArgumentError, match="public key"):
                KeyMaterial(mode, 77, q=11)

    @pytest.mark.parametrize(
        "args",
        [
            (KeyMode.CUBIC3_COMPOSITE, 77.0, 7, 11),
            (KeyMode.CUBIC3_COMPOSITE, 77, 7.0, 11),
            ("CUBIC3_COMPOSITE", 77, 7, 11),
            ("CUBIC3_COMPOSITE", 77),
        ],
        ids=["float-n", "float-p", "mode-name", "public-mode-name"],
    )
    def test_wrong_types_refused(self, args):
        # each would write a file parse_key refuses, or fail with a bare error
        with pytest.raises(InvalidArgumentError, match="must be an int|must be a KeyMode"):
            KeyMaterial(*args)


_DESK_PRIMES = sieve(100)[1:]


@st.composite
def _desk_key_arguments(draw):
    """A mode and distinct desk-scale primes, one in prime mode."""
    mode = draw(st.sampled_from(list(KeyMode)))
    count = 1 if mode is KeyMode.CUBIC3_PRIME else 2
    factors = draw(st.lists(st.sampled_from(_DESK_PRIMES), min_size=count, max_size=count,
                            unique=True))
    return mode, math.prod(factors), factors


@settings(max_examples=300, deadline=None)
@given(arguments=_desk_key_arguments())
def test_every_accepted_key_round_trips(arguments):
    """Whenever KeyMaterial accepts a key, its private and public files parse back to it."""
    mode, n, factors = arguments
    try:
        key = KeyMaterial(mode, n, *factors)
    except CubeTagError:
        return
    roots = kth_roots_of_unity(n, mode.exponent)
    assert key.alpha == (None if mode is KeyMode.SQUARE_COMPOSITE else roots[1])
    assert parse_key(serialize_key(key)) == key
    assert parse_key(serialize_key(key.public())) == key.public()


class TestKeyFiles:
    def test_example_key_round_trip(self, key77):
        text = serialize_key(key77)
        assert "n=77\n" in text and "alpha=23\n" in text
        assert text.endswith("\n")
        assert parse_key(text) == key77

    @pytest.mark.parametrize("fixture", ["key31", "key77", "key91", "key77_square"])
    def test_round_trip_all_modes(self, fixture, request):
        key = request.getfixturevalue(fixture)
        assert parse_key(serialize_key(key)) == key
        # serializing what was parsed reproduces the bytes
        assert serialize_key(parse_key(serialize_key(key))) == serialize_key(key)

    def test_public_only_round_trip(self, key91):
        text = serialize_key(key91.public())
        assert text == "mode=CUBIC9_COMPOSITE\nn=91\n"
        parsed = parse_key(text)
        assert parsed == key91.public()

    def test_prime_key_file_has_no_factor_lines(self, key31):
        text = serialize_key(key31)
        assert text == "mode=CUBIC3_PRIME\nn=31\nphi=30\nalpha=5\n"

    def test_empty_file_rejected(self):
        with pytest.raises(KeyFileError):
            parse_key("")

    def test_tampered_mode_rejected(self):
        with pytest.raises(KeyFileError) as info:
            parse_key("mode=CUBIC5_PRIME\nn=31\n")
        assert info.value.line == 1

    def test_bad_decimal_rejected(self):
        # superscript two and Arabic-Indic seven pass str.isdigit but are not ASCII
        # leading zeros and more digits than int() converts are not canonical
        for value in ("sixtyfive", "\u00b2", "7\u0667", "+77", " 77", "",
                      "077", "00", "77 ", "7" * 4301, "7" * 5000):
            with pytest.raises(KeyFileError) as info:
                parse_key(f"mode=CUBIC3_COMPOSITE\nn={value}\n")
            assert info.value.line == 2
        with pytest.raises(KeyFileError) as info:
            parse_key("mode=CUBIC3_COMPOSITE\nn=077\np=07\nq=11\nphi=060\nalpha=023\n")
        assert info.value.line == 2
        assert parse_key(f"mode=CUBIC3_COMPOSITE\nn={'7' * 4300}\n").n == int("7" * 4300)

    def test_missing_final_line_feed_rejected(self, key77):
        for text in (serialize_key(key77)[:-1], "mode=CUBIC9_COMPOSITE\nn=91"):
            with pytest.raises(KeyFileError) as info:
                parse_key(text)
            assert info.value.line == text.count("\n") + 1

    def test_misordered_fields_rejected(self, key77):
        text = serialize_key(key77).replace("p=7\nq=11", "q=11\np=7")
        with pytest.raises(KeyFileError) as info:
            parse_key(text)
        assert info.value.line == 3

    def test_wrong_phi_rejected(self, key77):
        with pytest.raises(KeyFileError) as info:
            parse_key(serialize_key(key77).replace("phi=60", "phi=59"))
        assert info.value.line == 5

    def test_extra_line_rejected(self, key77):
        for extra in ("alpha=23\n", "\n"):
            with pytest.raises(KeyFileError, match="expected end of file") as info:
                parse_key(serialize_key(key77) + extra)
            assert info.value.line == 7

    def test_equal_factors_in_key_file_rejected(self):
        with pytest.raises(KeyFileError, match="distinct") as info:
            parse_key("mode=CUBIC3_COMPOSITE\nn=49\np=7\nq=7\nphi=36\nalpha=2\n")
        assert info.value.line == 3

    def test_wrong_product_rejected(self, key77):
        with pytest.raises(KeyFileError) as info:
            parse_key(serialize_key(key77).replace("n=77", "n=78"))
        assert info.value.line == 2
        # the product matches but the factors do not make a key of the mode:
        # the p= line is named, or n= where n is the prime
        for text, line in (
            (serialize_key(key77).replace("CUBIC3", "CUBIC9"), 3),
            (serialize_key(key77).replace("p=7\nq=11", "p=1\nq=77"), 3),
            ("mode=CUBIC3_PRIME\nn=77\nphi=60\nalpha=23\n", 2),
            # a product too long to print as n= cannot be n
            (f"mode=CUBIC3_COMPOSITE\nn=77\np={'7' * 3000}\nq={'9' * 3000}\nphi=1\nalpha=2\n", 3),
        ):
            with pytest.raises(KeyFileError) as info:
                parse_key(text)
            assert info.value.line == line

    def test_non_prime_factor_names_its_line(self):
        # the factor the primality check refuses is named: p= on line 3, q= on
        # line 4, or n= on line 2 in prime mode, where n is the one factor
        for text, factor, line in (
            ("mode=CUBIC3_COMPOSITE\nn=147\np=7\nq=21\nphi=120\nalpha=2\n", 21, 4),
            ("mode=CUBIC3_COMPOSITE\nn=147\np=21\nq=7\nphi=120\nalpha=2\n", 21, 3),
            # 115 = 5 * 23 fits prime mode's constraint, so its primality is tested
            ("mode=CUBIC3_PRIME\nn=115\nphi=114\nalpha=2\n", 115, 2),
            # a 55-digit factor, which the message shows abridged
            (f"mode=CUBIC3_COMPOSITE\nn={7 * _LONG}\np=7\nq={_LONG}\nphi={6 * (_LONG - 1)}\n"
             "alpha=2\n", _LONG, 4),
            (f"mode=CUBIC3_COMPOSITE\nn={7 * _LONG}\np={_LONG}\nq=7\nphi={6 * (_LONG - 1)}\n"
             "alpha=2\n", _LONG, 3),
        ):
            message = f"{reprlib.repr(factor)} is not an odd prime"
            with pytest.raises(KeyFileError, match=re.escape(message)) as info:
                parse_key(text)
            assert info.value.line == line

    def test_public_modulus_below_two_rejected(self):
        for mode in ("CUBIC3_PRIME", "CUBIC3_COMPOSITE"):
            for n in (0, 1):
                with pytest.raises(KeyFileError, match=f"modulus {n} out of range") as info:
                    parse_key(f"mode={mode}\nn={n}\n")
                assert info.value.line == 2

    def test_tampered_alpha_rejected(self, key77):
        # 24 is no cube root of 1 mod 77; 1 is one, but the trivial one; 67 is a
        # nontrivial one, but not the smallest, so each key has one private file
        for alpha in ("24", "1", "023", "67"):
            with pytest.raises(KeyFileError) as info:
                parse_key(serialize_key(key77).replace("alpha=23", f"alpha={alpha}"))
            assert info.value.line == 6

    def test_overlong_file_rejected(self):
        # the line where the limit is crossed is named
        text = "mode=CUBIC3_COMPOSITE\nn=" + "7" * (MAX_FILE_CHARS - 25) + "\n"
        with pytest.raises(KeyFileError, match="expected n=") as info:
            parse_key(text)
        assert (len(text), info.value.line) == (MAX_FILE_CHARS, 2)
        for longer, line in ((text + "\n", 3), ("\n" * 3 + text, 5)):
            with pytest.raises(KeyFileError, match=f"longer than {MAX_FILE_CHARS} ") as info:
                parse_key(longer)
            assert info.value.line == line

    def test_truncated_private_section_rejected(self, key77):
        lines = serialize_key(key77).splitlines(keepends=True)
        with pytest.raises(KeyFileError) as info:
            parse_key("".join(lines[:-1]))
        assert info.value.line == 6

    def test_public_material_access_guard(self, key91):
        public = key91.public()
        messages = set()
        for name in ("roots", "factors", "phi"):
            with pytest.raises(PrivateKeyRequiredError) as info:
                getattr(public, name)
            messages.add(str(info.value))
        # one gate to the private part, so one message
        assert messages == {"operation needs the private key (the factors of n)"}

    def test_roots_derived_from_factors(self, key77):
        # the factors alone make the private key; its roots cannot be supplied
        assert KeyMaterial(KeyMode.CUBIC3_COMPOSITE, 77, 7, 11) == key77
        assert key77 != (key77.mode, 77, 7, 11)  # a key equals only a key
        with pytest.raises(TypeError, match="unity_roots"):
            _rebuilt(key77, unity_roots=None)
        with pytest.raises(TypeError):  # no field-wise copy skips the checks
            replace(key77)
        with pytest.raises(TypeError):
            KeyMaterial(KeyMode.CUBIC3_COMPOSITE, 77, 7, 11, 23, key77.unity_roots)

    def test_factors(self, key31, key77):
        assert key31.factors == (31,)
        assert key77.factors == (7, 11)

    def test_public_copy_strips_everything(self, key77):
        pub = key77.public()
        assert pub == KeyMaterial(mode=KeyMode.CUBIC3_COMPOSITE, n=77)


# Two 46-bit primes whose product lies above the deterministic Miller-Rabin
# bound (~3.3e24), so only the Baillie-PSW test above it can expose it as composite.
_PRIME_A, _PRIME_B = 35184372088891, 36283883716649
_COMPOSITE = _PRIME_A * _PRIME_B
_LONG = ((1 << 89) - 1) * ((1 << 61) - 1) * 998244353  # 2 mod 3, so 3 || phi with p = 7


@pytest.fixture(scope="module")
def keys256():
    """One key per mode; every factor is above the deterministic bound."""
    return {mode: generate_key(mode, bits=256, seed=5) for mode in KeyMode}


@pytest.fixture
def lucas_tests(record_calls):
    """Records each strong Lucas test as ("_strong_lucas", (n,)): above the deterministic bound,
    each primality test that runs in full runs one."""
    return record_calls(cubetag.modular, "_strong_lucas")


def _lucas(*numbers):
    return [("_strong_lucas", (n,)) for n in numbers]


class TestPrimalityTestedOnce:
    def test_built_key_factors_are_not_retested(self, keys256, lucas_tests):
        for mode, key in keys256.items():
            assert key_from_factors(mode, key.p, key.q) == key
        assert lucas_tests == []

    def test_generated_key_is_not_retested(self, lucas_tests):
        for mode in KeyMode:
            lucas_tests.clear()
            key = generate_key(mode, bits=256, seed=6)
            # the search's own test of each factor, and none after it
            counts = [lucas_tests.count(call) for call in _lucas(*key.factors)]
            assert counts == [1] * len(key.factors), mode

    def test_cross_order_roots_add_no_test(self, keys256, lucas_tests, tmp_path, capsys):
        key = keys256[KeyMode.CUBIC3_COMPOSITE]
        path = tmp_path / "k.key"
        path.write_text(serialize_key(key))
        assert cli.main(["roots", "--key", str(path)]) == 0
        assert len(capsys.readouterr().out.split()) == 3
        # one test per factor, of loading the key, none for the roots
        assert lucas_tests == _lucas(key.p, key.q)

    def test_a_pickle_proves_its_factors_again(self, keys256, lucas_tests):
        # a pickle holds the factors as plain ints, so it names no private class and loading it
        # proves them through the constructor; a shallow copy keeps the proven factors
        key = keys256[KeyMode.CUBIC9_COMPOSITE]
        data = pickle.dumps(key)
        assert b"_ProvenPrime" not in data
        assert copy.copy(key) == key and lucas_tests == []
        assert pickle.loads(data) == key and lucas_tests == _lucas(key.p, key.q)


class TestCheapChecksFirst:
    """A wrong n, an equal factor pair or factors that fail the mode's constraint
    are refused before any primality test."""

    def test_wrong_modulus_costs_no_prime_test(self, keys256, lucas_tests):
        for mode, key in keys256.items():
            if mode is KeyMode.CUBIC3_PRIME:  # n is the factor there
                continue
            text = serialize_key(key).replace(f"n={key.n}\n", f"n={key.n + 2}\n")
            with pytest.raises(KeyFileError, match="expected 'n=") as info:
                parse_key(text)
            assert info.value.line == 2, mode
        assert lucas_tests == []

    def test_equal_factors_cost_no_prime_test(self, keys256, lucas_tests):
        p = keys256[KeyMode.CUBIC3_COMPOSITE].p
        text = f"mode=CUBIC3_COMPOSITE\nn={p * p}\np={p}\nq={p}\nphi={(p - 1) ** 2}\nalpha=2\n"
        with pytest.raises(KeyFileError, match="distinct") as info:
            parse_key(text)
        assert info.value.line == 3
        assert lucas_tests == []

    def test_mode_constraint_costs_no_prime_test(self, keys256, lucas_tests):
        # 256-bit key files relabelled to a cubic mode their totient does not fit
        texts = [
            serialize_key(keys256[KeyMode.CUBIC3_COMPOSITE]).replace("CUBIC3", "CUBIC9"),
            serialize_key(keys256[KeyMode.CUBIC9_COMPOSITE]).replace("CUBIC9", "CUBIC3"),
        ]
        # and a prime at the 4300-digit cap: 1477!+1 has 4042 digits, and 9 | p-1
        p = math.factorial(1477) + 1
        texts.append(f"mode=CUBIC3_COMPOSITE\nn={p * 11}\np={p}\nq=11\nphi={(p - 1) * 10}\n"
                     f"alpha=2\n")
        for text in texts:
            with pytest.raises(KeyFileError, match="needs phi divisible by") as info:
                parse_key(text)
            assert info.value.line == 3
            assert len(str(info.value)) < 200  # p and phi are shown abridged
        assert lucas_tests == []


class TestNonPrimeFactorsRejected:
    def test_composite_factor_in_key_file(self):
        assert is_probable_prime(_PRIME_A) and is_probable_prime(_PRIME_B)
        assert _COMPOSITE > 2**82
        text = (
            f"mode=CUBIC3_COMPOSITE\nn={_COMPOSITE * 13}\np={_COMPOSITE}\nq=13\n"
            f"phi={(_COMPOSITE - 1) * 12}\nalpha=2\n"
        )
        assert (_COMPOSITE - 1) * 12 % 9 == 3  # fits the mode, so the primality test runs
        with pytest.raises(KeyFileError) as info:
            parse_key(text)
        assert info.value.line == 3
        assert "is not" in str(info.value)

    def test_composite_factor_in_root_routines(self):
        for call in (
            lambda: cube_roots_of_unity_prime(_COMPOSITE),
            lambda: cube_roots_of_unity_composite(_COMPOSITE, 11),
            lambda: cube_roots_of_unity_composite(11, _COMPOSITE),
        ):
            with pytest.raises(InvalidArgumentError, match="not an odd prime"):
                call()

    def test_proven_factors_look_like_plain_ints(self, keys256):
        assert not any(
            isinstance(value, type) and issubclass(value, int)
            for value in vars(cubetag).values()
        )
        for key in keys256.values():
            factors = [int(f) for f in key.factors]
            assert {type(f) for f in factors} == {int}
            plain = KeyMaterial(key.mode, key.n, *factors)
            assert plain == key and hash(plain) == hash(key)
            assert repr(plain) == repr(key)
            assert serialize_key(plain) == serialize_key(key)
            # the proof stays with the factor: n and phi are tested in full
            assert type(key.n) is int and type(key.phi) is int
        key = keys256[KeyMode.CUBIC3_COMPOSITE]
        assert not is_probable_prime(key.p * key.q)


@pytest.fixture(params=[0, 4300], ids=["unlimited", "default-limit"])
def int_str_limit(request):
    """Run under no int/str conversion limit, then under Python's default one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str conversion limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(saved)


class TestSerializersRefuseWhatParsersRefuse:
    """A value no canonical decimal of the formats holds is refused on write,
    whatever the interpreter's int/str limit, so every written file parses."""

    WIDEST = 10**4300 - 1

    def test_key_values(self, int_str_limit):
        text = serialize_key(KeyMaterial(KeyMode.CUBIC3_COMPOSITE, n=self.WIDEST))
        assert parse_key(text).n == self.WIDEST
        for n in (self.WIDEST + 1, -77):
            with pytest.raises(InvalidArgumentError, match="at most 4300 digits"):
                serialize_key(KeyMaterial(KeyMode.CUBIC3_COMPOSITE, n=n))

    def test_ciphertext_values(self, int_str_limit):
        mode = KeyMode.CUBIC9_COMPOSITE
        ct = TaggedCiphertext(c=self.WIDEST, tag=self.WIDEST)
        assert parse_ciphertext(serialize_ciphertext(ct), mode) == ct
        for c, tag in ((self.WIDEST + 1, 1), (83, self.WIDEST + 1), (-83, 1)):
            with pytest.raises(InvalidArgumentError, match="at most 4300 digits"):
                serialize_ciphertext(TaggedCiphertext(c=c, tag=tag))

    def test_values_are_written_as_ints(self):
        # a bool is the int it is, so it is written as one; any other non-int is refused
        assert serialize_ciphertext(TaggedCiphertext(34, True)) == "c=34\ntag=1\n"
        with pytest.raises(InvalidArgumentError, match=r"^c must be an int, got 2\.0$"):
            serialize_ciphertext(TaggedCiphertext(2.0, 1))

    def test_overlong_product_names_first_factor(self, int_str_limit):
        # the product of two 3000-digit factors cannot be the n= line
        text = f"mode=CUBIC3_COMPOSITE\nn=77\np={'7' * 3000}\nq={'9' * 3000}\nphi=1\nalpha=2\n"
        with pytest.raises(KeyFileError, match="at most 4300 digits") as info:
            parse_key(text)
        assert info.value.line == 3


def _alpha_file(key):
    """`key`'s private file up to its alpha= line, and that line's number."""
    text = serialize_key(key)
    return text[:text.rindex("alpha=")], text.count("\n")


def _three_root_keys(limit):
    """Every cubic key with n < limit and, by the oracle, exactly three cube roots of 1, with
    them: prime mode, CUBIC3 pairs, and CUBIC9 pairs of a factor with 9 | f-1 and one not 1 mod
    3, in both factor orders."""
    primes = sieve(limit)[1:]
    for p in primes:
        if p % 4 == 3 and (p - 1) % 9 != 0 and len(roots := kth_roots_of_unity(p, 3)) == 3:
            yield key_from_factors(KeyMode.CUBIC3_PRIME, p), roots
    for p in primes:
        for q in primes:
            if p * q >= limit:
                break
            if p != q and len(roots := kth_roots_of_unity(p * q, 3)) == 3:
                mode = KeyMode.CUBIC9_COMPOSITE if (p - 1) * (q - 1) % 9 == 0 else (
                    KeyMode.CUBIC3_COMPOSITE)
                yield key_from_factors(mode, p, q), roots


def _check_alpha_certificates(limit):
    """Each key's true file loads to the oracle's roots; every other alpha in [0, n+2), the
    true one with leading zeros, and each nontrivial root plus n are refused at the alpha line.
    Returns the kinds of key seen."""
    kinds = set()
    for key, roots in _three_root_keys(limit):
        kinds.add((key.mode, key.p % 3 == 1))
        head, line = _alpha_file(key)
        assert tuple(parse_key(f"{head}alpha={key.alpha}\n").roots) == roots == (
            1, key.alpha, key.alpha ** 2 % key.n)
        others = [str(a) for a in range(key.n + 2) if a != key.alpha]
        for alpha in others + [f"0{key.alpha}", f"00{key.alpha}", roots[1] + key.n,
                               roots[2] + key.n]:
            try:
                parse_key(f"{head}alpha={alpha}\n")
            except KeyFileError as exc:
                assert exc.line == line, (key, alpha)
            else:
                raise AssertionError(f"alpha={alpha} accepted for {key!r}")
        # a root plus n has the same residue mod each factor, so it certifies the same roots: a
        # file naming one is refused above either way, so the route itself is checked
        for alpha in (roots[1] + key.n, roots[2] + key.n):
            assert tuple(KeyMaterial(key.mode, key.n, *key.factors, _alpha=alpha).roots) == roots
    return kinds


class TestAlphaCertificate:
    """A key file's alpha, where the factors give three cube roots of 1, stands for all three
    (1, alpha, alpha**2), so a load need not search for them; it is checked, never trusted."""

    def test_sound_for_every_key_below_300(self):
        kinds = _check_alpha_certificates(300)
        # prime mode, and CUBIC3 and CUBIC9 pairs with the factor that is 1 mod 3 first or second
        assert kinds == {(KeyMode.CUBIC3_PRIME, True)} | {
            (mode, first) for mode in (KeyMode.CUBIC3_COMPOSITE, KeyMode.CUBIC9_COMPOSITE)
            for first in (True, False)}

    @pytest.mark.slow
    def test_sound_for_every_key_below_10000(self):
        assert len(_check_alpha_certificates(10_000)) == 5

    def test_nine_root_files_below_2000(self):
        # alpha certifies the roots mod each factor f where alpha mod f != 1, in either order;
        # some files certify both factors and some one
        kinds = set()
        primes = [p for p in sieve(2000) if p % 3 == 1]
        for p in primes:
            for q in primes:
                if p * q >= 2000:
                    break
                if p != q:
                    key = key_from_factors(KeyMode.CUBIC9_COMPOSITE, p, q)
                    loaded = parse_key(serialize_key(key))
                    assert tuple(loaded.roots) == kth_roots_of_unity(p * q, 3) == tuple(key.roots)
                    kinds.add(sum(key.alpha % f != 1 for f in key.factors))
        assert kinds == {1, 2}


_NINE_DIVIDES_P_1, _TWO_MOD_3 = SHAPED_PRIMES[(512, 2, 2)], SHAPED_PRIMES[(512, 1, 0)]


@st.composite
def _three_root_keys_1024(draw):
    """A 1024-bit key with exactly three cube roots of 1: prime mode, CUBIC3, or CUBIC9 from
    stored primes (keygen samples no factor with 9 | p-1), in either order."""
    mode = draw(st.sampled_from([KeyMode.CUBIC3_PRIME, KeyMode.CUBIC3_COMPOSITE,
                                 KeyMode.CUBIC9_COMPOSITE]))
    if mode is KeyMode.CUBIC9_COMPOSITE:
        return key_from_factors(mode, *draw(st.permutations([_NINE_DIVIDES_P_1, _TWO_MOD_3])))
    return generate_key(mode, bits=1024, seed=draw(st.integers(0, 2**16)))


@settings(max_examples=5, deadline=None)
@given(key=_three_root_keys_1024())
def test_other_cube_roots_refused_at_real_size(key):
    # alpha**2 is the other nontrivial root, n - alpha a sixth root, and a root plus n past n
    (head, line), a, n = _alpha_file(key), key.alpha, key.n
    assert len(key.roots) == 3
    for alpha in (a * a % n, n - a, a + n, a * a % n + n):
        with pytest.raises(KeyFileError, match="expected 'alpha=") as info:
            parse_key(f"{head}alpha={alpha}\n")
        assert info.value.line == line


class TestReadingAlphaChangesNoError:
    """Alpha is read leniently, before the factors are proven: a file is refused at the
    same line, with the same message, as if alpha were not read."""

    def test_alpha_past_a_lowered_int_str_limit(self, key77, lowered_int_str_limit):
        text = serialize_key(key77).replace("alpha=23", "alpha=" + "7" * 700)
        with pytest.raises(KeyFileError) as info:
            parse_key(text)
        assert info.value.line == 6
        assert str(info.value) == "line 6: expected 'alpha=23', got 'alpha=777777...7777777777777'"

    @pytest.mark.parametrize("alpha", ["", "x", "-2", "023", "2\u0667", "7" * 4301, "5", "2"],
                             ids=["empty", "word", "sign", "zero", "non-ascii", "long", "5", "2"])
    def test_non_prime_factor_named_whatever_the_alpha(self, alpha):
        composite = (f"mode=CUBIC3_COMPOSITE\nn={_COMPOSITE * 13}\np={_COMPOSITE}\nq=13\n"
                     f"phi={(_COMPOSITE - 1) * 12}\n")
        for head, line in ((composite, 3),
                           ("mode=CUBIC3_COMPOSITE\nn=147\np=7\nq=21\nphi=120\n", 4),
                           ("mode=CUBIC3_PRIME\nn=115\nphi=114\n", 2)):
            with pytest.raises(KeyFileError, match="is not an odd prime") as info:
                parse_key(f"{head}alpha={alpha}\n")
            assert info.value.line == line

    def test_public_and_square_files_read_no_alpha(self, key77, key77_square, key91):
        for key in (key77.public(), key91.public(), key77_square):
            assert parse_key(serialize_key(key)) == key
        # no alpha line is read where the format has none: it is refused as a line
        for text, line, message in (
            (serialize_key(key77_square) + "alpha=23\n", 6,
             "expected end of file, got 'alpha=23'"),
            (serialize_key(key77).replace("CUBIC3", "SQUARE"), 6,
             "expected end of file, got 'alpha=23'"),
            ("mode=CUBIC3_COMPOSITE\nn=77\nalpha=23\n", 3,
             "expected p=<canonical decimal>, got 'alpha=23'"),
        ):
            with pytest.raises(KeyFileError) as info:
                parse_key(text)
            assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")


_LOAD_WORK = ("_strong_lucas", "_strong_probable_prime", "_primitive_unity_root")


@pytest.fixture
def load_work(record_calls):
    """`load_work(call)` runs `call` and gives its counts of strong Lucas chains, strong
    probable-prime rounds and searches for a primitive root of unity."""
    record_calls(cubetag.modular, *_LOAD_WORK[:2])
    calls = record_calls(cubetag.roots, _LOAD_WORK[2])

    def work(call):
        calls.clear()
        call()
        return tuple([name for name, _ in calls].count(name) for name in _LOAD_WORK)
    return work


class TestWorkPerKeyLoad:
    """Counted work of one load, each mode at 256 and 1024 bits and seeds 1-4: each factor proven
    once, by KeyMaterial's guard and never by the public prime routine, with a base-2 round and a
    Lucas chain; a non-residue search for each factor whose decrypts need a generator
    (k**2 | f-1), and one for cube roots of 1 mod f only where the file's alpha cannot certify
    them."""

    # searches per load at seeds 1-4. At 1024 bits seed 1's nine-root alpha is 1 mod p, so it
    # certifies q's roots and p is searched, and seed 3's is a nontrivial cube root of 1 mod both
    # factors, so nothing is; seed 1's SQUARE roots are 1 and -1 mod each factor, but 4 | p-1 and
    # 16 | q-1, so the decrypts' generators are searched for here, once per key
    SEARCHES = {KeyMode.CUBIC3_PRIME: {256: (0, 0, 0, 0), 1024: (0, 0, 0, 0)},
                KeyMode.CUBIC3_COMPOSITE: {256: (0, 0, 0, 0), 1024: (0, 0, 0, 0)},
                KeyMode.CUBIC9_COMPOSITE: {256: (0, 1, 0, 0), 1024: (1, 1, 0, 1)},
                KeyMode.SQUARE_COMPOSITE: {256: (1, 1, 2, 0), 1024: (2, 2, 1, 2)}}
    # from the factors alone, each factor with 3 | f-1, and each SQUARE factor with 4 | f-1
    # (both here), is searched
    BUILT = {KeyMode.CUBIC3_PRIME: 1, KeyMode.CUBIC3_COMPOSITE: 1,
             KeyMode.CUBIC9_COMPOSITE: 2, KeyMode.SQUARE_COMPOSITE: 2}
    PROOF = ("is_probable_prime", "_strong_probable_prime", "_strong_lucas")

    def test_file_load(self, record_calls):
        record_calls(cubetag.roots, "cube_roots_of_unity_prime", "is_probable_prime",
                     "_primitive_unity_root")
        calls = record_calls(cubetag.modular, *self.PROOF[1:])
        for mode, per_bits in self.SEARCHES.items():
            for bits, per_seed in per_bits.items():
                for seed, searches in zip((1, 2, 3, 4), per_seed):
                    key = generate_key(mode, bits, seed)
                    text = serialize_key(key)
                    calls.clear()
                    assert parse_key(text) == key
                    proofs = [(name, args[0]) for name, args in calls
                              if name != "_primitive_unity_root"]
                    assert proofs == [(name, f) for f in key.factors for name in self.PROOF], (
                        mode, bits, seed)
                    assert len(calls) - len(proofs) == searches, (mode, bits, seed)
                    if mode is KeyMode.CUBIC9_COMPOSITE and not searches:
                        # no search: alpha is a nontrivial cube root of 1 mod both factors
                        assert all(key.alpha % f != 1 for f in key.factors), (bits, seed)

    def test_key_from_factors_searches(self, keys1024, load_work):
        for mode, key in keys1024.items():
            factors = [int(f) for f in key.factors]  # plain ints, so each is proven again
            count = len(factors)
            built = load_work(lambda: key_from_factors(mode, *factors))
            assert built == (count, count, self.BUILT[mode]), mode


def test_inverses_mod_a_factor(keys1024, record_calls):
    """Garner's q**-1 mod p is taken once per key, when it is built: a composite decrypt and a
    digit stream take no inverse mod a factor, nor does a SQUARE decrypt's corrected guess invert
    its ciphertext, and a nine-root file load takes that one inverse."""
    for module in (cubetag.modular, cubetag.roots, cubetag.keys, cubetag.cipher, cubetag.prng):
        calls = record_calls(module, "pow")

    def inverses(call, key):
        calls.clear()
        call()
        return sum(args[1] == -1 and args[2] in key.factors for _, args in calls)

    for mode in (KeyMode.CUBIC3_COMPOSITE, KeyMode.CUBIC9_COMPOSITE, KeyMode.SQUARE_COMPOSITE):
        key = keys1024[mode]
        for m in (2, 3, 5, 7):
            ct = encrypt(m, key)
            assert inverses(lambda: decrypt(ct, key), key) == 0, (mode, m)
    key = keys1024[KeyMode.CUBIC9_COMPOSITE]
    assert inverses(lambda: digit_stream(key, 5, 2, 100), key) == 0
    text = serialize_key(key)
    assert inverses(lambda: parse_key(text), key) == 1


def test_a_factor_with_its_own_cube_roots_is_searched_once(record_calls):
    # 9 | 19-1, so 19's search for the decrypts' generator also gives its cube roots of 1: the
    # composite routine, which would search 19 again, runs only where no factor has its own
    # roots, and Garner's inverse mod 19 is taken once, for the key's record
    record_calls(cubetag.roots, "_primitive_unity_root")
    for module in (cubetag.modular, cubetag.roots, cubetag.keys):
        calls = record_calls(module, "pow")
    key = key_from_factors(KeyMode.CUBIC9_COMPOSITE, 19, 7)
    searched = [args[0] for name, args in calls if name == "_primitive_unity_root"]
    inverses = [args[2] for name, args in calls if name == "pow" and args[1] == -1]
    assert (searched, inverses) == ([19, 7], [19])
    assert key.roots.roots == kth_roots_of_unity(133, 3)


def test_root_routines_prove_each_plain_factor_once(keys1024, load_work):
    # a routine's own guard proves each plain-int factor and passes it on proven; both
    # factors have 3 | f-1, so each has a primitive cube root of 1 to search for
    p, q = (int(f) for f in keys1024[KeyMode.CUBIC9_COMPOSITE].factors)
    assert load_work(lambda: cube_roots_of_unity_prime(p)) == (1, 1, 1)
    assert load_work(lambda: cube_roots_of_unity_composite(p, q)) == (2, 2, 2)


_SEARCH_WORK = ("_odd_prime_product", "is_probable_prime", "_strong_probable_prime",
                "_strong_lucas")


class TestWorkPerKeygen:
    """Counted work of generate_key(mode, 1024, seed=1), per factor in the order searched: the
    candidates past trial division that the search screens by a gcd with the odd primes below
    2**16, those past the screen (each then tested by is_probable_prime, so Baillie-PSW), its
    base-2 rounds and its Lucas chains. Only a factor's last candidate passes the base-2 round,
    so each factor's count ends at its one Lucas chain."""

    WORK = {KeyMode.CUBIC3_PRIME: [(41, 23, 23, 1)],
            KeyMode.CUBIC3_COMPOSITE: [(17, 8, 8, 1), (4, 3, 3, 1)],
            KeyMode.CUBIC9_COMPOSITE: [(17, 8, 8, 1), (1, 1, 1, 1)],
            KeyMode.SQUARE_COMPOSITE: [(2, 1, 1, 1), (9, 4, 4, 1)]}

    def test_search_per_factor(self, record_calls):
        record_calls(cubetag.keys, *_SEARCH_WORK[:2])
        recorded = record_calls(cubetag.modular, *_SEARCH_WORK[2:])
        for mode, work in self.WORK.items():
            recorded.clear()
            generate_key(mode, bits=1024, seed=1)
            calls, per_factor = [name for name, _ in recorded], []
            while "_strong_lucas" in calls:
                end = calls.index("_strong_lucas") + 1
                per_factor.append(tuple(calls[:end].count(name) for name in _SEARCH_WORK))
                del calls[:end]
            assert (per_factor, calls) == (work, []), mode
