"""Every failure the package raises reaches a library caller as a CubeTagError."""

import reprlib
import sys

import pytest

from cubetag import (
    CubeTagError,
    InvalidArgumentError,
    InvalidCiphertextError,
    InvalidMessageError,
    KeyFileError,
    KeyGenerationError,
    KeyMaterial,
    KeyMode,
    NotInvertibleError,
    PrngState,
    TaggedCiphertext,
    cube_root_by_exponent,
    crt_combine,
    cube_roots_of_unity_composite,
    decrypt,
    digit_stream,
    encrypt,
    generate_key,
    key_from_factors,
    kth_root_mod_prime,
    mod_inverse,
    parse_ciphertext,
    parse_key,
    play_round,
    prng_next,
    serialize_key,
)


def test_invalid_arguments_are_typed(key77, key91):
    probes = (
        lambda: play_round(key91, 2, 0, 1),  # group choice out of range
        lambda: digit_stream(key91, 1, 2, 3),  # seed out of range
        lambda: cube_root_by_exponent(2, key91),  # 9 | phi: no inverse exponent
        lambda: key_from_factors(KeyMode.CUBIC3_COMPOSITE, 7, 9),  # 9 is not prime
        lambda: play_round(key77, 2, 1, 1),  # three roots, the game needs nine
        lambda: cube_roots_of_unity_composite(7, 7),  # crt moduli must be coprime
        lambda: prng_next(PrngState(0, 2)),  # modulus below 2
        lambda: digit_stream(key91, 5, 2.0, 3),  # radix not an int
        lambda: digit_stream(key91, 5.0, 2, 3),  # seed not an int
        lambda: digit_stream(key91, 5, 2, 3.0),  # count not an int
        lambda: crt_combine(1, 2, 3.0, 5),  # modulus not an int
        lambda: crt_combine(1.0, 2, 3, 5),  # residue not an int
        lambda: kth_root_mod_prime(2, 7.0, 3),  # modulus not an int
        lambda: kth_root_mod_prime(2.0, 7, 3),  # residue not an int
        lambda: kth_root_mod_prime(2, 7, 2.0),  # order not an int
    )
    for probe in probes:
        with pytest.raises(CubeTagError) as info:
            probe()
        # still a ValueError, as before the type existed
        assert isinstance(info.value, InvalidArgumentError)
        assert isinstance(info.value, ValueError)


@pytest.fixture
def lowered_int_str_limit():
    """Lower the interpreter's int/str conversion limit to its least, 640 digits, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str conversion limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


def test_value_past_a_lowered_conversion_limit_names_its_line(lowered_int_str_limit):
    # canonical decimal within the formats' 4300 digits, past the interpreter's limit
    value = "7" * 700
    for parse, text, line in (
        (lambda t: parse_ciphertext(t, KeyMode.CUBIC3_COMPOSITE), f"c={value}\ntag=1\n", 1),
        (parse_key, f"mode=CUBIC3_COMPOSITE\nn={value}\n", 2),
    ):
        with pytest.raises(KeyFileError) as info:
            parse(text)
        assert info.value.line == line


@pytest.fixture(scope="module")
def key2400():
    """A key whose n (723 digits) and factors (362) print only under a limit above 640 digits."""
    return generate_key(KeyMode.CUBIC3_COMPOSITE, bits=2400, seed=1)


# Each call formats an int past the lowered limit into a message or a file.
PAST_THE_LIMIT = {
    "encrypt": (lambda key: encrypt(key.n + 1, key), InvalidMessageError),
    "decrypt": (lambda key: decrypt(TaggedCiphertext(key.n + 5, 1, key.mode), key),
                InvalidCiphertextError),
    "serialize_key": (serialize_key, InvalidArgumentError),
    "mod_inverse": (lambda key: mod_inverse(key.p, key.n), NotInvertibleError),
    "KeyMaterial": (lambda key: KeyMaterial(KeyMode.CUBIC9_COMPOSITE, key.n, key.p, key.q),
                    KeyGenerationError),
    "KeyMaterial mode": (lambda key: KeyMaterial(key.n, 5), InvalidArgumentError),
}


@pytest.mark.parametrize("call, error", PAST_THE_LIMIT.values(), ids=PAST_THE_LIMIT)
def test_ints_past_a_lowered_conversion_limit_raise_typed_errors(
        key2400, lowered_int_str_limit, call, error):
    with pytest.raises(error) as info:
        call(key2400)
    assert "-bit int>" in str(info.value) or "file values" in str(info.value)


def test_messages_show_ints_as_reprlib_abridges_them():
    from cubetag.errors import _show

    # so a message's length is bounded, and a desk-scale message shows the whole value
    for value in (0, 77, -77, 10**39, 10**40, -(10**40), 7**400):
        assert _show(value) == reprlib.repr(value)
    assert str(NotInvertibleError(7, 77, 7)) == "7 is not invertible mod 77 (gcd 7)"
