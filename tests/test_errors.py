"""Every failure the package raises reaches a library caller as a CubeTagError."""

import reprlib

import pytest

import cubetag
from cubetag import (
    CubeTagError,
    InvalidArgumentError,
    InvalidCiphertextError,
    InvalidMessageError,
    KeyFileError,
    KeyMaterial,
    KeyMode,
    NotInvertibleError,
    PrngState,
    TaggedCiphertext,
    cube_root_by_exponent,
    crt_combine,
    cube_roots_of_unity_composite,
    cube_roots_of_unity_prime,
    decrypt,
    decrypt_candidates,
    digit_stream,
    encrypt,
    generate_key,
    is_probable_prime,
    key_from_factors,
    mod_inverse,
    pack_bits_hex,
    parse_ciphertext,
    parse_key,
    partition_nine_roots,
    play_round,
    prng_init,
    prng_next,
    serialize_ciphertext,
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
    )
    for probe in probes:
        with pytest.raises(CubeTagError) as info:
            probe()
        # still a ValueError, as before the type existed
        assert isinstance(info.value, InvalidArgumentError)
        assert isinstance(info.value, ValueError)


def _decrypt91(c, tag):
    return lambda key91: decrypt(TaggedCiphertext(c, tag), key91)


def _factors(mode, p, q):
    return lambda key91: key_from_factors(mode, p, q)


_NOT_91 = "ciphertext must be in [1, 91) and coprime to n, got "

# One class per failure a caller can act on: a (c, tag) pair under the 7*13 key that cannot be
# inverted, whatever the reason, and a bad argument to key building, whatever the argument.
ONE_CLASS_PER_BAD_INPUT = {
    "c=0": (_decrypt91(0, 1), InvalidCiphertextError, _NOT_91 + "0"),
    "c=n": (_decrypt91(91, 1), InvalidCiphertextError, _NOT_91 + "91"),
    "c shares 7": (_decrypt91(14, 1), InvalidCiphertextError, _NOT_91 + "14"),
    "c no cube": (_decrypt91(2, 1), InvalidCiphertextError, "2 has no cube root mod 7"),
    "c float": (_decrypt91(34.0, 1), InvalidCiphertextError, _NOT_91 + "34.0"),
    "tag=0": (_decrypt91(83, 0), InvalidCiphertextError, "tag 0 outside [1, 9]"),
    "tag=10": (_decrypt91(83, 10), InvalidCiphertextError, "tag 10 outside [1, 9]"),
    "tag float": (_decrypt91(83, 1.5), InvalidCiphertextError, "tag 1.5 outside [1, 9]"),
    "mode shape": (_factors(KeyMode.CUBIC9_COMPOSITE, 7, 11), InvalidArgumentError,
                   "CUBIC9_COMPOSITE needs phi divisible by 9; p=7, phi=60 fails"),
    "equal": (_factors(KeyMode.CUBIC3_COMPOSITE, 7, 7), InvalidArgumentError,
              "factors must be distinct"),
    "not prime": (_factors(KeyMode.CUBIC3_COMPOSITE, 7, 15), InvalidArgumentError,
                  "15 is not an odd prime"),
    "p None": (_factors(KeyMode.SQUARE_COMPOSITE, None, 11), InvalidArgumentError,
               "p must be an int, got None"),
    "p str": (_factors(KeyMode.SQUARE_COMPOSITE, "7", 11), InvalidArgumentError,
              "p must be an int, got '7'"),
    "no prime": (lambda key91: generate_key(KeyMode.CUBIC9_COMPOSITE, 8, seed=1),
                 InvalidArgumentError, "no 4-bit prime satisfying the mode constraints found; "
                 "constraints may be unsatisfiable at this size"),
    "m float": (lambda key91: encrypt(2.0, key91), InvalidMessageError,
                "message must be in [1, 91), got 2.0"),
    "m str": (lambda key91: encrypt("2", key91), InvalidMessageError,
              "message must be in [1, 91), got '2'"),
    "ct mode str": (lambda key91: parse_ciphertext("c=34\ntag=1\n", "x"),
                    InvalidArgumentError, "mode must be a KeyMode, got 'x'"),
    "prime float": (lambda key91: is_probable_prime(7.0), InvalidArgumentError,
                    "n must be an int, got 7.0"),
    "inverse float": (lambda key91: mod_inverse(1.5, 7), InvalidArgumentError,
                      "a must be an int, got 1.5"),
    "keygen mode str": (lambda key91: generate_key("CUBIC3_COMPOSITE", 64), InvalidArgumentError,
                        "mode must be a KeyMode, got 'CUBIC3_COMPOSITE'"),
    "key file bytes": (lambda key91: parse_key(b"mode=CUBIC3_COMPOSITE\nn=77\n"),
                       InvalidArgumentError, "file text must be a str, got bytes"),
    "ct file bytes": (lambda key91: parse_ciphertext(b"c=34\ntag=1\n", KeyMode.CUBIC3_COMPOSITE),
                      InvalidArgumentError, "file text must be a str, got bytes"),
    "roots list": (lambda key91: partition_nine_roots([1] * 9), InvalidArgumentError,
                   "expected a key's root set, got [1, 1, 1, 1, 1, 1, ...]"),
}


@pytest.mark.parametrize("call, error, message", ONE_CLASS_PER_BAD_INPUT.values(),
                         ids=ONE_CLASS_PER_BAD_INPUT)
def test_one_class_per_bad_input(key91, call, error, message):
    with pytest.raises(CubeTagError) as info:
        call(key91)
    assert type(info.value) is error and str(info.value) == message


def _slots(*calls, value=2, none=True):
    """(call, value, others) per call: the int `value`, and what is tried in its place: its float,
    str and bytes, and None unless None is the parameter's default, which has a meaning there."""
    others = (float(value), str(value), *([None] if none else []), str(value).encode())
    return tuple((call, value, others) for call in calls)


_CUBIC3 = KeyMode.CUBIC3_COMPOSITE

# Every name in cubetag.__all__, with one call per int it takes, `x` in that int's place under the
# 7*13 key. A record's ints are tried through the functions that read them. The exception and
# record classes (built by the package or read by a function below), KeyMode and the functions
# that take no int have no call.
INT_ARGUMENTS = {
    **dict.fromkeys((
        "CubeTagError", "InvalidArgumentError", "InvalidCiphertextError", "InvalidMessageError",
        "KeyFileError", "NotInvertibleError", "PrivateKeyRequiredError", "GameRound", "PrngState",
        "RootGrouping", "TaggedCiphertext", "KeyMode", "companion_table", "parse_ciphertext",
        "parse_key", "partition_nine_roots", "serialize_key",
    ), ()),
    "KeyMaterial": _slots(lambda key91, x: KeyMaterial(_CUBIC3, x),
                          lambda key91, x: KeyMaterial(_CUBIC3, 77, x, 11),
                          lambda key91, x: KeyMaterial(_CUBIC3, 77, 7, x)),
    "generate_key": (*_slots(lambda key91, x: generate_key(_CUBIC3, x, seed=1),
                             lambda key91, x: generate_key(_CUBIC3, x, p=7, q=11),
                             lambda key91, x: generate_key(_CUBIC3, 64, p=x, q=11),
                             lambda key91, x: generate_key(_CUBIC3, 64, p=7, q=x)),
                     # seed=None draws a random seed
                     *_slots(lambda key91, x: generate_key(_CUBIC3, 64, seed=x),
                             lambda key91, x: generate_key(_CUBIC3, 64, seed=x, p=7, q=11),
                             none=False)),
    "key_from_factors": _slots(lambda key91, x: key_from_factors(_CUBIC3, x, 11),
                               lambda key91, x: key_from_factors(_CUBIC3, 7, x)),
    "cube_root_by_exponent": _slots(
        lambda key91, x: cube_root_by_exponent(x, key_from_factors(_CUBIC3, 7, 11))),
    "decrypt": _slots(lambda key91, x: decrypt(TaggedCiphertext(x, 2), key91),
                      lambda key91, x: decrypt(TaggedCiphertext(83, x), key91)),
    "decrypt_candidates": _slots(lambda key91, x: decrypt_candidates(x, key91)),
    "encrypt": _slots(lambda key91, x: encrypt(x, key91)),
    "serialize_ciphertext": _slots(lambda key91, x: serialize_ciphertext(TaggedCiphertext(x, 2)),
                                   lambda key91, x: serialize_ciphertext(TaggedCiphertext(83, x))),
    "play_round": _slots(lambda key91, x: play_round(key91, x, 1, 2),
                         lambda key91, x: play_round(key91, 12, x, 2),
                         lambda key91, x: play_round(key91, 12, 1, x)),
    "crt_combine": _slots(lambda key91, x: crt_combine(x, 2, 3, 5),
                          lambda key91, x: crt_combine(1, x, 3, 5),
                          lambda key91, x: crt_combine(1, 2, x, 5),
                          lambda key91, x: crt_combine(1, 2, 3, x)),
    "is_probable_prime": _slots(lambda key91, x: is_probable_prime(x)),
    "mod_inverse": _slots(lambda key91, x: mod_inverse(x, 7), lambda key91, x: mod_inverse(3, x)),
    "digit_stream": _slots(lambda key91, x: digit_stream(key91, x, 2, 3),
                           lambda key91, x: digit_stream(key91, 5, x, 3),
                           lambda key91, x: digit_stream(key91, 5, 2, x)),
    "pack_bits_hex": _slots(lambda key91, x: pack_bits_hex([1, x]), value=1),
    "prng_init": _slots(lambda key91, x: prng_init(key91, x)),
    "prng_next": _slots(lambda key91, x: prng_next(PrngState(x, 5)),
                        lambda key91, x: prng_next(PrngState(91, x))),
    "cube_roots_of_unity_composite": _slots(lambda key91, x: cube_roots_of_unity_composite(x, 13),
                                            lambda key91, x: cube_roots_of_unity_composite(7, x)),
    "cube_roots_of_unity_prime": _slots(lambda key91, x: cube_roots_of_unity_prime(x)),
}


def _outcome(call, key91, x):
    """What the call returns, or CubeTagError if it raises one; any other exception propagates."""
    try:
        return call(key91, x)
    except CubeTagError:
        return CubeTagError


@pytest.mark.parametrize("name", sorted(set(cubetag.__all__) | set(INT_ARGUMENTS)))
def test_every_public_name_refuses_what_is_not_an_int(key91, name):
    # a name added to __all__ needs a row, and a row needs its name in __all__
    assert name in cubetag.__all__ and name in INT_ARGUMENTS
    for call, value, others in INT_ARGUMENTS[name]:
        expected = _outcome(call, key91, value)
        for other in others:
            got = _outcome(call, key91, other)
            # a CubeTagError, or what the int gives for what equals it (2.0 for 2)
            assert got is CubeTagError or (other == value and got == expected), (name, other)


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
    "decrypt": (lambda key: decrypt(TaggedCiphertext(key.n + 5, 1), key),
                InvalidCiphertextError),
    "serialize_key": (serialize_key, InvalidArgumentError),
    "mod_inverse": (lambda key: mod_inverse(key.p, key.n), NotInvertibleError),
    "KeyMaterial": (lambda key: KeyMaterial(KeyMode.CUBIC9_COMPOSITE, key.n, key.p, key.q),
                    InvalidArgumentError),
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
