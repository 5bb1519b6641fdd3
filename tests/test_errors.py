"""Every failure the package raises reaches a library caller as a CubeTagError."""

import sys

import pytest

from cubetag import (
    CubeTagError,
    InvalidArgumentError,
    KeyFileError,
    KeyMode,
    PrngState,
    UnityRootSet,
    cube_root_by_exponent,
    digit_stream,
    key_from_factors,
    parse_ciphertext,
    parse_key,
    play_round,
    prng_next,
)


def test_invalid_arguments_are_typed(key77, key91):
    probes = (
        lambda: play_round(key91, 2, 0, 1),  # group choice out of range
        lambda: digit_stream(key91, 1, 2, 3),  # seed out of range
        lambda: cube_root_by_exponent(2, key91),  # 9 | phi: no inverse exponent
        lambda: key_from_factors(KeyMode.CUBIC3_COMPOSITE, 7, 9),  # 9 is not prime
        lambda: play_round(key77, 2, 1, 1),  # three roots, the game needs nine
        lambda: UnityRootSet(0, 3, (1,)),  # modulus below 2
        lambda: prng_next(PrngState(0, 2)),  # modulus below 2
    )
    for probe in probes:
        with pytest.raises(CubeTagError) as info:
            probe()
        # still a ValueError, as before the type existed
        assert isinstance(info.value, InvalidArgumentError)
        assert isinstance(info.value, ValueError)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_value_past_a_lowered_conversion_limit_names_its_line():
    # canonical decimal within the formats' 4300 digits, past the interpreter's limit
    value = "7" * 700
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for parse, text, line in (
            (lambda t: parse_ciphertext(t, KeyMode.CUBIC3_COMPOSITE), f"c={value}\ntag=1\n", 1),
            (parse_key, f"mode=CUBIC3_COMPOSITE\nn={value}\n", 2),
        ):
            with pytest.raises(KeyFileError) as info:
                parse(text)
            assert info.value.line == line
    finally:
        sys.set_int_max_str_digits(old)
