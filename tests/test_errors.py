"""Every failure the package raises reaches a library caller as a CubeTagError."""

import pytest

from cubetag import (
    CubeTagError,
    InvalidArgumentError,
    KeyMode,
    UnityRootSet,
    cube_root_by_exponent,
    digit_stream,
    key_from_factors,
    play_round,
)


def test_invalid_arguments_are_typed(key77, key91):
    probes = (
        lambda: play_round(key91, 2, 0, 1),  # group choice out of range
        lambda: digit_stream(key91, 1, 2, 3),  # seed out of range
        lambda: cube_root_by_exponent(2, key91),  # 9 | phi: no inverse exponent
        lambda: key_from_factors(KeyMode.CUBIC3_COMPOSITE, 7, 9),  # 9 is not prime
        lambda: play_round(key77, 2, 1, 1),  # three roots, the game needs nine
        lambda: UnityRootSet(0, 3, (1,)),  # modulus below 2
    )
    for probe in probes:
        with pytest.raises(CubeTagError) as info:
            probe()
        # still a ValueError, as before the type existed
        assert isinstance(info.value, InvalidArgumentError)
        assert isinstance(info.value, ValueError)
