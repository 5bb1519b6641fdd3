import math

import pytest

from cubetag import (
    InvalidArgumentError,
    KeyMode,
    cube_roots_of_unity_composite,
    cube_roots_of_unity_prime,
    generate_key,
    key_from_factors,
)
from cubetag.modular import _primitive_unity_root
from cubetag.roots import _prime_unity_roots
from oracles import kth_roots_of_unity, sieve
from shaped_primes import SHAPED_PRIMES


class TestCubeRootsPrime:
    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            cube_roots_of_unity_prime(77)
        with pytest.raises(ValueError):
            cube_roots_of_unity_prime(2)

    def test_matches_enumeration_below_2000(self):
        for p in sieve(2000)[1:]:
            root_set = cube_roots_of_unity_prime(p)
            assert (root_set.modulus, root_set.roots) == (p, kth_roots_of_unity(p, 3))


def test_prime_unity_roots_rule_matches_enumeration_below_2000():
    # every branch of the one rule mod a prime: -1 for squares, the AMM record's zeta where
    # k**2 | f-1, alpha mod f where it is a nontrivial cube root of 1, else a search or {1};
    # alpha is None, 1, each cube root of 1 (and the last shifted by f) or a non-root
    for f in sieve(2000)[1:]:
        cube_roots = kth_roots_of_unity(f, 3)
        non_root = next(a for a in range(2, f + 2) if pow(a, 3, f) != 1)
        alphas = (None, 1, *cube_roots, cube_roots[-1] + f, non_root)
        for k in (2, 3):
            unity = _primitive_unity_root(f, k) if (f - 1) % k**2 == 0 else None
            expected = kth_roots_of_unity(f, k)
            for alpha in alphas:
                assert _prime_unity_roots(f, k, unity, alpha) == expected, (f, k, alpha)


class TestCubeRootsComposite:
    def test_equal_factors_rejected(self):
        with pytest.raises(ValueError):
            cube_roots_of_unity_composite(7, 7)

    def test_matches_enumeration_up_to_10000(self):
        primes = [p for p in sieve(3400) if p > 2]
        for i, p in enumerate(primes):
            for q in primes[i + 1:]:
                n = p * q
                if n > 10_000:
                    break
                root_set = cube_roots_of_unity_composite(p, q)
                assert (root_set.modulus, root_set.roots) == (n, kth_roots_of_unity(n, 3))


def _square_roots(p, q):
    return key_from_factors(KeyMode.SQUARE_COMPOSITE, p, q).roots


class TestSquareRootsComposite:
    """A SQUARE key's roots of 1: -1 and 1 mod each factor, joined by CRT."""

    def test_matches_enumeration(self):
        for p, q in [(3, 5), (7, 11), (13, 17), (29, 31), (41, 43)]:
            root_set = _square_roots(p, q)
            assert (root_set.modulus, root_set.roots) == (p * q, kth_roots_of_unity(p * q, 2))

    def test_equal_factors_rejected(self):
        with pytest.raises(ValueError):
            _square_roots(11, 11)


class TestNonIntFactorsRefused:
    """Each routine works on the factors its guard proved, so a factor that is not an int is
    refused, as KeyMaterial refuses it, not turned into a float modulus or a bare TypeError."""

    @pytest.mark.parametrize("factor", [7.0, 11.0, 13.0, "7", None], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda f: cube_roots_of_unity_prime(f),
        lambda f: cube_roots_of_unity_composite(f, 13.0),
        lambda f: cube_roots_of_unity_composite(7, f),
    ], ids=["cube-prime", "cube-composite-p", "cube-composite-q"])
    def test_refused(self, call, factor):
        with pytest.raises(InvalidArgumentError) as info:
            call(factor)
        assert str(info.value) == f"{factor!r} is not an odd prime"


# A 2048-bit prime's primality test (Baillie-PSW) takes a few tenths of a second.
_SHAPES = [pytest.param(shape, id="-".join(map(str, shape))) for shape in sorted(SHAPED_PRIMES)]


class TestRealSizes:
    """Unity roots of real-size primes, including the 9 | p-1 shape keygen never samples."""

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_prime_roots_are_powers_of_a_primitive_root(self, shape):
        p = SHAPED_PRIMES[shape]
        roots = cube_roots_of_unity_prime(p).roots
        if (p - 1) % 3:
            assert roots == (1,)
            return
        assert len(roots) == 3 and roots[0] == 1 and list(roots) == sorted(roots)
        for u in roots:
            assert pow(u, 3, p) == 1
        for u in roots[1:]:
            assert (1 + u + u * u) % p == 0

    def test_composite_sets(self):
        p, q = SHAPED_PRIMES[512, 1, 1], SHAPED_PRIMES[512, 2, 2]
        cubes = cube_roots_of_unity_composite(p, q).roots
        assert len(cubes) == 9 and all(pow(u, 3, p * q) == 1 for u in cubes)
        p = SHAPED_PRIMES[512, 1, 0]
        squares = _square_roots(p, q).roots
        assert len(squares) == 4 and all(u * u % (p * q) == 1 for u in squares)


def _assert_unity_roots(key):
    """What the root routines build by construction, and no runtime check re-verifies."""
    roots, n, k = key.unity_roots.roots, key.n, key.mode.exponent
    assert list(roots) == sorted(set(roots))
    assert roots[0] == 1 and roots[-1] < n
    assert all(pow(u, k, n) == 1 for u in roots)
    assert len(roots) == math.prod(math.gcd(k, f - 1) for f in key.factors)


class TestKeyRootInvariants:
    """Every key's roots of 1 are ascending, distinct, from 1, below n and all of them."""

    @pytest.mark.parametrize("bits", [256, 1024])
    @pytest.mark.parametrize("mode", list(KeyMode), ids=lambda mode: mode.name)
    def test_generated_keys(self, mode, bits):
        for seed in (1, 2, 3):
            _assert_unity_roots(generate_key(mode, bits, seed))

    # Each pair of same-size shaped primes with 9 | p-1 in one factor, under each mode whose
    # constraint it meets: 3 or 9 cube roots, and 4 square roots.
    @pytest.mark.parametrize("bits", [512, 1024, 2048])
    @pytest.mark.parametrize("mode", [KeyMode.CUBIC9_COMPOSITE, KeyMode.SQUARE_COMPOSITE],
                             ids=lambda mode: mode.name)
    def test_shaped_keys_with_nine_dividing_a_totient(self, mode, bits):
        for s2, s3 in ((1, 0), (1, 1)):
            _assert_unity_roots(key_from_factors(mode, SHAPED_PRIMES[bits, s2, s3],
                                                 SHAPED_PRIMES[bits, 2, 2]))
