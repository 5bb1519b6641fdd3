import pytest

from cubetag import (
    InvalidArgumentError,
    KeyMode,
    UnityRootSet,
    cube_roots_of_unity_composite,
    cube_roots_of_unity_prime,
    key_from_factors,
    square_roots_of_unity_composite,
)
from oracles import kth_roots_of_unity, sieve
from shaped_primes import SHAPED_PRIMES


class TestCubeRootsPrime:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (31, (1, 5, 25)),
            (7, (1, 2, 4)),
            (11, (1,)),
            (13, (1, 3, 9)),  # frozen from brute force over x**3 mod 13
            (3, (1,)),
        ],
    )
    def test_known_sets(self, p, expected):
        assert cube_roots_of_unity_prime(p).roots == expected

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            cube_roots_of_unity_prime(77)
        with pytest.raises(ValueError):
            cube_roots_of_unity_prime(2)

    def test_matches_enumeration_below_2000(self):
        for p in sieve(2000):
            if p == 2:
                continue
            assert cube_roots_of_unity_prime(p).roots == kth_roots_of_unity(p, 3)

    def test_sum_identity_modulo_primes(self):
        # 1 + a + a*a = 0 mod p for every nontrivial root; prime moduli only
        for p in sieve(2000):
            if p % 3 != 1:
                continue
            roots = cube_roots_of_unity_prime(p).roots
            assert len(roots) == 3
            for a in roots[1:]:
                assert (1 + a + a * a) % p == 0

    def test_sum_identity_fails_modulo_composites(self):
        # the same identity is NOT valid mod 77 even though 23 cubes to 1
        assert (1 + 23 + 23 * 23) % 77 != 0


class TestCubeRootsComposite:
    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (7, 11, (1, 23, 67)),
            (7, 13, (1, 9, 16, 22, 29, 53, 74, 79, 81)),
            (5, 11, (1,)),
        ],
    )
    def test_known_sets(self, p, q, expected):
        assert cube_roots_of_unity_composite(p, q).roots == expected

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
                assert cube_roots_of_unity_composite(p, q).roots == kth_roots_of_unity(n, 3)

    def test_squaring_permutes_root_set(self):
        for p, q in [(7, 11), (7, 13), (19, 37)]:
            root_set = cube_roots_of_unity_composite(p, q)
            n = root_set.modulus
            assert {u * u % n for u in root_set} == set(root_set.roots)

    def test_nontrivial_roots_are_mutual_squares(self):
        # the square of each nontrivial root is the other one, never itself
        for p, q in [(7, 11), (3, 7), (5, 13), (3, 31)]:
            root_set = cube_roots_of_unity_composite(p, q)
            assert len(root_set) == 3
            n = root_set.modulus
            _, a, b = root_set.roots
            assert a * a % n == b
            assert b * b % n == a


class TestSquareRootsComposite:
    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (7, 11, (1, 34, 43, 76)),  # frozen from brute force over x**2 mod 77
            (3, 5, (1, 4, 11, 14)),  # frozen from brute force over x**2 mod 15
        ],
    )
    def test_known_sets(self, p, q, expected):
        assert square_roots_of_unity_composite(p, q).roots == expected

    def test_matches_enumeration(self):
        for p, q in [(3, 5), (7, 11), (13, 17), (41, 43)]:
            n = p * q
            assert square_roots_of_unity_composite(p, q).roots == kth_roots_of_unity(n, 2)

    def test_contains_one_and_minus_one(self):
        for p, q in [(3, 5), (7, 11), (29, 31)]:
            root_set = square_roots_of_unity_composite(p, q)
            n = p * q
            assert 1 in root_set.roots and n - 1 in root_set.roots
            assert len(root_set) == 4

    def test_equal_factors_rejected(self):
        with pytest.raises(ValueError):
            square_roots_of_unity_composite(11, 11)


class TestUnityRootSetValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            UnityRootSet(31, 3, (1, 25, 5))

    def test_missing_one_rejected(self):
        with pytest.raises(ValueError):
            UnityRootSet(31, 3, (5, 25))

    def test_non_root_rejected(self):
        with pytest.raises(ValueError):
            UnityRootSet(31, 3, (1, 2, 25))

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            UnityRootSet(31, 5, (1,))

    def test_modulus_below_two_rejected(self):
        with pytest.raises(InvalidArgumentError):
            UnityRootSet(0, 3, (1,))

    def test_residue_at_or_above_modulus_rejected(self):
        # 8 = 1 mod 7, so only the canonical range check catches it
        with pytest.raises(InvalidArgumentError):
            UnityRootSet(7, 3, (1, 8))

    def test_negative_residue_rejected(self):
        with pytest.raises(InvalidArgumentError):
            UnityRootSet(7, 3, (-6, 1))

    def test_smallest_nontrivial(self):
        # a key's alpha is the smallest root above 1; a bijective prime has none
        assert cube_roots_of_unity_composite(7, 11).roots[1] == 23
        assert key_from_factors(KeyMode.CUBIC3_COMPOSITE, 7, 11).alpha == 23
        assert cube_roots_of_unity_prime(11).roots == (1,)


# 2048-bit primes cost ~1.5 s each in the primality test, so they run with the slow sweeps
_SHAPES = [
    pytest.param(shape, id="-".join(map(str, shape)), marks=pytest.mark.slow if shape[0] == 2048 else ())
    for shape in sorted(SHAPED_PRIMES)
]


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
        squares = square_roots_of_unity_composite(p, q).roots
        assert len(squares) == 4 and all(u * u % (p * q) == 1 for u in squares)
