import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubetag.modular
from cubetag import (
    InvalidArgumentError,
    InvalidCiphertextError,
    KeyMode,
    NotInvertibleError,
    crt_combine,
    generate_key,
    is_probable_prime,
    mod_inverse,
)
from cubetag.modular import (_baillie_psw, _jacobi, _kth_root, _primitive_unity_root,
                             _strong_lucas, _strong_probable_prime)
from oracles import sieve, trial_division_prime
from shaped_primes import SHAPED_PRIMES


class TestModInverse:
    @pytest.mark.parametrize("a,modulus,expected", [(7, 11, 8), (11, 7, 2), (1, 91, 1)])
    def test_known_values(self, a, modulus, expected):
        assert mod_inverse(a, modulus) == expected

    def test_not_invertible_reveals_gcd(self):
        with pytest.raises(NotInvertibleError) as info:
            mod_inverse(21, 77)
        assert info.value.gcd == 7

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            mod_inverse(0, 7)

    def test_negative_value_rejected(self):
        for a, modulus in ((-1, 7), (0, 0)):  # and a modulus below 2
            with pytest.raises(InvalidArgumentError):
                mod_inverse(a, modulus)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(min_value=0, max_value=1 << 64),
           b=st.integers(min_value=2, max_value=1 << 64))
    def test_bezout_identity(self, a, b):
        # a Bezout coefficient when gcd(a, b) = 1, and the gcd itself (a factor of b) otherwise
        g = math.gcd(a, b)
        if g != 1:
            with pytest.raises(NotInvertibleError) as info:
                mod_inverse(a, b)
            assert info.value.gcd == g
            return
        x = mod_inverse(a, b)
        assert 1 <= x < b
        assert (a * x - 1) % b == 0


class TestCrtCombine:
    def test_not_coprime_rejected(self):
        with pytest.raises(ValueError):
            crt_combine(1, 1, 6, 9)

    def test_modulus_below_two_rejected(self):
        with pytest.raises(InvalidArgumentError):
            crt_combine(0, 0, 1, 7)

    @pytest.mark.parametrize("p,q", [(3, 5), (7, 11), (7, 13), (97, 101)])
    def test_round_trip_exhaustive(self, p, q):
        for x in range(p * q):
            assert crt_combine(x % p, x % q, p, q) == x


def _record(p, k):
    """What a key holds for its factor p and hands to _kth_root: p's search where k**2 | p-1."""
    return _primitive_unity_root(p, k) if (p - 1) % k**2 == 0 else None


def _root(c, p, k):
    return _kth_root(c, p, k, _record(p, k))


def _check_every_residue(p: int, k: int) -> None:
    """Every residue mod p has a root in (0, p); every non-residue raises."""
    residues, unity = {pow(x, k, p) for x in range(1, p)}, _record(p, k)
    assert _kth_root(0, p, k, unity) == 0
    for c in range(1, p):
        if c in residues:
            root = _kth_root(c, p, k, unity)
            assert 0 < root < p and pow(root, k, p) == c
        else:
            with pytest.raises(InvalidCiphertextError):
                _kth_root(c, p, k, unity)


class TestKthRootModPrime:
    """_kth_root, the one k-th root routine per prime, given the record a key holds."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_brute_force_below_2000(self, k):
        for p in sieve(2000)[1:]:
            _check_every_residue(p, k)

    @pytest.mark.slow
    @pytest.mark.parametrize("k", [2, 3])
    def test_brute_force_below_10000(self, k):
        for p in sieve(10_000)[1:]:
            _check_every_residue(p, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_composite_modulus_never_gives_a_wrong_root(self, k):
        # each step keeps x**k = error * c whatever the modulus, so even a composite one gets
        # a verified root or InvalidCiphertextError: never a non-root (8**3 = 8 mod 9)
        primes = set(sieve(400))
        for p in range(9, 400, 2):
            if p in primes:
                continue
            unity = _record(p, k)
            for c in range(1, p):
                try:
                    x = _kth_root(c, p, k, unity)
                except InvalidCiphertextError:
                    continue
                assert pow(x, k, p) == c, (c, p, k, x)

    # The shapes give s = 1 and s >= 2 for k = 2, and s = 0, 1 and >= 2 for k = 3.
    @pytest.mark.parametrize("shape", sorted(SHAPED_PRIMES), ids=lambda s: "-".join(map(str, s)))
    @pytest.mark.parametrize("k", [2, 3])
    @settings(max_examples=3, deadline=None)
    @given(x=st.integers(min_value=1, max_value=1 << 2048))
    def test_real_sizes_by_shape(self, k, shape, x):
        p = SHAPED_PRIMES[shape]
        x = x % (p - 1) + 1
        c = pow(x, k, p)
        assert pow(_root(c, p, k), k, p) == c
        if (p - 1) % k == 0:
            g = 2
            while pow(g, (p - 1) // k, p) == 1:
                g += 1
            with pytest.raises(InvalidCiphertextError):
                _root(c * g % p, p, k)


def test_square_search_passes_over_residues_by_jacobi(record_calls):
    # seed 5's 1024-bit SQUARE q has 32 | q-1 and least non-residue 7: the Jacobi symbol passes
    # over 2, 3 and 5 with no exponentiation, where each took two
    q = generate_key(KeyMode.SQUARE_COMPOSITE, bits=1024, seed=5).q
    calls = record_calls(cubetag.modular, "pow")
    found = _primitive_unity_root(q, 2)
    assert [args[2] for _, args in calls].count(q) == 2
    for p in [q] + [p for p in sieve(2000) if p % 4 == 1]:  # still the least non-residue's
        g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) != 1)
        t = (p - 1) // ((p - 1) & -(p - 1))
        assert (found if p == q else _primitive_unity_root(p, 2)) == (pow(g, t, p), p - 1)


class TestIsProbablePrime:
    @pytest.mark.parametrize(
        "n,expected", [(31, True), (77, False), (2, True), (0, False), (1, False)]
    )
    def test_known_values(self, n, expected):
        assert is_probable_prime(n) is expected

    def test_agrees_with_trial_division_below_100k(self):
        prime_set = set(sieve(100_000))
        for n in range(100_000):
            assert is_probable_prime(n) == (n in prime_set)

    def test_large_values(self):
        mersenne_89 = (1 << 89) - 1  # prime, above the deterministic bound
        mersenne_107 = (1 << 107) - 1  # also prime
        composite = ((1 << 61) - 1) * ((1 << 31) - 1)
        assert is_probable_prime(mersenne_89)
        assert is_probable_prime(mersenne_107)
        assert not is_probable_prime(composite)

    def test_spot_check_against_trial_division(self):
        for n in range(100_000, 100_400):
            assert is_probable_prime(n) == trial_division_prime(n)


def _reference_strong_lucas(n):
    """The strong Lucas test as first written: U_k, V_k and Q**k, halved mod n at each set bit.

    The reference for _strong_lucas, whose chain carries a unit multiple of (U_k, V_k) instead.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2**s, d odd
    d = (n + 1) >> s
    u, v, q_k = 1, 1, Q % n  # U_k, V_k, Q**k for k = 1, the top bit of d
    for bit in bin(d)[3:]:
        u, v, q_k = u * v % n, (v * v - 2 * q_k) % n, q_k * q_k % n  # k -> 2k
        if bit == "1":  # k -> k + 1: U = (U + V)/2, V = (D*U + V)/2
            u, v = (u + v) % n, (D * u + v) % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            q_k = q_k * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, q_k = (v * v - 2 * q_k) % n, q_k * q_k % n
        if v == 0:
            return True
    return False


def _lucas_disagreements(limit):
    return [n for n in range(3, limit, 2) if _strong_lucas(n) != _reference_strong_lucas(n)]


class TestStrongLucasChain:
    """The unit-scaled chain gives the reference chain's verdict on every input."""

    def test_agrees_with_reference_below_100k(self):
        assert _lucas_disagreements(100_000) == []

    @pytest.mark.slow
    def test_agrees_with_reference_below_1m(self):
        assert _lucas_disagreements(1_000_000) == []

    def test_pseudoprimes_below_100k_are_exactly_these(self):
        # the strong Lucas pseudoprimes of Selfridge's method A (Baillie & Wagstaff 1980)
        prime_set = set(sieve(100_000))
        assert [n for n in range(3, 100_000, 2) if _strong_lucas(n) and n not in prime_set] == [
            5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]

    def test_agrees_with_reference_at_real_sizes(self):
        # every shaped prime of 512 or 1024 bits passes; its products with another or with 7 fail
        primes = sorted(p for p in SHAPED_PRIMES.values() if p.bit_length() <= 1024)
        for p, q in zip(primes, primes[1:] + primes[:1]):
            for n in (p, p * q, p * 7):
                assert _strong_lucas(n) == _reference_strong_lucas(n) == (n == p)


def _core_agrees_with_sieve(limit):
    """Baillie-PSW without trial division against a sieve, on every odd 3 <= n < limit.

    Below the deterministic bound is_probable_prime never reaches this core,
    so only a direct check covers it; the small primes whose own |D| is n
    (5, 11) are among the n checked.
    """
    prime_set = set(sieve(limit))
    assert [n for n in range(3, limit, 2) if _baillie_psw(n) != (n in prime_set)] == []


class TestBailliePSW:
    def test_core_agrees_with_sieve_below_100k(self):
        _core_agrees_with_sieve(100_000)

    @pytest.mark.slow
    def test_core_agrees_with_sieve_below_1m(self):
        _core_agrees_with_sieve(1_000_000)

    @pytest.mark.parametrize("n", [2047, 3277, 4033])
    def test_lucas_rejects_strong_base2_pseudoprimes(self, n):
        assert _strong_probable_prime(n, 2) and not _strong_lucas(n)

    @pytest.mark.parametrize("n", [5459, 5777, 10877])
    def test_base2_round_rejects_strong_lucas_pseudoprimes(self, n):
        assert _strong_lucas(n) and not _strong_probable_prime(n, 2)

    def test_perfect_square_rejected(self):
        # no D has (D/n) = -1 for a square, so the search for one must not run
        assert not _strong_lucas(1_000_003 ** 2)
        assert not is_probable_prime(((1 << 89) - 1) ** 2)

    @pytest.mark.parametrize("p", [101, 103, 109, 131, 137, 139, 149])
    def test_composite_mersenne_numbers_rejected(self, p):
        # each is a strong base-2 pseudoprime above the deterministic bound
        m = (1 << p) - 1
        assert _strong_probable_prime(m, 2)
        assert not is_probable_prime(m)
