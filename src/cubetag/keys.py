"""Key generation and the fields of a key file, whose line format ``formats`` owns.

A key is an exponent (3, or 2 for the squaring variant) and the factors of a prime or two-prime
modulus; the roots of unity, and so the tag range, follow from the factors, as does the record
decrypts reuse: per factor, its AMM unity record and Garner inverse. Each KeyMode's row in
``_MODES`` holds what sets the modes apart: the exponent, the factor shapes key generation
samples, the totient constraint, and the private key-file fields.

Both communicating parties hold the factors; the private key file carries them, the ``.pub``
variant only the mode and modulus. ``KeyMaterial.factors`` is the one gate to the private part.
A file is read back by rebuilding the key from its factors, with its alpha as a certificate of
the roots checked against them, and requiring ``serialize_key`` to reproduce the file.

Every key is checked in ``KeyMaterial``'s constructor, the one way to build one,
cheapest first: the types, the range of n, the factor count, distinctness, n against
the factors' product, the mode's constraint, then each factor's primality. Proving
the factors prime (Baillie-PSW above ~3.3e24) is the bulk of loading a key; each is
tested once and kept as a proven prime, which later guards accept untested. A factor
from ``generate_key`` arrives proven by its own search.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import NamedTuple

from .errors import (InvalidArgumentError, KeyFileError, PrivateKeyRequiredError, _require_int,
                     _show)
from .formats import (DECIMAL_BOUND, MAX_DIGITS, decimal_field, decimal_lines, file_lines,
                      require_lines)
from .modular import _MR_DETERMINISTIC_BOUND, _TRIAL_PRODUCT, _ProvenPrime, is_probable_prime
from .roots import _require_odd_prime, _unity_roots

__all__ = [
    "KeyMaterial", "KeyMode", "generate_key", "key_from_factors", "parse_key", "serialize_key",
]

_MAX_PRIME_TRIES_PER_BIT = 256
# Witnesses the prime search draws from its seeded RNG per candidate past trial division above
# the deterministic bound and does not use: drawing them keeps each seed's RNG stream, and so
# the keys every seed has always generated.
_MR_ROUNDS = 40
# The search also screens those candidates by a gcd with the odd primes below this.
_SCREEN_LIMIT = 1 << 16

class KeyMode(enum.Enum):
    CUBIC3_PRIME = "CUBIC3_PRIME"
    CUBIC3_COMPOSITE = "CUBIC3_COMPOSITE"
    CUBIC9_COMPOSITE = "CUBIC9_COMPOSITE"
    SQUARE_COMPOSITE = "SQUARE_COMPOSITE"

    @property
    def exponent(self) -> int:
        """Public transformation exponent: cube or square."""
        return _MODES[self].exponent


class _Mode(NamedTuple):
    exponent: int
    shapes: tuple  # one (candidate) -> bool per factor keygen samples
    constraint: object  # (p, phi) -> acceptable
    requirement: str
    private_fields: tuple[str, ...]  # key-file lines after mode and n


# c % 9 in (4, 7) is 3 || c-1: 3 divides c-1 but 9 does not. Exactly one
# factor of a CUBIC3 key contributes the 3 (q-1 avoids it); CUBIC9 keygen
# keeps both factors at 3 || p-1, the shape keys have always had, though
# factors with 9 | p-1 are accepted. A prime-mode file's one factor is n, so it
# carries no p= or q= line.
_MODES = {
    KeyMode.CUBIC3_PRIME: _Mode(
        3, (lambda c: c % 9 in (4, 7) and c % 4 == 3,),
        lambda p, phi: phi % 9 in (3, 6) and p % 4 == 3,
        "3 | p-1, 9 not dividing p-1 and p = 3 mod 4", ("phi", "alpha")),
    KeyMode.CUBIC3_COMPOSITE: _Mode(
        3, (lambda c: c % 9 in (4, 7), lambda c: c % 3 == 2),
        lambda p, phi: phi % 9 in (3, 6),
        "phi divisible by 3 but not 9", ("p", "q", "phi", "alpha")),
    KeyMode.CUBIC9_COMPOSITE: _Mode(
        3, (lambda c: c % 9 in (4, 7), lambda c: c % 9 in (4, 7)),
        lambda p, phi: phi % 9 == 0,
        "phi divisible by 9", ("p", "q", "phi", "alpha")),
    KeyMode.SQUARE_COMPOSITE: _Mode(
        2, (lambda c: True, lambda c: True),
        lambda p, phi: True,
        "distinct odd primes", ("p", "q", "phi")),
}


class KeyMaterial:
    """A key: the mode and n, and for a private key the factors.

    The one place a key is checked (see the module docstring); instances are immutable. The rest
    follows from the factors alone (``_alpha``, a file's, only spares a search): ``unity_roots``,
    ``alpha`` (the least nontrivial root, None in SQUARE mode) and the ``_record`` decrypts reuse.
    """

    def __init__(self, mode: KeyMode, n: int, p: int | None = None, q: int | None = None, *,
                 _alpha=None):
        vars(self).update(mode=mode, n=n, p=p, q=q, alpha=None, unity_roots=None, _record=None)
        if not isinstance(self.mode, KeyMode):
            raise InvalidArgumentError(f"mode must be a KeyMode, got {_show(self.mode)}")
        for name in ("n", "p", "q"):
            if name == "n" or getattr(self, name) is not None:
                _require_int(name, getattr(self, name))
        if not 2 <= self.n < DECIMAL_BOUND:
            raise InvalidArgumentError(f"n must be at least 2 and at most {MAX_DIGITS} digits")
        if self.p is None:
            if self.q is not None:
                raise InvalidArgumentError("a public key has no q")
            return
        spec, factors = _MODES[self.mode], self.factors
        if len(factors) != len(spec.shapes):
            raise InvalidArgumentError(f"{self.mode.value} takes {len(spec.shapes)} factor(s), "
                                       f"got {len(factors)}")
        if self.p == self.q:
            raise InvalidArgumentError("factors must be distinct")
        if self.n != math.prod(factors):
            raise InvalidArgumentError("n must be the product of the factors")
        if not spec.constraint(self.p, self.phi):
            raise InvalidArgumentError(f"{self.mode.value} needs {spec.requirement}; "
                                       f"p={_show(self.p)}, phi={_show(self.phi)} fails")
        factors = tuple(map(_require_odd_prime, factors))
        roots, record = _unity_roots(spec.exponent, factors, _alpha)
        alpha = roots.roots[1] if "alpha" in spec.private_fields else None
        vars(self).update(zip(("p", "q"), factors), alpha=alpha, unity_roots=roots, _record=record)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"KeyMaterial is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the checks
        return KeyMaterial, (self.mode, self.n, self.p, self.q)

    def __eq__(self, other):  # the derived fields follow from these four
        if type(other) is not KeyMaterial:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in ("mode", "n", "p", "q", "alpha"))
        return f"KeyMaterial({fields})"

    @property
    def factors(self) -> tuple[int, ...]:
        """The primes of n: (n,) in prime mode, else (p, q)."""
        if self.p is None:
            raise PrivateKeyRequiredError("operation needs the private key (the factors of n)")
        return (self.p,) if self.q is None else (self.p, self.q)

    @property
    def phi(self) -> int:
        """Euler's totient of n, from the factors."""
        return math.prod(f - 1 for f in self.factors)

    @property
    def roots(self):
        """The k-th roots of 1 mod n, reached like every private part through ``factors``."""
        self.factors  # the one gate: a public key raises PrivateKeyRequiredError here
        return self.unity_roots

    def public(self) -> "KeyMaterial":
        """Strip everything but the mode and modulus."""
        return KeyMaterial(mode=self.mode, n=self.n)


def key_from_factors(mode: KeyMode, p: int, q: int | None = None) -> KeyMaterial:
    """The private key of `mode` with factors p and q (p alone in prime mode): see KeyMaterial."""
    factors = (p,) if q is None else (p, q)
    return KeyMaterial(mode, math.prod(map(_require_int, ("p", "q"), factors)), p, q)


@functools.cache
def _odd_prime_product() -> int:
    """The product of the odd primes below _SCREEN_LIMIT, built on first use."""
    flags = bytearray([1]) * _SCREEN_LIMIT
    for i in range(3, math.isqrt(_SCREEN_LIMIT) + 1, 2):
        if flags[i]:
            flags[i * i::2 * i] = bytes(len(range(i * i, _SCREEN_LIMIT, 2 * i)))
    factors = [i for i in range(3, _SCREEN_LIMIT, 2) if flags[i]]
    while len(factors) > 1:  # a product tree, about twice as fast as a running product
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def _random_prime(rng, bits: int, accept) -> int:
    """Random prime of exactly `bits` bits satisfying `accept(p)`."""
    for _ in range(_MAX_PRIME_TRIES_PER_BIT * bits):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if not accept(candidate):
            continue
        if candidate >= _MR_DETERMINISTIC_BOUND:
            if math.gcd(candidate, _TRIAL_PRODUCT) != 1:
                continue
            for _ in range(_MR_ROUNDS):
                rng.randrange(2, candidate - 1)
            if math.gcd(candidate, _odd_prime_product()) != 1:
                continue
        if is_probable_prime(candidate):
            return _ProvenPrime(candidate)  # the test just run is the proof
    raise InvalidArgumentError(
        f"no {bits}-bit prime satisfying the mode constraints found; "
        "constraints may be unsatisfiable at this size"
    )


def generate_key(
    mode: KeyMode,
    bits: int = 256,
    seed: int | None = None,
    p: int | None = None,
    q: int | None = None,
) -> KeyMaterial:
    """Generate key material for `mode` with an approximately `bits`-bit
    modulus; deterministic for a given (mode, bits, seed).

    Explicit p/q override random generation so desk-scale keys (e.g. n = 77
    or 91) can be reproduced exactly; they are still validated against the
    mode's constraints.
    """
    if not isinstance(mode, KeyMode):
        raise InvalidArgumentError(f"mode must be a KeyMode, got {_show(mode)}")
    bits, seed = _require_int("bits", bits), seed if seed is None else _require_int("seed", seed)
    if p is not None:
        return key_from_factors(mode, p, q)
    if q is not None:
        raise InvalidArgumentError("q given without p")
    if bits < 8:
        raise InvalidArgumentError(f"bits must be >= 8, got {_show(bits)}")
    if bits >= DECIMAL_BOUND.bit_length():  # n < 2**bits must fit a key file's n= line
        raise InvalidArgumentError(
            f"bits must be < {DECIMAL_BOUND.bit_length()}, got {_show(bits)}")
    import random
    rng = random.Random(seed)
    shapes = _MODES[mode].shapes
    factors: list[int] = []
    for i, shape in enumerate(shapes):
        size = bits * (i + 1) // len(shapes) - bits * i // len(shapes)
        factors.append(_random_prime(rng, size, lambda c: shape(c) and c not in factors))
    return key_from_factors(mode, *factors)


def serialize_key(key: KeyMaterial) -> str:
    """Render a key file; a public key (``key.public()``) gives only mode and n."""
    names = ("n", *_MODES[key.mode].private_fields) if key.p is not None else ("n",)
    return f"mode={key.mode.value}\n" + decimal_lines({f: getattr(key, f) for f in names})


def parse_key(text: str) -> KeyMaterial:
    """Parse a key file: two lines (mode, n) for a public key, else a private
    file that must read exactly as serialize_key writes the key its factors give.

    Only mode, n, the factors (p= and q=, lines 3 and 4, or n= in prime mode) and alpha are
    read. n is compared with the factors' product before KeyMaterial builds the one key they
    give, sparing the root search where alpha certifies the roots. So each key has one
    private file, its alpha the smallest nontrivial root. KeyFileError names the first line at
    fault; for invalid factors, that of the factor a primality check refused, else the first's.
    """
    lines = file_lines(text)
    mode = next((m for m in KeyMode if lines[0] == f"mode={m.value}"), None)
    if mode is None:
        raise KeyFileError(f"expected mode=<key mode>, got {_show(lines[0])}", line=1)
    n = decimal_field(lines, 1, "n")
    if n < 2:
        raise KeyFileError(f"modulus {n} out of range", line=2)
    if len(lines) == 2:
        return KeyMaterial(mode=mode, n=n)

    spec = _MODES[mode]  # the factors: the last of the n, p, q lines, one per factor
    names = ("mode", "n", *spec.private_fields)
    at = [i for i, name in enumerate(names) if name in ("n", "p", "q")][-len(spec.shapes):]
    factors = [decimal_field(lines, i, names[i]) for i in at]
    try:  # alpha only certifies the roots: checked against the factors, and below as a line
        alpha = decimal_field(lines, names.index("alpha"), "alpha")
    except (ValueError, KeyFileError):  # this mode has no alpha= line, or the file no valid one
        alpha = None
    try:  # a product too long for the n= line fails here, as invalid key material
        require_lines(lines[:2], f"{lines[0]}\n" + decimal_lines({"n": math.prod(factors)}))
        key = KeyMaterial(mode, n, *factors, _alpha=alpha)
    except ValueError as exc:
        refused = (i for i, f in zip(at, factors) if str(exc) == f"{_show(f)} is not an odd prime")
        raise KeyFileError(f"invalid key material: {exc}", line=next(refused, at[0]) + 1) from exc
    require_lines(lines, serialize_key(key))
    return key
