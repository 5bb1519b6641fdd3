"""Primes by shape: which modes desk-scale primes make, and stored real-size primes.

`key_modes` is the paper's mode rule, from totient arithmetic alone, and `desk_specs` lists
every desk-scale key it allows, so a sweep over small keys filters that one list.

SHAPED_PRIMES holds primes of 512, 1024 and 2048 bits with chosen 2- and 3-adic valuations of
p-1, keyed by (bits, s2, s3) where s2 and s3 are the exponents of 2 and 3 in p-1; a value of 2
means "at least 2". Found once by a seeded random search over candidates of the wanted residue
class (3 mod 4, or 1 mod 2592 = 2**5 * 3**4), each confirmed by 40 Miller-Rabin rounds; stored so
tests need not search.
"""

from cubetag import KeyMode
from oracles import sieve


def key_modes(p, q=None):
    """The modes of the keys the prime p, or the ordered pair (p, q) of distinct odd primes,
    makes: prime mode where p = 3 mod 4 and 3 || p-1; for a pair, CUBIC9 or CUBIC3 as 9 does or
    does not divide phi, where 3 does, and SQUARE always."""
    if q is None:
        return [KeyMode.CUBIC3_PRIME] if p % 4 == 3 and (p - 1) % 9 in (3, 6) else []
    phi = (p - 1) * (q - 1)
    if phi % 3:
        return [KeyMode.SQUARE_COMPOSITE]
    return [KeyMode.CUBIC9_COMPOSITE if phi % 9 == 0 else KeyMode.CUBIC3_COMPOSITE,
            KeyMode.SQUARE_COMPOSITE]


def desk_specs(limit):
    """Every (mode, p, q) that key_modes allows with n < limit, q None in prime mode: the prime
    keys by p, then the pairs by (p, q), both factor orders, a pair's cubic mode first."""
    primes = sieve(limit)[1:]
    for p in primes:
        for mode in key_modes(p):
            yield mode, p, None
    for p in primes:
        for q in primes:
            if p * q >= limit:
                break
            if p != q:
                for mode in key_modes(p, q):
                    yield mode, p, q


SHAPED_PRIMES = {
    (512, 1, 0): int(
        "c0b6f17a6a05a96803c2c3dcd765fe7e621e8083c4ad79a503fa5ea151ca40ba"
        "6a717be246c461085088158002eab2b3eb386f9290b1fa45ac5ebcf7a5466a1b",
        16,
    ),
    (512, 1, 1): int(
        "88ad9ff37b1a362c4287c1e1a0caf9f98e92dca8a4675565da5cff43020a8382"
        "9e545f83e758bc4e0a24f192bebcf06df59ca35bc431194affab114b5f09bf67",
        16,
    ),
    (512, 2, 2): int(
        "b5be71c3877e7355913889376b637a22e078e16e2e0a9fad1eadd7ebb94de13b"
        "e4ba19afce9430b3079934a9bfc87d9547d826850ca818946b053159676a0ae1",
        16,
    ),
    (1024, 1, 0): int(
        "c8d1e510108d1441e678c985137aefb8c99dac4ccdcc2a45076c54f1f7043993"
        "3d9bc63a4a9bd045a6d2bde75c3a4fed9670c3a96e859716d351fc9dd02e3c6b"
        "0c2d1be9add041948cf740c0769b55b694693fdf2e5dafc9c3df23ed1e7dcb90"
        "54688b8760e384c0e897cde54fffd6c8a67b8bc3713f04531aee56ab06ad9227",
        16,
    ),
    (1024, 1, 1): int(
        "e3b6c489afc9b822fc8dd9de3c3d609a20f380b1633dd46c536c340737c155b7"
        "574f9535daa9b5ffb2950e758acd2c27dc31d419e51151ecef6e492991ff2cfb"
        "d1ba19438271c302bf10e39394a41b484cc171d9a11cf11ee3f9ee9aa99f18f5"
        "cb80df02c9c776913dc983abf0e08ccbbc32b9c1b33b9f0cce01b5a90e19660b",
        16,
    ),
    (1024, 2, 2): int(
        "e732acd540cc11e7a4dd51934095b25642bef7d78af2a550d6d13c5247c95ba7"
        "807dafa2cb2de9596e498408e4298c1b21fcb6bd0652db249c80b1389c7f173e"
        "5fc301adae4be5f3edb170a4e3ba676a65f5753afae792e13c7abeae1ac3cff8"
        "e1d3368c9f55593a72c7b9517ef05a4f206de4d4eb190fca38f2dd6f7eb14881",
        16,
    ),
    (2048, 1, 0): int(
        "854cc6daad9e48017747947960ca994fc14c823b52f9830c31f7491749ad304c"
        "c3e629139450de9f3fe2abbdf1d5fe8599e38debb1ecd2b74c315dbaf91deec4"
        "5dd69f87c03fda7ea729ec523f98318f71578700df9a805dd6b78e0114291f94"
        "a3bc230b770d55dc9df3d1fc38277ecf3d6b135fe7012f63f5947a69a20159e9"
        "e904820c4d18919307f4065e1f1c966ba5d50a4b13f6d1602865ade1f140b1c0"
        "689772db449d68caf9cacfec7e01bda186fade33ee8300f8b24f0af38c66b2df"
        "31c94075135f01d94a494dbd5428ed5eb35618920a427ecd9cede579202c4933"
        "5e73af780d5ce391cea77c5ef8848494c7a3b976987596516ee210f295fe5c63",
        16,
    ),
    (2048, 1, 1): int(
        "a9f051057140dd6ff351f2ad02e2621b6f66e8b0a340606ffc06ed5d3ae194a7"
        "ca8fdb5bc24d0f3d509881e87f5224aee25295f82e4d38f95a6de2f9501f393f"
        "dbdcc02d88c11bb374c9858b52ff63d6f859a46d3ffbe495e5a0696a0f139670"
        "38a4ee69e09a1579c7f9d7bfd7e52df50930af257b52461c875b27786af28b69"
        "ca8a0b8111c0dd988c9089fb95fa483bc8ab09437c1953f4c3fe80e37151e475"
        "aca8e2ff6b2fc6cf7c773f481f3cc29ed00fb3ecfa9f57a689362b6a469ff7aa"
        "cb588f0182f2a09677a7097430577f8c7eb5a7e050d3d8b2f0885badcc049dc4"
        "1864778038391ce9d3ad9fee234991e3100887bc89e335695c1db143ccd2ae93",
        16,
    ),
    (2048, 2, 2): int(
        "efeba6a554e31809e257ab8d1861ea3ba56df0bf598c0ef4b2de0d04cd217684"
        "9853d29a39da9ed9e4f53f0b1aee3946fe2ce4b50e557297b39822dbb9ae55bb"
        "8f68cd7a78f786eea0dae797f88ea22d84f91426dafececbafbca5edc8893af5"
        "b99f263644b28ad3bff17d788e416fabd2c1340ad029beff0316ad9206867b7c"
        "c1d3e3252b498bad368dcc12d15c55c857559f2f39ff1a1a22dfb9da6dee9ec5"
        "6e728261cbaef3bef44e9275d52513e33585d10da6660d3d608699a45e02c382"
        "41b4dc03c26853bf0d8a9b0768e61c30d82fb7b5fe5c86f18480faa6dc0561da"
        "9c69a9561c6eec7a4c7ce1e8dd07e6b20e1fc66f082656d999b56c1cd85f1d81",
        16,
    ),
}
