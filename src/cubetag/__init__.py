"""Tagged cubic (and squaring) residue cryptosystem toolkit.

The transformation c = m**k mod n (k = 3, or 2 in the squaring variant) is
many-to-one; the preimages of c are the message times the k-th roots of
unity. A small rank tag transmitted beside c says which preimage is the
message, making the mapping invertible for anyone who can take one k-th
root. The package covers key generation under the totient divisibility
constraints that control the root count, the unity-root and CRT machinery,
the tagged cipher itself, a pick-a-group probability protocol over the
nine-root case, and a cubic-iteration pseudorandom generator.
"""

__version__ = "0.1.0"

from .cipher import (
    TaggedCiphertext,
    companion_table,
    cube_root_by_exponent,
    decrypt,
    decrypt_candidates,
    encrypt,
    kth_root,
    parse_ciphertext,
    serialize_ciphertext,
)
from .errors import (
    CubeTagError,
    InvalidArgumentError,
    InvalidCiphertextError,
    InvalidMessageError,
    KeyFileError,
    KeyGenerationError,
    NonResidueError,
    NotInvertibleError,
    PrivateKeyRequiredError,
    TagRangeError,
)
from .events import (
    GameRound,
    RootGrouping,
    partition_nine_roots,
    play_round,
)
from .keys import (
    KeyMaterial,
    KeyMode,
    generate_key,
    key_from_factors,
    parse_key,
    serialize_key,
)
from .modular import (
    crt_combine,
    is_probable_prime,
    kth_root_mod_prime,
    mod_inverse,
)
from .prng import (
    PrngState,
    digit_stream,
    pack_bits_hex,
    prng_init,
    prng_next,
)
from .roots import (
    UnityRootSet,
    cube_roots_of_unity_composite,
    cube_roots_of_unity_prime,
    square_roots_of_unity_composite,
)

__all__ = [
    "CubeTagError",
    "GameRound",
    "InvalidArgumentError",
    "InvalidCiphertextError",
    "InvalidMessageError",
    "KeyFileError",
    "KeyGenerationError",
    "KeyMaterial",
    "KeyMode",
    "NonResidueError",
    "NotInvertibleError",
    "PrivateKeyRequiredError",
    "PrngState",
    "RootGrouping",
    "TagRangeError",
    "TaggedCiphertext",
    "UnityRootSet",
    "companion_table",
    "crt_combine",
    "cube_root_by_exponent",
    "cube_roots_of_unity_composite",
    "cube_roots_of_unity_prime",
    "decrypt",
    "decrypt_candidates",
    "digit_stream",
    "encrypt",
    "generate_key",
    "is_probable_prime",
    "key_from_factors",
    "kth_root",
    "kth_root_mod_prime",
    "mod_inverse",
    "pack_bits_hex",
    "parse_ciphertext",
    "parse_key",
    "partition_nine_roots",
    "play_round",
    "prng_init",
    "prng_next",
    "serialize_ciphertext",
    "serialize_key",
    "square_roots_of_unity_composite",
]
