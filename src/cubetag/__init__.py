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

from .cipher import *
from .errors import *
from .events import *
from .keys import *
from .modular import *
from .prng import *
from .roots import *

# Each star import above also binds its submodule, whose __all__ is its public surface.
__all__ = (
    cipher.__all__ + errors.__all__ + events.__all__ + keys.__all__
    + modular.__all__ + prng.__all__ + roots.__all__
)
