"""Tagged cubic (and squaring) residue cryptosystem toolkit.

The transformation c = m**k mod n (k = 3, or 2 in the squaring variant) is
many-to-one; the preimages of c are the message times the k-th roots of
unity. A small rank tag transmitted beside c says which preimage is the
message, making the mapping invertible for anyone who can take one k-th
root. The package covers key generation under the totient divisibility
constraints that control the root count, the unity-root and CRT machinery,
the tagged cipher itself, a pick-a-group probability protocol over the
nine-root case, and a cubic-iteration pseudorandom generator.

A fresh process pays for each module it loads, so every module imports only what it runs (one
that one function alone runs, inside that function), and its annotations name only what it
binds. So the root re-exports each _EXPORTING module's __all__ but loads it only when it is
imported or one of its names is first used, and a CLI command loads only its own.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

_EXPORTING = ("cipher", "errors", "events", "keys", "modular", "prng", "roots")


class _Root(ModuleType):
    def __setattr__(self, name, value):
        # The import system attaches a submodule to the root once it has run. Binding its exports
        # then, not on first use, binds its own functions, never a wrapper patched over one later.
        if name in _EXPORTING and name not in vars(self):
            vars(self).update((export, getattr(value, export)) for export in value.__all__)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Root


def __getattr__(name):
    # Only for a name not bound yet: load every exporting module, which binds its names.
    for module in _EXPORTING:
        __import__(f"{__name__}.{module}")
    globals().setdefault("__all__", [e for m in _EXPORTING for e in globals()[m].__all__])
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__():
    __getattr__("__all__")  # every public name is listed before any has been used
    return sorted(globals())
