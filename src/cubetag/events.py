"""Probability events over the nine cube roots of unity.

When 3 divides both p-1 and q-1 there are nine cube roots of 1 mod p*q
(9 | phi(n) alone is not enough). They can be arranged into four triples
{1, x, x*x} (each non-1 root paired with its square). A sender picks one
triple, tags the message within the 3-element companion set that triple
generates, and the receiver gambles on which triple was used: a 1-in-4
event.
"""

from __future__ import annotations

from typing import NamedTuple

from .cipher import decrypt_candidates, encrypt
from .errors import InvalidArgumentError, _require_int, _show

__all__ = ["GameRound", "RootGrouping", "partition_nine_roots", "play_round"]


class RootGrouping(NamedTuple):
    """Four triples {1, x, x**2 mod n} covering a 9-element unity root set.

    Triples are ordered by their smallest non-1 element; 1 appears in every
    triple, each other root in exactly one.
    """

    groups: tuple[tuple[int, int, int], ...]


def partition_nine_roots(roots: UnityRootSet) -> RootGrouping:
    """Pair each non-1 root with its square, giving four {1, x, x**2} triples."""
    from .roots import UnityRootSet  # here, so importing this module loads no root module
    if not isinstance(roots, UnityRootSet):
        raise InvalidArgumentError(f"expected a key's root set, got {_show(roots)}")
    if len(roots) != 9:
        raise InvalidArgumentError(f"expected nine cube roots of 1, got {len(roots)}")
    n = roots.modulus
    groups = sorted({(1, *sorted((x, x * x % n))) for x in roots.roots[1:]})
    return RootGrouping(tuple(groups))


class GameRound(NamedTuple):
    """Transcript of one pick-a-group round.

    The sender's triple generates a 3-element companion set; `coset` says which
    of the three cosets of the sender's triple (ordered by smallest element) holds
    the message among the nine cube roots of the ciphertext, and `tag` is the
    message's rank inside that coset. The receiver rebuilds the nine roots, splits
    them by the receiver's triple, and reads coset/tag off the receiver's split.
    The round succeeds when the group choices match; a lucky mismatch can
    still reproduce the message but counts as a failure.
    """

    c: int
    coset: int
    tag: int
    alice_choice: int
    bob_choice: int
    recovered: int
    success: bool


def _cosets(nine_roots: list[int], triple: tuple[int, int, int], n: int) -> list[tuple[int, ...]]:
    """Split the 9 cube roots of some value into the 3 cosets of a triple,
    each sorted, ordered by smallest element."""
    return sorted({tuple(sorted(r * u % n for u in triple)) for r in nine_roots})


def play_round(
    key: KeyMaterial, m: int, alice_choice: int, bob_choice: int
) -> GameRound:
    """Run one round: the sender (Alice) encrypts and tags with the sender's
    triple, the receiver (Bob) decodes with the receiver's; success iff the
    triple choices match (probability 1/4 under uniform independent choices)."""
    choices = map(_require_int, ("alice_choice", "bob_choice"), (alice_choice, bob_choice))
    if not all(1 <= choice <= 4 for choice in choices):
        raise InvalidArgumentError("group choices must be in [1, 4]")
    grouping = partition_nine_roots(key.roots)
    c = encrypt(m, key).c
    n = key.n
    # Every cube root of c is m times a root of unity, so both sides split
    # the same nine values: the sender finds m's coset and rank under the
    # sender's triple, the receiver reads that slot off the receiver's split.
    nine = decrypt_candidates(c, key)
    alice_cosets = _cosets(nine, grouping.groups[alice_choice - 1], n)
    coset_index = next(i for i, cs in enumerate(alice_cosets) if m in cs) + 1
    tag = alice_cosets[coset_index - 1].index(m) + 1
    bob_cosets = _cosets(nine, grouping.groups[bob_choice - 1], n)
    recovered = bob_cosets[coset_index - 1][tag - 1]

    return GameRound(
        c=c,
        coset=coset_index,
        tag=tag,
        alice_choice=alice_choice,
        bob_choice=bob_choice,
        recovered=recovered,
        success=alice_choice == bob_choice,
    )
