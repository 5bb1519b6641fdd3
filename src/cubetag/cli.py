"""Command-line front end.

Subcommands: keygen, roots, encrypt, decrypt, rand, game, table. All values
cross the boundary as decimal ASCII; input files must end every line in LF,
like the output. Exit codes: 0 success, 1 domain error (one-line diagnostic
on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .cipher import (
    companion_table,
    decrypt,
    encrypt,
    parse_ciphertext,
    serialize_ciphertext,
)
from .errors import CubeTagError, InvalidArgumentError
from .events import play_round
from .keys import KeyMaterial, KeyMode, generate_key, parse_key, serialize_key
from .prng import digit_stream, pack_bits_hex
from .roots import cube_roots_of_unity_composite, square_roots_of_unity_composite

_MODE_NAMES = {
    "cubic3-prime": KeyMode.CUBIC3_PRIME,
    "cubic3": KeyMode.CUBIC3_COMPOSITE,
    "cubic9": KeyMode.CUBIC9_COMPOSITE,
    "square": KeyMode.SQUARE_COMPOSITE,
}


def _read_file(path: str) -> str:
    """A key or ciphertext file's text, byte for byte: a CR, or a byte outside
    ASCII (kept as a lone surrogate), reaches the parser, which names its line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(text)


def _cmd_keygen(args: argparse.Namespace, _key: None) -> int:
    mode = _MODE_NAMES[args.mode]
    key = generate_key(mode, bits=args.bits, seed=args.seed, p=args.p, q=args.q)
    _write_text(args.out, serialize_key(key))
    _write_text(args.out + ".pub", serialize_key(key.public()))
    print(key.n)
    return 0


def _cmd_roots(args: argparse.Namespace, key: KeyMaterial) -> int:
    if args.order in (None, key.mode.exponent):
        root_set = key.roots
    else:
        # Cross-order query: recompute from the factors.
        factors = key.factors
        if len(factors) != 2:
            raise InvalidArgumentError(f"order-{args.order} roots need a composite private key")
        derive = (square_roots_of_unity_composite if args.order == 2
                  else cube_roots_of_unity_composite)
        root_set = derive(*factors)
    for root in root_set:
        print(root)
    return 0


def _cmd_encrypt(args: argparse.Namespace, key: KeyMaterial) -> int:
    ct = encrypt(args.message, key)
    text = serialize_ciphertext(ct)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decrypt(args: argparse.Namespace, key: KeyMaterial) -> int:
    ct = parse_ciphertext(_read_file(args.infile), key.mode)
    print(decrypt(ct, key))
    return 0


def _cmd_rand(args: argparse.Namespace, key: KeyMaterial) -> int:
    digits = digit_stream(key, args.seed, args.radix, args.count)
    if args.hex:
        print(pack_bits_hex(digits))
    else:
        for digit in digits:
            print(digit)
    return 0


def _cmd_game(args: argparse.Namespace, key: KeyMaterial) -> int:
    round_ = play_round(key, args.message, args.alice, args.bob)
    print(f"c={round_.c}")
    print(f"coset={round_.coset}")
    print(f"tag={round_.tag}")
    print(f"alice={round_.alice_choice}")
    print(f"bob={round_.bob_choice}")
    print(f"recovered={round_.recovered}")
    print(f"outcome={'success' if round_.success else 'failure'}")
    return 0


def _cmd_table(args: argparse.Namespace, key: KeyMaterial) -> int:
    for companions, c in companion_table(key):
        print(f"{' '.join(str(v) for v in companions)} -> {c}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubetag",
        description="Tagged cubic/squaring residue cipher toolkit",
    )
    parser.add_argument("--version", action="version", version=f"cubetag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    keyed = argparse.ArgumentParser(add_help=False)
    keyed.add_argument("--key", required=True)

    p_keygen = sub.add_parser("keygen", help="generate a key pair")
    p_keygen.add_argument("--mode", required=True, choices=sorted(_MODE_NAMES))
    p_keygen.add_argument("--bits", type=int, default=256)
    p_keygen.add_argument("--seed", type=int, default=None)
    p_keygen.add_argument("--p", type=int, default=None,
                          help="force this prime factor (insecure; for fixed test keys)")
    p_keygen.add_argument("--q", type=int, default=None,
                          help="force this prime factor (insecure; for fixed test keys)")
    p_keygen.add_argument("--out", default="cubetag.key",
                          help="private key path; public part goes to <out>.pub")
    p_keygen.set_defaults(func=_cmd_keygen)

    p_roots = sub.add_parser("roots", parents=[keyed], help="list the key's roots of unity")
    p_roots.add_argument("--order", type=int, choices=(2, 3), default=None)
    p_roots.set_defaults(func=_cmd_roots)

    p_encrypt = sub.add_parser("encrypt", parents=[keyed], help="encrypt one message value")
    p_encrypt.add_argument("--message", type=int, required=True)
    p_encrypt.add_argument("--out", default=None,
                           help="ciphertext file; stdout when omitted")
    p_encrypt.set_defaults(func=_cmd_encrypt)

    p_decrypt = sub.add_parser("decrypt", parents=[keyed], help="decrypt a ciphertext file")
    p_decrypt.add_argument("--in", dest="infile", required=True)
    p_decrypt.set_defaults(func=_cmd_decrypt)

    p_rand = sub.add_parser("rand", parents=[keyed], help="stream digits from the cubic generator")
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("--radix", type=int, required=True)
    p_rand.add_argument("--count", type=int, required=True)
    p_rand.add_argument("--hex", action="store_true",
                        help="pack a radix-2 stream as hex on one line")
    p_rand.set_defaults(func=_cmd_rand)

    p_game = sub.add_parser("game", parents=[keyed], help="play one pick-a-group round")
    p_game.add_argument("--message", type=int, required=True)
    p_game.add_argument("--alice", type=int, required=True)
    p_game.add_argument("--bob", type=int, required=True)
    p_game.set_defaults(func=_cmd_game)

    p_table = sub.add_parser("table", parents=[keyed],
                             help="dump the full message-to-ciphertext mapping")
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rand":
        if args.radix < 2:
            parser.error(f"--radix must be >= 2, got {args.radix}")
        if args.count < 0:
            parser.error(f"--count must be >= 0, got {args.count}")
        if args.hex and args.radix != 2:
            parser.error("--hex requires --radix 2")
    try:
        key = parse_key(_read_file(args.key)) if "key" in args else None
        return args.func(args, key)
    except (CubeTagError, ValueError, OSError) as exc:
        print(f"cubetag: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
