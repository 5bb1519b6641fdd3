"""Command-line front end.

Subcommands: keygen, roots (the key's own roots of 1), encrypt, decrypt, rand, game, table.
All values cross the boundary as decimal ASCII; input files must end every line in LF, like
the output, and every regular file written is owner-only (0600). Exit codes: 0 success, 1 domain
error (one-line diagnostic on stderr), 2 usage error.

Each command imports what it runs in its own function (see the package docstring), and modes
are KeyMode member names, so --version, --help and usage errors load no key module.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import CubeTagError

_MODE_NAMES = {  # CLI mode name: KeyMode member name
    "cubic3-prime": "CUBIC3_PRIME",
    "cubic3": "CUBIC3_COMPOSITE",
    "cubic9": "CUBIC9_COMPOSITE",
    "square": "SQUARE_COMPOSITE",
}


def _write_text(path: str, text: str) -> None:
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "w",
              encoding="ascii", newline="\n") as handle:
        if os.path.isfile(path):  # owner-only (0600) even if it existed; a pipe keeps its mode
            os.chmod(path, 0o600)
        handle.write(text)


def _cmd_keygen(args: argparse.Namespace, _key: None) -> None:
    from .keys import KeyMode, generate_key, serialize_key
    mode = KeyMode[_MODE_NAMES[args.mode]]
    key = generate_key(mode, bits=args.bits, seed=args.seed, p=args.p, q=args.q)
    _write_text(args.out, serialize_key(key))
    _write_text(args.out + ".pub", serialize_key(key.public()))
    print(key.n)


def _cmd_roots(args: argparse.Namespace, key) -> None:
    for root in key.roots:
        print(root)


def _cmd_encrypt(args: argparse.Namespace, key) -> None:
    from .cipher import encrypt, serialize_ciphertext
    ct = encrypt(args.message, key)
    text = serialize_ciphertext(ct)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_decrypt(args: argparse.Namespace, key) -> None:
    from .cipher import decrypt, parse_ciphertext
    from .formats import read_file
    ct = parse_ciphertext(read_file(args.infile), key.mode)
    print(decrypt(ct, key))


def _cmd_rand(args: argparse.Namespace, key) -> None:
    from .prng import digit_stream, pack_bits_hex
    digits = digit_stream(key, args.seed, args.radix, args.count)
    if args.hex:
        print(pack_bits_hex(digits))
    else:
        for digit in digits:
            print(digit)


def _cmd_game(args: argparse.Namespace, key) -> None:
    from .events import play_round
    round_ = play_round(key, args.message, args.alice, args.bob)
    print(f"c={round_.c}")
    print(f"coset={round_.coset}")
    print(f"tag={round_.tag}")
    print(f"alice={round_.alice_choice}")
    print(f"bob={round_.bob_choice}")
    print(f"recovered={round_.recovered}")
    print(f"outcome={'success' if round_.success else 'failure'}")


def _cmd_table(args: argparse.Namespace, key) -> None:
    from .cipher import companion_table
    for companions, c in companion_table(key):
        print(f"{' '.join(str(v) for v in companions)} -> {c}")


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
        key = None
        if "key" in args:
            from .formats import read_file
            from .keys import parse_key
            key = parse_key(read_file(args.key))
        args.func(args, key)
    except (CubeTagError, ValueError, OSError) as exc:
        print(f"cubetag: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())
