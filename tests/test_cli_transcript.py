"""The CLI's output on a fixed script of commands, byte for byte, against a golden file.

Each command runs ``cubetag.cli.main`` in-process, in one fresh directory, on desk-scale keys
and on seeded 40- and 256-bit keys of every mode, their ``.pub`` files, and key and
ciphertext files tampered with between commands. ``cli_transcript.json`` records, per command,
its argv, exit code, stdout and stderr, and the name and text of every file it wrote. A usage
error (exit 2) records its exit code alone, as argparse's wording differs between Python
versions. The golden file is data: nothing here rewrites it, so any changed byte fails.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from cubetag.cli import main

GOLDEN = Path(__file__).with_name("cli_transcript.json")
MODES = ("cubic3-prime", "cubic3", "cubic9", "square")
FORCED = {"k31": ("cubic3-prime", "31"), "k77": ("cubic3", "7", "11"),
          "k91": ("cubic9", "7", "13"), "s77": ("square", "7", "11")}


def _edit(old: str, new: str):
    return lambda text: text.replace(old, new)


def _script():
    """The commands in order; a (name, source, edit) step writes edit(source's text) to name."""
    keys = list(FORCED)
    for name, (mode, *factors) in FORCED.items():
        forced = [arg for flag, f in zip(("--p", "--q"), factors) for arg in (flag, f)]
        yield ["keygen", "--mode", mode, *forced, "--out", f"{name}.key"]
    for bits in (40, 256):
        for mode in MODES:
            keys.append(f"{mode}-{bits}")
            yield ["keygen", "--mode", mode, "--bits", str(bits), "--seed", "1",
                   "--out", f"{mode}-{bits}.key"]
    yield ["keygen", "--mode", "cubic3-prime", "--p", "11", "--out", "bad.key"]
    for name in keys:
        yield ["roots", "--key", f"{name}.key"]
        yield ["encrypt", "--key", f"{name}.key", "--message", "12", "--out", f"{name}.ct"]
        yield ["decrypt", "--key", f"{name}.key", "--in", f"{name}.ct"]
    yield ["encrypt", "--key", "k91.key", "--message", "24"]
    yield ["rand", "--key", "k91.key", "--seed", "2", "--radix", "10", "--count", "8"]
    yield ["rand", "--key", "cubic9-40.key", "--seed", "12345", "--radix", "7", "--count", "6"]
    yield ["rand", "--key", "k31.key", "--seed", "3", "--radix", "10", "--count", "8"]
    yield ["rand", "--key", "k91.key", "--seed", "5", "--radix", "2", "--count", "64", "--hex"]
    yield ["rand", "--key", "cubic9-256.key", "--seed", "9", "--radix", "2", "--count", "100",
           "--hex"]
    yield ["game", "--key", "k91.key", "--message", "24", "--alice", "2", "--bob", "2"]
    yield ["game", "--key", "cubic9-40.key", "--message", "12345", "--alice", "1", "--bob", "3"]
    yield ["game", "--key", "cubic9-256.key", "--message", "12345", "--alice", "4", "--bob", "4"]
    yield ["game", "--key", "k77.key", "--message", "12", "--alice", "1", "--bob", "1"]
    for name in ("k31", "k77", "k91", "s77", "cubic3-40"):
        yield ["table", "--key", f"{name}.key"]
    public = [["roots"], ["encrypt", "--message", "12"], ["decrypt", "--in", "k77.ct"],
              ["table"], ["rand", "--seed", "1", "--radix", "3", "--count", "4"],
              ["game", "--message", "24", "--alice", "1", "--bob", "1"]]
    for i, name in enumerate(keys):
        command, *rest = public[i % len(public)]
        yield [command, "--key", f"{name}.key.pub", *rest]
    tampered = {
        "crlf.key": ("k77.key", _edit("\n", "\r\n")),
        "alpha.key": ("k77.key", _edit("alpha=23", "alpha=67")),
        "alpha-256.key": ("cubic3-256.key", lambda text: f"{text[:-2]}{9 - int(text[-2])}\n"),
        "n.key": ("k77.key", _edit("n=77", "n=78")),
        "q.key": ("k77.key", lambda text: text.replace("n=77", "n=455").replace(
            "q=11", "q=65").replace("phi=60", "phi=384")),
        "extra.key": ("k31.key", lambda text: text + "x=1\n"),
    }
    for name, (source, edit) in tampered.items():
        yield name, source, edit
        yield ["roots", "--key", name]
    yield "crlf.ct", "k77.ct", _edit("\n", "\r\n")
    yield "tag.ct", "k77.ct", lambda text: text[:text.index("tag=")] + "tag=4\n"
    yield "coprime.ct", "k77.ct", lambda text: "c=35" + text[text.index("\n"):]
    for name in ("crlf.ct", "tag.ct", "coprime.ct", "missing.ct"):
        yield ["decrypt", "--key", "k77.key", "--in", name]
    yield ["rand", "--key", "k31.key", "--seed", "1", "--radix", "1", "--count", "4"]
    yield ["rand", "--key", "k31.key", "--seed", "1", "--radix", "10", "--count", "4", "--hex"]
    yield ["keygen", "--mode", "cubic27", "--out", "bad.key"]


def _files() -> dict[str, bytes]:
    return {entry.name: Path(entry).read_bytes() for entry in os.scandir() if entry.is_file()}


def transcript() -> list[dict]:
    """Run the script in the current directory, which starts empty; one record per command."""
    records = []
    for step in _script():
        if isinstance(step, tuple):
            name, source, edit = step
            Path(name).write_bytes(edit(Path(source).read_text("ascii")).encode("ascii"))
            continue
        before, out, err = _files(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(step)
            except SystemExit as exit_:
                code = exit_.code
        record = {"argv": step, "exit": code}
        if code != 2:
            written = {name: data.decode("ascii") for name, data in sorted(_files().items())
                       if before.get(name) != data}
            record.update(stdout=out.getvalue(), stderr=err.getvalue(), files=written)
        records.append(record)
    return records


def test_cli_transcript_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = transcript()
    assert len(records) == len(golden)
    for record, expected in zip(records, golden):
        assert record == expected
