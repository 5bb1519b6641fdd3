"""README's command-line quickstart, run command by command through the CLI.

Each command must appear verbatim in README.md and print what README says it
prints, so the documentation cannot drift from the code.
"""

import shlex
from pathlib import Path

from cubetag.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _quickstart_commands() -> list[str]:
    section = README.split("## Command-line quickstart", 1)[1].split("```", 2)[1]
    return [line for line in section.splitlines() if line.startswith("cubetag ")]


def test_quickstart_session(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []

    def run(command: str) -> list[str]:
        assert f"\n{command}\n" in README
        ran.append(command)
        assert main(shlex.split(command)[1:]) == 0
        return capsys.readouterr().out.splitlines()

    assert run("cubetag keygen --mode cubic3 --p 7 --q 11 --out demo.key") == ["77"]
    assert (tmp_path / "demo.key.pub").read_text() == "mode=CUBIC3_COMPOSITE\nn=77\n"
    assert run("cubetag roots --key demo.key") == ["1", "23", "67"]
    assert run("cubetag encrypt --key demo.key --message 12 --out demo.ct") == []
    assert (tmp_path / "demo.ct").read_text() == "c=34\ntag=1\n"
    assert run("cubetag decrypt --key demo.key --in demo.ct") == ["12"]
    assert "12 34 45 -> 34" in run("cubetag table --key demo.key")

    assert run("cubetag keygen --mode cubic9 --p 7 --q 13 --out nine.key") == ["91"]
    game = run("cubetag game --key nine.key --message 24 --alice 2 --bob 2")
    assert game[0] == "c=83" and game[-1] == "outcome=success"
    assert run("cubetag rand --key nine.key --seed 2 --radix 2 --count 3") == ["0", "1", "0"]
    (hex_line,) = run("cubetag rand --key nine.key --seed 2 --radix 2 --count 64 --hex")
    assert len(hex_line) == 16

    assert len(run("cubetag keygen --mode cubic9 --bits 256 --seed 42 --out big.key")) == 1

    # every command the quickstart shows was run above
    assert ran == _quickstart_commands()
