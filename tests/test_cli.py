"""``cli_transcript.json`` is the CLI's output contract: its harness pins each command's exit code,
stdout, stderr and written files byte for byte, so no command it holds, nor the same check on
another value down the same branch, is repeated here. This file holds only what an entry cannot
pin: file modes, pipes, child processes, bytes a text transcript cannot hold, sweeps, usage
errors with no entry, and the few commands and refusals without one.
"""

import os
import runpy
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from cubetag.cli import main
from cubetag.formats import MAX_FILE_CHARS, read_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def keyfile77(tmp_path, capsys):
    path = tmp_path / "k77.key"
    code, out, _ = run(capsys, "keygen", "--mode", "cubic3", "--p", "7", "--q", "11",
                       "--out", str(path))
    assert code == 0 and out == "77\n"
    return str(path)


@pytest.fixture
def keyfile91(tmp_path, capsys):
    path = tmp_path / "k91.key"
    code, _, _ = run(capsys, "keygen", "--mode", "cubic9", "--p", "7", "--q", "13",
                     "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def keyfile31(tmp_path, capsys):
    path = tmp_path / "k31.key"
    code, _, _ = run(capsys, "keygen", "--mode", "cubic3-prime", "--p", "31",
                     "--out", str(path))
    assert code == 0
    return str(path)


class TestKeygen:
    def test_bijective_pair_fails(self, tmp_path, capsys):
        code, _, err = run(capsys, "keygen", "--mode", "cubic3", "--p", "5",
                           "--q", "11", "--out", str(tmp_path / "x.key"))
        assert code == 1
        assert err.strip() != ""


class TestRoots:
    def test_order_is_a_usage_error(self, keyfile77):
        # a key has only the roots of its own exponent, so no order can be asked for
        with pytest.raises(SystemExit) as info:
            main(["roots", "--key", keyfile77, "--order", "2"])
        assert info.value.code == 2

    def test_missing_key_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "roots", "--key", str(tmp_path / "nope.key"))
        assert code == 1 and err


class TestFileModes:
    """Every file cubetag writes is owner-only (0600) under a umask of 022, new or not: the
    private file holds the factors, and a prime-mode .pub file the prime itself."""

    @pytest.fixture(autouse=True)
    def umask_022(self):
        old = os.umask(0o022)
        try:
            yield
        finally:
            os.umask(old)

    @staticmethod
    def mode(path) -> int:
        return stat.S_IMODE(os.stat(path).st_mode)

    def test_new_files_are_owner_only(self, tmp_path, capsys):
        for mode, factors in (("cubic3", ("--p", "7", "--q", "11")),
                              ("cubic3-prime", ("--p", "31"))):
            key = tmp_path / f"{mode}.key"
            assert run(capsys, "keygen", "--mode", mode, *factors, "--out", str(key))[0] == 0
            ct = tmp_path / f"{mode}.ct"
            assert run(capsys, "encrypt", "--key", str(key), "--message", "12",
                       "--out", str(ct))[0] == 0
            for path in (key, tmp_path / f"{mode}.key.pub", ct):
                assert self.mode(path) == 0o600, path.name

    def test_existing_files_become_owner_only(self, tmp_path, capsys):
        key, ct = tmp_path / "demo.key", tmp_path / "demo.ct"
        for path in (key, tmp_path / "demo.key.pub", ct):
            path.write_text("old\n")
            path.chmod(0o644)
        assert run(capsys, "keygen", "--mode", "cubic3", "--p", "7", "--q", "11",
                   "--out", str(key))[0] == 0
        assert run(capsys, "encrypt", "--key", str(key), "--message", "12",
                   "--out", str(ct))[0] == 0
        for path in (key, tmp_path / "demo.key.pub", ct):
            assert self.mode(path) == 0o600, path.name
        assert ct.read_text() == "c=34\ntag=1\n"

    def test_pipe_keeps_its_mode(self, keyfile77, tmp_path, capsys):
        # like a device or a shell's >(...), a pipe is written to, not made owner-only
        fifo = tmp_path / "ct.fifo"
        os.mkfifo(fifo, 0o644)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(capsys, "encrypt", "--key", keyfile77, "--message", "12",
                       "--out", str(fifo))[0] == 0
            assert os.read(reader, 64) == b"c=34\ntag=1\n"
        finally:
            os.close(reader)
        assert self.mode(fifo) == 0o644


class TestEncryptDecrypt:
    def test_nine_root_round_trip(self, keyfile91, tmp_path, capsys):
        ct = tmp_path / "m.ct"
        code, _, _ = run(capsys, "encrypt", "--key", keyfile91, "--message", "24",
                         "--out", str(ct))
        assert code == 0 and ct.read_text() == "c=83\ntag=2\n"
        code, out, _ = run(capsys, "decrypt", "--key", keyfile91, "--in", str(ct))
        assert code == 0 and out == "24\n"

    def test_out_of_range_message(self, keyfile77, capsys):
        code, _, err = run(capsys, "encrypt", "--key", keyfile77, "--message", "77")
        assert code == 1 and err

    def test_ciphertext_outside_modulus_fails(self, keyfile77, tmp_path, capsys):
        ct = tmp_path / "wide.ct"
        ct.write_text("c=111\ntag=1\n")
        code, out, err = run(capsys, "decrypt", "--key", keyfile77, "--in", str(ct))
        assert code == 1 and out == "" and "[1, 77)" in err

    def test_sweep_round_trip(self, keyfile31, keyfile77, keyfile91, tmp_path, capsys):
        import math

        ct = tmp_path / "sweep.ct"
        for keyfile, n in ((keyfile31, 31), (keyfile77, 77), (keyfile91, 91)):
            for m in range(1, n):
                if math.gcd(m, n) != 1:
                    continue
                code, _, _ = run(capsys, "encrypt", "--key", keyfile, "--message",
                                 str(m), "--out", str(ct))
                assert code == 0
                code, out, _ = run(capsys, "decrypt", "--key", keyfile, "--in", str(ct))
                assert code == 0 and out == f"{m}\n"

    def test_square_mode_sweep(self, tmp_path, capsys):
        import math

        keyfile = tmp_path / "sq.key"
        assert run(capsys, "keygen", "--mode", "square", "--p", "7", "--q", "11",
                   "--out", str(keyfile))[0] == 0
        ct = tmp_path / "sq.ct"
        for m in range(1, 77):
            if math.gcd(m, 77) != 1:
                continue
            assert run(capsys, "encrypt", "--key", str(keyfile), "--message",
                       str(m), "--out", str(ct))[0] == 0
            code, out, _ = run(capsys, "decrypt", "--key", str(keyfile), "--in", str(ct))
            assert code == 0 and out == f"{m}\n"


class TestPublicKeyFile:
    @pytest.mark.parametrize("fixture", ["keyfile31", "keyfile77", "keyfile91"])
    def test_every_private_operation_prints_one_message(self, fixture, request, tmp_path, capsys):
        keyfile = request.getfixturevalue(fixture)
        ct = tmp_path / "m.ct"
        assert run(capsys, "encrypt", "--key", keyfile, "--message", "12", "--out", str(ct))[0] == 0
        for argv in (
            ("roots",), ("encrypt", "--message", "12"), ("decrypt", "--in", str(ct)),
            ("rand", "--seed", "3", "--radix", "2", "--count", "8"),
            ("game", "--message", "12", "--alice", "1", "--bob", "1"), ("table",),
        ):
            assert run(capsys, argv[0], "--key", keyfile + ".pub", *argv[1:]) == (
                1, "", "cubetag: operation needs the private key (the factors of n)\n"), argv


class TestFileBytes:
    """A byte outside ASCII in a key or ciphertext file is a KeyFileError naming its line."""

    def test_non_ascii_key_byte(self, keyfile77, tmp_path, capsys):
        bad = tmp_path / "bad.key"
        for old, new, line in ((b"p=7\n", b"p=7\xc2\n", 3), (b"n=77\n", b"n=77\xff\n", 2)):
            bad.write_bytes(Path(keyfile77).read_bytes().replace(old, new))
            code, out, err = run(capsys, "roots", "--key", str(bad))
            assert (code, out) == (1, "")
            assert err.startswith(f"cubetag: line {line}: ")

    def test_non_ascii_ciphertext_byte(self, keyfile77, tmp_path, capsys):
        bad = tmp_path / "bad.ct"
        for text, line in ((b"c=34\ntag=1\xc2\n", 2), (b"c=\xc2\xb234\ntag=1\n", 1)):
            bad.write_bytes(text)
            code, out, err = run(capsys, "decrypt", "--key", keyfile77, "--in", str(bad))
            assert (code, out) == (1, "")
            assert err.startswith(f"cubetag: line {line}: ")


class TestLineEnds:
    """A file is read byte for byte: CRLF or CR line ends fail at line 1, as in the parsers."""

    @pytest.mark.parametrize("ending", [b"\r"])  # CRLF: the transcript's crlf.key and crlf.ct
    def test_key_line_ends(self, keyfile77, tmp_path, capsys, ending):
        bad = tmp_path / "line_ends.key"
        bad.write_bytes(Path(keyfile77).read_bytes().replace(b"\n", ending))
        code, out, err = run(capsys, "roots", "--key", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("cubetag: line 1: ")


def test_value_past_the_interpreter_conversion_limit(keyfile77, tmp_path):
    # canonical decimal within the formats' 4300 digits, past a limit lowered to its least
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str conversion limit")
    ct = tmp_path / "long.ct"
    ct.write_text(f"c={'7' * 700}\ntag=1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cubetag", "decrypt", "--key", keyfile77, "--in", str(ct)],
        capture_output=True, text=True, env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("cubetag: line 1: ")


class TestFileLength:
    """A file is read to one character past the longest the formats allow, then refused."""

    def test_overlong_files(self, keyfile77, tmp_path, capsys):
        key, ct = tmp_path / "long.key", tmp_path / "long.ct"
        key.write_text(f"mode=CUBIC3_COMPOSITE\nn={'7' * 30000}\n")
        ct.write_text(f"c={'7' * 30000}\ntag=1\n")
        for argv, line in ((["roots", "--key", str(key)], 2),
                           (["decrypt", "--key", keyfile77, "--in", str(ct)], 1)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"cubetag: line {line}: file longer than {MAX_FILE_CHARS} characters\n"
        assert len(read_file(str(key))) == MAX_FILE_CHARS + 1


class TestRand:
    def test_first_bits(self, keyfile91, capsys):
        code, out, _ = run(capsys, "rand", "--key", keyfile91, "--seed", "2",
                           "--radix", "2", "--count", "3")
        assert code == 0 and out == "0\n1\n0\n"

    def test_negative_count_is_usage_error(self, keyfile91, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rand", "--key", keyfile91, "--seed", "2", "--radix", "2",
                  "--count", "-1"])
        assert info.value.code == 2

    def test_radix_at_modulus_rejected(self, keyfile91, capsys):
        code, _, err = run(capsys, "rand", "--key", keyfile91, "--seed", "2",
                           "--radix", "91", "--count", "3")
        assert code == 1 and err


class TestGame:
    def test_matching_round(self, keyfile91, capsys):
        code, out, _ = run(capsys, "game", "--key", keyfile91, "--message", "24",
                           "--alice", "1", "--bob", "1")
        assert code == 0
        assert out == (
            "c=83\ncoset=2\ntag=1\nalice=1\nbob=1\nrecovered=24\noutcome=success\n"
        )

    def test_sweep_has_four_successes(self, keyfile91, capsys):
        successes = 0
        for a in range(1, 5):
            for b in range(1, 5):
                code, out, _ = run(capsys, "game", "--key", keyfile91, "--message",
                                   "24", "--alice", str(a), "--bob", str(b))
                assert code == 0
                successes += out.endswith("outcome=success\n")
        assert successes == 4

    def test_out_of_range_choice(self, keyfile91, capsys):
        code, _, err = run(capsys, "game", "--key", keyfile91, "--message", "24",
                           "--alice", "0", "--bob", "1")
        assert code == 1 and err


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cubetag", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("cubetag ")

    def test_module_entry_point_in_process(self, monkeypatch, capsys):
        # what python -m cubetag runs, in this interpreter so a line trace sees it
        monkeypatch.setattr(sys, "argv", ["cubetag", "--version"])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("cubetag", run_name="__main__")
        assert info.value.code == 0
        assert capsys.readouterr().out == "cubetag 0.1.0\n"
