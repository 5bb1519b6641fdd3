import subprocess
import sys
from pathlib import Path

import pytest

from cubetag.cli import main

TABLE_31_TEXT = (
    "1 5 25 -> 1\n"
    "2 10 19 -> 8\n"
    "3 13 15 -> 27\n"
    "4 7 20 -> 2\n"
    "6 26 30 -> 30\n"
    "8 9 14 -> 16\n"
    "11 24 27 -> 29\n"
    "12 21 29 -> 23\n"
    "16 18 28 -> 4\n"
    "17 22 23 -> 15\n"
)


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
    def test_writes_private_and_public_files(self, tmp_path, capsys):
        out = tmp_path / "pair.key"
        code, stdout, _ = run(capsys, "keygen", "--mode", "cubic3", "--p", "7",
                              "--q", "11", "--out", str(out))
        assert code == 0 and stdout == "77\n"
        private = out.read_text()
        public = (tmp_path / "pair.key.pub").read_text()
        assert private.startswith("mode=CUBIC3_COMPOSITE\nn=77\n")
        assert "alpha=23\n" in private
        assert public == "mode=CUBIC3_COMPOSITE\nn=77\n"

    def test_bijective_pair_fails(self, tmp_path, capsys):
        code, _, err = run(capsys, "keygen", "--mode", "cubic3", "--p", "5",
                           "--q", "11", "--out", str(tmp_path / "x.key"))
        assert code == 1
        assert err.strip() != ""

    def test_square_keygen(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "keygen", "--mode", "square", "--p", "7",
                              "--q", "11", "--out", str(tmp_path / "s.key"))
        assert code == 0 and stdout == "77\n"

    def test_random_generation_reproducible(self, tmp_path, capsys):
        outputs = []
        for name in ("a.key", "b.key"):
            code, stdout, _ = run(capsys, "keygen", "--mode", "cubic9", "--bits", "40",
                                  "--seed", "11", "--out", str(tmp_path / name))
            assert code == 0
            outputs.append(stdout)
        assert outputs[0] == outputs[1]
        assert (tmp_path / "a.key").read_text() == (tmp_path / "b.key").read_text()

    def test_bad_mode_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["keygen", "--mode", "rsa", "--out", str(tmp_path / "x.key")])
        assert info.value.code == 2


class TestRoots:
    def test_nine_roots(self, keyfile91, capsys):
        code, out, _ = run(capsys, "roots", "--key", keyfile91)
        assert code == 0
        assert out == "1\n9\n16\n22\n29\n53\n74\n79\n81\n"

    def test_prime_roots(self, keyfile31, capsys):
        code, out, _ = run(capsys, "roots", "--key", keyfile31)
        assert code == 0 and out == "1\n5\n25\n"

    def test_order_two_on_cubic_key(self, keyfile77, capsys):
        code, out, _ = run(capsys, "roots", "--key", keyfile77, "--order", "2")
        assert code == 0 and out == "1\n34\n43\n76\n"

    def test_order_two_on_prime_key_fails(self, keyfile31, capsys):
        code, _, err = run(capsys, "roots", "--key", keyfile31, "--order", "2")
        assert code == 1 and err

    def test_missing_key_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "roots", "--key", str(tmp_path / "nope.key"))
        assert code == 1 and err


class TestEncryptDecrypt:
    def test_round_trip_via_files(self, keyfile77, tmp_path, capsys):
        ct = tmp_path / "m.ct"
        code, _, _ = run(capsys, "encrypt", "--key", keyfile77, "--message", "12",
                         "--out", str(ct))
        assert code == 0
        assert ct.read_text() == "c=34\ntag=1\n"
        code, out, _ = run(capsys, "decrypt", "--key", keyfile77, "--in", str(ct))
        assert code == 0 and out == "12\n"

    def test_encrypt_to_stdout(self, keyfile31, capsys):
        code, out, _ = run(capsys, "encrypt", "--key", keyfile31, "--message", "7")
        assert code == 0 and out == "c=2\ntag=2\n"

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

    def test_corrupt_tag_fails(self, keyfile77, tmp_path, capsys):
        ct = tmp_path / "bad.ct"
        ct.write_text("c=34\ntag=5\n")
        code, _, err = run(capsys, "decrypt", "--key", keyfile77, "--in", str(ct))
        assert code == 1 and err

    def test_ciphertext_outside_modulus_fails(self, keyfile77, tmp_path, capsys):
        ct = tmp_path / "wide.ct"
        ct.write_text("c=111\ntag=1\n")
        code, out, err = run(capsys, "decrypt", "--key", keyfile77, "--in", str(ct))
        assert code == 1 and out == "" and "[1, 77)" in err

    def test_public_key_cannot_decrypt(self, keyfile77, tmp_path, capsys):
        ct = tmp_path / "m.ct"
        run(capsys, "encrypt", "--key", keyfile77, "--message", "12", "--out", str(ct))
        code, _, err = run(capsys, "decrypt", "--key", keyfile77 + ".pub", "--in", str(ct))
        assert code == 1 and err

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

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    def test_key_line_ends(self, keyfile77, tmp_path, capsys, ending):
        bad = tmp_path / "line_ends.key"
        bad.write_bytes(Path(keyfile77).read_bytes().replace(b"\n", ending))
        code, out, err = run(capsys, "roots", "--key", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("cubetag: line 1: ")

    def test_ciphertext_crlf(self, keyfile77, tmp_path, capsys):
        bad = tmp_path / "crlf.ct"
        bad.write_bytes(b"c=34\r\ntag=1\r\n")
        code, out, err = run(capsys, "decrypt", "--key", keyfile77, "--in", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("cubetag: line 1: ")


class TestRand:
    def test_first_bits(self, keyfile91, capsys):
        code, out, _ = run(capsys, "rand", "--key", keyfile91, "--seed", "2",
                           "--radix", "2", "--count", "3")
        assert code == 0 and out == "0\n1\n0\n"

    def test_deterministic_across_runs(self, keyfile91, capsys):
        args = ("rand", "--key", keyfile91, "--seed", "5", "--radix", "7", "--count", "20")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second and first[0] == 0

    def test_hex_packing(self, keyfile91, capsys):
        code, out, _ = run(capsys, "rand", "--key", keyfile91, "--seed", "2",
                           "--radix", "2", "--count", "4", "--hex")
        assert code == 0 and out == "5\n"

    def test_radix_one_is_usage_error(self, keyfile91, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rand", "--key", keyfile91, "--seed", "2", "--radix", "1",
                  "--count", "3"])
        assert info.value.code == 2

    def test_negative_count_is_usage_error(self, keyfile91, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rand", "--key", keyfile91, "--seed", "2", "--radix", "2",
                  "--count", "-1"])
        assert info.value.code == 2

    def test_hex_requires_radix_two(self, keyfile91, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rand", "--key", keyfile91, "--seed", "2", "--radix", "3",
                  "--count", "3", "--hex"])
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

    def test_three_root_key_fails(self, keyfile77, capsys):
        code, _, err = run(capsys, "game", "--key", keyfile77, "--message", "12",
                           "--alice", "1", "--bob", "1")
        assert code == 1 and err

    def test_out_of_range_choice(self, keyfile91, capsys):
        code, _, err = run(capsys, "game", "--key", keyfile91, "--message", "24",
                           "--alice", "0", "--bob", "1")
        assert code == 1 and err


class TestTable:
    def test_known_mapping(self, keyfile31, capsys):
        code, out, _ = run(capsys, "table", "--key", keyfile31)
        assert code == 0 and out == TABLE_31_TEXT

    def test_composite_table(self, keyfile77, capsys):
        code, out, _ = run(capsys, "table", "--key", keyfile77)
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 20
        assert all(len(row.split(" -> ")[0].split()) == 3 for row in rows)

    def test_large_modulus_refused(self, tmp_path, capsys):
        key = tmp_path / "big.key"
        code, _, _ = run(capsys, "keygen", "--mode", "cubic3", "--bits", "48",
                         "--seed", "0", "--out", str(key))
        assert code == 0
        code, _, err = run(capsys, "table", "--key", str(key))
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
