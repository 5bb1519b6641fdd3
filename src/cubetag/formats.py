"""The file boundary: every key and ciphertext file is ``name=<decimal>`` lines, each ending
in LF. A reader requires a file to read exactly as its writer writes the value the file gives,
so every file that parses re-serializes to the same bytes. Package-internal, not re-exported."""

import re
from itertools import zip_longest

from .errors import InvalidArgumentError, KeyFileError, _require_int, _show

# Canonical ASCII decimal: no sign, no leading zero, at most 4300 digits (Python's default
# int/str limit), so below DECIMAL_BOUND. The longest file is six lines of alpha=<4300 digits>.
MAX_DIGITS = 4300
DECIMAL_BOUND = 10**MAX_DIGITS
_DECIMAL = re.compile(rf"0|[1-9][0-9]{{0,{MAX_DIGITS - 1}}}")
MAX_FILE_CHARS = 6 * (len("alpha=") + MAX_DIGITS + 1)


def read_file(path: str) -> str:
    """A file's text, byte for byte, to one character past the longest the formats allow:
    the parser names the line of a CR, a non-ASCII byte (a lone surrogate), or the excess."""
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as handle:
        return handle.read(MAX_FILE_CHARS + 1)


def file_lines(text: str) -> list[str]:
    """The lines of a key or ciphertext file, whose last line must end in LF."""
    if not isinstance(text, str):
        raise InvalidArgumentError(f"file text must be a str, got {type(text).__name__}")
    if not text:
        raise KeyFileError("empty file")
    if len(text) > MAX_FILE_CHARS:
        raise KeyFileError(f"file longer than {MAX_FILE_CHARS} characters",
                           line=text.count("\n", 0, MAX_FILE_CHARS) + 1)
    if not text.endswith("\n"):
        raise KeyFileError("missing final line feed", line=text.count("\n") + 1)
    return text[:-1].split("\n")


def decimal_field(lines: list[str], index: int, name: str) -> int:
    """The value of line `index`, which must read `name=<canonical decimal>`."""
    if index >= len(lines):
        raise KeyFileError(f"missing {name}= line", line=index + 1)
    line = lines[index]
    if not (line.startswith(name + "=") and _DECIMAL.fullmatch(line, len(name) + 1)):
        raise KeyFileError(
            f"expected {name}=<canonical decimal>, got {_show(line)}", line=index + 1
        )
    try:
        return int(line[len(name) + 1:])
    except ValueError as exc:  # past an interpreter's lowered int/str conversion limit
        raise KeyFileError(f"{name}= value: {exc}", line=index + 1) from None


def require_lines(lines: list[str], serialized: str) -> None:
    """Require a file's lines to read exactly as `serialized`, naming the first that differs."""
    for number, (got, want) in enumerate(zip_longest(lines, file_lines(serialized)), 1):
        if got != want:
            expected = "end of file" if want is None else _show(want)
            found = "end of file" if got is None else _show(got)
            raise KeyFileError(f"expected {expected}, got {found}", line=number)


def decimal_lines(fields: dict[str, int]) -> str:
    """`name=value` lines, refusing a value that is no canonical decimal of the formats (a bool
    is written as its int)."""
    if any(not 0 <= _require_int(name, value) < DECIMAL_BOUND for name, value in fields.items()):
        raise InvalidArgumentError(f"file values must be decimals of at most {MAX_DIGITS} digits")
    try:
        return "".join(f"{name}={value:d}\n" for name, value in fields.items())
    except ValueError as exc:  # past an interpreter's lowered int/str conversion limit
        raise InvalidArgumentError(f"file values: {exc}") from None
