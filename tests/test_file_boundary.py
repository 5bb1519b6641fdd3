"""Property: a key or ciphertext file with a few characters edited either
fails to parse with a KeyFileError naming a line or re-serializes to the same
bytes, so the file boundary accepts exactly one spelling of every value it
accepts."""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from cubetag import (
    KeyFileError,
    KeyMode,
    generate_key,
    parse_ciphertext,
    parse_key,
    serialize_ciphertext,
    serialize_key,
)

_KEYS = [
    generate_key(KeyMode.CUBIC3_PRIME, p=31),
    generate_key(KeyMode.CUBIC3_COMPOSITE, p=7, q=11),
    generate_key(KeyMode.CUBIC9_COMPOSITE, p=7, q=13),
    generate_key(KeyMode.SQUARE_COMPOSITE, p=7, q=11),
]
_KEY_FILES = [serialize_key(k) for key in _KEYS for k in (key, key.public())]
_CIPHERTEXT_FILE = "c=83\ntag=2\n"

# digits, separators and look-alikes: the superscript two and Arabic-Indic
# seven pass str.isdigit
_ALPHABET = "0123456789=\n\r +-_pqnacmtg²٧"


@st.composite
def _edited(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        char = "" if kind == "delete" else draw(st.sampled_from(_ALPHABET))
        text = text[:at] + char + text[at + (kind != "insert"):]
    return text


def _accepted_unchanged(parse, serialize, text):
    try:
        parsed = parse(text)
    except KeyFileError as exc:
        return exc.line is not None or not text
    return serialize(parsed) == text


@settings(max_examples=400, deadline=None)
@given(text=_edited(_KEY_FILES))
def test_edited_key_file_rejected_or_canonical(text):
    assert _accepted_unchanged(parse_key, serialize_key, text)


@settings(max_examples=200, deadline=None)
@given(text=_edited([_CIPHERTEXT_FILE]))
def test_edited_ciphertext_file_rejected_or_canonical(text):
    parse = partial(parse_ciphertext, mode=KeyMode.CUBIC9_COMPOSITE)
    assert _accepted_unchanged(parse, serialize_ciphertext, text)
