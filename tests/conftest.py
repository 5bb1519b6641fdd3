import builtins
import os
import sys
from pathlib import Path

import pytest

import cubetag
from cubetag import KeyMode, generate_key


@pytest.fixture(scope="session", autouse=True)
def _child_pythonpath():
    """Child interpreters (``python -m cubetag``) import the package under test."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(Path(cubetag.__file__).parent.parent), prepend=os.pathsep)
        yield


@pytest.fixture
def record_calls(monkeypatch):
    """`record_calls(module, *names)` wraps each named global of `module` so that every call
    appends `(name, args)` to one list, which it returns, and then runs the original. A name the
    module lacks raises, so a renamed function cannot count zero unnoticed; only "pow" is shadowed
    where the module would find the builtin."""
    calls = []

    def record(module, *names):
        for name in names:
            original = builtins.pow if name == "pow" else getattr(module, name)

            def recording(*args, name=name, original=original, **kwargs):
                calls.append((name, args))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, recording, raising=name != "pow")
        return calls
    return record


@pytest.fixture
def lowered_int_str_limit():
    """Lower the interpreter's int/str conversion limit to its least, 640 digits, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str conversion limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def key31():
    return generate_key(KeyMode.CUBIC3_PRIME, p=31)


@pytest.fixture(scope="session")
def key77():
    return generate_key(KeyMode.CUBIC3_COMPOSITE, p=7, q=11)


@pytest.fixture(scope="session")
def key91():
    return generate_key(KeyMode.CUBIC9_COMPOSITE, p=7, q=13)


@pytest.fixture(scope="session")
def key77_square():
    return generate_key(KeyMode.SQUARE_COMPOSITE, p=7, q=11)


@pytest.fixture(scope="session")
def keys1024():
    """One key per mode at 1024 bits, seed 1: every factor is above the deterministic bound."""
    return {mode: generate_key(mode, bits=1024, seed=1) for mode in KeyMode}
