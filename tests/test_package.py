"""The package as a whole: its exports, its record types and what its import loads."""

import copy
import importlib
import inspect
import pickle
import subprocess
import sys
import typing

import pytest

import cubetag
from cubetag import KeyMaterial, encrypt, play_round, prng_init, serialize_ciphertext, serialize_key

MODULES = ("cipher", "errors", "events", "keys", "modular", "prng", "roots")


def _child(code, *args, cwd=None):
    """The stdout lines of a fresh ``python -S`` running `code`; -S keeps a site-packages .pth
    file from importing modules before cubetag does."""
    return subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                          text=True, cwd=cwd, check=True).stdout.splitlines()


def test_root_exports_the_union_of_module_exports():
    exported = cubetag.__all__
    assert len(exported) == len(set(exported))
    modules = [importlib.import_module(f"cubetag.{name}") for name in MODULES]
    assert set(exported) == set().union(*(module.__all__ for module in modules))
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, f"{name} is not defined in {module.__name__}"
            assert getattr(cubetag, name) is obj
    assert not [name for name in exported if name.startswith("_")]


def test_cli_import_loads_no_code_introspection():
    # Every cubetag process imports cubetag.cli, so what it loads is paid on every command;
    # dataclasses alone would pull in inspect, ast and dis.
    code = ("import sys, cubetag.cli; "
            "print(*sorted({'ast', 'dataclasses', 'dis', 'inspect'} & set(sys.modules)))")
    assert _child(code) == [""]


@pytest.mark.parametrize("module, unused", [
    ("cipher", {"cubetag.keys"}),
    ("prng", {"cubetag.keys"}),
    ("events", {"cubetag.keys", "cubetag.roots"}),
])
def test_module_import_loads_no_annotation_only_module(module, unused):
    # A key and a root set reach these modules as arguments: their types appear in annotations
    # only, so importing the module loads neither the key nor the root module.
    code = f"import sys, cubetag.{module}; print(*sorted({unused!r} & set(sys.modules)))"
    assert _child(code) == [""]


def test_every_annotation_names_what_its_module_binds():
    # typing.get_type_hints evaluates annotations in their module's namespace: every function and
    # class of every module, the public ones and KeyMaterial's methods and properties among them
    for name in (*MODULES, "cli", "formats"):
        module = importlib.import_module(f"cubetag.{name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for each in (obj, *(m.fget if isinstance(m, property) else m for m in members)):
                if inspect.isclass(each) or inspect.isfunction(each):
                    typing.get_type_hints(each)


# Runs `python -m cubetag` with the child's arguments, then prints its exit code and the
# cubetag modules it loaded, and random if it was loaded.
_RUN_COMMAND = """import runpy, sys
try:
    runpy.run_module("cubetag", run_name="__main__", alter_sys=True)
except SystemExit as done:
    print(done.code)
print(*sorted(name for name in sys.modules if name.startswith("cubetag") or name == "random"))
"""
_BARE = {"cubetag", "cubetag.cli", "cubetag.errors"}
_KEYED = _BARE | {"cubetag.formats", "cubetag.keys", "cubetag.modular", "cubetag.roots"}
_CIPHER = _KEYED | {"cubetag.cipher"}


@pytest.mark.parametrize("argv, status, loaded", [
    (["--version"], 0, _BARE),
    (["--help"], 0, _BARE),
    (["encrypt", "--message", "12"], 2, _BARE),  # usage error: no --key
    (["keygen", "--mode", "cubic9", "--p", "7", "--q", "13", "--out", "new.key"], 0, _KEYED),
    (["keygen", "--mode", "cubic9", "--bits", "16", "--seed", "1", "--out", "new.key"], 0,
     _KEYED | {"random"}),  # only a prime search draws random numbers
    (["roots", "--key", "k.key"], 0, _KEYED),
    (["encrypt", "--key", "k.key", "--message", "12"], 0, _CIPHER),
    (["decrypt", "--key", "k.key", "--in", "k.ct"], 0, _CIPHER),
    (["table", "--key", "k.key"], 0, _CIPHER),
    (["rand", "--key", "k.key", "--seed", "5", "--radix", "2", "--count", "3"], 0,
     _KEYED | {"cubetag.prng"}),
    (["game", "--key", "k.key", "--message", "12", "--alice", "1", "--bob", "2"], 0,
     _CIPHER | {"cubetag.events"}),
], ids=["version", "help", "usage-error", "keygen", "keygen-search", "roots", "encrypt", "decrypt",
        "table", "rand", "game"])
def test_each_command_loads_only_its_modules(tmp_path, key91, argv, status, loaded):
    # A fresh process compiles every module it loads when no bytecode is cached, so a module
    # a command does not run is start-up paid for nothing.
    (tmp_path / "k.key").write_text(serialize_key(key91))
    (tmp_path / "k.ct").write_text(serialize_ciphertext(encrypt(12, key91)))
    *_, code, modules = _child(_RUN_COMMAND, *argv, cwd=tmp_path)
    assert int(code) == status
    assert set(modules.split()) == loaded


_STAR_IMPORT = """import importlib
names = {}
exec("from cubetag import *", names)
del names["__builtins__"]
modules = [importlib.import_module(f"cubetag.{name}") for name in MODULES]
print(list(names) == [name for module in modules for name in module.__all__])
"""
_DIR_FIRST = """import importlib, cubetag
listed = set(dir(cubetag))
modules = [importlib.import_module(f"cubetag.{name}") for name in MODULES]
print(set(cubetag.__all__) == {name for module in modules for name in module.__all__} <= listed)
"""
_UNKNOWN = """import cubetag
try:
    cubetag.no_such_name
except AttributeError as exc:
    print(exc)
"""
# A wrapper patched over a module's function must not become the root's, even when the root's
# name is first read while the patch is in place.
_PATCH_THEN_READ = """import cubetag.cipher
original = cubetag.cipher.encrypt
cubetag.cipher.encrypt = lambda *args: None
seen = cubetag.encrypt
cubetag.cipher.encrypt = original
print(seen is original and cubetag.encrypt is original)
"""


@pytest.mark.parametrize("code, printed", [
    (_STAR_IMPORT, "True"),
    (_DIR_FIRST, "True"),
    (_UNKNOWN, "module 'cubetag' has no attribute 'no_such_name'"),
    (_PATCH_THEN_READ, "True"),
], ids=["star-import", "dir-first", "unknown-name", "patch-then-read"])
def test_lazy_root_keeps_the_surface(code, printed):
    assert _child(f"MODULES = {MODULES!r}\n{code}") == [printed]


def test_records_copy_and_pickle_to_equal_values(key77, key91):
    records = [key77, key77.public(), encrypt(12, key77), play_round(key91, 12, 1, 2),
               prng_init(key91, 2)]
    for record in records:
        copies = [copy.copy(record), copy.deepcopy(record)] + [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for duplicate in copies:
            assert type(duplicate) is type(record) and duplicate == record
            assert repr(duplicate) == repr(record)
    duplicate = pickle.loads(pickle.dumps(key91))
    assert duplicate.alpha == key91.alpha and duplicate.roots.roots == key91.roots.roots


@pytest.mark.parametrize("name", ["mode", "n", "p", "q", "alpha", "unity_roots", "other"])
def test_key_attributes_cannot_be_set_or_deleted(key77, name):
    with pytest.raises(AttributeError):
        setattr(key77, name, 5)
    with pytest.raises(AttributeError):
        delattr(key77, name)
    assert key77 == KeyMaterial(key77.mode, 77, 7, 11) and key77.alpha == 23
