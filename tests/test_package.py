"""The package as a whole: its exports, its record types and what its import loads."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cubetag
from cubetag import KeyMaterial, encrypt, play_round, prng_init

MODULES = ("cipher", "errors", "events", "keys", "modular", "prng", "roots")


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
    # dataclasses alone would pull in inspect, ast and dis. -S keeps a site-packages .pth
    # file from importing them before cubetag does.
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, cubetag.cli; "
            "print(*sorted({'ast', 'dataclasses', 'dis', 'inspect'} & set(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": pythonpath}, check=True).stdout
    assert loaded.split() == []


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
