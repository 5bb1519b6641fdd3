"""The package root re-exports each module's public names, declared once in its ``__all__``."""

import importlib

import cubetag

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
