import os
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
