"""Shared fixtures, and the one reading of the large-size switch."""

import os
from pathlib import Path

import pytest

import orbitchar

# ORBITCHAR_LARGE=1 adds the larger sizes to the acceptance, arrangement,
# min-norm and orbit tests; test modules read it as `from conftest import LARGE`
LARGE = os.environ.get("ORBITCHAR_LARGE") == "1"


@pytest.fixture
def subprocess_env():
    """The environment for a child Python that must import the package
    under test: its source directory ahead of any PYTHONPATH already set."""
    src = str(Path(orbitchar.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
