"""The functions the benchmark's traced run patches still exist.

``perfbench/layers.py`` wraps program functions by name.  A refactor that
renames one would otherwise surface only when the traced benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_patched_names_exist(layers, table):
    missing = [f"{mod.__name__}.{name}"
               for mod, names in getattr(layers, table).items()
               for name in names if not callable(getattr(mod, name, None))]
    assert not missing
