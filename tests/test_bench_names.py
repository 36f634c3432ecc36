"""The program names the benchmark reads still exist.

``perfbench/layers.py`` wraps program functions by name, and the benchmark
reads a few attributes and parameters besides.  A refactor that renames or
deletes one would otherwise surface only when the traced benchmark runs.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from blockembed import embed, hierarchy, oracle, stats

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


@pytest.mark.parametrize("owner, name", [
    (embed, "InvalidOffset"),
    (embed, "EmbeddingMap"),
    (oracle, "_Search"),
    (oracle.Instance, "from_fields"),
    (stats.Report, "to_csv"),
    (stats.Report, "to_records"),
])
def test_read_names_are_callable(owner, name):
    assert callable(getattr(owner, name, None))


def test_curve_outcome_reads_is_straight():
    assert isinstance(inspect.getattr_static(hierarchy.BoundaryCurve, "is_straight"), property)


def test_estimate_takes_workers():
    assert "workers" in inspect.signature(stats.estimate_S).parameters
