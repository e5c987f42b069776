"""The benchmark's traced mode still fits the package it patches.

``perfbench/tracing.py`` replaces names in ``dtrealize`` by timing wrappers
(``perfbench/run.py --trace 1``). A name deleted or renamed in the package
would break that mode only when it is run, so these tests load the module by
file path and check every name it patches.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dtrealize import realizer
from dtrealize.instances import fan_triangulation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _patched(tracing):
    return [(mod, attr) for mod, attr, _, _ in tracing.PATCHES] + [(realizer, "round_candidates")]


def test_every_patched_name_resolves(tracing):
    missing = [f"{mod.__name__}.{attr}" for mod, attr in _patched(tracing)
               if not hasattr(mod, attr)]
    assert missing == []


def test_installed_wraps_and_restores(tracing):
    """Fan 7's first trial is cocircular and its first jitter certifies: two
    certify calls on one drawn rounding candidate."""
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr in _patched(tracing)]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(getattr(mod, attr) is not fn for mod, attr, fn in originals)
        assert realizer.realize(fan_triangulation(7)).status == "REALIZED"
    assert all(getattr(mod, attr) is fn for mod, attr, fn in originals)
    names = [s.name for s in tracer.spans]
    assert "realizer.realize" in names
    assert names.count("realizer.certify") == 2
    assert names.count("realizer.repair_radii") == 1
    assert sum(bool(s.attrs.get("drawn")) for s in tracer.spans
               if s.name == "realizer.round_candidates") == 1

