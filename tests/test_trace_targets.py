"""The benchmark's tracer still finds every cpbound function it wraps.

``perfbench/spantrace.py`` looks cpbound functions up by module and name, so
renaming or removing one of them breaks ``perfbench/run.py --trace 1``.  These
tests load the tracer read-only and check its targets against the package.
"""

import sys
from pathlib import Path

import pytest

import cpbound.cli  # noqa: F401  (loads every layer)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spantrace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spantrace

    return spantrace


def cpbound_bindings():
    """Every name bound in a loaded cpbound module, and every class attribute there."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "cpbound" or name.startswith("cpbound."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, f"{key}.{attr}")] = member
    return out


def test_every_target_resolves(spantrace):
    assert spantrace.TARGETS
    for module_name, attr, _, _ in spantrace.TARGETS:
        module = sys.modules[f"cpbound.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_tracer_installs_and_restores(spantrace):
    before = cpbound_bindings()
    with spantrace.Tracer().installed():
        during = cpbound_bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        for module_name, attr, _, _ in spantrace.TARGETS:
            assert (f"cpbound.{module_name}", attr) in wrapped, f"{module_name}.{attr} not wrapped"
    after = cpbound_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
