"""The benchmark tracer's targets still name real entry points.

``perfbench/hosttrace.py`` wraps methods and functions of ``repro`` by
dotted name for one traced pass.  A refactor that moves a traced method
into a base class, or renames it, makes the tracer fail at start-up
(class attributes resolve through the class's own ``__dict__``, so an
inherited method does not count).  These tests catch that in the
tier-1 suite instead of in the benchmark run.
"""

from __future__ import annotations

import importlib.util
import inspect
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).parent.parent


def _load_hosttrace():
    spec = importlib.util.spec_from_file_location(
        "perfbench_hosttrace", REPO / "perfbench" / "hosttrace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hosttrace = _load_hosttrace()
TARGETS = [target for _, target in hosttrace.SPANS] + list(
    hosttrace.COUNTERS.values()
)


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    owner, attr, raw = hosttrace._resolve(target)
    assert callable(raw) or isinstance(raw, property), target
    if inspect.isclass(owner):
        assert owner.__dict__[attr] is raw


def _bindings():
    """Every (owner, attr) -> original object the tracer may patch."""
    seen = {}
    for target in TARGETS:
        owner, attr, raw = hosttrace._resolve(target)
        if inspect.isclass(owner):
            seen[(owner, attr)] = raw
            continue
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                mod, attr, None
            ) is raw:
                seen[(mod, attr)] = raw
    return seen


def _current(owner, attr):
    return owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)


def test_trace_patches_and_restores_every_target():
    before = _bindings()
    with hosttrace.HostTrace():
        patched = [k for k, raw in before.items() if _current(*k) is not raw]
    assert len(patched) == len(before)
    changed = [k for k, raw in before.items() if _current(*k) is not raw]
    assert changed == []
