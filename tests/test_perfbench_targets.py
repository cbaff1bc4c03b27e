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


def _traced_sparse_writers():
    """Three SparseWriters on a fixed 2-CPU kernel, run to exit under
    the tracer; (trace counts, ops fetched by type, tasks, kernel)."""
    from repro.simkernel import Kernel
    from repro.simkernel.process import Task
    from repro.workloads import SparseWriter

    fetched = {}
    next_op = Task.next_op

    def counting_next_op(task):
        op = next_op(task)
        if op is not None:
            fetched[type(op).__name__] = fetched.get(type(op).__name__, 0) + 1
        return op

    Task.next_op = counting_next_op
    try:
        with hosttrace.HostTrace() as trace:
            k = Kernel(ncpus=2, seed=3)
            tasks = [
                SparseWriter(iterations=40, heap_bytes=256 * 1024, seed=s,
                             compute_ns=500_000, dirty_fraction=0.2,
                             ).spawn(k, name=f"w{s}")
                for s in range(3)
            ]
            for task in tasks:
                k.run_until_exit(task)
    finally:
        Task.next_op = next_op
    return trace.counts, fetched, tasks, k


def test_count_hooks_are_exact_on_a_fixed_kernel():
    """``kernel.ops`` counts every op the kernel executes and
    ``kernel.page_writes`` every page write it services: a fast path that
    bypasses ``Kernel._execute`` or ``AddressSpace.write_access`` fails
    here.  The event count is pinned too, so an idle-path change that
    drops dispatch or tick events fails here as well."""
    counts, fetched, tasks, k = _traced_sparse_writers()
    assert all(t.exit_code == 0 for t in tasks)
    # Each task: 40 iterations of one Compute and 13 single-page writes
    # (20% of 64 heap pages), then its Exit op.
    assert fetched == {"Compute": 3 * 40, "MemWrite": 3 * 40 * 13, "Exit": 3}
    assert sum(t.main_steps for t in tasks) == 3 * 40 * 14
    assert counts["kernel.ops"] == sum(fetched.values())
    assert counts["kernel.page_writes"] == fetched["MemWrite"]
    assert k.engine.metrics.counters()["engine.events"] == 1753
