"""Per-layer host-time spans recorded around calls into the program.

The benchmark never edits ``src/``: :class:`HostTrace` wraps the public
(and a few internal) entry points of each layer *from outside*, for the
duration of one traced pass, and restores the originals afterwards.

Every wrapped call is a span named ``<layer>:<function>``.  Spans nest
on a stack, so a layer's **self time** is its spans' durations minus
the part covered by child spans -- ``dedup`` time excludes the
``digest`` and ``replicated`` calls it makes, and ``simkernel`` (the
residual inside ``Engine.run``) excludes every layer an engine event
calls into.  Generator functions (the capture entry points, which the
kernel drives op by op) are timed per resume.

Spans are aggregated in memory as they close (self time and call count
per span name) rather than kept one by one: a traced pass closes
hundreds of thousands of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["HostTrace", "SPANS", "COUNTERS", "LAYERS"]

# (layer, "module:Qualname") -- Qualname is ``Class.attr`` or a module
# function; module functions are patched in every ``repro`` module that
# imported them by name.
SPANS: List[Tuple[str, str]] = [
    ("simkernel", "repro.simkernel.engine:Engine.run"),
    ("cluster.job", "repro.cluster.job:ParallelJob.finished"),
    ("cluster.job", "repro.cluster.job:CheckpointCoordinator._wave"),
    ("cluster.job", "repro.cluster.job:CheckpointCoordinator._poll_wave"),
    ("cluster.job", "repro.cluster.job:CheckpointCoordinator._on_failure"),
    ("cluster.job", "repro.cluster.machine:Cluster.fail_node"),
    ("capture", "repro.core.direction:AutonomicCheckpointer.request_checkpoint"),
    ("capture", "repro.mechanisms.systemlevel.base:SystemLevelCheckpointer.arm_incremental"),
    ("capture", "repro.mechanisms.systemlevel.base:SystemLevelCheckpointer._page_set"),
    ("capture", "repro.core.capture:snapshot_metadata"),
    ("capture", "repro.core.capture:copy_pages"),
    ("capture", "repro.core.capture:capture_extents"),
    ("capture", "repro.core.capture:store_image"),
    ("digest", "repro.core.digest:block_digests"),
    ("digest", "repro.core.digest:payload_digest"),
    ("dedup", "repro.stablestore.contentstore:ContentStore.store"),
    ("dedup", "repro.stablestore.contentstore:ContentStore.load"),
    ("dedup", "repro.stablestore.contentstore:ContentStore.load_parallel"),
    ("dedup", "repro.stablestore.contentstore:ContentStore.delete"),
    ("dedup", "repro.stablestore.contentstore:ContentStore.open_stream"),
    ("dedup", "repro.stablestore.contentstore:DedupWriteStream.send_chunk"),
    ("dedup", "repro.stablestore.contentstore:DedupWriteStream.commit"),
    ("erasure", "repro.stablestore.erasure:ErasureStore.store"),
    ("erasure", "repro.stablestore.erasure:ErasureStore.store_delta"),
    ("erasure", "repro.stablestore.erasure:ErasureStore.load"),
    ("erasure", "repro.stablestore.erasure:ErasureStore.load_parallel"),
    ("erasure", "repro.stablestore.erasure:ErasureStore.delete"),
    ("erasure", "repro.stablestore.erasure:ErasureStore.open_stream"),
    ("erasure", "repro.stablestore.erasure:ErasureStore.open_delta_stream"),
    ("erasure", "repro.stablestore.erasure:ErasureWriteStream.send"),
    ("erasure", "repro.stablestore.erasure:ErasureWriteStream.commit"),
    ("erasure", "repro.stablestore.erasure:DeltaWriteStream.send"),
    ("erasure", "repro.stablestore.erasure:DeltaWriteStream.commit"),
    ("erasure", "repro.stablestore.erasure:ErasureRepairer._start_repair"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchicalStore.store"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchicalStore.store_delta"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchicalStore.load"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchicalStore.load_parallel"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchicalStore.delete"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchicalStore.open_stream"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchicalStore._writeback"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchicalStore._promote"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchyWriteStream.send"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchyWriteStream.send_chunk"),
    ("hierarchy", "repro.stablestore.hierarchy:HierarchyWriteStream.commit"),
    ("pipeline", "repro.stablestore.pipeline:WritebackPipeline.__init__"),
    ("pipeline", "repro.stablestore.pipeline:WritebackPipeline.submit"),
    ("pipeline", "repro.stablestore.pipeline:WritebackPipeline.ns_until_slot"),
    ("pipeline", "repro.stablestore.pipeline:WritebackPipeline.barrier_ns"),
    ("pipeline", "repro.stablestore.pipeline:WritebackPipeline.commit"),
    ("replicated", "repro.stablestore.replicated:ReplicatedStore.store"),
    ("replicated", "repro.stablestore.replicated:ReplicatedStore.load"),
    ("replicated", "repro.stablestore.replicated:ReplicatedStore.load_fanout"),
    ("replicated", "repro.stablestore.replicated:ReplicatedStore.load_parallel"),
    ("replicated", "repro.stablestore.replicated:ReplicatedStore.delete"),
    ("replicated", "repro.stablestore.replicated:ReplicatedStore.open_stream"),
    ("replicated", "repro.stablestore.replicated:ReplicaWriteStream.send"),
    ("replicated", "repro.stablestore.replicated:ReplicaWriteStream.commit"),
    ("replicated", "repro.stablestore.repair:ReplicationRepairer.scan"),
    ("restart", "repro.core.checkpointer:Checkpointer.restart"),
    ("restart", "repro.core.checkpointer:Checkpointer.image_chain"),
    ("restart", "repro.core.checkpointer:Checkpointer.chain_available"),
    ("restart", "repro.core.checkpointer:Checkpointer.maybe_compact"),
    ("restart", "repro.core.image:materialize_chain"),
    ("restart", "repro.core.capture:restore_image"),
    ("runner", "repro.runner.parallel:run_parallel"),
    ("runner", "repro.simkernel.parallel:run_windows"),
    ("parallel", "repro.runner.parallel:ProcessShardGroup.__init__"),
    ("parallel", "repro.runner.parallel:ProcessShardGroup.close"),
    ("parallel", "repro.runner.parallel:ProcessShardGroup.export_all"),
    ("parallel.barrier", "repro.runner.parallel:ProcessShardGroup.status_all"),
    ("parallel.barrier", "repro.runner.parallel:ProcessShardGroup.window_all"),
    ("parallel.barrier", "repro.runner.parallel:ProcessShardGroup.exchange"),
    ("parallel.barrier", "repro.runner.parallel:ProcessShardGroup.deliver_all"),
    ("obs", "repro.obs.fold:fold_exports_arrays"),
    ("obs", "repro.obs.fold:fold_exports"),
    ("obs", "repro.obs.fold:strip_metrics"),
    ("obs", "repro.obs.export:export_obs"),
    ("obs", "repro.obs.export:to_json"),
]

# Count-only hooks (no span): name -> "module:Qualname".  These sit on
# the per-op hot path, where a timed span would distort the simkernel
# share it is meant to measure.
COUNTERS: Dict[str, str] = {
    "kernel.ops": "repro.simkernel.kernel:Kernel._execute",
    "kernel.page_writes": "repro.simkernel.memory:AddressSpace.write_access",
}

#: Every layer, in report order.
LAYERS: List[str] = list(dict.fromkeys(layer for layer, _ in SPANS))


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"mod:Cls.attr"`` -> (owner, attr, raw attribute)."""
    mod_name, qual = target.split(":")
    owner: Any = importlib.import_module(mod_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if path else getattr(owner, attr)
    return owner, attr, raw


class HostTrace:
    """Aggregated host-time spans plus count hooks for one traced pass.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original attribute.  ``self_ns`` / ``calls`` are
    keyed by span name; :meth:`layer_self_ns` sums them per layer.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.counts["digest.bytes"] = 0
        self.counts["restart.images_read"] = 0
        self._stack: List[List[Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- span stack ----------------------------------------------------
    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = perf_counter_ns()
        name, start, child_ns = self._stack.pop()
        dur = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += dur

    def _inside(self, layer: str) -> bool:
        return bool(self._stack) and self._stack[-1][0].startswith(layer + ":")

    # -- wrappers ------------------------------------------------------
    def _span_fn(self, name: str, fn: Callable,
                 on_call: Optional[Callable] = None,
                 on_result: Optional[Callable] = None) -> Callable:
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _span_gen(self, name: str, fn: Callable) -> Callable:
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                gen = fn(*args, **kwargs)
            finally:
                exit_()
            value = None
            while True:
                enter(name)
                try:
                    item = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    exit_()
                value = yield item

        return wrapper

    def _count_fn(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name: str):
        """Per-span count hooks (measured where the work happens)."""
        counts = self.counts
        if name.startswith("digest:"):
            def on_call(args):
                # payload_digest calls block_digests: count bytes once.
                if not self._inside("digest"):
                    counts["digest.bytes"] += int(args[0].size)
            return on_call, None
        if name == "restart:Checkpointer.image_chain":
            def on_result(result):
                counts["restart.images_read"] += len(result[0])
            return None, on_result
        return None, None

    # -- install / remove ----------------------------------------------
    def _patch(self, owner: Any, attr: str, raw: Any, new: Any) -> None:
        if inspect.isclass(owner):
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        # Module function: replace every by-name import of it too.
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                    getattr(mod, attr, None) is raw):
                self._undo.append((mod, attr, raw))
                setattr(mod, attr, new)

    def __enter__(self) -> "HostTrace":
        for layer, target in SPANS:
            owner, attr, raw = _resolve(target)
            name = f"{layer}:{target.split(':')[1]}"
            if isinstance(raw, property):
                new: Any = property(self._span_fn(name, raw.fget))
            elif inspect.isgeneratorfunction(raw):
                new = self._span_gen(name, raw)
            else:
                on_call, on_result = self._hooks(name)
                new = self._span_fn(name, raw, on_call, on_result)
            self._patch(owner, attr, raw, new)
        for count_name, target in COUNTERS.items():
            owner, attr, raw = _resolve(target)
            self._patch(owner, attr, raw, self._count_fn(count_name, raw))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- results -------------------------------------------------------
    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer (layers that never ran report 0)."""
        out = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(":")[0]] += ns
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, n in self.calls.items():
            out[name.split(":")[0]] += n
        return out
