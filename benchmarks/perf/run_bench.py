#!/usr/bin/env python
"""Wall-clock microbenchmarks for the simulator's host-side fast paths.

Unlike the ``test_eNN`` experiments (which measure *virtual* nanoseconds
inside the simulation), this harness measures *simulator wall-clock*:
how fast the Python process itself scans blocks, captures pages,
materializes chains, digests and codes checkpoint data and dispatches
events.  Every timed row is paired with a reference timed in the same
run, so the ratio between them does not depend on the host's speed:

* ``block_scan``  -- vectorized :func:`repro.core.digest.block_digests`
  vs a faithful reimplementation of the seed's scalar per-block loop
  (``zlib.adler32`` per slice plus a dict lookup per block).  The
  acceptance bar is a >=3x speedup.
* ``capture``     -- the capture path, one ``take_pages`` row extent of
  the live arrays ``read_pages`` freezes per run, vs a per-page copy
  loop (``read_page`` + a frozen copy of each page).
* ``materialize`` -- flattening an incremental chain (extent base plus
  sub-page delta generations) with the overlay-based
  :func:`~repro.core.image.materialize_chain`.
* ``dedup``       -- bytes pushed at the backing store with and without
  the content-addressed :class:`~repro.stablestore.ContentStore` for a
  repeated-generation workload, plus ``digest_speedup``: one batched
  :func:`~repro.core.digest.page_digests` call vs a per-page
  :func:`~repro.core.digest.payload_digest` loop over the same page
  stack.
* ``engine``      -- events/second through the tuple-heap
  :class:`~repro.simkernel.engine.Engine` vs a faithful
  reimplementation of the seed's scheduler (an ``order=True`` Event
  dataclass in a single ``heapq``), on an empty-callback event storm
  and on a mixed schedule/cancel workload.  The row keys keep their
  ``hybrid`` name from the timer wheel the engine once used.
* ``grid_runner`` -- wall-clock of an E12-style system-MTBF sweep:
  the pre-runner serial shape (one scheduled event per node per trial)
  vs the sharded :class:`~repro.runner.GridRunner` over
  fleet-vectorized cells, cold-cache (single- and multi-worker) and
  warm-cache.  The acceptance bar is a >=4x sweep speedup.
* ``parallel_engine`` -- aggregate events/second of a failure-storm
  fleet through the conservative time-windowed parallel engine
  (:mod:`repro.simkernel.parallel`): 1 shard vs 4 shards in-process vs
  4 shards over worker processes (the pipe transport), and the 1-shard
  storm against its 16x smaller twin.
* ``pipeline``    -- virtual-time downtime overlap and chain-restart
  speedup of the asynchronous C/R pipeline, plus the wall-clock of the
  pipelined capture run.
* ``distsnap``    -- coordinated distributed snapshots: deterministic
  virtual-time columns (marker latency, logged in-flight channel
  state, stop-the-world downtime, exactly-once restart) plus the
  wall-clock of a full marker snapshot+restart cycle, also counted per
  seed-engine storm drained in the same run.
* ``erasure``     -- the ``4+2`` Reed-Solomon tier on 256 KiB: packed
  pair-table encode timed against the seed's per-coefficient encode,
  and degraded decode and the O(dirty) ``rs_update_parity`` delta
  path, each timed against a full encode;
  the delta's kernel bytes against a full re-encode's; and the tier's
  deterministic survival envelope, physical-bytes ratio and depth<=1
  hierarchy identity.

The scenarios and the timing helper come from ``scenarios.py``, which
the ``check_*.py`` scripts share.  Results are written as JSON
(default: ``BENCH_PERF.json`` at the repo root -- the committed
baseline), with the ``host`` they were measured on.  ``--check
BASELINE.json`` compares every same-run ratio in :data:`GUARDS` with
the baseline's and exits non-zero when one falls by more than
:data:`MAX_REGRESSION`; CI runs this against the committed file, so a
fast path rotting back into its reference loop fails the build while a
slower host does not.  No absolute throughput is guarded here, and no
deterministic bar a ``check_*.py`` script already gates.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py
    PYTHONPATH=src python benchmarks/perf/run_bench.py \
        --out /tmp/bench.json --check BENCH_PERF.json
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import platform
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from scenarios import (  # also puts the repository's src/ on sys.path
    DISTSNAP_N, DISTSNAP_RATE, DISTSNAP_WARMUP_NS, REPO_ROOT, RS_K, RS_M,
    SMALL_STORM_NODES, STORM_HORIZON_S, STORM_MTBF_S, STORM_NODES,
    bench_workers, best_of,
    distsnap_build, distsnap_snapshot, e12_cells, erasure_envelope,
    hierarchy_identity, marker_cycle, mean_delta_stall,
    physical_bytes_vs_rf3, pipeline_build, pipeline_restart,
    rs_delta_kernel_bytes, rs_dirty, rs_encode_reference, rs_payload, storm,
)

from repro.core.capture import _extent_runs
from repro.core.digest import block_digests, page_digests, payload_digest
from repro.core.image import CheckpointImage, materialize_chain
from repro.simkernel.engine import Engine
from repro.simkernel.memory import Prot, VMA, VMAKind
from repro.stablestore import ContentStore
from repro.storage.backends import MemoryStorage

PAGE = 4096
#: Schema of the BENCH_PERF document; a baseline of another schema is
#: not comparable.
SCHEMA = 2
#: Timing repeats per microbench (the minimum is reported).
REPEATS = 5
#: Allowed fall of a guarded same-run ratio below the baseline's.
MAX_REGRESSION = 2.0
#: The engine storm: pending events and the span they are spread over.
STORM_EVENTS = 100_000
SPAN_NS = 50_000_000


def make_pages(npages: int, seed: int = 42) -> np.ndarray:
    """(npages, PAGE) uint8 test corpus: structured, partially repeating."""
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, 256, size=(npages, PAGE), dtype=np.uint8)
    # A third of the corpus repeats earlier content (dedup-able), and a
    # slice is zero pages, like real heaps.
    for i in range(0, npages, 3):
        pages[i] = pages[i % max(1, npages // 3)]
    pages[:: max(1, npages // 8)] = 0
    return pages


def frozen_copy(data: np.ndarray) -> np.ndarray:
    """A read-only copy of ``data``, safe to hand to ``take_pages``."""
    data = np.array(data, copy=True)
    data.flags.writeable = False
    return data


# ----------------------------------------------------------------------
# 1. Block scan: scalar seed loop vs vectorized digests
# ----------------------------------------------------------------------
def scalar_scan(pages: np.ndarray, bs: int, digests: Dict) -> int:
    """The seed's per-block loop, verbatim shape: slice, adler32, dict."""
    per_page = PAGE // bs
    saved = 0
    for pidx in range(pages.shape[0]):
        data = pages[pidx]
        for b in range(per_page):
            block = data[b * bs : (b + 1) * bs]
            digest = zlib.adler32(block.tobytes()) & 0xFFFFFFFF
            key = (pidx, b)
            prev = digests.get(key)
            if prev is None or prev != digest:
                digests[key] = digest
                saved += 1
    return saved


def vector_scan(pages: np.ndarray, bs: int, prev: Dict) -> int:
    """The fast path: one digest pass + one compare per page stack."""
    per_page = PAGE // bs
    digests = block_digests(pages.reshape(-1), bs).reshape(-1, per_page)
    saved = 0
    for pidx in range(pages.shape[0]):
        cur = digests[pidx]
        old = prev.get(pidx)
        saved += per_page if old is None else int(np.count_nonzero(cur != old))
        prev[pidx] = cur
    return saved


def bench_block_scan(npages: int, bs: int, repeats: int) -> Dict:
    """Throughput of a warm rescan (digest table populated) both ways."""
    pages = make_pages(npages)
    nbytes = pages.size

    # Warm both tables: a rescan is the hot case.
    scalar_tab: Dict = {}
    scalar_scan(pages, bs, scalar_tab)
    vec_tab: Dict = {}
    vector_scan(pages, bs, vec_tab)
    t_scalar, t_vec = best_of(repeats,
                              lambda: scalar_scan(pages, bs, scalar_tab),
                              lambda: vector_scan(pages, bs, vec_tab))

    return {
        "pages": npages,
        "block_size": bs,
        "scalar_mbps": round(nbytes / t_scalar / 1e6, 1),
        "vectorized_mbps": round(nbytes / t_vec / 1e6, 1),
        "speedup": round(t_scalar / t_vec, 2),
    }


# ----------------------------------------------------------------------
# 2. Capture: per-page loop vs extent coalescing
# ----------------------------------------------------------------------
def bench_capture(npages: int, repeats: int) -> Dict:
    """Wall cost of filling a CheckpointImage from a resident VMA."""
    vma = VMA(name="heap", start=0x1000_0000, npages=npages,
              prot=Prot.READ | Prot.WRITE, kind=VMAKind.HEAP, page_size=PAGE)
    corpus = make_pages(npages)
    for i in range(npages):
        vma.install_page(i, corpus[i])
    pages: List[Tuple[str, int]] = [("heap", i) for i in range(npages)]

    def meta() -> CheckpointImage:
        return CheckpointImage(key="b", mechanism="bench", pid=1,
                               task_name="b", node_id=0, step=0, registers={})

    def per_page() -> None:
        img = meta()
        for name, i in pages:
            img.take_pages(name, i, (frozen_copy(vma.read_page(i)),))

    def extents() -> None:
        img = meta()
        for name, start, n in _extent_runs(pages):
            img.take_pages(name, start, vma.read_pages(start, n))

    t_page, t_ext = best_of(repeats, per_page, extents)
    nbytes = npages * PAGE
    return {
        "pages": npages,
        "per_page_mbps": round(nbytes / t_page / 1e6, 1),
        "extent_mbps": round(nbytes / t_ext / 1e6, 1),
        "speedup": round(t_page / t_ext, 2),
    }


# ----------------------------------------------------------------------
# 3. materialize_chain latency
# ----------------------------------------------------------------------
def bench_materialize(npages: int, ndeltas: int, repeats: int) -> Dict:
    """Flatten an extent base + ``ndeltas`` sub-page delta generations."""
    corpus = make_pages(npages)
    base = CheckpointImage(key="m/1/0", mechanism="bench", pid=1,
                           task_name="b", node_id=0, step=0, registers={})
    for start in range(0, npages, 64):
        n = min(64, npages - start)
        base.take_pages("heap", start, frozen_copy(corpus[start : start + n]))
    chain = [base]
    rng = np.random.default_rng(7)
    for d in range(ndeltas):
        img = CheckpointImage(key=f"m/1/{d + 1}", mechanism="bench", pid=1,
                              task_name="b", node_id=0, step=d + 1,
                              registers={}, parent_key=chain[-1].key)
        for pidx in rng.choice(npages, size=npages // 8, replace=False):
            img.add_block("heap", int(pidx), 512,
                          rng.integers(0, 256, size=512, dtype=np.uint8))
        chain.append(img)

    (t,) = best_of(repeats, lambda: materialize_chain(chain, page_size=PAGE))
    flat = materialize_chain(chain, page_size=PAGE)
    return {
        "pages": npages,
        "deltas": ndeltas,
        "chain_chunks": sum(len(img.chunks) for img in chain),
        "flat_chunks": len(flat.chunks),
        "latency_ms": round(t * 1e3, 2),
    }


# ----------------------------------------------------------------------
# 4. Dedup write traffic
# ----------------------------------------------------------------------
def bench_dedup(npages: int, generations: int, dirty_fraction: float,
                repeats: int) -> Dict:
    """Backing-store bytes for repeated generations, plain vs dedup."""
    rng = np.random.default_rng(11)
    corpus = make_pages(npages)
    t_scalar, t_batch = best_of(repeats,
                                lambda: [payload_digest(p) for p in corpus],
                                lambda: page_digests(corpus, PAGE))

    def generation_images():
        data = corpus.copy()
        for g in range(generations):
            if g:
                dirty = rng.choice(npages, size=int(npages * dirty_fraction),
                                   replace=False)
                data[dirty] = rng.integers(0, 256, size=(dirty.size, PAGE),
                                           dtype=np.uint8)
            img = CheckpointImage(key=f"m/1/{g}", mechanism="bench", pid=1,
                                  task_name="b", node_id=0, step=g, registers={})
            for i in range(npages):
                img.take_pages("heap", i, (frozen_copy(data[i]),))
            yield img

    plain = MemoryStorage()
    for img in generation_images():
        plain.store(img.key, img, img.size_bytes, 0)

    rng = np.random.default_rng(11)  # identical mutation sequence
    dedup = ContentStore(MemoryStorage())
    t0 = time.perf_counter()
    for img in generation_images():
        dedup.store(img.key, img, img.size_bytes, 0)
    store_s = time.perf_counter() - t0

    return {
        "pages": npages,
        "generations": generations,
        "dirty_fraction": dirty_fraction,
        "plain_bytes_written": plain.bytes_written,
        "dedup_bytes_written": dedup.inner.bytes_written,
        "traffic_reduction": round(
            plain.bytes_written / max(1, dedup.inner.bytes_written), 2
        ),
        "dedup_ratio": round(dedup.dedup_ratio, 2),
        "store_mbps": round(
            dedup.logical_payload_bytes / store_s / 1e6, 1
        ),
        "digest_speedup": round(t_scalar / t_batch, 2),
    }


# ----------------------------------------------------------------------
# Engine scheduler: tuple heap vs the seed's heapq of dataclasses
# ----------------------------------------------------------------------
@dataclass(order=True)
class _SeedEvent:
    """The seed engine's Event: an ``order=True`` dataclass in a heap."""

    time_ns: int
    seq: int
    fn: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    popped: bool = field(default=False, compare=False)
    _engine: Optional[object] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        if self.cancelled or self.popped:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._live -= 1


class _SeedEngine:
    """Faithful reimplementation of the seed scheduler's hot path:
    one ``heapq`` of :class:`_SeedEvent` objects, cancelled events
    retained in the heap until their scheduled time is reached."""

    def __init__(self) -> None:
        self._now_ns = 0
        self._heap: List[_SeedEvent] = []
        self._live = 0
        self._seq = itertools.count()

    @property
    def now_ns(self) -> int:
        return self._now_ns

    def at(self, time_ns: int, fn: Callable[[], None]) -> _SeedEvent:
        ev = _SeedEvent(int(time_ns), next(self._seq), fn, _engine=self)
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def after(self, delay_ns: int, fn: Callable[[], None]) -> _SeedEvent:
        return self.at(self._now_ns + int(delay_ns), fn)

    def run(self) -> int:
        processed = 0
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)
            ev.popped = True
            if ev.cancelled:
                continue
            self._live -= 1
            self._now_ns = ev.time_ns
            ev.fn()
            processed += 1
        return processed

    def stored_events(self) -> int:
        return len(self._heap)


def _noop() -> None:
    pass


#: Deterministic pseudo-random spread (Knuth multiplicative hash) --
#: identical schedules for both engines without touching an RNG.
def _storm_times(n: int, span_ns: int) -> List[int]:
    return [(i * 2654435761) % span_ns for i in range(n)]


def _run_storm(make_engine: Callable[[], object], schedule: Callable,
               n: int, span_ns: int) -> None:
    """Schedule and drain ``n`` empty-callback events."""
    eng = make_engine()
    sched = schedule(eng)
    for t in _storm_times(n, span_ns):
        sched(t, _noop)
    eng.run()


def _run_mixed(make_engine: Callable[[], object], n: int, span_ns: int,
               cancel_every: int) -> int:
    """Schedule ``n`` timers, cancel all but every ``cancel_every``-th,
    then drain.  Returns the entries stored after the cancels -- the
    seed engine retains every cancelled event in its heap; the current
    engine compacts."""
    eng = make_engine()
    handles = [eng.at(t, _noop) for t in _storm_times(n, span_ns)]
    for i, h in enumerate(handles):
        if i % cancel_every:
            h.cancel()
    stored = eng.stored_events()
    eng.run()
    return stored


def bench_engine(n: int, span_ns: int, repeats: int) -> Dict:
    """Events/second through the scheduler, the engine's tuple heap
    (``*_hybrid_*`` rows) vs the seed's heap of dataclasses."""
    storm_seed, storm_hybrid, storm_labelled = best_of(
        repeats,
        lambda: _run_storm(_SeedEngine, lambda e: e.at, n, span_ns),
        lambda: _run_storm(Engine, lambda e: e.at_anon, n, span_ns),
        lambda: _run_storm(Engine, lambda e: e.at, n, span_ns),
    )

    cancel_every = 4  # cancel 3 of every 4 timers
    mixed_seed, mixed_hybrid = best_of(
        repeats,
        lambda: _run_mixed(_SeedEngine, n, span_ns, cancel_every),
        lambda: _run_mixed(Engine, n, span_ns, cancel_every),
    )
    seed_stored = _run_mixed(_SeedEngine, n, span_ns, cancel_every)
    hybrid_stored = _run_mixed(Engine, n, span_ns, cancel_every)

    return {
        "events": n,
        "span_ms": span_ns // 1_000_000,
        "storm_seed_eps": round(n / storm_seed),
        "storm_hybrid_eps": round(n / storm_hybrid),
        "storm_labelled_eps": round(n / storm_labelled),
        "storm_speedup": round(storm_seed / storm_hybrid, 2),
        "mixed_cancel_fraction": round(1 - 1 / cancel_every, 2),
        "mixed_seed_eps": round(n / mixed_seed),
        "mixed_hybrid_eps": round(n / mixed_hybrid),
        "mixed_speedup": round(mixed_seed / mixed_hybrid, 2),
        "mixed_stored_after_cancels_seed": seed_stored,
        "mixed_stored_after_cancels_hybrid": hybrid_stored,
    }


# ----------------------------------------------------------------------
# Grid runner: serial per-node-event sweep vs sharded fleet-cell sweep
# ----------------------------------------------------------------------
def bench_grid_runner(sizes: List[int], node_mtbf_s: float, n_trials: int,
                      repeats: int) -> Dict:
    """Wall-clock of an E12-style system-MTBF sweep, four ways.

    * ``serial``: the pre-runner shape -- every grid point schedules one
      engine event *per node* per trial (scalar time-to-failure draws,
      one closure each) and drains to the first failure.
    * ``runner_cold``: the same statistic through the sharded
      :class:`~repro.runner.GridRunner` over fleet-vectorized
      ``e12_mtbf_cell`` cells, empty disk cache, one worker.
    * ``runner_cold_mp``: the cold sweep again over ``workers`` actual
      worker processes (``min(4, cpu_count)``, floored at 2 so the
      multiprocess path is always exercised).
    * ``runner_warm``: the identical sweep again -- pure cache hits.

    All runner paths must produce byte-identical merged documents
    (``deterministic`` covers worker-count invariance too); the speedup
    reported is serial vs cold (vectorization), with the warm ratio
    showing what a re-run of an unchanged sweep costs.
    """
    import shutil
    import tempfile

    from repro.runner import GridRunner, grid_to_json
    from repro.simkernel.costs import NS_PER_S

    def serial_sweep() -> List[float]:
        mtbfs = []
        for n in sizes:
            ttfs = []
            for trial in range(n_trials):
                eng = Engine(seed=12)
                rng = np.random.default_rng(n * 1009 + trial)
                for _ in range(n):
                    ttf_s = float(rng.exponential(node_mtbf_s))
                    eng.after_anon(int(ttf_s * NS_PER_S), _noop)
                eng.run(max_events=1)  # first failure ends the trial
                ttfs.append(eng.now_ns / NS_PER_S)
            mtbfs.append(sum(ttfs) / len(ttfs))
        return mtbfs

    def cells():
        return e12_cells(sizes, n_trials, node_mtbf_s)

    workers = bench_workers()
    cache_dir = tempfile.mkdtemp(prefix="bench-grid-")
    try:
        def cold(w: int) -> str:
            shutil.rmtree(cache_dir, ignore_errors=True)
            return grid_to_json(
                GridRunner(workers=w, cache_dir=cache_dir).run(cells()))

        t_serial, t_cold, t_cold_mp = best_of(
            repeats, serial_sweep, lambda: cold(1), lambda: cold(workers))
        doc_cold = cold(1)
        doc_cold_mp = cold(workers)
        warm_runner = GridRunner(workers=workers, cache_dir=cache_dir)
        (t_warm,) = best_of(repeats,
                            lambda: grid_to_json(warm_runner.run(cells())))
        doc_warm = grid_to_json(warm_runner.run(cells()))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "sizes": sizes,
        "node_mtbf_s": node_mtbf_s,
        "trials_per_size": n_trials,
        "workers": workers,
        "serial_s": round(t_serial, 4),
        "runner_cold_s": round(t_cold, 4),
        "runner_cold_mp_s": round(t_cold_mp, 4),
        "runner_warm_s": round(t_warm, 4),
        "speedup_cold": round(t_serial / t_cold, 2),
        "speedup_cold_mp": round(t_serial / t_cold_mp, 2),
        "speedup_warm": round(t_serial / t_warm, 2),
        "deterministic": doc_cold == doc_cold_mp == doc_warm,
    }


# ----------------------------------------------------------------------
# Conservative time-windowed parallel engine: failure-storm throughput
# ----------------------------------------------------------------------
def bench_parallel_engine(repeats: int) -> Dict:
    """Aggregate events/second of the failure-storm fleet, sharded.

    The seeded storm of ``scenarios.storm`` runs three ways: one shard,
    four shards stepped in-process, and four shards over worker
    processes; a fourth run is its twin over 4,096 nodes at 1/16 of
    the node MTBF, in one shard.  ``size_independence`` is the 1-shard
    storm's events/s over the twin's: a fleet dispatch visits only the
    due blocks of its transition index, so it stays near 1 however
    many nodes a shard owns (a per-node scan put it at 0.14).
    ``speedup_4shard``, the 4-shard in-process rate over the 1-shard
    rate, is recorded but not guarded: stepping four shards in one
    process buys no dispatch work.  ``procs_vs_4shard``, the process
    backend's rate over the in-process 4-shard rate, is guarded when
    the host has a core per worker.  ``transport`` records the data
    path of the ``eps_4shard_procs`` row.
    """
    workers = bench_workers()
    res1, res4, res_procs = storm(1), storm(4), storm(4, workers)
    res_small = storm(1, nodes=SMALL_STORM_NODES)
    t1, t4, t_procs, t_small = best_of(
        repeats, lambda: storm(1), lambda: storm(4),
        lambda: storm(4, workers), lambda: storm(1, nodes=SMALL_STORM_NODES))

    eps1 = res1.stats.events / t1
    eps4 = res4.stats.events / t4
    eps_procs = res_procs.stats.events / t_procs
    eps_small = res_small.stats.events / t_small
    identical = res1.obs_json == res4.obs_json == res_procs.obs_json
    return {
        "nodes": STORM_NODES,
        "mtbf_s": STORM_MTBF_S,
        "horizon_s": STORM_HORIZON_S,
        "workers": workers,
        "transport": res_procs.transport,
        "windows": res4.stats.windows,
        "envelopes": res4.stats.exchanged,
        "events_1shard": res1.stats.events,
        "events_4shard": res4.stats.events,
        "eps_1shard": round(eps1),
        "eps_4shard": round(eps4),
        "eps_4shard_procs": round(eps_procs),
        "speedup_4shard": round(eps4 / eps1, 2),
        "procs_vs_4shard": round(eps_procs / eps4, 2),
        "small_nodes": SMALL_STORM_NODES,
        "events_1shard_small": res_small.stats.events,
        "eps_1shard_small": round(eps_small),
        "size_independence": round(eps1 / eps_small, 2),
        "byte_identical": float(identical),
    }


# ----------------------------------------------------------------------
# Asynchronous C/R pipeline: downtime overlap and restart prefetch
# ----------------------------------------------------------------------
def bench_pipeline(n_ckpts: int, chain_len: int) -> Dict:
    """Virtual-time evidence for the asynchronous C/R I/O pipeline.

    Unlike the throughput benches above this one measures *simulated*
    nanoseconds (the quantity the pipeline optimizes): the same seeded
    workload is checkpointed through the synchronous drain and through
    the depth-4 COW writeback pipeline, then an ``chain_len - 1``-delta
    chain is restarted via the serial walk and via parallel prefetch +
    chain compaction.  ``check_pipeline.py`` gates these rows.  The
    wall-clock of the pipelined capture run is also recorded so the
    async machinery's simulator overhead is visible.
    """
    _, _, sync_mech, _ = pipeline_build(1, n_ckpts)
    t0 = time.perf_counter()
    _, _, pipe_mech, _ = pipeline_build(4, n_ckpts)
    pipelined_wall_s = time.perf_counter() - t0

    sync_stall = mean_delta_stall(sync_mech)
    pipe_stall = mean_delta_stall(pipe_mech)
    serial_ns, compact_ns, images_read = pipeline_restart(chain_len)

    return {
        "checkpoints": n_ckpts,
        "chain_len": chain_len,
        "depth": 4,
        "downtime_sync_ns": round(sync_stall),
        "downtime_pipelined_ns": round(pipe_stall),
        "downtime_ratio": round(pipe_stall / sync_stall, 3),
        "overlap": round(1.0 - pipe_stall / sync_stall, 3),
        "restart_serial_ns": serial_ns,
        "restart_prefetch_compact_ns": compact_ns,
        "restart_speedup": round(serial_ns / compact_ns, 2),
        "images_read_compacted": images_read,
        "pipelined_capture_wall_s": round(pipelined_wall_s, 4),
    }


# ----------------------------------------------------------------------
# Coordinated distributed snapshots: protocol cost and wall overhead
# ----------------------------------------------------------------------
def bench_distsnap(repeats: int) -> Dict:
    """Virtual-time evidence plus wall cost for ``repro.distsnap``.

    The all-to-all group of ``scenarios.distsnap_build`` is snapshotted
    by the Chandy-Lamport marker protocol and by stop-the-world, then
    restarted from the marker cut.  The virtual-time columns are
    deterministic (``check_distsnap.py`` gates them); the wall-clock
    column records what a full snapshot+restart cycle costs the
    simulator, and ``cycles_per_seed_storm`` counts cycles in the time
    the frozen seed engine drains the ``engine`` section's storm, timed
    in turn with the cycle, so the host's speed cancels out.
    """
    from repro.distsnap import StopTheWorldProtocol

    t_wall, t_storm = best_of(
        repeats, marker_cycle,
        lambda: _run_storm(_SeedEngine, lambda e: e.at, STORM_EVENTS, SPAN_NS))
    m, latency_ns, res, audit = marker_cycle()

    eng, net, drv, ranks = distsnap_build(seed=13)
    eng.run(until_ns=DISTSNAP_WARMUP_NS)
    proto = StopTheWorldProtocol(net, ranks, store=None, job="stw")
    distsnap_snapshot(eng, proto)
    stw = proto.manifest
    drv.stop()

    exactly_once = float(
        res.replayed == m.logged_message_count()
        and audit["orphans"] == 0 and audit["duplicates"] == 0
    )
    return {
        "processes": DISTSNAP_N,
        "rate_per_s": DISTSNAP_RATE,
        "marker_latency_ns": latency_ns,
        "marker_logged_msgs": m.logged_message_count(),
        "marker_manifest_bytes": m.size_bytes,
        "stw_downtime_ns": stw.downtime_ns,
        "stw_logged_msgs": stw.logged_message_count(),
        "replayed_msgs": res.replayed,
        "exactly_once": exactly_once,
        "cycle_wall_s": round(t_wall, 4),
        "cycles_per_s": round(1.0 / t_wall, 2),
        "cycles_per_seed_storm": round(t_storm / t_wall, 2),
    }


# ----------------------------------------------------------------------
# The erasure tier: GF(2^8) kernels, survival envelope, hierarchy identity
# ----------------------------------------------------------------------
def bench_erasure(payload_kib: int, dirty_fraction: float,
                  repeats: int) -> Dict:
    """Wall throughput of the vectorized ``4+2`` Reed-Solomon kernels,
    each against a full encode timed in the same run, plus the tier's
    deterministic ratios.

    * ``encode_mbps`` / ``decode_degraded_mbps`` -- the packed
      pair-table matmul over a ``k+m`` stripe (decode with every parity
      shard in play, so the Gauss-Jordan inverse path runs);
      ``decode_vs_encode`` is encode time over degraded-decode time.
    * ``reference_encode_mbps`` -- the seed's per-coefficient
      fancy-indexing encode (:func:`scenarios.rs_encode_reference`);
      ``encode_vs_reference`` is its time over the packed encode's,
      the two timed in turn.
    * ``delta_update_mbps`` -- effective payload MB/s of
      :func:`~repro.stablestore.rs_update_parity` refreshing parity for
      a ``dirty_fraction``-dirty payload: the whole payload counts as
      protected but only the dirty runs hit the multiply kernel;
      ``delta_vs_reencode`` is encode time over delta-update time.
    * ``delta_vs_full_kernel_bytes`` and ``byte_identical`` -- kernel
      bytes of a full re-encode over the delta update's, and whether
      the two parities agree (``check_erasure.py`` gates both).
    * ``envelope_*``, ``physical_ratio_vs_rf3`` and
      ``hierarchy_identical`` -- the tier's survival of every
      ``m``-server failure, its bytes against ``rf=3`` replication and
      the depth<=1 pass-through (``check_hierarchy.py`` gates them).
    """
    from repro.stablestore import rs_decode, rs_encode, rs_update_parity

    payload = rs_payload(payload_kib, seed=29)
    mb = len(payload) / 1e6

    # A single encode is ~quarter-millisecond work, so a handful of
    # samples under-measures it badly when this bench runs after
    # minutes of sustained load; warm the table caches, then take the
    # min over a sample count sized for a microbenchmark.
    samples = max(repeats, 25)
    shards = rs_encode(payload, RS_K, RS_M)  # also fills the table cache
    worst = {i: shards[i] for i in range(RS_M, RS_K + RS_M)}  # all parity
    assert rs_decode(worst, RS_K, RS_M, len(payload)) == payload
    assert rs_encode_reference(payload, RS_K, RS_M) == shards
    dirty, new_payload = rs_dirty(payload, dirty_fraction, seed=31)
    old_parity = shards[RS_K:]
    rs_update_parity(old_parity, dirty, payload, new_payload, RS_K, RS_M)
    t_enc, t_dec, t_delta = best_of(
        samples,
        lambda: rs_encode(payload, RS_K, RS_M),
        lambda: rs_decode(worst, RS_K, RS_M, len(payload)),
        lambda: rs_update_parity(old_parity, dirty, payload, new_payload,
                                 RS_K, RS_M),
    )
    # The seed encode in its own pair, so the other kernels' tables do
    # not share the cache with the packed encode's in this ratio.
    t_enc_pair, t_ref = best_of(
        samples,
        lambda: rs_encode(payload, RS_K, RS_M),
        lambda: rs_encode_reference(payload, RS_K, RS_M),
    )
    delta_bytes, full_bytes, identical = rs_delta_kernel_bytes(
        payload, dirty, new_payload)

    tested, survived = erasure_envelope(RS_M)
    ec_bytes, rep_bytes = physical_bytes_vs_rf3()
    return {
        "k": RS_K,
        "m": RS_M,
        "payload_kib": payload_kib,
        "dirty_fraction": dirty_fraction,
        "encode_mbps": round(mb / t_enc, 1),
        "reference_encode_mbps": round(mb / t_ref, 1),
        "decode_degraded_mbps": round(mb / t_dec, 1),
        "delta_update_mbps": round(mb / t_delta, 1),
        "encode_vs_reference": round(t_ref / t_enc_pair, 3),
        "decode_vs_encode": round(t_enc / t_dec, 3),
        "delta_vs_reencode": round(t_enc / t_delta, 3),
        "delta_vs_full_kernel_bytes": round(full_bytes / max(1, delta_bytes),
                                            2),
        "byte_identical": float(identical),
        "envelope_tested": tested,
        "envelope_survival": round(survived / tested, 3),
        "physical_ratio_vs_rf3": round(ec_bytes / rep_bytes, 3),
        "hierarchy_identical": float(hierarchy_identity()),
    }


# ----------------------------------------------------------------------
def run() -> Dict:
    """Run every microbench and return the BENCH_PERF document."""
    return {
        "schema": SCHEMA,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "block_scan": bench_block_scan(npages=256, bs=512, repeats=REPEATS),
        "capture": bench_capture(npages=1024, repeats=REPEATS),
        "materialize": bench_materialize(npages=512, ndeltas=8,
                                         repeats=REPEATS),
        "dedup": bench_dedup(npages=256, generations=8, dirty_fraction=0.1,
                             repeats=REPEATS),
        "engine": bench_engine(n=STORM_EVENTS, span_ns=SPAN_NS,
                               repeats=REPEATS),
        # All REPEATS rounds: the cold sweep runs ~8 ms, and a minimum
        # over two rounds let host noise halve its guarded ratio.
        "grid_runner": bench_grid_runner(
            sizes=[1024, 4096, 16384], node_mtbf_s=50.0, n_trials=10,
            repeats=REPEATS,
        ),
        "parallel_engine": bench_parallel_engine(repeats=REPEATS // 2),
        "pipeline": bench_pipeline(n_ckpts=6, chain_len=9),
        "distsnap": bench_distsnap(repeats=REPEATS // 2),
        "erasure": bench_erasure(payload_kib=256, dirty_fraction=0.1,
                                 repeats=REPEATS),
    }


#: The rows ``--check`` guards, as ``(label, section, key)``.  Each is a
#: same-run ratio, higher is better: a fast path timed against its
#: reference in the same process, so the host's speed cancels out.
#: ``grid_runner.deterministic`` (1.0, or 0.0 when the sweep's documents
#: differ) is the one exact row; a drift to 0 fails outright.
GUARDS = [
    ("block_scan vectorized vs scalar speedup", "block_scan", "speedup"),
    ("dedup batched digest speedup", "dedup", "digest_speedup"),
    ("engine storm speedup vs the seed engine", "engine", "storm_speedup"),
    ("grid_runner sweep speedup", "grid_runner", "speedup_cold"),
    ("grid_runner byte-identical documents", "grid_runner", "deterministic"),
    ("distsnap cycles per seed-engine storm", "distsnap",
     "cycles_per_seed_storm"),
    ("erasure packed encode vs the seed encode", "erasure",
     "encode_vs_reference"),
    ("erasure degraded decode vs encode", "erasure", "decode_vs_encode"),
    ("erasure delta update vs full re-encode", "erasure", "delta_vs_reencode"),
    ("parallel engine storm rate at 16x the nodes", "parallel_engine",
     "size_independence"),
]
#: Guarded only when the host has a core per worker process: on fewer
#: cores the processes time-slice and the number is scheduler noise,
#: not a transport property.
PROCS_GUARD = ("parallel engine 4-shard processes vs in-process",
               "parallel_engine", "procs_vs_4shard")


def check_regression(current: Dict, baseline: Dict) -> int:
    """Exit status for CI: 1 if a guarded ratio fell by more than
    :data:`MAX_REGRESSION` below the baseline's."""
    if baseline.get("schema") != SCHEMA:
        print(f"FAIL: baseline schema {baseline.get('schema')}, "
              f"expected {SCHEMA}; re-record it")
        return 1
    guarded = list(GUARDS)
    if current["host"]["cpu_count"] >= current["parallel_engine"]["workers"]:
        guarded.append(PROCS_GUARD)
    status = 0
    for name, section, key in guarded:
        base = float(baseline[section][key])
        cur = float(current[section][key])
        ratio = base / max(cur, 1e-9)
        print(f"{name}: baseline {base:.2f}, current {cur:.2f} "
              f"({ratio:.2f}x lower)")
        if ratio > MAX_REGRESSION:
            print(f"FAIL: regression exceeds {MAX_REGRESSION:.1f}x")
            status = 1
    if not status:
        print("OK: within regression budget")
    return status


def main(argv: List[str] | None = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_PERF.json",
                    help="where to write the JSON results")
    ap.add_argument("--check", type=Path, default=None,
                    help="baseline JSON whose guarded same-run ratios the "
                         "fresh ones must stay within 2x of")
    args = ap.parse_args(argv)

    results = run()
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwrote {args.out}")

    if args.check is not None:
        return check_regression(results, json.loads(args.check.read_text()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
