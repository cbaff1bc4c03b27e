#!/usr/bin/env python
"""Wall-clock microbenchmarks for the vectorized capture/scan fast path.

Unlike the ``test_eNN`` experiments (which measure *virtual* nanoseconds
inside the simulation), this harness measures *simulator wall-clock*:
how fast the Python process itself scans blocks, captures pages,
materializes chains and writes deduplicated checkpoint streams.  The
PR's perf claims live here:

* ``block_scan``  -- vectorized :func:`repro.core.digest.block_digests`
  vs a faithful reimplementation of the seed's scalar per-block loop
  (``zlib.adler32`` per slice plus a dict lookup per block).  The
  acceptance bar is a >=3x speedup.
* ``capture``     -- the capture path, one ``take_pages`` row extent of
  the live arrays ``read_pages`` freezes per run, vs a per-page copy
  loop (``read_page`` + the copying ``add_page``).
* ``materialize`` -- flattening an incremental chain (extent base plus
  sub-page delta generations) with the overlay-based
  :func:`~repro.core.image.materialize_chain`.
* ``dedup``       -- bytes pushed at the backing store with and without
  the content-addressed :class:`~repro.stablestore.ContentStore` for a
  repeated-generation workload, plus ``digest_speedup``: one batched
  :func:`~repro.core.digest.page_digests` call vs a per-page
  :func:`~repro.core.digest.payload_digest` loop over the same page
  stack, timed in the same run so the ratio does not depend on host
  speed.
* ``engine``      -- events/second through the tuple-heap
  :class:`~repro.simkernel.engine.Engine` vs a faithful
  reimplementation of the seed's scheduler (an ``order=True`` Event
  dataclass in a single ``heapq``), on an empty-callback event storm
  and on a mixed schedule/cancel workload.  The row keys keep their
  ``hybrid`` name from the timer wheel the engine once used.
* ``distsnap``    -- coordinated distributed snapshots: deterministic
  virtual-time columns (marker latency, logged in-flight channel
  state, stop-the-world downtime, exactly-once restart) plus the
  wall-clock of a full marker snapshot+restart cycle.
* ``grid_runner`` -- wall-clock of an E12-style system-MTBF sweep:
  the pre-runner serial shape (one scheduled event per node per trial)
  vs the sharded :class:`~repro.runner.GridRunner` over
  fleet-vectorized cells, cold-cache (single- and multi-worker, with
  the real ``workers``/``cpu_count`` recorded) and warm-cache.  The
  acceptance bar is a >=4x sweep speedup.
* ``parallel_engine`` -- aggregate events/second of a failure-storm
  fleet through the conservative time-windowed parallel engine
  (:mod:`repro.simkernel.parallel`): 1 shard vs 4 shards in-process vs
  4 shards over worker processes (the pipe transport), with the folded
  ``repro.obs`` exports asserted byte-identical across all of them.  The acceptance
  bar is a >=3x aggregate events/s gain at 4 shards -- the win is
  algorithmic (each fleet dispatch scans ``n/S`` nodes instead of
  ``n``), so it holds even on a single-core runner.

* ``erasure_kernels`` -- the GF(2^8) Reed-Solomon hot path: packed
  pair-table encode and degraded decode MB/s, the O(dirty)
  ``rs_update_parity`` delta path (effective MB/s of re-protecting the
  whole payload plus the kernel-bytes ratio vs a full re-encode), with
  the delta parity asserted byte-identical to full encode inline.

Results are written as JSON (default: ``BENCH_PERF.json`` at the repo
root -- the committed baseline).  ``--check BASELINE.json`` compares the
fresh block-scan throughput against a committed baseline and exits
non-zero on a more-than-``--max-regression``-fold slowdown (the batched
digest speedup is guarded the same way); CI runs this
against the committed file so the fast path cannot silently rot back
into the scalar loop.

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
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.capture import _extent_runs  # noqa: E402
from repro.core.digest import block_digests, page_digests, payload_digest  # noqa: E402
from repro.core.image import CheckpointImage, materialize_chain  # noqa: E402
from repro.simkernel.engine import Engine  # noqa: E402
from repro.simkernel.memory import Prot, VMA, VMAKind  # noqa: E402
from repro.stablestore import ContentStore  # noqa: E402
from repro.storage.backends import MemoryStorage  # noqa: E402

PAGE = 4096


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock seconds of ``fn`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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

    scalar_tab: Dict = {}
    scalar_scan(pages, bs, scalar_tab)  # warm the table: rescan is the hot case
    t_scalar = best_of(lambda: scalar_scan(pages, bs, scalar_tab), repeats)

    vec_tab: Dict = {}
    vector_scan(pages, bs, vec_tab)
    t_vec = best_of(lambda: vector_scan(pages, bs, vec_tab), repeats)

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
            img.add_page(name, i, vma.read_page(i))

    def extents() -> None:
        img = meta()
        for name, start, n in _extent_runs(pages):
            img.take_pages(name, start, vma.read_pages(start, n))

    t_page = best_of(per_page, repeats)
    t_ext = best_of(extents, repeats)
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
        base.add_extent("heap", start, corpus[start : start + n].reshape(-1), n)
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

    t = best_of(lambda: materialize_chain(chain, page_size=PAGE), repeats)
    flat = materialize_chain(chain, page_size=PAGE)
    return {
        "cpu_count": os.cpu_count(),
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
    t_scalar = best_of(lambda: [payload_digest(p) for p in corpus], repeats)
    t_batch = best_of(lambda: page_digests(corpus, PAGE), repeats)

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
                img.add_page("heap", i, data[i])
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
        "cpu_count": os.cpu_count(),
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
               n: int, span_ns: int) -> float:
    """Seconds to schedule and drain ``n`` empty-callback events."""
    eng = make_engine()
    times = _storm_times(n, span_ns)
    t0 = time.perf_counter()
    sched = schedule(eng)
    for t in times:
        sched(t, _noop)
    eng.run()
    return time.perf_counter() - t0


def _run_mixed(make_engine: Callable[[], object], n: int, span_ns: int,
               cancel_every: int) -> Tuple[float, int]:
    """Schedule ``n`` timers, cancel all but every ``cancel_every``-th,
    then drain.  Returns (seconds, peak stored entries after cancels) --
    the seed engine retains every cancelled event in its heap; the
    current engine compacts."""
    eng = make_engine()
    times = _storm_times(n, span_ns)
    t0 = time.perf_counter()
    handles = [eng.at(t, _noop) for t in times]
    for i, h in enumerate(handles):
        if i % cancel_every:
            h.cancel()
    stored = eng.stored_events()
    eng.run()
    return time.perf_counter() - t0, stored


def bench_engine(n: int, span_ns: int, repeats: int) -> Dict:
    """Events/second through the scheduler, the engine's tuple heap
    (``*_hybrid_*`` rows) vs the seed's heap of dataclasses."""
    storm_seed = best_of(
        lambda: _run_storm(_SeedEngine, lambda e: e.at, n, span_ns), repeats
    )
    storm_hybrid = best_of(
        lambda: _run_storm(Engine, lambda e: e.at_anon, n, span_ns), repeats
    )
    storm_labelled = best_of(
        lambda: _run_storm(Engine, lambda e: e.at, n, span_ns), repeats
    )

    cancel_every = 4  # cancel 3 of every 4 timers
    mixed_seed = best_of(lambda: _run_mixed(_SeedEngine, n, span_ns,
                                            cancel_every)[0], repeats)
    mixed_hybrid = best_of(lambda: _run_mixed(Engine, n, span_ns,
                                              cancel_every)[0], repeats)
    _, seed_stored = _run_mixed(_SeedEngine, n, span_ns, cancel_every)
    _, hybrid_stored = _run_mixed(Engine, n, span_ns, cancel_every)

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
                      repeats: int, workers: Optional[int] = None) -> Dict:
    """Wall-clock of an E12-style system-MTBF sweep, four ways.

    * ``serial``: the pre-runner shape -- every grid point schedules one
      engine event *per node* per trial (scalar time-to-failure draws,
      one closure each) and drains to the first failure.
    * ``runner_cold``: the same statistic through the sharded
      :class:`~repro.runner.GridRunner` over fleet-vectorized
      ``e12_mtbf_cell`` cells, empty disk cache, one worker.
    * ``runner_cold_mp``: the cold sweep again over ``workers`` actual
      worker processes (default ``min(4, cpu_count)``, floored at 2 so
      the multiprocess path is always exercised; the real ``workers``
      and ``cpu_count`` are recorded, so a 2-core CI runner's numbers
      read as what they are).
    * ``runner_warm``: the identical sweep again -- pure cache hits.

    All runner paths must produce byte-identical merged documents
    (``deterministic`` covers worker-count invariance too); the speedup
    reported is serial vs cold (vectorization), with the warm ratio
    showing what a re-run of an unchanged sweep costs.
    """
    import shutil
    import tempfile

    from repro.runner import Cell, GridRunner, grid_to_json
    from repro.runner.experiments import e12_mtbf_cell
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

    def cells() -> List[Cell]:
        return [
            Cell("e12", e12_mtbf_cell,
                 {"n_nodes": n, "node_mtbf_s": node_mtbf_s,
                  "n_trials": n_trials}, seed=12)
            for n in sizes
        ]

    if workers is None:
        workers = max(2, min(4, os.cpu_count() or 1))

    t_serial = best_of(serial_sweep, repeats)

    cache_dir = tempfile.mkdtemp(prefix="bench-grid-")
    try:
        def cold(w: int) -> str:
            shutil.rmtree(cache_dir, ignore_errors=True)
            return grid_to_json(
                GridRunner(workers=w, cache_dir=cache_dir).run(cells()))

        t_cold = best_of(lambda: cold(1), repeats)
        doc_cold = cold(1)
        t_cold_mp = best_of(lambda: cold(workers), repeats)
        doc_cold_mp = cold(workers)
        warm_runner = GridRunner(workers=workers, cache_dir=cache_dir)
        t_warm = best_of(lambda: grid_to_json(warm_runner.run(cells())),
                         repeats)
        doc_warm = grid_to_json(warm_runner.run(cells()))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "sizes": sizes,
        "node_mtbf_s": node_mtbf_s,
        "trials_per_size": n_trials,
        "workers": workers,
        "cpu_count": os.cpu_count(),
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
def bench_parallel_engine(n_nodes: int, mtbf_s: float, horizon_s: float,
                          repeats: int) -> Dict:
    """Aggregate events/second of a failure-storm fleet, sharded.

    The same seeded storm (``n_nodes`` nodes, low MTBF, fast repair --
    every transition a dispatcher event) runs three ways: one shard,
    four shards stepped in-process, and four shards over worker
    processes.  ``speedup_4shard`` is the aggregate events/s ratio of
    the 4-shard in-process run over the 1-shard run; it is dominated by
    the O(``n/S``) fleet dispatch (each shard's dispatcher scans only
    its own slice), so it exceeds the 3x acceptance bar even without
    spare cores.  The process-backend row records the real ``workers``
    and ``cpu_count`` so its number is interpretable on any runner.

    ``byte_identical`` asserts the hard determinism gate inline: the
    folded obs exports of all runs are the same bytes.  ``transport``
    records the data path of the ``eps_4shard_procs`` row.
    """
    from repro.runner import run_parallel
    from repro.simkernel.costs import NS_PER_S

    params = {"n_nodes": n_nodes, "mtbf_s": mtbf_s, "repair_s": 30.0,
              "model": "exp"}
    meta = {"experiment": "bench-storm", "n_nodes": n_nodes, "seed": 17}
    horizon_ns = int(horizon_s * NS_PER_S)
    window_ns = 30 * NS_PER_S  # barrier every 30 simulated seconds
    cpu = os.cpu_count() or 1
    workers = max(2, min(4, cpu))

    def storm(shards: int, nworkers: int):
        return run_parallel(
            "repro.cluster.scenarios:fleet_storm", params, 17,
            n_shards=shards, horizon_ns=horizon_ns, window_ns=window_ns,
            workers=nworkers, meta=meta,
        )

    def timed(shards: int, nworkers: int):
        res = storm(shards, nworkers)
        t = best_of(lambda: storm(shards, nworkers), repeats)
        return res, t

    res1, t1 = timed(1, 1)
    res4, t4 = timed(4, 1)
    res_procs, t_procs = timed(4, workers)

    eps1 = res1.stats.events / t1
    eps4 = res4.stats.events / t4
    eps_procs = res_procs.stats.events / t_procs
    identical = res1.obs_json == res4.obs_json == res_procs.obs_json
    return {
        "nodes": n_nodes,
        "mtbf_s": mtbf_s,
        "horizon_s": horizon_s,
        "workers": workers,
        "cpu_count": cpu,
        "transport": res_procs.transport,
        "windows": res4.stats.windows,
        "envelopes": res4.stats.exchanged,
        "events_1shard": res1.stats.events,
        "events_4shard": res4.stats.events,
        "eps_1shard": round(eps1),
        "eps_4shard": round(eps4),
        "eps_4shard_procs": round(eps_procs),
        "speedup_4shard": round(eps4 / eps1, 2),
        "speedup_4shard_procs": round(eps_procs / eps1, 2),
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
    chain compaction.  The wall-clock of the pipelined capture run is
    also recorded so the async machinery's simulator overhead is
    visible.
    """
    from repro.cluster import Cluster
    from repro.core.checkpointer import RequestState
    from repro.core.direction import AutonomicCheckpointer
    from repro.simkernel.costs import NS_PER_S
    from repro.workloads import SparseWriter

    def build(depth, count, compact=None):
        cl = Cluster(n_nodes=1, seed=21, storage_servers=3, replication=2)
        node = cl.node(0)
        mech = AutonomicCheckpointer(node.kernel, node.remote_storage)
        mech.pipeline_depth = depth
        mech.rebase_every = 100
        mech.compaction_threshold = compact
        wl = SparseWriter(iterations=30_000, dirty_fraction=0.03,
                          heap_bytes=256 * 1024, seed=0, compute_ns=100_000)
        task = wl.spawn(node.kernel)
        mech.prepare_target(task)
        last = None
        for i in range(count):
            req = mech.request_checkpoint(task)
            cl.run_until(
                lambda: req.state in (RequestState.DONE, RequestState.FAILED),
                240 * NS_PER_S,
            )
            assert req.state == RequestState.DONE, (depth, i, req.error)
            last = req
        return cl, node, mech, last

    def mean_delta_stall(mech) -> float:
        deltas = [r for r in mech.completed_requests()
                  if r.image.is_incremental]
        return sum(r.target_stall_ns for r in deltas) / len(deltas)

    _, _, sync_mech, _ = build(1, n_ckpts)
    t0 = time.perf_counter()
    _, _, pipe_mech, _ = build(4, n_ckpts)
    pipelined_wall_s = time.perf_counter() - t0

    sync_stall = mean_delta_stall(sync_mech)
    pipe_stall = mean_delta_stall(pipe_mech)

    _, node_s, mech_s, last_s = build(4, chain_len)
    _, serial_ns = mech_s.image_chain(last_s.key, target_kernel=node_s.kernel)
    _, node_c, mech_c, last_c = build(4, chain_len, compact=4)
    chain_c, compact_ns = mech_c.image_chain(
        last_c.key, target_kernel=node_c.kernel, prefetch=True
    )

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
        "images_read_compacted": len(chain_c),
        "pipelined_capture_wall_s": round(pipelined_wall_s, 4),
    }


# ----------------------------------------------------------------------
# Coordinated distributed snapshots: protocol cost and wall overhead
# ----------------------------------------------------------------------
def bench_distsnap(n: int, rate: float, repeats: int) -> Dict:
    """Virtual-time evidence plus wall cost for ``repro.distsnap``.

    One all-to-all process group with skewed channel latencies and
    background traffic is snapshotted by the Chandy-Lamport marker
    protocol and by stop-the-world, then restarted from the marker cut.
    The virtual-time columns (marker latency, logged in-flight state,
    STW downtime, exactly-once restart) are deterministic -- any drift
    is a real protocol change; the wall-clock column records what a
    full snapshot+restart cycle costs the simulator.
    """
    from repro.distsnap import (
        ChannelNetwork, MarkerProtocol, SnapRank, StopTheWorldProtocol,
        TrafficDriver, restore_snapshot, verify_exactly_once,
    )
    from repro.stablestore.replicated import ReplicatedStore
    from repro.stablestore.server import StorageCluster

    def build(seed):
        eng = Engine(seed=seed)
        net = ChannelNetwork(eng)
        for i in range(n):
            for j in range(n):
                if i != j:
                    net.connect(i, j,
                                latency_ns=5_000 + 40_000 * ((i + 3 * j) % 5))
        drv = TrafficDriver(net, rate_per_s=rate)
        drv.start()
        ranks = [SnapRank(pid=p, endpoint=net.endpoint(p)) for p in range(n)]
        return eng, net, drv, ranks

    def snap(eng, proto):
        token = proto.start()
        eng.run(until=lambda: token.done or token.cancelled,
                until_ns=eng.now_ns + 10_000_000_000)
        assert token.done
        return proto.manifest

    def marker_cycle():
        eng, net, drv, ranks = build(seed=13)
        store = ReplicatedStore(StorageCluster(eng, n_servers=3),
                                replication=2)
        eng.run(until_ns=3_000_000)
        t0 = eng.now_ns
        m = snap(eng, MarkerProtocol(net, ranks, store=store, job="bench"))
        latency_ns = eng.now_ns - t0
        eng.run(until_ns=eng.now_ns + 6_000_000)
        drv.stop()
        res = restore_snapshot(store, m.key, net, mechanisms=None)
        consumed = {ep.pid: ep.consumed for ep in net.endpoints()}
        eng.run(until_ns=eng.now_ns + 1_000_000_000)
        audit = verify_exactly_once(net, m, consumed)
        return m, latency_ns, res, audit

    t_wall = best_of(marker_cycle, repeats)
    m, latency_ns, res, audit = marker_cycle()

    eng, net, drv, ranks = build(seed=13)
    eng.run(until_ns=3_000_000)
    stw = snap(eng, StopTheWorldProtocol(net, ranks, store=None, job="bench"))
    drv.stop()

    exactly_once = float(
        res.replayed == m.logged_message_count()
        and audit["orphans"] == 0 and audit["duplicates"] == 0
    )
    return {
        "processes": n,
        "rate_per_s": rate,
        "marker_latency_ns": latency_ns,
        "marker_logged_msgs": m.logged_message_count(),
        "marker_manifest_bytes": m.size_bytes,
        "stw_downtime_ns": stw.downtime_ns,
        "stw_logged_msgs": stw.logged_message_count(),
        "replayed_msgs": res.replayed,
        "exactly_once": exactly_once,
        "cycle_wall_s": round(t_wall, 4),
        "cycles_per_s": round(1.0 / t_wall, 2),
    }


# ----------------------------------------------------------------------
# Multi-level stable storage: erasure codec cost and hierarchy identity
# ----------------------------------------------------------------------
def bench_storage_hierarchy(payload_kib: int, repeats: int) -> Dict:
    """Wall cost of the pure-python Reed-Solomon codec plus the
    deterministic correctness ratios the E23 acceptance bars rest on.

    The throughput rows (encode, degraded decode) are real wall-clock
    and guard the GF(2^8) table path; the survival/ratio/identity rows
    are virtual-time or exact counts -- any drift is a real behavior
    change in the erasure tier or the hierarchy's pass-through.
    """
    from repro.obs import export_obs, strip_metrics, to_json
    from repro.simkernel.engine import Engine
    from repro.stablestore import (
        ErasureStore, HierarchicalStore, ReplicatedStore, StorageCluster,
        StorageLevel, rs_decode, rs_encode,
    )

    k, m = 4, 2
    blob = bytes(range(256)) * (payload_kib * 4)  # payload_kib KiB

    t_enc = best_of(lambda: rs_encode(blob, k, m), repeats)
    shards = rs_encode(blob, k, m)
    worst = {i: shards[i] for i in range(m, k + m)}  # all parity in play
    t_dec = best_of(lambda: rs_decode(worst, k, m, len(blob)), repeats)
    assert rs_decode(worst, k, m, len(blob)) == blob

    # Exhaustive m-failure survival of a simulated k+m group.
    small = blob[:4096]
    tested = survived = 0
    for combo in itertools.combinations(range(k + m), m):
        engine = Engine(seed=23)
        store = ErasureStore(StorageCluster(engine, n_servers=k + m),
                             data_shards=k, parity_shards=m)
        store.store("e/1/1", small, len(small), 0)
        for sid in combo:
            store.storage.fail_server(sid)
        tested += 1
        if store.load("e/1/1", 10**9)[0] == small:
            survived += 1

    # Physical bytes vs rf=3 replication for the same logical blob.
    e1 = Engine(seed=23)
    rep = ReplicatedStore(StorageCluster(e1, n_servers=6), replication=3)
    rep.store("m/1/1", small, len(small), 0)
    e2 = Engine(seed=23)
    ec = ErasureStore(StorageCluster(e2, n_servers=6),
                      data_shards=k, parity_shards=m)
    ec.store("m/1/1", small, len(small), 0)
    ratio = ec.physical_bytes() / rep.physical_bytes()

    # Depth<=1 hierarchy exports byte-identically to the bare store.
    def exercise(store, engine):
        for i in range(4):
            store.store(f"m/{i}/1", small, len(small), 0)
        for i in range(4):
            store.load(f"m/{i}/1", 10**8)
            store.load_fanout(f"m/{i}/1", 2 * 10**8)
        st = store.open_stream("m/9/1", 0)
        st.send(4096, 0)
        st.commit(small, len(small), 10**6)
        doc = export_obs(engine.metrics, meta={"bench": "hier-identity"},
                         now_ns=engine.now_ns)
        return to_json(strip_metrics(doc, prefixes=("hierarchy.",)))

    eb = Engine(seed=7)
    bare = ReplicatedStore(StorageCluster(eb, n_servers=3), replication=2)
    ew = Engine(seed=7)
    wrapped = HierarchicalStore(ew, [
        StorageLevel("only",
                     ReplicatedStore(StorageCluster(ew, n_servers=3),
                                     replication=2)),
    ])
    byte_identical = float(exercise(bare, eb) == exercise(wrapped, ew))

    return {
        "k": k,
        "m": m,
        "payload_kib": payload_kib,
        "encode_mbps": round(payload_kib / 1024 / t_enc, 1),
        "decode_degraded_mbps": round(payload_kib / 1024 / t_dec, 1),
        "envelope_tested": tested,
        "envelope_survival": round(survived / tested, 3),
        "physical_ratio_vs_rf3": round(ratio, 3),
        "byte_identical": byte_identical,
    }


# ----------------------------------------------------------------------
# Erasure kernels: packed-table encode, degraded decode, delta parity
# ----------------------------------------------------------------------
def bench_erasure_kernels(payload_kib: int, dirty_fraction: float,
                          repeats: int) -> Dict:
    """Wall throughput of the vectorized GF(2^8) kernels.

    * ``encode_mbps`` / ``decode_degraded_mbps`` -- the packed
      pair-table matmul over a ``k+m`` stripe (decode with every parity
      shard in play, so the Gauss-Jordan inverse path runs).
    * ``delta_update_mbps`` -- effective payload MB/s of
      :func:`~repro.stablestore.rs_update_parity` refreshing parity for
      a ``dirty_fraction``-dirty payload: the whole payload counts as
      protected but only the dirty runs hit the multiply kernel.
    * ``delta_vs_full_kernel_bytes`` -- kernel bytes of a full
      re-encode over kernel bytes of the delta update (the O(f) claim;
      the CI smoke asserts >= 3x at 10% dirty).
    * ``byte_identical`` -- delta parity equals full-encode parity,
      asserted inline on every run.
    """
    from repro.stablestore import (
        KERNEL_STATS, reset_kernel_stats, rs_decode, rs_encode,
        rs_update_parity,
    )

    k, m = 4, 2
    rng = np.random.default_rng(29)
    payload = rng.integers(0, 256, payload_kib * 1024,
                           dtype=np.uint8).tobytes()
    mb = len(payload) / 1e6

    # A single encode is ~quarter-millisecond work, so a handful of
    # samples under-measures it badly when this bench runs after
    # minutes of sustained load; warm the table caches, then take the
    # min over a sample count sized for a microbenchmark.
    samples = max(repeats, 25)
    rs_encode(payload, k, m)
    t_enc = best_of(lambda: rs_encode(payload, k, m), samples)
    shards = rs_encode(payload, k, m)
    worst = {i: shards[i] for i in range(m, k + m)}  # all parity in play
    rs_decode(worst, k, m, len(payload))
    t_dec = best_of(lambda: rs_decode(worst, k, m, len(payload)), samples)
    assert rs_decode(worst, k, m, len(payload)) == payload

    # A dirty_fraction of the payload, spread as 256-byte runs.
    run_len = 256
    n_runs = max(1, int(len(payload) * dirty_fraction) // run_len)
    stride = len(payload) // n_runs
    dirty = [(i * stride, run_len) for i in range(n_runs)]
    new_payload = bytearray(payload)
    for off, length in dirty:
        new_payload[off : off + length] = rng.integers(
            0, 256, length, dtype=np.uint8
        ).tobytes()
    new_payload = bytes(new_payload)

    old_parity = shards[k:]
    rs_update_parity(old_parity, dirty, payload, new_payload, k, m)
    t_delta = best_of(
        lambda: rs_update_parity(old_parity, dirty, payload, new_payload, k, m),
        samples,
    )
    full = rs_encode(new_payload, k, m)
    byte_identical = float(
        rs_update_parity(old_parity, dirty, payload, new_payload, k, m)
        == full[k:]
    )

    reset_kernel_stats()
    rs_update_parity(old_parity, dirty, payload, new_payload, k, m)
    delta_kernel_bytes = KERNEL_STATS["delta_bytes"]
    reset_kernel_stats()
    rs_encode(new_payload, k, m)
    full_kernel_bytes = KERNEL_STATS["encode_bytes"]
    reset_kernel_stats()

    return {
        "k": k,
        "m": m,
        "payload_kib": payload_kib,
        "dirty_fraction": dirty_fraction,
        "encode_mbps": round(mb / t_enc, 1),
        "decode_degraded_mbps": round(mb / t_dec, 1),
        "delta_update_mbps": round(mb / t_delta, 1),
        "delta_vs_full_kernel_bytes": round(
            full_kernel_bytes / max(1, delta_kernel_bytes), 2
        ),
        "byte_identical": byte_identical,
    }


# ----------------------------------------------------------------------
def run(repeats: int) -> Dict:
    """Run every microbench and return the BENCH_PERF document."""
    return {
        "schema": 1,
        "block_scan": bench_block_scan(npages=256, bs=512, repeats=repeats),
        "capture": bench_capture(npages=1024, repeats=repeats),
        "materialize": bench_materialize(npages=512, ndeltas=8, repeats=repeats),
        "dedup": bench_dedup(npages=256, generations=8, dirty_fraction=0.1,
                             repeats=repeats),
        "engine": bench_engine(n=100_000, span_ns=50_000_000, repeats=repeats),
        "grid_runner": bench_grid_runner(
            sizes=[1024, 4096, 16384], node_mtbf_s=50.0, n_trials=10,
            repeats=max(1, repeats // 2),
        ),
        "parallel_engine": bench_parallel_engine(
            n_nodes=65536, mtbf_s=200_000.0, horizon_s=1800.0,
            repeats=max(1, repeats // 2),
        ),
        "pipeline": bench_pipeline(n_ckpts=6, chain_len=9),
        "distsnap": bench_distsnap(n=6, rate=15_000.0,
                                   repeats=max(1, repeats // 2)),
        "storage_hierarchy": bench_storage_hierarchy(
            payload_kib=256, repeats=repeats),
        "erasure_kernels": bench_erasure_kernels(
            payload_kib=256, dirty_fraction=0.1, repeats=repeats),
    }


def check_regression(current: Dict, baseline_path: Path, max_regression: float) -> int:
    """Exit status for CI: 1 if a guarded throughput regressed too far."""
    baseline = json.loads(baseline_path.read_text())
    guarded = [
        ("block_scan vectorized MB/s",
         baseline["block_scan"]["vectorized_mbps"],
         current["block_scan"]["vectorized_mbps"]),
        # A same-run ratio (host speed cancels): the dedup write path
        # rotting back into one digest call per page fails here.
        ("dedup batched digest speedup",
         baseline["dedup"]["digest_speedup"],
         current["dedup"]["digest_speedup"]),
    ]
    if "engine" in baseline:
        guarded.append(("engine storm events/s",
                        baseline["engine"]["storm_hybrid_eps"],
                        current["engine"]["storm_hybrid_eps"]))
    if "grid_runner" in baseline:
        guarded.append(("grid_runner sweep speedup",
                        baseline["grid_runner"]["speedup_cold"],
                        current["grid_runner"]["speedup_cold"]))
    if "pipeline" in baseline:
        # Virtual-time ratios: immune to runner noise, so any drift here
        # is a real behavior change in the async pipeline.
        guarded.append(("pipeline restart speedup",
                        baseline["pipeline"]["restart_speedup"],
                        current["pipeline"]["restart_speedup"]))
        guarded.append(("pipeline downtime overlap",
                        baseline["pipeline"]["overlap"],
                        current["pipeline"]["overlap"]))
    if "parallel_engine" in baseline:
        # byte_identical is a deterministic 1.0: any divergence between
        # the 1-shard and N-shard folded exports fails the check
        # outright (the ratio goes to infinity).
        guarded.append(("parallel engine 1-vs-N byte identity",
                        baseline["parallel_engine"]["byte_identical"],
                        current["parallel_engine"]["byte_identical"]))
        guarded.append(("parallel engine 4-shard speedup",
                        baseline["parallel_engine"]["speedup_4shard"],
                        current["parallel_engine"]["speedup_4shard"]))
        # The multi-process rows measure real core parallelism, so they
        # are only a meaningful regression signal when this host has at
        # least as many cores as the bench spawns workers; on smaller
        # runners the processes time-slice one core and the number is
        # scheduler noise, not a transport property.
        pe = current["parallel_engine"]
        if pe["cpu_count"] >= pe["workers"]:
            guarded.append(("parallel engine 4-shard process speedup",
                            baseline["parallel_engine"][
                                "speedup_4shard_procs"],
                            pe["speedup_4shard_procs"]))
    if "distsnap" in baseline:
        # exactly_once is a deterministic 1.0: any consistency break
        # drives the ratio to infinity and fails the check outright.
        guarded.append(("distsnap exactly-once restart",
                        baseline["distsnap"]["exactly_once"],
                        current["distsnap"]["exactly_once"]))
        guarded.append(("distsnap marker logged msgs",
                        baseline["distsnap"]["marker_logged_msgs"],
                        current["distsnap"]["marker_logged_msgs"]))
        guarded.append(("distsnap snapshot cycles/s",
                        baseline["distsnap"]["cycles_per_s"],
                        current["distsnap"]["cycles_per_s"]))
    if "storage_hierarchy" in baseline:
        # envelope_survival, physical ratio and byte_identical are
        # deterministic: any drift is a real erasure/hierarchy change
        # and fails the check outright.
        guarded.append(("hierarchy erasure m-failure survival",
                        baseline["storage_hierarchy"]["envelope_survival"],
                        current["storage_hierarchy"]["envelope_survival"]))
        guarded.append(("hierarchy depth<=1 byte identity",
                        baseline["storage_hierarchy"]["byte_identical"],
                        current["storage_hierarchy"]["byte_identical"]))
        guarded.append(("hierarchy RS encode MB/s",
                        baseline["storage_hierarchy"]["encode_mbps"],
                        current["storage_hierarchy"]["encode_mbps"]))
    if "erasure_kernels" in baseline:
        # byte_identical and the kernel-bytes ratio are deterministic:
        # a delta/full divergence or an O(f) regression fails outright.
        guarded.append(("erasure kernel encode MB/s",
                        baseline["erasure_kernels"]["encode_mbps"],
                        current["erasure_kernels"]["encode_mbps"]))
        guarded.append(("erasure kernel degraded decode MB/s",
                        baseline["erasure_kernels"]["decode_degraded_mbps"],
                        current["erasure_kernels"]["decode_degraded_mbps"]))
        guarded.append(("erasure delta-update MB/s",
                        baseline["erasure_kernels"]["delta_update_mbps"],
                        current["erasure_kernels"]["delta_update_mbps"]))
        guarded.append(("erasure delta vs full kernel bytes",
                        baseline["erasure_kernels"]["delta_vs_full_kernel_bytes"],
                        current["erasure_kernels"]["delta_vs_full_kernel_bytes"]))
        guarded.append(("erasure delta byte identity",
                        baseline["erasure_kernels"]["byte_identical"],
                        current["erasure_kernels"]["byte_identical"]))
    status = 0
    for name, base, cur in guarded:
        ratio = base / max(cur, 1e-9)
        print(f"{name}: baseline {base:.1f}, current {cur:.1f} "
              f"({ratio:.2f}x slower)")
        if ratio > max_regression:
            print(f"FAIL: regression exceeds {max_regression:.1f}x")
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
                    help="baseline JSON to compare block-scan throughput against")
    ap.add_argument("--max-regression", type=float, default=2.0,
                    help="allowed slowdown factor vs the baseline")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repeats per microbench (min is reported)")
    args = ap.parse_args(argv)

    results = run(repeats=args.repeats)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwrote {args.out}")

    if args.check is not None:
        return check_regression(results, args.check, args.max_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
