"""Property-based tests (hypothesis) on core data structures/invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from image_oracle import add_extent, add_page
from repro.analysis import (
    daly_interval_s,
    effective_utilization,
    expected_completion_time_s,
    young_interval_s,
)
from repro.cluster.failures import p_survive, system_mtbf_s
from repro.core.image import CheckpointImage, materialize_chain
from repro.simkernel.costs import CostModel
from repro.simkernel.engine import Engine
from repro.simkernel.memory import AddressSpace, PageFlag, Prot, VMAKind
from repro.storage.devices import Device
from repro.workloads import SparseWriter

COSTS = CostModel()

# Keep hypothesis examples modest: each example builds real structures.
COMMON = dict(deadline=None, max_examples=60)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
def test_engine_fires_in_nondecreasing_time_order(delays):
    eng = Engine()
    fired = []
    for d in delays:
        eng.after(d, lambda d=d: fired.append(eng.now_ns))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert eng.now_ns == max(delays)


@settings(**COMMON)
@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
    st.data(),
)
def test_engine_cancellation_removes_exactly_those_events(delays, data):
    eng = Engine()
    events = [eng.after(d, lambda: fired.append(i)) for i, d in enumerate(delays)]
    fired: list = []
    # Re-register callbacks that record indices (closure fix).
    eng2 = Engine()
    fired2: list = []
    evs = [eng2.after(d, lambda i=i: fired2.append(i)) for i, d in enumerate(delays)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(delays) - 1))
    )
    for i in to_cancel:
        evs[i].cancel()
    eng2.run()
    assert set(fired2) == set(range(len(delays))) - to_cancel


@settings(**COMMON)
@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=29),  # which event to cancel
            st.integers(min_value=0, max_value=3),  # how many times
            st.booleans(),  # cancel before or after a partial run
        ),
        max_size=30,
    ),
)
def test_engine_pending_never_negative_under_cancel_run_interleavings(
    delays, cancels
):
    """The O(1) live-event count stays exact (and in particular never
    negative) under arbitrary interleavings of scheduling, cancellation
    -- including double cancels and cancels of already-run events --
    and partial runs."""
    eng = Engine()
    fired: list = []
    evs = [eng.after(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
    for idx, times, after_run in cancels:
        if idx >= len(evs):
            continue
        if after_run:
            eng.run(max_events=1)
        for _ in range(times):
            evs[idx].cancel()
        assert eng.pending() >= 0
    eng.run()
    assert eng.pending() == 0
    # Exactness, not just non-negativity: every event either fired or
    # was cancelled before it ran, never both, never neither.
    ran = set(fired)
    for i, ev in enumerate(evs):
        assert (i in ran) != ev.cancelled


@settings(**COMMON)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),  # delay
            st.booleans(),  # cancellable (labelled event) vs anonymous
            # 0 leave alone, 1 cancel, 2 run-one-then-cancel, 3 double cancel
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_engine_pending_exact_under_completion_abort_paths(specs):
    """Abort-path extension of the pending invariant: Completion tokens
    cancelled mid-flight -- the way a distributed-snapshot protocol
    abandons its timers when a rank fails during the marker flood --
    leave the live-event count exact.  Cancellable tokens pull their
    timer off the schedule; anonymous tokens let it fire as a stale
    no-op.  Either way every token settles exactly once (resolved XOR
    cancelled) and the schedule drains to zero."""
    eng = Engine()
    tokens = [
        eng.completion(d, value=i, cancellable=c)
        for i, (d, c, _) in enumerate(specs)
    ]
    settled: list = []
    for i, tok in enumerate(tokens):
        tok.add_done_callback(lambda t, i=i: settled.append(i))
    for tok, (_, _, action) in zip(tokens, specs):
        if action == 0:
            continue
        if action == 2:
            eng.run(max_events=1)
        tok.cancel()
        if action == 3:
            tok.cancel()  # double cancel must stay a no-op
        assert eng.pending() >= 0
    eng.run()
    assert eng.pending() == 0
    # Exactly-once settlement, through resolution or cancellation.
    assert sorted(settled) == list(range(len(tokens)))
    for tok in tokens:
        assert tok.done != tok.cancelled
        if tok.cancelled:
            assert tok.value is None  # stale resolve never landed


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def make_mm(npages=16):
    mm = AddressSpace(COSTS)
    mm.map("heap", npages * COSTS.page_size, prot=Prot.RW, kind=VMAKind.HEAP)
    return mm


@settings(**COMMON)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),  # page
            st.integers(min_value=0, max_value=4000),  # offset
            st.integers(min_value=1, max_value=96),  # length
            st.integers(min_value=0, max_value=2**31 - 1),  # seed
        ),
        min_size=1,
        max_size=40,
    )
)
def test_write_access_invariants(writes):
    mm = make_mm()
    heap = mm.vma("heap")
    touched = set()
    for pidx, off, length, seed in writes:
        length = min(length, COSTS.page_size - off)
        assume(length > 0)
        out = mm.write_access(heap, pidx, off, length)
        mm.fill_pattern(heap, pidx, off, length, seed)
        touched.add(pidx)
        # Invariants: written pages are present and dirty; line count
        # covers the span.
        assert heap.test(pidx, PageFlag.PRESENT)
        assert heap.test(pidx, PageFlag.DIRTY)
        assert out.lines_touched >= 1
        assert out.lines_touched <= math.ceil(length / COSTS.cache_line_size) + 1
    assert set(int(p) for p in heap.present_pages()) == touched
    assert mm.total_present_pages() == len(touched)


@settings(**COMMON)
@given(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fill_pattern_deterministic_and_seed_sensitive(pidx, seed_a, seed_b):
    mm1, mm2 = make_mm(), make_mm()
    h1, h2 = mm1.vma("heap"), mm2.vma("heap")
    mm1.write_access(h1, pidx, 0, 256)
    mm2.write_access(h2, pidx, 0, 256)
    mm1.fill_pattern(h1, pidx, 0, 256, seed_a)
    mm2.fill_pattern(h2, pidx, 0, 256, seed_a)
    np.testing.assert_array_equal(h1.read_page(pidx), h2.read_page(pidx))
    if seed_a != seed_b:
        mm2.fill_pattern(h2, pidx, 0, 256, seed_b)
        # Different seeds overwhelmingly produce different bytes.
        if not np.array_equal(h1.read_page(pidx), h2.read_page(pidx)):
            assert True
        # (hash collisions in the cheap pattern are tolerated)


@settings(**COMMON)
@given(
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=10),
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=10),
)
def test_fork_cow_preserves_child_snapshot(pre_pages, post_pages):
    """Whatever the parent writes after fork, the child's view equals the
    fork-time snapshot."""
    mm = make_mm()
    heap = mm.vma("heap")
    for p in pre_pages:
        mm.write_access(heap, p, 0, 64)
        mm.fill_pattern(heap, p, 0, 64, seed=p)
    snapshot = {p: heap.read_page(p).copy() for p in set(pre_pages)}
    child = mm.fork()
    for p in post_pages:
        mm.write_access(heap, p, 0, 64)
        mm.fill_pattern(heap, p, 0, 64, seed=1000 + p)
    ch = child.vma("heap")
    for p, data in snapshot.items():
        np.testing.assert_array_equal(ch.read_page(p), data)


@settings(**COMMON)
@given(
    st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=16),
    st.sets(st.integers(min_value=0, max_value=15), min_size=0, max_size=16),
)
def test_tracking_reports_exactly_the_rewritten_pages(initial, rewritten):
    mm = make_mm()
    heap = mm.vma("heap")
    for p in initial:
        mm.write_access(heap, p, 0, 32)
    mm.protect_for_tracking(["heap"])
    assert len(heap.dirty_pages()) == 0
    for p in rewritten:
        mm.write_access(heap, p, 0, 32)
    # Dirty set == pages written since arming (old or new).
    assert set(int(p) for p in heap.dirty_pages()) == set(rewritten)


# ----------------------------------------------------------------------
# Image chains
# ----------------------------------------------------------------------
def _img(key, parent, writes, step):
    img = CheckpointImage(
        key=key, mechanism="t", pid=1, task_name="t", node_id=0,
        step=step, registers={"pc": 0, "sp": 0, "gpr": [0] * 8},
        parent_key=parent,
    )
    for page, val in writes:
        add_page(img, "heap", page, np.full(4096, val % 256, dtype=np.uint8))
    return img


@settings(**COMMON)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=0,
            max_size=6,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_chain_materialization_is_last_writer_wins(writes_per_image):
    images = []
    expected = {}
    for i, writes in enumerate(writes_per_image):
        img = _img(f"k{i}", f"k{i - 1}" if i else None, writes, step=i)
        images.append(img)
        for page, val in writes:
            expected[page] = val % 256
    flat = materialize_chain(images)
    got = {
        c.page_index: int(c.data[0]) for c in flat.chunks
    }
    assert got == expected
    assert flat.step == len(writes_per_image) - 1
    assert not flat.is_incremental


# ----------------------------------------------------------------------
# Extent coalescing and content-addressed dedup
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),  # page
            st.integers(min_value=0, max_value=255),  # fill value
        ),
        min_size=1,
        max_size=32,
        unique_by=lambda t: t[0],
    )
)
def test_extent_capture_and_dedup_roundtrip_byte_exact(writes):
    """Extent-coalesced capture stored through the dedup layer restores
    the exact bytes the seed per-page path produces."""
    from repro.core.capture import _extent_runs
    from repro.stablestore import ContentStore
    from repro.storage.backends import MemoryStorage

    writes = sorted(writes)
    content = {p: np.full(4096, v, dtype=np.uint8) for p, v in writes}
    pages = [("heap", p) for p, _ in writes]

    per_page = _img("ref", None, writes, step=0)
    coalesced = _img("m/1/1", None, [], step=0)
    for _, start, npages in _extent_runs(pages):
        data = np.concatenate([content[start + i] for i in range(npages)])
        if npages == 1:
            add_page(coalesced, "heap", start, data)
        else:
            add_extent(coalesced, "heap", start, data, npages)
    assert coalesced.payload_bytes == per_page.payload_bytes

    store = ContentStore(MemoryStorage())
    store.store(coalesced.key, coalesced, coalesced.size_bytes, 0)
    restored, _ = store.load(coalesced.key, 0)
    ref_idx = per_page.chunk_index()
    got_idx = restored.chunk_index()
    assert got_idx.keys() == ref_idx.keys()
    for key, ref_chunk in ref_idx.items():
        np.testing.assert_array_equal(got_idx[key].data, ref_chunk.data)


@settings(**COMMON)
@given(
    st.integers(min_value=1, max_value=8),  # base extent pages
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),  # page
            st.integers(min_value=0, max_value=4000),  # offset
            st.integers(min_value=1, max_value=512),  # length
            st.integers(min_value=0, max_value=255),  # value
        ),
        min_size=0,
        max_size=12,
    ),
)
def test_materialize_chain_extent_split_merge_matches_naive(npages, deltas):
    """Sub-page deltas (overlapping freely) patched into a base extent
    flatten to exactly the bytes a naive in-order byte application gives,
    whether or not extent re-merging is enabled."""
    deltas = [(p % npages, off, min(ln, 4096 - off), val) for p, off, ln, val in deltas]
    expected = np.zeros((npages, 4096), dtype=np.uint8)
    for i in range(npages):
        expected[i] = i + 1
    base = _img("k0", None, [], step=0)
    add_extent(base, "heap", 0, expected.reshape(-1), npages)

    images = [base]
    for j, (p, off, ln, val) in enumerate(deltas):
        d = _img(f"k{j + 1}", f"k{j}", [], step=j + 1)
        d.add_block("heap", p, off, np.full(ln, val, dtype=np.uint8))
        expected[p, off : off + ln] = val
        images.append(d)

    for page_size in (None, 4096):
        flat = materialize_chain(images, page_size=page_size)
        got = np.zeros((npages, 4096), dtype=np.uint8)
        for chunk in flat.chunks:
            for c in chunk.split_pages():
                got[c.page_index, c.offset : c.offset + c.nbytes] = c.data
        np.testing.assert_array_equal(got, expected)
        if page_size is not None:
            # Full coverage re-merges into extents: whole-page coverage
            # accounted once per page, no sub-page fragments left.
            assert sum(c.npages for c in flat.chunks) == npages
            assert all(c.offset == 0 for c in flat.chunks)


# ----------------------------------------------------------------------
# Workload restart alignment
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=0, max_value=10_000),
)
def test_align_step_properties(iterations, step):
    wl = SparseWriter(
        iterations=iterations, dirty_fraction=0.05, heap_bytes=128 * 1024
    )
    aligned = wl.align_step(step)
    # Aligned cursor never exceeds the raw cursor and is itself a fixpoint.
    assert aligned <= step
    assert wl.align_step(aligned) == aligned
    # It sits on an iteration boundary.
    body = aligned - wl.setup_ops
    if aligned >= wl.setup_ops:
        assert body % wl.ops_per_iteration == 0
    # Monotone in the input.
    assert wl.align_step(step + 1) >= aligned


# ----------------------------------------------------------------------
# Storage devices
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20)
)
def test_device_fifo_completions_monotone(sizes):
    dev = Device(name="d", latency_ns=100, bytes_per_ns=1.0)
    completions = []
    for nbytes in sizes:
        completions.append(dev.submit(now_ns=0, nbytes=nbytes))
    assert completions == sorted(completions)
    # Total busy time equals the sum of service times.
    assert completions[-1] == sum(dev.transfer_time_ns(s) for s in sizes)


# ----------------------------------------------------------------------
# Analysis mathematics
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=1.0, max_value=1e7),
)
def test_interval_formulas_positive_and_ordered(cost, mtbf):
    y = young_interval_s(cost, mtbf)
    d = daly_interval_s(cost, mtbf)
    assert y > 0 and d > 0
    assert d <= mtbf * 1.0001  # Daly clamps at the MTBF
    # Young is the first-order term; Daly never exceeds it wildly.
    assert d < y * 1.5 + cost


@settings(**COMMON)
@given(
    st.floats(min_value=10.0, max_value=1e5),
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=0.1, max_value=500.0),
    st.floats(min_value=100.0, max_value=1e7),
)
def test_utilization_in_unit_interval_and_monotone_in_mtbf(
    work, interval, cost, mtbf
):
    assume(cost < interval * 10)
    u = effective_utilization(work, interval, cost, cost, mtbf)
    assert 0.0 < u <= 1.0
    u_better = effective_utilization(work, interval, cost, cost, mtbf * 10)
    assert u_better >= u - 1e-12


@settings(**COMMON)
@given(
    st.floats(min_value=1.0, max_value=1e6),
    st.integers(min_value=1, max_value=10**6),
)
def test_system_mtbf_and_survival_consistent(node_mtbf, n):
    m_sys = system_mtbf_s(node_mtbf, n)
    assert m_sys == pytest.approx(node_mtbf / n)
    # P(survive m_sys) = 1/e by definition of the exponential.
    assert p_survive(m_sys, node_mtbf, n) == pytest.approx(math.exp(-1), rel=1e-9)


@settings(**COMMON)
@given(
    st.floats(min_value=100.0, max_value=10_000.0),
    st.floats(min_value=1.0, max_value=50.0),
)
def test_expected_time_at_least_ideal(work, cost):
    mtbf = 5_000.0
    tau = young_interval_s(cost, mtbf)
    t = expected_completion_time_s(work, tau, cost, cost, mtbf)
    ideal = work * (1 + cost / tau)
    assert t >= ideal * 0.999
