"""Tests for the hardware checkpointing models (Revive / SafetyNet)."""

from __future__ import annotations

import pytest

from repro.core.checkpointer import RequestState
from repro.core.image import CheckpointImage
from repro.errors import CheckpointError
from repro.simkernel import Kernel, ops
from repro.storage import MemoryStorage
from repro.mechanisms import CacheLineTracker, Revive, SafetyNet
from repro.workloads import RandomUpdater, SparseWriter

from mech_helpers import run_request


def updater(iters=200, updates=32, heap=1 << 20, seed=5):
    return RandomUpdater(
        iterations=iters, updates_per_iteration=updates, heap_bytes=heap, seed=seed
    )


class TestCacheLineTracker:
    def test_logs_lines_touched_by_writes(self):
        k = Kernel(seed=1)
        tracker = CacheLineTracker(k)

        def factory(task, step):
            def gen():
                yield ops.MemWrite(vma="heap", offset=0, nbytes=64, seed=1)
                yield ops.MemWrite(vma="heap", offset=64, nbytes=64, seed=1)
                yield ops.MemWrite(vma="heap", offset=4096, nbytes=8, seed=1)
                yield ops.Exit(code=0)

            return gen()

        t = k.spawn_process("w", factory)
        k.run_until_exit(t, limit_ns=10**10)
        img = CheckpointImage(
            key="x", mechanism="hw", pid=t.pid, task_name="w", node_id=0,
            step=0, registers={},
        )
        assert tracker.drain_into(t, img) == 2
        spans = sorted((c.page_index, c.offset, c.nbytes) for c in img.chunks)
        assert spans == [(0, 0, 2 * 64), (1, 0, 64)]

    def test_single_tracker_per_kernel(self):
        k = Kernel(seed=1)
        CacheLineTracker(k)
        with pytest.raises(CheckpointError):
            CacheLineTracker(k)

    def test_drain_coalesces_adjacent_lines(self):
        k = Kernel(seed=1)
        tracker = CacheLineTracker(k)

        def factory(task, step):
            def gen():
                yield ops.MemWrite(vma="heap", offset=0, nbytes=192, seed=1)  # 3 lines
                yield ops.MemWrite(vma="heap", offset=512, nbytes=64, seed=1)  # 1 line
                yield ops.Exit(code=0)

            return gen()

        t = k.spawn_process("w", factory)
        k.run_until_exit(t, limit_ns=10**10)
        img = CheckpointImage(
            key="x", mechanism="hw", pid=t.pid, task_name="w", node_id=0,
            step=0, registers={},
        )
        chunks = tracker.drain_into(t, img)
        assert chunks == 2  # one 3-line run + one isolated line
        assert img.payload_bytes == 4 * 64
        # Drained: log is empty now.
        assert tracker.drain_into(t, img) == 0


class TestSchemes:
    def _epoch_pair(self, scheme_cls):
        k = Kernel(seed=7)
        mech = scheme_cls(k, MemoryStorage())
        wl = updater()
        t = wl.spawn(k)
        k.run_for(3_000_000)
        r1 = mech.request_checkpoint(t)  # first epoch: full
        run_request(k, r1)
        k.run_for(2_000_000)
        r2 = mech.request_checkpoint(t)  # delta epoch
        run_request(k, r2)
        return k, mech, t, r1, r2

    def test_revive_epochs_form_chain(self):
        k, mech, t, r1, r2 = self._epoch_pair(Revive)
        assert r1.state == RequestState.DONE
        assert r2.image.parent_key == r1.key
        assert r2.image.payload_bytes < r1.image.payload_bytes

    def test_line_granularity_beats_page_granularity_on_sparse_writes(self):
        k, mech, t, r1, r2 = self._epoch_pair(SafetyNet)
        # The delta epoch saved line-sized chunks, far below page size
        # per touched page (GUPS-like writes touch 8B per page).
        per_chunk = [c.nbytes for c in r2.image.chunks]
        assert per_chunk and max(per_chunk) < 4096
        assert r2.image.payload_bytes < len(per_chunk) * 4096 / 10

    def test_rollback_restores_memory_and_cursor(self):
        k = Kernel(seed=7)
        mech = Revive(k, MemoryStorage())
        wl = SparseWriter(
            iterations=5_000, dirty_fraction=0.02, heap_bytes=256 * 1024, seed=3
        )
        t = wl.spawn(k)
        k.run_for(3_000_000)
        r1 = mech.request_checkpoint(t)
        run_request(k, r1)
        from repro.workloads import memory_digest

        digest_at_epoch = memory_digest(t)["heap"]
        step_at_epoch = t.main_steps
        k.run_for(5_000_000)  # keep running: memory diverges
        assert memory_digest(t)["heap"] != digest_at_epoch
        k.stop_task(t)
        k.run_for(1_000_000)
        mech.rollback(r1.key, t)
        # Pages covered by the epoch are rewound; the restart cursor too.
        assert t.main_steps <= step_at_epoch
        # Epoch chunks now verify against live memory again.
        assert mech.requests[0].image.verify_against(t) == []

    def test_rollback_wrong_pid_rejected(self):
        k = Kernel(seed=7)
        mech = Revive(k, MemoryStorage())
        t = updater().spawn(k)
        k.run_for(2_000_000)
        r1 = mech.request_checkpoint(t)
        run_request(k, r1)
        other = updater(seed=9).spawn(k)
        from repro.errors import RestartError

        with pytest.raises(RestartError):
            mech.rollback(r1.key, other)

    def test_safetynet_costs_more_hardware_than_revive(self):
        assert SafetyNet.hardware_cost_units > Revive.hardware_cost_units
        # ...but perturbs the application less per write.
        assert SafetyNet.per_write_overhead_ns < Revive.per_write_overhead_ns
