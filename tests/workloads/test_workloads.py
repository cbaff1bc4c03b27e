"""Tests for the synthetic workload framework."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.simkernel import Kernel, ops
from repro.workloads import (
    DenseWriter,
    HotColdWriter,
    RandomUpdater,
    SharedMemoryApp,
    SocketApp,
    SparseWriter,
    StencilKernel,
    StreamingWriter,
    ThreadedWorkload,
    WavefrontSweep,
    Workload,
    memory_digest,
)


def run_to_exit(wl, seed=1, **kernel_kw):
    k = Kernel(seed=seed, **kernel_kw)
    t = wl.spawn(k)
    k.run_until_exit(t)
    return k, t


class TestFramework:
    def test_zero_iterations_rejected(self):
        with pytest.raises(WorkloadError):
            DenseWriter(iterations=0)

    def test_align_step_rounds_to_iteration_boundary(self):
        wl = SparseWriter(iterations=10, dirty_fraction=0.01, heap_bytes=1 << 20)
        per = wl.ops_per_iteration
        assert wl.align_step(0) == 0
        assert wl.align_step(per + 1) == per
        assert wl.align_step(3 * per) == 3 * per

    def test_align_step_with_setup(self):
        wl = SocketApp(iterations=5)
        assert wl.setup_ops == 1
        assert wl.align_step(0) == 0
        assert wl.align_step(1) == 1  # setup complete is a boundary
        assert wl.align_step(1 + 3) == 1 + 2  # mid-iteration rounds down

    def test_declared_ops_per_iteration_enforced(self):
        class Broken(Workload):
            ops_per_iteration = 2

            def iteration(self, task, it):
                from repro.simkernel import ops as O

                yield O.Compute(ns=10)  # only one op: mismatch

        k = Kernel(seed=1)
        t = Broken(iterations=1).spawn(k)
        with pytest.raises(WorkloadError):
            k.run_until_exit(t)

    def test_iteration_with_too_many_ops_rejected(self):
        class Broken(Workload):
            ops_per_iteration = 1

            def iteration(self, task, it):
                yield ops.Compute(ns=10)
                yield ops.Compute(ns=10)  # one op more than declared

        k = Kernel(seed=1)
        t = Broken(iterations=2).spawn(k)
        with pytest.raises(WorkloadError, match="iteration 0 emitted 2 ops"):
            k.run_until_exit(t)

    def test_wrong_setup_ops_rejected(self):
        class Broken(Workload):
            setup_ops = 2

            def setup(self, task):
                yield ops.Syscall(name="getpid")  # declared two

            def iteration(self, task, it):
                yield ops.Compute(ns=10)

        k = Kernel(seed=1)
        t = Broken(iterations=1).spawn(k)
        with pytest.raises(WorkloadError, match="setup emitted 1 ops"):
            k.run_until_exit(t)

    def test_plain_iterator_program_drops_syscall_results(self):
        k = Kernel(seed=1)
        program = [ops.Syscall(name="getpid"), ops.Compute(ns=10), ops.Exit(code=3)]
        t = k.spawn_process("plain", lambda task, step: iter(program))
        k.run_until_exit(t)
        assert t.exit_code == 3
        assert t.acct.syscalls == 1

    def test_main_steps_match_declared_shape(self):
        wl = DenseWriter(iterations=5, heap_bytes=64 * 1024)
        k, t = run_to_exit(wl)
        # The Exit op terminates before completing, so it never counts.
        assert t.main_steps == wl.setup_ops + 5 * wl.ops_per_iteration

    def test_memory_digest_detects_changes(self):
        wl = DenseWriter(iterations=1, heap_bytes=64 * 1024)
        k, t = run_to_exit(wl)
        d1 = memory_digest(t)
        t.mm.fill_pattern(t.mm.vma("heap"), 0, 0, 64, seed=999)
        d2 = memory_digest(t)
        assert d1["heap"] != d2["heap"]


class TestWriters:
    def test_dense_writer_dirties_whole_heap(self):
        wl = DenseWriter(iterations=2, heap_bytes=128 * 1024)
        k, t = run_to_exit(wl)
        heap = t.mm.vma("heap")
        assert len(heap.present_pages()) == heap.npages

    def test_sparse_writer_dirties_fraction(self):
        wl = SparseWriter(iterations=1, dirty_fraction=0.25, heap_bytes=1 << 20)
        k, t = run_to_exit(wl)
        heap = t.mm.vma("heap")
        frac = len(heap.present_pages()) / heap.npages
        assert 0.2 < frac <= 0.3

    def test_sparse_writer_validates_fraction(self):
        with pytest.raises(ValueError):
            SparseWriter(dirty_fraction=0.0)
        with pytest.raises(ValueError):
            SparseWriter(dirty_fraction=1.5)

    def test_streaming_writer_advances_window(self):
        wl = StreamingWriter(iterations=4, window_bytes=64 * 1024, heap_bytes=1 << 20)
        k, t = run_to_exit(wl)
        heap = t.mm.vma("heap")
        # 4 disjoint 16-page windows
        assert len(heap.present_pages()) == 4 * 16

    def test_hotcold_touches_hot_set_every_iteration(self):
        wl = HotColdWriter(iterations=5, hot_fraction=0.1, heap_bytes=1 << 20)
        k, t = run_to_exit(wl)
        heap = t.mm.vma("heap")
        hot_pages = wl.hot_bytes // 4096
        assert len(heap.present_pages()) >= hot_pages

    def test_writers_are_deterministic_across_runs(self):
        w1 = SparseWriter(iterations=3, dirty_fraction=0.1, seed=5, heap_bytes=256 * 1024)
        w2 = SparseWriter(iterations=3, dirty_fraction=0.1, seed=5, heap_bytes=256 * 1024)
        _, t1 = run_to_exit(w1)
        _, t2 = run_to_exit(w2)
        assert memory_digest(t1)["heap"] == memory_digest(t2)["heap"]


class TestScientific:
    def test_stencil_rewrites_grid(self):
        wl = StencilKernel(iterations=2, heap_bytes=256 * 1024, grid_fraction=0.5)
        k, t = run_to_exit(wl)
        heap = t.mm.vma("heap")
        grid_pages = wl.grid_bytes // 4096
        assert len(heap.dirty_pages()) >= grid_pages

    def test_wavefront_touches_one_plane_per_iteration(self):
        wl = WavefrontSweep(iterations=3, planes=8, heap_bytes=256 * 1024)
        k, t = run_to_exit(wl)
        heap = t.mm.vma("heap")
        assert len(heap.present_pages()) == 3 * (wl.plane_bytes // 4096)

    def test_random_updater_touches_many_pages_few_bytes(self):
        wl = RandomUpdater(iterations=1, updates_per_iteration=50, heap_bytes=1 << 20)
        k, t = run_to_exit(wl)
        heap = t.mm.vma("heap")
        # Many distinct pages touched, but only 8 bytes per update.
        assert len(heap.present_pages()) > 30


class TestPersistent:
    def test_socket_app_holds_socket_fd(self):
        wl = SocketApp(iterations=2)
        k, t = run_to_exit(wl)
        kinds = [fd.file.kind for fd in t.fds.values()]
        assert "socket" in kinds
        assert wl.local_port in k.ports_in_use

    def test_shm_app_attaches_segment(self):
        wl = SharedMemoryApp(iterations=2, shm_key=42)
        k, t = run_to_exit(wl)
        assert t.mm.has_vma("shm:42")
        assert 42 in k.shm_segments
        assert t.pid in k.shm_segments[42]["attached"]


class TestThreaded:
    def test_thread_group_shares_address_space(self):
        k = Kernel(ncpus=2, seed=1)
        wl = ThreadedWorkload(nthreads=3, iterations=4, heap_bytes=512 * 1024)
        tasks = wl.spawn_group(k)
        assert len({id(t.mm) for t in tasks}) == 1
        for t in tasks:
            k.run_until_exit(t, limit_ns=10**12)
        assert all(t.exit_code == 0 for t in tasks)

    def test_threads_write_disjoint_bands(self):
        k = Kernel(ncpus=2, seed=1)
        wl = ThreadedWorkload(nthreads=2, iterations=2, heap_bytes=256 * 1024)
        tasks = wl.spawn_group(k)
        for t in tasks:
            k.run_until_exit(t, limit_ns=10**12)
        heap = tasks[0].mm.vma("heap")
        band_pages = (256 * 1024 // 2) // 4096
        present = set(int(p) for p in heap.present_pages())
        assert any(p < band_pages for p in present)
        assert any(p >= band_pages for p in present)

    def test_thread_group_annotations(self):
        k = Kernel(seed=1)
        wl = ThreadedWorkload(nthreads=2, iterations=1)
        tasks = wl.spawn_group(k)
        pids = [t.pid for t in tasks]
        assert tasks[0].annotations["thread_group"] == pids
        assert tasks[1].annotations["tgid"] == pids[0]
