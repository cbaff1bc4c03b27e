"""Unit tests for the cost model and miscellaneous kernel behaviours."""

from __future__ import annotations

import pytest

from repro.errors import MemoryError_, SimulationError
from repro.simkernel import CostModel, Kernel, SchedPolicy, TaskState, ops
from repro.simkernel.costs import DEFAULT_COSTS, NS_PER_MS, NS_PER_S, NS_PER_US


class TestCostModel:
    def test_syscall_cost_composition(self):
        c = CostModel()
        assert c.syscall_ns(0) == 2 * c.mode_switch_ns + c.syscall_dispatch_ns
        assert c.syscall_ns(100) == c.syscall_ns(0) + 100

    def test_memcpy_and_hash_scale_linearly(self):
        c = CostModel()
        assert c.memcpy_ns(3000) == 2 * c.memcpy_ns(1500)
        assert c.hash_ns(8000) == 2 * c.hash_ns(4000)

    def test_pages_and_lines_ceiling(self):
        c = CostModel()
        assert c.pages_for(1) == 1
        assert c.pages_for(4096) == 1
        assert c.pages_for(4097) == 2

    def test_replace_returns_modified_copy(self):
        c = CostModel()
        c2 = c.replace(page_size=8192)
        assert c2.page_size == 8192
        assert c.page_size == 4096
        assert c2.mode_switch_ns == c.mode_switch_ns

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.page_size = 1  # type: ignore[misc]

    def test_unit_constants(self):
        assert NS_PER_US == 1_000
        assert NS_PER_MS == 1_000_000
        assert NS_PER_S == 1_000_000_000


class TestKernelMisc:
    def test_run_until_exit_times_out(self):
        k = Kernel(seed=1)

        def forever(task, step):
            def gen():
                while True:
                    yield ops.Compute(ns=1_000_000)

            return gen()

        t = k.spawn_process("loop", forever)
        with pytest.raises(SimulationError):
            k.run_until_exit(t, limit_ns=10_000_000)

    def test_on_exit_callback(self):
        k = Kernel(seed=1)
        seen = []

        def quick(task, step):
            def gen():
                yield ops.Exit(code=5)

            return gen()

        t = k.spawn_process("q", quick)
        k.on_exit(t, lambda task: seen.append(task.exit_code))
        k.run_until_exit(t, limit_ns=10**10)
        assert seen == [5]
        # Registering on an already-dead task fires immediately.
        k.on_exit(t, lambda task: seen.append("late"))
        assert seen[-1] == "late"

    def test_spawn_with_taken_pid_rejected(self):
        k = Kernel(seed=1)
        t = k.spawn_process("a", None, start=False)
        with pytest.raises(SimulationError):
            k.spawn_process("b", None, start=False, pid=t.pid)

    def test_forced_pid_advances_allocator(self):
        k = Kernel(seed=1)
        t = k.spawn_process("a", None, start=False, pid=500)
        t2 = k.spawn_process("b", None, start=False)
        assert t.pid == 500
        assert t2.pid > 500

    def test_halt_stops_progress(self):
        k = Kernel(seed=1)
        progress = []

        def prog(task, step):
            def gen():
                for i in range(10**6):
                    progress.append(i)
                    yield ops.Compute(ns=100_000)

            return gen()

        k.spawn_process("p", prog)
        k.run_for(2 * NS_PER_MS)
        n = len(progress)
        assert n > 0
        k.halt()
        k.run_for(10 * NS_PER_MS)
        assert len(progress) <= n + 1  # at most the in-flight op

    def test_irq_noise_zero_rate_is_noop(self):
        k = Kernel(seed=1)
        k.enable_irq_noise(0)
        assert k.engine.pending() == 0

    def test_kthread_memwrite_without_mm_errors(self):
        k = Kernel(seed=1)

        def kprog(task, step):
            def gen():
                yield ops.MemWrite(vma="heap", offset=0, nbytes=8, seed=1)

            return gen()

        kt = k.spawn_kthread("kt", kprog)
        with pytest.raises(MemoryError_):
            k.run_for(5 * NS_PER_MS)

    def test_memread_out_of_bounds_errors(self):
        k = Kernel(seed=1)

        def prog(task, step):
            def gen():
                yield ops.MemRead(vma="heap", offset=0, nbytes=10**9)

            return gen()

        k.spawn_process("p", prog)
        with pytest.raises(MemoryError_):
            k.run_for(5 * NS_PER_MS)

    def test_task_by_pid_unknown(self):
        k = Kernel(seed=1)
        with pytest.raises(SimulationError):
            k.task_by_pid(424242)


class TestRoundRobin:
    def test_rr_tasks_share_cpu(self):
        k = Kernel(ncpus=1, seed=1)

        def prog(task, step):
            def gen():
                for _ in range(10**6):
                    yield ops.Compute(ns=200_000)

            return gen()

        a = k.spawn_process("a", prog, policy=SchedPolicy.RR, rt_prio=10)
        b = k.spawn_process("b", prog, policy=SchedPolicy.RR, rt_prio=10)
        k.run_for(400 * NS_PER_MS)
        # Same rt_prio RR tasks rotate at quantum boundaries.
        assert a.acct.cpu_ns > 0 and b.acct.cpu_ns > 0
        ratio = a.acct.cpu_ns / b.acct.cpu_ns
        assert 0.4 < ratio < 2.6

    def test_higher_rr_priority_wins(self):
        k = Kernel(ncpus=1, seed=1)

        def prog(task, step):
            def gen():
                for _ in range(10**6):
                    yield ops.Compute(ns=200_000)

            return gen()

        hi = k.spawn_process("hi", prog, policy=SchedPolicy.RR, rt_prio=50)
        lo = k.spawn_process("lo", prog, policy=SchedPolicy.RR, rt_prio=1)
        k.run_for(100 * NS_PER_MS)
        assert lo.acct.cpu_ns == 0


class TestEngineExtras:
    def test_pending_counts_uncancelled(self):
        from repro.simkernel.engine import Engine

        eng = Engine()
        e1 = eng.after(10, lambda: None)
        e2 = eng.after(20, lambda: None)
        e1.cancel()
        assert eng.pending() == 1

    def test_now_s_conversion(self):
        from repro.simkernel.engine import Engine

        eng = Engine()
        eng.after(2 * NS_PER_S, lambda: None)
        eng.run()
        assert eng.now_s == pytest.approx(2.0)
