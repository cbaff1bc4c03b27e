"""Scheduler semantics: time sharing, real-time classes, preemption."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.simkernel import Kernel, SchedPolicy, TaskState, ops
from repro.simkernel.costs import CostModel
from repro.simkernel.process import Task
from repro.simkernel.scheduler import Scheduler


def spin(iters=100_000, op_ns=20_000):
    def factory(task, step):
        def gen():
            for _ in range(iters):
                yield ops.Compute(ns=op_ns)
            yield ops.Exit(code=0)

        return gen()

    return factory


def test_enqueue_dead_task_rejected():
    sched = Scheduler(CostModel())
    t = Task(pid=1, name="t", mm=None, is_kthread=True)
    t.state = TaskState.ZOMBIE
    with pytest.raises(SchedulerError):
        sched.enqueue(t)


def test_time_sharing_interleaves_fairly():
    k = Kernel(ncpus=1, seed=1)
    a = k.spawn_process("a", spin())
    b = k.spawn_process("b", spin())
    k.run_for(400_000_000)  # 400 ms
    # Both made comparable progress on one CPU.
    ratio = a.acct.cpu_ns / max(b.acct.cpu_ns, 1)
    assert 0.5 < ratio < 2.0


def test_fifo_task_starves_time_sharing_until_done():
    k = Kernel(ncpus=1, seed=1)
    rt = k.spawn_process("rt", spin(iters=2_000), policy=SchedPolicy.FIFO, rt_prio=10)
    ts = k.spawn_process("ts", spin(iters=2_000))
    k.run_for(2_000 * 20_000 + 30_000_000)
    assert not rt.alive()
    # The FIFO task ran essentially uninterrupted; the TS task only got
    # leftovers afterwards.
    assert rt.acct.cpu_ns >= 2_000 * 20_000
    assert ts.acct.cpu_ns < rt.acct.cpu_ns


def test_ckpt_class_preempts_fifo():
    k = Kernel(ncpus=1, seed=1)
    fifo = k.spawn_process("fifo", spin(iters=100_000), policy=SchedPolicy.FIFO, rt_prio=99)
    k.run_for(5_000_000)
    ck = k.spawn_process("ck", spin(iters=100, op_ns=10_000), policy=SchedPolicy.CKPT)
    k.run_until_exit(ck, limit_ns=1_000_000_000)
    assert not ck.alive()
    # CKPT finished while the FIFO hog still has most of its work left.
    assert fifo.alive()


def test_new_runnable_rt_task_sets_need_resched():
    k = Kernel(ncpus=1, seed=1)
    ts = k.spawn_process("ts", spin())
    k.run_for(3_000_000)
    rt = k.spawn_process("rt", spin(iters=10, op_ns=1_000), policy=SchedPolicy.FIFO, rt_prio=5)
    k.run_for(5_000_000)
    assert not rt.alive()  # got the CPU promptly despite ts running


def test_higher_prio_other_does_not_preempt_mid_quantum():
    # Time-sharing tasks respect quantum boundaries; effective priority
    # only changes scheduling at op/quantum granularity.
    k = Kernel(ncpus=1, seed=1)
    a = k.spawn_process("a", spin(iters=1000))
    k.run_for(1_000_000)
    b = k.spawn_process("b", spin(iters=1000), static_prio=110)  # nicer
    k.run_for(1_000_000)
    assert a.acct.cpu_ns > 0


def test_two_cpus_run_two_tasks_concurrently():
    k = Kernel(ncpus=2, seed=1)
    a = k.spawn_process("a", spin(iters=500))
    b = k.spawn_process("b", spin(iters=500))
    k.start()
    k.engine.run(
        until_ns=k.engine.now_ns + 2 * 500 * 20_000 + 20_000_000,
        until=lambda: not a.alive() and not b.alive(),
    )
    done_at = k.engine.now_ns
    assert not a.alive() and not b.alive()
    # With 2 CPUs both finish in ~the single-task serial time, well under
    # the 1-CPU serialization of 2 * 500 * 20 us.
    assert done_at < 2 * 500 * 20_000


def test_runqueue_length_counts_waiting_only():
    k = Kernel(ncpus=1, seed=1)
    tasks = [k.spawn_process(f"t{i}", spin()) for i in range(4)]
    k.run_for(2_000_000)
    assert len(k.scheduler.runqueue) == 3  # one on CPU


def test_yield_rotates_tasks():
    k = Kernel(ncpus=1, seed=1)
    order = []

    def factory(name):
        def f(task, step):
            def gen():
                for i in range(3):
                    order.append(name)
                    yield ops.Compute(ns=1_000)
                    yield ops.Yield()
                yield ops.Exit(code=0)

            return gen()

        return f

    a = k.spawn_process("a", factory("a"))
    b = k.spawn_process("b", factory("b"))
    k.run_for(50_000_000)
    assert not a.alive() and not b.alive()
    assert set(order[:2]) == {"a", "b"}  # interleaved via yields
