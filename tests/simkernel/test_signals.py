"""Signal semantics: deferral, user vs kernel handlers, reentrancy."""

from __future__ import annotations

import pytest

from repro.errors import SignalError
from repro.simkernel import Kernel, Mode, Sig, TaskState, ops
from repro.simkernel.signals import (
    HandlerKind,
    SignalHandler,
    SignalState,
    default_action,
)


def spin_factory(iters=10_000, op_ns=10_000, non_reentrant_every=0):
    def factory(task, step):
        def gen():
            for i in range(iters):
                nr = non_reentrant_every and (i % non_reentrant_every == 0)
                yield ops.Compute(ns=op_ns, non_reentrant=bool(nr))
            yield ops.Exit(code=0)

        return gen()

    return factory


def test_default_action_classification():
    assert default_action(Sig.SIGKILL) == "terminate"
    assert default_action(Sig.SIGSTOP) == "stop"
    assert default_action(Sig.SIGCHLD) == "ignore"
    assert default_action(Sig.SIGFREEZE) == "stop"


def test_sigkill_cannot_be_caught():
    st = SignalState()
    with pytest.raises(SignalError):
        st.register(Sig.SIGKILL, SignalHandler(kind=HandlerKind.IGNORE))


def test_blocked_signal_not_deliverable_but_kill_is():
    st = SignalState()
    st.blocked.add(Sig.SIGUSR1)
    st.post(Sig.SIGUSR1)
    assert not st.has_deliverable()
    st.post(Sig.SIGKILL)
    assert st.take_deliverable() == Sig.SIGKILL


def test_pending_signal_recorded_once():
    st = SignalState()
    st.post(Sig.SIGUSR1)
    st.post(Sig.SIGUSR1)
    assert st.pending == [Sig.SIGUSR1]


def test_default_terminate_kills_process():
    k = Kernel(seed=1)
    t = k.spawn_process("victim", spin_factory())
    k.run_for(1_000_000)
    k.post_signal(t.pid, Sig.SIGUSR1)
    k.run_for(2_000_000)
    assert not t.alive()
    assert t.exit_code == 128 + int(Sig.SIGUSR1)


def test_sigstop_sigcont_cycle():
    k = Kernel(seed=1)
    t = k.spawn_process("app", spin_factory())
    k.run_for(1_000_000)
    k.post_signal(t.pid, Sig.SIGSTOP)
    k.run_for(1_000_000)
    assert t.state == TaskState.STOPPED
    k.post_signal(t.pid, Sig.SIGCONT)
    k.run_for(1_000_000)
    assert t.state in (TaskState.READY, TaskState.RUNNING)


def test_user_handler_runs_in_user_mode_and_returns():
    k = Kernel(seed=1)
    ran = {}

    def handler_factory(task):
        def h():
            ran["mode"] = task.mode
            yield ops.Compute(ns=500)
            ran["done"] = True

        return h()

    t = k.spawn_process("app", spin_factory())
    t.signals.register(
        Sig.SIGUSR2, SignalHandler(kind=HandlerKind.USER, program_factory=handler_factory)
    )
    k.run_for(500_000)
    k.post_signal(t.pid, Sig.SIGUSR2)
    k.run_for(2_000_000)
    assert ran.get("done")
    assert ran["mode"] == Mode.USER
    assert t.alive()  # handler, not default terminate
    assert t.acct.signals_received == 1


def test_kernel_action_runs_immediately_in_kernel():
    k = Kernel(seed=1)
    fired = {}

    def action(task):
        fired["pid"] = task.pid

    k.add_kernel_signal(Sig.SIGCKPT, action, label="ckpt")
    t = k.spawn_process("app", spin_factory())
    k.run_for(500_000)
    k.post_signal(t.pid, Sig.SIGCKPT)
    k.run_for(2_000_000)
    assert fired["pid"] == t.pid
    assert t.alive()


def test_kernel_signal_installed_on_existing_tasks_too():
    k = Kernel(seed=1)
    t = k.spawn_process("app", spin_factory())
    fired = []
    k.add_kernel_signal(Sig.SIGCKPT, lambda task: fired.append(task.pid))
    k.run_for(100_000)
    k.post_signal(t.pid, Sig.SIGCKPT)
    k.run_for(1_000_000)
    assert fired == [t.pid]


def test_remove_kernel_signal_restores_default():
    k = Kernel(seed=1)
    fired = []
    k.add_kernel_signal(Sig.SIGCKPT, lambda task: fired.append(1))
    k.remove_kernel_signal(Sig.SIGCKPT)
    t = k.spawn_process("app", spin_factory())
    k.run_for(100_000)
    k.post_signal(t.pid, Sig.SIGCKPT)
    k.run_for(1_000_000)
    assert fired == []
    assert not t.alive()  # default action for unknown signal: terminate


def test_reentrancy_hazard_detected():
    k = Kernel(seed=3)

    def handler_factory(task):
        def h():
            yield ops.Compute(ns=200, non_reentrant=True)

        return h()

    # Program spends every op inside malloc (non-reentrant region).
    t = k.spawn_process("app", spin_factory(iters=10_000, non_reentrant_every=1))
    t.signals.register(
        Sig.SIGALRM,
        SignalHandler(
            kind=HandlerKind.USER,
            program_factory=handler_factory,
            uses_non_reentrant=True,
        ),
    )
    k.run_for(500_000)
    k.post_signal(t.pid, Sig.SIGALRM)
    k.run_for(2_000_000)
    assert t.signals.reentrancy_hazards >= 1


def test_signal_deferred_until_kernel_to_user_transition():
    """A signal posted mid-op is only delivered at the next op boundary
    where the task would enter user mode."""
    k = Kernel(seed=1)
    hits = []

    def handler_factory(task):
        def h():
            hits.append(k.engine.now_ns)
            yield ops.Compute(ns=100)

        return h()

    def factory(task, step):
        def gen():
            yield ops.Compute(ns=10_000_000)  # one long op
            yield ops.Exit(code=0)

        return gen()

    t = k.spawn_process("app", factory)
    t.signals.register(
        Sig.SIGUSR2, SignalHandler(kind=HandlerKind.USER, program_factory=handler_factory)
    )
    k.run_for(1_000_000)
    post_time = k.engine.now_ns
    k.post_signal(t.pid, Sig.SIGUSR2)
    k.run_until_exit(t)
    assert hits and hits[0] >= post_time + 8_000_000  # waited for op to finish


def test_snapshot_includes_pending_and_blocked():
    st = SignalState()
    st.post(Sig.SIGUSR1)
    st.blocked.add(Sig.SIGALRM)
    snap = st.snapshot()
    assert int(Sig.SIGUSR1) in snap["pending"]
    assert int(Sig.SIGALRM) in snap["blocked"]
