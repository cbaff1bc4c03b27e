"""Unit tests for the default system-call surface."""

from __future__ import annotations

import pytest

from repro.simkernel import Kernel, SchedPolicy, Sig, ops
from repro.simkernel.memory import Prot, VMAKind


def run_calls(kernel, script):
    """Run a program that performs ``script`` syscalls; returns results."""
    results = []

    def factory(task, step):
        def gen():
            for name, args in script:
                res = yield ops.Syscall(name=name, args=args)
                results.append(res)
            yield ops.Exit(code=0)

        return gen()

    t = kernel.spawn_process("sc", factory)
    kernel.run_until_exit(t, limit_ns=10**12)
    return results, t


class TestFileSyscalls:
    def test_open_read_write_lseek_close(self):
        k = Kernel(seed=1)
        k.vfs.create("/f", b"0123456789")
        res, t = run_calls(
            k,
            [
                ("open", ("/f",)),
                ("read", (3, 4)),
                ("lseek", (3, 0, "set")),
                ("read", (3, 2)),
                ("write", (3, b"XY")),
                ("lseek", (3, -1, "end")),
                ("close", (3,)),
            ],
        )
        fd, r1, pos, r2, w, end, c = res
        assert fd == 3
        assert r1 == b"0123"
        assert pos == 0
        assert r2 == b"01"
        assert w == 2
        assert k.vfs.lookup("/f").read(0, 10) == b"01XY456789"
        assert end == 10 - 1
        assert c == 0

    def test_open_creates_when_asked(self):
        k = Kernel(seed=1)
        res, _ = run_calls(k, [("open", ("/new", True))])
        assert k.vfs.exists("/new")

    def test_open_missing_returns_error(self):
        k = Kernel(seed=1)
        res, _ = run_calls(k, [("open", ("/missing",))])
        assert isinstance(res[0], Exception)

    def test_dup_shares_file_but_copies_offset(self):
        k = Kernel(seed=1)
        k.vfs.create("/f", b"abcdef")
        res, t = run_calls(
            k,
            [
                ("open", ("/f",)),
                ("lseek", (3, 2, "set")),
                ("dup", (3,)),
                ("lseek", (3, 4, "set")),
            ],
        )
        fd, _, dup_fd, _ = res
        assert t.fds[dup_fd].file is t.fds[fd].file
        assert t.fds[dup_fd].offset == 2  # copied at dup time
        assert t.fds[fd].offset == 4

    def test_bad_fd_operations_error(self):
        k = Kernel(seed=1)
        res, _ = run_calls(k, [("read", (99, 1)), ("close", (99,)), ("dup", (99,))])
        assert all(isinstance(r, Exception) for r in res)

    def test_unlink_removes_name(self):
        k = Kernel(seed=1)
        k.vfs.create("/gone")
        run_calls(k, [("unlink", ("/gone",))])
        assert not k.vfs.exists("/gone")


class TestMemorySyscalls:
    def test_sbrk_query_and_grow(self):
        k = Kernel(seed=1)
        res, t = run_calls(k, [("sbrk", (0,)), ("sbrk", (64 * 1024,)), ("sbrk", (0,))])
        before, _, after = res
        assert after > before
        assert t.mm.vma("heap").size_bytes >= 1024 * 1024 + 64 * 1024

    def test_mmap_munmap(self):
        k = Kernel(seed=1)
        res, t = run_calls(
            k, [("mmap", ("blob", 32 * 1024)), ("munmap", ("blob",))]
        )
        assert isinstance(res[0], int)
        assert not t.mm.has_vma("blob")

    def test_mprotect_bad_action_errors(self):
        k = Kernel(seed=1)
        res, _ = run_calls(k, [("mprotect", ("heap", "frobnicate"))])
        assert isinstance(res[0], Exception)


class TestProcessSyscalls:
    def test_getpid_and_uname(self):
        k = Kernel(seed=1, node_id=7)
        res, t = run_calls(k, [("getpid", ()), ("uname", ())])
        assert res[0] == t.pid
        assert res[1]["node_id"] == 7

    def test_kill_delivers_signal(self):
        k = Kernel(seed=1)
        victim = k.spawn_process(
            "victim",
            lambda task, step: iter([ops.Compute(ns=10_000_000)]),
        )
        run_calls(k, [("kill", (victim.pid, Sig.SIGKILL))])
        k.run_for(20_000_000)
        assert not victim.alive()

    def test_sigprocmask_blocks_delivery(self):
        k = Kernel(seed=1)

        def factory(task, step):
            def gen():
                yield ops.Syscall(name="sigprocmask", args=("block", [Sig.SIGUSR1]))
                for _ in range(100):
                    yield ops.Compute(ns=100_000)
                yield ops.Exit(code=0)

            return gen()

        t = k.spawn_process("masked", factory)
        k.run_for(2_000_000)
        k.post_signal(t.pid, Sig.SIGUSR1)  # default action would terminate
        k.run_until_exit(t, limit_ns=10**12)
        assert t.exit_code == 0  # survived: the signal stayed pending
        assert Sig.SIGUSR1 in t.signals.pending

    def test_sched_setscheduler(self):
        k = Kernel(seed=1)
        res, t = run_calls(
            k, [("getpid", ())]
        )
        # Set from another context (admin path).
        target = k.spawn_process(
            "rt", lambda task, step: iter([ops.Compute(ns=1000)])
        )
        run_calls(k, [("sched_setscheduler", (target.pid, SchedPolicy.FIFO, 42))])
        assert target.policy == SchedPolicy.FIFO
        assert target.rt_prio == 42

    def test_shm_lifecycle(self):
        k = Kernel(seed=1)
        res, t = run_calls(k, [("shmget", (5, 16 * 1024)), ("shmat", (5,))])
        assert 5 in k.shm_segments
        assert t.mm.has_vma("shm:5")
        assert t.mm.vma("shm:5").shared

    def test_shmat_unknown_key_errors(self):
        k = Kernel(seed=1)
        res, _ = run_calls(k, [("shmat", (99,))])
        assert isinstance(res[0], Exception)

    def test_socket_connect_and_port_conflict(self):
        k = Kernel(seed=1)
        res1, t1 = run_calls(k, [("socket_connect", ("10.0.0.1:80", 5000))])
        assert not isinstance(res1[0], Exception)
        res2, _ = run_calls(k, [("socket_connect", ("10.0.0.1:80", 5000))])
        assert isinstance(res2[0], Exception)  # port already bound


class TestDispatchCosts:
    def test_kernel_mode_callers_skip_boundary(self):
        from repro.simkernel.process import Mode, Task
        from repro.simkernel.syscalls import SyscallResult

        k = Kernel(seed=1)
        user = k.spawn_process("u", None, start=False)
        kt = Task(pid=999, name="kt", mm=None, is_kthread=True)
        _, user_cost = k.syscalls.dispatch(k, user, "getpid", ())
        _, kt_cost = k.syscalls.dispatch(k, kt, "getpid", ())
        assert kt_cost < user_cost

    def test_interposition_charges_and_records(self):
        from repro.simkernel.syscalls import SyscallTable

        k = Kernel(seed=1)
        t = k.spawn_process("u", None, start=False)
        seen = []

        def hook(kernel, task, name, args):
            seen.append(name)
            return 1234

        SyscallTable.interpose(t, ["getpid"], hook)
        _, cost_hooked = k.syscalls.dispatch(k, t, "getpid", ())
        t2 = k.spawn_process("u2", None, start=False)
        _, cost_plain = k.syscalls.dispatch(k, t2, "getpid", ())
        assert cost_hooked == cost_plain + 1234
        assert seen == ["getpid"]

    def test_unknown_syscall_raises(self):
        from repro.errors import SyscallError

        k = Kernel(seed=1)
        t = k.spawn_process("u", None, start=False)
        with pytest.raises(SyscallError):
            k.syscalls.dispatch(k, t, "nope", ())

    def test_module_syscall_stays_on_its_kernel(self):
        """Each kernel's table is its own copy of the defaults: a call a
        module registers on one kernel is absent on another."""
        from repro.simkernel.modules import KernelModule
        from repro.simkernel.syscalls import SyscallResult

        class Ckpt(KernelModule):
            name = "ckpt"

            def on_load(self):
                self.add_syscall("checkpoint", lambda k, task: SyscallResult(7, 10))

        k1, k2 = Kernel(seed=1), Kernel(seed=2)
        mod = Ckpt().load(k1)
        t1 = k1.spawn_process("u", None, start=False)
        t2 = k2.spawn_process("u", None, start=False)
        assert k1.syscalls.has("checkpoint")
        assert k1.syscalls.dispatch(k1, t1, "checkpoint", ())[0].value == 7
        assert not k2.syscalls.has("checkpoint")
        assert k2.syscalls.dispatch(k2, t2, "getpid", ())[0].value == t2.pid
        assert not Kernel(seed=3).syscalls.has("checkpoint")
        mod.unload()
        assert not k1.syscalls.has("checkpoint")
        assert k1.syscalls.has("getpid")
