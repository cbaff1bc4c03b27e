"""Kernel-thread checkpointers: CRAK, ZAP, UCLiK, BLCR, LAM/MPI, PsncR/C.

These mechanisms run the checkpoint in a separate kernel thread reached
through a device file (CRAK/BLCR: ``/dev`` + ``ioctl``) or a /proc entry
(PsncR/C).  The thread can run at real-time priority (it is not tied to
the target's time-sharing priority), but it must stop the target for
consistency and may pay an address-space switch + TLB flush to reach the
target's memory (Section 4.1; experiments E7/E8/E10).
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ...core.capture import restore_image
from ...core.checkpointer import CheckpointRequest, RequestState
from ...core.features import Features, Initiation
from ...core.registry import register
from ...core.taxonomy import Agent, Context, TaxonomyPosition
from ...errors import CheckpointError, RestartError
from ...simkernel import Kernel, Task
from ...simkernel.memory import VMAKind
from ...simkernel.modules import KernelModule
from ...simkernel.process import Registers
from ...simkernel.syscalls import SyscallTable
from ...simkernel.vfs import DeviceNode, ProcEntry
from ...storage.backends import StorageKind
from .base import SystemLevelCheckpointer

__all__ = ["CRAK", "ZAP", "UCLiK", "BLCR", "LamMpi", "PsncRC"]


class _DeviceModule(KernelModule):
    """Generic module exposing a checkpointer through a /dev ioctl node."""

    def __init__(self, owner: "CRAK", dev_path: str, name: str) -> None:
        super().__init__()
        self.owner = owner
        self.dev_path = dev_path
        self.name = name

    def on_load(self) -> None:
        self.add_device(DeviceNode(self.dev_path, on_ioctl=self.owner._ioctl))


@register
class CRAK(SystemLevelCheckpointer):
    """CRAK: checkpoint/restart as a kernel module, via /dev ioctl.

    "CRAK is a kernel module, hence provides more portability.  To
    communicate with the kernel thread CRAK creates a new device in /dev
    and the ioctl device-file interface is used.  The pid of the
    application to be checkpointed is passed as parameter."
    """

    mech_name = "CRAK"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_KERNEL_THREAD,
        specifics=("kernel module", "/dev ioctl by pid", "stop target", "migration"),
    )
    features = Features(
        incremental=False,
        transparent=True,
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.USER,
        kernel_module=True,
        migration=True,
    )
    description = "Linux Checkpoint/Restart as a Kernel Module (Columbia)"

    dev_path = "/dev/crak"
    module_name = "crak"

    def install(self) -> None:
        self._module = _DeviceModule(self, self.dev_path, self.module_name).load(
            self.kernel
        )

    def uninstall(self) -> None:
        self._module.unload()
        self.installed = False

    def _ioctl(self, requester: Optional[Task], cmd: str, arg) -> object:
        """Device control: ``checkpoint`` with the target pid."""
        if cmd == "checkpoint":
            pid = arg["pid"] if isinstance(arg, dict) else int(arg)
            incremental = bool(arg.get("incremental", False)) if isinstance(arg, dict) else False
            target = self.kernel.task_by_pid(pid)
            req = self._new_request(target, incremental)
            self.kthread_capture(target, req)
            return req
        raise CheckpointError(f"{self.mech_name}: unknown ioctl {cmd!r}")

    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        """User initiation path: ioctl on the device node (performed here
        directly -- the administrator's utility is out of frame)."""
        return self._ioctl(None, "checkpoint", {"pid": task.pid, "incremental": incremental})

    def migrate(self, task: Task, dest_kernel: Kernel) -> CheckpointRequest:
        """Checkpoint, restore on ``dest_kernel``, kill the original."""
        req = self.request_checkpoint(task)
        kernel = self.kernel

        def on_done(req: CheckpointRequest) -> None:
            if req.state != RequestState.DONE:
                return  # nothing to move: the source keeps running
            self.restart(req.key, target_kernel=dest_kernel)
            if task.alive():
                kernel.stop_task(task)
                kernel._exit_task(task, code=0)

        req.add_done_callback(on_done)
        return req


@register
class ZAP(CRAK):
    """ZAP: CRAK plus pod virtualization of kernel-persistent state.

    "ZAP improves on CRAK by providing a virtualization mechanism called
    Pod to cope with the resource consistency, resource conflicts, and
    resource dependencies that arise when migrating processes between
    machines ...  However, that virtualization introduces some run-time
    overhead because system calls must be intercepted."
    """

    mech_name = "ZAP"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_KERNEL_THREAD,
        specifics=("kernel module", "pod virtualization", "syscall interception"),
    )
    features = Features(
        incremental=False,
        transparent=True,
        stable_storage=(StorageKind.NONE,),
        initiation=Initiation.USER,
        kernel_module=True,
        migration=True,
        virtualization=True,
    )
    description = "Zap: migrating computing environments (Columbia)"

    dev_path = "/dev/zap"
    module_name = "zap"
    virtualizes_resources = True

    #: Per-intercepted-syscall pod translation overhead.
    POD_OVERHEAD_NS = 600
    _POD_CALLS = [
        "getpid",
        "kill",
        "socket_connect",
        "shmget",
        "shmat",
        "open",
        "fork",
    ]
    _pod_ids = itertools.count(1)

    def prepare_target(self, task: Task) -> None:
        """Place the process in a pod: virtual ids + syscall interception."""
        pod = {
            "pod_id": next(self._pod_ids),
            "virtual_pid": 1,
            "origin_node": self.kernel.node_id,
        }
        task.annotations["pod"] = pod

        def pod_hook(kernel, t, name, args) -> int:
            return self.POD_OVERHEAD_NS

        SyscallTable.interpose(task, self._POD_CALLS, pod_hook)


@register
class UCLiK(CRAK):
    """UCLiK: CRAK lineage with PID restore and deleted-file rescue.

    "[UCLiK] inherits much of the framework of CRAK, but additionally
    introduces some improvements like restoring the original process ID
    and file contents, and identifies deleted files during restart.
    Process states are saved only locally."
    """

    mech_name = "UCLik"  # Table 1 spells it this way
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_KERNEL_THREAD,
        specifics=("kernel module", "PID restore", "deleted-file rescue", "local only"),
    )
    features = Features(
        incremental=False,
        transparent=True,
        stable_storage=(StorageKind.LOCAL,),
        initiation=Initiation.USER,
        kernel_module=True,
    )
    description = "Pursuing the AP's to Checkpointing with UCLiK"

    dev_path = "/dev/uclik"
    module_name = "uclik"
    restores_pid = True
    rescues_deleted_files = True


@register
class BLCR(CRAK):
    """BLCR: Berkeley Lab's Linux Checkpoint/Restart.

    Kernel module + kernel threads + /dev ioctl, "unlike prior schemes,
    also checkpoints multithreaded processes.  But BLCR needs a[n]
    initialization phase to register a signal handler ... and also
    requires to load a shared library, hence it is not totally
    transparent."
    """

    mech_name = "BLCR"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_KERNEL_THREAD,
        specifics=("kernel module", "/dev ioctl", "libcr registration", "multithreaded"),
    )
    features = Features(
        incremental=False,
        transparent=False,  # registration phase + shared library
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.USER,
        kernel_module=True,
        multithreaded=True,
        requires_registration=True,
    )
    description = "Berkeley Lab Checkpoint/Restart"

    dev_path = "/dev/blcr"
    module_name = "blcr"

    #: One-time registration cost the target pays (library load + handler
    #: registration + opening the control device) -- experiment E16.
    REGISTRATION_NS = 350_000

    def prepare_target(self, task: Task) -> None:
        """libcr initialization inside the target process."""
        if task.annotations.get("blcr_registered"):
            return
        if not task.mm.has_vma("libcr.so"):
            task.mm.map("libcr.so", 128 * 1024, kind=VMAKind.SHLIB)
        task.annotations["blcr_registered"] = True
        task.annotations["blcr_registration_ns"] = self.REGISTRATION_NS

    def _require_registered(self, task: Task) -> None:
        if not task.annotations.get("blcr_registered"):
            raise CheckpointError(
                f"pid {task.pid}: BLCR requires the libcr registration phase"
            )

    def _ioctl(self, requester: Optional[Task], cmd: str, arg) -> object:
        if cmd == "checkpoint":
            pid = arg["pid"] if isinstance(arg, dict) else int(arg)
            target = self.kernel.task_by_pid(pid)
            self._require_registered(target)
            group = target.annotations.get("thread_group")
            if group and len(group) > 1:
                # Multithreaded: stop every thread, one shared image.
                kernel = self.kernel
                threads = [kernel.task_by_pid(p) for p in group if p in kernel.tasks]
                req = self._new_request(target)
                self.kthread_capture(target, req, threads=threads)
                return req
        return super()._ioctl(requester, cmd, arg)

    def restart_group(self, key: str, target_kernel: Optional[Kernel] = None):
        """Restore a multithreaded image: all threads share one mm."""
        kernel = target_kernel or self.kernel
        chain, io_delay = self.image_chain(key, kernel)
        image = chain[-1]
        threads_meta = image.user_state.get("threads")
        if not threads_meta:
            raise RestartError(f"{key!r} is not a thread-group image")
        workload = image.user_state.get("workload")
        results = []
        shared_mm = None
        for meta in threads_meta:
            factory = workload.thread_factory(meta["thread_index"])
            aligned = workload.align_step(meta["step"])
            if shared_mm is None:
                res = restore_image(
                    kernel, image, io_delay_ns=io_delay, name_suffix=":r",
                    strict_kernel_state=False,
                )
                # restore_image built the mm and one task from the group
                # leader's metadata; retarget that task to this thread.
                res.task.program_factory = factory
                res.task.rebuild_program(aligned)
                res.task.registers = Registers.from_snapshot(meta["registers"])
                shared_mm = res.task.mm
                results.append(res)
            else:
                t = kernel.spawn_process(
                    meta["name"] + ":r",
                    program_factory=factory,
                    mm=shared_mm,
                    start=False,
                    start_step=aligned,
                )
                t.registers = Registers.from_snapshot(meta["registers"])
                t.annotations["workload"] = workload
                t.annotations["thread_index"] = meta["thread_index"]
                kernel.engine.after(
                    results[0].io_delay_ns + results[0].install_delay_ns,
                    lambda tt=t: kernel.resume_task(tt),
                )
                results.append(t)
        pids = [r.task.pid if hasattr(r, "task") else r.pid for r in results]
        for r in results:
            t = r.task if hasattr(r, "task") else r
            t.annotations["thread_group"] = pids
            t.annotations["tgid"] = pids[0]
        return results


@register
class LamMpi(BLCR):
    """LAM/MPI: coordinated parallel checkpointing over BLCR.

    "A further development of this tool, LAM/MPI, allows checkpointing
    of MPI parallel applications.  But, although it is completely
    transparent to the application, is not transparent to the MPI
    library because some MPI functions must be modified."
    """

    mech_name = "LAM/MPI"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_KERNEL_THREAD,
        specifics=("kernel module", "BLCR per rank", "coordinated drain", "modified MPI lib"),
    )
    features = Features(
        incremental=False,
        transparent=False,  # the MPI library is modified
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.USER,
        kernel_module=True,
        multithreaded=True,
        parallel_mpi=True,
        requires_registration=True,
    )
    description = "LAM/MPI checkpoint/restart framework (system-initiated)"

    dev_path = "/dev/lam-blcr"
    module_name = "lam_blcr"

    #: Per-rank message-drain cost at the coordination barrier.
    DRAIN_NS_PER_RANK = 250_000

    def checkpoint_job(self, ranks: List[Task]) -> List[CheckpointRequest]:
        """Coordinated checkpoint of all ranks of a parallel job.

        Runs the LAM coordination protocol: quiesce the network (drain
        in-flight messages; cost grows with job size), then checkpoint
        every rank via the BLCR machinery.
        """
        if not ranks:
            raise CheckpointError("empty rank list")
        for r in ranks:
            self._require_registered(r)
        drain_ns = self.DRAIN_NS_PER_RANK * len(ranks)
        reqs: List[CheckpointRequest] = []
        for r in ranks:
            req = self._new_request(r)
            reqs.append(req)

        def start_captures() -> None:
            for r, req in zip(ranks, reqs):
                if r.alive():
                    self.kthread_capture(r, req)
                else:
                    self._fail(req, f"rank pid {r.pid} dead at checkpoint")

        # The drain happens first; captures start when it completes.
        self.kernel.engine.after(drain_ns, start_captures, label="lam-drain")
        return reqs


@register
class PsncRC(SystemLevelCheckpointer):
    """PsncR/C: kernel thread via /proc + ioctl, *no data filtering*.

    "It is a kernel thread implemented as a kernel module which saves
    process state to local disk ... Unlike other packages it does not
    perform any data optimization to reduce the checkpoint data size, so
    all of the code, shared libraries, and open files are always
    included in the checkpoints."  (Experiment E17.)
    """

    mech_name = "PsncR/C"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_KERNEL_THREAD,
        specifics=("kernel module", "/proc + ioctl", "no data filtering", "SUN platforms"),
    )
    features = Features(
        incremental=False,
        transparent=True,
        stable_storage=(StorageKind.LOCAL,),
        initiation=Initiation.USER,
        kernel_module=True,
        data_filtering=False,
    )
    description = "PSNC user and kernel level checkpointing"

    skip_kinds = ()  # saves code + shared libraries too

    class _Module(KernelModule):
        name = "psncrc"

        def __init__(self, owner: "PsncRC") -> None:
            super().__init__()
            self.owner = owner

        def on_load(self) -> None:
            self.add_proc_entry(
                ProcEntry("/proc/psncrc", on_read=lambda: b"psnc checkpoint\n")
            )
            self.add_device(
                DeviceNode("/dev/psncrc", on_ioctl=self.owner._ioctl)
            )

    def install(self) -> None:
        self._module = PsncRC._Module(self).load(self.kernel)

    def uninstall(self) -> None:
        self._module.unload()
        self.installed = False

    def _ioctl(self, requester: Optional[Task], cmd: str, arg) -> object:
        if cmd != "checkpoint":
            raise CheckpointError(f"PsncR/C: unknown ioctl {cmd!r}")
        pid = arg["pid"] if isinstance(arg, dict) else int(arg)
        target = self.kernel.task_by_pid(pid)
        req = self._new_request(target)
        self.kthread_capture(target, req)
        return req

    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        if incremental:
            raise CheckpointError("PsncR/C does not support incremental mode")
        return self._ioctl(None, "checkpoint", task.pid)
