"""Shared capture and restore machinery.

Every mechanism ultimately does the same physical work -- walk the
target's state, copy the selected memory, push bytes at stable storage,
and on restart rebuild a task from the image -- but *where* that work
runs (target context vs kernel thread vs user handler), *what* it can
see (task struct vs syscall-extracted shadows), and *which* pages it
selects (full, page-dirty, blocks, lines) differ per taxonomy position.

This module provides the building blocks as op generators so mechanisms
compose them inside whatever execution context they own:

* :func:`snapshot_metadata` -- kernel-side task-struct walk (free reads).
* :func:`user_extract_metadata` -- the user-level equivalent: one syscall
  per datum (``sbrk``, ``lseek`` per fd, ``sigpending`` ...), the cost
  asymmetry of experiment E3.
* :func:`select_pages` -- full / incremental page selection with
  per-mechanism VMA-kind filtering (PsncR/C filters nothing -- E17).
* :func:`copy_pages` -- the memcpy loop, preemptible per chunk.
* :func:`store_image` -- synchronous write to a storage backend.
* :func:`restore_image` -- rebuild a task from a (materialized) image,
  enforcing kernel-persistent-state semantics (sockets, SysV shm, PIDs,
  deleted files) according to the restoring mechanism's capabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from ..errors import CheckpointError, IncompatibleStateError, RestartError
from ..simkernel import Kernel, Task, ops
from ..simkernel.memory import PageFlag, Prot, VMAKind
from ..simkernel.process import FileDescriptor, Registers, SchedPolicy
from ..simkernel.signals import Sig
from ..simkernel.vfs import RegularFile, SocketFile
from ..storage.backends import StorageBackend
from .image import CheckpointImage, FDDescriptor, VMADescriptor

__all__ = [
    "snapshot_metadata",
    "user_extract_metadata",
    "select_pages",
    "copy_pages",
    "capture_extents",
    "store_image",
    "load_image",
    "RestoreResult",
    "restore_image",
    "DEFAULT_SKIP_KINDS",
]

#: VMA kinds most mechanisms exclude from images when the pages are clean
#: (code and shared libraries are re-creatable from their files).
DEFAULT_SKIP_KINDS = (VMAKind.CODE, VMAKind.SHLIB)


# ----------------------------------------------------------------------
# Metadata capture
# ----------------------------------------------------------------------
def snapshot_metadata(
    kernel: Kernel, target: Task, image: CheckpointImage
) -> None:
    """Fill image metadata from the task struct (kernel-side, free reads)."""
    ts = kernel.read_task_struct(target)
    image.pid = ts["pid"]
    image.task_name = ts["name"]
    image.node_id = kernel.node_id
    image.step = ts["main_steps"]
    image.registers = ts["registers"]
    image.signals = ts["signals"]
    image.vmas = [
        VMADescriptor(
            name=v["name"],
            nbytes=v["npages"] * kernel.costs.page_size,
            prot=v["prot"],
            kind=v["kind"],
            shared=v["shared"],
            file_path=v["file_path"],
            shm_key=v["shm_key"],
        )
        for v in ts["vmas"]
    ]
    image.fds = []
    for fd in target.fds.values():
        rescued = None
        if fd.file.deleted and isinstance(fd.file, RegularFile):
            # UCLiK-style rescue is *optional*: the mechanism decides
            # later whether to keep this payload (see its flag).
            rescued = bytes(fd.file.content)
        image.fds.append(
            FDDescriptor(
                fd=fd.fd,
                path=fd.file.path,
                kind=fd.file.kind,
                offset=fd.offset,
                flags=fd.flags,
                rescued_content=rescued,
                local_port=getattr(fd.file, "local_port", None),
                remote_addr=getattr(fd.file, "remote_addr", None),
            )
        )
    wl = target.annotations.get("workload")
    image.user_state = {
        "workload": wl,
        "annotations": {
            k: v
            for k, v in target.annotations.items()
            if k
            not in (
                "workload",
                "interpose",
                "dirty_log",
                "tracking_mode",
                "fault_info",
                "stop_time_ns",
                "thread_group",
                "tgid",
            )
        },
        "handlers": dict(target.signals.handlers),
        "blocked": set(target.signals.blocked),
        "policy": target.policy,
        "static_prio": target.static_prio,
    }


def user_extract_metadata(
    kernel: Kernel, task: Task, image: CheckpointImage
) -> Generator:
    """User-level metadata extraction: one syscall per kernel-held datum.

    Runs *inside the target* (signal-handler frame).  Yields the syscalls
    the paper enumerates; the resulting image metadata is equivalent to
    :func:`snapshot_metadata` except for state user space cannot see.
    """
    pid = yield ops.Syscall(name="getpid")
    # Heap boundary via sbrk(0) -- "the sbrk(0) system call is used to
    # extract the heap boundaries".
    yield ops.Syscall(name="sbrk", args=(0,))
    # One lseek per descriptor -- "lseek() is used to extract the
    # positioning offset for files".
    for fd in list(task.fds.values()):
        yield ops.Syscall(name="lseek", args=(fd.fd, 0, "cur"))
    # Pending signals -- "sigispending() is used to extract the signals
    # pending on the process".
    yield ops.Syscall(name="sigpending")
    # The user-level library now assembles the same metadata from what it
    # could observe (it sees its own mm layout through its allocator and
    # any interposition shadows; it cannot see kernel-side socket/shm
    # internals, recorded here only as opaque fd kinds).
    snapshot_metadata(kernel, task, image)
    image.user_state["visibility"] = "user"


# ----------------------------------------------------------------------
# Page selection and copying
# ----------------------------------------------------------------------
def select_pages(
    kernel: Kernel,
    target: Task,
    incremental: bool = False,
    skip_kinds: Sequence[VMAKind] = DEFAULT_SKIP_KINDS,
    data_filtering: bool = True,
) -> List[Tuple[str, int]]:
    """Choose the (vma, page) pairs this checkpoint must save.

    Full checkpoints save every resident page (minus filtered kinds);
    incremental ones save only pages dirtied since tracking was last
    armed.  ``data_filtering=False`` (PsncR/C) saves everything resident
    including code and shared libraries.
    """
    skip = set() if not data_filtering else set(skip_kinds)
    pages: List[Tuple[str, int]] = []
    for vma in target.mm.vmas:
        if vma.kind in skip:
            continue
        idxs = vma.dirty_pages() if incremental else vma.present_pages()
        pages.extend((vma.name, int(p)) for p in idxs)
    return pages


#: Longest extent a single capture step will coalesce.  Bounds the work
#: done between preemption points so a time-sharing capture can still be
#: suspended mid-checkpoint (E10) and a torn capture stays observable (E9).
MAX_EXTENT_PAGES = 64


def _extent_runs(
    pages: Sequence[Tuple[str, int]], cap: int = MAX_EXTENT_PAGES
) -> Generator[Tuple[str, int, int], None, None]:
    """Group an ordered (vma, page) list into (vma, first_page, npages) runs."""
    cur_vma: Optional[str] = None
    start = 0
    n = 0
    for vma_name, pidx in pages:
        if vma_name == cur_vma and pidx == start + n and n < cap:
            n += 1
        else:
            if cur_vma is not None:
                yield cur_vma, start, n
            cur_vma, start, n = vma_name, pidx, 1
    if cur_vma is not None:
        yield cur_vma, start, n


def copy_pages(
    kernel: Kernel,
    target: Task,
    image: CheckpointImage,
    pages: Sequence[Tuple[str, int]],
    user_mode: bool = False,
) -> Generator:
    """Copy the selected pages into the image, one cost op per page.

    Runs :func:`capture_extents` and yields one Compute per page of each
    extent, so the capture stays preemptible at page granularity (E10)
    and ``user_mode`` still pays its per-page write() syscall.
    """
    per_page_ns = kernel.costs.memcpy_ns(kernel.costs.page_size)
    if user_mode:
        per_page_ns += kernel.costs.syscall_ns(0)  # write() per page buffer
    for chunk, _ in capture_extents(kernel, target, image, pages):
        for _ in range(chunk.npages):
            yield ops.Compute(ns=per_page_ns)


def capture_extents(
    kernel: Kernel,
    target: Task,
    image: CheckpointImage,
    pages: Sequence[Tuple[str, int]],
) -> Generator:
    """Copy the selected pages into the image; yield ``(chunk, copy_cost_ns)``.

    Contiguous runs of selected pages within a VMA coalesce into one
    extent chunk (one array slice + one Chunk object instead of one per
    page), capped at :data:`MAX_EXTENT_PAGES`.  The cost is one
    page-memcpy per page, charged per extent.  The pipelined COW drain
    uses this directly: it needs the chunk *object* as soon as its
    memcpy finishes so it can hand the extent to the writeback pipeline
    and copy the next one while the bytes are on the wire.
    """
    page_size = kernel.costs.page_size
    per_page_ns = kernel.costs.memcpy_ns(page_size)
    if pages:
        metrics = kernel.engine.metrics
        metrics.inc("capture.pages", len(pages))
        metrics.inc("capture.bytes", len(pages) * page_size)
    for vma_name, start, npages in _extent_runs(pages):
        vma = target.mm.vma(vma_name)
        if npages == 1:
            chunk = image.add_page(vma_name, start, vma.read_page(start))
        else:
            chunk = image.add_extent(
                vma_name, start, vma.read_pages(start, npages), npages
            )
        yield chunk, per_page_ns * npages


#: Stores are issued in slices of roughly this much virtual time so the
#: writing context can be preempted between write() calls, exactly like a
#: real synchronous write loop (experiment E10 depends on this).
STORE_SLICE_NS = 500_000


def store_image(
    kernel: Kernel,
    storage: StorageBackend,
    image: CheckpointImage,
    dirty_extents=None,
    base_key=None,
) -> Generator:
    """Write the finished image to stable storage (synchronous).

    The total device time is charged in :data:`STORE_SLICE_NS` pieces:
    a time-sharing context doing the writing can lose the CPU between
    slices, while a real-time kernel thread runs them back to back.

    When the caller knows the image's dirty byte extents (an
    incremental tracker's scan, or a re-compacted flat) and the backend
    supports delta updates (``store_delta``), only the dirty bytes are
    re-protected; ``base_key`` names the previous generation's blob
    when the update rebases rather than refreshes in place.
    """
    image.time_ns = kernel.engine.now_ns
    delta_fn = getattr(storage, "store_delta", None)
    if dirty_extents is not None and delta_fn is not None:
        delay = delta_fn(
            image.key,
            image,
            image.size_bytes,
            dirty_extents,
            kernel.engine.now_ns,
            base_key=base_key,
        )
    else:
        delay = storage.store(image.key, image, image.size_bytes, kernel.engine.now_ns)
    metrics = kernel.engine.metrics
    metrics.inc("storage.images_stored")
    metrics.observe("storage.store_ns", delay)
    while delay > 0:
        slice_ns = min(delay, STORE_SLICE_NS)
        delay -= slice_ns
        yield ops.Compute(ns=slice_ns)


def load_image(
    kernel: Kernel, storage: StorageBackend, key: str
) -> Tuple[CheckpointImage, int]:
    """Fetch an image; returns (image, io_delay_ns)."""
    obj, delay = storage.load(key, kernel.engine.now_ns)
    if not isinstance(obj, CheckpointImage):
        raise RestartError(f"blob {key!r} is not a checkpoint image")
    return obj, delay


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
@dataclass
class RestoreResult:
    """Outcome of a restore: the new task and when it becomes runnable."""

    task: Task
    ready_at_ns: int
    io_delay_ns: int
    install_delay_ns: int
    restored_pid: bool


def restore_image(
    kernel: Kernel,
    image: CheckpointImage,
    io_delay_ns: int = 0,
    restore_pid: bool = False,
    virtualize: bool = False,
    rescue_deleted_files: bool = False,
    strict_kernel_state: bool = True,
    name_suffix: str = "",
) -> RestoreResult:
    """Recreate a task from a *materialized* (non-delta) image.

    Enforces the paper's kernel-persistent-state semantics:

    * **Sockets** -- restored only if ``virtualize`` (ZAP pod) or if the
      image is restored on its origin node with the port free; otherwise
      :class:`IncompatibleStateError` when ``strict_kernel_state``.
    * **SysV shm** -- segment must exist (same node) or be re-creatable
      under virtualization.
    * **PID** -- restored only when ``restore_pid`` (UCLiK) and free.
    * **Deleted files** -- recreated from rescued contents only when
      ``rescue_deleted_files`` (UCLiK).

    The task is created STOPPED and scheduled to resume after the restore
    work (I/O already charged via ``io_delay_ns`` plus page installs).
    """
    if image.is_incremental:
        raise RestartError(
            f"image {image.key!r} is a delta; materialize the chain first"
        )
    costs = kernel.costs

    # ---- address space -------------------------------------------------
    mm = kernel.make_address_space(layout=[])
    for vd in image.vmas:
        kind = VMAKind(vd.kind)
        if kind == VMAKind.SHM:
            _restore_shm(kernel, vd, virtualize, strict_kernel_state)
        mm.map(
            vd.name,
            vd.nbytes,
            prot=vd.prot,
            kind=kind,
            shared=vd.shared,
            file_path=vd.file_path,
            shm_key=vd.shm_key,
        )
    install_ns = 0
    for chunk in image.chunks:
        vma = mm.vma(chunk.vma)
        if chunk.npages > 1:
            ps = vma.page_size
            for i in range(chunk.npages):
                vma.install_page(chunk.page_index + i, chunk.data[i * ps : (i + 1) * ps])
            install_ns += costs.memcpy_ns(ps) * chunk.npages
            continue
        if chunk.offset == 0 and chunk.nbytes == vma.page_size:
            vma.install_page(chunk.page_index, chunk.data)
        else:
            arr, _ = vma.ensure_page(chunk.page_index)
            arr[chunk.offset : chunk.offset + chunk.nbytes] = chunk.data
        install_ns += costs.memcpy_ns(chunk.nbytes)

    # ---- program --------------------------------------------------------
    workload = image.user_state.get("workload")
    if workload is None:
        raise RestartError(
            f"image {image.key!r} carries no workload; cannot rebuild program"
        )
    aligned = workload.align_step(image.step)
    factory = workload.program_factory

    wanted_pid = image.pid if restore_pid else None
    restored_pid = False
    if wanted_pid is not None and wanted_pid in kernel.tasks:
        wanted_pid = None  # occupied: fall back to a fresh pid
    task = kernel.spawn_process(
        image.task_name + name_suffix,
        program_factory=factory,
        mm=mm,
        start=False,
        start_step=aligned,
        pid=wanted_pid,
        policy=image.user_state.get("policy", SchedPolicy.OTHER),
        static_prio=image.user_state.get("static_prio", 120),
    )
    restored_pid = task.pid == image.pid

    # ---- registers / signals / annotations ------------------------------
    task.registers = Registers.from_snapshot(image.registers)
    task.signals.handlers = dict(image.user_state.get("handlers", {}))
    task.signals.blocked = set(image.user_state.get("blocked", set()))
    for s in image.signals.get("pending", []):
        task.signals.post(Sig(s))
    task.annotations.update(image.user_state.get("annotations", {}))
    task.annotations["workload"] = workload
    task.annotations["restored_from"] = image.key

    # ---- file descriptors ------------------------------------------------
    for fdd in image.fds:
        _restore_fd(
            kernel,
            task,
            fdd,
            image,
            virtualize=virtualize,
            rescue_deleted_files=rescue_deleted_files,
            strict=strict_kernel_state,
        )

    kernel.engine.metrics.inc("restart.chunks_installed", len(image.chunks))
    ready_at = kernel.engine.now_ns + io_delay_ns + install_ns
    kernel.engine.after(
        io_delay_ns + install_ns, lambda: kernel.resume_task(task), label="restore-resume"
    )
    return RestoreResult(
        task=task,
        ready_at_ns=ready_at,
        io_delay_ns=io_delay_ns,
        install_delay_ns=install_ns,
        restored_pid=restored_pid,
    )


def _restore_shm(
    kernel: Kernel, vd: VMADescriptor, virtualize: bool, strict: bool
) -> None:
    """Ensure the SysV segment behind a shm VMA exists on this kernel."""
    key = vd.shm_key
    if key is not None and key in kernel.shm_segments:
        return
    if virtualize:
        # The pod recreates the segment transparently on the new machine.
        kernel.shm_segments[int(key)] = {
            "size": vd.nbytes,
            "id": 0x5000 + len(kernel.shm_segments),
            "attached": set(),
        }
        return
    if strict:
        raise IncompatibleStateError(
            f"SysV shm segment key={key} does not exist on node "
            f"{kernel.node_id}; mechanism lacks resource virtualization"
        )


def _restore_fd(
    kernel: Kernel,
    task: Task,
    fdd: FDDescriptor,
    image: CheckpointImage,
    virtualize: bool,
    rescue_deleted_files: bool,
    strict: bool,
) -> None:
    """Recreate one descriptor, honouring kernel-persistent-state rules."""
    if fdd.kind == "socket":
        same_node = image.node_id == kernel.node_id
        port_free = fdd.local_port not in kernel.ports_in_use
        if virtualize or (same_node and port_free):
            kernel.ports_in_use.add(fdd.local_port)
            sock = SocketFile(fdd.path, fdd.local_port, fdd.remote_addr or "")
            task.install_fd(FileDescriptor(fd=fdd.fd, file=sock, offset=0))
            sock.refcount += 1
            return
        if strict:
            raise IncompatibleStateError(
                f"socket {fdd.path} (port {fdd.local_port}) cannot be "
                f"recreated on node {kernel.node_id} without virtualization"
            )
        return
    if fdd.kind in ("regular", "device", "proc"):
        if kernel.vfs.exists(fdd.path):
            f = kernel.vfs.lookup(fdd.path)
        elif fdd.rescued_content is not None and rescue_deleted_files:
            f = kernel.vfs.create(fdd.path, fdd.rescued_content)
        elif strict and fdd.kind == "regular":
            raise IncompatibleStateError(
                f"open file {fdd.path!r} missing on node {kernel.node_id} "
                f"and mechanism does not rescue deleted files"
            )
        else:
            return
        task.install_fd(
            FileDescriptor(fd=fdd.fd, file=f, offset=fdd.offset, flags=fdd.flags)
        )
        f.refcount += 1
