"""Incremental checkpointing engines at three granularities.

The paper discusses three ways to find "the delta -- the subset of the
application's memory that changed since the last checkpoint":

* **Page protection** (Section 3/4): write-protect everything at the
  start of the interval; a write faults; the fault handler records the
  page.  At *user level* the kernel reflects the fault as SIGSEGV to a
  handler that records the page in its shadow bitmap and ``mprotect``\\ s
  it writable again (:func:`arm_user_tracking`); at *system level* the
  kernel's own fault handler records and unprotects directly
  (:func:`arm_system_tracking`) -- same information, very different cost.

* **Probabilistic block hashing** (Nam et al. [23],
  :class:`BlockHashTracker`): no protection faults at all; at checkpoint
  time every candidate block is hashed and compared against the previous
  interval's digest.  Finer than a page, costs hash bandwidth, and is
  *probabilistic*: a hash collision silently drops a changed block.

* **Adaptive multi-size blocks** (Agarwal et al. [1],
  :class:`AdaptiveBlockTracker`): chooses per-page between whole-page
  saving and block hashing based on the page's observed write density,
  "an attractive compromise between performance and efficiency".
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence, Set, Tuple

import numpy as np

from ..errors import CheckpointError
from ..simkernel import Kernel, Task, ops
from ..simkernel.memory import Prot
from ..simkernel.signals import HandlerKind, Sig, SignalHandler
from ..core.digest import block_digests
from ..core.image import CheckpointImage, _covered_runs

__all__ = [
    "DirtyLog",
    "arm_system_tracking",
    "arm_user_tracking",
    "user_arm_ops",
    "BlockHashTracker",
    "AdaptiveBlockTracker",
]


class DirtyLog:
    """System-level dirty-page log filled by the kernel's fault handler."""

    def __init__(self) -> None:
        self.pages: Set[Tuple[str, int]] = set()

    def record(self, vma_name: str, page_index: int) -> None:
        """Called from the (simulated) fault handler."""
        self.pages.add((vma_name, page_index))

    def drain(self) -> Set[Tuple[str, int]]:
        """Return and clear the accumulated dirty set."""
        out = self.pages
        self.pages = set()
        return out


def arm_system_tracking(kernel: Kernel, task: Task) -> int:
    """Arm kernel-side incremental tracking on ``task``.

    Write-protects all present writable pages and attaches a
    :class:`DirtyLog`; subsequent first-writes cost one in-kernel fault
    each (no signal, no user frame).  Returns pages armed.
    """
    log = task.annotations.get("dirty_log")
    if not isinstance(log, DirtyLog):
        log = DirtyLog()
        task.annotations["dirty_log"] = log
    task.annotations.pop("tracking_mode", None)  # kernel handles faults
    return task.mm.protect_for_tracking()


def arm_user_tracking(kernel: Kernel, task: Task) -> None:
    """Install the user-level SIGSEGV tracking handler on ``task``.

    The handler is the classic libckpt loop: read the fault address,
    record the page in the user-space shadow set, ``mprotect`` the page
    writable, return (the kernel then retries the faulting write).
    """
    task.annotations["tracking_mode"] = "user"
    shadow: Set[Tuple[str, int]] = task.annotations.setdefault("shadow_dirty", set())

    def handler_factory(t: Task) -> Generator:
        def handler():
            info = t.annotations.get("fault_info")
            if info is None:  # spurious SIGSEGV: a real library would die
                raise CheckpointError("SIGSEGV without fault info")
            shadow_set = t.annotations["shadow_dirty"]
            shadow_set.add((info["vma"], info["page"]))
            # Bookkeeping inside the handler (shadow bitmap update).
            yield ops.Compute(ns=300)
            # Unprotect the page so the write can proceed.
            yield ops.Syscall(
                name="mprotect", args=(info["vma"], "unprotect", info["page"])
            )

        return handler()

    task.signals.register(
        Sig.SIGSEGV,
        SignalHandler(
            kind=HandlerKind.USER,
            program_factory=handler_factory,
            label="ckpt-track-sigsegv",
        ),
    )


def user_arm_ops(task: Task) -> Generator:
    """Ops a user-level checkpointer runs to (re-)arm tracking.

    One ``mprotect`` sweep per writable VMA -- syscall cost each, paid in
    user mode at every checkpoint interval.
    """
    for vma in list(task.mm.vmas):
        if vma.prot & Prot.WRITE:
            yield ops.Syscall(name="mprotect", args=(vma.name, "arm"))
    task.annotations.setdefault("shadow_dirty", set()).clear()


class BlockHashTracker:
    """Probabilistic checkpointing: block-level change detection by hash.

    Parameters
    ----------
    block_size:
        Detection granularity in bytes; must divide the page size.
    collision_bits:
        Digest width: the chance an actually-changed block is missed is
        ``2**-collision_bits`` per changed block.
    simulate_collisions:
        When true, the detector truly uses only ``collision_bits`` of the
        digest, so hash collisions *actually* drop changed blocks -- the
        probabilistic failure mode of the scheme, observable in restored
        state.  Off by default (full-width digests; the bound is then
        only reported analytically).
    """

    def __init__(
        self,
        block_size: int = 512,
        collision_bits: int = 32,
        simulate_collisions: bool = False,
    ) -> None:
        if not 1 <= collision_bits <= 32:
            raise CheckpointError("collision_bits must be in [1, 32]")
        self.block_size = block_size
        self.collision_bits = collision_bits
        self.simulate_collisions = simulate_collisions
        #: (vma, page) -> uint64 digest-per-block array from the previous
        #: interval.  Bounded by pages ever scanned, not blocks, and one
        #: dict probe per *page* instead of one per block.
        self._digests: Dict[Tuple[str, int], np.ndarray] = {}
        #: Changed blocks silently dropped by digest collisions (only
        #: counted when ``simulate_collisions``; needs ground truth).
        self.misses = 0
        #: (vma, page) -> blocks saved in the most recent scan (density
        #: evidence for :class:`AdaptiveBlockTracker`).
        self.last_scan_saved: Dict[Tuple[str, int], int] = {}

    def scan_ops(
        self,
        kernel: Kernel,
        target: Task,
        image: CheckpointImage,
        pages: Sequence[Tuple[str, int]],
    ) -> Generator:
        """Hash candidate pages; append changed blocks to ``image``.

        Charges hash bandwidth for every byte scanned (the scheme's
        cost), and memcpy for every block actually saved.  All candidate
        pages are digested in one vectorized NumPy pass when the
        generator starts (the capturing context holds the target still,
        so the batch sees the same bytes a per-page walk would);
        adjacent changed blocks coalesce into one chunk per run.
        """
        bs = self.block_size
        page_size = kernel.costs.page_size
        if page_size % bs:
            raise CheckpointError(f"block size {bs} does not divide page size")
        per_page = page_size // bs
        #: Per-block bookkeeping (digest-table lookup/update) -- the part
        #: of the scan cost that *grows* as blocks shrink.
        PER_BLOCK_NS = 60
        self.last_scan_saved = {}
        if not pages:
            return
        # ---- bulk phase: one digest pass over every candidate page ----
        data = np.empty((len(pages), page_size), dtype=np.uint8)
        for i, (vma_name, pidx) in enumerate(pages):
            arr = target.mm.vma(vma_name).pages.get(pidx)
            if arr is None:
                data[i] = 0
            else:
                data[i] = arr
        digests = block_digests(data, bs).reshape(len(pages), per_page)
        shift = np.uint64(64 - self.collision_bits)
        # ---- per-page phase: compare, save runs, charge costs ----
        for i, (vma_name, pidx) in enumerate(pages):
            yield ops.Compute(
                ns=kernel.costs.hash_ns(page_size) + PER_BLOCK_NS * per_page
            )
            cur = digests[i]
            key = (vma_name, pidx)
            prev = self._digests.get(key)
            if prev is None:
                changed = np.ones(per_page, dtype=bool)
            elif self.simulate_collisions:
                # The detector truly compares only ``collision_bits`` of
                # the digest; blocks whose truncated digests collide are
                # silently skipped even though the content changed.
                changed = (prev >> shift) != (cur >> shift)
                self.misses += int(np.count_nonzero(~changed & (prev != cur)))
            else:
                changed = prev != cur
            self._digests[key] = cur
            nchanged = int(np.count_nonzero(changed))
            self.last_scan_saved[key] = nchanged
            if not nchanged:
                continue
            for first, nblocks in _covered_runs(changed):
                image.add_block(
                    vma_name, pidx, first * bs, data[i, first * bs : (first + nblocks) * bs]
                )
            yield ops.Compute(ns=kernel.costs.memcpy_ns(bs) * nchanged)


class AdaptiveBlockTracker:
    """Agarwal-style adaptive granularity: per-page block-size choice.

    Pages whose changed fraction exceeded ``dense_threshold`` in the
    previous interval are saved whole (skipping hash work); sparse pages
    are block-hashed at ``block_size``.  The history decays so pages can
    migrate between regimes.
    """

    #: Weight an interval keeps of a page's previous density estimate.
    DECAY = 0.5

    def __init__(self, block_size: int = 512, dense_threshold: float = 0.5) -> None:
        if not 0.0 < dense_threshold <= 1.0:
            raise CheckpointError("dense_threshold must be in (0, 1]")
        self.block_size = block_size
        self.dense_threshold = dense_threshold
        self._hash = BlockHashTracker(block_size=block_size)
        #: (vma, page) -> smoothed changed-fraction estimate.
        self._density: Dict[Tuple[str, int], float] = {}
        #: Pages already scanned once: a cold scan (no digests yet) saves
        #: every block but says nothing about write density, so it is
        #: excluded from the history.
        self._seen: set = set()

    def scan_ops(
        self,
        kernel: Kernel,
        target: Task,
        image: CheckpointImage,
        pages: Sequence[Tuple[str, int]],
    ) -> Generator:
        """Save dense pages whole; block-hash sparse pages.

        Dense pages are saved as they are visited; all sparse pages are
        handed to the block scanner in a single batch so the whole
        sparse set gets one vectorized digest pass (the seed version
        spun up a scratch :class:`CheckpointImage` per sparse page).
        """
        page_size = kernel.costs.page_size
        per_page = page_size // self.block_size
        sparse: List[Tuple[str, int]] = []
        for vma_name, pidx in pages:
            key = (vma_name, pidx)
            density = self._density.get(key, 0.0)
            if density >= self.dense_threshold:
                vma = target.mm.vma(vma_name)
                image.take_pages(vma_name, pidx, (vma.read_page(pidx),))
                # Whole page assumed changed; refresh digests lazily by
                # dropping them (they will be rebuilt on the next scan).
                self._hash._digests.pop(key, None)
                yield ops.Compute(ns=kernel.costs.memcpy_ns(page_size))
                self._density[key] = density * self.DECAY + (1 - self.DECAY)
            else:
                sparse.append(key)
        if not sparse:
            return
        yield from self._hash.scan_ops(kernel, target, image, sparse)
        for key in sparse:
            frac = self._hash.last_scan_saved.get(key, 0) / per_page
            if key in self._seen:
                density = self._density.get(key, 0.0)
                self._density[key] = density * self.DECAY + frac * (1 - self.DECAY)
            else:
                self._seen.add(key)
