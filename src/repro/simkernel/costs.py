"""Cost model for the simulated operating-system kernel.

Every quantitative claim in the paper ultimately reduces to the relative
magnitudes of a small set of hardware/OS primitives: the price of crossing
the user/kernel boundary, of switching address spaces (and refilling the
TLB), of taking a page fault, of delivering a signal, and of moving bytes
through the memory system and out to stable storage.  This module makes all
of them explicit, immutable parameters.

Defaults are calibrated to the 2004-2005 era the paper describes (the
hardware studied in its companion feasibility paper [31]): roughly 1 GHz-to-
3 GHz x86 nodes, 4 KiB pages, ~1 us syscall round trips, context switches
dominated by cache effects, ~1.5 GB/s memory copy bandwidth.  Absolute
values are illustrative -- experiments in this repository compare *shapes
and orderings*, which are insensitive to modest recalibration.  Pass a
customized :class:`CostModel` to :class:`repro.simkernel.kernel.Kernel` to
explore other regimes.

All times are integer nanoseconds; all sizes are bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["CostModel", "NS_PER_US", "NS_PER_MS", "NS_PER_S"]

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class CostModel:
    """Immutable collection of primitive costs used by the simulator.

    Attributes are grouped by the subsystem that charges them.  See the
    module docstring for calibration notes.
    """

    # --- CPU / privilege boundary -------------------------------------
    #: One user->kernel or kernel->user privilege transition (half a
    #: syscall round trip): trap entry, register spill, mode change.
    mode_switch_ns: int = 350
    #: Fixed in-kernel dispatch work for a system call, *excluding* the two
    #: mode switches and excluding call-specific work.
    syscall_dispatch_ns: int = 300
    #: Full process context switch: scheduler bookkeeping, register state,
    #: and the indirect cache-pollution cost folded in, as the paper notes
    #: "most CPU's registers must be saved/restored".
    context_switch_ns: int = 5_000
    #: Switching to a different address space (load page-table base).  The
    #: TLB consequences are charged separately via ``tlb_flush_ns`` and
    #: ``tlb_refill_per_entry_ns``.
    address_space_switch_ns: int = 1_200
    #: Flushing the TLB (full invalidation on address-space switch).
    tlb_flush_ns: int = 800
    #: Refilling one TLB entry on first touch after a flush (page-table
    #: walk).  Charged lazily to the task whose working set went cold.
    tlb_refill_per_entry_ns: int = 120
    #: Number of TLB entries modelled (how many refills a full flush
    #: ultimately costs a task with a large working set).
    tlb_entries: int = 64

    # --- Faults, signals, interrupts ----------------------------------
    #: Kernel-side handling of a page fault (exception entry, vma lookup,
    #: PTE update), excluding any page copy and excluding user-level signal
    #: delivery if the fault is reflected to user space.
    page_fault_ns: int = 1_500
    #: Delivering a signal to a *user-level* handler: frame setup on the
    #: user stack plus the eventual ``sigreturn`` -- two extra boundary
    #: crossings beyond the fault/trap itself.
    signal_deliver_user_ns: int = 2_500
    #: Running a *kernel-mode* default action for a signal: no user frame,
    #: no sigreturn; just dispatch inside the kernel.
    signal_deliver_kernel_ns: int = 400
    #: Overhead of fielding one timer/device interrupt (entry + exit),
    #: charged to whatever was running.
    interrupt_overhead_ns: int = 900
    #: Cost of posting a signal (kill(): locate task, queue, wake).
    signal_post_ns: int = 600

    # --- Memory system -------------------------------------------------
    #: Page size.  The paper's incremental checkpointing tracks writes at
    #: this granularity when driven by page protection.
    page_size: int = 4096
    #: Cache-line size -- the granularity at which the hardware proposals
    #: (Revive, SafetyNet) track modifications.
    cache_line_size: int = 64
    #: Memory copy bandwidth in bytes per nanosecond (1.5 => 1.5 GB/s).
    memcpy_bytes_per_ns: float = 1.5
    #: Hashing throughput for probabilistic checkpointing's block digests.
    hash_bytes_per_ns: float = 0.8
    #: Fixed cost to allocate/zero a fresh page (minor fault service).
    page_alloc_ns: int = 900

    # --- Scheduling ----------------------------------------------------
    #: Scheduler tick period (timer interrupt driving time sharing).
    tick_ns: int = 1 * NS_PER_MS
    #: Default time-sharing quantum granted to a task at full priority.
    quantum_ns: int = 50 * NS_PER_MS
    #: Cost of a fork(): duplicating task structures and page tables with
    #: copy-on-write (per-page COW costs are charged later, on write).
    fork_fixed_ns: int = 60_000
    #: Per-VMA-page cost of marking page-table entries COW during fork.
    fork_per_page_ns: int = 35

    # --- Derived helpers -------------------------------------------------
    def memcpy_ns(self, nbytes: int) -> int:
        """Time to copy ``nbytes`` through the memory system."""
        return int(nbytes / self.memcpy_bytes_per_ns)

    def hash_ns(self, nbytes: int) -> int:
        """Time to digest ``nbytes`` (probabilistic checkpoint hashing)."""
        return int(nbytes / self.hash_bytes_per_ns)

    def syscall_ns(self, work_ns: int = 0) -> int:
        """Full cost of one syscall round trip plus ``work_ns`` of work."""
        return 2 * self.mode_switch_ns + self.syscall_dispatch_ns + work_ns

    def replace(self, **kwargs: object) -> "CostModel":
        """Return a copy of this model with selected fields overridden."""
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]

    def pages_for(self, nbytes: int) -> int:
        """Number of pages spanned by ``nbytes`` (ceiling division)."""
        return -(-nbytes // self.page_size)


DEFAULT_COSTS = CostModel()
