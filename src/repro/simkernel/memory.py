"""Simulated virtual memory: VMAs, page tables, protection, COW.

This module supplies the substrate on which every checkpointing granularity
in the paper operates:

* **Page-protection dirty tracking** -- both the user-level flavour
  (``mprotect`` + SIGSEGV, Section 3 of the paper) and the system-level
  flavour (the fault handler records the dirty page directly, Section 4)
  are driven by the ``TRACK_WP`` software bit implemented here.
* **Copy-on-write fork** -- the consistency mechanism used by the
  "Checkpoint" proposal [5] and by libckpt's forked checkpoints.
* **Cache-line granularity tracking** -- the hardware proposals (Revive,
  SafetyNet) observe writes at line granularity; the write path reports
  the touched line range so :mod:`repro.mechanisms.hardware` can log it.

Page *contents* are real bytes (NumPy ``uint8`` arrays, allocated lazily
per page) so that checkpoint/restart can be verified byte-exactly, not
just accounted for.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import MemoryError_
from .costs import CostModel

__all__ = [
    "Prot",
    "VMAKind",
    "PageFlag",
    "VMA",
    "AddressSpace",
    "WriteOutcome",
    "page_checksum",
]


class Prot:
    """VMA protection bits (a la ``PROT_READ``/``PROT_WRITE``/``PROT_EXEC``)."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4
    RW = READ | WRITE
    RX = READ | EXEC


class VMAKind(str, Enum):
    """What a VMA holds; drives per-mechanism image filtering (E17)."""

    CODE = "code"
    DATA = "data"
    HEAP = "heap"
    STACK = "stack"
    ANON = "anon"
    SHLIB = "shlib"
    FILE = "file"
    SHM = "shm"


class PageFlag:
    """Bit positions in the per-page flag word (uint8 per page)."""

    PRESENT = 1 << 0
    DIRTY = 1 << 1
    ACCESSED = 1 << 2
    COW = 1 << 3
    #: Software write-protect used for incremental dirty tracking.
    TRACK_WP = 1 << 4
    #: Explicitly unprotected by the user-level fault handler: exempt
    #: from armed-VMA first-touch faults until tracking is re-armed.
    UNPROT = 1 << 5


def page_checksum(data: np.ndarray) -> int:
    """Deterministic checksum of one page's bytes (adler32; cheap, stable)."""
    return zlib.adler32(data.tobytes()) & 0xFFFFFFFF


@dataclass
class WriteOutcome:
    """What servicing one page's worth of a write access entailed.

    The kernel uses this to charge costs and to drive fault plumbing
    (signal delivery for user-level tracking, dirty logging for
    system-level tracking, line logging for hardware tracking).
    """

    vma: "VMA"
    page_index: int
    allocated: bool = False
    cow_copied: bool = False
    tracking_fault: bool = False
    lines_touched: int = 0


class VMA:
    """A virtual memory area: contiguous pages with common attributes.

    Parameters
    ----------
    name:
        Human-readable identifier, unique within the address space
        (``"heap"``, ``"stack"``, ``"libm.so"`` ...).
    start:
        Base virtual address (page aligned).
    npages:
        Length in pages.
    prot:
        :class:`Prot` bits.
    kind:
        :class:`VMAKind`; checkpointers filter on it (e.g. PsncR/C always
        saves code and shared libraries, most others skip clean file pages).
    page_size:
        Bytes per page.
    shared:
        True for MAP_SHARED/SysV-shm areas: fork does *not* COW them and
        their identity is kernel-persistent state (ZAP's pod virtualizes
        it; plain mechanisms fail to restore it cross-machine).
    file_path:
        Backing file path for file mappings (restored images re-open it).
    """

    def __init__(
        self,
        name: str,
        start: int,
        npages: int,
        prot: int,
        kind: VMAKind,
        page_size: int,
        shared: bool = False,
        file_path: Optional[str] = None,
        shm_key: Optional[int] = None,
    ) -> None:
        if npages <= 0:
            raise MemoryError_(f"VMA {name!r} must have at least one page")
        if start % page_size:
            raise MemoryError_(f"VMA {name!r} start {start:#x} not page aligned")
        self.name = name
        self.start = start
        self.npages = npages
        self.prot = prot
        self.kind = kind
        self.page_size = page_size
        self.shared = shared
        self.file_path = file_path
        self.shm_key = shm_key
        #: Sparse page contents: page index -> uint8 array.  Arrays may be
        #: shared with a forked sibling until a COW fault copies them.
        self.pages: Dict[int, np.ndarray] = {}
        #: Per-page flag word.
        self.flags: np.ndarray = np.zeros(npages, dtype=np.uint8)
        #: Dirty tracking armed on the whole VMA: ``mprotect`` covers the
        #: full mapped range, so first-touch of a *new* page is also a
        #: tracking fault, not just writes to TRACK_WP'd present pages.
        self.tracking_armed = False

    # ------------------------------------------------------------------
    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.start + self.npages * self.page_size

    @property
    def size_bytes(self) -> int:
        """Mapped length in bytes."""
        return self.npages * self.page_size

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside this VMA."""
        return self.start <= addr < self.end

    # -- flag helpers ---------------------------------------------------
    def test(self, pidx: int, flag: int) -> bool:
        """Test a :class:`PageFlag` bit on page ``pidx``."""
        return bool(self.flags[pidx] & flag)

    def set_flag(self, pidx: int, flag: int) -> None:
        """Set a :class:`PageFlag` bit on page ``pidx``."""
        self.flags[pidx] |= flag

    def clear_flag(self, pidx: int, flag: int) -> None:
        """Clear a :class:`PageFlag` bit on page ``pidx``."""
        self.flags[pidx] &= ~np.uint8(flag)

    def present_pages(self) -> np.ndarray:
        """Indices of pages with backing storage allocated."""
        return np.nonzero(self.flags & PageFlag.PRESENT)[0]

    def dirty_pages(self) -> np.ndarray:
        """Indices of pages dirtied since tracking was last reset."""
        mask = (self.flags & (PageFlag.PRESENT | PageFlag.DIRTY)) == (
            PageFlag.PRESENT | PageFlag.DIRTY
        )
        return np.nonzero(mask)[0]

    # -- content helpers --------------------------------------------------
    def ensure_page(self, pidx: int) -> Tuple[np.ndarray, bool]:
        """Return the backing array for ``pidx``, allocating if needed.

        Returns ``(array, allocated_now)``.
        """
        arr = self.pages.get(pidx)
        if arr is None:
            arr = np.zeros(self.page_size, dtype=np.uint8)
            self.pages[pidx] = arr
            self.set_flag(pidx, PageFlag.PRESENT)
            return arr, True
        return arr, False

    def read_page(self, pidx: int) -> np.ndarray:
        """Copy of page ``pidx`` contents (zeros if never touched)."""
        arr = self.pages.get(pidx)
        if arr is None:
            return np.zeros(self.page_size, dtype=np.uint8)
        return arr.copy()

    def read_pages(self, pidx: int, npages: int) -> np.ndarray:
        """Contiguous copy of ``npages`` pages starting at ``pidx``.

        Absent pages read as zeros.  This is the extent-capture fast
        path: one allocation and ``npages`` row copies instead of
        ``npages`` separate page copies and Chunk objects.
        """
        out = np.zeros((npages, self.page_size), dtype=np.uint8)
        for i in range(npages):
            arr = self.pages.get(pidx + i)
            if arr is not None:
                out[i] = arr
        return out.reshape(-1)

    def install_page(self, pidx: int, data: np.ndarray, dirty: bool = False) -> None:
        """Install page contents (used by restart)."""
        if data.shape != (self.page_size,):
            raise MemoryError_(
                f"page data shape {data.shape} != ({self.page_size},)"
            )
        self.pages[pidx] = np.array(data, dtype=np.uint8, copy=True)
        self.set_flag(pidx, PageFlag.PRESENT)
        if dirty:
            self.set_flag(pidx, PageFlag.DIRTY)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VMA {self.name} {self.start:#x}-{self.end:#x} "
            f"{self.kind.value} pages={self.npages}>"
        )


class AddressSpace:
    """A process's memory map: an ordered set of VMAs plus an allocator.

    The kernel-thread discussion in the paper (Section 4.1) hinges on
    address-space *identity*: a kernel thread borrows the page tables of
    whatever task it interrupted and must pay an address-space switch (and
    TLB invalidation) to touch a different task's memory.  Identity is the
    :class:`AddressSpace` object itself (compare with ``is``).
    """

    #: Where the bump allocator starts placing VMAs.
    BASE_ADDR = 0x0000_0000_0040_0000

    def __init__(self, costs: CostModel) -> None:
        self.costs = costs
        self.page_size = costs.page_size
        self.vmas: List[VMA] = []
        self._by_name: Dict[str, VMA] = {}
        #: VMA start addresses kept sorted (parallel to ``_sorted``) so
        #: :meth:`find_vma` is a bisect instead of a linear scan.
        self._starts: List[int] = []
        self._sorted: List[VMA] = []
        self._next_addr = self.BASE_ADDR
        #: Monotone generation, bumped on fork for diagnostics.
        self.generation = 0

    def _attach(self, vma: VMA) -> None:
        self.vmas.append(vma)
        self._by_name[vma.name] = vma
        i = bisect_right(self._starts, vma.start)
        self._starts.insert(i, vma.start)
        self._sorted.insert(i, vma)

    def _detach(self, vma: VMA) -> None:
        self.vmas.remove(vma)
        i = self._sorted.index(vma)
        del self._sorted[i]
        del self._starts[i]

    # ------------------------------------------------------------------
    def map(
        self,
        name: str,
        nbytes: int,
        prot: int = Prot.RW,
        kind: VMAKind = VMAKind.ANON,
        shared: bool = False,
        file_path: Optional[str] = None,
        shm_key: Optional[int] = None,
    ) -> VMA:
        """Create and attach a new VMA of at least ``nbytes`` bytes."""
        if name in self._by_name:
            raise MemoryError_(f"VMA name {name!r} already mapped")
        npages = max(1, self.costs.pages_for(nbytes))
        vma = VMA(
            name,
            self._next_addr,
            npages,
            prot,
            kind,
            self.page_size,
            shared=shared,
            file_path=file_path,
            shm_key=shm_key,
        )
        # Leave a guard gap so resizes never collide.
        self._next_addr = vma.end + 64 * self.page_size
        self._attach(vma)
        return vma

    def unmap(self, name: str) -> VMA:
        """Detach and return the named VMA."""
        vma = self._by_name.pop(name, None)
        if vma is None:
            raise MemoryError_(f"no VMA named {name!r}")
        self._detach(vma)
        return vma

    def vma(self, name: str) -> VMA:
        """Look up a VMA by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryError_(f"no VMA named {name!r}") from None

    def has_vma(self, name: str) -> bool:
        """Whether a VMA with this name exists."""
        return name in self._by_name

    def find_vma(self, addr: int) -> VMA:
        """Find the VMA containing ``addr`` (bisect on sorted starts)."""
        i = bisect_right(self._starts, addr) - 1
        if i >= 0:
            vma = self._sorted[i]
            if vma.contains(addr):
                return vma
        raise MemoryError_(f"address {addr:#x} is unmapped")

    def resize(self, name: str, new_nbytes: int) -> VMA:
        """Grow (never shrink below present pages) a VMA -- ``sbrk`` support."""
        vma = self.vma(name)
        new_npages = max(1, self.costs.pages_for(new_nbytes))
        if new_npages < vma.npages:
            present = vma.present_pages()
            if len(present) and present[-1] >= new_npages:
                raise MemoryError_(
                    f"cannot shrink VMA {name!r} below its populated pages"
                )
            # Drop trailing never-touched pages.
            vma.flags = vma.flags[:new_npages].copy()
            vma.npages = new_npages
        elif new_npages > vma.npages:
            grown = np.zeros(new_npages, dtype=np.uint8)
            grown[: vma.npages] = vma.flags
            vma.flags = grown
            vma.npages = new_npages
        return vma

    # ------------------------------------------------------------------
    def total_present_pages(self) -> int:
        """Total resident pages across all VMAs."""
        return int(sum(len(v.present_pages()) for v in self.vmas))

    def iter_present(self) -> Iterator[Tuple[VMA, int]]:
        """Yield (vma, page_index) for every resident page."""
        for vma in self.vmas:
            for pidx in vma.present_pages():
                yield vma, int(pidx)

    # -- write access path ---------------------------------------------
    def write_access(
        self, vma: VMA, pidx: int, offset: int, length: int
    ) -> WriteOutcome:
        """Service a write of ``length`` bytes at ``offset`` within a page.

        Performs allocation and COW copying *of this address space's view*
        and reports what happened; the kernel charges time and decides how
        tracking faults propagate (signal vs direct logging).  The actual
        byte mutation is done separately by the caller via
        :meth:`fill_pattern` or :meth:`write_bytes` so mechanisms can
        observe the fault before the data changes.
        """
        if not (vma.prot & Prot.WRITE):
            raise MemoryError_(
                f"write to non-writable VMA {vma.name!r} (PROT_WRITE clear)"
            )
        if offset < 0 or offset + length > vma.page_size:
            raise MemoryError_("write crosses page boundary; split it first")
        out = WriteOutcome(vma=vma, page_index=pidx)
        _, out.allocated = vma.ensure_page(pidx)
        if vma.test(pidx, PageFlag.COW) and not vma.shared:
            src = vma.pages[pidx]
            vma.pages[pidx] = src.copy()
            vma.clear_flag(pidx, PageFlag.COW)
            out.cow_copied = True
        if vma.test(pidx, PageFlag.TRACK_WP):
            out.tracking_fault = True
            # The kernel decides whether to clear TRACK_WP (system-level
            # tracking unprotects after logging; user-level handler calls
            # mprotect itself).  We leave the bit alone here.
        vma.set_flag(pidx, PageFlag.DIRTY | PageFlag.ACCESSED)
        first_line = offset // self.costs.cache_line_size
        last_line = (offset + max(length, 1) - 1) // self.costs.cache_line_size
        out.lines_touched = last_line - first_line + 1
        return out

    def write_bytes(self, vma: VMA, pidx: int, offset: int, data: bytes) -> None:
        """Mutate page contents (after :meth:`write_access` was serviced)."""
        arr, _ = vma.ensure_page(pidx)
        arr[offset : offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def fill_pattern(self, vma: VMA, pidx: int, offset: int, length: int, seed: int) -> None:
        """Write a cheap deterministic pattern derived from ``seed``.

        Used by workloads so restored images can be verified byte-exactly
        without storing the expected data anywhere else.
        """
        arr, _ = vma.ensure_page(pidx)
        base = (seed * 2654435761 + vma.start + pidx * 977 + offset) & 0xFFFFFFFF
        vals = (np.arange(length, dtype=np.uint32) * 167 + base) & 0xFF
        arr[offset : offset + length] = vals.astype(np.uint8)

    # -- tracking --------------------------------------------------------
    def protect_for_tracking(self, vma_names: Optional[List[str]] = None) -> int:
        """Arm incremental dirty tracking: write-protect and clean pages.

        Returns the number of pages armed.  Mirrors the ``mprotect`` sweep
        a user-level incremental checkpointer performs at the start of
        every interval, and the PTE sweep a system-level one performs.
        """
        armed = 0
        for vma in self._tracked(vma_names):
            present = (vma.flags & PageFlag.PRESENT) != 0
            vma.flags[present] |= PageFlag.TRACK_WP
            vma.flags[present] &= ~np.uint8(PageFlag.DIRTY)
            vma.flags &= ~np.uint8(PageFlag.UNPROT)
            vma.tracking_armed = True
            armed += int(present.sum())
        return armed

    def dirty_page_count(self, vma_names: Optional[List[str]] = None) -> int:
        """Resident pages currently marked dirty."""
        return int(
            sum(len(v.dirty_pages()) for v in self._tracked(vma_names))
        )

    def _tracked(self, vma_names: Optional[List[str]]) -> List[VMA]:
        if vma_names is None:
            return [v for v in self.vmas if v.prot & Prot.WRITE]
        return [self.vma(n) for n in vma_names]

    # -- fork -------------------------------------------------------------
    def fork(self) -> "AddressSpace":
        """Duplicate this address space with copy-on-write semantics.

        Private pages are shared read-only (COW bit set on both sides);
        shared VMAs keep pointing at the same page arrays.  This is the
        machinery behind the concurrent "Checkpoint" mechanism [5]: the
        parent keeps running while a helper saves the frozen child image,
        paying a page copy only for pages the parent rewrites meanwhile.
        """
        child = AddressSpace(self.costs)
        child._next_addr = self._next_addr
        child.generation = self.generation + 1
        for vma in self.vmas:
            cv = VMA(
                vma.name,
                vma.start,
                vma.npages,
                vma.prot,
                vma.kind,
                vma.page_size,
                shared=vma.shared,
                file_path=vma.file_path,
                shm_key=vma.shm_key,
            )
            cv.flags = vma.flags.copy()
            if vma.shared:
                cv.pages = vma.pages  # genuinely shared object
            else:
                cv.pages = dict(vma.pages)  # share page arrays, COW both
                present = (vma.flags & PageFlag.PRESENT) != 0
                vma.flags[present] |= PageFlag.COW
                cv.flags[present] |= PageFlag.COW
            child._attach(cv)
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AddressSpace vmas={len(self.vmas)} gen={self.generation}>"
