"""Checkpoint image format: full and incremental process images.

An image holds everything needed to recreate a process "at the point of
progress represented by this state": identification, registers, the
restart cursor (completed main-program ops), VMA descriptors, file
descriptor snapshots, signal state, and the memory payload as a list of
:class:`Chunk` objects (whole pages for page-granularity mechanisms,
sub-page blocks for probabilistic/hardware granularities).

Incremental chains: a delta image records ``parent_key``; restore walks
the chain from the full base forward, later chunks overwriting earlier
ones (:func:`materialize_chain`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CheckpointError, RestartError
from ..simkernel.memory import is_frozen, page_checksum
from ..simkernel.process import Task

__all__ = ["Chunk", "VMADescriptor", "FDDescriptor", "CheckpointImage", "materialize_chain"]

#: Fixed metadata overhead accounted per image (headers, task struct).
METADATA_BYTES = 4096
#: Accounted bytes per VMA / per FD descriptor record.
VMA_RECORD_BYTES = 64
FD_RECORD_BYTES = 48


class Chunk:
    """One span of saved memory.

    ``offset``/``nbytes`` allow sub-page blocks; page-granularity
    mechanisms save whole pages.  Whole pages are always a **row
    extent**: ``rows`` holds one read-only array per page, ``npages``
    of them starting at ``page_index`` (offset 0).  The rows are their
    writers' own frozen arrays -- the captured VMA's live pages, dedup
    pack payloads, or the pages a chain flatten kept -- so a row extent
    aliases what it was built from instead of copying it.  Extents
    collapse thousands of per-page Chunk objects into a handful;
    everything that consumes chunks either handles extents natively or
    splits them with :meth:`split_pages`.  :meth:`page_rows`,
    :meth:`split_pages` and :attr:`nbytes` read the rows; ``data`` is
    concatenated only if some consumer asks for it.

    Any other payload is one ``data`` array: a sub-page block.
    """

    __slots__ = ("vma", "page_index", "offset", "rows", "_data", "_checksum")

    def __init__(
        self,
        vma: str,
        page_index: int,
        offset: int = 0,
        data: Optional[np.ndarray] = None,
        rows: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> None:
        if rows is not None:
            if data is not None or offset != 0 or not rows:
                raise CheckpointError("a row extent holds whole pages only")
        elif data is None:
            raise CheckpointError("chunk needs data or rows")
        self.vma = vma
        self.page_index = page_index
        self.offset = offset
        self.rows = rows
        self._data = data
        #: Lazily computed on first access (many chunks are captured, sent
        #: and dropped without anyone reading the checksum).
        self._checksum: Optional[int] = None

    @property
    def npages(self) -> int:
        """Pages in the extent (1 for a block)."""
        return 1 if self.rows is None else len(self.rows)

    @property
    def data(self) -> np.ndarray:
        """The payload as one contiguous uint8 array (a row extent's rows
        are concatenated on first access; read-only if they all are)."""
        if self._data is None:
            rows = self.rows
            if len(rows) == 1:
                self._data = rows[0]
            else:
                self._data = np.concatenate(rows)
                self._data.flags.writeable = any(r.flags.writeable for r in rows)
        return self._data

    @property
    def checksum(self) -> int:
        """Deterministic checksum of the payload, computed on demand."""
        if self._checksum is None:
            self._checksum = page_checksum(self.data)
        return self._checksum

    @property
    def nbytes(self) -> int:
        """Saved payload size."""
        if self.rows is not None:
            return len(self.rows) * int(self.rows[0].size)
        return int(self._data.size)

    def page_rows(self) -> Sequence[np.ndarray]:
        """One array per page: the rows of a row extent, else ``data``."""
        if self.rows is not None:
            return self.rows
        return (self._data,)

    def split_pages(self) -> Iterator["Chunk"]:
        """Yield per-page chunks (self if not an extent; no copies)."""
        rows = self.rows
        if rows is None or len(rows) == 1:
            yield self
            return
        for i, row in enumerate(rows):
            yield Chunk(vma=self.vma, page_index=self.page_index + i, rows=(row,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        form = "rows" if self.rows is not None else "data"
        return (f"Chunk(vma={self.vma!r}, page_index={self.page_index}, "
                f"offset={self.offset}, npages={self.npages}, {form}, "
                f"nbytes={self.nbytes})")


@dataclass
class VMADescriptor:
    """Recreate-a-VMA record."""

    name: str
    nbytes: int
    prot: int
    kind: str
    shared: bool = False
    file_path: Optional[str] = None
    shm_key: Optional[int] = None


@dataclass
class FDDescriptor:
    """Recreate-a-descriptor record (plus rescue data for deleted files)."""

    fd: int
    path: str
    kind: str
    offset: int
    flags: int = 0
    #: UCLiK-style rescue: contents of a deleted-but-open file.
    rescued_content: Optional[bytes] = None
    #: Socket identity (kernel-persistent state).
    local_port: Optional[int] = None
    remote_addr: Optional[str] = None


@dataclass
class CheckpointImage:
    """A (full or incremental) checkpoint of one task."""

    key: str
    mechanism: str
    pid: int
    task_name: str
    node_id: int
    step: int
    registers: Dict[str, Any]
    vmas: List[VMADescriptor] = field(default_factory=list)
    fds: List[FDDescriptor] = field(default_factory=list)
    signals: Dict[str, Any] = field(default_factory=dict)
    chunks: List[Chunk] = field(default_factory=list)
    #: Full image (None) or delta whose base is ``parent_key``.
    parent_key: Optional[str] = None
    #: Virtual time the checkpoint completed.
    time_ns: int = 0
    #: Program-visible state that conceptually lives in restored memory
    #: (workload reference and user annotations survive via this).
    user_state: Dict[str, Any] = field(default_factory=dict)
    #: Pod/virtualization table (ZAP): virtual->physical resource ids.
    pod: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    @property
    def is_incremental(self) -> bool:
        """Whether this image is a delta over ``parent_key``."""
        return self.parent_key is not None

    @property
    def payload_bytes(self) -> int:
        """Saved memory payload (the quantity experiments E5/E6 plot)."""
        return sum(c.nbytes for c in self.chunks)

    @property
    def size_bytes(self) -> int:
        """Total accounted image size including metadata records."""
        return (
            METADATA_BYTES
            + VMA_RECORD_BYTES * len(self.vmas)
            + FD_RECORD_BYTES * len(self.fds)
            + self.payload_bytes
            + sum(len(f.rescued_content or b"") for f in self.fds)
        )

    # ------------------------------------------------------------------
    def take_pages(
        self, vma_name: str, page_index: int, rows: Sequence[np.ndarray]
    ) -> Chunk:
        """Append whole pages ``page_index ..`` as a row extent of
        ``rows``, frozen page arrays the image shares instead of copying
        (a capture passes :meth:`VMA.read_page(s)
        <repro.simkernel.memory.VMA.read_pages>`, the VMA's own live
        arrays, frozen in place)."""
        chunk = Chunk(vma=vma_name, page_index=page_index, rows=tuple(rows))
        self.chunks.append(chunk)
        return chunk

    def add_block(
        self, vma_name: str, page_index: int, offset: int, data: np.ndarray
    ) -> Chunk:
        """Append a sub-page block chunk (probabilistic/hardware modes),
        copying ``data``: callers pass a view of a live page."""
        block = np.array(data, copy=True)
        block.flags.writeable = False
        chunk = Chunk(vma=vma_name, page_index=page_index, offset=offset, data=block)
        self.chunks.append(chunk)
        return chunk

    # ------------------------------------------------------------------
    def verify_against(self, task: Task) -> List[str]:
        """Compare every chunk with the task's live memory.

        Returns a list of mismatch descriptions -- empty means the image
        is consistent with the process (the test used to demonstrate torn
        captures when the application was not stopped, experiment E9).
        """
        problems: List[str] = []
        for chunk in self.chunks:
            try:
                vma = task.mm.vma(chunk.vma)
            except Exception:
                problems.append(f"vma {chunk.vma!r} missing")
                continue
            for c in chunk.split_pages():
                live = vma.read_page(c.page_index)[c.offset : c.offset + c.nbytes]
                if page_checksum(np.ascontiguousarray(live)) != c.checksum:
                    problems.append(f"{c.vma}[{c.page_index}]+{c.offset} differs")
        return problems

    def dirty_byte_extents(self, page_size: int) -> List[Tuple[int, int]]:
        """Chunk positions as merged byte extents of the flat image.

        VMAs are laid out back-to-back in descriptor order (the same
        canonical address space every flat image of one task shares, so
        extents from successive deltas compose), and each chunk maps to
        ``vma_base + page_index * page_size + offset``.  The result is
        sorted with overlapping/adjacent runs merged -- the dirty-extent
        form :meth:`ErasureStore.store_delta
        <repro.stablestore.ErasureStore.store_delta>` consumes when an
        incremental checkpoint re-protects a compacted image.
        """
        base: Dict[str, int] = {}
        running = 0
        for vd in self.vmas:
            base[vd.name] = running
            running += vd.nbytes
        extents: List[Tuple[int, int]] = []
        for chunk in self.chunks:
            if chunk.vma not in base:
                continue
            start = base[chunk.vma] + chunk.page_index * page_size + chunk.offset
            extents.append((start, chunk.nbytes))
        extents.sort()
        merged: List[List[int]] = []
        for off, length in extents:
            if merged and off <= merged[-1][0] + merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], off + length - merged[-1][0])
            else:
                merged.append([off, length])
        return [(off, length) for off, length in merged]

    def chunk_index(self) -> Dict[Any, Chunk]:
        """Last-writer-wins index of chunks by (vma, page, offset).

        Extents are split into per-page entries (the rows themselves, no copies)
        so callers see the same keys regardless of capture coalescing.
        """
        out: Dict[Any, Chunk] = {}
        for chunk in self.chunks:
            for c in chunk.split_pages():
                out[(c.vma, c.page_index, c.offset)] = c
        return out


def _frozen_rows(chunk: Chunk) -> Sequence[np.ndarray]:
    """A whole-page chunk's page rows, frozen: if a row is not read-only
    down to its memory's owner (see ``is_frozen``), all are copied into
    one frozen stack; frozen rows are returned as they are."""
    rows = chunk.page_rows()
    # is_frozen(r), inlined for an owner (base None)
    if any(r.flags.writeable or r.base is not None and not is_frozen(r.base) for r in rows):
        rows = np.array(rows, dtype=np.uint8)
        rows.flags.writeable = False
    return rows


def _covered_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """(start, length) runs of True in a boolean mask (of bytes, or of
    blocks)."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [(int(idx[s]), int(idx[e] - idx[s] + 1)) for s, e in zip(starts, ends)]


def materialize_chain(
    images: Sequence[CheckpointImage], page_size: Optional[int] = None
) -> CheckpointImage:
    """Flatten a full-image + deltas chain into one restorable image.

    ``images`` must be ordered base-first; the base must be a full image
    and each subsequent delta's ``parent_key`` must name its predecessor.

    Chunks apply in chain order, last writer wins.  With ``page_size``, a
    whole page (an extent row, or ``page_size`` bytes at offset 0) is
    kept as its writer's own array, and fully covered neighbouring pages
    re-merge into row extents (see :class:`Chunk`): nothing is
    concatenated.  Any other chunk paints its span into a per-page byte
    overlay seeded with the page below it, so a sub-page delta patches
    *into* an earlier page instead of replacing it.

    Every emitted array is read-only: the flat image is memoized and
    stored, and restore adopts its pages (see ``VMA.install_pages``).
    A whole page is therefore emitted as is when its writer's array is
    frozen (a dedup pack payload, a captured page) and copied only when
    it is not; a page built from overlays is frozen in place.
    """
    if not images:
        raise RestartError("empty image chain")
    base = images[0]
    if base.is_incremental:
        raise RestartError(f"chain base {base.key!r} is itself incremental")
    prev_key = base.key
    for delta in images[1:]:
        if delta.parent_key != prev_key:
            raise RestartError(
                f"broken chain: {delta.key!r} has parent {delta.parent_key!r}, "
                f"expected {prev_key!r}"
            )
        prev_key = delta.key
    # ---- paint pass: chain order = write order, last writer wins -------
    # Per VMA, page index -> the page's array (``whole``), or its byte
    # overlay and coverage mask (pages a sub-page chunk patched).
    whole: Dict[str, Dict[int, np.ndarray]] = {}
    overlays: Dict[str, Dict[int, Tuple[np.ndarray, np.ndarray]]] = {}
    for img in images:
        for chunk in img.chunks:
            n = chunk.npages
            if page_size and chunk.offset == 0 and chunk.nbytes == n * page_size:
                span = range(chunk.page_index, chunk.page_index + n)
                pages = whole.setdefault(chunk.vma, {})
                pages.update(zip(span, _frozen_rows(chunk)))
                ov = overlays.get(chunk.vma)
                for pidx in ov.keys() & span if ov else ():
                    buf, mask = ov[pidx]
                    if buf.size == page_size:
                        del ov[pidx]  # the page replaces its overlay outright
                    else:  # paint it into the grown overlay
                        buf[:page_size] = pages.pop(pidx)
                        mask[:page_size] = True
                continue
            pages = whole.get(chunk.vma, {})
            ov = overlays.setdefault(chunk.vma, {})
            for c in chunk.split_pages():
                end = c.offset + c.nbytes
                entry = ov.get(c.page_index)
                if entry is None or end > entry[0].size:
                    # A new or grown overlay starts from what lies below.
                    below, covered = entry or (pages.pop(c.page_index, None), True)
                    size = max(end, page_size or 0)
                    entry = ov[c.page_index] = (np.zeros(size, np.uint8), np.zeros(size, bool))
                    if below is not None:
                        entry[0][: below.size] = below
                        entry[1][: below.size] = covered
                entry[0][c.offset : end] = c.data
                entry[1][c.offset : end] = True
    # ---- emit pass: whole-page runs as row extents, overlays as spans --
    merged: List[Chunk] = []
    for vma, ov in overlays.items():
        pages = whole.setdefault(vma, {})
        for pidx, (buf, mask) in ov.items():
            buf.flags.writeable = False
            if buf.size == page_size and mask.all():
                pages[pidx] = buf
                continue
            merged.extend(
                Chunk(vma=vma, page_index=pidx, offset=start, data=buf[start : start + length])
                for start, length in _covered_runs(mask)
            )
    for vma, pages in whole.items():
        if not pages:
            continue
        order = sorted(pages)
        cuts = (np.flatnonzero(np.diff(order) != 1) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [len(order)]):
            rows = tuple(map(pages.__getitem__, order[lo:hi]))
            merged.append(Chunk(vma=vma, page_index=order[lo], rows=rows))
    merged.sort(key=lambda c: (c.vma, c.page_index))  # stable: spans keep offset order
    last = images[-1]
    return replace(
        last,
        key=last.key + "+flat",
        registers=dict(last.registers),
        vmas=list(last.vmas),
        fds=list(last.fds),
        signals=dict(last.signals),
        chunks=merged,
        parent_key=None,
        user_state=dict(last.user_state),
        pod=dict(last.pod) if last.pod else None,
    )
