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
from itertools import groupby
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CheckpointError, RestartError
from ..simkernel.memory import VMAKind, page_checksum
from ..simkernel.process import Task

__all__ = ["Chunk", "VMADescriptor", "FDDescriptor", "CheckpointImage", "materialize_chain"]

#: Fixed metadata overhead accounted per image (headers, task struct).
METADATA_BYTES = 4096
#: Accounted bytes per VMA / per FD descriptor record.
VMA_RECORD_BYTES = 64
FD_RECORD_BYTES = 48


@dataclass
class Chunk:
    """One contiguous span of saved memory.

    ``offset``/``nbytes`` allow sub-page blocks; page-granularity
    mechanisms use offset 0 and nbytes == page_size.  ``npages > 1``
    marks an *extent*: ``data`` covers that many contiguous pages
    starting at ``page_index`` (offset must be 0).  Extents collapse
    thousands of per-page Chunk objects into a handful of array slices;
    everything that consumes chunks either handles extents natively or
    splits them with :meth:`split_pages`.
    """

    vma: str
    page_index: int
    offset: int
    data: np.ndarray  # uint8 copy of the saved bytes
    npages: int = 1
    #: Lazily computed on first access (many chunks are captured, sent
    #: and dropped without anyone reading the checksum).
    _checksum: Optional[int] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.npages > 1 and self.offset != 0:
            raise CheckpointError("multi-page extent must start at offset 0")

    @property
    def checksum(self) -> int:
        """Deterministic checksum of the payload, computed on demand."""
        if self._checksum is None:
            self._checksum = page_checksum(self.data)
        return self._checksum

    @property
    def nbytes(self) -> int:
        """Saved payload size."""
        return int(self.data.size)

    def split_pages(self) -> Iterator["Chunk"]:
        """Yield per-page chunks (self if not an extent; views, no copies)."""
        if self.npages == 1:
            yield self
            return
        ps = self.data.size // self.npages
        for i in range(self.npages):
            yield Chunk(
                vma=self.vma,
                page_index=self.page_index + i,
                offset=0,
                data=self.data[i * ps : (i + 1) * ps],
            )


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
    def add_page(self, vma_name: str, page_index: int, data: np.ndarray) -> Chunk:
        """Append one whole-page chunk (copying ``data``)."""
        chunk = Chunk(vma=vma_name, page_index=page_index, offset=0, data=np.array(data, copy=True))
        self.chunks.append(chunk)
        return chunk

    def add_block(
        self, vma_name: str, page_index: int, offset: int, data: np.ndarray
    ) -> Chunk:
        """Append a sub-page block chunk (probabilistic/hardware modes)."""
        chunk = Chunk(
            vma=vma_name, page_index=page_index, offset=offset, data=np.array(data, copy=True)
        )
        self.chunks.append(chunk)
        return chunk

    def add_extent(
        self, vma_name: str, page_index: int, data: np.ndarray, npages: int
    ) -> Chunk:
        """Append a multi-page extent chunk (copying ``data``)."""
        chunk = Chunk(
            vma=vma_name,
            page_index=page_index,
            offset=0,
            data=np.array(data, copy=True).reshape(-1),
            npages=npages,
        )
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

        Extents are split into per-page entries (data views, no copies)
        so callers see the same keys regardless of capture coalescing.
        """
        out: Dict[Any, Chunk] = {}
        for chunk in self.chunks:
            for c in chunk.split_pages():
                out[(c.vma, c.page_index, c.offset)] = c
        return out


def _covered_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """(start, length) runs of True in a boolean byte mask."""
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
    kept as a view of its writer's bytes, and fully covered neighbouring
    pages re-merge into extents.  Any other chunk paints its span into a
    per-page byte overlay seeded with the page below it, so a sub-page
    delta patches *into* an earlier page instead of replacing it.
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
    whole: Dict[Tuple[str, int], np.ndarray] = {}
    overlays: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}
    for img in images:
        for chunk in img.chunks:
            n = chunk.npages
            if page_size and chunk.offset == 0 and chunk.data.size == n * page_size:
                if n == 1:
                    keys = [(chunk.vma, chunk.page_index)]
                    whole[keys[0]] = chunk.data
                else:
                    keys = [(chunk.vma, chunk.page_index + i) for i in range(n)]
                    whole.update(zip(keys, chunk.data.reshape(n, page_size)))
                for key in overlays.keys() & keys if overlays else ():
                    entry = overlays[key]  # paint the page into its overlay
                    entry[0][:page_size] = whole.pop(key)
                    entry[1][:page_size] = True
                continue
            for c in chunk.split_pages():
                key = (c.vma, c.page_index)
                end = c.offset + c.nbytes
                entry = overlays.get(key)
                if entry is None or end > entry[0].size:
                    # A new or grown overlay starts from what lies below.
                    below, covered = entry or (whole.pop(key, None), True)
                    size = max(end, page_size or 0)
                    entry = overlays[key] = (np.zeros(size, np.uint8), np.zeros(size, bool))
                    if below is not None:
                        entry[0][: below.size] = below
                        entry[1][: below.size] = covered
                entry[0][c.offset : end] = c.data
                entry[1][c.offset : end] = True
    # ---- emit pass: whole-page runs as extents, overlays as spans -----
    # Every emitted array is a fresh copy, so it aliases no chain chunk,
    # and read-only: the flat image is memoized and stored, and restore
    # adopts its pages (see VMA.install_page).
    merged: List[Chunk] = []
    for (vma, pidx), (buf, mask) in overlays.items():
        if buf.size == page_size and mask.all():
            whole[(vma, pidx)] = buf
            continue
        merged.extend(
            Chunk(vma=vma, page_index=pidx, offset=start, data=buf[start : start + length])
            for start, length in _covered_runs(mask)
        )
    # Consecutive pages of one vma share ``page_index - rank``.
    for (vma, _), run in groupby(enumerate(sorted(whole)), lambda r: (r[1][0], r[1][1] - r[0])):
        keys = [key for _, key in run]
        merged.append(Chunk(vma=vma, page_index=keys[0][1], offset=0, npages=len(keys),
                            data=np.concatenate([whole[key] for key in keys])))
    merged.sort(key=lambda c: (c.vma, c.page_index))  # stable: spans keep offset order
    for chunk in merged:
        chunk.data.flags.writeable = False
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
