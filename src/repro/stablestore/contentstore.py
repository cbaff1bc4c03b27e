"""Content-addressed deduplication in front of the replicated service.

Checkpoint streams are massively redundant: every generation of a
full-image mechanism rewrites mostly-identical pages, zero pages recur
across every process, and "dirty" pages often carry the same bytes they
carried last interval (a write of the same value still faults the
tracker).  The scalable C/R literature after the paper deduplicates this
redundancy at the storage tier; :class:`ContentStore` does the same for
the simulated service.

The design is manifest + pack:

* Every per-page payload of an image is fingerprinted (keyed by digest
  *and* length), one :func:`~repro.core.digest.page_digests` call per
  page stack.  Payloads never seen before are batched -- all of one
  image's new payloads together -- into a single *pack* blob stored under
  ``<image key>.pack``, so dedup does not multiply quorum round-trips.
  (An overwritten generation whose old pack is still referenced writes
  its new pack under the first free ``<image key>.<n>.pack``.)
* The image itself is stored as an :class:`ImageManifest`: the metadata
  of the original :class:`~repro.core.image.CheckpointImage` (chunks
  stripped) plus one row per page in parallel columns -- content key,
  vma, page index, offset, length and whether the row is a whole page.
  Loading a manifest reassembles a byte-exact image from the packs it
  references: each run of consecutive whole-page rows of one VMA
  becomes one row extent of the (read-only) pack payloads themselves,
  and every other row one chunk.
* The store refcounts content keys across manifests.  Deleting a
  manifest (e.g. :class:`~repro.stablestore.GenerationGC` dropping a
  superseded generation) decrements them.  A pack's delete is
  requested when it is written, and the stack's hold table collects it
  once no referenced payload homed in it and no open stream that
  counted a hit against it holds it.  Pack keys end in ``.pack`` and
  therefore never parse as generations, so the GC can only ever reach
  them through this refcounting path.

The wrapper is transparent: non-image blobs pass straight through, and
``keys()`` lists manifests only, so generation GC, chain walks and the
coordinator see exactly the key space they saw without dedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.digest import page_digests
from ..core.image import CheckpointImage, Chunk
from ..errors import StorageError
from ..storage.backends import StorageBackend

__all__ = ["ImageManifest", "ContentStore", "DedupWriteStream"]

#: Accounted bytes per content reference in a manifest (vma id, page,
#: offset, length, 64-bit digest).
REF_RECORD_BYTES = 32


@dataclass
class ImageManifest:
    """A checkpoint image with its payload replaced by content refs:
    one row per page, held as parallel columns."""

    key: str
    meta: Optional[CheckpointImage] = None  # chunks stripped; set on write
    pack_key: Optional[str] = None
    ckeys: List[str] = field(default_factory=list)
    vma: List[str] = field(default_factory=list)
    page_index: List[int] = field(default_factory=list)
    offset: List[int] = field(default_factory=list)
    nbytes: List[int] = field(default_factory=list)
    #: Whether the row is a whole page (of a row extent):
    #: the store does not know the page size, so the writer's chunk says.
    whole: List[bool] = field(default_factory=list)

    @property
    def parent_key(self) -> Optional[str]:
        """Delta-chain parent (the hold table and chain walks read this)."""
        return self.meta.parent_key


def _frozen_copy(payload: np.ndarray) -> np.ndarray:
    """A read-only copy of ``payload``: pack payloads are immutable once
    written, so a restore adopts them into VMAs without copying."""
    out = np.array(payload, copy=True)
    out.flags.writeable = False
    return out


class ContentStore(StorageBackend):
    """Content-addressed dedup wrapper around another backend.

    Parameters
    ----------
    inner:
        The backend that actually holds blobs -- typically a
        :class:`~repro.stablestore.ReplicatedStore`, so each unique
        payload costs one quorum write ever, not one per generation.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` receiving
        ``dedup.hits`` / ``dedup.misses`` / ``dedup.bytes_saved``
        (the cluster wires its engine's registry in).
    """

    def __init__(self, inner: StorageBackend, metrics=None) -> None:
        super().__init__(device=inner.device)
        self.inner = inner
        self.holds = inner.holds  # one table for the stack
        self.metrics = metrics
        self.kind = inner.kind
        self.survives_node_failure = inner.survives_node_failure
        #: content key -> number of references across live manifests.
        self._refs: Dict[str, int] = {}
        #: content key -> pack blob that holds its payload.
        self._home: Dict[str, str] = {}
        #: pack key -> its payloads by content key.
        self._pack_members: Dict[str, Dict[str, np.ndarray]] = {}
        #: id(payload) -> (payload, content key) for every payload array
        #: of a live pack, so a flat built from pack rows (a compaction)
        #: is not digested again.  Only a shortcut: any other array,
        #: however equal its bytes, is digested.
        self._payload_keys: Dict[int, Tuple[np.ndarray, str]] = {}
        #: manifest key -> the content keys it references (for delete).
        self._manifest_refs: Dict[str, List[str]] = {}
        # Dedup statistics (the E20 evidence).
        self.logical_payload_bytes = 0
        self.unique_payload_bytes = 0
        self.images_stored = 0

    # ------------------------------------------------------------------
    @property
    def dedup_ratio(self) -> float:
        """Logical payload bytes per unique payload byte written."""
        if self.unique_payload_bytes == 0:
            return 1.0
        return self.logical_payload_bytes / self.unique_payload_bytes

    # ------------------------------------------------------------------
    # StorageBackend protocol
    # ------------------------------------------------------------------
    #: The one synchronous write: :class:`DedupWriteStream` opened and
    #: committed at once (named here so per-class tracing can wrap it).
    store = StorageBackend.store

    def _fingerprint(
        self,
        chunks: Sequence[Chunk],
        manifest: ImageManifest,
        pack: Dict[str, np.ndarray],
        held: Set[str],
    ) -> int:
        """Append a manifest row per page of ``chunks``: copy each unseen
        payload into ``pack``, hold (once, noted in ``held``) the pack of
        each committed hit; return the bytes added to ``pack``.  A row that is a
        live pack's read-only payload array takes its content key from
        the store; the others are collected per payload length and
        digested in one :func:`page_digests` call per length."""
        payloads: List[np.ndarray] = []
        by_len: Dict[int, List[np.ndarray]] = {}
        known: List[Optional[str]] = []  # per row: its key, if stored
        payload_keys = self._payload_keys
        m = manifest
        vma, page_index, offset, sizes = m.vma, m.page_index, m.offset, m.nbytes
        first = len(sizes)
        for c in chunks:
            rows = c.page_rows()
            n = len(rows)
            size = int(rows[0].size)
            payloads.extend(rows)
            unknown = by_len.setdefault(size, [])
            entries = list(map(payload_keys.get, map(id, rows)))
            if not any(entries):  # no pack payload among them: digest all
                known.extend(entries)
                unknown.extend(rows)
            else:
                for r, entry in zip(rows, entries):
                    if entry is not None and entry[0] is r and not r.flags.writeable:
                        known.append(entry[1])
                    else:
                        known.append(None)
                        unknown.append(r)
            vma.extend([c.vma] * n)
            page_index.extend(range(c.page_index, c.page_index + n))
            offset.extend([c.offset] * n)
            sizes.extend([size] * n)
            m.whole.extend([c.rows is not None] * n)
        keys: Dict[int, Iterator[str]] = {}
        for size, rows in by_len.items():
            if not rows:
                continue
            stack = np.stack(rows)
            # f"{digest:016x}-{size}" for every row: big-endian hex, one
            # 16-digit group per row.
            hexes = page_digests(stack, size).astype(">u8").tobytes().hex(" ", 8)
            suffix = f"-{size}"
            keys[size] = iter([h + suffix for h in hexes.split(" ")])
        # Back in row order.
        ckeys = [k or next(keys[size]) for k, size in zip(known, sizes[first:])]
        m.ckeys.extend(ckeys)
        added = 0
        for ckey, payload in zip(ckeys, payloads):
            if ckey in pack:
                continue
            home = self._home.get(ckey)
            if home is None:
                pack[ckey] = _frozen_copy(payload)
                added += payload.size
            elif home not in held:
                held.add(home)
                self.holds.hold(home)
        return added

    def _new_pack_key(self, key: str) -> str:
        """``<key>.pack``, unless a pack of that name is still live.

        Overwriting a generation drops its references first, but its
        old pack survives while a later image still references a
        payload homed there; the new pack then takes the first free
        ``<key>.<n>.pack`` instead of replacing it.
        """
        pack_key = f"{key}.pack"
        n = 0
        while pack_key in self._pack_members:
            n += 1
            pack_key = f"{key}.{n}.pack"
        return pack_key

    def _write_manifest(
        self,
        image: CheckpointImage,
        manifest: ImageManifest,
        pack: Dict[str, np.ndarray],
        pack_bytes: int,
        pack_key: Optional[str],
        now_ns: int,
    ) -> int:
        """Store the manifest of ``image`` once its pack is written, then
        install the client-side bookkeeping; returns the delay.  Each
        row not in ``pack`` is a dedup hit."""
        key = manifest.key
        manifest.meta = replace(image, chunks=[])
        manifest.pack_key = pack_key
        ckeys = manifest.ckeys
        manifest_bytes = manifest.meta.size_bytes + REF_RECORD_BYTES * len(ckeys)
        delay = self.inner.store(key, manifest, manifest_bytes, now_ns)
        if pack_key is not None:
            self._pack_members[pack_key] = pack
            for ckey, payload in pack.items():
                self._payload_keys[id(payload)] = (payload, ckey)
                old = self._home.get(ckey)
                self._home[ckey] = pack_key
                if old not in (None, pack_key) and self._refs.get(ckey, 0):
                    # A concurrent stream committed this payload first;
                    # its live references move to this pack with it.
                    self.holds.hold(pack_key)
                    self.holds.release(old)
        refs = self._refs
        for ckey in ckeys:
            n = refs.get(ckey, 0)
            if n == 0:  # a referenced payload holds the pack it lives in
                self.holds.hold(self._home[ckey])
            refs[ckey] = n + 1
        self._manifest_refs[key] = ckeys
        if pack_key is not None:
            self.holds.request(pack_key, self)  # it goes with its last hold
        logical = sum(manifest.nbytes)
        self.logical_payload_bytes += logical
        self.unique_payload_bytes += pack_bytes
        self.images_stored += 1
        if self.metrics is not None:
            self.metrics.inc("dedup.hits", len(ckeys) - len(pack))
            self.metrics.inc("dedup.misses", len(pack))
            self.metrics.inc("dedup.bytes_saved", logical - pack_bytes)
        return delay

    def load(self, key: str, now_ns: int) -> Tuple[Any, int]:
        obj, delay = self.inner.load(key, now_ns)
        if not isinstance(obj, ImageManifest):
            return obj, delay
        needed = sorted({self._home[ck] for ck in obj.ckeys})
        payloads: Dict[str, np.ndarray] = {}
        for pk in needed:
            pack, d = self.inner.load(pk, now_ns + delay)
            delay += d
            payloads.update(pack)
        return self._reassemble(obj, payloads), delay

    @staticmethod
    def _reassemble(
        manifest: ImageManifest, payloads: Dict[str, np.ndarray]
    ) -> CheckpointImage:
        """One row extent of pack payloads per run of consecutive
        whole-page rows of one VMA; one chunk per other row."""
        m = manifest
        vmas, pages, whole = m.vma, m.page_index, m.whole
        data = [payloads[ck] for ck in m.ckeys]
        chunks: List[Chunk] = []
        i, n = 0, len(data)
        while i < n:
            v, p = vmas[i], pages[i]
            j = i + 1
            if whole[i]:
                while j < n and whole[j] and pages[j] == p + j - i and vmas[j] == v:
                    j += 1
                chunks.append(Chunk(vma=v, page_index=p, rows=tuple(data[i:j])))
            else:
                chunks.append(Chunk(vma=v, page_index=p, offset=m.offset[i], data=data[i]))
            i = j
        return replace(m.meta, chunks=chunks)

    def load_parallel(
        self, keys, now_ns: int
    ) -> Tuple[Dict[str, Any], int]:
        """Two-round parallel chain fetch: all manifests at one instant,
        then the union of their packs at one instant.

        A serial chain walk pays ``2 x depth`` dependent round trips
        (manifest then packs, per generation); the prefetch pays two --
        the slowest manifest, then the slowest pack.
        """
        manifests, delay = self.inner.load_parallel(keys, now_ns)
        needed = sorted({self._home[ck] for obj in manifests.values()
                         if isinstance(obj, ImageManifest) for ck in obj.ckeys})
        payloads: Dict[str, np.ndarray] = {}
        pack_delay = 0
        if needed:
            packs, pack_delay = self.inner.load_parallel(needed, now_ns + delay)
            for pk in needed:
                payloads.update(packs[pk])
        out = {k: self._reassemble(obj, payloads) if isinstance(obj, ImageManifest)
               else obj for k, obj in manifests.items()}
        return out, delay + pack_delay

    def open_stream(self, key: str, now_ns: int) -> "DedupWriteStream":
        """Open a pipelined dedup write (COW drain path)."""
        return DedupWriteStream(self, key)

    def exists(self, key: str) -> bool:
        """Whether the manifest *and* every pack it references are readable."""
        if not self.inner.exists(key):
            return False
        ckeys = self._manifest_refs.get(key)
        if ckeys is None:
            return True
        homes = {self._home[ck] for ck in ckeys if ck in self._home}
        return all(self.inner.exists(pk) for pk in homes)

    def peek(self, key: str) -> Any:
        """Return the manifest (carries ``parent_key`` for chain walks)."""
        return self.inner.peek(key)

    def blob_size(self, key: str) -> int:
        """Accounted size of a stored blob (manifest size for images)."""
        return self.inner.blob_size(key)

    #: Named here so per-class tracing can wrap it.
    delete = StorageBackend.delete

    def _drop(self, key: str) -> None:
        """Drop a pack, or a manifest with its payload references (a
        payload's last reference releases its pack)."""
        for member, payload in self._pack_members.pop(key, {}).items():
            del self._payload_keys[id(payload)]
            if self._home.get(member) == key:  # not re-homed since
                del self._home[member]
        ckeys = self._manifest_refs.pop(key, ())
        self.inner._drop(key)
        for ckey in ckeys:
            n = self._refs.pop(ckey) - 1
            if n:
                self._refs[ckey] = n
            else:
                self.holds.release(self._home[ckey])

    def keys(self) -> Iterator[str]:
        """Iterate manifest / passthrough keys (packs stay internal)."""
        return (k for k in self.inner.keys() if not k.endswith(".pack"))

    def stored_bytes(self) -> int:
        """Bytes held by the inner backend (manifests + packs)."""
        return self.inner.stored_bytes()

    def _check_available(self) -> None:
        self.inner._check_available()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ContentStore images={self.images_stored} "
            f"dedup={self.dedup_ratio:.2f}x over {self.inner!r}>"
        )


class DedupWriteStream:
    """An open pipelined dedup write of one image.

    Each :meth:`send_chunk` fingerprints the chunk's pages immediately
    (the drain kthread does the hashing while the app runs) and streams
    only never-seen payload bytes to the inner backend's write stream
    under the image's pack key; duplicate pages cost no wire or disk
    time at all, so a mostly-clean generation acknowledges almost
    instantly.  :meth:`commit` fingerprints the image itself when no
    chunk came through :meth:`send_chunk` (a synchronous
    :meth:`ContentStore.store`), seals the pack, writes the manifest,
    and installs the refcount bookkeeping.

    The stream takes no reference before :meth:`commit`, so one that is
    abandoned (an aborted drain) leaves every refcount as it was.  A
    page counted as a hit holds the pack that homes it (see
    :mod:`~repro.stablestore.holds`) until the commit's manifest
    references it, or :meth:`abort`, so no delete collects that pack
    while the stream is open.
    """

    def __init__(self, cs: ContentStore, key: str) -> None:
        if key in cs._manifest_refs:
            # Overwrite of an existing generation: drop the old manifest
            # and its refs first (exactly as the synchronous store does)
            # so refcounts stay exact.
            cs._drop(key)
        self.cs = cs
        self.key = key
        self.pack_key = cs._new_pack_key(key)
        self.committed = False
        self._inner_stream = None  # the pack, under pack_key
        self._raw_stream = None  # a non-image object, under key
        self.manifest = ImageManifest(key=key)
        self.pack: Dict[str, np.ndarray] = {}
        #: Committed packs this stream counted a hit against (one hold each).
        self._held: Set[str] = set()
        self.sent_bytes = 0  # unique payload bytes actually on the wire

    def send_chunk(self, chunk: Chunk, now_ns: int) -> int:
        """Fingerprint one extent; stream its unique bytes.  Returns the
        delay at which those bytes are quorum-durable (0 for an extent
        that dedups completely)."""
        cs = self.cs
        new_bytes = cs._fingerprint([chunk], self.manifest, self.pack, self._held)
        if new_bytes == 0:
            return 0
        if self._inner_stream is None:
            self._inner_stream = cs.inner.open_stream(self.pack_key, now_ns)
        self.sent_bytes += new_bytes
        return self._inner_stream.send(new_bytes, now_ns)

    def send(self, nbytes: int, now_ns: int) -> int:
        """Stream raw bytes of a non-image object (a distributed-snapshot
        manifest, say) to the inner backend under the object's own key;
        :meth:`commit` publishes it there.  Page payloads go through
        :meth:`send_chunk`, which fingerprints them."""
        if self._raw_stream is None:
            self._raw_stream = self.cs.inner.open_stream(self.key, now_ns)
        return self._raw_stream.send(nbytes, now_ns)

    def commit(self, obj: Any, nbytes: int, now_ns: int) -> int:
        """Seal the pack, write the manifest, install the bookkeeping."""
        if self.committed:
            raise StorageError(f"stream for {self.key!r} already committed")
        self.committed = True
        cs = self.cs
        if not isinstance(obj, CheckpointImage):
            # Passthrough blob: a plain inner store, through the raw
            # stream when its bytes already travelled.
            if self._raw_stream is not None:
                return self._raw_stream.commit(obj, nbytes, now_ns)
            return cs.inner.store(self.key, obj, nbytes, now_ns)
        if self._raw_stream is not None:
            raise StorageError(
                f"raw bytes were sent for {self.key!r}; an image must be "
                "streamed with send_chunk")
        if not self.manifest.ckeys:
            cs._fingerprint(obj.chunks, self.manifest, self.pack, self._held)
        try:
            delay = 0
            pack_key: Optional[str] = None
            pack_bytes = int(sum(a.size for a in self.pack.values()))
            if self.pack:
                pack_key = self.pack_key
                if self._inner_stream is None:
                    self._inner_stream = cs.inner.open_stream(pack_key, now_ns)
                delay += self._inner_stream.commit(self.pack, pack_bytes, now_ns)
            return delay + cs._write_manifest(
                obj, self.manifest, self.pack, pack_bytes, pack_key, now_ns + delay
            )
        finally:
            self.abort()  # the manifest now references what the hits held

    def abort(self) -> None:
        """Release the packs this stream's hits held (a commit ends here
        too)."""
        held, self._held = self._held, set()
        for home in held:
            self.cs.holds.release(home)
