"""Content-addressed deduplication in front of the replicated service.

Checkpoint streams are massively redundant: every generation of a
full-image mechanism rewrites mostly-identical pages, zero pages recur
across every process, and "dirty" pages often carry the same bytes they
carried last interval (a write of the same value still faults the
tracker).  The scalable C/R literature after the paper deduplicates this
redundancy at the storage tier; :class:`ContentStore` does the same for
the simulated service.

The design is manifest + pack:

* Every per-page payload of an image is fingerprinted with
  :func:`~repro.core.digest.payload_digest` (keyed by digest *and*
  length).  Payloads never seen before are batched -- all of one image's
  new payloads together -- into a single *pack* blob stored under
  ``<image key>.pack``, so dedup does not multiply quorum round-trips.
* The image itself is stored as an :class:`ImageManifest`: the metadata
  of the original :class:`~repro.core.image.CheckpointImage` (chunks
  stripped) plus an ordered list of :class:`ChunkRef` content references.
  Loading a manifest reassembles a byte-exact image from the packs it
  references.
* The store refcounts content keys across manifests.  Deleting a
  manifest (e.g. :class:`~repro.stablestore.GenerationGC` dropping a
  superseded generation) decrements them; a pack is deleted only when no
  surviving manifest references any payload homed in it.  Pack keys end
  in ``.pack`` and therefore never parse as generations, so the GC can
  only ever reach them through this refcounting path.

The wrapper is transparent: non-image blobs pass straight through, and
``keys()`` lists manifests only, so generation GC, chain walks and the
coordinator see exactly the key space they saw without dedup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.digest import payload_digest
from ..core.image import CheckpointImage, Chunk
from ..errors import StorageError
from ..simkernel.engine import Completion
from ..storage.backends import StorageBackend

__all__ = ["ChunkRef", "ImageManifest", "ContentStore", "DedupWriteStream"]

#: Accounted bytes per content reference in a manifest (vma id, page,
#: offset, length, 64-bit digest).
REF_RECORD_BYTES = 32


@dataclass
class ChunkRef:
    """One per-page content reference inside a manifest."""

    vma: str
    page_index: int
    offset: int
    nbytes: int
    ckey: str


@dataclass
class ImageManifest:
    """A checkpoint image with its payload replaced by content refs."""

    key: str
    meta: CheckpointImage  # chunks stripped; metadata/registers/vmas/fds intact
    refs: List[ChunkRef]
    pack_key: Optional[str]

    @property
    def parent_key(self) -> Optional[str]:
        """Delta-chain parent (GC and availability walks read this)."""
        return self.meta.parent_key


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
        self.metrics = metrics
        self.kind = inner.kind
        self.survives_node_failure = inner.survives_node_failure
        #: content key -> number of references across live manifests.
        self._refs: Dict[str, int] = {}
        #: content key -> pack blob that holds its payload.
        self._home: Dict[str, str] = {}
        #: pack key -> content keys packed in it.
        self._pack_members: Dict[str, List[str]] = {}
        #: pack key -> distinct referenced content keys still alive.
        self._pack_live: Dict[str, int] = {}
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
    def store(self, key: str, obj: Any, nbytes: int, now_ns: int) -> int:
        if not isinstance(obj, CheckpointImage):
            return self.inner.store(key, obj, nbytes, now_ns)
        if key in self._manifest_refs:
            # Overwrite of an existing generation: release the old refs
            # first so refcounts stay exact.
            self.delete(key)
        refs: List[ChunkRef] = []
        pack: Dict[str, np.ndarray] = {}
        logical = 0
        dedup_hits = 0
        for chunk in obj.chunks:
            for c in chunk.split_pages():
                payload = np.ascontiguousarray(c.data)
                ckey = f"{payload_digest(payload):016x}-{payload.size}"
                refs.append(
                    ChunkRef(c.vma, c.page_index, c.offset, int(payload.size), ckey)
                )
                logical += int(payload.size)
                if ckey not in self._home and ckey not in pack:
                    pack[ckey] = np.array(payload, copy=True)
                else:
                    dedup_hits += 1
        delay = 0
        pack_key: Optional[str] = None
        if pack:
            pack_key = f"{key}.pack"
            pack_bytes = int(sum(a.size for a in pack.values()))
            delay += self.inner.store(pack_key, pack, pack_bytes, now_ns)
            self.unique_payload_bytes += pack_bytes
        meta = replace(obj, chunks=[])
        manifest = ImageManifest(key=key, meta=meta, refs=refs, pack_key=pack_key)
        manifest_bytes = meta.size_bytes + REF_RECORD_BYTES * len(refs)
        delay += self.inner.store(key, manifest, manifest_bytes, now_ns + delay)
        # Commit client-side bookkeeping only after both writes landed.
        self._install_manifest(key, refs, pack, logical, dedup_hits, pack_key)
        return delay

    def _install_manifest(
        self,
        key: str,
        refs: List[ChunkRef],
        pack: Dict[str, np.ndarray],
        logical: int,
        dedup_hits: int,
        pack_key: Optional[str],
    ) -> None:
        """Client-side bookkeeping once both writes are durable (shared
        by the synchronous store and the pipelined stream commit)."""
        if pack_key is not None:
            self._pack_members[pack_key] = list(pack)
            self._pack_live.setdefault(pack_key, 0)
            for ckey in pack:
                self._home[ckey] = pack_key
        for r in refs:
            n = self._refs.get(r.ckey, 0)
            if n == 0:
                self._pack_live[self._home[r.ckey]] += 1
            self._refs[r.ckey] = n + 1
        self._manifest_refs[key] = [r.ckey for r in refs]
        self.logical_payload_bytes += logical
        self.images_stored += 1
        if self.metrics is not None:
            pack_bytes = int(sum(a.size for a in pack.values()))
            self.metrics.inc("dedup.hits", dedup_hits)
            self.metrics.inc("dedup.misses", len(pack))
            self.metrics.inc("dedup.bytes_saved", logical - pack_bytes)

    def load(self, key: str, now_ns: int) -> Tuple[Any, int]:
        obj, delay = self.inner.load(key, now_ns)
        if not isinstance(obj, ImageManifest):
            return obj, delay
        needed = sorted({self._home[r.ckey] for r in obj.refs})
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
        chunks = [
            Chunk(vma=r.vma, page_index=r.page_index, offset=r.offset, data=payloads[r.ckey])
            for r in manifest.refs
        ]
        return replace(manifest.meta, chunks=chunks)

    # ------------------------------------------------------------------
    # Asynchronous pipeline entry points
    # ------------------------------------------------------------------
    def _engine(self):
        engine = getattr(getattr(self.inner, "storage", None), "engine", None)
        if engine is None:
            raise StorageError(
                "async pipeline requires an engine-attached inner backend "
                "(e.g. ReplicatedStore)"
            )
        return engine

    def store_async(self, key: str, obj: Any, nbytes: int, now_ns: int) -> Completion:
        """Dedup + quorum write returning a completion token (see
        :meth:`ReplicatedStore.store_async`)."""
        delay = self.store(key, obj, nbytes, now_ns)
        return self._engine().completion(delay, value=delay)

    def load_async(self, key: str, now_ns: int) -> Completion:
        """Manifest + pack fetch resolved with the reassembled image."""
        obj, delay = self.load(key, now_ns)
        return self._engine().completion(delay, value=obj)

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
        needed = sorted(
            {
                self._home[r.ckey]
                for obj in manifests.values()
                if isinstance(obj, ImageManifest)
                for r in obj.refs
            }
        )
        payloads: Dict[str, np.ndarray] = {}
        pack_delay = 0
        if needed:
            packs, pack_delay = self.inner.load_parallel(needed, now_ns + delay)
            for pk in needed:
                payloads.update(packs[pk])
        out: Dict[str, Any] = {}
        for k, obj in manifests.items():
            if isinstance(obj, ImageManifest):
                out[k] = self._reassemble(obj, payloads)
            else:
                out[k] = obj
        return out, delay + pack_delay

    def open_stream(self, key: str, now_ns: int) -> "DedupWriteStream":
        """Open a pipelined dedup write (COW drain path)."""
        return DedupWriteStream(self, key, now_ns)

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

    def delete(self, key: str) -> None:
        """Drop a manifest; packs follow when their last reference dies."""
        ckeys = self._manifest_refs.pop(key, None)
        self.inner.delete(key)
        if ckeys is None:
            return
        for ckey in ckeys:
            n = self._refs.get(ckey, 0)
            if n > 1:
                self._refs[ckey] = n - 1
                continue
            self._refs.pop(ckey, None)
            home = self._home.get(ckey)
            if home is None:
                continue
            self._pack_live[home] -= 1
            if self._pack_live[home] <= 0:
                for member in self._pack_members.pop(home, []):
                    self._home.pop(member, None)
                    self._refs.pop(member, None)
                self._pack_live.pop(home, None)
                self.inner.delete(home)

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
    instantly.  :meth:`commit` seals the pack, writes the manifest, and
    installs the refcount bookkeeping -- identical end state and metric
    stream to a synchronous :meth:`ContentStore.store` of the same
    image.
    """

    def __init__(self, cs: ContentStore, key: str, now_ns: int) -> None:
        if key in cs._manifest_refs:
            # Overwrite of an existing generation: release the old refs
            # first (exactly as the synchronous store does) so refcounts
            # stay exact.
            cs.delete(key)
        self.cs = cs
        self.key = key
        self.pack_key = f"{key}.pack"
        self.opened_ns = now_ns
        self.committed = False
        self._inner_stream = None  # the pack, under pack_key
        self._raw_stream = None  # a non-image object, under key
        self.refs: List[ChunkRef] = []
        self.pack: Dict[str, np.ndarray] = {}
        self.logical = 0
        self.dedup_hits = 0
        self.sent_bytes = 0  # unique payload bytes actually on the wire

    def send_chunk(self, chunk: Chunk, now_ns: int) -> int:
        """Fingerprint one extent; stream its unique bytes.  Returns the
        delay at which those bytes are quorum-durable (0 for an extent
        that dedups completely)."""
        cs = self.cs
        new_bytes = 0
        for c in chunk.split_pages():
            payload = np.ascontiguousarray(c.data)
            ckey = f"{payload_digest(payload):016x}-{payload.size}"
            self.refs.append(
                ChunkRef(c.vma, c.page_index, c.offset, int(payload.size), ckey)
            )
            self.logical += int(payload.size)
            if ckey not in cs._home and ckey not in self.pack:
                self.pack[ckey] = np.array(payload, copy=True)
                new_bytes += int(payload.size)
            else:
                self.dedup_hits += 1
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
        delay = 0
        pack_key: Optional[str] = None
        if self.pack:
            pack_key = self.pack_key
            pack_bytes = int(sum(a.size for a in self.pack.values()))
            if self._inner_stream is None:
                self._inner_stream = cs.inner.open_stream(pack_key, now_ns)
            delay += self._inner_stream.commit(self.pack, pack_bytes, now_ns)
            cs.unique_payload_bytes += pack_bytes
        meta = replace(obj, chunks=[])
        manifest = ImageManifest(
            key=self.key, meta=meta, refs=self.refs, pack_key=pack_key
        )
        manifest_bytes = meta.size_bytes + REF_RECORD_BYTES * len(self.refs)
        delay += cs.inner.store(self.key, manifest, manifest_bytes, now_ns + delay)
        cs._install_manifest(
            self.key, self.refs, self.pack, self.logical, self.dedup_hits, pack_key
        )
        return delay
