"""Reed-Solomon k+m erasure-coded stable storage.

Replication multiplies every checkpoint byte by the replica count; the
post-paper petascale C/R systems (and the OpenCHK multi-level work)
instead stripe each blob into ``k`` data shards plus ``m`` parity
shards, so any ``k`` of the ``k+m`` shards reconstruct the blob while
the physical overhead is only ``(k+m)/k`` -- rf=3 durability at half
the bytes for a 4+2 code.

Two layers live here:

* A pure-python (NumPy-vectorized) systematic Reed-Solomon codec over
  GF(2^8): :func:`rs_encode`, :func:`rs_decode`,
  :func:`rs_update_parity`, :func:`rs_rebuild_shards`.  Parity rows
  come from a Cauchy matrix, so every k-subset of the ``k+m`` generator
  rows is invertible -- the MDS property the "any k of k+m" guarantee
  rests on.  The hot loops run through *pair-packed product tables*
  (see :func:`_packed_tables`): one 65536-entry gather per input row
  computes all parity rows for two payload bytes at once, which is what
  lifts encode from ~160 MB/s (per-coefficient row gathers) past
  800 MB/s.  Generator matrices, packed tables and the Gauss-Jordan
  decode inverses are all memoized, and long stripes are encoded in
  bounded column chunks so the working set stays cache-resident
  (wall-clock only -- virtual-time charges never depend on kernel
  internals).
* :class:`ErasureStore` -- a peer of
  :class:`~repro.stablestore.ReplicatedStore` behind the same
  :class:`~repro.storage.backends.StorageBackend` protocol (including
  the pipelined :class:`ErasureWriteStream` and the dirty-delta
  :class:`DeltaWriteStream`), placing the ``k+m`` shards on distinct
  storage servers by rendezvous hashing.  Reads gather any ``k`` live
  shards in parallel (data shards preferred; parity involvement is a
  *degraded read*), :meth:`ErasureStore.store_delta` re-protects an
  f-dirty update at O(f) cost by exploiting GF linearity
  (``parity' = parity xor G . delta``), and :class:`ErasureRepairer`
  re-encodes lost shards in the background on
  :class:`~repro.stablestore.ReplicationRepairer`'s scan cadence --
  several missing shards of one key are rebuilt from a single decode
  pass.

Bytes-like blobs (``bytes``/``bytearray``/``memoryview`` and uint8
NumPy arrays) are striped through the real codec, so a degraded read
genuinely reconstructs the payload from shard bytes.  Other simulation
objects (checkpoint images carry live workload references that must
not be copied) are sharded *opaquely*: the accounting, placement and
the k-of-k+m availability rule are identical, but reconstruction hands
back the object reference instead of re-decoding serialized bytes.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import StorageError, StorageLostError
from ..storage.backends import StorageBackend, WriteStream
from .repair import ReplicationRepairer
from .replicated import QuorumStore, QuorumWriteStream
from .server import StorageCluster, StorageServer, StorageServerState

__all__ = [
    "rs_encode",
    "rs_decode",
    "rs_update_parity",
    "rs_rebuild_shard",
    "rs_rebuild_shards",
    "merge_extents",
    "KERNEL_STATS",
    "reset_kernel_stats",
    "Shard",
    "ErasureStore",
    "ErasureWriteStream",
    "DeltaWriteStream",
    "ErasureRepairer",
]


# ----------------------------------------------------------------------
# GF(2^8) arithmetic (primitive polynomial x^8+x^4+x^3+x^2+1 = 0x11d)
# ----------------------------------------------------------------------
def _build_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= 0x11D
    exp[255:510] = exp[:255]
    # Full 256x256 product table: mul[a, b] = a*b in GF(2^8).  64 KiB
    # once at import buys branch-free vectorized coding below.
    la = log[:, None] + log[None, :]
    mul = exp[la]
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


_GF_EXP, _GF_LOG, _GF_MUL = _build_tables()

#: Pair-index split of a little-endian uint16: entry v holds the two
#: payload bytes (v & 0xff, v >> 8).  Used to build the packed tables.
_PAIR_LO = (np.arange(65536, dtype=np.uint32) & 0xFF).astype(np.uint8)
_PAIR_HI = (np.arange(65536, dtype=np.uint32) >> 8).astype(np.uint8)

#: Columns processed per kernel pass.  Bounds the working set of a long
#: stripe encode/decode to ~cache size so striping streams instead of
#: thrashing; 64 KiB is even (the pair kernel consumes byte pairs).
_CODE_CHUNK = 1 << 16

#: Wall-clock kernel accounting: bytes fed through the GF multiply
#: kernels per API.  The CI smoke uses these counters to prove a
#: 10%-dirty delta update moves >= 3x fewer kernel bytes than a full
#: re-encode; they have no effect on virtual-time charges.
KERNEL_STATS: Dict[str, int] = {
    "encode_calls": 0,
    "encode_bytes": 0,
    "decode_calls": 0,
    "decode_bytes": 0,
    "delta_calls": 0,
    "delta_bytes": 0,
}


def reset_kernel_stats() -> None:
    """Zero the :data:`KERNEL_STATS` counters (benchmark/CI harness)."""
    for key in KERNEL_STATS:
        KERNEL_STATS[key] = 0


def _gf_inv(a: int) -> int:
    if a == 0:
        raise StorageError("GF(2^8) zero has no inverse")
    return int(_GF_EXP[255 - _GF_LOG[a]])


@functools.lru_cache(maxsize=None)
def _cauchy_rows(k: int, m: int) -> np.ndarray:
    """The m x k parity block: C[i][j] = 1/(x_i + y_j) with distinct
    x_i = i and y_j = m + j.  Every square submatrix of a Cauchy matrix
    is nonsingular, which makes [I_k ; C] an MDS generator.  Memoized
    per (k, m) -- the seed rebuilt it on every encode/decode call --
    and returned read-only so cache hits cannot be corrupted."""
    rows = np.zeros((m, k), dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            rows[i, j] = _gf_inv(i ^ (m + j))
    rows.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=128)
def _packed_tables(mat_bytes: bytes, r: int, q: int) -> Tuple[np.ndarray, ...]:
    """Pair-packed product tables for an (r x q) GF coefficient matrix.

    Table ``j`` has 65536 entries; entry ``v`` packs, for every output
    row ``i``, the two products ``matrix[i, j] * (v & 0xff)`` and
    ``matrix[i, j] * (v >> 8)`` at byte lanes ``2i`` and ``2i + 1``.
    The matmul kernel then gathers one table entry per *pair* of input
    bytes and XOR-folds across the q input rows -- r times fewer
    gathers than per-coefficient row lookups, and ``np.take`` on the
    flat table avoids fancy-indexing overhead.  uint32 entries when two
    output rows fit (m <= 2 parity), uint64 up to four.
    """
    matrix = np.frombuffer(mat_bytes, dtype=np.uint8).reshape(r, q)
    dtype = np.uint32 if r <= 2 else np.uint64
    tables: List[np.ndarray] = []
    for j in range(q):
        packed = np.zeros(65536, dtype=dtype)
        for i in range(r):
            c = int(matrix[i, j])
            if not c:
                continue
            row = _GF_MUL[c]
            packed |= row.take(_PAIR_LO).astype(dtype) << dtype(16 * i)
            packed |= row.take(_PAIR_HI).astype(dtype) << dtype(16 * i + 8)
        packed.setflags(write=False)
        tables.append(packed)
    return tuple(tables)


def _gf_matmul(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(r x q) GF matrix times (q x L) byte rows -> (r x L) byte rows.

    Pair-packed kernel for r <= 4 on little-endian hosts (the common
    encode/decode shapes); otherwise a per-row ``np.take`` gather loop,
    itself ~2x the seed's fancy-indexing row lookups.
    """
    r, q = matrix.shape
    length = rows.shape[1]
    if length == 0:
        return np.zeros((r, 0), dtype=np.uint8)
    if r > 4 or sys.byteorder != "little":
        out = np.zeros((r, length), dtype=np.uint8)
        for i in range(r):
            acc = out[i]
            for j in range(q):
                c = int(matrix[i, j])
                if c:
                    acc ^= _GF_MUL[c].take(rows[j])
        return out
    if length % 2:
        padded = np.zeros((q, length + 1), dtype=np.uint8)
        padded[:, :length] = rows
        return _gf_matmul(matrix, padded)[:, :length]
    tables = _packed_tables(matrix.tobytes(), r, q)
    acc = tables[0].take(_pairs(rows[0]))
    for j in range(1, q):
        acc ^= tables[j].take(_pairs(rows[j]))
    # Unpack: output row i lives at 16-bit lane i of each entry, so one
    # transpose-copy of the uint16 lane view yields all r rows at once.
    slots = acc.dtype.itemsize // 2
    lanes = acc.view(np.uint16).reshape(length // 2, slots)
    return np.ascontiguousarray(lanes.T[:r]).view(np.uint8).reshape(r, length)


def _pairs(row: np.ndarray) -> np.ndarray:
    """An even-length byte row viewed as little-endian uint16 pairs."""
    if not row.flags.c_contiguous:
        row = np.ascontiguousarray(row)
    return row.view(np.uint16)


def _matmul_streamed(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Chunked :func:`_gf_matmul`: bounded working set for long stripes."""
    length = rows.shape[1]
    if length <= _CODE_CHUNK:
        return _gf_matmul(matrix, rows)
    out = np.empty((matrix.shape[0], length), dtype=np.uint8)
    for lo in range(0, length, _CODE_CHUNK):
        hi = min(length, lo + _CODE_CHUNK)
        out[:, lo:hi] = _gf_matmul(matrix, rows[:, lo:hi])
    return out


def _gf_invert(matrix: np.ndarray) -> np.ndarray:
    """Invert a k x k matrix over GF(2^8) by Gauss-Jordan."""
    k = matrix.shape[0]
    a = matrix.astype(np.uint8).copy()
    inv = np.eye(k, dtype=np.uint8)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r, col]), None)
        if pivot is None:
            raise StorageError("singular shard matrix (duplicate shard indices?)")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        piv_inv = _gf_inv(int(a[col, col]))
        a[col] = _GF_MUL[piv_inv][a[col]]
        inv[col] = _GF_MUL[piv_inv][inv[col]]
        for r in range(k):
            if r != col and a[r, col]:
                c = int(a[r, col])
                a[r] ^= _GF_MUL[c][a[col]]
                inv[r] ^= _GF_MUL[c][inv[col]]
    return inv


@functools.lru_cache(maxsize=512)
def _decode_matrix(k: int, m: int, have: Tuple[int, ...]) -> np.ndarray:
    """Memoized Gauss-Jordan inverse for one survivor-index tuple.

    A degraded read of the same (k, m, survivors) shape -- every read
    during one server outage -- pays the O(k^3) inversion once."""
    cauchy = _cauchy_rows(k, m)
    matrix = np.zeros((k, k), dtype=np.uint8)
    for row, idx in enumerate(have):
        if idx < k:
            matrix[row, idx] = 1
        else:
            matrix[row] = cauchy[idx - k]
    inv = _gf_invert(matrix)
    inv.setflags(write=False)
    return inv


def _check_km(k: int, m: int) -> None:
    if k < 1 or m < 1:
        raise StorageError(f"erasure code needs k >= 1 and m >= 1 (got {k}+{m})")
    if k + m > 256:
        raise StorageError(f"GF(2^8) code supports k+m <= 256 (got {k + m})")


def merge_extents(
    extents: Iterable[Tuple[int, int]], limit: int
) -> List[Tuple[int, int]]:
    """Normalize dirty (offset, length) extents against a payload size.

    Clips to ``[0, limit)``, drops empty runs, sorts, and merges
    overlapping or adjacent runs.  The canonical form every delta entry
    point reduces caller extents to before touching parity.
    """
    spans: List[Tuple[int, int]] = []
    for off, length in extents:
        a = max(0, int(off))
        b = min(int(limit), int(off) + int(length))
        if b > a:
            spans.append((a, b))
    spans.sort()
    merged: List[List[int]] = []
    for a, b in spans:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b - a) for a, b in merged]


def rs_encode(payload: bytes, k: int, m: int) -> List[bytes]:
    """Stripe ``payload`` into ``k`` data + ``m`` parity shards.

    The code is systematic: shards ``0..k-1`` are the (zero-padded)
    payload slices, shards ``k..k+m-1`` are Cauchy parity.  Every shard
    is ``ceil(len(payload)/k)`` bytes.  k-aligned payloads reshape
    zero-copy (``frombuffer``); parity streams through the packed-table
    kernel in bounded column chunks.
    """
    _check_km(k, m)
    if not isinstance(payload, bytes):
        payload = bytes(payload)
    plen = len(payload)
    shard_len = -(-plen // k)
    if plen == k * shard_len and plen:
        data = np.frombuffer(payload, dtype=np.uint8).reshape(k, shard_len)
        data_shards = [payload[i * shard_len : (i + 1) * shard_len] for i in range(k)]
    else:
        data = np.zeros((k, shard_len), dtype=np.uint8)
        if plen:
            data.reshape(-1)[:plen] = np.frombuffer(payload, dtype=np.uint8)
        data_shards = [data[i].tobytes() for i in range(k)]
    KERNEL_STATS["encode_calls"] += 1
    KERNEL_STATS["encode_bytes"] += k * shard_len
    parity = _matmul_streamed(_cauchy_rows(k, m), data)
    return data_shards + [parity[i].tobytes() for i in range(m)]


def rs_decode(
    shards: Mapping[int, bytes], k: int, m: int, payload_len: int
) -> bytes:
    """Reconstruct the original payload from any ``k`` of ``k+m`` shards.

    ``shards`` maps shard index -> shard bytes; indices ``>= k`` are
    parity.  Raises :class:`~repro.errors.StorageError` when fewer than
    ``k`` shards are supplied.
    """
    _check_km(k, m)
    if len(shards) < k:
        raise StorageError(
            f"need {k} shards to reconstruct, have {len(shards)}"
        )
    have = sorted(shards)[:k]
    shard_len = -(-payload_len // k)
    if have == list(range(k)):
        # All data shards present: plain systematic concatenation.
        return b"".join(bytes(shards[i]) for i in range(k))[:payload_len]
    stacked = np.zeros((k, shard_len), dtype=np.uint8)
    for row, idx in enumerate(have):
        buf = np.frombuffer(shards[idx], dtype=np.uint8)
        if buf.shape[0] != shard_len:
            raise StorageError(
                f"shard {idx} is {buf.shape[0]} bytes, expected {shard_len}"
            )
        stacked[row] = buf
    KERNEL_STATS["decode_calls"] += 1
    KERNEL_STATS["decode_bytes"] += k * shard_len
    data = _matmul_streamed(_decode_matrix(k, m, tuple(have)), stacked)
    return data.reshape(-1).tobytes()[:payload_len]


def rs_update_parity(
    old_parity: Sequence[bytes],
    dirty_offsets: Iterable[Tuple[int, int]],
    old_bytes: bytes,
    new_bytes: bytes,
    k: int,
    m: int,
) -> List[bytes]:
    """Delta-update the ``m`` parity shards for a partially dirty payload.

    GF(2^8) addition is XOR, so parity is linear in the payload:
    ``parity' = parity xor G . (old xor new)``.  Only the dirty extents
    contribute to the delta, so an update with dirty fraction ``f``
    costs O(f * m) multiply-gathers instead of the full O(k * m)
    re-encode -- and is **byte-identical** to
    ``rs_encode(new_bytes, k, m)[k:]`` (the property the CI smoke and
    the hypothesis suite gate).

    Parameters
    ----------
    old_parity:
        The current ``m`` parity shards (``ceil(len/k)`` bytes each).
    dirty_offsets:
        ``(offset, length)`` byte extents of the payload that may
        differ; they are clipped, merged and may overlap.  Clean bytes
        inside a declared extent cost kernel work but stay correct
        (their delta is zero).
    old_bytes / new_bytes:
        The previous and current payloads; must be the same length.
    """
    _check_km(k, m)
    if len(old_bytes) != len(new_bytes):
        raise StorageError(
            f"delta parity update needs equal payload sizes "
            f"(old {len(old_bytes)}, new {len(new_bytes)})"
        )
    plen = len(new_bytes)
    shard_len = -(-plen // k)
    if len(old_parity) != m:
        raise StorageError(
            f"expected {m} parity shards, got {len(old_parity)}"
        )
    parity_in = [bytes(p) for p in old_parity]
    for i, p in enumerate(parity_in):
        if len(p) != shard_len:
            raise StorageError(
                f"parity shard {i} is {len(p)} bytes, expected {shard_len}"
            )
    KERNEL_STATS["delta_calls"] += 1
    runs = merge_extents(dirty_offsets, plen)
    if not runs or shard_len == 0:
        return parity_in
    parity = np.stack([np.frombuffer(p, dtype=np.uint8) for p in parity_in]).copy()
    old = np.frombuffer(bytes(old_bytes), dtype=np.uint8)
    new = np.frombuffer(bytes(new_bytes), dtype=np.uint8)
    gen = _cauchy_rows(k, m)
    for start, length in runs:
        KERNEL_STATS["delta_bytes"] += length
        end = start + length
        # A run crossing a stripe-row boundary splits: byte p of the
        # payload lives at column p % shard_len of data row p // shard_len.
        while start < end:
            row = start // shard_len
            row_end = min(end, (row + 1) * shard_len)
            col = start - row * shard_len
            delta = old[start:row_end] ^ new[start:row_end]
            span = row_end - start
            for i in range(m):
                parity[i, col : col + span] ^= _GF_MUL[int(gen[i, row])].take(delta)
            start = row_end
    return [parity[i].tobytes() for i in range(m)]


def rs_rebuild_shards(
    shards: Mapping[int, bytes],
    k: int,
    m: int,
    indices: Sequence[int],
    payload_len: int,
) -> Dict[int, bytes]:
    """Re-encode several lost shards from any ``k`` survivors at once.

    One decode pass reconstructs the data rows; requested data shards
    are sliced out and requested parity shards are produced by one
    generator sub-matrix multiply -- instead of a full decode *and*
    full re-encode per missing shard (the seed's
    :func:`rs_rebuild_shard` loop).  Returns ``{index: shard_bytes}``.
    """
    _check_km(k, m)
    for index in indices:
        if not 0 <= index < k + m:
            raise StorageError(f"shard index {index} outside 0..{k + m - 1}")
    shard_len = -(-payload_len // k)
    payload = rs_decode(shards, k, m, k * shard_len)
    out: Dict[int, bytes] = {}
    parity_rows = sorted({i - k for i in set(indices) if i >= k})
    if parity_rows and shard_len:
        data = np.frombuffer(payload, dtype=np.uint8).reshape(k, shard_len)
        gen = np.ascontiguousarray(_cauchy_rows(k, m)[parity_rows])
        parity = _matmul_streamed(gen, data)
        computed = {pr: parity[row] for row, pr in enumerate(parity_rows)}
    else:
        computed = {}
    for index in indices:
        if shard_len == 0:
            out[index] = b""
        elif index < k:
            out[index] = payload[index * shard_len : (index + 1) * shard_len]
        else:
            out[index] = computed[index - k].tobytes()
    return out


def rs_rebuild_shard(
    shards: Mapping[int, bytes], k: int, m: int, index: int, payload_len: int
) -> bytes:
    """Re-encode one lost shard (data or parity) from any ``k`` others."""
    return rs_rebuild_shards(shards, k, m, [index], payload_len)[index]


# ----------------------------------------------------------------------
# The erasure-coded storage client
# ----------------------------------------------------------------------
@dataclass
class Shard:
    """One stored shard of an erasure-coded blob."""

    index: int
    k: int
    m: int
    #: Coded shard bytes for bytes-like blobs; None for opaque objects.
    payload: Optional[bytes]
    #: Serialized payload length ("bytes"/"u8" kinds) for truncation.
    payload_len: int
    #: "bytes", "u8" (uint8 ndarray) or "opaque".
    payload_kind: str
    #: The object reference for opaque (non-bytes-like) blobs.
    obj: Any = None


#: Server-side key suffix for shard entries.  An ErasureStore may share
#: a StorageCluster with a ReplicatedStore (one failure domain, two
#: redundancy schemes); namespacing keeps a blob's shards from
#: clobbering its whole-object replicas under the same key.
_SHARD_SUFFIX = "#ec"


def _skey(key: str) -> str:
    return key + _SHARD_SUFFIX


def _payload_of(obj: Any) -> Tuple[Optional[bytes], str]:
    """Canonical byte payload of a blob, or (None, "opaque")."""
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return bytes(obj), "bytes"
    if isinstance(obj, np.ndarray) and obj.dtype == np.uint8 and obj.ndim == 1:
        return obj.tobytes(), "u8"
    return None, "opaque"


class ErasureStore(QuorumStore):
    """k+m Reed-Solomon striping over N storage servers.

    A peer of :class:`~repro.stablestore.ReplicatedStore` on the same
    :class:`~repro.stablestore.replicated.QuorumStore` core: same
    rendezvous placement, same sloppy walk past failed servers (each
    costs ``timeout + backoff``), same
    :class:`~repro.errors.StorageLostError` contract -- but each blob
    becomes ``k+m`` shards of ``ceil(nbytes/k)`` accounted bytes on
    ``k+m`` distinct servers, any ``k`` of which reconstruct it.

    Parameters
    ----------
    storage:
        The :class:`StorageCluster` holding servers and the shared link.
    data_shards / parity_shards:
        The code: ``k`` data plus ``m`` parity shards per blob.
    write_shards:
        Shards that must be durable before a write returns; defaults to
        the full stripe ``k+m`` (anything less leaves freshly written
        blobs below full failure tolerance until the repairer catches
        up). Must be at least ``k``.
    """

    def __init__(
        self,
        storage: StorageCluster,
        data_shards: int = 4,
        parity_shards: int = 2,
        write_shards: Optional[int] = None,
    ) -> None:
        _check_km(data_shards, parity_shards)
        n = len(storage.servers)
        if data_shards + parity_shards > n:
            raise StorageError(
                f"{data_shards}+{parity_shards} code needs at least "
                f"{data_shards + parity_shards} servers, cluster has {n}"
            )
        super().__init__(storage)
        self.k = data_shards
        self.m = parity_shards
        self.write_shards = (
            write_shards if write_shards is not None else data_shards + parity_shards
        )
        self._check_range("write_shards", self.write_shards, self.k, self.k + self.m)
        self.degraded_reads = 0
        # Dirty-delta update statistics.
        self.delta_writes = 0
        self.delta_fallbacks = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def shard_size(self, nbytes: int) -> int:
        """Accounted bytes of one shard of an ``nbytes`` blob."""
        return -(-int(nbytes) // self.k)

    def shard_holders(self, key: str) -> Dict[int, StorageServer]:
        """shard index -> reachable holding server."""
        # The repairers call this for every key every few milliseconds,
        # so each server costs one replica lookup and one state test.
        skey = _skey(key)
        up = StorageServerState.UP
        out: Dict[int, StorageServer] = {}
        for server in self.candidates(key):
            entry = server.replicas.get(skey)
            if entry is None or server.state is not up:
                continue
            shard = entry[0]
            if isinstance(shard, Shard) and shard.index not in out:
                out[shard.index] = server
        return out

    def shard_count(self, key: str) -> int:
        """Distinct live shards of ``key``."""
        return len(self.shard_holders(key))

    def under_replicated(self) -> List[str]:
        """Keys that are readable but missing shards (repairable)."""
        full = self.k + self.m
        return [
            k
            for k in sorted(self._directory)
            if self.k <= self.shard_count(k) < full
        ]

    def lost_keys(self) -> List[str]:
        """Keys with fewer than ``k`` live shards (currently lost)."""
        return [
            k for k in sorted(self._directory) if self.shard_count(k) < self.k
        ]

    # ------------------------------------------------------------------
    # Coding helpers
    # ------------------------------------------------------------------
    def _encode(self, obj: Any) -> List[Shard]:
        payload, kind = _payload_of(obj)
        if payload is None:
            return [
                Shard(i, self.k, self.m, None, 0, "opaque", obj)
                for i in range(self.k + self.m)
            ]
        coded = rs_encode(payload, self.k, self.m)
        return [
            Shard(i, self.k, self.m, coded[i], len(payload), kind)
            for i in range(self.k + self.m)
        ]

    def _reconstruct(self, key: str, shards: Dict[int, Shard]) -> Any:
        first = next(iter(shards.values()))
        if first.payload_kind == "opaque":
            return first.obj
        payload = rs_decode(
            {i: s.payload for i, s in shards.items()},
            self.k,
            self.m,
            first.payload_len,
        )
        if first.payload_kind == "u8":
            return np.frombuffer(payload, dtype=np.uint8).copy()
        return payload

    # ------------------------------------------------------------------
    # StorageBackend protocol
    # ------------------------------------------------------------------
    #: The one synchronous write: :class:`ErasureWriteStream` opened and
    #: committed at once (named here so per-class tracing can wrap it).
    store = StorageBackend.store

    def store_delta(
        self,
        key: str,
        obj: Any,
        nbytes: int,
        dirty_extents: Iterable[Tuple[int, int]],
        now_ns: int,
        base_key: Optional[str] = None,
    ) -> int:
        """Re-protect an f-dirty update at O(f) cost (GF linearity).

        Updates the stripe of ``base_key`` (default: ``key`` itself, an
        in-place refresh) to ``obj``'s content by shipping only the
        dirty extents: touched data shards are patched, the ``m``
        parity shards are delta-updated via :func:`rs_update_parity`,
        and untouched data shards are left (in place) or renamed
        (``base_key != key``: the stripe *rebases* to the new key with
        zero device traffic for clean shards -- how a compacted flat
        image moves forward with its chain tip).  The resulting stripe
        is byte-identical to a full :meth:`store` of ``obj``.

        The delta path needs every one of the base's ``k+m`` shards
        live and a bytes-compatible payload; when any precondition
        fails it **falls back** to a full :meth:`store` (counted in
        ``delta_fallbacks`` / ``storage.delta_fallbacks``), so callers
        can use it unconditionally.
        """
        metrics = self.storage.engine.metrics
        try:
            stream = self.open_delta_stream(
                key, dirty_extents, now_ns, base_key=base_key
            )
            return stream.commit(obj, nbytes, now_ns)
        except StorageError:  # includes StorageLostError
            self.delta_fallbacks += 1
            metrics.inc("storage.delta_fallbacks")
            return self.store(key, obj, nbytes, now_ns)

    def load(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Gather any ``k`` live shards in parallel and reconstruct.

        Data shards are preferred; any parity involvement counts as a
        *degraded read* (the decode matrix must be inverted).  All
        ``k`` shard fetches are issued at ``now_ns`` -- shards live on
        distinct disks, so the delay is the slowest fetch, not the sum.
        Erasure reads are already a parallel shard fan-in, so this is
        also the store's ``load_fanout``.
        """
        nbytes = self._require_key(key)
        holders = self.shard_holders(key)
        if len(holders) < self.k:
            raise self._lost(
                "read",
                f"erasure read failed for {key!r}: {len(holders)} live "
                f"shards, {self.k} required",
            )
        chosen = sorted(holders)[: self.k]
        worst = self._gather(
            [(holders[i], 0) for i in chosen], self.shard_size(nbytes), now_ns
        )
        gathered = {i: holders[i].replicas[_skey(key)][0] for i in chosen}
        metrics = self.storage.engine.metrics
        if any(i >= self.k for i in chosen):
            self.degraded_reads += 1
            metrics.inc("storage.degraded_reads")
        obj = self._reconstruct(key, gathered)
        self.bytes_read += nbytes
        metrics.inc("storage.erasure_reads")
        metrics.observe("storage.read_ns", worst)
        return obj, worst

    #: Restore prefetch: the base fan-out loop (whose default
    #: ``load_fanout`` is :meth:`load`), named here for per-class tracing.
    load_parallel = StorageBackend.load_parallel

    def open_stream(self, key: str, now_ns: int) -> "ErasureWriteStream":
        """Open a pipelined multi-extent striped write (COW drain path)."""
        return ErasureWriteStream(self, key)

    def open_delta_stream(
        self,
        key: str,
        dirty_extents: Iterable[Tuple[int, int]],
        now_ns: int,
        base_key: Optional[str] = None,
    ) -> "DeltaWriteStream":
        """Open a pipelined dirty-delta update of an existing stripe.

        Raises :class:`~repro.errors.StorageLostError` when the base
        stripe is not fully live (the delta path cannot tolerate a
        missing shard: every parity and every touched data shard must
        be updated, and untouched shards must survive to keep the
        stripe consistent).
        """
        return DeltaWriteStream(self, key, dirty_extents, base_key=base_key)

    def exists(self, key: str) -> bool:
        """Whether a read of ``key`` would currently succeed."""
        return key in self._directory and self.shard_count(key) >= self.k

    def peek(self, key: str) -> Any:
        """Inspect a blob without charging I/O (availability and chain walks)."""
        self._require_key(key)
        holders = self.shard_holders(key)
        if len(holders) < self.k:
            raise StorageLostError(
                f"fewer than {self.k} reachable shards of {key!r}"
            )
        gathered = {
            i: holders[i].replicas[_skey(key)][0] for i in sorted(holders)[: self.k]
        }
        return self._reconstruct(key, gathered)

    #: Named here so per-class tracing can wrap it.
    delete = StorageBackend.delete

    def _drop(self, key: str) -> None:
        """Drop every shard (idempotent)."""
        self._forget(key)
        for server in self.storage.servers:
            server.drop_replica(_skey(key))

    def physical_bytes(self) -> int:
        """Shard bytes actually on server disks (~ (k+m)/k per logical).

        Counts only this store's shard entries, so the figure stays
        honest when the cluster is shared with a ReplicatedStore.
        """
        return sum(
            rn
            for s in self.storage.servers
            for rkey, (_o, rn) in s.replicas.items()
            if rkey.endswith(_SHARD_SUFFIX)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ErasureStore {self.k}+{self.m} "
            f"keys={len(self._directory)}>"
        )


class ErasureWriteStream(QuorumWriteStream):
    """A quorum write of one blob's ``k+m`` shards.

    The :class:`~repro.stablestore.replicated.QuorumWriteStream` walk
    pins up to ``k+m`` servers, shard index by placement order, and
    ``write_shards`` of them must ack.  Each server gets
    ``ceil(nbytes/k)`` bytes per ``nbytes`` sent, and at commit its
    shard of the finished object, encoded through :func:`rs_encode`'s
    bounded-chunk streaming kernel (so even a huge stripe never
    materializes more than ``k * _CODE_CHUNK`` working bytes at once).
    """

    what = "erasure write"
    unit = "shards"

    def __init__(self, store: ErasureStore, key: str) -> None:
        super().__init__(store, key, store.k + store.m, store.write_shards)

    #: Named here so per-class tracing can wrap them.
    send = QuorumWriteStream.send
    commit = QuorumWriteStream.commit

    def _server_bytes(self, nbytes: int) -> int:
        return self.store.shard_size(nbytes)

    def _publish(self, obj: Any, nbytes: int, delay: int) -> None:
        st = self.store
        shards = st._encode(obj)
        snb = st.shard_size(nbytes)
        live = [(s, shards[i]) for i, s in enumerate(self.servers) if s.up]
        for server, shard in live:
            server.put_replica(_skey(self.key), shard, snb)
        st._directory[self.key] = nbytes
        st.bytes_written += snb * len(live)
        metrics = st.storage.engine.metrics
        metrics.inc("storage.erasure_writes")
        metrics.inc("storage.shard_bytes_written", snb * len(live))
        metrics.observe("storage.write_ns", delay)


class DeltaWriteStream(WriteStream):
    """A pipelined dirty-delta update of one existing erasure stripe.

    Speaks the same ``WriteStream`` protocol as
    :class:`ErasureWriteStream` (``send`` / ``send_chunk`` /
    ``commit``), so :class:`~repro.stablestore.WritebackPipeline`,
    dedup wrappers and the hierarchy compose with delta updates
    unchanged -- but the unit of traffic is the *dirty* bytes, not the
    blob.

    Cost model (a new API, so its virtual-time charges are defined
    here; the pre-existing full-store formulas are untouched):

    * each :meth:`send` forwards one dirty extent's shard slices
      (``ceil(nbytes/k)``) to all ``k+m`` stripe holders, exactly like
      the full stream's send;
    * :meth:`commit` first *reads back* the stale bytes of every dirty
      run from its data shard's server (the read-modify-write a real
      delta-parity update performs: ``delta = old xor new``), then
      ships the remaining delta shard slices --
      ``max(0, ceil(D/k) - sent)`` per holder, where ``D`` is the
      merged dirty-byte total -- in one link+disk submit per server,
      mirroring the full stream's single-remainder-submit shape.  The
      client-visible delay is the read fan-in plus the
      ``write_shards``-th write.

    The stream requires the base's full ``k+m`` stripe live at open
    *and* at commit (a delta update must touch every parity shard, and
    clean shards must survive to stay part of the stripe); otherwise
    :class:`~repro.errors.StorageLostError`.  Payload preconditions
    (bytes-compatible kinds, equal payload length) raise
    :class:`~repro.errors.StorageError` *before* any device charge, so
    :meth:`ErasureStore.store_delta` can fall back to a clean full
    store.  ``base_key != key`` rebases the stripe: untouched shards
    are renamed server-side with zero device traffic.
    """

    def __init__(
        self,
        store: ErasureStore,
        key: str,
        dirty_extents: Iterable[Tuple[int, int]],
        base_key: Optional[str] = None,
    ) -> None:
        super().__init__(store, key)
        self.store = store
        self.base_key = base_key if base_key is not None else key
        self.extents: List[Tuple[int, int]] = [
            (int(o), int(n)) for o, n in dirty_extents
        ]
        self.sent_shard_bytes = 0
        if self.base_key not in store._directory:
            raise StorageError(
                f"delta update of {key!r}: base {self.base_key!r} not stored"
            )
        self.holders = self._full_stripe()

    def _full_stripe(self) -> Dict[int, StorageServer]:
        """All k+m live holders of the base stripe, or StorageLostError."""
        st = self.store
        holders = st.shard_holders(self.base_key)
        if len(holders) < st.k + st.m:
            st.storage.engine.metrics.inc("storage.delta_stripe_unavailable")
            raise StorageLostError(
                f"delta update of {self.key!r} needs the full stripe of "
                f"{self.base_key!r} live: {len(holders)} of {st.k + st.m} "
                f"shards reachable"
            )
        return holders

    def send(self, nbytes: int, now_ns: int) -> int:
        """Forward one dirty extent's shard slices to every holder."""
        holders = self._full_stripe()
        st = self.store
        snb = st.shard_size(nbytes)
        delay = st._fan_out(
            [(s, 0) for s in holders.values()], snb, now_ns, st.write_shards
        )
        self.sent_bytes += int(nbytes)
        self.sent_shard_bytes += snb
        return delay

    # ------------------------------------------------------------------
    def _new_shards(
        self, obj: Any, nbytes: int, base_shards: Dict[int, Shard]
    ) -> Tuple[List[Shard], Dict[int, int], List[Tuple[int, int]]]:
        """Build the updated stripe without re-encoding clean rows.

        Returns ``(shards, dirty_by_row, accounting_runs)`` where
        ``dirty_by_row`` maps touched *data* rows to their dirty byte
        counts (the commit's read-back phase) -- empty for opaque
        payloads, which carry no codable bytes.
        """
        st = self.store
        payload, kind = _payload_of(obj)
        first = base_shards[0]
        if (kind == "opaque") != (first.payload_kind == "opaque"):
            raise StorageError(
                f"delta update of {self.key!r}: payload kind changed "
                f"({first.payload_kind!r} -> {kind!r})"
            )
        runs_acct = merge_extents(self.extents, nbytes)
        if kind == "opaque":
            shards = [
                Shard(i, st.k, st.m, None, 0, "opaque", obj)
                for i in range(st.k + st.m)
            ]
            return shards, {}, runs_acct
        if len(payload) != first.payload_len:
            raise StorageError(
                f"delta update of {self.key!r}: payload length changed "
                f"({first.payload_len} -> {len(payload)}); delta parity "
                f"needs equal sizes"
            )
        shard_len = -(-len(payload) // st.k)
        runs = merge_extents(self.extents, len(payload))
        old_payload = b"".join(base_shards[i].payload for i in range(st.k))[
            : first.payload_len
        ]
        old_parity = [base_shards[st.k + i].payload for i in range(st.m)]
        new_parity = rs_update_parity(
            old_parity, runs, old_payload, payload, st.k, st.m
        )
        dirty_by_row: Dict[int, int] = {}
        if shard_len:
            for start, length in runs:
                end = start + length
                while start < end:
                    row = start // shard_len
                    row_end = min(end, (row + 1) * shard_len)
                    dirty_by_row[row] = dirty_by_row.get(row, 0) + (row_end - start)
                    start = row_end
        shards: List[Shard] = []
        for row in range(st.k):
            if row in dirty_by_row:
                seg = payload[row * shard_len : (row + 1) * shard_len]
                if len(seg) < shard_len:
                    seg += b"\x00" * (shard_len - len(seg))
            else:
                seg = base_shards[row].payload
            shards.append(Shard(row, st.k, st.m, seg, len(payload), kind))
        for i in range(st.m):
            shards.append(
                Shard(st.k + i, st.k, st.m, new_parity[i], len(payload), kind)
            )
        return shards, dirty_by_row, runs_acct

    def commit(self, obj: Any, nbytes: int, now_ns: int) -> int:
        """Patch the stripe in place (or rebase it onto ``key``).

        All payload validation happens before the first device submit,
        so a raising commit leaves the stripe untouched and charges
        nothing -- the contract :meth:`ErasureStore.store_delta`'s
        fallback relies on.
        """
        if self.committed:
            raise StorageError(f"delta stream for {self.key!r} already committed")
        st = self.store
        holders = self._full_stripe()
        skey_base = _skey(self.base_key)
        base_shards = {
            i: holders[i].replicas[skey_base][0] for i in holders
        }
        shards, dirty_by_row, runs_acct = self._new_shards(obj, nbytes, base_shards)
        dirty_total = sum(length for _, length in runs_acct)
        dsnb = st.shard_size(dirty_total) if dirty_total else 0
        snb = st.shard_size(nbytes)
        metrics = st.storage.engine.metrics
        # ---- read-back phase: stale bytes of each dirty data row ------
        read_worst = 0
        for row, dirty in sorted(dirty_by_row.items()):
            server = holders[row]
            disk_delay = server.disk.submit(now_ns, dirty)
            link_delay = st.device.submit(now_ns + disk_delay, dirty)
            server.bytes_read += dirty
            read_worst = max(read_worst, disk_delay + link_delay)
        # ---- write phase: remaining delta slices to every holder ------
        write_at = now_ns + read_worst
        remainder = max(0, dsnb - self.sent_shard_bytes)
        rebase = self.base_key != self.key
        skey_new = _skey(self.key)
        write_delay = st._fan_out(
            [(s, 0) for s in holders.values()], remainder, write_at, st.write_shards
        )
        for idx, server in holders.items():
            if idx >= st.k or idx in dirty_by_row:
                server.put_replica(skey_new, shards[idx], snb)
            else:
                # Clean shard: metadata-only rename/refresh -- no shard
                # bytes move, so bypass put_replica's write accounting.
                server.replicas[skey_new] = (shards[idx], snb)
            if rebase:
                server.drop_replica(skey_base)
        self.committed = True
        st._directory[self.key] = int(nbytes)
        st.holds.stored(self.key, obj)
        if rebase:
            st._forget(self.base_key)
        st.bytes_written += dsnb * len(holders)
        st.delta_writes += 1
        delay = read_worst + write_delay
        metrics.inc("storage.delta_writes")
        metrics.inc("storage.delta_bytes_written", dsnb * len(holders))
        metrics.observe("storage.write_ns", delay)
        return delay


class ErasureRepairer(ReplicationRepairer):
    """Background re-encode of lost shards after server failures.

    Inherits :class:`ReplicationRepairer`'s cadence -- failure-detect
    scan after ``DETECT_DELAY_NS``, steady-state scan every
    ``SCAN_INTERVAL_NS``, at most ``MAX_REPAIRS_PER_SCAN`` repairs
    started per scan -- but a repair reads ``k`` surviving shards (k source disks
    and k link crossings), re-encodes **every** missing shard of the
    key from that single decode pass (:func:`rs_rebuild_shards`), and
    writes each onto a distinct server that holds none of the blob's
    shards.  A server loss that drops several shards of one key -- a
    shared-domain double failure, or a shrunken group -- therefore
    costs one matrix solve, not one per shard.
    """

    def _start_repair(self, key: str) -> bool:
        store = self.store
        holders = store.shard_holders(key)
        if len(holders) < store.k:
            return False  # unreadable: nothing to re-encode from
        present = set(holders)
        missing = [i for i in range(store.k + store.m) if i not in present]
        if not missing:
            return False
        with_shards = {s.server_id for s in holders.values()}
        skey = _skey(key)
        spares = [
            s
            for s in store.candidates(key)
            if s.up and not s.holds(skey) and s.server_id not in with_shards
        ]
        if not spares:
            return False  # nowhere to put a re-encoded shard
        assigned = list(zip(missing, spares))
        snb = store.shard_size(store._directory[key])
        now = self.engine.now_ns
        chosen = sorted(holders)[: store.k]
        gathered = {i: holders[i].replicas[skey][0] for i in chosen}
        # k parallel source reads fan in over the shared link -- once,
        # regardless of how many shards are being rebuilt -- then each
        # re-encoded shard is written to its own destination disk.
        read_worst = store._gather([(holders[i], 0) for i in chosen], snb, now)
        rebuilt = self._rebuild_many(gathered, [idx for idx, _ in assigned])
        self._inflight.add(key)
        pending = {"n": len(assigned)}
        for idx, dest in assigned:
            delay = read_worst
            delay += store.device.submit(now + delay, snb)
            delay += dest.disk.submit(now + delay, snb)
            shard = rebuilt[idx]
            self.engine.after(
                delay,
                lambda d=dest, s=shard: self._finish_shard(
                    key, d, s, snb, begun_ns=now, pending=pending
                ),
                label="shard-repair",
            )
        return True

    def _rebuild_many(
        self, gathered: Dict[int, Shard], indices: List[int]
    ) -> Dict[int, Shard]:
        """Re-encode several missing shards from one decode pass."""
        first = next(iter(gathered.values()))
        if first.payload_kind == "opaque":
            return {
                i: Shard(i, first.k, first.m, None, 0, "opaque", first.obj)
                for i in indices
            }
        payloads = rs_rebuild_shards(
            {i: s.payload for i, s in gathered.items()},
            first.k,
            first.m,
            indices,
            first.payload_len,
        )
        return {
            i: Shard(i, first.k, first.m, payloads[i], first.payload_len,
                     first.payload_kind)
            for i in indices
        }

    def _finish_shard(
        self,
        key: str,
        dest,
        shard: Shard,
        snb: int,
        begun_ns: int = 0,
        pending: Optional[Dict[str, int]] = None,
    ) -> None:
        if pending is None:
            self._inflight.discard(key)
        else:
            pending["n"] -= 1
            if pending["n"] <= 0:
                self._inflight.discard(key)
        if key not in self.store._directory:
            return  # deleted (GC'd) while the repair was in flight
        if not dest.up:
            return  # destination died mid-repair; a later scan retries
        if shard.index in self.store.shard_holders(key):
            return  # another path already restored this shard
        dest.put_replica(_skey(key), shard, snb)
        self.repairs_completed += 1
        self.bytes_rereplicated += snb
        self.engine.metrics.inc("shard_repairs")
        self.engine.metrics.inc("storage.shard_repair_bytes", snb)
        self.engine.tracer.record(
            "storage.shard_repair",
            begun_ns,
            self.engine.now_ns,
            key=key,
            dest=dest.server_id,
            shard=shard.index,
            nbytes=snb,
        )
