"""Vectorized content digests for block scanning and deduplication.

Two consumers share these helpers:

* :class:`~repro.mechanisms.incremental.BlockHashTracker` digests every
  ``block_size``-byte block of every candidate page each interval -- the
  scan cost Agarwal-style adaptive blocks exist to amortize.  The seed
  implementation hashed one block at a time in Python (``zlib.adler32``
  per slice plus a dict lookup per block); here the whole scan is a
  handful of NumPy passes.
* :class:`~repro.stablestore.ContentStore` keys chunk payloads by
  content so byte-identical pages are written to the replicated service
  once per *content*, not once per generation.  It fingerprints whole
  page stacks: :func:`page_digests` digests every row of an
  ``(n, page_size)`` stack in one pass, and :func:`payload_digest` is
  its one-row case, so the fingerprint has a single definition.

The digest is a position-weighted word sum finished with the splitmix64
avalanche: each 8-byte word of a block is multiplied by a per-position
odd constant (so permutations hash differently), summed mod 2**64, salted
with the block length, and mixed.  It is *not* cryptographic -- it is a
fast, deterministic 64-bit fingerprint whose collision behaviour is
uniform enough both for the probabilistic-checkpointing experiments
(which deliberately truncate it to provoke collisions) and for
content-addressing (64-bit birthday bound dwarfs any simulated image
count; the store additionally keys by payload length).

Everything here is pure NumPy ``uint64`` arithmetic with wraparound --
no Python-int hashing on the hot path.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["block_digests", "page_digests", "payload_digest"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

#: Per-length weight vectors, cached (few distinct block sizes per run).
_WEIGHTS: Dict[int, np.ndarray] = {}


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finisher (full avalanche on uint64)."""
    # Wraparound is the point; silence the scalar-overflow warning NumPy
    # emits for 0-d inputs (arrays wrap silently anyway).
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _weights(nwords: int) -> np.ndarray:
    w = _WEIGHTS.get(nwords)
    if w is None:
        # Mixed counters, forced odd: distinct, full-width multipliers.
        w = _mix64(np.arange(1, nwords + 1, dtype=np.uint64) * _GOLDEN)
        w |= np.uint64(1)
        w.setflags(write=False)
        _WEIGHTS[nwords] = w
    return w


def block_digests(data: np.ndarray, block_size: int) -> np.ndarray:
    """Digest every ``block_size``-byte block of ``data`` in one pass.

    ``data`` is a contiguous uint8 array whose size is a multiple of
    ``block_size`` (one page, or a whole stack of pages).  Returns one
    ``uint64`` digest per block.
    """
    data = np.ascontiguousarray(data)
    if block_size % 8 == 0:
        # Reinterpret bytes as native uint64 words: 8x fewer multiplies
        # and no astype blow-up.
        words = data.view(np.uint64).reshape(-1, block_size // 8)
    else:
        words = data.reshape(-1, block_size).astype(np.uint64)
    with np.errstate(over="ignore"):
        acc = words @ _weights(words.shape[1])
        return _mix64(acc + np.uint64(block_size))


def page_digests(stack: np.ndarray, page_size: int) -> np.ndarray:
    """64-bit content fingerprint of every row of an ``(n, page_size)``
    uint8 stack, in one pass: rows are zero-padded to 4096-byte blocks,
    and each row's block digests are combined by a second weighted sum
    salted with the true row length (so padding cannot alias)."""
    stack = np.ascontiguousarray(stack, dtype=np.uint8)
    n = stack.shape[0]
    if page_size == 0:
        return np.full(n, _mix64(np.uint64(1)))
    if page_size % 4096:
        stack = np.pad(stack, ((0, 0), (0, -page_size % 4096)))
    per_block = block_digests(stack, 4096).reshape(n, stack.shape[1] // 4096)
    with np.errstate(over="ignore"):
        acc = per_block @ _weights(per_block.shape[1])
        return _mix64(acc + np.uint64(page_size))


def payload_digest(data: np.ndarray) -> int:
    """64-bit content fingerprint of one arbitrary-length uint8 payload
    (the one-row case of :func:`page_digests`)."""
    data = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
    return int(page_digests(data[None], data.size)[0])
