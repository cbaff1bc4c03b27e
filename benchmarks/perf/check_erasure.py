#!/usr/bin/env python
"""CI smoke check for dirty-delta erasure encoding.

Acceptance bars for the vectorized GF(2^8) kernels and the
delta-parity update path (ISSUE 9):

* ``rs_update_parity`` is **byte-identical** to a full ``rs_encode``
  across several ``(k, m)`` configurations and seeded random dirty
  patterns, including the edge cases: zero-length payload, unaligned
  ``len % k != 0``, a dirty run crossing a stripe-row boundary, and
  every-byte-dirty degenerating to a full encode;
* a 10%-dirty delta update moves >= 5x fewer kernel bytes than a full
  re-encode (the O(f) claim, exact counter arithmetic), and its parity
  is byte-identical to the full re-encode's;
* a stripe maintained by ``store_delta`` keeps the full survivable
  envelope: after delta updates, every concurrent ``m``-server failure
  combination still reads back the *new* payload and no ``m+1``
  combination does;
* ``ErasureRepairer`` rebuilds several lost shards of one key from a
  single decode pass.

The packed encode kernel's speed is not gated here: ``run_bench.py
--check`` guards it as a same-run ratio against the seed's
per-coefficient encode, so a slow host cannot fail it.

Exits non-zero with a diagnostic on any violation.

Usage::

    python benchmarks/perf/check_erasure.py
"""

from __future__ import annotations

import itertools

import numpy as np

from scenarios import (  # also puts the repository's src/ on sys.path
    rs_delta_kernel_bytes,
    rs_dirty,
    rs_payload,
)

from repro.simkernel.engine import Engine
from repro.stablestore import (
    KERNEL_STATS,
    ErasureRepairer,
    ErasureStore,
    StorageCluster,
    reset_kernel_stats,
    rs_encode,
    rs_update_parity,
)

CONFIGS = [(4, 2), (3, 3), (2, 1), (5, 4)]
NS = 10**9
#: Kernel bytes of full re-encode over delta at 10% dirty: half the
#: 10.04x recorded in BENCH_PERF.json.
MIN_KERNEL_BYTE_RATIO = 5.0
#: The benchmark shape: 256 KiB, 10% dirty.
PAYLOAD = rs_payload(256, seed=29)
DIRTY, NEW_PAYLOAD = rs_dirty(PAYLOAD, 0.1, seed=31)


def _mutate(payload: bytes, extents, rng) -> bytes:
    buf = bytearray(payload)
    for off, length in extents:
        for p in range(off, min(off + length, len(buf))):
            buf[p] ^= int(rng.integers(1, 256))
    return bytes(buf)


def check_delta_identity() -> int:
    """Delta parity == full-encode parity on random and edge patterns."""
    status = 0
    rng = np.random.default_rng(41)

    def verify(payload, extents, k, m, label):
        nonlocal status
        old = rs_encode(payload, k, m)
        new_payload = _mutate(payload, extents, rng)
        updated = rs_update_parity(old[k:], extents, payload, new_payload, k, m)
        full = rs_encode(new_payload, k, m)
        ok = updated == full[k:]
        if not ok:
            status = 1
        print(
            f"delta-identity {k}+{m} {label}: "
            f"{'ok' if ok else 'MISMATCH'}"
        )

    for k, m in CONFIGS:
        plen = 64 * k + 17  # unaligned: len % k != 0
        payload = rng.integers(0, 256, plen, dtype=np.uint8).tobytes()
        shard_len = -(-plen // k)
        verify(payload, [], k, m, "no-dirty")
        verify(payload, [(0, 1)], k, m, "one-byte")
        verify(
            payload,
            [(shard_len - 3, 7)],
            k,
            m,
            "stripe-boundary-run",
        )
        verify(payload, [(0, plen)], k, m, "every-byte-dirty")
        random_extents = [
            (int(rng.integers(0, plen)), int(rng.integers(1, plen // 2 + 1)))
            for _ in range(5)
        ]
        verify(payload, random_extents, k, m, "random-runs")
    verify(b"", [(0, 4)], 3, 2, "zero-length-payload")
    return status


def check_delta_kernel_bytes() -> int:
    """10%-dirty delta moves >= 5x fewer kernel bytes than full encode."""
    delta_bytes, full_bytes, identical = rs_delta_kernel_bytes(
        PAYLOAD, DIRTY, NEW_PAYLOAD)
    ratio = full_bytes / max(1, delta_bytes)
    ok = identical and ratio >= MIN_KERNEL_BYTE_RATIO
    print(
        f"delta kernel bytes: full {full_bytes}, delta {delta_bytes} "
        f"({ratio:.2f}x, bar {MIN_KERNEL_BYTE_RATIO}x), "
        f"byte-identical={identical} {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def check_envelope_under_delta() -> int:
    """Delta-maintained stripes keep the exact m-failure envelope."""
    status = 0
    rng = np.random.default_rng(53)
    for k, m in CONFIGS:
        plen = 128 * k
        payload = rng.integers(0, 256, plen, dtype=np.uint8).tobytes()
        dirty = [(3, 40), (plen - 19, 19)]
        new_payload = _mutate(payload, dirty, rng)
        for width, want in ((m, True), (m + 1, False)):
            combos = ok = 0
            for combo in itertools.combinations(range(k + m), width):
                engine = Engine(seed=23)
                store = ErasureStore(
                    StorageCluster(engine, n_servers=k + m),
                    data_shards=k,
                    parity_shards=m,
                )
                store.store("d/1/1", payload, plen, 0)
                store.store_delta("d/1/1", new_payload, plen, dirty, 10)
                if store.delta_fallbacks:
                    status = 1
                    print(f"envelope {k}+{m}: unexpected delta fallback")
                for sid in combo:
                    store.storage.fail_server(sid)
                combos += 1
                try:
                    got, _ = store.load("d/1/1", NS)
                    survived = got == new_payload
                except Exception:
                    survived = False
                ok += survived == want
            verdict = "ok" if ok == combos else "FAIL"
            if ok != combos:
                status = 1
            print(
                f"envelope-under-delta {k}+{m} width={width}: "
                f"{ok}/{combos} as expected ({verdict})"
            )
    return status


def check_batch_repair() -> int:
    """Two lost shards of one key rebuild from a single decode pass."""
    engine = Engine(seed=29)
    store = ErasureStore(
        StorageCluster(engine, n_servers=9), data_shards=4, parity_shards=2
    )
    repairer = ErasureRepairer(store, engine)
    rng = np.random.default_rng(59)
    payload = rng.integers(0, 256, 8192, dtype=np.uint8).tobytes()
    store.store("r/1/1", payload, len(payload), 0)
    holders = store.shard_holders("r/1/1")
    holders[0].fail()
    holders[4].fail()
    reset_kernel_stats()
    engine.run(until_ns=engine.now_ns + NS)
    decodes = KERNEL_STATS["decode_calls"]
    reset_kernel_stats()
    full = store.shard_count("r/1/1") == 6
    readback, _ = store.load("r/1/1", engine.now_ns)
    ok = (
        full
        and repairer.repairs_completed == 2
        and decodes == 1
        and readback == payload
    )
    print(
        f"batch repair: shards={store.shard_count('r/1/1')}/6, "
        f"repairs={repairer.repairs_completed}, decode_passes={decodes} "
        f"{'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def main() -> int:
    status = 0
    status |= check_delta_identity()
    status |= check_delta_kernel_bytes()
    status |= check_envelope_under_delta()
    status |= check_batch_repair()
    print("OK" if status == 0 else "FAILED")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
