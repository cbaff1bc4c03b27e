#!/usr/bin/env python
"""CI smoke check for multi-level stable storage with erasure coding.

Deterministic acceptance bars for the ``repro.stablestore`` hierarchy
(virtual-time and exact counts -- immune to CI runner noise):

* the GF(2^8) Reed-Solomon codec reconstructs byte-identically from
  **every** ``k``-subset of the ``k+m`` shards, for several ``(k, m)``
  configurations;
* a simulated ``k+m`` erasure group survives every concurrent
  ``m``-server failure combination and no ``m+1``-server combination
  (the code distance is exactly ``m+1``);
* the erasure tier's physical footprint is at most ``MAX_RATIO`` of
  triple replication for the same logical bytes;
* a depth<=1 hierarchy (one replicated level, no scratch, no erasure)
  exports byte-identically to the bare :class:`ReplicatedStore` path,
  so the tiering layer costs nothing when unused;
* after a group-server failure with a spare available, the background
  :class:`ErasureRepairer` re-encodes the lost shard and returns the
  group to full strength;
* a write-back erasure level absorbs the stripe off the critical path:
  the blob lands after the writeback delay, not during ``store``.

Exits non-zero with a diagnostic on any violation.

Usage::

    python benchmarks/perf/check_hierarchy.py
"""

from __future__ import annotations

import itertools

from scenarios import (  # also puts the repository's src/ on sys.path
    RS_K,
    RS_M,
    SMALL_BLOB,
    erasure_envelope,
    hierarchy_identity,
    physical_bytes_vs_rf3,
)

from repro.simkernel.engine import Engine
from repro.stablestore import (
    ErasureRepairer,
    ErasureStore,
    HierarchicalStore,
    StorageCluster,
    StorageLevel,
    rs_decode,
    rs_encode,
)
from repro.storage.backends import MemoryStorage
from repro.storage.devices import memory_device

MAX_RATIO = 0.6  # ec(4+2) physical bytes vs rf=3, issue acceptance bar
CONFIGS = [(4, 2), (3, 3), (2, 1), (5, 4)]
NS = 10**9


def check_codec() -> int:
    """Every k-subset of every config reconstructs byte-identically."""
    status = 0
    for k, m in CONFIGS:
        shards = rs_encode(SMALL_BLOB, k, m)
        combos = ok = 0
        for keep in itertools.combinations(range(k + m), k):
            combos += 1
            got = rs_decode({i: shards[i] for i in keep}, k, m,
                            len(SMALL_BLOB))
            ok += got == SMALL_BLOB
        print(f"codec k={k} m={m}: {ok}/{combos} k-subsets exact")
        if ok != combos:
            print("FAIL: Reed-Solomon reconstruction is not MDS")
            status = 1
    return status


def check_envelope() -> int:
    """All m-failure combos survivable, no m+1 combo is."""
    status = 0
    for width, want_all in ((RS_M, True), (RS_M + 1, False)):
        tested, survived = erasure_envelope(width)
        want = tested if want_all else 0
        print(f"envelope: {survived}/{tested} of the {width}-failure "
              f"combinations readable (want {want})")
        if survived != want:
            print("FAIL: erasure survivability envelope is wrong")
            status = 1
    return status


def check_ratio() -> int:
    """Erasure physical bytes <= MAX_RATIO of triple replication."""
    ec_bytes, rep_bytes = physical_bytes_vs_rf3()
    ratio = ec_bytes / rep_bytes
    print(f"physical bytes: ec({RS_K}+{RS_M}) {ec_bytes}, rf=3 {rep_bytes}, "
          f"ratio {ratio:.2f}x (need <= {MAX_RATIO:.1f}x)")
    if ratio > MAX_RATIO:
        print("FAIL: erasure tier is not cheaper than the acceptance bar")
        return 1
    return 0


def check_identity() -> int:
    """Depth<=1 hierarchy export byte-identical to the bare store."""
    same = hierarchy_identity()
    print(f"depth<=1 identity: exports {'byte-identical' if same else 'DIFFER'}")
    if not same:
        print("FAIL: the degenerate hierarchy is not a free pass-through")
        return 1
    return 0


def check_repair() -> int:
    """A lost shard is re-encoded onto a spare group server."""
    engine = Engine(seed=23)
    sc = StorageCluster(engine, n_servers=8)  # 4+2 shards + 2 spares
    store = ErasureStore(sc, data_shards=4, parity_shards=2)
    ErasureRepairer(store, engine)
    store.store("m/1/1", SMALL_BLOB, len(SMALL_BLOB), 0)
    victim = next(iter(store.shard_holders("m/1/1").values())).server_id
    sc.fail_server(victim)
    before = len(store.shard_holders("m/1/1"))
    engine.run(until_ns=engine.now_ns + NS)
    after = len(store.shard_holders("m/1/1"))
    under = store.under_replicated()
    print(f"shard repair: {before} -> {after} shards present, "
          f"{len(under)} keys under-replicated")
    if after != 6 or under:
        print("FAIL: the repairer did not restore the group")
        return 1
    if store.load("m/1/1", engine.now_ns)[0] != SMALL_BLOB:
        print("FAIL: repaired group does not read back")
        return 1
    return 0


def check_writeback() -> int:
    """Write-back erasure level lands off the critical path."""
    engine = Engine(seed=1)
    sc = StorageCluster(engine, n_servers=6)
    scratch = MemoryStorage(device=memory_device("ram[scratch]"))
    erasure = ErasureStore(sc, data_shards=4, parity_shards=2)
    h = HierarchicalStore(engine, [
        StorageLevel("scratch", scratch),
        StorageLevel("erasure", erasure, write="back"),
    ])
    h.store("w/1", SMALL_BLOB, len(SMALL_BLOB), 0)
    landed_sync = erasure.exists("w/1")
    engine.run(until_ns=engine.now_ns + NS)
    landed_async = erasure.exists("w/1")
    print(f"write-back: on critical path {landed_sync}, "
          f"after drain {landed_async}")
    if landed_sync or not landed_async:
        print("FAIL: write-back policy did not defer the stripe")
        return 1
    return 0


def main() -> int:
    """Run all hierarchy acceptance bars; non-zero on any violation."""
    status = 0
    for check in (check_codec, check_envelope, check_ratio,
                  check_identity, check_repair, check_writeback):
        status |= check()
    print("OK: storage hierarchy within acceptance bars" if not status
          else "check_hierarchy: FAILED")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
