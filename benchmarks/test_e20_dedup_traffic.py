"""E20 -- content-addressed dedup of the replicated checkpoint stream.

A checkpoint stream is massively self-similar: every rebase of an
incremental mechanism rewrites the mostly-unchanged heap, zero pages
recur in every rank's image, and the paper-era remedy -- incremental
capture -- only helps *within* one generation chain, not across rebases
or ranks.  E20 runs the same coordinated job twice over the replicated
stable-storage service of E19, once bare and once behind the
content-addressed :class:`~repro.stablestore.ContentStore`, and
compares the physical write traffic the service absorbs.

Claims demonstrated:

* The deduplicated run pushes substantially fewer bytes at the storage
  servers for the same job (every unique payload is quorum-written once
  ever, not once per generation), with a dedup ratio above the 1.5x
  acceptance bar -- even though its faster commits feed the autonomic
  controller a shorter recommended interval, i.e. *more* generations.
* Restart correctness is unchanged: a compute-node failure mid-run
  recovers from manifests + packs exactly as it would from monolithic
  images, and a store/load probe through the full dedup + quorum stack
  is byte-exact.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
from repro.core.direction import AutonomicCheckpointer
from repro.core.image import CheckpointImage
from repro.reporting import render_replication_table, render_table
from repro.reporting.tables import fmt_bytes
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.workloads import SparseWriter

from conftest import report

INTERVAL_NS = 25 * NS_PER_MS


def wf(rank):
    return SparseWriter(
        iterations=3000, dirty_fraction=0.02, heap_bytes=512 * 1024,
        seed=rank, compute_ns=100_000,
    )


def run_cell(dedup):
    """One 2-rank coordinated run over rf=2 storage, with a node failure
    mid-run; identical job and seed either way, only the storage wrapper
    differs."""
    cl = Cluster(
        n_nodes=2, n_spares=2, seed=20,
        storage_servers=3, replication=2, storage_repair=True,
        content_dedup=dedup,
    )
    job = ParallelJob(cl, wf, n_ranks=2, name="dedup" if dedup else "plain")
    mechs = {
        n.node_id: AutonomicCheckpointer(n.kernel, n.remote_storage)
        for n in cl.nodes
    }
    coord = CheckpointCoordinator(job, mechs, INTERVAL_NS)
    coord.start()
    cl.engine.after(200 * NS_PER_MS, lambda: cl.fail_node(0))
    done = job.run_to_completion(limit_ns=120 * NS_PER_S)
    return {
        "store": cl.replicated_store,
        "content": cl.content_store,
        "repairer": cl.storage_repairer,
        "completed": done,
        "waves": len(coord.waves),
        "recoveries": coord.recoveries,
        "unrecoverable": coord.unrecoverable,
        "keys": len(list(cl.remote_storage.keys())),
        "bytes_written": cl.replicated_store.bytes_written,
    }


def probe_roundtrip():
    """Byte-exact store/load probe through dedup + quorum replication.

    Two generations sharing most pages: the second must cost little new
    pack traffic yet load back byte-identical."""
    cl = Cluster(n_nodes=1, seed=21, storage_servers=3, replication=2,
                 content_dedup=True)
    store = cl.remote_storage
    rng = np.random.default_rng(20)
    pages = rng.integers(0, 256, size=(32, 4096), dtype=np.uint8)
    originals = {}
    for gen in (1, 2):
        if gen == 2:
            pages[3] ^= 0xFF  # one changed page between generations
        img = CheckpointImage(key=f"probe/1/{gen}", mechanism="probe", pid=1,
                              task_name="p", node_id=0, step=gen, registers={})
        for i in range(pages.shape[0]):
            page = pages[i].copy()
            page.flags.writeable = False
            img.take_pages("heap", i, (page,))
        store.store(img.key, img, img.size_bytes, 0)
        originals[img.key] = img.chunk_index()
    exact = True
    for key, ref in originals.items():
        loaded, _ = store.load(key, 0)
        got = loaded.chunk_index()
        exact &= got.keys() == ref.keys() and all(
            np.array_equal(got[k].data, ref[k].data) for k in ref
        )
    return {"exact": exact, "ratio": cl.content_store.dedup_ratio}


def measure():
    return {
        "plain": run_cell(dedup=False),
        "dedup": run_cell(dedup=True),
        "probe": probe_roundtrip(),
    }


def test_e20_dedup_traffic(run_once):
    out = run_once(measure)
    plain, dedup, probe = out["plain"], out["dedup"], out["probe"]

    rows = [
        (
            label,
            c["waves"],
            c["recoveries"],
            "yes" if c["completed"] else "no",
            c["keys"],
            fmt_bytes(c["bytes_written"]),
        )
        for label, c in (("plain replicated", plain), ("content dedup", dedup))
    ]
    traffic_ratio = plain["bytes_written"] / max(1, dedup["bytes_written"])
    text = render_table(
        ["storage stack", "waves", "recoveries", "completed", "keys",
         "physical writes"],
        rows,
        title="E20. Replicated write traffic, plain vs content-addressed.",
    )
    text += (
        f"\n\ntraffic reduction: {traffic_ratio:.2f}x fewer physical bytes"
        f" for the same job (dedup commits faster, so the autonomic"
        f" controller even checkpoints *more often*)"
        f"\nprobe roundtrip byte-exact: {'yes' if probe['exact'] else 'NO'}"
        f" (probe dedup {probe['ratio']:.2f}x)"
    )
    text += "\n\n" + render_replication_table(
        dedup["store"],
        dedup["repairer"],
        title="Service state after the dedup run",
        content_store=dedup["content"],
    )
    report("e20_dedup_traffic", text)

    # Same fault-tolerance outcome on both stacks: the node failure is
    # recovered from and the job completes.
    for c in (plain, dedup):
        assert c["completed"]
        assert c["recoveries"] >= 1
        assert c["unrecoverable"] == 0
        assert c["waves"] >= 3

    # The dedup stack absorbs the same schedule with materially fewer
    # physical bytes, and the content store's ratio clears the bar.
    assert dedup["content"] is not None
    assert dedup["content"].dedup_ratio > 1.5
    assert dedup["bytes_written"] < plain["bytes_written"]
    assert traffic_ratio > 1.2

    # Byte-exact through the full dedup + quorum stack.
    assert probe["exact"]
    assert probe["ratio"] > 1.5
