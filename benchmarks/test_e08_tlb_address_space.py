"""E8 -- kernel-thread address-space borrowing and TLB costs.

Paper, Section 4.1: "the Kernel Thread does not have a proper process
address space ... and it uses the page tables of the task it
interrupted, that may not be the process that has to be checkpointed.
If so happened a process address space switch is required and this may
invalidate the TLB cache and decrease the performance.  Of course if the
kernel thread interrupts the application it wants to checkpoint there is
no need to switch the address space."

Scenario A: the target is the only process (the kthread preempts it;
its page tables are live -> free attach).  Scenario B: a second process
holds the CPU when the kthread runs -> paid switch + TLB flush, and the
displaced process reloads its working set cold.
"""

from __future__ import annotations

from repro.core.checkpointer import RequestState
from repro.mechanisms import CRAK
from repro.simkernel import Kernel
from repro.simkernel.costs import NS_PER_MS
from repro.storage import RemoteStorage
from repro.workloads import SparseWriter
from repro.reporting import render_table

from conftest import report


def writer(seed):
    return SparseWriter(
        iterations=10**7, dirty_fraction=0.02, heap_bytes=512 * 1024,
        seed=seed, compute_ns=50_000,
    )


def run_scenario(with_other_process):
    k = Kernel(ncpus=1, seed=8)
    mech = CRAK(k, RemoteStorage())
    target = writer(1).spawn(k, name="target")
    k.run_for(5 * NS_PER_MS)  # target is on the CPU; its mm is live
    other = None
    if with_other_process:
        # Force a different mm onto the CPU: a fresh process at better
        # effective priority runs ahead of the target.
        other = writer(2).spawn(k, name="other", static_prio=100)
        k.run_for(60 * NS_PER_MS)  # quantum rotation puts `other` on CPU
    mm_switches_before = k.engine.metrics.counters().get("kthread_mm_switches", 0)
    tlb_before = target.acct.tlb_refill_ns
    req = mech.request_checkpoint(target)
    k.start()
    k.engine.run(
        until_ns=k.engine.now_ns + 10**12,
        until=lambda: req.state == RequestState.DONE,
    )
    k.run_for(20 * NS_PER_MS)  # let the displaced task pay its refills
    return {
        "mm_switches": k.engine.metrics.counters().get("kthread_mm_switches", 0)
        - mm_switches_before,
        "capture_ns": req.capture_duration_ns,
        "victim_tlb_refill_ns": (
            (other.acct.tlb_refill_ns if other is not None else 0)
            + target.acct.tlb_refill_ns
            - tlb_before
        ),
    }


def measure():
    a = run_scenario(with_other_process=False)
    b = run_scenario(with_other_process=True)
    return a, b


def test_e08_tlb_address_space(run_once):
    a, b = run_once(measure)
    rows = [
        ("A: kthread interrupts the target", a["mm_switches"], a["capture_ns"], a["victim_tlb_refill_ns"]),
        ("B: another task's mm was live", b["mm_switches"], b["capture_ns"], b["victim_tlb_refill_ns"]),
    ]
    text = render_table(
        ["scenario", "address-space switches", "capture ns", "TLB refill ns paid after"],
        rows,
        title="E8. Kernel-thread page-table borrowing: free when interrupting the target.",
    )
    report("e08_tlb_address_space", text)

    # A: no switch needed; B: exactly the paid switch the paper predicts.
    assert a["mm_switches"] == 0
    assert b["mm_switches"] >= 1
    # The displaced working set reloads cold only in scenario B.
    assert b["victim_tlb_refill_ns"] > a["victim_tlb_refill_ns"]
