"""A task's delta chain has one owner: the chain tip on the task.

A completed checkpoint, a restore and a hardware rollback each move the
tip, and the next incremental capture extends exactly that image -- so
a materialized chain always equals the memory it was taken from.
"""

from __future__ import annotations

from repro.core.checkpointer import RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.core.image import materialize_chain
from repro.mechanisms import Libckpt, Revive
from repro.simkernel import Kernel
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.storage import MemoryStorage, RemoteStorage
from repro.workloads import SparseWriter, memory_digest


def writer(iterations=3_000, seed=3):
    return SparseWriter(
        iterations=iterations, dirty_fraction=0.03, heap_bytes=256 * 1024,
        seed=seed, compute_ns=200_000,
    )


def settle(k, req):
    k.start()
    k.engine.run(
        until_ns=k.engine.now_ns + 5 * NS_PER_S,
        until=lambda: req.state in (RequestState.DONE, RequestState.FAILED),
    )
    assert req.state == RequestState.DONE
    return req


def kill(k, task):
    k.stop_task(task)
    k._exit_task(task, code=-1)
    k.reap(task)


def chain_problems(mech, key, task):
    """Mismatches between ``key``'s flattened chain and ``task``'s memory."""
    chain, _ = mech.image_chain(key)
    flat = materialize_chain(chain, page_size=mech.kernel.costs.page_size)
    return flat.verify_against(task)


def test_restore_of_an_older_generation_roots_the_next_delta():
    """Same kernel, same pid (``restores_pid``): the delta after the
    restore extends the restored generation, not the dead task's newest."""
    k = Kernel(ncpus=2, seed=11)
    mech = AutonomicCheckpointer(k, RemoteStorage())
    t = writer().spawn(k)
    keys = []
    for _ in range(3):
        k.run_for(5 * NS_PER_MS)
        keys.append(settle(k, mech.request_checkpoint(t)).key)
    kill(k, t)
    res = mech.restart(keys[0])
    assert res.restored_pid
    assert res.task.chain_tip == (mech.storage, keys[0])
    k.run_for(5 * NS_PER_MS)
    delta = settle(k, mech.request_checkpoint(res.task))
    assert delta.image.parent_key == keys[0]
    # The restored chain plus the new delta is the live process.
    kill(k, res.task)
    final = mech.restart(delta.key)
    k.run_until_exit(final.task, limit_ns=10**13)
    ref = Kernel(ncpus=2, seed=11)
    clean = writer().spawn(ref)
    ref.run_until_exit(clean, limit_ns=10**13)
    assert memory_digest(final.task)["heap"] == memory_digest(clean)["heap"]


def test_tip_is_never_captured():
    k = Kernel(ncpus=2, seed=11)
    mech = AutonomicCheckpointer(k, RemoteStorage())
    t = writer().spawn(k)
    k.run_for(5 * NS_PER_MS)
    first = settle(k, mech.request_checkpoint(t))
    k.run_for(5 * NS_PER_MS)
    second = settle(k, mech.request_checkpoint(t))
    assert t.chain_tip == (mech.storage, second.key)
    kill(k, t)
    # Restoring the base must not bring back the tip it had later.
    res = mech.restart(first.key)
    assert res.task.chain_tip == (mech.storage, first.key)


def test_revive_epoch_after_rollback_extends_the_rolled_back_epoch():
    k = Kernel(seed=7)
    mech = Revive(k, MemoryStorage())
    t = SparseWriter(
        iterations=5_000, dirty_fraction=0.02, heap_bytes=256 * 1024, seed=3
    ).spawn(k)
    k.run_for(3 * NS_PER_MS)
    r1 = settle(k, mech.request_checkpoint(t))
    k.run_for(3 * NS_PER_MS)
    settle(k, mech.request_checkpoint(t))
    k.stop_task(t)
    k.run_for(1 * NS_PER_MS)
    mech.rollback(r1.key, t)
    assert t.chain_tip == (mech.storage, r1.key)
    k.resume_task(t)
    k.run_for(3 * NS_PER_MS)
    k.stop_task(t)
    k.run_for(1 * NS_PER_MS)
    # Epochs snapshot synchronously, so the stopped task IS the epoch.
    r3 = settle(k, mech.request_checkpoint(t))
    assert r3.image.parent_key == r1.key
    assert chain_problems(mech, r3.key, t) == []


def test_libckpt_delta_after_restore_holds_what_the_restored_task_wrote():
    """The restarted library re-arms tracking: its first delta extends the
    restored image and carries every page written since the restore."""
    k = Kernel(ncpus=1, seed=11)
    mech = Libckpt(k, RemoteStorage())
    t = writer().spawn(k)
    mech.prepare_target(t)
    settle(k, mech.request_checkpoint(t))
    k.run_for(20 * NS_PER_MS)
    r2 = settle(k, mech.request_checkpoint(t))
    kill(k, t)
    res = mech.restart(r2.key)
    k.run_for(20 * NS_PER_MS)
    r3 = settle(k, mech.request_checkpoint(res.task))
    assert r3.image.parent_key == r2.key
    assert r3.image.chunks
    # The handler completes the request as its last step: the task has
    # not run since, so the chain must match its memory exactly.
    assert chain_problems(mech, r3.key, res.task) == []
