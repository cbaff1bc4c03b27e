"""Event-driven job and wave completion.

A job records its finish time when its last rank exits, whoever drives
the engine; ``run_to_completion`` stops on that same event; a wave
lands when its last request settles.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
from repro.core.checkpointer import CheckpointRequest, RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.workloads import SparseWriter, memory_digest

LIMIT_NS = 120 * NS_PER_S


def writer(iterations):
    def factory(rank):
        return SparseWriter(
            iterations=iterations, dirty_fraction=0.03,
            heap_bytes=256 * 1024, seed=rank, compute_ns=100_000,
        )

    return factory


def protected_job(seed=5):
    """A 2-rank job under coordinated checkpoints, node 0 failing once."""
    cl = Cluster(n_nodes=2, n_spares=1, seed=seed)
    job = ParallelJob(cl, writer(1500), n_ranks=2, name="oracle")
    mechs = {
        n.node_id: AutonomicCheckpointer(n.kernel, cl.remote_storage)
        for n in cl.nodes
    }
    coord = CheckpointCoordinator(job, mechs, interval_ns=20 * NS_PER_MS)
    coord.start()
    cl.engine.after(70 * NS_PER_MS, lambda: cl.fail_node(0))
    return cl, job, coord


def stop_point(cl, job):
    events = cl.engine.metrics.counters()["engine.events"]
    return cl.engine.now_ns, events, [memory_digest(r.task) for r in job.ranks]


def test_completed_ns_is_the_last_rank_exit_under_any_driver():
    cl = Cluster(n_nodes=2, seed=3)
    a = ParallelJob(cl, writer(2000), n_ranks=1, name="a", node_ids=[0])
    b = ParallelJob(cl, writer(500), n_ranks=1, name="b", node_ids=[1])
    exits = {}
    for job in (a, b):
        task = job.ranks[0].task
        job.ranks[0].node.kernel.on_exit(
            task, lambda t, name=job.name: exits.setdefault(name, cl.engine.now_ns)
        )
    cl.run_until(lambda: a.finished and b.finished, LIMIT_NS)
    assert a.finished and b.finished
    assert b.completed_ns == exits["b"] < exits["a"] == a.completed_ns
    assert b.makespan_s() < a.makespan_s()


def test_run_to_completion_stops_where_the_predicate_oracle_stops():
    cl, job, coord = protected_job()
    assert job.run_to_completion(LIMIT_NS)
    assert coord.recoveries == 1

    cl_o, job_o, coord_o = protected_job()
    cl_o.run_until(lambda: all(r.done for r in job_o.ranks), LIMIT_NS)
    assert coord_o.recoveries == 1

    assert stop_point(cl, job) == stop_point(cl_o, job_o)
    assert job.completed_ns == job_o.completed_ns == cl.engine.now_ns


def test_run_to_completion_of_a_finished_job_returns_at_once():
    cl, job, _ = protected_job()
    assert job.run_to_completion(LIMIT_NS)
    before = stop_point(cl, job)
    makespan = job.makespan_s()
    assert job.run_to_completion(LIMIT_NS)
    assert stop_point(cl, job) == before
    assert job.makespan_s() == makespan


def test_waves_land_when_their_last_request_settles():
    cl, job, coord = protected_job()
    landed = []
    sweep = coord._gc_old_waves

    def on_land():
        landed.append((len(coord.waves), cl.engine.now_ns))
        sweep()

    coord._gc_old_waves = on_land
    job.run_to_completion(LIMIT_NS)
    settled = {
        r.key: r.completed_ns
        for m in coord.mechanisms.values()
        for r in m.requests
        if r.state == RequestState.DONE
    }
    assert len(landed) == len(coord.waves) >= 3
    for n, at_ns in landed:
        wave = coord.waves[n - 1]
        assert at_ns == max(settled[key] for key, _ in wave.values())


def held_wave(settled):
    """A coordinator whose wave requests settle only when the test says
    so (or, with ``settled``, inside ``request_checkpoint``)."""
    cl = Cluster(n_nodes=2, n_spares=1, seed=5)
    job = ParallelJob(cl, writer(1500), n_ranks=2, name="held")
    mechs = {
        n.node_id: AutonomicCheckpointer(n.kernel, cl.remote_storage)
        for n in cl.nodes
    }
    held = []

    def hold(task, incremental=False):
        req = CheckpointRequest(
            key=f"held/{task.pid}/{len(held)}", target_pid=task.pid,
            mechanism="m", initiated_ns=cl.engine.now_ns,
        )
        held.append(req)
        if settled:
            settle_done(cl, req)
        return req

    for mech in mechs.values():
        mech.request_checkpoint = hold
    coord = CheckpointCoordinator(job, mechs, interval_ns=20 * NS_PER_MS)
    return cl, coord, held


def settle_done(cl, req):
    req.state = RequestState.DONE
    req.completed_ns = cl.engine.now_ns
    req.image = SimpleNamespace(step=0)
    req._notify()


def test_requests_of_a_voided_wave_never_land():
    cl, coord, held = held_wave(settled=False)
    coord._wave()
    assert len(held) == 2
    cl.fail_node(0)  # voids the wave in flight
    for req in held:
        settle_done(cl, req)
    assert coord.waves == []


def test_a_wave_settled_inside_request_checkpoint_lands():
    cl, coord, held = held_wave(settled=True)
    coord._wave()
    assert coord.waves == [{0: (held[0].key, 0), 1: (held[1].key, 0)}]
