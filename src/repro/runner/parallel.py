"""Parallel scenario runner: worker processes driving engine shards.

This is the process backend for :mod:`repro.simkernel.parallel` plus
the one entry point experiments call:

:func:`run_parallel`
    Build ``n_shards`` shard contexts from a scenario factory, drive
    them through conservative windows to the horizon, export each
    shard's ``repro.obs`` document and fold them into one canonical
    document (:mod:`repro.obs.fold`).  ``workers`` counts the processes
    that step shards: ``workers=1`` steps every shard in-process
    (:class:`~repro.simkernel.parallel.LocalShardGroup` -- the
    determinism reference); ``workers > 1`` makes the host worker 0 and
    spreads the other shards over ``workers - 1`` **persistent worker
    processes**.

Every worker, the host included, steps its own shards with a
:class:`~repro.simkernel.parallel.LocalShardGroup`, so one class steps
shards at every worker count.  The worker protocol is the
:class:`~repro.simkernel.parallel.ShardGroup` method names: the host
sends ``(method, args)`` as a pickle over a pipe (DESIGN.md section
10.5 records why pipes are the only transport) and the worker answers
with that method's return value.  A barrier window costs at most one
round trip per child (``window_all`` delivers the last barrier's
inboxes, then runs): the host sends to the children, steps its own
shards, then collects, so all workers advance concurrently.  A child
with no inbox and no event due in a window is not sent it at all.
Workers are persistent: forked once per run, not per window.  A worker
that dies raises :class:`WorkerDiedError`; one that sends nothing for
:data:`_REPLY_DEADLINE_S` is killed and raises
:class:`WorkerHungError`.  Both name the worker and its shards.

Determinism: both backends run the same driver loop and the same
``LocalShardGroup``, and every receiving shard sorts its batch by the
canonical envelope key, so the folded export is byte-identical across
``workers`` *and* ``n_shards`` (the hard gate; see
``benchmarks/perf/check_parallel.py``).
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import MetricsRegistry, to_json
from ..obs.fold import fold_exports, strip_metrics
from ..simkernel.engine import Engine
from ..simkernel.parallel import (
    Inboxes,
    LocalShardGroup,
    ParallelError,
    ShardContext,
    ShardGroup,
    WindowReply,
    WindowStats,
    run_windows,
)

__all__ = [
    "ParallelResult",
    "ProcessShardGroup",
    "WorkerDiedError",
    "WorkerHungError",
    "run_parallel",
]

FactorySpec = Any  # callable or "module:function" dotted name


class WorkerDiedError(ParallelError):
    """A worker process died mid-run (named, instead of a hung barrier).

    ``worker`` is the worker index, ``shards`` the shard ids it owned,
    ``exitcode`` the process exit status when already reaped.
    """

    def __init__(self, message: str, *, worker: int,
                 shards: Sequence[int], exitcode: Optional[int] = None) -> None:
        super().__init__(message)
        self.worker = worker
        self.shards = list(shards)
        self.exitcode = exitcode


class WorkerHungError(WorkerDiedError):
    """A worker stayed alive but sent no reply within the deadline.

    The host kills it (so shutdown does not wait on it) before raising;
    ``worker`` and ``shards`` name it as for :class:`WorkerDiedError`.
    """


#: Longest the host waits for one worker reply before declaring the
#: worker hung.  The slowest reply in the repository's multi-worker runs
#: (a 65,536-node shard's build, window or export) takes about 10 ms on
#: a 2-CPU host; the deadline is four orders of magnitude above that so
#: a loaded host never trips it, yet a hang still ends in bounded time.
_REPLY_DEADLINE_S = 120.0


def _resolve_factory(spec: FactorySpec) -> Callable:
    """Accept a top-level callable or a ``"module:function"`` name."""
    if callable(spec):
        name = getattr(spec, "__qualname__", "")
        if "<" in name or "." in name:
            raise ParallelError(
                f"scenario factory {name!r} must be an importable top-level "
                "function (workers re-import it by name)"
            )
        return spec
    if isinstance(spec, str) and ":" in spec:
        module, _, attr = spec.partition(":")
        import importlib

        return getattr(importlib.import_module(module), attr)
    raise ParallelError(f"bad scenario factory spec {spec!r}")


def _local_group(
    factory: FactorySpec,
    params: Mapping[str, Any],
    seed: int,
    shard_ids: Sequence[int],
    n_shards: int,
    lookahead_ns: Optional[int],
) -> LocalShardGroup:
    """Build shards ``shard_ids`` of an ``n_shards`` run in this process."""
    fn = _resolve_factory(factory)
    shards = []
    for sid in shard_ids:
        ctx = ShardContext(Engine(seed=seed), sid, n_shards,
                           lookahead_ns=lookahead_ns)
        shards.append((ctx, fn(ctx, dict(params), seed)))
    return LocalShardGroup(shards)


# ----------------------------------------------------------------------
# Worker side (module-level: picklable by reference under spawn)
# ----------------------------------------------------------------------
def _worker_main(
    conn,
    factory_name: str,
    params: Dict[str, Any],
    seed: int,
    shard_ids: List[int],
    n_shards: int,
    lookahead_ns: Optional[int],
) -> None:
    # Either start method gives the worker the host's sys.path, so the
    # factory imports by name here as it did there.
    group = _local_group(factory_name, params, seed, shard_ids, n_shards,
                         lookahead_ns)
    try:
        # The verbs are the ShardGroup method names.  The host calls each
        # on its own shards too, so a verb no group has fails there.
        while True:
            verb, args = conn.recv()
            if verb == "close":  # ends the loop without a reply
                break
            conn.send(getattr(group, verb)(*args))
    finally:
        group.close()
        conn.close()


class ProcessShardGroup(ShardGroup):
    """Shards spread over the host and persistent worker processes.

    Shard ``i`` lives on worker ``i % workers``, inside that worker's
    :class:`~repro.simkernel.parallel.LocalShardGroup`.  Worker 0 is
    the host itself; workers ``1 .. workers - 1`` are child processes.
    Every method is sent to the children first, run on the host's
    shards next and collected from the children last, and the answers
    are put back in shard-id order, so the driver sees the exact same
    reply layout as the local group.

    A child none of whose shards has an inbox or an event due by a
    window's end is not sent that window: each of its shards answers
    its last ``next_ns``, nothing processed, no stop.  That is exact,
    because a shard's state changes only through events and
    deliveries.  The skipped child's clocks lag the barrier, so before
    a later ``deliver_all`` or ``export_all`` it is parked at the last
    window end, where the in-process run leaves every clock.
    """

    def __init__(
        self,
        factory: FactorySpec,
        params: Mapping[str, Any],
        seed: int,
        *,
        n_shards: int,
        lookahead_ns: Optional[int],
        workers: int,
    ) -> None:
        if workers < 1:
            raise ParallelError("need at least one worker")
        self.size = int(n_shards)
        workers = min(workers, self.size)
        fn = _resolve_factory(factory)
        name = f"{fn.__module__}:{fn.__qualname__}"
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context("spawn")
        self._owned = [[sid for sid in range(self.size) if sid % workers == w]
                       for w in range(workers)]
        # Worker w >= 1 is the child at _conns[w - 1] / _procs[w - 1].
        self._conns = []
        self._procs = []
        # Each shard's next event time as of its last reply (0, a lower
        # bound, until one arrives), the last window end, and the
        # children that window skipped.
        self._next: List[Optional[int]] = [0] * self.size
        self._end, self._lagging = 0, []
        try:
            for shard_ids in self._owned[1:]:
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, name, dict(params), seed, shard_ids,
                          self.size, lookahead_ns),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
            # Built after the forks, so no child inherits these shards.
            self._host = _local_group(name, params, seed, self._owned[0],
                                      self.size, lookahead_ns)
        except BaseException:
            self._close_children()
            raise

    # ------------------------------------------------------------------
    # Pipe wrappers: a dead or hung worker raises a named error.
    # ------------------------------------------------------------------
    def _failure(self, w: int, reason: str,
                 cls: type = WorkerDiedError) -> WorkerDiedError:
        proc = self._procs[w - 1]
        proc.join(timeout=1)
        code = proc.exitcode
        return cls(
            f"worker {w} (shards {self._owned[w]}) {reason}"
            f"{f' (exit code {code})' if code is not None else ''}",
            worker=w, shards=self._owned[w], exitcode=code,
        )

    def _send(self, w: int, msg: tuple) -> None:
        try:
            self._conns[w - 1].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise self._failure(w, f"died mid-run: {exc!r}") from exc

    def _recv(self, w: int) -> Any:
        conn = self._conns[w - 1]
        try:
            # Data or EOF ends the wait at once, so a dead worker still
            # surfaces as WorkerDiedError from recv().
            if conn.poll(_REPLY_DEADLINE_S):
                return conn.recv()
        except (EOFError, OSError) as exc:
            raise self._failure(w, f"died mid-run: {exc!r}") from exc
        self._procs[w - 1].kill()  # so close() need not wait on it
        raise self._failure(w, f"sent no reply within {_REPLY_DEADLINE_S} s "
                               "and was killed", WorkerHungError)

    def _forward(self, verb: str, *args: Any,
                 inboxes: Optional[Inboxes] = None,
                 to: Optional[Sequence[int]] = None) -> List[Any]:
        """Call ``verb`` on workers ``to`` (ascending; default all),
        passing each only its own shards' ``inboxes``; per-shard answers
        in shard-id order, None for the shards of workers not called.

        The children are sent to first; the host (worker 0) then steps
        its own shards while they step theirs, and their replies are
        read last.
        """
        to = range(len(self._owned)) if to is None else to
        calls = {w: args if inboxes is None else args + (
            {sid: inboxes[sid] for sid in self._owned[w] if sid in inboxes},)
            for w in to}
        for w in to:
            if w:
                self._send(w, (verb, calls[w]))
        answers: List[Any] = [None] * self.size
        for w in to:
            reply = self._recv(w) if w else getattr(self._host, verb)(*calls[0])
            if reply is not None:  # deliver_all answers nothing
                for sid, answer in zip(self._owned[w], reply):
                    answers[sid] = answer
        return answers

    def _park(self) -> None:
        """Bring the children the last window skipped to its end."""
        self._forward("window_all", self._end, inboxes={}, to=self._lagging)
        self._lagging = []

    # ------------------------------------------------------------------
    def status_all(self) -> List[Optional[int]]:
        """Each shard's next pending event time (None when drained)."""
        self._next = self._forward("status_all")
        return list(self._next)

    def window_all(self, end_ns: int, inboxes: Inboxes) -> List[WindowReply]:
        """Deliver ``inboxes`` and run every shard to ``end_ns``; one
        reply per shard.  Idle children are skipped (see the class
        docstring)."""
        nexts = self._next
        due = [w for w, owned in enumerate(self._owned) if not w or any(
            sid in inboxes or (nexts[sid] is not None and nexts[sid] <= end_ns)
            for sid in owned)]
        replies = self._forward("window_all", end_ns, inboxes=inboxes, to=due)
        self._end = end_ns
        self._lagging = [w for w in range(len(self._owned)) if w not in due]
        for sid, reply in enumerate(replies):
            if reply is None:
                replies[sid] = WindowReply([], nexts[sid], 0, False)
            nexts[sid] = replies[sid].next_ns
        return replies

    # Bound here (not just inherited) because the host-time benchmark
    # trace times the barrier exchange through this class attribute.
    exchange = ShardGroup.exchange

    def deliver_all(self, inboxes: Inboxes) -> None:
        """Deliver the last barrier's batches after a stopped run."""
        self._park()
        self._forward("deliver_all", inboxes=inboxes)

    def export_all(self, meta: Mapping[str, Any]) -> List[Tuple[Dict[str, Any], Any]]:
        """One obs document and scenario result per shard, in shard-id
        order."""
        self._park()
        return self._forward("export_all", dict(meta))

    def close(self) -> None:
        """Shut the workers down (terminate any that hang on join)."""
        self._host.close()
        self._close_children()

    def _close_children(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close", ()))
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker guard
                proc.terminate()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
@dataclass
class ParallelResult:
    """Everything one parallel run produces.

    ``obs`` is the folded, engine-metric-stripped document the
    byte-identity gate covers (``obs_json`` is its canonical
    serialization).  ``shard_obs`` holds the fold's inputs, one
    document per shard.  ``barrier_obs`` carries the topology-dependent
    ``parallel.*`` window metrics and deliberately stays out of
    ``obs``.  ``transport`` records the data path used: ``"local"``
    (in-process) or ``"pipe"`` (worker processes).
    """

    obs: Dict[str, Any]
    obs_json: str
    shard_obs: List[Dict[str, Any]]
    shard_results: List[Any]
    stats: WindowStats
    barrier_obs: Dict[str, Any] = field(default_factory=dict)
    transport: str = "local"


def run_parallel(
    factory: FactorySpec,
    params: Mapping[str, Any],
    seed: int,
    *,
    n_shards: int,
    horizon_ns: int,
    lookahead_ns: Optional[int] = None,
    window_ns: Optional[int] = None,
    workers: int = 1,
    transport: str = "auto",
    meta: Optional[Mapping[str, Any]] = None,
) -> ParallelResult:
    """Run one sharded scenario to ``horizon_ns`` and fold its exports.

    Parameters
    ----------
    factory:
        Scenario factory (see :mod:`repro.cluster.scenarios`) -- a
        top-level callable or ``"module:function"`` dotted name.
    n_shards:
        How many engine shards to partition the scenario into.  The
        folded export must not depend on this value; that is the gate.
    lookahead_ns:
        Cross-shard latency floor.  None means the scenario has no
        cross-shard channels (sends would raise).
    window_ns:
        Barrier spacing.  Defaults to the lookahead; may be smaller
        (tighter stop-flag sampling) but never larger.  With neither
        set, the run is one window to the horizon.
    workers:
        How many processes step shards, capped at ``n_shards`` first.
        1 = the in-process reference backend; ``N > 1`` = the host plus
        ``N - 1`` persistent worker processes.
    transport:
        ``"auto"`` or ``"pipe"``; both select the one process transport
        (pickles over pipes).  Any other value raises
        :class:`~repro.simkernel.parallel.ParallelError`.
    meta:
        Experiment metadata stamped into every shard's export.  Must be
        shard-invariant (the fold enforces it).
    """
    if transport not in ("auto", "pipe"):
        raise ParallelError(f"unknown transport {transport!r}")
    if window_ns is None:
        window_ns = lookahead_ns
    if (window_ns is not None and lookahead_ns is not None
            and window_ns > lookahead_ns):
        raise ParallelError(
            f"window {window_ns} exceeds lookahead {lookahead_ns}: the "
            "conservative condition would not hold"
        )
    meta = dict(meta or {})
    registry = MetricsRegistry()
    group: ShardGroup
    workers = min(workers, n_shards)
    if workers == 1:
        group = _local_group(factory, params, seed, range(n_shards),
                             n_shards, lookahead_ns)
        used_transport = "local"
    else:
        group = ProcessShardGroup(
            factory, params, seed,
            n_shards=n_shards, lookahead_ns=lookahead_ns, workers=workers,
        )
        used_transport = "pipe"
    try:
        stats = run_windows(group, horizon_ns=horizon_ns,
                            window_ns=window_ns, registry=registry)
        exports = group.export_all(meta)
    finally:
        group.close()
    shard_obs = [doc for doc, _ in exports]
    shard_results = [result for _, result in exports]
    folded = fold_exports([strip_metrics(doc) for doc in shard_obs])
    return ParallelResult(
        obs=folded,
        obs_json=to_json(folded),
        shard_obs=shard_obs,
        shard_results=shard_results,
        stats=stats,
        barrier_obs=registry.to_dict(),
        transport=used_transport,
    )
