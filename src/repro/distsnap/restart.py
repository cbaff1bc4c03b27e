"""Whole-job restart from a consistent cut.

Restores everything a :class:`~repro.distsnap.protocols.CutManifest`
names: one process image per rank through the per-process mechanisms
(with ``prefetch`` chain fetching, the restore-prefetch path), the
endpoint messaging counters of the cut, and -- for marker-protocol cuts
-- the logged in-flight messages, which are **replayed** onto the
re-created channels with their original sequence numbers.

The replay is what makes the cut exactly-once: the restored receive
counters stop just short of the logged messages' seqs, so each logged
message is consumed exactly once, and the endpoint's seq-contiguity
assertion turns any orphan (a message the cut lost) or duplicate (a
message both a rank image and the channel log claim) into a hard
:class:`~repro.errors.DistSnapError`.  E22's consistency experiment is
this property, run under load.

Before replay the network's delivery *epoch* is bumped: deliveries
scheduled by the failed incarnation are stale and drop silently when
they fire, instead of corrupting the restarted run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import DistSnapError
from .channels import ChannelNetwork, Message
from .protocols import CutManifest

__all__ = ["JobRestoreResult", "restore_snapshot", "verify_exactly_once"]


@dataclass
class JobRestoreResult:
    """Outcome of a whole-job restore."""

    manifest: CutManifest
    #: Virtual instant the slowest rank finished restoring (manifest
    #: load + image chain I/O + install).
    ready_ns: int
    #: Logged in-flight messages put back on the wire.
    replayed: int
    replayed_bytes: int
    #: Manifest-load I/O delay (charged before any rank restore).
    manifest_delay_ns: int
    #: pid -> per-rank RestoreResult (empty for lightweight restores).
    rank_results: Dict[int, Any] = field(default_factory=dict)


def restore_snapshot(
    store: Any,
    manifest_key: str,
    net: ChannelNetwork,
    mechanisms: Optional[Dict[int, Any]] = None,
    target_kernels: Optional[Dict[int, Any]] = None,
) -> JobRestoreResult:
    """Restore a whole communicating job from the cut at ``manifest_key``.

    Parameters
    ----------
    store:
        The stablestore holding the manifest and the rank images.
    net:
        The channel network to restore onto.  Channels named by the
        manifest's topology are created if missing (a fresh network on
        spare nodes restores the same shape).
    mechanisms:
        pid -> the per-process :class:`~repro.core.checkpointer
        .Checkpointer` to restore that rank's image through, each
        fetching its image chain in parallel (``restart(...,
        prefetch=True)``, the restore-prefetch path).
        Omit for lightweight restores (counters + replay only).
    target_kernels:
        pid -> kernel to restore the rank onto (spare-node placement);
        defaults to each mechanism's home kernel.
    """
    engine = net.engine
    span = engine.tracer.start_span("distsnap.restore", key=manifest_key)
    try:
        manifest, manifest_delay = store.load(manifest_key, engine.now_ns)
    except Exception as exc:
        span.end(state="failed", error=str(exc))
        raise
    if not getattr(manifest, "is_cut_manifest", False):
        span.end(state="failed", error="not a cut manifest")
        raise DistSnapError(f"{manifest_key!r} is not a cut manifest")

    # A restarted job must never see deliveries scheduled by the failed
    # incarnation; from here on only replayed and new messages exist.
    net.bump_epoch()
    net.resume()

    for src, dst, latency_ns in manifest.topology:
        net.connect(src, dst, latency_ns)
    for pid, state in manifest.endpoint_states.items():
        net.endpoint(pid).restore_state(state)

    ready_ns = engine.now_ns + manifest_delay
    rank_results: Dict[int, Any] = {}
    if mechanisms is not None:
        for pid, image_key in manifest.rank_images.items():
            mech = mechanisms.get(pid)
            if mech is None:
                raise DistSnapError(f"no mechanism to restore rank {pid}")
            kernel = (target_kernels or {}).get(pid)
            result = mech.restart(
                image_key, target_kernel=kernel, prefetch=True
            )
            rank_results[pid] = result
            ready_ns = max(ready_ns, result.ready_at_ns)

    # Replay the cut's in-flight messages in channel order with their
    # original seqs; delivery pays normal wire + latency time.
    replayed = 0
    replayed_bytes = 0
    for chan_name in sorted(manifest.channel_messages):
        records = manifest.channel_messages[chan_name]
        src_s, dst_s = chan_name.split("->")
        src, dst = int(src_s), int(dst_s)
        channel = net.channel(src, dst)
        for rec in records:
            channel.send(Message.from_record(src, dst, rec))
            replayed += 1
            replayed_bytes += int(rec["nbytes"])

    engine.metrics.inc("distsnap.restores")
    engine.metrics.inc("distsnap.replayed_msgs", replayed)
    engine.metrics.inc("distsnap.replayed_bytes", replayed_bytes)
    span.end(
        state="done",
        ranks=len(manifest.endpoint_states),
        replayed=replayed,
        ready_ns=ready_ns,
    )
    return JobRestoreResult(
        manifest=manifest,
        ready_ns=ready_ns,
        replayed=replayed,
        replayed_bytes=replayed_bytes,
        manifest_delay_ns=manifest_delay,
        rank_results=rank_results,
    )


def verify_exactly_once(
    net: ChannelNetwork,
    manifest: CutManifest,
    consumed_before: Dict[int, int],
) -> Dict[str, int]:
    """Post-replay consistency probe for experiments and tests.

    ``consumed_before`` maps pid -> the endpoint's ``consumed`` counter
    right after :func:`restore_snapshot` (i.e. the cut's recorded
    value).  After the engine has drained the replay, each endpoint
    must have consumed *exactly* the logged messages destined to it --
    no orphans, no duplicates -- and every channel must be
    seq-contiguous (the audit).  Returns the audit counters; raises
    :class:`DistSnapError` on any violation.
    """
    expected: Dict[int, int] = {}
    for chan_name, records in manifest.channel_messages.items():
        dst = int(chan_name.split("->")[1])
        expected[dst] = expected.get(dst, 0) + len(records)
    for ep in net.endpoints():
        if ep.pid not in manifest.endpoint_states:
            continue
        delta = ep.consumed - consumed_before.get(ep.pid, 0)
        want = expected.get(ep.pid, 0)
        if delta != want:
            kind = "orphan" if delta > want else "lost"
            raise DistSnapError(
                f"{kind} replay on rank {ep.pid}: consumed {delta} "
                f"logged messages, cut recorded {want}"
            )
    return net.audit()
