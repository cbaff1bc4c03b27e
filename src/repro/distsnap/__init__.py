"""``repro.distsnap`` -- coordinated distributed snapshots.

Every mechanism in :mod:`repro.core` checkpoints a single process; this
package adds the coordination layer the paper's direction-forward
argument needs for whole-job fault tolerance: FIFO message channels
between simulated processes (:mod:`.channels`), a Chandy-Lamport-style
marker protocol and a coordinated stop-the-world protocol that drive
the existing per-process checkpointers and write a consistent-cut
manifest (:mod:`.protocols`), and whole-job restart from a cut with
in-flight message replay (:mod:`.restart`).  See DESIGN.md §9.
"""

from .channels import (
    Channel,
    ChannelNetwork,
    Endpoint,
    Message,
    TrafficDriver,
    message_link,
)
from .protocols import (
    CutManifest,
    MarkerProtocol,
    SnapRank,
    SnapshotProtocol,
    StopTheWorldProtocol,
)
from .restart import JobRestoreResult, restore_snapshot, verify_exactly_once

__all__ = [
    "Channel",
    "ChannelNetwork",
    "Endpoint",
    "Message",
    "TrafficDriver",
    "message_link",
    "CutManifest",
    "MarkerProtocol",
    "SnapRank",
    "SnapshotProtocol",
    "StopTheWorldProtocol",
    "JobRestoreResult",
    "restore_snapshot",
    "verify_exactly_once",
]
