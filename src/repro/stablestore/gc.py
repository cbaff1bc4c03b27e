"""Garbage collection of superseded checkpoint generations.

Every mechanism keys images as ``<mech>/<pid>/<counter>`` (see
:meth:`repro.core.checkpointer.Checkpointer._new_request`), so the
service can group blobs into per-process generation sequences and drop
all but the newest few -- the service-level safety net under the
coordinator's own wave pruning (a dead rank's waves, or a coordinator
that never enabled ``keep_waves``, would otherwise leak every
generation forever).

The sweep only *requests* deletes.  The stack's
:class:`~repro.stablestore.holds.HoldTable` decides when each blob
goes: a retained delta holds its whole ancestry, a cut manifest
(``distsnap/<job>/<id>+cut``, never generation-shaped) holds every
rank image it pins, and a live chain tip holds the image its next delta
extends.  A held generation stays until its last holder lets go.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import StorageError
from ..storage.backends import StorageBackend

__all__ = ["GenerationGC"]


def _parse_generation(key: str) -> Optional[Tuple[str, int]]:
    """Split ``mech/pid/counter`` into (group, generation) or None."""
    parts = key.rsplit("/", 1)
    if len(parts) != 2 or not parts[1].isdigit():
        return None
    return parts[0], int(parts[1])


class GenerationGC:
    """Keeps the newest ``keep`` generations per checkpoint group.

    Parameters
    ----------
    store:
        Any :class:`~repro.storage.backends.StorageBackend`; works for
        the replicated service and the monolithic backends alike.
    keep:
        Generations retained per ``<mech>/<pid>`` group.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` receiving
        ``storage.gc_collected`` / ``storage.gc_bytes``.
    """

    def __init__(self, store: StorageBackend, keep: int = 2, metrics=None) -> None:
        if keep < 1:
            raise StorageError("GenerationGC must keep at least one generation")
        self.store = store
        self.keep = int(keep)
        self.metrics = metrics
        self.collected = 0
        self.bytes_collected = 0
        self._stopped = False

    # ------------------------------------------------------------------
    def sweep(self) -> List[str]:
        """Request deletes of superseded generations; returns the keys
        collected by this sweep (held ones stay pending)."""
        groups: Dict[str, List[Tuple[int, str]]] = {}
        for key in list(self.store.keys()):
            parsed = _parse_generation(key)
            if parsed is not None:
                group, gen = parsed
                groups.setdefault(group, []).append((gen, key))
        doomed = [
            key for members in groups.values()
            for _, key in sorted(members)[: -self.keep]
        ]
        sizes = {key: self.store.blob_size(key) for key in doomed}
        for key in doomed:
            self.store.delete(key)
        collected = [key for key in doomed if not self.store.holds.pending(key)]
        swept_bytes = sum(sizes[key] for key in collected)
        self.collected += len(collected)
        self.bytes_collected += swept_bytes
        if self.metrics is not None and collected:
            self.metrics.inc("storage.gc_collected", len(collected))
            self.metrics.inc("storage.gc_bytes", swept_bytes)
        return collected

    # ------------------------------------------------------------------
    def start(self, engine, interval_ns: int) -> None:
        """Run :meth:`sweep` periodically on the shared clock."""

        def tick() -> None:
            if self._stopped:
                return
            self.sweep()
            engine.after(int(interval_ns), tick, label="generation-gc")

        engine.after(int(interval_ns), tick, label="generation-gc")

    def stop(self) -> None:
        """Stop the periodic sweep."""
        self._stopped = True
