"""One owner for a checkpoint blob's lifetime.

A stored key is *held* by each stored blob that references it (a
delta's ``parent_key``, a cut manifest's ``pinned_keys()``), by a task
whose ``chain_tip`` names it, and by a hierarchy write-back that
delta-updates it into a new key; a dedup pack, by each referenced
payload homed in it and each open stream that counted a hit against
it.  Every layer of a storage stack shares one :class:`HoldTable`,
and ``delete(key)`` on any layer is a request to it: the layer that
asked drops the blob once no hold is left, which releases the holds
the blob's own references took -- so a superseded delta chain goes
tip first.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

__all__ = ["HoldTable"]


def _references(obj: Any) -> Tuple[str, ...]:
    """The keys a stored object holds: its delta parent and a cut's pins."""
    parent = getattr(obj, "parent_key", None)
    refs: Tuple[str, ...] = () if parent is None else (parent,)
    if getattr(obj, "is_cut_manifest", False):
        refs += tuple(obj.pinned_keys())
    return refs


class HoldTable:
    """Holds on stored keys and the delete requests waiting on them."""

    def __init__(self) -> None:
        self._holds: Dict[str, int] = {}  # key -> holds on it
        self._refs: Dict[str, Tuple[str, ...]] = {}  # key -> keys its blob holds
        self._doomed: Dict[str, Any] = {}  # key -> layer whose delete waits

    def hold(self, key: str) -> None:
        """Take one hold on ``key``."""
        self._holds[key] = self._holds.get(key, 0) + 1

    def release(self, key: str) -> None:
        """Give one hold on ``key`` back, collecting it if it was the last."""
        if self._unhold(key):
            self._collect(key)

    def _unhold(self, key: str) -> bool:
        n = self._holds.pop(key) - 1
        if n:
            self._holds[key] = n
        return not n

    def stored(self, key: str, obj: Any) -> None:
        """``obj`` was committed under ``key``: it holds what it references
        in place of an earlier blob there.  Each commit that installs a
        copy calls this; a repeat changes nothing."""
        refs, old = _references(obj), self._refs.pop(key, ())
        if refs:
            self._refs[key] = refs
        for ref in refs:
            self.hold(ref)
        for ref in old:
            self.release(ref)

    def request(self, key: str, layer: Any) -> None:
        """Ask for ``key`` to go: ``layer._drop(key)`` runs once nothing
        holds it (at once when nothing does)."""
        self._doomed[key] = layer
        if key not in self._holds:
            self._collect(key)

    def _collect(self, key: str) -> None:
        todo = [key]
        while todo:
            key = todo.pop()
            layer = self._doomed.pop(key, None)
            if layer is not None:
                layer._drop(key)
                todo.extend(r for r in self._refs.pop(key, ()) if self._unhold(r))
