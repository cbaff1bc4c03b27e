"""The abstract Checkpointer API.

A :class:`Checkpointer` is one point in the paper's taxonomy made
executable: it installs itself into a simulated kernel through the same
interface its real counterpart uses (new syscalls, a new kernel signal, a
kernel thread behind a /dev or /proc node, user-level signal handlers
plus preloaded wrappers), accepts checkpoint requests, produces
:class:`~repro.core.image.CheckpointImage` objects on stable storage, and
restarts tasks from them.

The request lifecycle is asynchronous in virtual time: initiation returns
a :class:`CheckpointRequest` immediately; the capture work is executed by
the simulation (inside whatever context the mechanism uses), and the
request records initiation latency, capture duration, stall time and
image key for the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ..errors import CheckpointError, RestartError, StorageError
from ..simkernel import Kernel, Task
from ..storage.backends import StorageBackend
from .capture import RestoreResult, load_image, restore_image
from .features import Features
from .image import CheckpointImage, materialize_chain
from .taxonomy import TaxonomyPosition

__all__ = ["RequestState", "CheckpointRequest", "Checkpointer"]


class RequestState(str, Enum):
    """Lifecycle of a checkpoint request."""

    PENDING = "pending"  # initiated, capture not yet started
    RUNNING = "running"  # capture in progress
    DONE = "done"
    FAILED = "failed"


@dataclass
class CheckpointRequest:
    """Tracking record for one checkpoint operation."""

    key: str
    target_pid: int
    mechanism: str
    initiated_ns: int
    state: RequestState = RequestState.PENDING
    started_ns: Optional[int] = None
    completed_ns: Optional[int] = None
    image: Optional[CheckpointImage] = None
    error: Optional[str] = None
    #: Virtual time the target spent frozen for this checkpoint.
    target_stall_ns: int = 0
    #: Client-visible stable-storage write latency for the image (the
    #: autonomic controller folds this into its interval retuning).
    storage_delay_ns: int = 0
    incremental: bool = False
    #: Tracing span covering initiation -> completion (closed by
    #: ``_complete``/``_fail``; stays open if the capture is abandoned).
    span: Optional[Any] = field(default=None, repr=False)
    #: Watchers invoked (with the request) when the request reaches DONE
    #: or FAILED.  Event-driven consumers -- the distributed-snapshot
    #: protocols collecting a whole gang's captures -- subscribe here
    #: instead of polling the state on an engine timer.
    _watchers: List[Callable[["CheckpointRequest"], None]] = field(
        default_factory=list, repr=False
    )

    def add_done_callback(self, fn: Callable[["CheckpointRequest"], None]) -> None:
        """Run ``fn(self)`` once the request completes or fails (now, if
        it already has)."""
        if self.state in (RequestState.DONE, RequestState.FAILED):
            fn(self)
        else:
            self._watchers.append(fn)

    def _notify(self) -> None:
        watchers, self._watchers = self._watchers, []
        for fn in watchers:
            fn(self)

    @property
    def initiation_latency_ns(self) -> Optional[int]:
        """Initiation -> capture start (the E7 metric)."""
        if self.started_ns is None:
            return None
        return self.started_ns - self.initiated_ns

    @property
    def capture_duration_ns(self) -> Optional[int]:
        """Capture start -> image on stable storage."""
        if self.completed_ns is None or self.started_ns is None:
            return None
        return self.completed_ns - self.started_ns

    @property
    def total_latency_ns(self) -> Optional[int]:
        """Initiation -> completion."""
        if self.completed_ns is None:
            return None
        return self.completed_ns - self.initiated_ns


class Checkpointer:
    """Base class for every mechanism model.

    Subclasses must set the class attributes ``mech_name``, ``position``
    and ``features``, implement :meth:`request_checkpoint`, and may
    override :meth:`prepare_target` (registration/launcher phases),
    :meth:`install`/:meth:`uninstall` hooks and the restore knobs.

    Parameters
    ----------
    kernel:
        The node this mechanism instance is installed on.
    storage:
        Stable-storage backend checkpoints are written to.  Must be one
        of the kinds the mechanism supports (Table 1 storage column).
    """

    #: Mechanism name exactly as Table 1 spells it.
    mech_name: str = "abstract"
    position: TaxonomyPosition
    features: Features
    description: str = ""
    #: True for mechanisms the paper surveys (Figure 1 / Table 1 members);
    #: False for designs this repository adds (the "direction forward").
    surveyed: bool = True

    def __init__(self, kernel: Kernel, storage: StorageBackend) -> None:
        supported = self.features.stable_storage
        if supported and storage.kind not in supported:
            raise CheckpointError(
                f"{self.mech_name} does not support {storage.kind.value} "
                f"storage (supports: {[k.value for k in supported]})"
            )
        self.kernel = kernel
        self.storage = storage
        self.requests: List[CheckpointRequest] = []
        #: chain tip key -> materialized flat image (memo: a multi-rank
        #: restart re-flattens the identical chain per rank otherwise;
        #: wall-clock only, I/O is still charged per restart).
        self._flat_cache: Dict[str, CheckpointImage] = {}
        #: chain tip key -> key of its compacted flat image on storage.
        self._flat_alias: Dict[str, str] = {}
        self.installed = False
        self.install()
        self.installed = True

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Hook the mechanism into the kernel (module load, new syscalls,
        new signals, device nodes).  Default: nothing."""

    def uninstall(self) -> None:
        """Remove kernel hooks (only possible for kernel modules)."""
        if not self.features.kernel_module:
            raise CheckpointError(
                f"{self.mech_name} is compiled into the static kernel and "
                f"cannot be unloaded"
            )
        self.installed = False

    def prepare_target(self, task: Task) -> None:
        """Per-process setup before checkpoints work.

        Default: none (fully transparent mechanisms).  BLCR's library
        registration, EPCKPT's launcher, and every user-level package
        override this -- it is what costs them Table 1's transparency
        "no" (experiment E16).
        """

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        """Initiate a checkpoint of ``task`` via this mechanism's interface.

        Returns immediately; run the engine to let the capture proceed.
        """
        raise NotImplementedError

    def _new_request(self, task: Task, incremental: bool = False) -> CheckpointRequest:
        # The generation counter is engine-scoped: unique across every
        # mechanism instance sharing the clock (nodes allocate
        # overlapping pids), yet reset with the engine so same-seed runs
        # produce identical key sequences.
        key = (
            f"{self.mech_name}/{task.pid}/"
            f"{self.kernel.engine.next_id('checkpoint.key')}"
        )
        req = CheckpointRequest(
            key=key,
            target_pid=task.pid,
            mechanism=self.mech_name,
            initiated_ns=self.kernel.engine.now_ns,
            incremental=incremental and self.features.incremental,
        )
        if incremental and not self.features.incremental:
            raise CheckpointError(
                f"{self.mech_name} does not implement incremental checkpointing"
            )
        engine = self.kernel.engine
        engine.metrics.inc("checkpoint.requests")
        req.span = engine.tracer.start_span(
            "checkpoint",
            mechanism=self.mech_name,
            pid=task.pid,
            key=key,
            incremental=req.incremental,
        )
        self.requests.append(req)
        return req

    def _chain_parent(self, task: Task) -> Optional[str]:
        """The key a delta of ``task`` extends: the task's chain tip, if
        it lives in this mechanism's storage (else a capture is full)."""
        tip = task.chain_tip
        return tip[1] if tip is not None and tip[0] is self.storage else None

    def _new_image(self, req: CheckpointRequest, task: Task) -> CheckpointImage:
        return CheckpointImage(
            key=req.key,
            mechanism=self.mech_name,
            pid=task.pid,
            task_name=task.name,
            node_id=self.kernel.node_id,
            step=task.main_steps,
            registers=task.registers.snapshot(),
            parent_key=self._chain_parent(task) if req.incremental else None,
        )

    def _complete(
        self, req: CheckpointRequest, image: CheckpointImage, task: Task
    ) -> None:
        req.image = image
        req.state = RequestState.DONE
        req.completed_ns = self.kernel.engine.now_ns
        task.chain_tip = (self.storage, image.key)
        metrics = self.kernel.engine.metrics
        metrics.inc("checkpoint.completed")
        metrics.observe("checkpoint.stall_ns", req.target_stall_ns)
        metrics.observe("checkpoint.capture_bytes", image.size_bytes)
        if req.storage_delay_ns > 0:
            metrics.observe("storage.commit_ns", req.storage_delay_ns)
        if req.span is not None:
            req.span.end(state="done", image_bytes=image.size_bytes)
        if self.compaction_threshold is not None:
            self.maybe_compact(image)
        req._notify()

    def _fail(self, req: CheckpointRequest, message: str) -> None:
        req.state = RequestState.FAILED
        req.error = message
        req.completed_ns = self.kernel.engine.now_ns
        self.kernel.engine.metrics.inc("checkpoint.failed")
        if req.span is not None:
            req.span.end(state="failed", error=message)
        req._notify()

    # ------------------------------------------------------------------
    # Restart
    # ------------------------------------------------------------------
    #: Restore capability knobs subclasses override.
    restores_pid: bool = False
    virtualizes_resources: bool = False
    rescues_deleted_files: bool = False
    #: Flatten delta chains once they reach this many images into a
    #: cached flat blob beside the tip (bounding restart latency and
    #: chain_chunks); None disables compaction.
    compaction_threshold: Optional[int] = None
    #: Entries kept in the materialize memo before the oldest is evicted.
    _FLAT_CACHE_MAX = 16

    def chain_available(self, key: str) -> bool:
        """Whether ``key`` and its whole base+delta ancestry are readable.

        A pure availability probe (no I/O is charged): restart policies
        use it to pick the newest checkpoint *generation* whose chain
        survives the current storage failures before committing to a
        restore.  A surviving compacted flat image also satisfies the
        probe -- restart will read it instead of the chain.
        """
        alias = self._flat_alias.get(key)
        if alias is not None and self.storage.exists(alias):
            return True
        k: Optional[str] = key
        while k is not None:
            if not self.storage.exists(k):
                return False
            try:
                image = self.storage.peek(k)
            except StorageError:
                return False
            k = getattr(image, "parent_key", None)
        return True

    def _chain_keys(self, key: str) -> List[str]:
        """Tip-first key list of ``key``'s ancestry (I/O-free peek walk)."""
        keys: List[str] = []
        k: Optional[str] = key
        while k is not None:
            keys.append(k)
            k = getattr(self.storage.peek(k), "parent_key", None)
        return keys

    def image_chain(
        self,
        key: str,
        target_kernel: Optional[Kernel] = None,
        prefetch: bool = False,
    ):
        """Fetch the full-image + delta chain ending at ``key``.

        ``prefetch`` fans the fetches out at one virtual instant through
        the backend's :meth:`load_parallel` (total delay = slowest fetch
        instead of the serial walk's sum).  When a compacted flat image
        of this tip survives on storage, both modes read that single
        blob instead of the chain.
        """
        kernel = target_kernel or self.kernel
        alias = self._flat_alias.get(key)
        if alias is not None and self.storage.exists(alias):
            image, delay = load_image(kernel, self.storage, alias)
            kernel.engine.metrics.inc("restart.compacted_hits")
            return [image], delay
        if prefetch:
            keys = self._chain_keys(key)
            objs, total_delay = self.storage.load_parallel(
                keys, kernel.engine.now_ns
            )
            chain = []
            for k in keys:
                img = objs[k]
                if not isinstance(img, CheckpointImage):
                    raise RestartError(f"blob {k!r} is not a checkpoint image")
                chain.append(img)
            chain.reverse()
            kernel.engine.metrics.inc("restart.prefetched_chains")
            return chain, total_delay
        chain: List[CheckpointImage] = []
        total_delay = 0
        k: Optional[str] = key
        while k is not None:
            image, delay = load_image(kernel, self.storage, k)
            total_delay += delay
            chain.append(image)
            k = image.parent_key
        chain.reverse()
        return chain, total_delay

    def _materialize(self, key: str, chain: List[CheckpointImage]) -> CheckpointImage:
        """Memoized chain flatten: one overlay pass per chain tip.

        A multi-rank restart restores the same generation once per
        rank; the chain behind one tip key is immutable, so the flatten
        result is reused (virtual-time I/O is still charged per restart
        by :meth:`image_chain` -- the memo saves wall-clock only).
        """
        flat = self._flat_cache.get(key)
        if flat is None:
            flat = materialize_chain(chain, page_size=self.kernel.costs.page_size)
            if len(self._flat_cache) >= self._FLAT_CACHE_MAX:
                self._flat_cache.pop(next(iter(self._flat_cache)))
            self._flat_cache[key] = flat
        return flat

    def maybe_compact(self, image: CheckpointImage) -> Optional[str]:
        """Flatten ``image``'s chain into a stored flat blob if too deep.

        Runs after a delta completes when :attr:`compaction_threshold`
        is set: the chain is prefetched in parallel, flattened, and the
        flat image stored under ``<tip>+flat`` (only this policy
        deletes it).  Future
        restarts of the tip read the single flat blob.  Returns the flat
        key, or None when no compaction happened.
        """
        if self.compaction_threshold is None or not image.is_incremental:
            return None
        try:
            keys = self._chain_keys(image.key)
        except StorageError:
            return None
        if len(keys) < self.compaction_threshold:
            return None
        engine = self.kernel.engine
        span = engine.tracer.start_span(
            "compaction", key=image.key, depth=len(keys)
        )
        try:
            chain, _ = self.image_chain(image.key, prefetch=True)
            flat = self._materialize(image.key, chain)
            old_tip = next((t for t in keys[1:] if t in self._flat_alias), None)
            delta_fn = getattr(self.storage, "store_delta", None)
            if old_tip is not None and delta_fn is not None:
                # Re-compaction: the new flat differs from the previous
                # chain's flat only where the deltas newer than that tip
                # wrote, so re-protect just those byte extents (and let
                # the store rebase the old flat's stripe to the new key).
                newer = set(keys[: keys.index(old_tip)])
                page_size = self.kernel.costs.page_size
                extents = [
                    ext
                    for img in chain
                    if img.key in newer
                    for ext in img.dirty_byte_extents(page_size)
                ]
                delta_fn(
                    flat.key,
                    flat,
                    flat.size_bytes,
                    extents,
                    engine.now_ns,
                    base_key=self._flat_alias[old_tip],
                )
                engine.metrics.inc("compaction.delta_runs")
            else:
                self.storage.store(flat.key, flat, flat.size_bytes, engine.now_ns)
        except (StorageError, RestartError) as exc:
            span.end(state="failed", error=str(exc))
            return None
        # Hygiene: request deletes of flats whose tips are gone (pruned
        # generations) and of flats for ancestors of this tip -- the
        # newest flat on a chain subsumes the older ones, which no
        # restart will pick.  A write-back still updating an old flat
        # into the new one holds it until the copy lands.
        ancestors = set(keys[1:])
        stale = [
            t for t in self._flat_alias
            if t in ancestors or not self.storage.exists(t)
        ]
        for tip in stale:
            self.storage.delete(self._flat_alias.pop(tip))
        self._flat_alias[image.key] = flat.key
        engine.metrics.inc("compaction.runs")
        engine.metrics.observe("compaction.chunks", len(flat.chunks))
        span.end(state="done", flat_key=flat.key, chunks=len(flat.chunks))
        return flat.key

    def restart(
        self,
        key: str,
        target_kernel: Optional[Kernel] = None,
        strict_kernel_state: bool = True,
        prefetch: bool = False,
    ) -> RestoreResult:
        """Restart the process checkpointed under ``key``.

        ``target_kernel`` may be a different node -- that is the whole
        point of remote stable storage.  ``prefetch`` fetches the parent
        chain in parallel instead of walking it serially.  Raises
        :class:`~repro.errors.IncompatibleStateError` when the image
        needs kernel-persistent state this mechanism cannot recreate.
        """
        kernel = target_kernel or self.kernel
        engine = kernel.engine
        span = engine.tracer.start_span(
            "restart", mechanism=self.mech_name, key=key, node=kernel.node_id
        )
        try:
            chain, io_delay = self.image_chain(key, kernel, prefetch=prefetch)
            image = (
                chain[0]
                if len(chain) == 1
                else self._materialize(key, chain)
            )
            result = restore_image(
                kernel,
                image,
                io_delay_ns=io_delay,
                restore_pid=self.restores_pid,
                virtualize=self.virtualizes_resources,
                rescue_deleted_files=self.rescues_deleted_files,
                strict_kernel_state=strict_kernel_state,
                name_suffix=":r",
            )
        except Exception as exc:
            engine.metrics.inc("restart.failed")
            span.end(state="failed", error=str(exc))
            raise
        # The next delta extends (and the tip holds) the requested key,
        # never a compacted ``+flat`` blob: compaction requests a flat's
        # delete when it re-flattens, which a tip on it would defer.
        result.task.chain_tip = (self.storage, key)
        engine.metrics.inc("restart.count")
        engine.metrics.observe(
            "restart.total_ns", result.io_delay_ns + result.install_delay_ns
        )
        span.end(
            state="done",
            pid=result.task.pid,
            chain_len=len(chain),
            ready_at_ns=result.ready_at_ns,
        )
        return result

    # ------------------------------------------------------------------
    def completed_requests(self) -> List[CheckpointRequest]:
        """All successfully completed requests."""
        return [r for r in self.requests if r.state == RequestState.DONE]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.mech_name!r} on node {self.kernel.node_id}>"
