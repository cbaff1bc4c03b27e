"""The hold table: one owner for every stored blob's lifetime.

Random sequences of stores (with a delta parent or cut pins), delete
requests, chain-tip moves, write-backs that delta-update a base into a
new key, and dedup write streams run against a dedup store over a
two-level hierarchy (one write-through level, one write-back level).
After every step the store is checked against a model that derives
from the operations alone what must still be there.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from image_oracle import add_page
from repro.core.image import CheckpointImage
from repro.simkernel import Engine
from repro.simkernel.process import Task
from repro.stablestore import ContentStore, HierarchicalStore, StorageLevel
from repro.storage.backends import MemoryStorage

WRITEBACK_NS = 1_000
PAGE = 256


class Cut:
    """A cut manifest's shape: it pins images and has no parent."""

    is_cut_manifest = True
    parent_key = None

    def __init__(self, pins):
        self.pins = sorted(pins)

    def pinned_keys(self):
        return list(self.pins)


class Blob:
    """A plain stored object with an optional delta parent."""

    def __init__(self, parent_key=None):
        self.parent_key = parent_key


def image(key, parent, values):
    img = CheckpointImage(
        key=key, mechanism="m", pid=1, task_name="t", node_id=0, step=0,
        registers={}, parent_key=parent,
    )
    for i, v in enumerate(values):
        add_page(img, "heap", i, np.full(PAGE, v, dtype=np.uint8))
    return img


pick = st.integers(0, 63)
pages = st.lists(st.integers(0, 4), min_size=1, max_size=3)
OPS = st.one_of(
    st.tuples(st.just("store"), st.none() | pick, pages),
    st.tuples(st.just("cut"), st.lists(pick, min_size=1, max_size=3)),
    st.tuples(st.just("delete"), pick),
    st.tuples(st.just("tip"), st.none() | pick),
    st.tuples(st.just("writeback"), pick),
    st.just(("land",)),
    st.tuples(st.just("open"), st.none() | pick, pages),
    st.tuples(st.just("commit"), pick),
    st.tuples(st.just("abort"), pick),
)


class Run:
    """The store under test plus the model of what must remain."""

    def __init__(self):
        self.engine = Engine(seed=1)
        self.hier = HierarchicalStore(self.engine, [
            StorageLevel("near", MemoryStorage()),
            StorageLevel("far", MemoryStorage(), write="back",
                         writeback_delay_ns=WRITEBACK_NS),
        ])
        self.cs = ContentStore(self.hier)
        self.table = self.cs.holds
        self.task = Task(pid=1, name="t", mm=None)
        self.n = 0
        #: key -> keys its blob references, for every stored key.
        self.refs = {}
        #: Stored keys the model says are still there.
        self.present = set()
        self.requested = set()
        self.bases = Counter()  # write-back bases not yet landed
        self.streams = []  # (open stream, its image)
        self.landed = set()  # keys that reached the write-back level

    def key(self, i):
        keys = sorted(self.refs)
        return keys[i % len(keys)] if keys else None

    def new_key(self):
        self.n += 1
        return f"m/1/{self.n}"

    def stored(self, key, refs):
        self.refs[key] = tuple(refs)
        self.present.add(key)

    def step(self, op):
        kind, *args = op
        now = self.engine.now_ns
        if kind == "store":
            parent, values = args
            img = image(self.new_key(), self.key(parent) if parent is not None else None,
                        values)
            self.cs.store(img.key, img, img.size_bytes, now)
            self.stored(img.key, [img.parent_key] if img.parent_key else [])
        elif kind == "cut" and self.refs:
            pins = {self.key(i) for i in args[0]}
            key = f"distsnap/j/{self.new_key()}+cut"
            self.cs.store(key, Cut(pins), 64, now)
            self.stored(key, pins)
        elif kind == "delete" and self.refs:
            key = self.key(args[0])
            self.cs.delete(key)
            self.requested.add(key)
        elif kind == "tip":
            key = self.key(args[0]) if args[0] is not None else None
            self.task.chain_tip = (self.cs, key) if key is not None else None
        elif kind == "writeback" and self.refs:
            base, key = self.key(args[0]), self.new_key()
            self.hier.store_delta(key, Blob(), 128, [(0, 16)], now, base_key=base)
            self.stored(key, [])
            self.bases[base] += 1
        elif kind == "land":
            self.engine.run(until_ns=now + 2 * WRITEBACK_NS)
            self.bases.clear()
            self.landed |= set(self.hier.keys())
        elif kind == "open":
            parent, values = args
            img = image(self.new_key(), self.key(parent) if parent is not None else None,
                        values)
            stream = self.cs.open_stream(img.key, now)
            for chunk in img.chunks:
                stream.send_chunk(chunk, now)
            self.streams.append((stream, img))
        elif kind in ("commit", "abort") and self.streams:
            stream, img = self.streams.pop(args[0] % len(self.streams))
            if kind == "commit":
                stream.commit(img, img.size_bytes, now)
                self.stored(img.key, [img.parent_key] if img.parent_key else [])
            else:
                stream.abort()
        self.settle()

    def held(self, key):
        tip = self.task.chain_tip
        return (
            (tip is not None and tip[1] == key)
            or self.bases[key] > 0
            or any(key in self.refs[k] for k in self.present)
        )

    def settle(self):
        """Collect, in the model, every requested key nothing holds."""
        while True:
            gone = {k for k in self.present & self.requested if not self.held(k)}
            if not gone:
                return
            self.present -= gone

    def check(self):
        there = set(self.hier.keys())
        for key in self.refs:
            # No held key is collected; every unheld requested key is gone.
            assert (key in there) == (key in self.present), key
        # A pending delete always waits on a hold.
        assert all(k in self.table._holds for k in self.table._doomed)
        # Every level holds exactly the blobs that remain.
        expected = sum(
            self.hier._directory[k] * (2 if k in self.landed else 1) for k in there
        )
        assert self.hier.physical_bytes() == expected

    def drain(self):
        """Let every holder go and request every delete: nothing is left."""
        for stream, _ in self.streams:
            stream.abort()
        self.task.chain_tip = None
        self.step(("land",))
        for key in list(self.refs):
            self.cs.delete(key)
        assert list(self.hier.keys()) == []
        assert self.hier.physical_bytes() == 0
        assert not (self.table._holds or self.table._refs or self.table._doomed)
        assert not (self.cs._pack_members or self.cs._refs or self.cs._home)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.lists(OPS, max_size=30))
def test_no_held_blob_is_collected_and_no_requested_one_leaks(ops):
    run = Run()
    for op in ops:
        run.step(op)
        run.check()
    run.drain()


def test_delta_chain_goes_tip_first():
    run = Run()
    for op in (("store", None, [1]), ("store", 0, [2]), ("store", 1, [3])):
        run.step(op)
    base, mid, tip = sorted(run.refs)
    run.cs.delete(base)
    run.cs.delete(mid)
    assert base in run.table._doomed and mid in run.table._doomed
    assert set(run.hier.keys()) >= {base, mid, tip}
    run.cs.delete(tip)
    assert list(run.cs.keys()) == []


def test_a_write_back_holds_its_base_until_it_lands():
    run = Run()
    run.step(("store", None, [1]))
    (base,) = run.refs
    run.step(("writeback", 0))
    run.cs.delete(base)
    assert run.cs.exists(base) and base in run.table._doomed
    run.step(("land",))
    assert not run.cs.exists(base)
