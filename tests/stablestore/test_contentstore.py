"""Tests for the content-addressed dedup layer (repro.stablestore.contentstore)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.digest as digest
from image_oracle import add_extent, add_page
from repro.core.image import CheckpointImage, materialize_chain
from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry
from repro.simkernel import Engine
from repro.stablestore import (
    ContentStore,
    GenerationGC,
    ImageManifest,
    ReplicatedStore,
    StorageCluster,
)
from repro.storage.backends import MemoryStorage


def make_image(key, values, parent=None, vma="heap"):
    """Image with one 4 KiB page per entry of ``values``."""
    img = CheckpointImage(
        key=key, mechanism="m", pid=1, task_name="t", node_id=0, step=0,
        registers={"pc": 0}, parent_key=parent,
    )
    for i, val in enumerate(values):
        add_page(img, vma, i, np.full(4096, val, dtype=np.uint8))
    return img


def make_replicated(n=3, rf=2):
    engine = Engine(seed=1)
    sc = StorageCluster(engine, n_servers=n)
    inner = ReplicatedStore(sc, replication=rf)
    return sc, inner, ContentStore(inner)


class TestDedup:
    def test_identical_generations_write_payload_once(self):
        _, inner, store = make_replicated()
        img1 = make_image("m/1/1", [1, 2, 3, 4])
        store.store(img1.key, img1, img1.size_bytes, 0)
        first_written = inner.bytes_written
        # Same content next generation: no new pack at all.
        img2 = make_image("m/1/2", [1, 2, 3, 4])
        store.store(img2.key, img2, img2.size_bytes, 0)
        assert store.unique_payload_bytes == 4 * 4096
        assert store.logical_payload_bytes == 8 * 4096
        assert store.dedup_ratio == pytest.approx(2.0)
        # Second generation cost only its (replicated) manifest, not the
        # 4 pages x rf=2 = 32 KiB a non-dedup store would rewrite.
        assert inner.bytes_written - first_written < 4 * 4096
        # Exactly one pack blob exists behind the two manifests.
        assert sorted(inner.keys()) == ["m/1/1", "m/1/1.pack", "m/1/2"]

    def test_repeated_page_within_one_image_packed_once(self):
        _, _, store = make_replicated()
        img = make_image("m/1/1", [7, 7, 7, 9])
        store.store(img.key, img, img.size_bytes, 0)
        assert store.unique_payload_bytes == 2 * 4096  # the 7-page + the 9-page
        assert store.logical_payload_bytes == 4 * 4096

    def test_load_reassembles_byte_exact(self):
        _, _, store = make_replicated()
        img = make_image("m/1/1", [5, 6, 5, 8])
        store.store(img.key, img, img.size_bytes, 0)
        restored, delay = store.load("m/1/1", 0)
        assert isinstance(restored, CheckpointImage)
        assert delay > 0
        assert restored.parent_key is None
        ref = img.chunk_index()
        got = restored.chunk_index()
        assert got.keys() == ref.keys()
        for key, chunk in ref.items():
            np.testing.assert_array_equal(got[key].data, chunk.data)

    def test_non_image_blobs_pass_through(self):
        _, inner, store = make_replicated()
        store.store("bench/1/1", b"raw", 128, 0)
        obj, _ = store.load("bench/1/1", 0)
        assert obj == b"raw"
        assert store.images_stored == 0
        assert inner.blob_size("bench/1/1") == 128

    def test_keys_hide_packs_and_peek_returns_manifest(self):
        _, _, store = make_replicated()
        base = make_image("m/1/1", [1])
        store.store(base.key, base, base.size_bytes, 0)
        delta = make_image("m/1/2", [2], parent="m/1/1")
        store.store(delta.key, delta, delta.size_bytes, 0)
        assert list(store.keys()) == ["m/1/1", "m/1/2"]
        manifest = store.peek("m/1/2")
        assert isinstance(manifest, ImageManifest)
        assert manifest.parent_key == "m/1/1"

    def test_exists_requires_referenced_packs(self):
        _, inner, store = make_replicated()
        img = make_image("m/1/1", [1, 2])
        store.store(img.key, img, img.size_bytes, 0)
        assert store.exists("m/1/1")
        inner._drop("m/1/1.pack")  # simulate pack loss behind the wrapper
        assert not store.exists("m/1/1")


class TestRefcountedDelete:
    def test_pack_survives_while_referenced_then_dies(self):
        _, inner, store = make_replicated()
        img1 = make_image("m/1/1", [1, 2])
        img2 = make_image("m/1/2", [1, 2])  # same content, no own pack
        store.store(img1.key, img1, img1.size_bytes, 0)
        store.store(img2.key, img2, img2.size_bytes, 0)
        store.delete("m/1/1")
        # Generation 2 still references the payloads homed in gen 1's pack.
        assert inner.exists("m/1/1.pack")
        restored, _ = store.load("m/1/2", 0)
        assert restored.chunk_index()[("heap", 0, 0)].data[0] == 1
        store.delete("m/1/2")
        assert not inner.exists("m/1/1.pack")
        assert list(store.keys()) == []

    def test_partial_overlap_keeps_shared_payloads_only(self):
        _, inner, store = make_replicated()
        store_img = make_image("m/1/1", [1, 2, 3])
        store.store(store_img.key, store_img, store_img.size_bytes, 0)
        overlap = make_image("m/1/2", [2, 3, 4])  # shares 2 of 3 pages
        store.store(overlap.key, overlap, overlap.size_bytes, 0)
        assert store.unique_payload_bytes == 4 * 4096
        store.delete("m/1/1")
        # Pack 1 still hosts the shared 2/3 payloads.
        assert inner.exists("m/1/1.pack")
        restored, _ = store.load("m/1/2", 0)
        for i, val in enumerate([2, 3, 4]):
            assert restored.chunk_index()[("heap", i, 0)].data[0] == val

    def test_generation_gc_drops_unreferenced_packs(self):
        _, inner, store = make_replicated()
        # Three generations: 1 and 2 share content, 3 is all-new.
        for key, vals in (("m/1/1", [1, 2]), ("m/1/2", [1, 2]), ("m/1/3", [8, 9])):
            img = make_image(key, vals)
            store.store(img.key, img, img.size_bytes, 0)
        gc = GenerationGC(store, keep=1)
        collected = gc.sweep()
        assert sorted(collected) == ["m/1/1", "m/1/2"]
        # Their shared pack died with the last reference; gen 3's lives.
        assert not inner.exists("m/1/1.pack")
        assert inner.exists("m/1/3.pack")
        restored, _ = store.load("m/1/3", 0)
        assert restored.chunk_index()[("heap", 1, 0)].data[0] == 9

    def test_gc_protects_delta_chain_packs(self):
        _, inner, store = make_replicated()
        base = make_image("m/1/1", [1, 2])
        store.store(base.key, base, base.size_bytes, 0)
        delta = make_image("m/1/2", [3], parent="m/1/1")
        store.store(delta.key, delta, delta.size_bytes, 0)
        gc = GenerationGC(store, keep=1)
        assert gc.sweep() == []  # base is the retained delta's ancestor
        assert inner.exists("m/1/1.pack")
        restored, _ = store.load("m/1/1", 0)
        assert restored.chunk_index()[("heap", 0, 0)].data[0] == 1


def payload_bytes(img):
    """Per-page (vma, page, offset, bytes) rows of ``img``, whatever its
    chunk partition (a load reassembles runs of pages as row extents)."""
    return [(c.vma, c.page_index, c.offset, c.data.tobytes())
            for chunk in img.chunks for c in chunk.split_pages()]


class TestOverwriteKeepsLivePacks:
    """Overwriting a generation whose pack still homes payloads that a
    later image references must not replace that pack."""

    @staticmethod
    def _setup():
        _, inner, store = make_replicated()
        g1 = make_image("g/1", [1])  # P
        g2 = make_image("g/2", [1, 2])  # P (homed in g/1's pack), Q
        for img in (g1, g2):
            store.store(img.key, img, img.size_bytes, 0)
        return inner, store, g2, make_image("g/1", [3])  # R

    def _check(self, inner, store, g2, g1b):
        assert payload_bytes(store.load("g/2", 0)[0]) == payload_bytes(g2)
        objs, _ = store.load_parallel(["g/2"], 0)
        assert payload_bytes(objs["g/2"]) == payload_bytes(g2)
        assert payload_bytes(store.load("g/1", 0)[0]) == payload_bytes(g1b)
        # Each pack written without displacing a live one keeps the
        # plain <key>.pack name; the refcounts still drain to empty.
        assert inner.exists("g/1.pack") and inner.exists("g/2.pack")
        assert store.peek("g/1").pack_key not in ("g/1.pack", "g/2.pack")
        store.delete("g/2")
        store.delete("g/1")
        assert list(inner.keys()) == []
        assert store._payload_keys == {}

    def test_store_overwrite(self):
        inner, store, g2, g1b = self._setup()
        store.store(g1b.key, g1b, g1b.size_bytes, 0)
        self._check(inner, store, g2, g1b)

    def test_stream_overwrite(self):
        inner, store, g2, g1b = self._setup()
        st = store.open_stream(g1b.key, 0)
        for c in g1b.chunks:
            st.send_chunk(c, 0)
        st.commit(g1b, g1b.size_bytes, 0)
        self._check(inner, store, g2, g1b)


class TestRowExtentReassembly:
    def test_runs_of_whole_pages_become_row_extents_of_pack_payloads(self):
        store = ContentStore(MemoryStorage())
        img = make_image("m/1/1", [1, 2])  # heap 0, 1
        img.add_block("heap", 2, 512, np.full(64, 5, dtype=np.uint8))
        for pidx, val in ((3, 3), (4, 4), (7, 7)):
            add_page(img, "heap", pidx, np.full(4096, val, dtype=np.uint8))
        add_page(img, "stack", 8, np.full(4096, 8, dtype=np.uint8))
        store.store(img.key, img, img.size_bytes, 0)
        assert store.peek(img.key).whole == [True, True, False, True, True, True, True]
        restored, _ = store.load(img.key, 0)
        shape = [(c.vma, c.page_index, c.offset, c.npages, c.rows is not None)
                 for c in restored.chunks]
        assert shape == [("heap", 0, 0, 2, True), ("heap", 2, 512, 1, False),
                         ("heap", 3, 0, 2, True), ("heap", 7, 0, 1, True),
                         ("stack", 8, 0, 1, True)]
        assert payload_bytes(restored) == payload_bytes(img)
        pack = store.inner.peek(store.peek(img.key).pack_key)
        for chunk in restored.chunks:
            for row in chunk.page_rows():
                assert not row.flags.writeable
                assert any(np.shares_memory(row, p) for p in pack.values())


class TestMemoryBackendWrap:
    def test_wraps_any_backend(self):
        store = ContentStore(MemoryStorage())
        img = make_image("m/2/1", [4, 4])
        store.store(img.key, img, img.size_bytes, 0)
        restored, _ = store.load("m/2/1", 0)
        np.testing.assert_array_equal(
            restored.chunk_index()[("heap", 1, 0)].data,
            np.full(4096, 4, dtype=np.uint8),
        )
        with pytest.raises(StorageError):
            store.load("missing", 0)


class TestShapeIndependence:
    """Extents, per-page chunks and a streamed write of the same bytes
    fingerprint, pack, refcount and count identically."""

    RUNS = [(0, 5), (5, 1), (6, 3), (9, 1), (10, 6)]  # (first page, npages)

    @staticmethod
    def _pages(gen):
        rng = np.random.default_rng(3)
        pages = rng.integers(0, 256, size=(16, 4096), dtype=np.uint8)
        pages[[2, 7, 12]] = 0  # zero pages recur
        pages[9] = pages[4]  # a repeat inside one image
        if gen:
            pages[[1, 10]] = rng.integers(0, 256, size=(2, 4096), dtype=np.uint8)
        return pages

    def _image(self, gen, shape):
        img = CheckpointImage(
            key=f"m/1/{gen}", mechanism="m", pid=1, task_name="t", node_id=0,
            step=gen, registers={"pc": 0},
        )
        pages = self._pages(gen)
        if shape == "pages":
            for i, page in enumerate(pages):
                add_page(img, "heap", i, page)
        else:
            for first, n in self.RUNS:
                if n == 1:
                    add_page(img, "heap", first, pages[first])
                else:
                    add_extent(img, "heap", first, pages[first : first + n].reshape(-1), n)
        return img

    def _store_all(self, how):
        store = ContentStore(MemoryStorage(), metrics=MetricsRegistry())
        for gen in range(2):
            img = self._image(gen, "pages" if how == "pages" else "extents")
            if how == "stream":
                st = store.open_stream(img.key, 0)
                for c in img.chunks:
                    st.send_chunk(c, 0)
                st.commit(img, img.size_bytes, 0)
            else:
                store.store(img.key, img, img.size_bytes, 0)
        return store

    @staticmethod
    def _state(store):
        return {
            "ckeys": {k: store.peek(k).ckeys for k in store.keys()},
            "packs": {pk: sorted(m) for pk, m in store._pack_members.items()},
            "refs": dict(store._refs),
            "logical": store.logical_payload_bytes,
            "unique": store.unique_payload_bytes,
            "dedup": {k: v for k, v in store.metrics.counters().items()
                      if k.startswith("dedup.")},
        }

    def test_same_manifests_packs_refcounts_and_metrics(self):
        stores = {how: self._store_all(how) for how in ("extents", "pages", "stream")}
        states = {how: self._state(s) for how, s in stores.items()}
        assert states["extents"] == states["pages"] == states["stream"]
        ref = states["pages"]
        assert ref["logical"] == 2 * 16 * 4096
        assert ref["dedup"]["dedup.hits"] > 0 and ref["dedup"]["dedup.misses"] > 0
        for store in stores.values():
            for gen in range(2):
                restored, _ = store.load(f"m/1/{gen}", 0)
                # Sixteen whole-page rows of one VMA: one row extent.
                assert [(c.page_index, c.npages) for c in restored.chunks] == [(0, 16)]
                got = np.stack([c.data for chunk in restored.chunks
                                for c in chunk.split_pages()])
                np.testing.assert_array_equal(got, self._pages(gen))
            for key in list(store.keys()):
                store.delete(key)
            assert list(store.inner.keys()) == []
            assert store._pack_members == {} and store._refs == {}
            assert store._payload_keys == {}


class TestDigestOnce:
    """A stored pack payload is digested once: a flat built from pack
    rows (a compaction) takes their content keys from the store."""

    @pytest.fixture
    def digested(self, monkeypatch):
        """Bytes passed to ``block_digests`` while the test runs."""
        counted = [0]
        real = digest.block_digests

        def counting(data, block_size):
            counted[0] += data.size
            return real(data, block_size)

        monkeypatch.setattr(digest, "block_digests", counting)
        return counted

    @staticmethod
    def _chain(store):
        base = make_image("m/1/1", [1, 2, 3, 4, 5, 6])
        delta = make_image("m/1/2", [7, 8], parent="m/1/1")
        for img in (base, delta):
            store.store(img.key, img, img.size_bytes, 0)
        loaded = [store.load(k, 0)[0] for k in ("m/1/1", "m/1/2")]
        return materialize_chain(loaded, page_size=4096)

    def test_compacted_flat_is_stored_without_a_digest(self, digested):
        store = ContentStore(MemoryStorage())
        flat = self._chain(store)
        assert all(c.rows is not None for c in flat.chunks)  # pack rows
        before = digested[0]
        store.store(flat.key, flat, flat.size_bytes, 0)
        assert digested[0] == before  # 0 bytes digested
        cold = ContentStore(MemoryStorage())
        cold.store(flat.key, flat, flat.size_bytes, 0)
        assert digested[0] == before + 6 * 4096
        assert store.peek(flat.key).ckeys == cold.peek(flat.key).ckeys
        assert store.peek(flat.key).pack_key is None  # every row a hit

    def test_equal_bytes_that_are_not_a_payload_are_digested(self, digested):
        store = ContentStore(MemoryStorage())
        flat = self._chain(store)
        for chunk in flat.chunks:  # same bytes, fresh read-only arrays
            rows = []
            for row in chunk.rows:
                row = row.copy()
                row.flags.writeable = False
                rows.append(row)
            chunk.rows = tuple(rows)
        before = digested[0]
        store.store(flat.key, flat, flat.size_bytes, 0)
        assert digested[0] == before + 6 * 4096
        assert store.peek(flat.key).pack_key is None  # still all hits

    def test_identity_map_empties_with_the_packs(self):
        store = ContentStore(MemoryStorage())
        flat = self._chain(store)
        store.store(flat.key, flat, flat.size_bytes, 0)
        assert len(store._payload_keys) == 8  # the two packs' payloads
        for key in list(store.keys()):
            store.delete(key)
        assert store._pack_members == {} and store._payload_keys == {}
        assert list(store.inner.keys()) == []
