"""Tests for the checkpoint image format and chain materialization."""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.image import (
    CheckpointImage,
    Chunk,
    METADATA_BYTES,
    _covered_runs,
    materialize_chain,
)
from repro.errors import RestartError


def make_image(key="a", parent=None, step=0):
    return CheckpointImage(
        key=key,
        mechanism="test",
        pid=1,
        task_name="t",
        node_id=0,
        step=step,
        registers={"pc": 0, "sp": 0, "gpr": [0] * 8},
        parent_key=parent,
    )


def page(val, size=4096):
    return np.full(size, val, dtype=np.uint8)


class TestImage:
    def test_payload_and_size_accounting(self):
        img = make_image()
        img.add_page("heap", 0, page(1))
        img.add_page("heap", 1, page(2))
        assert img.payload_bytes == 8192
        assert img.size_bytes >= METADATA_BYTES + 8192

    def test_block_chunks_are_sub_page(self):
        img = make_image()
        img.add_block("heap", 0, 512, page(3, 128))
        assert img.chunks[0].nbytes == 128
        assert img.chunks[0].offset == 512

    def test_chunk_checksum_auto_computed(self):
        c = Chunk(vma="heap", page_index=0, offset=0, data=page(7))
        assert c.checksum != 0

    def test_is_incremental(self):
        assert not make_image().is_incremental
        assert make_image(parent="x").is_incremental

    def test_chunk_index_last_writer_wins(self):
        img = make_image()
        img.add_page("heap", 0, page(1))
        img.add_page("heap", 0, page(2))
        idx = img.chunk_index()
        assert len(idx) == 1
        assert idx[("heap", 0, 0)].data[0] == 2


class TestChain:
    def test_empty_chain_rejected(self):
        with pytest.raises(RestartError):
            materialize_chain([])

    def test_incremental_base_rejected(self):
        with pytest.raises(RestartError):
            materialize_chain([make_image(parent="x")])

    def test_broken_parent_link_rejected(self):
        base = make_image("a")
        delta = make_image("c", parent="b")
        with pytest.raises(RestartError):
            materialize_chain([base, delta])

    def test_deltas_overwrite_base_pages(self):
        base = make_image("a", step=10)
        base.add_page("heap", 0, page(1))
        base.add_page("heap", 1, page(1))
        d1 = make_image("b", parent="a", step=20)
        d1.add_page("heap", 1, page(9))
        flat = materialize_chain([base, d1])
        idx = flat.chunk_index()
        assert idx[("heap", 0, 0)].data[0] == 1
        assert idx[("heap", 1, 0)].data[0] == 9
        assert flat.step == 20
        assert not flat.is_incremental

    def test_readonly_views_of_a_writable_buffer_are_copied(self):
        """A row whose memory owner is writable is not a frozen payload:
        the flat holds a copy, so a later write to the buffer is not seen."""
        buf = np.full((2, 4096), 5, dtype=np.uint8)
        rows = tuple(buf[:])
        for row in rows:
            row.flags.writeable = False
        base = make_image("a")
        base.chunks.append(Chunk(vma="heap", page_index=0, rows=rows))
        flat = materialize_chain([base], page_size=4096)
        buf[:] = 9
        [chunk] = flat.chunks
        for row in chunk.page_rows():
            assert not row.flags.writeable and row[0] == 5
            assert not np.shares_memory(row, buf)

    def test_three_level_chain(self):
        base = make_image("a")
        base.add_page("heap", 0, page(1))
        d1 = make_image("b", parent="a")
        d1.add_page("heap", 0, page(2))
        d2 = make_image("c", parent="b")
        d2.add_page("heap", 0, page(3))
        flat = materialize_chain([base, d1, d2])
        assert flat.chunk_index()[("heap", 0, 0)].data[0] == 3


# ----------------------------------------------------------------------
# Flatten oracle: every page through a byte overlay
# ----------------------------------------------------------------------
def overlay_flatten(
    images: Sequence[CheckpointImage], page_size: Optional[int]
) -> List[Chunk]:
    """Reference chain flatten: each chunk, in chain order, paints its
    span into a zeroed per-page byte buffer and coverage mask; pages
    fully covered at ``page_size`` re-merge into extents, any other
    page emits its covered runs."""
    overlays: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}
    for img in images:
        for chunk in img.chunks:
            for c in chunk.split_pages():
                key = (c.vma, c.page_index)
                end = c.offset + c.nbytes
                entry = overlays.get(key)
                if entry is None:
                    size = max(end, page_size or 0)
                    entry = (np.zeros(size, np.uint8), np.zeros(size, bool))
                    overlays[key] = entry
                elif end > entry[0].size:
                    buf = np.zeros(end, np.uint8)
                    msk = np.zeros(end, bool)
                    buf[: entry[0].size] = entry[0]
                    msk[: entry[1].size] = entry[1]
                    entry = (buf, msk)
                    overlays[key] = entry
                entry[0][c.offset : end] = c.data
                entry[1][c.offset : end] = True
    merged: List[Chunk] = []
    pending: Optional[Tuple[str, int, List[np.ndarray]]] = None

    def flush() -> None:
        nonlocal pending
        if pending is None:
            return
        vma, first, bufs = pending
        pending = None
        merged.append(Chunk(vma=vma, page_index=first,
                            rows=tuple(np.concatenate(bufs).reshape(len(bufs), -1))))

    for vma, pidx in sorted(overlays):
        buf, mask = overlays[(vma, pidx)]
        if page_size is not None and buf.size == page_size and mask.all():
            if pending is not None and pending[0] == vma and pending[1] + len(pending[2]) == pidx:
                pending[2].append(buf)
            else:
                flush()
                pending = (vma, pidx, [buf])
            continue
        flush()
        for start, length in _covered_runs(mask):
            merged.append(
                Chunk(vma=vma, page_index=pidx, offset=start, data=buf[start : start + length])
            )
    flush()
    return merged


# ----------------------------------------------------------------------
# Concatenating oracle: the flatten as it was before row extents
# ----------------------------------------------------------------------
def concatenating_flatten(
    images: Sequence[CheckpointImage], page_size: Optional[int]
) -> List[Chunk]:
    """Reference chain flatten that emits every whole-page run as one
    fresh contiguous extent (``np.concatenate``) instead of a row
    extent of its writers' arrays.  Same paint pass, same partition."""
    whole: Dict[Tuple[str, int], np.ndarray] = {}
    overlays: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}
    for img in images:
        for chunk in img.chunks:
            n = chunk.npages
            if page_size and chunk.offset == 0 and chunk.data.size == n * page_size:
                keys = [(chunk.vma, chunk.page_index + i) for i in range(n)]
                whole.update(zip(keys, chunk.data.reshape(n, page_size)))
                for key in overlays.keys() & keys if overlays else ():
                    entry = overlays[key]
                    entry[0][:page_size] = whole.pop(key)
                    entry[1][:page_size] = True
                continue
            for c in chunk.split_pages():
                key = (c.vma, c.page_index)
                end = c.offset + c.nbytes
                entry = overlays.get(key)
                if entry is None or end > entry[0].size:
                    below, covered = entry or (whole.pop(key, None), True)
                    size = max(end, page_size or 0)
                    entry = overlays[key] = (np.zeros(size, np.uint8), np.zeros(size, bool))
                    if below is not None:
                        entry[0][: below.size] = below
                        entry[1][: below.size] = covered
                entry[0][c.offset : end] = c.data
                entry[1][c.offset : end] = True
    merged: List[Chunk] = []
    for (vma, pidx), (buf, mask) in overlays.items():
        if buf.size == page_size and mask.all():
            whole[(vma, pidx)] = buf
            continue
        merged.extend(
            Chunk(vma=vma, page_index=pidx, offset=start, data=buf[start : start + length])
            for start, length in _covered_runs(mask)
        )
    for (vma, _), run in groupby(enumerate(sorted(whole)), lambda r: (r[1][0], r[1][1] - r[0])):
        keys = [key for _, key in run]
        stack = np.concatenate([whole[key] for key in keys]).reshape(len(keys), -1)
        merged.append(Chunk(vma=vma, page_index=keys[0][1], rows=tuple(stack)))
    merged.sort(key=lambda c: (c.vma, c.page_index))
    return merged


def page_contents(chunks: Sequence[Chunk]) -> List[Tuple[str, int, int, bytes]]:
    """Every chunk split into per-page (vma, page, offset, bytes) rows."""
    return [(c.vma, c.page_index, c.offset, c.data.tobytes())
            for chunk in chunks for c in chunk.split_pages()]


PS = 32  # small pages keep the hypothesis chains cheap

chunk_specs = st.one_of(
    st.tuples(st.just("extent"), st.integers(0, 9), st.integers(2, 4)),
    st.tuples(st.just("rows"), st.integers(0, 9), st.integers(1, 4)),
    st.tuples(st.just("page"), st.integers(0, 11)),
    st.tuples(st.just("raw"), st.integers(0, 11)),
    st.tuples(st.just("block"), st.integers(0, 11), st.integers(0, PS - 1),
              st.integers(1, PS)),
    st.tuples(st.just("grow"), st.integers(0, 11), st.integers(0, PS - 1),
              st.integers(PS + 1, 2 * PS)),
)


def build_chain(spec, seed: int) -> List[CheckpointImage]:
    """A chain mixing contiguous extents, read-only row extents, captured
    single pages, writable single pages ("raw") and sub-page blocks."""
    rng = np.random.default_rng(seed)

    def fresh(n):
        return rng.integers(0, 256, n, dtype=np.uint8)

    images: List[CheckpointImage] = []
    for i, chunks in enumerate(spec):
        img = make_image(f"k{i}", parent=f"k{i - 1}" if i else None, step=i)
        for j, (kind, pidx, *rest) in enumerate(chunks):
            vma = "heap" if j % 3 else "stack"
            if kind == "extent":
                n = rest[0]
                img.add_extent(vma, pidx, fresh(n * PS), n)
            elif kind == "rows":
                rows = tuple(fresh(PS) for _ in range(rest[0]))
                for row in rows:
                    row.flags.writeable = False
                img.chunks.append(Chunk(vma=vma, page_index=pidx, rows=rows))
            elif kind == "page":
                img.add_page(vma, pidx, fresh(PS))
            elif kind == "raw":
                img.chunks.append(Chunk(vma=vma, page_index=pidx, offset=0, data=fresh(PS)))
            else:
                offset, length = rest
                if kind == "block":
                    length = min(length, PS - offset)
                img.add_block(vma, pidx, offset, fresh(length))
        images.append(img)
    return images


def input_arrays(images, writable):
    """The chain's payload arrays (per page) that are (not) writable."""
    return [row for img in images for c in img.chunks for row in c.page_rows()
            if row.flags.writeable == writable]


@settings(deadline=None, max_examples=80)
@given(
    spec=st.lists(st.lists(chunk_specs, max_size=8), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_flatten_matches_overlay_oracle_and_copies(spec, seed):
    """Same bytes as the byte-overlay oracle; every emitted array is
    read-only, and writable inputs are copied, never aliased."""
    images = build_chain(spec, seed)
    writable = input_arrays(images, writable=True)
    for page_size in (PS, None):
        flat = materialize_chain(images, page_size=page_size)
        want = overlay_flatten(images, page_size)
        assert [(c.vma, c.page_index, c.offset, c.npages) for c in flat.chunks] == [
            (c.vma, c.page_index, c.offset, c.npages) for c in want
        ]
        for got, ref in zip(flat.chunks, want):
            assert got.data.tobytes() == ref.data.tobytes()
            for row in got.page_rows():
                assert not row.flags.writeable
                assert not any(np.shares_memory(row, x) for x in writable)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    spec=st.lists(st.lists(chunk_specs, max_size=8), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_flatten_matches_concatenating_oracle(spec, seed):
    """Row extents hold the same page bytes, in the same partition, as
    the concatenating flatten, and a whole page whose last writer is a
    read-only array is emitted as that very array (no copy)."""
    images = build_chain(spec, seed)
    for page_size in (PS, None):
        flat = materialize_chain(images, page_size=page_size)
        want = concatenating_flatten(images, page_size)
        assert [(c.vma, c.page_index, c.offset, c.npages) for c in flat.chunks] == [
            (c.vma, c.page_index, c.offset, c.npages) for c in want
        ]
        assert page_contents(flat.chunks) == page_contents(want)
        assert flat.payload_bytes == sum(c.nbytes for c in want)
        last: Dict[Tuple[str, int], np.ndarray] = {}
        for img in images:
            for c in img.chunks:
                if page_size and c.offset == 0 and c.nbytes == c.npages * PS:
                    last.update(((c.vma, c.page_index + i), row)
                                for i, row in enumerate(c.page_rows()))
                else:
                    for p in c.split_pages():
                        last.pop((p.vma, p.page_index), None)
        for chunk in flat.chunks:
            if chunk.rows is None:
                continue
            for i, row in enumerate(chunk.rows):
                src = last.get((chunk.vma, chunk.page_index + i))
                if src is not None and not src.flags.writeable:
                    assert np.shares_memory(row, src)
