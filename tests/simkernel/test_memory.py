"""Unit tests for the virtual-memory model."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.simkernel.costs import CostModel
from repro.simkernel.memory import (
    VMA,
    AddressSpace,
    PageFlag,
    Prot,
    VMAKind,
    is_frozen,
    page_checksum,
)

COSTS = CostModel()


@pytest.fixture
def mm() -> AddressSpace:
    m = AddressSpace(COSTS)
    m.map("heap", 64 * 1024, prot=Prot.RW, kind=VMAKind.HEAP)
    m.map("code", 16 * 1024, prot=Prot.RX, kind=VMAKind.CODE)
    return m


def test_map_allocates_disjoint_page_aligned_ranges(mm):
    heap, code = mm.vma("heap"), mm.vma("code")
    assert heap.start % COSTS.page_size == 0
    assert code.start >= heap.end
    assert heap.npages == 16


def test_duplicate_name_rejected(mm):
    with pytest.raises(MemoryError_):
        mm.map("heap", 4096)


def test_write_access_allocates_and_dirties(mm):
    heap = mm.vma("heap")
    out = mm.write_access(heap, 3, 100, 64)
    assert out.allocated
    assert heap.test(3, PageFlag.PRESENT)
    assert heap.test(3, PageFlag.DIRTY)
    assert list(heap.dirty_pages()) == [3]


def test_write_to_readonly_vma_rejected(mm):
    code = mm.vma("code")
    with pytest.raises(MemoryError_):
        mm.write_access(code, 0, 0, 8)


def test_write_crossing_page_boundary_rejected(mm):
    heap = mm.vma("heap")
    with pytest.raises(MemoryError_):
        mm.write_access(heap, 0, COSTS.page_size - 10, 64)


def test_fill_pattern_is_deterministic(mm):
    heap = mm.vma("heap")
    mm.write_access(heap, 0, 0, 128)
    mm.fill_pattern(heap, 0, 0, 128, seed=9)
    snap1 = heap.read_page(0)

    mm2 = AddressSpace(COSTS)
    mm2.map("heap", 64 * 1024, prot=Prot.RW, kind=VMAKind.HEAP)
    h2 = mm2.vma("heap")
    mm2.write_access(h2, 0, 0, 128)
    mm2.fill_pattern(h2, 0, 0, 128, seed=9)
    assert page_checksum(snap1) == page_checksum(h2.read_page(0))


def test_tracking_arm_clean_and_fault_flow(mm):
    heap = mm.vma("heap")
    for p in range(4):
        mm.write_access(heap, p, 0, 8)
    armed = mm.protect_for_tracking(["heap"])
    assert armed == 4
    assert len(heap.dirty_pages()) == 0
    out = mm.write_access(heap, 2, 0, 8)
    assert out.tracking_fault
    assert len(heap.dirty_pages()) == 1
    assert list(heap.dirty_pages()) == [2]


def test_lines_touched_reporting(mm):
    heap = mm.vma("heap")
    out = mm.write_access(heap, 0, 0, 64)
    assert out.lines_touched == 1
    out = mm.write_access(heap, 0, 32, 64)  # straddles two lines
    assert out.lines_touched == 2
    out = mm.write_access(heap, 0, 0, 1)
    assert out.lines_touched == 1


def test_resize_grow_and_shrink(mm):
    heap = mm.vma("heap")
    orig_pages = heap.npages
    mm.resize("heap", 128 * 1024)
    assert mm.vma("heap").npages == 32
    mm.write_access(heap, 2, 0, 8)
    mm.resize("heap", 3 * COSTS.page_size)
    assert mm.vma("heap").npages == 3
    with pytest.raises(MemoryError_):
        mm.resize("heap", COSTS.page_size)  # page 2 is populated


def test_fork_shares_then_cow_copies(mm):
    heap = mm.vma("heap")
    mm.write_access(heap, 1, 0, 16)
    mm.fill_pattern(heap, 1, 0, 16, seed=5)
    before = page_checksum(heap.read_page(1))

    child = mm.fork()
    ch = child.vma("heap")
    assert ch.pages[1] is heap.pages[1]  # shared until write
    assert heap.test(1, PageFlag.COW) and ch.test(1, PageFlag.COW)

    out = child.write_access(ch, 1, 0, 16)
    assert out.cow_copied
    child.fill_pattern(ch, 1, 0, 16, seed=99)
    assert ch.pages[1] is not heap.pages[1]
    # Parent's view unchanged: the frozen image is consistent.
    assert page_checksum(heap.read_page(1)) == before


def test_fork_shared_vma_stays_shared():
    mm = AddressSpace(COSTS)
    mm.map("shm:1", 8192, prot=Prot.RW, kind=VMAKind.SHM, shared=True, shm_key=1)
    seg = mm.vma("shm:1")
    mm.write_access(seg, 0, 0, 8)
    child = mm.fork()
    cseg = child.vma("shm:1")
    out = child.write_access(cseg, 0, 8, 8)
    assert not out.cow_copied
    assert cseg.pages is seg.pages


def test_install_and_read_page_roundtrip(mm):
    heap = mm.vma("heap")
    data = np.arange(COSTS.page_size, dtype=np.uint8)
    heap.install_page(5, data)
    assert heap.test(5, PageFlag.PRESENT)
    np.testing.assert_array_equal(heap.read_page(5), data)


def test_install_copies_a_readonly_view_of_a_writable_buffer(mm):
    """Only an array whose memory owner is read-only is kept as is: a
    read-only view of a caller's writable buffer is copied into a
    writable array the VMA owns, so a later write to the buffer does not
    reach the VMA."""
    heap = mm.vma("heap")
    ps = COSTS.page_size
    buf = np.full(2 * ps, 4, dtype=np.uint8)
    view = buf[:ps]
    view.flags.writeable = False
    heap.install_page(0, view)
    rows = buf.reshape(2, ps)
    rows.flags.writeable = False
    heap.install_pages(2, rows)
    heap.install_pages(4, tuple(rows))
    assert all(heap.pages[pidx].flags.writeable for pidx in (0, 2, 3, 4, 5))
    buf[:] = 9
    for pidx in (0, 2, 3, 4, 5):
        assert heap.read_page(pidx)[0] == 4
        assert not np.shares_memory(heap.pages[pidx], buf)
    assert not is_frozen(view) and not is_frozen(rows)


def fill_oracle(vma, pidx, offset, length, seed):
    """The pattern ``AddressSpace.fill_pattern`` writes, as first defined:
    ``(167 * i + base) & 0xFF`` over a uint32 ``arange``."""
    base = (seed * 2654435761 + vma.start + pidx * 977 + offset) & 0xFFFFFFFF
    return ((np.arange(length, dtype=np.uint32) * 167 + base) & 0xFF).astype(np.uint8)


HELPERS = dict(deadline=None, max_examples=60, derandomize=True)


@settings(**HELPERS)
@given(
    pidx=st.integers(0, 3),
    offset=st.integers(0, 3 * 4096),
    length=st.integers(0, 5 * 4096),
    seed=st.integers(-2**40, 2**40),
)
def test_fill_pattern_matches_the_arange_oracle(pidx, offset, length, seed):
    mm = AddressSpace(CostModel(page_size=8 * 4096))
    heap = mm.map("heap", 4 * 8 * 4096)
    offset = min(offset, heap.page_size - length)
    mm.fill_pattern(heap, pidx, offset, length, seed)
    got = heap.read_page(pidx)
    np.testing.assert_array_equal(
        got[offset : offset + length], fill_oracle(heap, pidx, offset, length, seed))
    assert not got[:offset].any() and not got[offset + length :].any()


@settings(**HELPERS)
@given(
    present=st.lists(st.booleans(), min_size=1, max_size=12),
    start=st.integers(0, 11),
    npages=st.integers(1, 12),
)
def test_read_pages_equals_concatenated_read_page(present, start, npages):
    mm = AddressSpace(COSTS)
    heap = mm.map("heap", 24 * COSTS.page_size)
    for pidx, here in enumerate(present):
        if here:
            mm.fill_pattern(heap, pidx, 0, COSTS.page_size, seed=pidx)
    got = heap.read_pages(start, npages)
    want = np.concatenate([heap.read_page(p) for p in range(start, start + npages)])
    np.testing.assert_array_equal(np.concatenate(got), want)
    # The live arrays themselves, frozen in place: take_pages shares them.
    assert all(is_frozen(row) for row in got)
    for pidx, row in zip(range(start, start + npages), got):
        assert row is heap.pages[pidx] if pidx in heap.pages else not row.any()
    for pidx in range(start, start + npages):
        mm.fill_pattern(heap, pidx, 0, COSTS.page_size, seed=99)
    np.testing.assert_array_equal(np.concatenate(got), want)
    assert not any(row is heap.pages[pidx] for pidx, row in zip(range(start, start + npages), got))


rows_kind = st.sampled_from(["frozen", "writable", "int16", "view"])


def make_rows(kind, n, ps, as_stack):
    """``n`` page rows as one stack or a tuple of arrays that each own
    their memory; "view" rows are read-only views of a writable buffer."""
    dtype = np.uint16 if kind == "int16" else np.uint8
    owners = [np.arange(i, i + ps).astype(dtype) for i in range(n)]
    if as_stack:
        owners = [np.stack(owners)]
    rows = [a[:] if kind == "view" else a for a in owners]
    for a in rows:
        a.flags.writeable = kind == "writable"
    return rows[0] if as_stack else tuple(rows)


@settings(**HELPERS)
@given(kind=rows_kind, n=st.integers(1, 6), as_stack=st.booleans())
def test_install_pages_adopts_only_frozen_uint8_rows(kind, n, as_stack):
    ps = 64
    vma = VMA("m", 0, 8, Prot.RW, VMAKind.ANON, ps)
    rows = make_rows(kind, n, ps, as_stack)
    vma.install_pages(1, rows)
    span = range(1, 1 + n)
    for i, pidx in enumerate(span):
        page = vma.pages[pidx]
        assert page.dtype == np.uint8 and page.shape == (ps,)
        np.testing.assert_array_equal(page, np.asarray(rows[i]).astype(np.uint8))
        if kind == "frozen":
            assert page is rows[i] if not as_stack else np.shares_memory(page, rows)
        else:
            assert not np.shares_memory(page, np.asarray(rows[i]))
    # A kept page stays frozen; a copied one is the VMA's own, writable.
    assert all(vma.pages[p].flags.writeable == (kind != "frozen") for p in span)
    assert all(vma.test(p, PageFlag.PRESENT) for p in span)


@settings(**HELPERS)
@given(n=st.integers(1, 4), bad=st.sampled_from([(63,), (65,), (1, 64), (64, 1)]),
       where=st.integers(0, 3), as_stack=st.booleans())
def test_install_pages_rejects_a_bad_shape(n, bad, where, as_stack):
    vma = VMA("m", 0, 8, Prot.RW, VMAKind.ANON, 64)
    if as_stack:
        rows = np.zeros((n,) + bad, dtype=np.uint8)
    else:
        rows = [np.zeros(64, dtype=np.uint8) for _ in range(n)]
        rows[where % n] = np.zeros(bad, dtype=np.uint8)
        rows = tuple(rows)
    with pytest.raises(MemoryError_):
        vma.install_pages(0, rows)
    assert not vma.pages and not vma.flags.any()


def test_total_present_pages_and_iter(mm):
    heap = mm.vma("heap")
    for p in (0, 3, 7):
        mm.write_access(heap, p, 0, 4)
    assert mm.total_present_pages() == 3
    assert list(heap.present_pages()) == [0, 3, 7]


def _writes_into_pages(tree):
    """Lines that assign into ``<x>.pages[...]`` or into a slice of one
    of its arrays (``<x>.pages[...][...]``), or update ``<x>.pages``."""

    def into_pages(node):
        while isinstance(node, ast.Subscript):
            node = node.value
            if isinstance(node, ast.Attribute) and node.attr == "pages":
                return True
        return False

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            fn = node.func
            if (fn.attr in ("update", "setdefault", "pop")
                    and isinstance(fn.value, ast.Attribute) and fn.value.attr == "pages"):
                yield node.lineno
            continue
        else:
            continue
        for target in targets:
            if any(isinstance(t, ast.Subscript) and into_pages(t) for t in ast.walk(target)):
                yield node.lineno


def test_only_the_memory_module_writes_page_contents():
    """Page arrays may be frozen, shared with checkpoint images, so every
    in-place write goes through ``VMA.ensure_page`` (which copies a
    frozen page first) or ``VMA.install_page(s)``."""
    src = pathlib.Path(__file__).parents[2] / "src" / "repro"
    found = [
        f"{path.relative_to(src)}:{line}"
        for path in sorted(src.rglob("*.py"))
        if path.relative_to(src).as_posix() != "simkernel/memory.py"
        for line in _writes_into_pages(ast.parse(path.read_text()))
    ]
    assert found == [], f"page contents written outside simkernel/memory.py: {found}"
