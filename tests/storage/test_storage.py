"""Tests for devices and stable-storage backends."""

from __future__ import annotations

import pytest

from repro.errors import StorageError, StorageLostError
from repro.storage import (
    Device,
    LocalDiskStorage,
    MemoryStorage,
    NullStorage,
    RemoteStorage,
    StorageKind,
    disk_device,
    network_device,
)


class TestDevice:
    def test_transfer_time_latency_plus_bandwidth(self):
        d = Device(name="d", latency_ns=1000, bytes_per_ns=0.5)
        assert d.transfer_time_ns(500) == 1000 + 1000

    def test_negative_size_rejected(self):
        d = Device(name="d", latency_ns=0, bytes_per_ns=1.0)
        with pytest.raises(StorageError):
            d.transfer_time_ns(-1)

    def test_fifo_queueing_serializes_concurrent_transfers(self):
        d = Device(name="d", latency_ns=100, bytes_per_ns=1.0)
        d1 = d.submit(now_ns=0, nbytes=1000)  # busy until 1100
        d2 = d.submit(now_ns=0, nbytes=1000)  # queued behind: until 2200
        assert d1 == 1100
        assert d2 == 2200

    def test_idle_device_serves_immediately(self):
        d = Device(name="d", latency_ns=100, bytes_per_ns=1.0)
        d.submit(now_ns=0, nbytes=100)
        delay = d.submit(now_ns=10_000, nbytes=100)
        assert delay == 200

    def test_disk_slower_than_network_per_small_write(self):
        # The 8 ms seek dominates small checkpoint writes -- the reason
        # remote storage is not obviously slower than local disk.
        disk, nic = disk_device(), network_device()
        assert disk.transfer_time_ns(4096) > nic.transfer_time_ns(4096)

    def test_statistics_accumulate(self):
        d = Device(name="d", latency_ns=0, bytes_per_ns=1.0)
        d.submit(0, 10)
        d.submit(0, 20)
        assert d.total_bytes == 30 and d.total_ops == 2


class TestBackends:
    def test_store_load_roundtrip_with_delays(self):
        s = RemoteStorage()
        delay_w = s.store("ck/1", {"x": 1}, nbytes=1_000_000, now_ns=0)
        assert delay_w > 0
        obj, delay_r = s.load("ck/1", now_ns=delay_w)
        assert obj == {"x": 1}
        assert delay_r > 0

    def test_load_missing_key_raises(self):
        s = RemoteStorage()
        with pytest.raises(StorageError):
            s.load("nope", 0)

    def test_local_disk_unreachable_after_node_failure(self):
        s = LocalDiskStorage(node_id=3)
        s.store("ck/1", b"img", nbytes=100, now_ns=0)
        s.mark_node_failed()
        assert not s.exists("ck/1")
        with pytest.raises(StorageLostError):
            s.load("ck/1", 0)
        with pytest.raises(StorageLostError):
            s.store("ck/2", b"img", nbytes=100, now_ns=0)

    def test_local_disk_survives_reboot(self):
        s = LocalDiskStorage(node_id=3)
        s.store("ck/1", b"img", nbytes=100, now_ns=0)
        s.mark_node_failed()
        s.mark_node_recovered(data_survived=True)
        obj, _ = s.load("ck/1", 0)
        assert obj == b"img"

    def test_remote_storage_survives_node_failure_flag(self):
        assert RemoteStorage.survives_node_failure is True
        assert LocalDiskStorage.survives_node_failure is False
        assert NullStorage.survives_node_failure is False

    def test_memory_storage_power_loss_drops_blobs(self):
        s = MemoryStorage()
        s.store("img", b"ram", nbytes=10, now_ns=0)
        s.power_loss()
        assert not s.exists("img")

    def test_null_storage_is_a_consuming_pipe(self):
        s = NullStorage()
        s.store("a", 1, nbytes=10, now_ns=0)
        s.store("b", 2, nbytes=10, now_ns=0)
        assert list(s.keys()) == ["b"]  # only latest retained
        obj, _ = s.load("b", 0)
        assert obj == 2
        assert not s.exists("b")  # consumed

    def test_kind_vocabulary_matches_table1(self):
        assert LocalDiskStorage(0).kind == StorageKind.LOCAL
        assert RemoteStorage().kind == StorageKind.REMOTE
        assert MemoryStorage().kind == StorageKind.MEMORY
        assert NullStorage().kind == StorageKind.NONE

    def test_delete_and_stored_bytes(self):
        s = RemoteStorage()
        s.store("a", b"", nbytes=100, now_ns=0)
        s.store("b", b"", nbytes=50, now_ns=0)
        assert s.stored_bytes() == 150
        s.delete("a")
        assert s.stored_bytes() == 50
