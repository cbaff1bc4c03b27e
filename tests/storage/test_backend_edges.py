"""Edge-case contract tests for the StorageBackend protocol.

The replicated stable-storage service reuses this protocol verbatim, so
the edge semantics (idempotent delete, errors on missing keys, loss on
power-off, availability gating) must be pinned down for every backend.
"""

from __future__ import annotations

import pytest

from repro.errors import StorageError, StorageLostError
from repro.storage import (
    LocalDiskStorage,
    MemoryStorage,
    RemoteStorage,
)


class TestDeleteIdempotence:
    def test_delete_missing_key_is_a_noop(self):
        s = RemoteStorage()
        s.delete("never-stored")  # must not raise

    def test_double_delete_is_a_noop(self):
        s = RemoteStorage()
        s.store("a", b"", nbytes=10, now_ns=0)
        s.delete("a")
        s.delete("a")
        assert s.stored_bytes() == 0

    def test_delete_then_store_again(self):
        s = MemoryStorage()
        s.store("a", 1, nbytes=10, now_ns=0)
        s.delete("a")
        s.store("a", 2, nbytes=20, now_ns=0)
        obj, _ = s.load("a", 0)
        assert obj == 2
        assert s.stored_bytes() == 20


class TestMissingKeys:
    def test_load_missing_key_raises_storage_error(self):
        for s in (RemoteStorage(), MemoryStorage(), LocalDiskStorage(0)):
            with pytest.raises(StorageError):
                s.load("nope", 0)

    def test_exists_false_for_missing_key(self):
        assert not RemoteStorage().exists("nope")

    def test_peek_missing_key_raises(self):
        with pytest.raises(StorageError):
            RemoteStorage().peek("nope")


class TestPeekAndBlobSize:
    def test_peek_returns_object_without_charging_io(self):
        s = RemoteStorage()
        s.store("k", {"pages": 3}, nbytes=4096, now_ns=0)
        assert s.peek("k") == {"pages": 3}


class TestAvailabilityGating:
    def test_all_access_raises_while_node_failed(self):
        s = LocalDiskStorage(node_id=1)
        s.store("k", b"img", nbytes=100, now_ns=0)
        s.mark_node_failed()
        with pytest.raises(StorageLostError):
            s.load("k", 0)
        with pytest.raises(StorageLostError):
            s.store("k2", b"img", nbytes=100, now_ns=0)
        with pytest.raises(StorageLostError):
            s.peek("k")

    def test_recovery_without_data_loses_blobs(self):
        s = LocalDiskStorage(node_id=1)
        s.store("k", b"img", nbytes=100, now_ns=0)
        s.mark_node_failed()
        s.mark_node_recovered(data_survived=False)
        assert not s.exists("k")
        s.store("k2", b"img", nbytes=100, now_ns=0)  # usable again


class TestMemoryStoragePowerOff:
    def test_power_loss_drops_blobs_and_bytes(self):
        s = MemoryStorage()
        s.store("a", b"x", nbytes=100, now_ns=0)
        s.store("b", b"y", nbytes=50, now_ns=0)
        s.power_loss()
        assert not s.exists("a")
        assert not s.exists("b")
        assert s.stored_bytes() == 0

    def test_usable_after_power_loss(self):
        s = MemoryStorage()
        s.store("a", b"x", nbytes=100, now_ns=0)
        s.power_loss()
        s.store("a", b"z", nbytes=10, now_ns=0)
        obj, _ = s.load("a", 0)
        assert obj == b"z"
