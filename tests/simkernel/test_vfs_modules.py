"""Unit tests for the VFS and the kernel-module framework."""

from __future__ import annotations

import pytest

from repro.errors import RegistryError, SyscallError
from repro.simkernel import Kernel
from repro.simkernel.modules import KernelModule, install_static
from repro.simkernel.vfs import (
    DeviceNode,
    ProcEntry,
    RegularFile,
    SocketFile,
    VFS,
)


class TestVFS:
    def test_create_read_write_roundtrip(self):
        vfs = VFS()
        f = vfs.create("/a/b", b"hello")
        assert f.read(0, 5) == b"hello"
        f.write(5, b" world")
        assert f.read(0, 100) == b"hello world"
        assert f.size == 11

    def test_write_extends_with_zero_fill(self):
        f = RegularFile("/x")
        f.write(4, b"zz")
        assert f.read(0, 6) == b"\x00\x00\x00\x00zz"

    def test_lookup_missing_raises(self):
        vfs = VFS()
        with pytest.raises(SyscallError):
            vfs.lookup("/nope")

    def test_unlink_marks_deleted_but_object_lives(self):
        vfs = VFS()
        f = vfs.create("/tmp/t", b"data")
        out = vfs.unlink("/tmp/t")
        assert out is f
        assert f.deleted
        assert not vfs.exists("/tmp/t")
        # Content still readable through a held reference (open fd case).
        assert f.read(0, 4) == b"data"

    def test_device_node_dispatches_ioctl(self):
        calls = []
        dev = DeviceNode("/dev/x", on_ioctl=lambda task, cmd, arg: calls.append((cmd, arg)) or 7)
        assert dev.ioctl(None, "go", 5) == 7
        assert calls == [("go", 5)]

    def test_device_without_handlers_raises(self):
        dev = DeviceNode("/dev/x")
        with pytest.raises(SyscallError):
            dev.ioctl(None, "c", None)
        with pytest.raises(SyscallError):
            dev.write(0, b"x")
        assert dev.read(0, 10) == b""

    def test_proc_entry_read_write(self):
        state = {"v": b"abc\n"}
        entry = ProcEntry(
            "/proc/x",
            on_read=lambda: state["v"],
            on_write=lambda data: state.update(v=data) or len(data),
        )
        assert entry.read(0, 10) == b"abc\n"
        assert entry.read(1, 2) == b"bc"
        entry.write(0, b"zz")
        assert entry.read(0, 10) == b"zz"

    def test_proc_entry_not_writable_by_default(self):
        entry = ProcEntry("/proc/ro", on_read=lambda: b"x")
        with pytest.raises(SyscallError):
            entry.write(0, b"y")

    def test_base_file_is_opaque(self):
        from repro.simkernel.vfs import File

        f = File("/raw")
        with pytest.raises(SyscallError):
            f.read(0, 1)
        with pytest.raises(SyscallError):
            f.write(0, b"")
        with pytest.raises(SyscallError):
            f.ioctl(None, "x", None)

    def test_socket_identity(self):
        s = SocketFile("socket:[1]", 4000, "10.0.0.1:80")
        assert s.kind == "socket"
        assert s.write(0, b"payload") == 7

    def test_paths_listing_sorted(self):
        vfs = VFS()
        vfs.create("/b")
        vfs.create("/a")
        assert vfs.paths() == ["/a", "/b"]

    def test_remove_is_idempotent(self):
        vfs = VFS()
        vfs.create("/x")
        vfs.remove("/x")
        vfs.remove("/x")  # no error
        assert not vfs.exists("/x")


class _ToyModule(KernelModule):
    name = "toy"

    def on_load(self) -> None:
        self.add_device(DeviceNode("/dev/toy", on_ioctl=lambda t, c, a: 1))
        self.add_proc_entry(ProcEntry("/proc/toy", on_read=lambda: b"ok"))


class TestModules:
    def test_load_registers_everything(self):
        k = Kernel(seed=1)
        mod = _ToyModule().load(k)
        assert k.vfs.exists("/dev/toy")
        assert k.vfs.exists("/proc/toy")
        assert "toy" in k.modules

    def test_unload_reverts_everything(self):
        k = Kernel(seed=1)
        mod = _ToyModule().load(k)
        mod.unload()
        assert not k.vfs.exists("/dev/toy")
        assert not k.vfs.exists("/proc/toy")
        assert "toy" not in k.modules

    def test_double_load_rejected(self):
        k = Kernel(seed=1)
        mod = _ToyModule().load(k)
        with pytest.raises(RegistryError):
            mod.load(k)
        with pytest.raises(RegistryError):
            _ToyModule().load(k)  # same name

    def test_unload_without_load_rejected(self):
        with pytest.raises(RegistryError):
            _ToyModule().unload()

    def test_registration_outside_load_rejected(self):
        mod = _ToyModule()
        with pytest.raises(RegistryError):
            mod.add_device(DeviceNode("/dev/x"))

    def test_static_extension_cannot_install_twice(self):
        k = Kernel(seed=1)
        install_static(k, "ext", lambda kernel: None)
        assert "ext" in k.builtin_extensions
        with pytest.raises(RegistryError):
            install_static(k, "ext", lambda kernel: None)

    def test_reload_after_unload_allowed(self):
        k = Kernel(seed=1)
        mod = _ToyModule().load(k)
        mod.unload()
        _ToyModule().load(k)
        assert k.vfs.exists("/dev/toy")
