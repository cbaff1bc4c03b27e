"""Synthetic applications that drive the simulated kernel."""

from .base import Workload, memory_digest
from .multithreaded import ThreadedWorkload, spawn_thread_group
from .persistent import SharedMemoryApp, SocketApp
from .scientific import RandomUpdater, StencilKernel, WavefrontSweep
from .writers import DenseWriter, HotColdWriter, SparseWriter, StreamingWriter

__all__ = [
    "Workload",
    "memory_digest",
    "DenseWriter",
    "SparseWriter",
    "StreamingWriter",
    "HotColdWriter",
    "StencilKernel",
    "WavefrontSweep",
    "RandomUpdater",
    "SocketApp",
    "SharedMemoryApp",
    "ThreadedWorkload",
    "spawn_thread_group",
]
