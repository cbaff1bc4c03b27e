#!/usr/bin/env python
"""Quickstart: checkpoint a running process and restart it, byte-exact.

This walks the core loop of the library in ~60 effective lines:

1. boot a simulated 2-CPU Linux-like kernel;
2. run a synthetic scientific application on it;
3. checkpoint it mid-flight with CRAK (kernel thread via /dev ioctl);
4. restart the image into a fresh process and run it to completion;
5. verify the restarted run is byte-identical to an uninterrupted one.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.checkpointer import RequestState
from repro.mechanisms import CRAK
from repro.reporting import fmt_bytes, fmt_ns
from repro.simkernel import Kernel
from repro.simkernel.costs import NS_PER_MS
from repro.storage import RemoteStorage
from repro.workloads import StencilKernel, memory_digest


def main() -> None:
    # --- 1. a node: 2 CPUs, deterministic seed -------------------------
    kernel = Kernel(ncpus=2, seed=42)

    # --- 2. an application: a Jacobi-style stencil sweep ----------------
    app = StencilKernel(iterations=200, heap_bytes=2 * 1024 * 1024, seed=7)
    task = app.spawn(kernel)
    kernel.run_for(20 * NS_PER_MS)
    print(f"app running: pid={task.pid}, {task.main_steps} ops completed, "
          f"{task.mm.total_present_pages()} pages resident")

    # --- 3. checkpoint via CRAK (no app cooperation needed) -------------
    storage = RemoteStorage()
    crak = CRAK(kernel, storage)
    request = crak.request_checkpoint(task)
    kernel.start()
    kernel.engine.run(
        until_ns=kernel.engine.now_ns + 10**12,
        until=lambda: request.state == RequestState.DONE,
    )
    image = request.image
    print(f"checkpoint {image.key!r}: {fmt_bytes(image.size_bytes)} "
          f"({sum(c.npages for c in image.chunks)} pages), app stalled {fmt_ns(request.target_stall_ns)}, "
          f"capture took {fmt_ns(request.capture_duration_ns)}")

    # --- 4. restart into a fresh process --------------------------------
    restored = crak.restart(request.key)
    kernel.run_until_exit(restored.task, limit_ns=10**14)
    print(f"restored process exited with code {restored.task.exit_code} "
          f"after resuming at step {image.step}")

    # --- 5. byte-exact equivalence with an uninterrupted run ------------
    clean_kernel = Kernel(ncpus=2, seed=42)
    clean_task = StencilKernel(
        iterations=200, heap_bytes=2 * 1024 * 1024, seed=7
    ).spawn(clean_kernel)
    clean_kernel.run_until_exit(clean_task, limit_ns=10**14)
    same = memory_digest(restored.task)["heap"] == memory_digest(clean_task)["heap"]
    print(f"final memory identical to uninterrupted run: {same}")
    assert same


if __name__ == "__main__":
    main()
