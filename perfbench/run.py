"""End-to-end checkpoint/restart benchmark with a per-layer host-time trace.

Run from the repository root::

    python3 perfbench/run.py --workload job_failover --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics, a
ranked "where host time goes" table and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each workload runs in a child process in its own session; once it has
exited, this process checks that no process it started is still alive
and that no ``/dev/shm`` segment created during the run remains.  A
violation, a failed self-check or a timeout counts as a failed run.

Host times are scaled to a reference host speed.  While the child times
the workload, a timer signal runs a fixed calibration chunk of
interpreter work every few milliseconds on the child's own thread, so
on the CPU the workload is running on at that moment; each timed
interval, less the chunks run inside it, is divided by the slowdown the
chunks measured over that same interval.  Iterations during which the hypervisor stole CPU time are
left out of the medians (see ``_iterate``).  On a shared host whose
speed drifts by tens of percent, this is what makes two runs of the
same code agree.
See ``perfbench/NOTES.md`` for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Child wall-clock limit; the whole command must end within 180 s.
CHILD_TIMEOUT_S = 160
#: Fewest iterations a run makes, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
MIN_TRACED = 2
#: Largest share of CPU time the hypervisor may steal during a clean
#: iteration, and how far past ``--seconds`` a run may go to collect
#: MIN_ITERATIONS clean ones (the whole command must end within 180 s).
STEAL_MAX = 0.02
EXTRA_SECONDS = 15
#: Exact results that must repeat between iterations of one seed.
EXACT = ("engine.events", "kernel.ops", "capture.pages", "parallel.envelopes")

#: Host-speed sampling: one calibration chunk every SAMPLE_PERIOD_S; an
#: interval's slowdown is the mean chunk time over the interval widened
#: by SAMPLE_PAD_S on each side, over REFERENCE_CHUNK_S (about the
#: chunk's time inside a workload on a 2.1 GHz Xeon vCPU in its fast
#: phases).
SAMPLE_PERIOD_S = 0.02
SAMPLE_PAD_S = 0.25
REFERENCE_CHUNK_S = 0.00070

PER_LAYER_TIMES = ("simkernel", "cluster.job", "capture", "digest", "dedup",
                   "erasure", "hierarchy", "pipeline", "replicated", "restart",
                   "runner", "parallel")
#: Per-layer counts the workloads and the tracer report (0 where a
#: layer does not run).
PER_LAYER_COUNTS = (
    "engine.events", "kernel.ops", "kernel.page_writes", "coord.waves",
    "coord.recoveries", "coord.generation_fallbacks", "capture.pages",
    "capture.bytes", "digest.bytes", "dedup.payload_bytes",
    "dedup.unique_bytes", "dedup.hit_ratio", "erasure.encode_bytes",
    "erasure.delta_bytes", "erasure.decode_bytes", "erasure.degraded_reads",
    "hierarchy.writeback_bytes", "pipeline.stalls", "pipeline.stall_ns",
    "replicated.quorum_failures", "restart.images_read", "parallel.windows",
    "parallel.envelopes", "parallel.idle_windows",
    "parallel.shm_fallback_frames",
)


def _declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``kind`` (``end_to_end`` or
    ``per_layer``), as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# Child: one workload, timed
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _calibration_chunk() -> int:
    """Fixed interpreter work -- heap, dict and tuple churn, as in the
    simulator's event loop -- whose time gauges the host's speed."""
    heap: List[Any] = []
    seen: Dict[int, int] = {}
    for i in range(800):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        seen[i & 127] = seen.get(i & 127, 0) + 1
    while heap:
        heapq.heappop(heap)
    return len(seen)


class SpeedProbe:
    """Runs :func:`_calibration_chunk` from a SIGALRM handler every
    SAMPLE_PERIOD_S while entered, and records ``(start, seconds)`` of
    each run.  A sampler on another thread or process would measure
    another CPU: on a shared host the two vCPUs slow down largely
    independently of each other."""

    def __init__(self) -> None:
        self.samples: List[Any] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        t = time.perf_counter()
        _calibration_chunk()
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self) -> "SpeedProbe":
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _steal_jiffies():
    """(stolen, total) jiffies of all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def _is_clean(it: Dict[str, Any]) -> bool:
    return it["steal"] <= STEAL_MAX


def _pick(iters: List[Dict[str, Any]], least: int) -> List[Dict[str, Any]]:
    """The clean iterations of ``iters``; if fewer than ``least`` are
    clean, the ``least`` with the least steal."""
    clean = [it for it in iters if _is_clean(it)]
    if len(clean) >= least:
        return clean
    return sorted(iters, key=lambda it: it["steal"])[:least]


def _iterate(wl, ref, seconds: float, trace: bool, probe: SpeedProbe):
    """Closed loop of fresh iterations until ``seconds`` have passed.
    With ``trace`` every second iteration runs under :class:`HostTrace`.

    An iteration during which the hypervisor stole more than STEAL_MAX
    of the CPUs is not clean: the workers of ``fleet_sharded`` then wait
    on each other at every barrier, and its wall time doubles.  While
    too few iterations are clean the loop runs on, for at most
    EXTRA_SECONDS more."""
    from hosttrace import HostTrace

    iters: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(iters) % 2 == 1
        # Start every iteration from the same heap: the previous
        # iteration's simulated machine is garbage (engine <-> cluster
        # cycles), and collecting it inside a timed region adds noise.
        gc.collect()
        steal0 = _steal_jiffies()
        with probe:
            t0 = time.perf_counter()
            state = wl.setup()
            t1 = time.perf_counter()
            tracer = HostTrace() if traced else None
            if tracer is not None:
                with tracer:
                    wl.run(state)
            else:
                wl.run(state)
            t2 = time.perf_counter()
        steal1 = _steal_jiffies()
        attempted, failed, problems = wl.check(state, ref)
        it = wl.results(state)
        it.update(setup=(t0, t1), run=(t1, t2), traced=traced,
                  steal=(steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]),
                  attempted=attempted, failed=failed, problems=problems)
        if tracer is not None:
            it["counts"].update(tracer.counts)
            it["layer_ns"] = tracer.layer_self_ns()
            it["layer_calls"] = tracer.layer_calls()
        del state
        iters.append(it)
        if len(iters) == MIN_ITERATIONS:
            # Peak memory over the reference and a fixed number of
            # iterations, so it does not depend on how many fit the run.
            peak_rss_mb = _peak_rss_mb()
        plain = [i for i in iters if not i["traced"]]
        traced_ = [i for i in iters if i["traced"]]
        now = time.perf_counter()
        if now < deadline:
            continue
        if (sum(map(_is_clean, plain)) >= MIN_ITERATIONS
                and (not trace or sum(map(_is_clean, traced_)) >= MIN_TRACED)):
            return iters, peak_rss_mb
        if (now >= deadline + EXTRA_SECONDS and len(plain) >= MIN_ITERATIONS
                and (not trace or len(traced_) >= MIN_TRACED)):
            return iters, peak_rss_mb


def _repeat_problems(iters: List[Dict[str, Any]]) -> List[str]:
    """Virtual-time results and exact counts must repeat bit for bit,
    traced or not (tracing must not perturb the simulation)."""
    problems = []
    first = iters[0]
    for it in iters[1:]:
        if it["sim"] != first["sim"]:
            problems.append(f"sim results differ between iterations: "
                            f"{first['sim']} vs {it['sim']}")
        for name in EXACT:
            a, b = first["counts"].get(name), it["counts"].get(name)
            if a is not None and b is not None and a != b:
                problems.append(f"{name} differs between iterations: {a} vs {b}")
    traced = [it for it in iters if it["traced"]]
    for it in traced[1:]:
        if it["counts"] != traced[0]["counts"]:
            problems.append("per-layer counts differ between traced iterations")
    return problems


def _fingerprint(transport) -> Dict[str, Any]:
    import numpy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "transport": transport}


def child_main(args) -> None:
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    ref = wl.reference()
    probe = SpeedProbe()
    iters, peak_rss_mb = _iterate(wl, ref, args.seconds, bool(args.trace), probe)
    problems = [p for it in iters for p in it.pop("problems")]
    problems += _repeat_problems(iters)
    out = {
        "host": _fingerprint(getattr(wl, "transport", None)),
        "iterations": iters,
        "speed_samples": probe.samples,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(it["attempted"] for it in iters),
        "failed": sum(it["failed"] for it in iters),
        "problems": list(dict.fromkeys(problems)),
    }
    print(json.dumps(out))


# ----------------------------------------------------------------------
# Parent: metrics, isolation and leak checks
# ----------------------------------------------------------------------
class HostSpeed:
    """Host slowdown and scaled lengths of intervals, from the child's
    :class:`SpeedProbe` samples (perf_counter stamps are system-wide)."""

    def __init__(self, samples) -> None:
        self.samples = samples

    def slowdown(self, span) -> float:
        """Mean chunk time around ``span`` over the reference chunk time."""
        begin, end = span[0] - SAMPLE_PAD_S, span[1] + SAMPLE_PAD_S
        near = [d for t, d in self.samples if begin <= t <= end]
        if not near:
            raise SystemExit(f"no host-speed samples between {begin} and {end}")
        return sum(near) / len(near) / REFERENCE_CHUNK_S

    def scaled_s(self, span) -> float:
        """Length of ``span``, less the chunks run inside it, in seconds
        at the reference host speed."""
        probed = sum(d for t, d in self.samples if span[0] <= t < span[1])
        return (span[1] - span[0] - probed) / self.slowdown(span)


def _untraced(iters) -> List[Dict[str, Any]]:
    return _pick([it for it in iters if not it["traced"]], MIN_ITERATIONS)


def _traced(iters) -> List[Dict[str, Any]]:
    return _pick([it for it in iters if it["traced"]], MIN_TRACED)


def _end_to_end(iters, peak_rss_mb: float, speed: HostSpeed) -> Dict[str, float]:
    plain = _untraced(iters)
    wall = [speed.scaled_s(it["run"]) for it in plain]
    restart_s = [speed.scaled_s(it["phases"]["restore"]) if "phases" in it else w
                 for it, w in zip(plain, wall)]
    return {
        "setup_s": _median([speed.scaled_s(it["setup"])
                            for it in _pick(iters, MIN_ITERATIONS)]),
        "wall_s": _median(wall),
        "sim_events_per_s": _median([it["events"] / w
                                     for it, w in zip(plain, wall)]),
        "peak_rss_mb": peak_rss_mb,
        "restart_mb_per_s": _median([it["restart_bytes"] / 1e6 / s
                                     for it, s in zip(plain, restart_s)]),
        "sim_restart_ms": plain[0]["sim"]["sim_restart_ms"],
    }


def _layer_s(it, speed: HostSpeed) -> Dict[str, float]:
    """A traced iteration's layer self times, scaled like its wall time
    (the chunks run inside a span add to it in proportion)."""
    k = 1e-9 * speed.scaled_s(it["run"]) / (it["run"][1] - it["run"][0])
    return {layer: ns * k for layer, ns in it["layer_ns"].items()}


def _per_layer(iters, speed: HostSpeed) -> Dict[str, float]:
    plain, traced = _untraced(iters), _traced(iters)
    layer_s = [_layer_s(it, speed) for it in traced]
    out: Dict[str, float] = {}
    for layer in PER_LAYER_TIMES:
        out[f"{layer}.self_s"] = _median([s[layer] for s in layer_s])
    barrier = _median([s["parallel.barrier"] for s in layer_s])
    counts = traced[0]["counts"]
    out["parallel.barrier_s"] = barrier
    out["obs.fold_s"] = _median([s["obs"] for s in layer_s])
    windows = counts.get("parallel.windows", 0)
    out["parallel.barrier_us_per_window"] = (
        barrier * 1e6 / windows if windows else 0.0)
    for name in PER_LAYER_COUNTS:
        out[name] = counts.get(name, 0)
    sim = plain[0]["sim"]
    ckpt_s = [speed.scaled_s(it["phases"]["ckpt"] if "phases" in it
                             else it["run"]) for it in plain]
    out["ckpt_mb_per_s"] = _median([it.get("ckpt_bytes", 0) / 1e6 / s
                                    for it, s in zip(plain, ckpt_s)])
    out["sim_makespan_s"] = sim.get("sim_makespan_s", 0.0)
    out["sim_lost_steps"] = sim.get("sim_lost_steps", 0)
    out["sim_ckpt_stall_ms"] = sim.get("sim_ckpt_stall_ms", 0.0)
    out["trace.coverage"] = _median([
        sum(it["layer_ns"].values()) / 1e9 / (it["run"][1] - it["run"][0])
        for it in traced])
    out["trace.overhead_s"] = (
        _median([speed.scaled_s(it["run"]) for it in traced])
        - _median([speed.scaled_s(it["run"]) for it in plain]))
    out["host.slowdown"] = _median([speed.slowdown(it["run"]) for it in plain])
    out["host.raw_wall_s"] = _median([it["run"][1] - it["run"][0]
                                      for it in plain])
    return out


def _report_table(wl_name: str, iters, speed: HostSpeed) -> List[str]:
    """Ranked "where host time goes" table of the median traced pass."""
    traced = sorted(_traced(iters), key=lambda it: speed.scaled_s(it["run"]))
    it = traced[len(traced) // 2]
    layer_s = _layer_s(it, speed)
    calls = it["layer_calls"]
    wall = speed.scaled_s(it["run"])
    rows = [f"where host time goes: {wl_name} (traced wall "
            f"{wall:.3f} s, layers cover {sum(layer_s.values()) / wall:.1%})",
            f"  {'layer':<18}{'self s':>9}{'share':>8}{'spans':>10}"]
    for layer, v in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        if v:
            rows.append(f"  {layer:<18}{v:>9.3f}{v / wall:>8.1%}"
                        f"{calls[layer]:>10}")
    residual = wall - sum(layer_s.values())
    rows.append(f"  {'(benchmark)':<18}{residual:>9.3f}{residual / wall:>8.1%}")
    return rows


def _metrics(args, res, speed: HostSpeed):
    """(metrics, report lines, problems) from the child's iterations."""
    iters = res["iterations"]
    problems: List[str] = []
    lines: List[str] = []
    if args.trace:
        metrics = _per_layer(iters, speed)
        declared = _declared_units("per_layer")
        lines = _report_table(args.workload, iters, speed)
        lines.append(f"tracing overhead: {metrics['trace.overhead_s']:+.3f} s "
                     "(median traced minus untraced wall_s)")
        if metrics["trace.coverage"] < 0.9:
            problems.append(f"layer self times cover only "
                            f"{metrics['trace.coverage']:.1%} of traced wall")
    else:
        metrics = _end_to_end(iters, res["peak_rss_mb"], speed)
        declared = _declared_units("end_to_end")
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} "
                         "disagree with BENCHMARK.json")
    plain = _untraced(iters)
    slow = sorted(speed.slowdown(it["run"]) for it in plain)
    lines.append(f"host slowdown over the reference: median {_median(slow):.3f} "
                 f"(range {slow[0]:.3f}-{slow[-1]:.3f}); unscaled wall_s median "
                 f"{_median([it['run'][1] - it['run'][0] for it in plain]):.4f} s")
    lines.append(f"clean iterations: {sum(map(_is_clean, iters))} of "
                 f"{len(iters)}; CPU time stolen by the hypervisor: median "
                 f"{_median([it['steal'] for it in iters]):.1%}, "
                 f"max {max(it['steal'] for it in iters):.1%}")
    return ({k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
            lines, problems)


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _live_processes():
    """(pid, ppid, pgid) of every live (non-zombie) process."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if fields[0] != "Z":
            yield int(entry), int(fields[1]), int(fields[2])


def _group_members(pgid: int) -> List[int]:
    """Live processes in process group ``pgid`` (the child's session)."""
    return [pid for pid, _, group in _live_processes() if group == pgid]


def _children() -> List[int]:
    me = os.getpid()
    return [pid for pid, ppid, _ in _live_processes() if ppid == me]


def _kill_group(pgid: int) -> None:
    """SIGKILL every process in ``pgid`` and wait (bounded) until gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)




def parent_main(args) -> None:
    shm_before = _shm_names()
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A fixed hash seed: dict and set layouts, and so host times, do not
    # change from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, cwd=ROOT, text=True)
    # Read the child's output on a thread and wait for the child itself:
    # a leaked process holding the pipe open must not keep us waiting.
    lines: List[str] = []
    reader = threading.Thread(target=lambda: lines.extend(proc.stdout),
                              daemon=True)
    reader.start()
    violations: List[str] = []
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.wait()
        violations.append(f"workload exceeded {CHILD_TIMEOUT_S} s")
    # Anything left in the child's session outlived it: give stragglers a
    # moment to notice their parent is gone, then kill and count them.
    deadline = time.monotonic() + 5.0
    while _group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    stragglers = _group_members(proc.pid)
    if stragglers:
        violations.append(f"processes outlived the run: {stragglers}")
        _kill_group(proc.pid)
    reader.join(timeout=5.0)
    if reader.is_alive():
        violations.append("a process outside the run's session holds its output")
    if _children():
        violations.append(f"live child processes: {_children()}")
    leaked = sorted(_shm_names() - shm_before)
    if leaked:
        violations.append(f"/dev/shm segments outlived the run: {leaked}")
        for name in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        _fail(f"workload {args.workload} produced no result "
              f"(exit code {proc.returncode}); violations: {violations}")
    if proc.returncode != 0:
        violations.append(f"workload exited with code {proc.returncode}")
    metrics, report, checks = _metrics(args, res, HostSpeed(res["speed_samples"]))
    for line in report:
        print(line)
    print(f"host: {json.dumps(res['host'], sort_keys=True)} "
          f"seed={args.seed} iterations={len(res['iterations'])}")
    problems = res["problems"] + checks + violations
    for p in problems:
        print(f"check failed: {p}")
    failed = res["failed"] + len(violations)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": res["attempted"] + len(violations),
        "failed": failed,
        "metrics": metrics,
    }))
    if problems:
        sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"no simulator sources at {SRC}: run from a repository checkout")
    if args.workload not in ("job_failover", "ckpt_datapath", "fleet_sharded"):
        _fail(f"unknown workload {args.workload!r}")
    if args.child:
        child_main(args)
    else:
        parent_main(args)


if __name__ == "__main__":
    main()
