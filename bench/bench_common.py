"""Helpers shared by the workloads: percentiles, process readings,
answer comparison, leak checks and provenance."""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import platform
import resource
import signal
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pct(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` of ``values``; 0.0 for an empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return pct(values, 50.0)


class Checks:
    """Named pass/fail checks; a workload is correct when all pass."""

    def __init__(self) -> None:
        self.failed: List[str] = []
        self.run: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if name not in self.run:
            self.run.append(name)
        if not ok:
            self.failed.append(f"{name}: {detail}" if detail else name)

    @property
    def ok(self) -> bool:
        return not self.failed


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def shard_skew(store) -> float:
    """Largest shard's series count over the mean shard's."""
    cards = store.shard_cardinalities()
    return ratio(max(cards), sum(cards) / len(cards))


# ------------------------------------------------------------- host speed

def _reference_kernel() -> float:
    """Seconds one pass of a fixed piece of interpreter work takes:
    arithmetic in a loop, then a dict of small tuples built and dropped.
    It allocates no large block on purpose — with NumPy temporaries in
    it the kernel's time followed the state of the C heap (20 % between
    a fresh process and one that had built a cluster), not the host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc += i * i
    table = {}
    for i in range(6000):
        table[i] = (i, acc)
    return time.perf_counter() - t0


class HostSpeed:
    """How fast the host is *right now*, from a reference kernel.

    The 2-core VMs this runs on change speed by up to 2x, per core, from
    second to second and in spells of minutes (a pure interpreter loop
    shows it with nothing else running),
    which would make every timing wider than any useful bound.  A fixed
    kernel of about 1 ms is therefore timed on either side of every
    *segment* of a run — a set-up, a slice of simulated time, a serving
    round — and every time-valued end-to-end metric is reported **at
    reference speed**: measured time x the segment's factor
    (``REFERENCE_S`` / kernel time measured next to it).
    """

    #: the kernel's time on the reference host in its quiet state
    REFERENCE_S = 0.00115

    def __init__(self) -> None:
        #: factor of every segment timed so far
        self.factors: List[float] = []

    @staticmethod
    def reading(repeats: int = 1) -> float:
        """Median of ``repeats`` kernel times, each the fastest of three
        passes (a pass that met a collection or a preemption says nothing)."""
        return median([min(_reference_kernel() for _ in range(3)) for _ in range(repeats)])

    def segments(self, count: int, run: Callable[[int], None],
                 readings: int = 1) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run ``run(0) .. run(count - 1)`` with a speed reading before,
        between and after; returns each segment's start (``perf_counter``),
        wall seconds as measured, and factor to reference speed."""
        starts, walls, factors = np.empty(count), np.empty(count), np.empty(count)
        after = self.reading(readings)
        for k in range(count):
            before = after
            starts[k] = time.perf_counter()
            run(k)
            walls[k] = time.perf_counter() - starts[k]
            after = self.reading(readings)
            factors[k] = self.REFERENCE_S / ((before + after) / 2.0)
        self.factors.extend(factors)
        return starts, walls, factors


def setup_repeated(build: Callable[[], object], repeats: int, speed: HostSpeed,
                   close: Optional[Callable[[object], None]] = None) -> Tuple[object, float]:
    """Build the system ``repeats`` times; keep the last and return it
    with the median build time at reference speed.

    One slow start does not decide a median.  Before the timed section
    the set-up objects are moved out of the garbage collector's reach
    (``gc.freeze``): a full collection then no longer walks the whole
    fleet, which otherwise puts 50-100 ms stalls at arbitrary points of
    the run.  New garbage is still collected as usual.
    """
    built: List[object] = []
    times = []
    for _ in range(repeats):
        if built and close is not None:
            close(built[-1])
        built.clear()  # release the previous instance before timing the next
        gc.collect()
        _starts, walls, factors = speed.segments(1, lambda _k: built.append(build()), readings=3)
        times.append(walls[0] * factors[0])
    gc.collect()
    gc.freeze()
    return built[-1], median(times)


# ---------------------------------------------------------------- process


def _vm_hwm_kb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children (the
    shard pool's workers) — call before closing the pool."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    return (own + kids) / 1024.0


def cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def shm_blocks() -> set:
    """This process's shared-memory blocks (the pool names them by pid)."""
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith(f"repro.{os.getpid()}.")}
    except OSError:
        return set()


def leak_check(checks: Checks, shm_before: set, threads_before: set) -> None:
    """No shared-memory block, worker process or thread may outlive a
    workload."""
    leaked = shm_blocks() - shm_before
    checks.check("no_shm_leak", not leaked, f"{sorted(leaked)[:3]}")
    extra = [t.name for t in threading.enumerate() if t.ident not in threads_before]
    checks.check("no_thread_leak", not extra, f"{extra[:3]}")
    alive = multiprocessing.active_children()
    checks.check("no_process_leak", not alive, f"{[p.name for p in alive][:3]}")


def thread_idents() -> set:
    return {t.ident for t in threading.enumerate()}


def child_pids() -> List[int]:
    """Pids whose parent is this process, zombies included (``/proc``)."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            out.append(int(entry))
    return out


def _reaped(pid: int, within_s: float) -> bool:
    """Wait up to ``within_s`` for child ``pid`` to end; True once it is
    reaped (or is not ours to reap)."""
    deadline = time.monotonic() + within_s
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return True
        except ChildProcessError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def stop_children(grace_s: float = 2.0) -> List[int]:
    """Stop every process this one started and wait until each has ended;
    returns the pids that had to be signalled.

    The shard pool's shared-memory blocks start ``multiprocessing``'s
    resource tracker, a helper that exits only once every holder of its
    pipe has closed it — i.e. *after* this process, when nobody is left
    to wait for it (it is then seen still running, or as a zombie under an
    init that does not reap).  So: pool workers first (they inherit the
    pipe; after a clean ``close()`` none is left), then this process's
    end of the pipe is closed by hand, then whatever is still parented to
    this process is waited for, terminated if it must be, and reaped.
    Shared-memory blocks a failed run left behind are unlinked last.
    """
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(timeout=0.5)
        if proc.is_alive():
            proc.terminate()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
    forced = []
    for pid in child_pids():
        # the tracker ignores SIGTERM, hence the last stage
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    break
                if pid not in forced:
                    forced.append(pid)
            if _reaped(pid, grace_s):
                break
    for block in shm_blocks():
        try:
            os.unlink(os.path.join("/dev/shm", block))
        except OSError:
            pass
    return forced


# ---------------------------------------------------------------- answers


def same_series(got, want, *, exact: bool) -> bool:
    """Two query results carry the same series; ``exact`` demands bit
    identity, otherwise float summation order may differ in the last
    digits (engine partial sums vs the sample-by-sample reference)."""
    if len(got.series) != len(want.series):
        return False
    for a, b in zip(got.series, want.series):
        if a.labels != b.labels:
            return False
        if exact:
            if not (np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)):
                return False
        elif not (
            a.times.shape == b.times.shape
            and np.allclose(a.times, b.times, rtol=0.0, atol=1e-9)
            and np.allclose(a.values, b.values, rtol=1e-9, atol=1e-9)
        ):
            return False
    return True


def digest(rows: Iterable[tuple]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


# ------------------------------------------------------------- provenance


def code_size() -> Dict[str, float]:
    """ROADMAP aim 2 trend rows: source lines under ``src/`` and the
    number of names the public ``repro.api`` module exports."""
    lines = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += sum(1 for _ in fh)
    import repro.api

    return {"code.src_lines": float(lines), "code.api_symbols": float(len(repro.api.__all__))}


def host_provenance(seed: int) -> Dict[str, object]:
    from repro.experiments.provenance import provenance

    out: Dict[str, object] = dict(provenance())
    out.update(
        seed=seed,
        nproc=os.cpu_count(),
        loadavg_1m=os.getloadavg()[0],
        python=platform.python_version(),
        numpy=np.__version__,
    )
    return out
