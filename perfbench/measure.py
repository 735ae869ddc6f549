"""Deadlines, failure counting, host-speed scaling, memory sampling and
summary statistics."""

from __future__ import annotations

import os
import queue
import statistics
import threading
import time

import numpy as np

#: returned by ``Guard.call`` / ``Guard.timed`` when the call raised or
#: ran past its deadline
FAILED = object()

#: a probe runs before any timed call when the last one is older than this
PROBE_EVERY_S = 0.25
#: probes whose median stands for the host speed around one call
PROBE_WINDOW = 5
#: probe time that defines reference speed: about what one probe takes on
#: one vCPU of a 2.1 GHz Xeon VM with no local load
REF_PROBE_S = 0.004

_PROBE_KEYS = [f"term{i:05d}" for i in range(8000)]
_PROBE_INTS = np.random.default_rng(0).integers(0, 1 << 40, 60_000)
_PROBE_BUF = np.empty_like(_PROBE_INTS)


def _probe_work() -> int:
    """A fixed mix of interpreter work (dict and string operations) and
    NumPy work (a sort), like the program's own mix of interpreted code and
    array kernels."""
    d: dict[str, int] = {}
    for k in _PROBE_KEYS:
        d[k[:-1]] = d.get(k[:-1], 0) + len(k)
    np.copyto(_PROBE_BUF, _PROBE_INTS)      # in place: no allocation to page in
    _PROBE_BUF.sort()
    return len(d) + int(_PROBE_BUF[len(_PROBE_BUF) // 2] & 1)


class HostClock:
    """Scales wall times to a reference host speed.

    The benchmark runs on shared hosts where other tenants' load changes
    the speed of every instruction by 10-40% over seconds to minutes, and
    CPU time moves with wall time, so there is nothing to subtract. A
    fixed probe (``_probe_work``) is therefore run before each operation
    and, every ``PROBE_EVERY_S``, while a long one runs, and an
    operation's wall time is multiplied by ``REF_PROBE_S`` / (median time
    of the probes around it).

    Which time of the probes: a call shorter than the cadence (a query)
    has its probes right before it, while the program's processes sit
    idle, so their wall time shows everything that slows the host down,
    scheduling delays included, and that is what the call's own wall time
    pays for too. During and right after a long call the program's own
    processes are busy and would preempt the probe, reading the
    benchmark's load as host slowness, so there the probes' CPU time is
    used. Short calls never share the CPU with a probe; long ones pay
    about 2% for them, the same on every commit.
    The result reads as the time the operation would take at reference
    speed. A change to the program moves it as it moves the wall time;
    a slow phase of the host moves the probes too and cancels out.
    """

    def __init__(self):
        #: CPU and wall seconds of each probe
        self.probes: list[float] = []
        self.walls: list[float] = []
        self._last = float("-inf")

    def probe(self, n: int = 1) -> None:
        for _ in range(n):
            c0, t0 = time.thread_time(), time.perf_counter()
            _probe_work()
            self._last = time.perf_counter()
            self.probes.append(time.thread_time() - c0)
            self.walls.append(self._last - t0)

    def mark(self) -> int:
        """Index of the first of the last ``PROBE_WINDOW`` probes, taking
        fresh ones when the last is older than ``PROBE_EVERY_S``: pass it
        to ``scale`` after the operation."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe(PROBE_WINDOW if not self.probes else 1)
        return max(0, len(self.probes) - PROBE_WINDOW)

    def scale(self, wall: float, since: int) -> float:
        """``wall`` at reference speed, from the probes since ``mark()``:
        those before the operation, those taken while it ran (see
        ``Guard.timed``) and, for one that ran longer than the probe
        cadence, a burst right after it."""
        if wall < PROBE_EVERY_S:
            return wall * REF_PROBE_S / statistics.median(self.walls[since:])
        self.probe(PROBE_WINDOW)
        return wall * REF_PROBE_S / statistics.median(self.probes[since:])

    def section(self) -> "Section":
        return Section(self)


class Section:
    """Times a block of several calls at reference speed:
    ``sec = clock.section(); ...; secs = sec.stop()``."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        clock.probe(PROBE_WINDOW)
        self.since = len(clock.probes) - PROBE_WINDOW
        self.t0 = time.perf_counter()

    def stop(self) -> float:
        return self.clock.scale(time.perf_counter() - self.t0, self.since)


class DeadlineExceeded(Exception):
    pass


class _CallThread:
    """A daemon thread that runs program calls one at a time and times
    each one itself, so the hand-off to it is not part of the wall."""

    def __init__(self):
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._loop, name="program-call", daemon=True).start()

    def _loop(self) -> None:
        while True:
            fn, args, kwargs = self._calls.get()
            t0 = time.perf_counter()
            try:
                out, err = fn(*args, **kwargs), None
            except Exception as e:        # handed back to the caller
                out, err = None, e
            self._results.put((out, err, time.perf_counter() - t0))

    def run(self, fn, args, kwargs, timeout_s: float, clock: HostClock):
        """→ (result, exception, wall); raises ``queue.Empty`` on timeout.
        While the call runs, one probe is taken every ``PROBE_EVERY_S``."""
        self._calls.put((fn, args, kwargs))
        end = time.monotonic() + timeout_s
        while True:
            left = end - time.monotonic()
            try:
                return self._results.get(timeout=max(0.0, min(PROBE_EVERY_S, left)))
            except queue.Empty:
                if left <= PROBE_EVERY_S:
                    raise
                clock.probe()


class Guard:
    """Runs every program call under a deadline and counts outcomes.

    Calls run on a helper thread and the caller waits with a timeout: a
    call blocked in ``ray.get`` on an actor that is never scheduled does
    not return, and no signal interrupts that wait. On a timeout the stuck
    thread is abandoned (it is a daemon) and the next call gets a new one.
    Each deadline is also capped by the run's hard end, so the whole run
    finishes in bounded time. Any exception or timeout counts as one
    failed operation. Walls are returned at reference host speed
    (``HostClock``).
    """

    def __init__(self, hard_end: float):
        self.hard_end = hard_end
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.clock = HostClock()
        self._thread: _CallThread | None = None

    def timed(self, fn, *args, deadline_s: float = 60.0, **kwargs):
        """→ (result or FAILED, wall seconds of the call at reference speed)."""
        self.attempted += 1
        budget = min(deadline_s, self.hard_end - time.monotonic())
        if budget <= 0:
            self._fail(fn, DeadlineExceeded("run deadline reached"))
            return FAILED, 0.0
        if self._thread is None:
            self._thread = _CallThread()
        since = self.clock.mark()
        try:
            out, err, wall = self._thread.run(fn, args, kwargs, budget, self.clock)
        except queue.Empty:
            self._thread = None
            self._fail(fn, DeadlineExceeded(f"no answer within {budget:.1f} s"))
            return FAILED, budget
        wall = self.clock.scale(wall, since)
        if err is not None:
            self._fail(fn, err)
            return FAILED, wall
        return out, wall

    def call(self, fn, *args, deadline_s: float = 60.0, **kwargs):
        return self.timed(fn, *args, deadline_s=deadline_s, **kwargs)[0]

    def _fail(self, fn, e: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{getattr(fn, '__qualname__', fn)}: "
                               f"{type(e).__name__}: {e}"[:300])


class RssSampler:
    """Peak resident memory of this process plus every descendant (the
    Ray GCS, raylet and workers), sampled from ``/proc``."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler",
                                        daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval_s)

    def sample(self) -> None:
        children: dict[int, list[int]] = {}
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                with open(f"/proc/{name}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(name))
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, ()))
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1]) * self._page
            except OSError:
                continue
        self.peak_bytes = max(self.peak_bytes, total)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it. Fewer than eleven samples have no such percentile;
    then the median stands in, since the maximum of a handful of samples
    swings with every host hiccup."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return statistics.median(v), 50.0
    return v[n - 11], 100.0 * (n - 10) / n


def percentile(values: list[float], pct: float) -> float:
    """``pct``-th percentile; callers keep at least ten samples beyond it."""
    if len(values) * (100.0 - pct) / 100.0 < 10:
        raise ValueError(f"p{pct:g} of {len(values)} samples has < 10 beyond it")
    return float(np.percentile(values, pct))


def median(values: list[float]) -> float:
    return statistics.median(values)


def nproc() -> int:
    """CPUs this process may use, as coreutils ``nproc`` counts them
    (``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` honoured)."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        try:
            v = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if v > 0:
            n = v if var == "OMP_NUM_THREADS" else min(n, v)
    return n


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]
