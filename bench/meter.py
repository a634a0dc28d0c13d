"""Timing on a machine whose speed drifts, and span tracing.

On the machine the benchmark was built on, the same code runs up to 3x
slower for stretches of tens to hundreds of milliseconds, and raw
timings of unchanged code differ by a quarter between runs. So while
timed work runs, an interval timer interrupts it every SAMPLE_INTERVAL
seconds and times a fixed stdlib-only reference chunk; those samples
say how fast the machine was during exactly that work. A timing is
reported in *reference seconds*: raw seconds scaled by
REF_NOMINAL_S / (mean reference sample taken during the same work),
i.e. the time the work would take when one reference chunk takes
REF_NOMINAL_S. The samples' own time is taken off the work's time.

Stdlib only; nothing here imports stratkit.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import signal
import statistics
import time

SAMPLE_INTERVAL = 0.01
# The fixed scale of reference seconds: work reported as 1 s takes 1 s
# whenever one reference chunk takes REF_NOMINAL_S. On the machine the
# benchmark was built on (Intel Xeon, 2 vCPUs, Python 3.11.7) a chunk
# took 0.15 to 0.27 ms on average over a run, depending on load; see
# README.md.
REF_NOMINAL_S = 0.0002

perf = time.perf_counter
_TABLE = {i: (i * 7) & 15 for i in range(64)}


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _link(x, i):
    return _Cell(i & 7, (x,))


def reference_chunk():
    """Fixed work shaped like an interpreter's: small objects, tuples,
    calls, dict lookups and a list used as a stack."""
    stack = []
    acc = 0
    for i in range(160):
        x = stack.pop() if stack else _Cell(i, ())
        y = _link(x, i)
        stack.append(y)
        stack.append(_Cell(i, (y, x)))
        acc += len(y.b) + _TABLE[i & 63]
        if len(stack) > 32:
            del stack[:]
    return acc


class Meter:
    """A clock that leaves out its own sampling, plus the samples.

    ``now()`` is perf_counter minus the time spent in samples so far.
    Samples are taken only while ``active`` is true; sample i was taken
    at now() == sample_at[i] and took sample_s[i] seconds.
    """

    def __init__(self):
        self.sample_at: list[float] = []
        self.sample_s: list[float] = []
        self.sampling_s = 0.0
        self.active = False
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        if not self.active:
            return
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf()
        reference_chunk()
        dt = perf() - t0
        if was_enabled:
            gc.enable()
        self.sample_at.append(t0 - self.sampling_s)
        self.sample_s.append(dt)
        self.sampling_s += dt

    def now(self):
        return perf() - self.sampling_s

    def mean_sample(self):
        return sum(self.sample_s) / len(self.sample_s) if self.sample_s else REF_NOMINAL_S

    def speed(self, intervals):
        """Mean reference sample taken inside the given (start, end)
        intervals of now(), and how many there were."""
        total = 0.0
        n = 0
        for a, b in intervals:
            lo = bisect.bisect_left(self.sample_at, a)
            hi = bisect.bisect_right(self.sample_at, b)
            total += sum(self.sample_s[lo:hi])
            n += hi - lo
        return (total / n if n else None), n


class Timed:
    """Work time of named groups within one pass, and their intervals."""

    def __init__(self, meter):
        self.meter = meter
        self.work: dict[str, float] = {}
        self.intervals: dict[str, list] = {}

    def run(self, groups, fn, *args):
        """Call fn(*args), charging its time to each of the groups."""
        m = self.meter
        m.active = True
        t0 = m.now()
        try:
            return fn(*args)
        finally:
            t1 = m.now()
            m.active = False
            for g in groups:
                self.work[g] = self.work.get(g, 0.0) + (t1 - t0)
                self.intervals.setdefault(g, []).append((t0, t1))

    def reference_seconds(self, group, fallback_speed):
        """The group's work in reference seconds. Groups with fewer than
        three samples of their own use the pass's mean sample."""
        speed, n = self.meter.speed(self.intervals.get(group, ()))
        if n < 3:
            speed = fallback_speed
        return self.work.get(group, 0.0) * REF_NOMINAL_S / speed


class Tracer:
    """Spans around calls into stratkit, made from the benchmark's side.

    ``call(name, fn, *args)`` records (name, start, end) on the meter's
    clock when tracing is on, and is a plain call otherwise. Each span
    wraps one call from the benchmark into stratkit, so spans never
    nest and a span's self time is its duration.
    """

    def __init__(self, meter, enabled):
        self.meter = meter
        self.enabled = enabled
        self.spans: list[list] = []

    def call(self, name, fn, *args, **kw):
        if not self.enabled:
            return fn(*args, **kw)
        span = [name, self.meter.now(), None]
        self.spans.append(span)
        try:
            return fn(*args, **kw)
        finally:
            span[2] = self.meter.now()

    def self_times(self, first=0):
        """Self time per span name over spans[first:]."""
        out: dict[str, float] = {}
        for name, a, b in self.spans[first:]:
            out[name] = out.get(name, 0.0) + (b - a)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, a, b in self.spans:
                fh.write(json.dumps({"name": name, "start": a, "end": b}) + "\n")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def growth(sizes, times):
    """Least-squares slope of log(time) over log(size)."""
    pts = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if n > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return num / den
