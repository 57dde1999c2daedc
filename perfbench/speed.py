"""The host's current speed, from fixed calibration probes.

The benchmark runs on shared hosts whose speed changes by tens of
percent for seconds to minutes at a time. Every timed request is
bracketed by probes of fixed work, and its wall time is scaled by
``nominal / <the probe times around it>``. Reported times are thus
seconds on a reference host where a probe takes its nominal time. The
probes are the benchmark's own code: a change to gammaconv does not
change them.

Two probes, one per kind of work timed:

* ``probe``: two in-process kernels. ``numpy_calls`` is a Python loop
  of small numpy calls on short slices, shaped like the package's hot
  loops (a log-space convolution and a weight recursion), whose time is
  mostly interpreter and call overhead; ``memory_stream`` streams a
  1 MiB array, whose time is mostly memory traffic. The host slows each
  kind of work by a different share, and the package does both, so the
  probe is the geometric mean of the two, each relative to its nominal
  time. Over 40 fresh processes each serving 24 short ``paper-grids``
  requests, the spread (IQR over median) of their total time was 0.19
  raw, 0.08 scaled by either kernel alone and 0.03 scaled by both;
* ``cold_probe``: a fresh interpreter that imports numpy and
  ``scipy.special``, for set-ups and fresh CLI processes, which are
  mostly interpreter start-up and imports. The in-process kernels do
  not track those.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import subprocess
import sys
import time

#: Each kernel's time on the reference host, in seconds.
NOMINAL_NUMPY_CALLS_S = 6e-4
NOMINAL_MEMORY_STREAM_S = 2.5e-4
#: The cold probe's time on the reference host, in seconds.
NOMINAL_COLD_S = 0.5
#: Runs of each kernel per probe; the fastest counts, so that a cache
#: left cold by the request before does not.
PROBE_RUNS = 2
#: Probes on each side of a request that set its scale, besides those inside it.
WINDOW = 2
#: Seconds between the probes taken inside in-process requests.
SAMPLE_INTERVAL_S = 0.05

COLD_PROBE = [sys.executable, "-c", "import numpy, scipy.special"]


class _Kernels:
    """The in-process kernels' data, built on first use so that importing
    this module imports no numpy (set-up times that import)."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.series = np.linspace(-5.0, 0.0, 120)
        self.gammas = np.linspace(0.01, 1.0, 81)
        self.stream = np.linspace(0.0, 1.0, 1 << 17)  # 1 MiB
        self.buffer = np.empty_like(self.stream)  # no allocation while timed

    def numpy_calls(self) -> float:
        np, a = self.np, self.series
        out = 0.0
        for r in range(0, a.shape[0], 2):
            w = a[: r + 1] + a[: r + 1][::-1]
            m = float(w.max())
            out += m + math.log(float(np.sum(np.exp(w - m))))
        g = self.gammas
        d = np.empty(g.shape[0])
        d[0] = 1.0
        for k in range(g.shape[0] - 1):
            d[k + 1] = (g[1 : k + 2] @ d[k::-1]) / (k + 1)
        return out + float(d[-1])

    def memory_stream(self) -> float:
        np = self.np
        np.negative(self.stream, out=self.buffer)
        np.exp(self.buffer, out=self.buffer)
        return float(self.buffer.sum())


_kernels: _Kernels | None = None


def _fastest(fn) -> float:
    best = math.inf
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def probe() -> float:
    """The in-process kernels' time now, in units of their nominal times."""
    global _kernels
    if _kernels is None:
        _kernels = _Kernels()
    return math.sqrt(_fastest(_kernels.numpy_calls) / NOMINAL_NUMPY_CALLS_S
                     * _fastest(_kernels.memory_stream) / NOMINAL_MEMORY_STREAM_S)


def cold_probe() -> float:
    """Seconds a fresh interpreter importing numpy takes now, in units of NOMINAL_COLD_S."""
    start = time.perf_counter()
    subprocess.run(COLD_PROBE, stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - start) / NOMINAL_COLD_S


class Timeline:
    """Probe values over a pass, and the scale of each request in it.

    ``probe`` takes a probe between requests. While ``sampling`` is on,
    a timer signal also takes one every SAMPLE_INTERVAL_S inside the
    requests (the handler runs in the serving thread, between bytecodes),
    so a request lasting a second is scaled by the host's speed during
    it, not only at its ends; the time those probes take is taken out of
    the request's time.
    """

    def __init__(self, probe_fn=probe):
        self.probe_fn = probe_fn
        self.times: list[float] = []
        self.values: list[float] = []
        self.inside: list[tuple[float, float]] = []  # (start, end) of timer probes
        self._busy = False

    def record(self, at: float, value: float) -> None:
        self.times.append(at)
        self.values.append(value)

    def probe(self) -> None:
        self._busy = True
        try:
            value = self.probe_fn()
            self.record(time.perf_counter(), value)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            value = self.probe_fn()
            end = time.perf_counter()
            self.record(end, value)
            self.inside.append((start, end))
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def probe_seconds(self, start: float, end: float) -> float:
        """Seconds the timer probes took between `start` and `end`."""
        lo = bisect.bisect_left(self.inside, (start,))
        return sum(e - s for s, e in self.inside[lo:] if e <= end)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns wall seconds between `start` and `end` into
        reference seconds: one over the median of the probes taken in
        that interval and of the WINDOW probes on each side of it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return 1.0 / statistics.median(self.values[max(0, lo - WINDOW): hi + WINDOW])
