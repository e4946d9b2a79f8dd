"""Host-speed probe: fixed slices of work timed inside the benchmarked child.

The benchmark runs on a shared host whose cores change speed by up to
1.6x from one minute to the next, and CPU time changes with wall time, so
neither measures the program alone.  The probe measures the host's speed
at the same moments, on the same core, as the program runs: a SIGALRM
timer fires every INTERVAL_S, and its handler runs one slice of fixed work
(see ``Probe``) and records when the slice started and ended.

A stretch of the run is then reported in reference seconds: its wall
time less the slices in it, scaled by the slice's reference time (the sum
of REFERENCE_S over its parts) over the mean slice time in it.  On a host
running at the reference speed a reference second is a second; when the
host runs 1.3x slower, the program's time and the slices' time both grow
1.3x and the reference seconds stay put.  The slices cost about 3-5% of
the child's time, the same share on every commit, and that time is taken
out of every reported span.
"""

import bisect
import signal
import time

INTERVAL_S = 0.1
# Median time of each part of a slice, measured inside benchmark children
# on a 2-vCPU Intel Xeon at 2.0 GHz, so that a reference second there is
# close to a second.
REFERENCE_S = {"loop": 0.00113, "fft": 0.00186, "stream": 0.00171}


class Probe:
    """Runs a timed slice of fixed work on every SIGALRM while started.

    The host slows different kinds of code by different amounts, so a
    workload's slice is made of the parts (keys of REFERENCE_S) that do
    the kind of work the workload does:

    - ``loop``: a Python loop of small complex dot products and updates,
      the tracking kernel's step;
    - ``fft``: FFT round trips of small and of 512 KB blocks, as in the
      CMT filter banks;
    - ``stream``: a pass over 4 MB arrays, larger than a core's L2 cache.
    """

    def __init__(self, parts):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._rows = rng.standard_normal((16, 128)) + 1j * rng.standard_normal((16, 128))
        self._small = rng.standard_normal((8, 256)) + 1j * rng.standard_normal((8, 256))
        self._large = rng.standard_normal((4, 8192)) + 1j * rng.standard_normal((4, 8192))
        self._taps = np.fft.fft(rng.standard_normal(8192))
        if "stream" in parts:
            self._a = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)
            self._b = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)
        self._parts = [getattr(self, f"_{part}") for part in parts]
        self.slices = []
        self._work()  # warm up: first calls pay for lazy set-up in numpy

    def _loop(self):
        np = self._np
        rows = self._rows
        w = np.zeros(rows.shape[1], complex)
        w[0] = 1.0
        for i in range(250):
            x = rows[i & 15]
            y = np.vdot(w, x).real
            w -= 1e-4 * (abs(y) - 1.0) * x

    def _fft(self):
        np = self._np
        block = self._small
        for _ in range(16):
            block = np.fft.ifft(np.fft.fft(block, axis=1), axis=1)
        np.fft.ifft(np.fft.fft(self._large, axis=1) * self._taps, axis=1)

    def _stream(self):
        self._a * 0.5 + self._b

    def _work(self):
        for part in self._parts:
            part()

    def _on_alarm(self, signum, frame):
        start = time.monotonic()
        self._work()
        self.slices.append((start, time.monotonic()))

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


class Slices:
    """The slices of one child, sorted by start, for interval queries."""

    def __init__(self, slices, parts):
        self.reference = sum(REFERENCE_S[part] for part in parts)
        self.starts = [s for s, _ in slices]
        self.cumulative = [0.0]
        for s, e in slices:
            self.cumulative.append(self.cumulative[-1] + (e - s))

    def within(self, start, end):
        """(count, total seconds) of slices that started in [start, end].

        A slice runs between two bytecodes of the child's main thread, so
        it never straddles a time the child took there.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return hi - lo, self.cumulative[hi] - self.cumulative[lo]

    def scale(self, start, end):
        """Reference seconds per second of the host in [start, end], or None."""
        count, total = self.within(start, end)
        return self.reference * count / total if count else None

    def reference_s(self, start, end, scale=None):
        """Wall time of [start, end] less its slices, in reference seconds.

        ``scale`` defaults to the one measured over the same interval.
        """
        scale = scale or self.scale(start, end)
        if scale is None:
            return None
        return (end - start - self.within(start, end)[1]) * scale
