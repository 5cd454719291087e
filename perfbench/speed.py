"""Machine-speed probe: reference seconds on a host whose speed drifts.

On a shared host the effective CPU speed moves by up to a factor of two
within seconds, and phases last tens of seconds, so wall times of the
same code differ by 20% between runs however long each run is.  A fixed
probe kernel (series-sized convolutions and array churn, a trig
evaluation and a small dense solve, like the program's own mix) measures
that speed next to the work:

* during timed passes (traced or not) and set-up it runs from a timer
  signal every INTERVAL_S; its own time is removed from the pass and
  from every span that holds it, and
* around the import and the layer sweep it runs as a block before and
  after.

A timed interval is reported in reference seconds: its busy time times
REFERENCE_S / (mean probe time near it).  The probe is the benchmark's
own code, so a change to the program changes the reference seconds
exactly as it changes the time a steady machine would measure.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 0.0025  # probe time at the reference speed (2-core Xeon host)
NEAREST = 5           # samples used when an interval holds fewer


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20260217)
        self.f = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        self.g = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        self.x = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
        self.k = np.arange(1.0, 65.0)
        self.c = rng.standard_normal(64)
        self.m = rng.standard_normal((128, 128)) + 128.0 * np.eye(128)
        self.b = rng.standard_normal(128)
        self.samples = []   # (start, duration)
        self.spent = 0.0    # total probe seconds, for spans that hold probes

    def once(self):
        start = time.perf_counter()
        for _ in range(150):
            v = np.ascontiguousarray(np.convolve(self.f, self.g).real)
            v.setflags(write=False)
            bool(np.all(np.isfinite(v)))
        np.cos(np.multiply.outer(self.x, self.k)) @ self.c
        np.linalg.solve(self.m, self.b)
        duration = time.perf_counter() - start
        self.samples.append((start, duration))
        self.spent += duration
        return duration

    def block(self, n=NEAREST):
        for _ in range(n):
            self.once()

    @contextmanager
    def sampling(self):
        """Run the probe every INTERVAL_S from SIGALRM while in the block."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.once())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start, end):
        """REFERENCE_S over the mean probe time in [start, end), or over
        the NEAREST samples to its midpoint if it holds fewer."""
        inside = [d for t, d in self.samples if start <= t < end]
        if len(inside) < NEAREST:
            mid = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:NEAREST]]
        return REFERENCE_S / float(np.mean(inside))

    def busy(self, start, end):
        """Seconds in [start, end) not spent in the probe."""
        return end - start - sum(d for t, d in self.samples
                                 if start <= t < end)

    def reference_seconds(self, start, end):
        return self.busy(start, end) * self.factor(start, end)
