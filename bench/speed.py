"""Timing that corrects for the shared machine's changing speed.

The machine the benchmark was built on switches, many times a second,
between a fast mode and one in which all code runs up to about 1.8 times
slower (other tenants on the same host), and the share of time spent slow
drifts over seconds to minutes.  A fixed pure-Python probe, unrelated to
gvc, slows in step with gvc's own code: over forty windows of about three
seconds, the median time of a `static` pass varied by 20% (quartile
distance over median), the median probe time in the same window moved with
it (correlation 0.97), and the pass time divided by the median probe time
varied by 8%.  The probe's best time does not track it: the best time is
always taken in the fast mode.

`Clock` times each call with perf_counter and, between calls, runs the probe
about every INTERVAL seconds.  A sample's scaled time is its measured time
times REF_S over the median of the probes around it (NEIGHBOURS before and
after, about a second of run time), so it reads as the time the call takes
while the probe's median time is REF_S, as it is on that machine when it
stays in the fast mode.  The probe does not run inside a timed call.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from time import perf_counter

# median probe time on the machine this was built on, in the fast mode
REF_S = 1.8e-4
INTERVAL = 0.02
PROBE_REPEATS = 3
NEIGHBOURS = 25


def _probe_once():
    """A fixed mix of what an interpreter does: tuples, strings, a dict."""
    d = {}
    acc = 0
    for i in range(400):
        t = (i, str(i), [i])
        d[t[1]] = t
        acc += len(d) + t[0] % 7
    for k in list(d):
        acc += d.pop(k)[0]
    return acc


def probe():
    """Best time of a few probe runs, in seconds.  The collector is off, so
    the probe's time does not depend on how many objects gvc keeps alive;
    the probe frees what it allocates."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            _probe_once()
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return best


class Clock:
    """Times calls; `scaled(i)` gives sample i at the reference speed."""

    def __init__(self):
        self.samples = []  # measured seconds, one per timed call
        self.probe_at = []  # index of the sample each probe preceded
        self.probe_s = []
        self.last = -INTERVAL
        self._median = {}  # probe index -> median of the probes around it

    def _probe(self):
        self.probe_at.append(len(self.samples))
        self.probe_s.append(probe())
        self.last = perf_counter()
        self._median.clear()

    def time(self, fn, *args):
        """(sample index, fn's result, exception or None)."""
        if perf_counter() - self.last >= INTERVAL:
            self._probe()
        t0 = perf_counter()
        try:
            out, err = fn(*args), None
        except Exception as e:  # a failed op; counted by the caller
            out, err = None, e
        dt = perf_counter() - t0
        self.samples.append(dt)
        if dt >= INTERVAL:  # a long call gets a probe right after it too
            self._probe()
        return len(self.samples) - 1, out, err

    def scaled(self, i):
        """Sample i in seconds at the reference speed."""
        k = bisect_right(self.probe_at, i)  # first probe after sample i
        if k not in self._median:
            near = sorted(self.probe_s[max(0, k - NEIGHBOURS):k + NEIGHBOURS])
            self._median[k] = near[len(near) // 2]
        return self.samples[i] * REF_S / self._median[k]

    def speed(self):
        """REF_S over the median probe time: below 1 when the machine ran
        slower than the reference."""
        s = sorted(self.probe_s)
        return REF_S / s[len(s) // 2]
