"""Host-speed probe for the end-to-end times.

On a shared host the speed of one CPU drifts by up to 2x, for seconds to
minutes at a time (co-tenants on the same core).  No steal time is reported
and process CPU time grows with wall time, so neither can be subtracted, and
a median over one run cannot average out a slow minute.

So every timed process samples its own speed while it runs: a wall-clock
interval timer fires every ``INTERVAL_S``, and the signal handler times a
fixed pure-Python loop of ``PROBE_STEPS`` steps.  A sample takes 14 to 30
microseconds, so the probe takes well under 1% of a pass.  The median
sample over the process, divided by ``PROBE_NOMINAL_S``, is the host's
slowdown during that process, and

    calibrated_s = wall_s / slowdown

is the time the process would have taken with the host at nominal speed.  A
change to the program changes ``wall_s`` and not the probe, so the calibrated
time moves with the program and not with the host.
"""

from __future__ import annotations

import signal
import time

# Seconds one probe sample takes on an uncontended 2.1 GHz x86_64 vCPU
# (CPython 3.11); with the host at that speed a calibrated time equals the
# raw wall time.
PROBE_NOMINAL_S = 14e-6
PROBE_STEPS = 300
INTERVAL_S = 0.01


class Probe:
    """``start()`` at the beginning of the timed region, ``stop()`` at its
    end, then ``slowdown()``.  Runs in the main thread of one process."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        s = 0
        for i in range(PROBE_STEPS):
            s += i * i
        self.samples.append(time.perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()  # at least one sample, however short the process

    def slowdown(self):
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        median = (ordered[mid] if len(ordered) % 2
                  else (ordered[mid - 1] + ordered[mid]) / 2.0)
        return median / PROBE_NOMINAL_S
