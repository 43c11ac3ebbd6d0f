"""The host's speed, measured by a fixed Python loop.

The host is shared, and its speed drifts by up to half over seconds to
minutes, for the program and for a plain Python loop alike.  The loop is
timed around every measured piece of work and, from a timer signal,
every PROBE_INTERVAL_S within it.  The work's scaled time is its time at
the loop's speed on a quiet host: its time, less the loop's own, times
PROBE_QUIET_S over the loop's mean time around and within the work.
"""

import signal
from time import perf_counter

PROBE_REPS = 5  # loops per probe around a piece of work
PROBE_REPS_WITHIN = 2  # loops per probe within it
PROBE_INTERVAL_S = 0.1
PROBE_QUIET_S = 0.0012  # one loop on a quiet 2.1 GHz Xeon vCPU


def probe(reps):
    """Mean seconds of one run of the fixed loop, over ``reps`` runs."""
    start = perf_counter()
    for _ in range(reps):
        s = 0
        for i in range(20000):
            s += i * i
    return (perf_counter() - start) / reps


class HostSpeed:
    """The probes taken around and within pieces of work, as (start, end,
    seconds per loop).  Only ``timed`` takes probes within them."""

    def __init__(self, timed):
        self.timed = timed
        self.probes = []

    def take(self, reps=PROBE_REPS):
        # the timer's probe must not run inside this one
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        start = perf_counter()
        per_loop = probe(reps)
        self.probes.append((start, perf_counter(), per_loop))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _on_alarm(self, signum, frame):
        self.take(PROBE_REPS_WITHIN)

    def __enter__(self):
        self.take()
        if self.timed:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0, t1, first):
        """(seconds in [t0, t1] outside the probes, scaled seconds), where
        ``first`` is the index of the last probe before t0."""
        around = self.probes[first:]
        busy = sum(min(end, t1) - max(start, t0) for start, end, _ in around
                   if start < t1 and end > t0)
        seconds = t1 - t0 - busy
        mean = sum(p[2] for p in around) / len(around)
        return seconds, seconds * PROBE_QUIET_S / mean
