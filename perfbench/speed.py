"""Reading stage times against the speed the machine ran at.

The machine this benchmark was built on shares its cores with other load.
The same work took from 1.0 to 2.0 times its fastest CPU time, in phases
that last from under a second to a few minutes.  CPU time does not leave
that out, because the core itself runs slower.  So while a run measures, a
profiling timer interrupts it every PERIOD_S of CPU time and runs a probe:
a small, fixed piece of interpreter work that never calls smd2cpn, whose
CPU time follows the speed of the core at that moment.

A stage time in *reference seconds* is the stage's CPU time, less the
probes that ran inside it, times PROBE_S over the mean time of the probes
that ran during and around it.  A change to the program moves the stage and
not the probes; a change in the load on the machine moves both.

Times are read with `time.thread_time`.  The program is single-threaded, so
that is the process's CPU time; `time.process_time` would not do, because
while a profiling timer is armed Linux advances it only at scheduler ticks.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

CLOCK = time.thread_time
#: CPU seconds between probes
PERIOD_S = 0.05
#: what one probe counts as, in reference seconds: about its CPU time on an
#: idle core of the machine the benchmark was built on
PROBE_S = 0.0006
#: probes this close (CPU seconds) to a measured interval count for it; the
#: window widens until it holds MIN_PROBES
NEAR_S = 0.1
MIN_PROBES = 4


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe_work() -> int:
    """Dictionary, tuple, string and small-object work, like the program's."""
    counts = {}
    points = []
    for i in range(700):
        key = (i % 97, f"p{i % 89}")
        counts[key] = counts.get(key, 0) + 1
        points.append(_Point(i, key))
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return len(",".join(str(p.a) for p in points[::7])) + len(ordered)


class Speedometer:
    """Probes taken while the block runs, and the conversion of measured
    intervals of CPU time to reference seconds."""

    def __init__(self):
        self.starts: list[float] = []  # CPU time each probe started at
        self.times: list[float] = []   # CPU time each probe took
        self._previous = None

    def __enter__(self):
        self._probe()  # one probe at each end, so that there always are some
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._probe()

    def _probe(self, signum=None, frame=None):
        # with the collector off, the size of the program's heap does not
        # change the probe's time
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = CLOCK()
            probe_work()
            took = CLOCK() - started
        finally:
            if enabled:
                gc.enable()
        self.starts.append(started)
        self.times.append(took)

    def reference_s(self, start: float, end: float) -> float:
        """The interval [start, end] of CPU time, in reference seconds."""
        inside = slice(bisect.bisect_left(self.starts, start),
                       bisect.bisect_right(self.starts, end))
        own = end - start - sum(self.times[inside])
        near = NEAR_S
        while True:
            around = self.times[bisect.bisect_left(self.starts, start - near):
                                bisect.bisect_right(self.starts, end + near)]
            if len(around) >= min(MIN_PROBES, len(self.times)):
                break
            near *= 2
        return own * PROBE_S / statistics.mean(around)
