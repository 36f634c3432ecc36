"""Machine-speed calibration for the end-to-end timings.

The CPU speed seen by a process on a shared virtual machine drifts by up
to ±25% over tens of seconds, following other tenants' load.  On a 2-core
shared machine one oracle instance, repeated for 100 s, took 29.5–46.4 ms per 10-s
window, while its time divided by this module's kernel time stayed within
3.44–3.60.  So the benchmark times this fixed pure-Python kernel every
0.2 s, during items too, and reports every end-to-end time at reference
speed: a raw time multiplied by REFERENCE_MS over the median kernel time
measured during it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# The kernel's time at reference speed: roughly its median time on the
# shared 2-core Xeon machine where the benchmark was defined.
REFERENCE_MS = 5.0
_COUNT_STEPS = 6_000
_SMALL = [(i % 70, i // 70) for i in range(4_900)]
_LARGE = [(i % 300, i // 300) for i in range(26_000)]


def _kernel() -> int:
    """Tuple-keyed dict updates, neighbour lookups in a small set and
    lookups in a larger one: the operations that dominate the program.
    Against a repeated item, the dict part tracked estimate-s best, the
    small set the oracle and the large set reports, each to within 2-7%."""
    counts: dict = {}
    for i in range(_COUNT_STEPS):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    cells = set(_SMALL)
    hits = 0
    for x, y in _SMALL[:1_200]:
        for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if n not in cells:
                hits += 1
                break
    cells = set(_LARGE[:20_000])
    for x, y in _LARGE[20_000:]:
        if (x, y - 67) in cells:
            hits += 1
    return len(counts) + hits


def kernel_ms() -> float:
    """Wall time of one kernel run, in ms.

    The garbage collector is paused, so the time does not depend on how
    many objects the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return 1000.0 * (time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Kernel timings taken every INTERVAL_S of wall time, during items too.

    While the gauge is active a SIGALRM handler runs the kernel between two
    bytecodes of whatever is running, so long items are sampled throughout.
    ``clock`` is wall time less the time spent in the handler, so item
    times exclude the sampling.
    """

    INTERVAL_S = 0.2

    def __init__(self):
        self.samples: list = []  # (perf_counter at start, kernel ms)
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        ms = kernel_ms()
        self.samples.append((t0, ms))
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """Seconds of wall time, less the time spent sampling."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "Gauge":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Scale from raw time to reference speed over a perf_counter interval.

        Uses the samples taken in the interval, or all samples when the
        interval holds none.
        """
        ms = [m for t, m in self.samples if start <= t < end] or [m for _, m in self.samples]
        return REFERENCE_MS / statistics.median(ms)
