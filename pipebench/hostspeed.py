"""Host speed reference: timed metrics are expressed at a fixed host speed.

On a shared virtual machine the same code runs up to about twice as
slowly for seconds to minutes at a time (neighbour load on the physical
cores), and CPU time slows with it, so no statistic taken from the
program's own timings alone can tell a slower program from a slower
host.  The benchmark therefore times a fixed pure-Python loop of its
own, owned by this file and never by the program, beside the measured
work, and divides each compute-bound time by the loop's slowdown over
the same stretch of time:

    slowdown = median reference seconds / REFERENCE_SECONDS

A normalized time is ``raw / slowdown`` and a normalized rate is
``raw * slowdown``: the figure the run would have given on a host where
the loop takes :data:`REFERENCE_SECONDS`.  The loop is timed with the
calling thread's CPU clock, so waiting for the GIL or for the scheduler
does not count; what counts is how fast the core executes interpreter
work, which is what slows the program too.

Where the loop runs: between ``feed_many`` calls and after plan builds
for the in-process engine; on a thread of the server process
(:class:`Sampler`) for socket workloads, so it sees the same cores in
the same busy or idle state as the work it normalizes.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Sequence, Tuple

#: Thread CPU seconds the reference loop takes on the reference host
#: (a 2.1 GHz Sapphire Rapids vCPU running CPython 3.11, in a fast
#: spell).
REFERENCE_SECONDS = 80e-6
#: Iterations of the reference loop.
REFERENCE_ITERATIONS = 400
#: Period of :class:`Sampler`.
SAMPLE_PERIOD = 0.05


def reference_work(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Interpreter work shaped like the program's: dict lookups and
    stores, int arithmetic, comparisons and list appends of floats."""
    table = {}
    out = []
    best = 0
    for index in range(iterations):
        key = index & 63
        value = table.get(key, 0) + (index * 7919) % 1013
        table[key] = value
        best = value if value > best else best
        out.append(float(value) * 0.5)
    return best + len(out)


def sample() -> float:
    """Thread CPU seconds of one pass of the reference loop, timed after
    an untimed pass has warmed the caches it uses."""
    reference_work()
    clock = time.thread_time
    started = clock()
    reference_work()
    return clock() - started


def slowdown(samples: Sequence[float]) -> float:
    """Median reference time over :data:`REFERENCE_SECONDS`."""
    return statistics.median(samples) / REFERENCE_SECONDS


class Sampler:
    """Times the reference every :data:`SAMPLE_PERIOD` on its own thread.

    Each pass holds the GIL for about a tenth of a millisecond, a
    fraction of a percent of the period.
    """

    def __init__(self) -> None:
        #: ``(perf_counter() at the start, seconds)`` per pass.  The
        #: clock is monotonic and system-wide, so another process can
        #: place the samples on its own timeline.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="pipebench-hostspeed", daemon=True
        )

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD):
            self.samples.append((time.perf_counter(), sample()))
