"""How fast the machine runs the interpreter around each op, from a fixed loop.

The benchmark runs on shared virtual machines whose speed drifts: the
same pure-Python code can run 1.6x slower for a few seconds or for
minutes at a time, CPU time as much as wall time, which moves every
time the benchmark takes by as much.  So a run times ``reference()``, a
loop of the benchmark's own that never calls the program, before every
op and once more after the last, and reports each op's time scaled by
``REF_SECONDS / median(reference times just before and just after it)``:
seconds at the speed the loop had on the machine the benchmark was
built on.  A change to the program moves a scaled time as much as the
raw one; a slow phase of the machine slows the op and the loop around
it alike, and cancels.  Set-up is scaled the same way, by the loops
timed during set-up.  Raw times and scale factors are on each run's
record line.

Of the loops tried (random lookups in a 5 MB dict, building sets of
tuples, a breadth-first search over adjacency sets), this tight integer
loop followed the ops' drift most closely, for every workload.
"""

from __future__ import annotations

import statistics
import time
from typing import Optional

REF_LOOPS = 150_000
# median of reference() wall time on a 2-vCPU Intel Xeon virtual machine,
# Python 3.11.7: the speed every scaled time is reported at
REF_SECONDS = 0.0145


def reference() -> tuple[float, float]:
    """Run the fixed loop once; return its wall and CPU seconds."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(REF_LOOPS):
        acc = (acc * 3 + i) & 0xFFFF
    return time.perf_counter() - t0, time.process_time() - c0


class Speed:
    """Reference samples in the order they were taken, and the scales they give."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self, k: int) -> int:
        """Time the loop k times; return the index of the first sample."""
        start = len(self.wall)
        for _ in range(k):
            w, c = reference()
            self.wall.append(w)
            self.cpu.append(c)
        return start

    def wall_scale(self, lo: int = 0, hi: Optional[int] = None) -> float:
        """Factor from wall seconds to seconds at reference speed, from samples lo:hi."""
        return REF_SECONDS / statistics.median(self.wall[lo:hi])

    def cpu_scale(self, lo: int = 0, hi: Optional[int] = None) -> float:
        """The same for CPU seconds."""
        return REF_SECONDS / statistics.median(self.cpu[lo:hi])
