"""Rescaling measured time to a reference speed.

The machines this benchmark runs on are shared, and the speed of one vCPU
moves by up to half between stretches of a few seconds; process CPU time
moves with wall time, so it is not descheduling that a CPU clock could
remove.  A pass of 10 to 15 seconds spans several such stretches, and two
runs a minute apart differed by 40 %.

A fixed pure-Python loop, timed right next to the program's work, moves with
that speed: over stretches of about 0.1 s of program work, the program's
time divided by the loop's time varied about a third as much as the
program's time alone.  So every measured stretch is multiplied by
``REFERENCE_S / loop time``, with the loop timed at both ends of the
stretch, and the sum is reported in seconds of a machine on which the loop
takes ``REFERENCE_S``.  The loop uses nothing from the package, so a change
to the program changes only the program's side of the ratio.
"""

from __future__ import annotations

import time

_pc = time.perf_counter

# median time of reference_loop() on the machine of the README figures
REFERENCE_S = 0.0105
# program work between two timings of the loop
STRETCH_S = 0.15


def reference_loop() -> float:
    """Time one run of a fixed dict-update loop."""
    t0 = _pc()
    d: dict[int, int] = {}
    for i in range(60000):
        d[i % 1000] = d.get(i % 1000, 0) + i
    return _pc() - t0


class SpeedProbe:
    """Accumulates program time, raw and rescaled, between calls to mark()."""

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self._loop = reference_loop()
        self._start = _pc()

    def mark(self, force: bool = False) -> None:
        """Close the current stretch if it is long enough (or forced)."""
        stretch = _pc() - self._start
        if stretch < STRETCH_S and not force:
            return
        loop = reference_loop()
        self.raw += stretch
        self.scaled += stretch * REFERENCE_S / ((self._loop + loop) / 2)
        self._loop = loop
        self._start = _pc()

