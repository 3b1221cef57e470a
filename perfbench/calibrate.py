"""Scaling of measured times to a reference speed of the core.

On a shared virtual machine the speed of a core changes by up to about 2x
over seconds and minutes, as other guests load the host; the process is not
descheduled (CPU time equals wall time), each instruction just takes longer.
A child therefore runs a :class:`Calibration`, a fixed stdlib computation,
right after the import and right after every timed pass, and every reported
time is

    measured_s * (REFERENCE_S / mean(calibration before, calibration after)) ** EXPONENT

REFERENCE_S is about the calibration's time on an unloaded core of the
machine the bounds were set on (Xeon at 2.0 GHz under KVM, Python 3.11), so
the figures read as seconds on such a core.  treehopf slows down somewhat
less than the calibration does under the same load; over 20 runs of the four
workloads the spread of the run medians was smallest for exponents of 0.8 to
0.9, hence 0.85.  The raw times are kept in the result file.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.07
EXPONENT = 0.85


class Calibration:
    """A fixed computation over some megabytes of small objects.

    It reads them in a scattered order, because treehopf's dicts of interned
    trees are slowed by a loaded host more than a loop over a few cached
    objects is.  The objects are built once and kept, so that the timed
    reads allocate almost nothing and leave the peak resident set alone.
    """

    SIZE = 10000
    READS = 30000

    def __init__(self):
        self.table = {str(i): Fraction(i, 7) for i in range(self.SIZE)}
        self.names = list(self.table)

    def __call__(self) -> float:
        """Seconds taken by the computation now."""
        start = time.perf_counter()
        rng = random.Random(1)
        table, names, size = self.table, self.names, self.SIZE
        total = Fraction(0)
        for _ in range(self.READS):
            total += table[names[rng.randrange(size)]]
        elapsed = time.perf_counter() - start
        if not total:
            raise ArithmeticError("calibration sum vanished")
        return elapsed


def scaled(measured_s: float, calibrations: list[float]) -> float:
    mean = sum(calibrations) / len(calibrations)
    return measured_s * (REFERENCE_S / mean) ** EXPONENT
