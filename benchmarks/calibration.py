"""Machine-speed calibration for timings on a shared, noisy machine.

On the two-vCPU virtual machine the benchmark was defined on, the speed of a
pure-Python loop drifted by up to a factor of two between stretches of tens
to hundreds of milliseconds, with the whole run's CPU time inflating with
it (``c1-power --d 6`` alone took 0.84 to 1.53 s of CPU over 42 runs).  Raw
times were too unsteady to compare commits.  So every timed request is
bracketed by a short fixed calibration loop, sampled again every
``SAMPLE_INTERVAL_S`` while a request runs in a child process pinned to the
same CPU, and its time is rescaled by ``NOMINAL_S / (mean calibration time
around and inside it)``: times are reported in seconds at the speed the
machine had when unloaded.  Speeds of the two vCPUs were uncorrelated, which
is why the benchmark pins itself and its children to one CPU.  The
calibration code is fixed and shares nothing with tautcalc, so a change to
tautcalc moves the rescaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import thread_time

STEPS = 500
SAMPLE_INTERVAL_S = 0.1
# calibrate() on an unloaded vCPU of the machine the benchmark was defined on
# (the fastest of several hundred runs; Python 3.11).
NOMINAL_S = 0.00188


def calibrate() -> float:
    """CPU seconds for a fixed piece of work shaped like tautcalc's inner
    loops: a sparse dict of Fractions keyed by exponent tuples.  CPU time,
    not wall time, so that a child sharing the CPU does not count."""
    t0 = thread_time()
    terms: dict[tuple[int, int, int], Fraction] = {}
    q = Fraction(3, 7)
    for i in range(STEPS):
        key = (i % 5, i % 3, i % 4)
        terms[key] = terms.get(key, Fraction(0)) + q * Fraction(i % 9 + 1,
                                                                 i % 11 + 1)
    return thread_time() - t0


class Speed:
    """Rescaling factors for consecutive timed intervals.

    Each interval is bracketed by calibrations; ``sample`` adds one inside
    an interval (while a child process runs on the same CPU), so a long
    request is rescaled by the speed the machine had throughout it.
    """

    def __init__(self):
        self._samples = [calibrate()]
        self.factors: list[float] = []

    def sample(self) -> float:
        """Calibrate once inside the current interval; returns the CPU
        time it took, which the caller subtracts from the interval."""
        t = calibrate()
        self._samples.append(t)
        return t

    def factor(self) -> float:
        """Factor for the interval since the previous call (or creation):
        nominal over the mean calibration time around and inside it."""
        end = calibrate()
        self._samples.append(end)
        factor = NOMINAL_S * len(self._samples) / sum(self._samples)
        self._samples = [end]
        self.factors.append(factor)
        return factor
