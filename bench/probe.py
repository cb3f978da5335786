"""Interpreter-speed probe that calibrates the benchmark's times.

On the machine the benchmark was written on (2 vCPUs of a shared virtual
machine), interpreter speed drifts by tens of percent within seconds, so
raw times vary that much from run to run.  The probe times a fixed piece
of Fraction arithmetic that shares no code with twistvol; a time t
measured while the probe takes c seconds is reported as t * REF_S / c,
the time it would take on a machine on which the probe takes REF_S.
"""

import signal
import statistics
import time
from fractions import Fraction

EVERY_S = 0.05
REF_S = 0.0005


def step():
    """Run the probe once; its duration in seconds."""
    t0 = time.perf_counter()
    total, third = Fraction(0), Fraction(1, 3)
    for i in range(1, 150):
        total += third * Fraction(i, i + 7)
    return time.perf_counter() - t0


def speed(samples):
    """Mean of REF_S / probe time: the factor that calibrates a time."""
    return statistics.fmean(REF_S / c for c in samples)


class SpeedProbe:
    """Probes the speed every EVERY_S of wall time while a block runs.

    A SIGALRM handler runs the probe, so the process stays
    single-threaded.  `work_s` is the block's wall time less the probes'
    time; `calibrated_s` is work_s times the mean speed factor.
    """

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.work_s = wall - sum(self.samples)
        self.calibrated_s = self.work_s * speed(self.samples or [step()])

    def _sample(self, _signum, _frame):
        self.samples.append(step())
