"""Host speed, measured by a fixed exact kernel that orbitchar does not run.

On a shared virtual machine the CPU speed can drift by tens of percent over
seconds to minutes, and a job's CPU time drifts with it.  While a WorkClock
is entered, a timer signal interrupts the work every INTERVAL_S seconds to
time the kernel.  The pauses are left out of the clock, and `scaled(a, b)` converts an interval of
work to reference-host seconds: each stretch between two kernel samples
counts (seconds) * REFERENCE_S / (mean kernel time of the two samples).
A change to orbitchar cannot move the kernel, so the factor only removes the
host's drift.
"""

from __future__ import annotations

import signal
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter, process_time

REFERENCE_S = 0.013
INTERVAL_S = 0.1
SIZE = 12


def _kernel_matrix(n: int) -> list[list[Fraction]]:
    """A fixed nonsingular integer matrix with small entries, so that the
    elimination works on small rationals, as orbitchar's LPs do."""
    return [[Fraction((i * 7 + j * 3) % 7 - 3 + 9 * (i == j)) for j in range(n)] for i in range(n)]


def calibrate() -> float:
    """Seconds for Gauss-Jordan inversion of the fixed SIZE x SIZE kernel
    matrix over Fraction; the inverse is checked outside the timing."""
    n = SIZE
    a = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(_kernel_matrix(n))]
    t0 = perf_counter()
    for col in range(n):
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    elapsed = perf_counter() - t0
    first = _kernel_matrix(n)[0]
    if sum(first[j] * a[j][n] for j in range(n)) != 1:
        raise RuntimeError("calibration kernel computed a wrong inverse")
    return elapsed


class WorkClock:
    """Wall and CPU clocks of the work alone, with kernel samples taken on a
    timer while entered.  Not re-entrant; use from the main thread."""

    def __init__(self):
        self._paused = 0.0
        self._paused_cpu = 0.0
        self.marks: list[float] = []
        self.kernel: list[float] = []
        self._previous = None

    def now(self) -> float:
        return perf_counter() - self._paused

    def cpu(self) -> float:
        return process_time() - self._paused_cpu

    def sample(self, *_signal) -> None:
        t0, c0 = perf_counter(), process_time()
        self.marks.append(t0 - self._paused)
        self.kernel.append(calibrate())
        self._paused += perf_counter() - t0
        self._paused_cpu += process_time() - c0

    def __enter__(self) -> "WorkClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, a: float, b: float) -> float:
        """Reference-host seconds of the work between clock readings a <= b."""
        marks, kernel = self.marks, self.kernel
        last = len(marks) - 1
        i = max(0, bisect_right(marks, a) - 1)
        total, x = 0.0, a
        while x < b:
            y = min(b, marks[i + 1]) if i < last else b
            total += (y - x) * 2 * REFERENCE_S / (kernel[i] + kernel[min(i + 1, last)])
            x, i = y, i + 1
        return total


def scale(samples) -> float:
    """Factor from seconds measured beside these kernel times to reference
    seconds, for work too short to sample during (set-up)."""
    return REFERENCE_S * len(samples) / sum(samples)
