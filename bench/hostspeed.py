"""Host-speed calibration: the benchmark's times with the host's speed taken out.

On a shared host the CPU speed one process gets moves by tens of percent,
within a second as well as between runs minutes apart, and a run's medians
carry that speed with them.  So while a HostClock runs, an interval timer
interrupts the worker every INTERVAL_S and times a burst of calibration
units, each a fixed pure-Python loop that uses nothing of the library.  A
timed call is reported as

    (wall seconds - calibration inside it) * NOMINAL_S / median unit time

where the median is over the units timed during the call and the NEIGHBOURS
units on each side of it: the seconds the call would take on a host where
one unit takes NOMINAL_S.  A change to the library moves the calls and not
the units; a change in the host's speed moves both.  Because the units are
spread evenly in time, a call of seconds is scaled by the host's speed
during that call, not just before or after it.

Contention on the host slows cache-bound and arithmetic-bound code by
different amounts, so a unit does both: log/exp/Zech table arithmetic in a
prime field of 2^16 + 1 elements, the shape of the library's packed field
arithmetic, and a short loop of integer arithmetic on a small table.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

INTERVAL_S = 5e-3    # wall time between bursts of calibration units
BURST = 5            # units per burst; the first one warms the caches and is not kept
NEIGHBOURS = 20      # units on each side of a call that also set its speed
WARMUP_UNITS = 50
# About a unit's median time on the 2-vCPU build host; it only fixes the scale.
NOMINAL_S = 1e-4

_P = 65537           # prime; 3 generates its multiplicative group
_POINTS = range(1, _P, _P // 12)
_TERMS = tuple((3 + 7 * j, 1 + 7919 * j) for j in range(8))


class _PrimeField:
    """F_P by log, exp and Zech tables, as the library does F_{q^2}."""

    def __init__(self):
        n = self.n = _P - 1
        exp = [0] * n
        x = 1
        for i in range(n):
            exp[i] = x
            x = x * 3 % _P
        log = [-1] * _P
        for i, v in enumerate(exp):
            log[v] = i
        self.exp, self.log = exp, log
        self.zech = [n if v == _P - 1 else log[v + 1] for v in exp]

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        n = self.n
        i = self.log[a]
        z = self.zech[(self.log[b] - i) % n]
        return 0 if z == n else self.exp[(i + z) % n]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.n]

    def pow(self, a: int, e: int) -> int:
        return self.exp[(self.log[a] * e) % self.n]


class HostClock:
    """Calibration units on an interval timer, and the calls they scale.

    Time a call as t0 = time.perf_counter(); call(); t1 = time.perf_counter()
    inside a `with HostClock() as clock:` block, and keep (t0, t1).  After
    the block, seconds() and scale() turn such pairs into seconds.
    """

    def __init__(self):
        self._field = _PrimeField()
        self._small = [(i * 7919) % 65521 for i in range(4096)]
        for _ in range(WARMUP_UNITS):
            self._unit()
        self.starts: list[float] = []   # when each unit began
        self.units: list[float] = []    # how long each took
        self._busy = False
        self._previous = None

    def _unit(self) -> int:
        add, mul, pow_, small = self._field.add, self._field.mul, self._field.pow, self._small
        acc = 0
        for x in _POINTS:
            for c, e in _TERMS:
                acc = add(acc, mul(c, pow_(x, e)))
        s = 1
        for i in range(150):
            s = (s * 31 + small[(s ^ i) & 4095]) % 65521
        return acc ^ s

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a slow unit is dropped
            return
        self._busy = True
        self._unit()
        for _ in range(BURST - 1):
            t0 = time.perf_counter()
            self._unit()
            self.starts.append(t0)
            self.units.append(time.perf_counter() - t0)
        self._busy = False

    def _collect(self, n: int) -> None:
        """Wait until the timer has run n more units, or one second."""
        target, give_up = len(self.units) + n, time.perf_counter() + 1.0
        while len(self.units) < target and time.perf_counter() < give_up:
            time.sleep(INTERVAL_S)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._collect(NEIGHBOURS)  # so that every call has units on both sides
        return self

    def __exit__(self, *exc) -> None:
        self._collect(NEIGHBOURS)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._paused = [0.0, *itertools.accumulate(self.units)]

    def _inside(self, t0: float, t1: float) -> tuple[int, int]:
        """The indices of the first unit that began at t0 or later and of
        the first that began after t1."""
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def seconds(self, calls) -> list[float]:
        """Each (t0, t1) call's wall seconds, without the calibration inside it."""
        out = []
        for t0, t1 in calls:
            first, end = self._inside(t0, t1)
            out.append(t1 - t0 - (self._paused[end] - self._paused[first]))
        return out

    def scale(self, calls) -> list[float]:
        """Each (t0, t1) call's seconds at the nominal host speed."""
        out = []
        for (t0, t1), wall_s in zip(calls, self.seconds(calls)):
            first, end = self._inside(t0, t1)
            near = self.units[max(0, first - NEIGHBOURS):end + NEIGHBOURS]
            out.append(wall_s * NOMINAL_S / statistics.median(near))
        return out

    def speed(self) -> float:
        """The host's median speed while the clock ran, as a share of the nominal."""
        return NOMINAL_S / statistics.median(self.units)
