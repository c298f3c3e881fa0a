"""A clock that measures time at a fixed reference speed.

On a host shared with other tenants, the speed at which a process runs
changes from one moment to the next: on a 2-vCPU KVM guest a fixed
pure-Python loop slows by up to 2x for stretches of a few hundred
milliseconds to a minute, and process CPU time grows with it. Wall time
then drifts by 20-25% between runs of the same inputs minutes apart, which
no median over a run removes.

``RefClock`` measures the machine's speed while the program runs. A timer
signal runs a fixed probe (``probe_work``) every ``PERIOD_S`` seconds of
wall time, in the measured process itself, between two bytecodes of
whatever it is doing. The speed at a moment is ``REF_PROBE_S`` divided by
the median duration of the probes nearest to it. The reference time of an
interval is its wall time with the probes taken out, each stretch between
two probes multiplied by the speed in it: the time the interval would have
taken on a machine that runs the probe in ``REF_PROBE_S``. A change that
makes the program do less work lowers its reference time as much as its
wall time; a co-tenant that slows every instruction leaves it unchanged.

    clock = RefClock()
    clock.start()
    a = time.perf_counter(); work(); b = time.perf_counter()
    clock.stop()
    clock.ref_s(a, b)   # reference seconds of work()
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01
PROBE_LOOPS = 1000
# The probe's duration inside a workload in the quietest rounds seen on a
# 2-vCPU Xeon (Sapphire Rapids) KVM guest with CPython 3.11.7, so that there
# reference seconds and wall seconds agree.
REF_PROBE_S = 190e-6
# Probes on each side of a stretch whose median gives its speed.
SMOOTH = 2

_TABLE = tuple(range(7, 7 + 13 * 256, 13))


def probe_work(loops: int = PROBE_LOOPS) -> int:
    """Fixed interpreter work: integer and bit arithmetic, indexing, branches.

    It creates no container, so it never triggers the cyclic garbage
    collector and its duration does not depend on the program's heap.
    """
    table = _TABLE
    acc = 1
    for i in range(loops):
        acc = (acc * 1103515245 + table[i & 255]) & 0x7FFFFFFF
        if acc & 1:
            acc ^= i << 3
    return acc


class RefClock:
    """Probes the machine's speed while running; converts wall intervals."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._ends: list[float] = []
        self._cum: list[float] = []
        self._speed: list[float] = []

    def _probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        self._build()

    def _build(self) -> None:
        n = len(self.starts)
        speed = [
            REF_PROBE_S / statistics.median(self.durations[max(0, k - SMOOTH) : k + SMOOTH + 1])
            for k in range(n)
        ]
        self._ends = [s + d for s, d in zip(self.starts, self.durations)]
        # The stretch after probe k runs at the mean speed of probes k and k+1.
        self._speed = [(a + b) / 2 for a, b in zip(speed, speed[1:])] + [speed[-1]]
        self._cum = [0.0]
        for k in range(n - 1):
            gap = self.starts[k + 1] - self._ends[k]
            self._cum.append(self._cum[-1] + gap * self._speed[k])

    def _at(self, t: float) -> float:
        """Reference seconds from the end of the first probe to wall time t."""
        k = bisect.bisect_right(self._ends, t) - 1
        if k < 0:
            return min(0.0, (t - self.starts[0]) * self._speed[0])
        if k + 1 < len(self.starts) and t >= self.starts[k + 1]:
            return self._cum[k + 1]  # inside a probe
        return self._cum[k] + (t - self._ends[k]) * self._speed[k]

    def ref_s(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval [a, b] (perf_counter times)."""
        return self._at(b) - self._at(a)

    def probe_s(self, a: float, b: float) -> float:
        """Wall seconds spent in probes that started within [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        return sum(self.durations[lo:hi])

    def median_speed(self) -> float:
        return statistics.median(self._speed)
