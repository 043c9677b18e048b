"""Machine-speed probe: pass times rescaled to a fixed reference speed.

The shared VM the benchmark runs on changes speed by tens of percent, within
seconds and for minutes at a time; a fixed pure-Python loop slows down with
it, and CPU time slows down as much as wall time. So an untraced pass runs inside a
`SpeedProbe`: a timer signal interrupts the program every `PERIOD_S` seconds
of wall time, and the handler times one run of a fixed reference kernel. The
kernel touches no package code, so no change to the program moves it.

Each stretch of program time between two kernel runs is rescaled by the mean of
the two kernel times, to a machine on which the kernel takes `REF_S`:

    normalised = sum(gap * REF_S / mean(kernel before, kernel after))

Kernel time itself is left out of every op's time and the pass's wall time.
A set-up sample, which runs in a child interpreter, is rescaled by the
kernel's median time just before and just after the child (`rescale`).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.001  # nominal time of one kernel run
PERIOD_S = 0.05  # wall time between kernel runs

clock = time.perf_counter


_FULL = (1 << 70) - 1
_CANDIDATES = [(0x5555555555555555555 * (i + 3)) & _FULL for i in range(6)]


def _walk(depth: int, used: int):
    # Depth-first search over bit-mask candidates, the shape of the solver's
    # freeness checks: a recursive generator, big-int masks, list indexing.
    if depth == len(_CANDIDATES):
        yield used
        return
    choices = _CANDIDATES[depth] & ~used
    taken = 0
    while choices and taken < 3:
        low = choices & -choices
        choices ^= low
        taken += 1
        yield from _walk(depth + 1, used | low)


def _step(m: int, seen: set, table: dict) -> int:
    low = m & -m
    if m in seen:
        return low.bit_length() + 1
    seen.add(m)
    table[m & 255] = table.get(m & 255, 0) + 1
    return low.bit_length()


def kernel() -> tuple[int, int, Fraction]:
    """Fixed work in the workloads' idiom: a bit-mask depth-first search,
    then calls, sets, dicts and Fractions."""
    leaves = sum(1 for _ in _walk(0, 0))
    seen, table, acc = set(), {}, 0
    for i in range(450):
        acc += _step((i * 40503) & 0xFFFF, seen, table)
    mass = Fraction(0)
    for k in range(1, 8):
        mass += Fraction(1, k * (k + 1))
    return leaves, acc, mass


def timed_kernel() -> tuple[float, float]:
    """Start and end of one kernel run, with the collector paused so that the
    size of the program's heap does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        kernel()
        t1 = clock()
    finally:
        if enabled:
            gc.enable()
    return t0, t1


def kernel_s(repeats: int = 5) -> float:
    """Median time of a few kernel runs: the machine's speed right now."""
    return statistics.median(e - s for s, e in (timed_kernel() for _ in range(repeats)))


def rescale(seconds: float, before: float, after: float) -> float:
    """`seconds` at reference speed, given kernel times just before and after."""
    return seconds * REF_S / ((before + after) / 2)


class SpeedProbe:
    """Kernel runs on entry, every `PERIOD_S` s of wall time (SIGALRM), and on exit."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.samples.append(timed_kernel())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(timed_kernel())

    def busy(self, t0: float, t1: float) -> float:
        """Kernel seconds inside [t0, t1]."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self.samples)

    def kernel_times(self) -> list[float]:
        return [e - s for s, e in self.samples]

    def normalised(self) -> float:
        """Time between the first and the last kernel run, outside the kernel,
        at reference speed."""
        return sum(
            rescale(s1 - e0, e0 - s0, e1 - s1)
            for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:])
        )
