"""Machine-speed calibration, so that timings taken at different times on a
shared machine compare.

The speed of a shared virtual machine drifts with its neighbours' load: a
fixed pure-Python loop took from 0.113 s to 0.27 s on the same 2-vCPU guest,
and its median moved by 40% within two hours. That drift is common to all
interpreted code, so the benchmark times this fixed workload next to the
program's and reports the program's time scaled to a reference speed:

    calibrated = measured * REFERENCE_S / (calibration seconds now)

The workload uses only the standard library and the kinds of work planmod
does: a search through a small dictionary-of-sets graph, backtracking over
frozensets, hashing tuples, frozensets and strings, and compiling and running
module code, as an import does. It never calls planmod, so a change to
planmod cannot move it. Its data is small, so that it measures the machine
rather than how much of the cache planmod left it: a version that searched a
one-megabyte graph slowed by a third in one run where planmod did not.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds one `work()` takes at the reference speed: a round figure near its
# median on a 2-vCPU guest with Python 3.11. It is only a scale; any
# constant would compare runs as well.
REFERENCE_S = 0.01

_N = 500
_ADJ = {i: {(i * 7 + 1) % _N, (i * 13 + 5) % _N, (i + 1) % _N, (i * 31 + 2) % _N}
        for i in range(_N)}
_SOURCE = "\n".join(
    f"class C{i}:\n"
    f"    def f(self, x):\n"
    f"        return [x + j for j in range({i % 5})]\n"
    f"    g = staticmethod(lambda y: y * {i})\n"
    f"def h{i}(a, b={i}):\n"
    f"    return a if a > b else b\n"
    for i in range(30))


def _searches() -> int:
    reached = 0
    for start in range(0, _N, 50):
        seen = {start}
        queue = [start]
        for u in queue:
            for v in _ADJ[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        reached += len(seen)
    return reached


def _queens(n: int = 7) -> int:
    def place(row, cols, up, down) -> int:
        if row == n:
            return 1
        return sum(place(row + 1, cols | {c}, up | {row - c}, down | {row + c})
                   for c in range(n)
                   if c not in cols and row - c not in up and row + c not in down)
    return place(0, frozenset(), frozenset(), frozenset())


def _hashing() -> int:
    memo: dict = {}
    for i in range(2000):
        key = (frozenset((i % 97, i % 89, i % 83)), i % 7)
        memo[key] = memo.get(key, 0) + 1
    names: dict = {}
    for i in range(1500):
        names.setdefault(f"p{i % 300}", set()).add(f"q{i % 37}")
    return len(memo) + len(names)


def _compiling() -> int:
    namespace: dict = {}
    exec(compile(_SOURCE, "<calibration>", "exec"), namespace)
    return len(namespace)


def work() -> None:
    _searches()
    _queens()
    _hashing()
    _compiling()


def measure() -> float:
    """Seconds for one `work()` now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class Clock:
    """Samples the machine's speed every `every` seconds while it is entered,
    also in the middle of a timing, from a SIGALRM handler.

    `now()` is a clock that stops while a sample is taken. Each timing passed
    to `record` is scaled by the mean of the samples taken during it and the
    one on either side, so the scale follows the machine's speed through a
    run however long one timing is.
    """

    def __init__(self, every: float = 0.25):
        self.every = every
        self.samples: list = []
        self._paused = 0.0
        self._timings: list = []

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.samples.append(measure())
        self._paused += time.perf_counter() - t0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def __enter__(self) -> "Clock":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()

    def start(self) -> int:
        """Mark the start of a timing; pass the result to `record`."""
        return len(self.samples) - 1

    def record(self, key, seconds: float, start: int) -> None:
        self._timings.append((key, seconds, start, len(self.samples)))

    def scaled(self) -> dict:
        """key -> its recorded timings in seconds at the reference speed.
        Call after leaving the clock."""
        out: dict = {}
        for key, seconds, first, last in self._timings:
            around = self.samples[first:last + 1]
            out.setdefault(key, []).append(seconds * REFERENCE_S * len(around) / sum(around))
        return out

    def measured(self) -> dict:
        """key -> its recorded timings in seconds as measured."""
        out: dict = {}
        for key, seconds, _, _ in self._timings:
            out.setdefault(key, []).append(seconds)
        return out

    def speed(self) -> float:
        """Median sample over the reference: above 1 is slower."""
        return statistics.median(self.samples) / REFERENCE_S
