"""Machine-speed probe for the benchmark's timings.

On shared machines the CPU speed a process gets drifts by 10-25 % over tens
of seconds to minutes, with no steal time to show for it, and longer runs do
not average it away.  The probe is a fixed pure-Python scan, in the style of
splitlab's scans when the benchmark was defined, that never imports
splitlab: it counts the 2-dimensional subspaces W of F_2^6 for which W, WA
and WA^2 are independent, for a fixed 6x6 matrix A over F_2.  Its time
drifts with the machine the way the workloads' times do, so the benchmark
runs it every half second (SpeedLog) and reports each item's time scaled by
REFERENCE_S / the probe's time around that item, i.e. in seconds of a
machine on which one probe takes REFERENCE_S.  A change to splitlab moves
the item's time and not the probe's, so it shows in full.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

# A typical probe time on the machine the baseline was recorded on (2-vCPU
# x86-64 VM, CPython 3.11.7; it measured 0.019-0.031 s there).  It fixes
# the unit; only ratios of probe times affect comparisons.
REFERENCE_S = 0.025

_DIM = 6
_A = tuple(tuple((3 * i + 5 * j + i * j) % 2 for j in range(_DIM)) for i in range(_DIM))


class _F2:
    __slots__ = ("p", "e", "zero", "one")

    def __init__(self):
        self.p, self.e, self.zero, self.one = 2, 1, 0, 1

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        raise NotImplementedError

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        raise NotImplementedError


class _Basis:
    __slots__ = ("rows", "pivots")

    def __init__(self, rows, pivots):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)


_CTX = _F2()


def _vec_mat(vec, mat):
    zero = _CTX.zero
    add, mul = _CTX.add, _CTX.mul
    out = [zero] * _DIM
    for i, v in enumerate(vec):
        if v == zero:
            continue
        out = [add(x, mul(v, b)) for x, b in zip(out, mat[i])]
    return tuple(out)


def _independent(rows) -> bool:
    basis: dict[int, int] = {}
    for r in rows:
        v = 0
        for j, x in enumerate(r):
            if x:
                v |= 1 << j
        while v:
            h = v.bit_length() - 1
            b = basis.get(h)
            if b is None:
                basis[h] = v
                break
            v ^= b
        if not v:
            return False
    return True


def scan() -> int:
    """Number of 2-dimensional W with W + WA + WA^2 = F_2^6 (direct)."""
    count = 0
    for pivots in itertools.combinations(range(_DIM), 2):
        free = [(i, j) for i in range(2) for j in range(_DIM) if j > pivots[i] and j not in pivots]
        for filling in itertools.product((0, 1), repeat=len(free)):
            rows = [[0] * _DIM for _ in range(2)]
            for i in range(2):
                rows[i][pivots[i]] = 1
            for (i, j), val in zip(free, filling):
                rows[i][j] = val
            W = _Basis(tuple(tuple(r) for r in rows), pivots)
            once = [_vec_mat(w, _A) for w in W.rows]
            twice = [_vec_mat(w, _A) for w in once]
            if _independent(list(W.rows) + once + twice):
                count += 1
    return count


EXPECTED = scan()


def sample() -> float:
    """Seconds one probe scan takes now."""
    t0 = time.perf_counter()
    if scan() != EXPECTED:
        raise RuntimeError("speed probe returned a different count")
    return time.perf_counter() - t0


class SpeedLog:
    """Probe samples taken every INTERVAL_S while a run measures, also in
    the middle of an item: an interval timer's SIGALRM handler runs the
    probe in the main thread between bytecodes.  spent_wall / spent_cpu
    accumulate the probes' own time, which callers subtract from an item's
    time.  Use as a context manager around the timed loop."""

    INTERVAL_S = 0.5
    WINDOW_S = 2.0

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def __enter__(self) -> SpeedLog:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _tick(self, *_signal) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.probes.append(sample())
        self.times.append(t0)
        self.spent_wall += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S / median probe time in [t0 - WINDOW_S, t1 + WINDOW_S]."""
        near = [p for t, p in zip(self.times, self.probes)
                if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        return REFERENCE_S / statistics.median(near)
