"""Host-speed calibration: a fixed kernel sampled while rackoh runs.

The benchmark's host is a few cores of a shared machine whose speed drifts:
one rackoh operation, repeated in one process with nothing else running,
takes anywhere from 1.0 s to 1.9 s within a few minutes, and process CPU
time drifts with it.  A copy of the kernel running on the other core does
not follow the drift, but the same kernel run in the same process just
before or after an operation does.  So the benchmark samples the kernel
from inside the measuring process: `Sampler` runs one slice from a SIGALRM
handler every SAMPLE_PERIOD_S, also in the middle of an operation, keeps
the handler's time out of the operation's clock, and the benchmark divides
each time by the host factor of the slices run during it.

The kernel does the kinds of work rackoh's hot paths do: row operations on
Python integer lists (the Smith, Bareiss and matvec paths), lookups
scattered over a list larger than the core's caches, modular row
elimination on an int64 numpy array (the rank path) and big-integer
products and gcds (Smith with growing entries).  It never calls rackoh, so
a change to rackoh does not change it.  Its inputs are fixed; every slice
does the same work and checks its checksum.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import time

import numpy as np

# Host-speed unit: a slice that takes SLICE_REF_S seconds is a host factor
# of 1.  The value is near the fastest slice times on a 2-core 2.0 GHz Xeon
# (its fastest tenth; the median there is 0.033 s), so normalised times read
# as seconds on that host running at full speed.
SLICE_REF_S = 0.025
SAMPLE_PERIOD_S = 0.25

_P = 1_000_003
_rng = np.random.default_rng(20020129)
_ARRAY = _rng.integers(0, _P, size=(48, 48), dtype=np.int64)
_ROWS = _rng.integers(-99, 100, size=(40, 40)).tolist()
_WIDE = _rng.integers(-50, 50, size=(260, 260)).tolist()
_BIG = [random.Random(i).getrandbits(900) | 1 for i in range(24)]
_VALUES = _rng.integers(0, 2**40, size=100_000).tolist()
_ORDER = _rng.permutation(len(_VALUES)).tolist()


def _numpy_part() -> int:
    a = _ARRAY.copy()
    m, n = a.shape
    r = 0
    for c in range(n):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv], :] = a[[piv, r], :]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, _P) % _P
        idx = np.nonzero(a[r + 1:, c])[0] + r + 1
        if idx.size:
            a[idx, c:] = (a[idx, c:] - a[idx, c, None] * a[r, c:]) % _P
        r += 1
        if r == m:
            break
    return r + int(a[m - 1, n - 1])


def _list_part() -> int:
    d = [row[:] for row in _ROWS]
    n = len(d)
    for k in range(n - 1):
        pk = d[k][k] or 1
        for i in range(k + 1, n):
            q = d[i][k] // pk
            if q:
                d[i] = [a - q * b for a, b in zip(d[i], d[k])]
    return sum(sum(row) for row in d)


def _wide_part() -> int:
    d = [row[:] for row in _WIDE]
    for k in range(3):
        pk = d[k][k] or 1
        for i in range(k + 1, len(d)):
            q = d[i][k] // pk
            if q:
                d[i] = [a - q * b for a, b in zip(d[i], d[k])]
    return d[-1][-1]


def _scatter_part() -> int:
    total = 0
    for i in _ORDER[:20_000]:
        total += _VALUES[i]
    return total


def _bigint_part() -> int:
    acc = 0
    for i, a in enumerate(_BIG):
        b = _BIG[i - 1]
        acc ^= math.gcd(a * b + i, a + b) + (a * b) % (b >> 7 | 1)
    return acc


# (part, repeats per slice)
_PARTS = ((_wide_part, 1), (_scatter_part, 1), (_numpy_part, 2), (_list_part, 1),
          (_bigint_part, 6))


def _once() -> int:
    out = 0
    for part, repeats in _PARTS:
        for _ in range(repeats):
            out = (out * 31 + part()) % _P
    return out


EXPECTED = _once()


def run_slice() -> float:
    """Run one slice of the kernel and return its seconds."""
    t0 = time.perf_counter()
    out = _once()
    seconds = time.perf_counter() - t0
    if out != EXPECTED:
        raise RuntimeError("calibration kernel gave a different checksum")
    return seconds


def host_factor(slices) -> float:
    """How many times slower than the reference the host ran these slices."""
    return sum(slices) / (len(slices) * SLICE_REF_S)


class Sampler:
    """Runs a slice every SAMPLE_PERIOD_S of wall time while it is active.

    `slices` holds the seconds of every slice in order.  `clock()` is
    `time.perf_counter()` minus the time spent in slices, so an operation
    timed with it does not count the slices run in its middle.  The timer
    is one-shot and re-armed when a slice ends, so slices never nest.  The
    garbage collector is paused inside a slice, so a slice never collects
    rackoh's garbage; its own objects are freed by reference counting.
    """

    def __init__(self):
        self.slices = []
        self.handler_s = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.handler_s

    def sample(self) -> None:
        """Run one slice now."""
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.slices.append(run_slice())
        finally:
            if enabled:
                gc.enable()
            self.handler_s += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
