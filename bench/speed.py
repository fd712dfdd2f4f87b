"""Machine-speed sampling, so that wall times survive a host that changes speed.

The benchmark's host lends each core to other tenants: a core runs at
its full speed for a fraction of a second, then at roughly two thirds of
it, and the share of slow time drifts over minutes.  The same iteration
on the same inputs takes up to 1.5 times as long in a slow stretch, so a
plain wall-clock median moves with the neighbours, not with the program.

A `Sampler` runs small fixed kernels from a timer signal, every
`PERIOD_S`, in the process being measured.  Each tick records when it
ran and how long each kernel took.  `REFERENCE_S` fixes each kernel's
time on a core at full speed: what the kernels take on this benchmark's
2-core Xeon host when it is not slowed.  Over any window of the run, the
mean of reference / kernel time is the share of that speed the core
gave; `full_speed_seconds` multiplies the window's wall time (less the
ticks' own time) by it.  The result is the wall time the window would
have taken on a core at full speed.

The references are constants, not measured per run: the fastest state a
core reaches itself moves between runs by a fifth, and a reference
taken from it would carry that into every result.  On another machine
the results keep their ratios but not their scale.

Each workload names the kernel that slows down as its own code does:
small-array numpy chains for geodesic shooting, a streaming pass over a
1.6 MB array for the memory-bound harmonic solve, and a pure-Python loop
for set-up, which is mostly imports.  The kernels touch no afstab code,
so no change to the program can move them.
"""

import math
import signal
import statistics
import time

PERIOD_S = 0.025
# seconds per kernel call on a core at full speed
REFERENCE_S = {"python": 15e-6, "ufunc": 50e-6, "stream": 400e-6}


_XS = tuple(0.5 * i for i in range(16))


def _python_kernel():
    s = 0.0
    for i in range(120):
        s += _XS[i & 15] * _XS[(i * 7) & 15] + 1.0
    return s


class _NumpyKernels:
    """The numpy kernels work in preallocated buffers, so that they leave
    no trace in a tracemalloc peak taken while they run."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.random(256)
        self.small_out = np.empty_like(self.small)
        self.large = rng.random(200_000)
        self.large_out = np.empty_like(self.large)

    def ufunc(self):
        np, x, y = self.np, self.small, self.small_out
        for _ in range(15):
            np.multiply(x, x, out=y)
            np.add(y, 1.0, out=y)
            np.sqrt(y, out=y)
            np.subtract(y, 0.5, out=y)
            x = y
        return y

    def stream(self):
        return self.np.add(self.large, 1.0, out=self.large_out).sum()


class Sampler:
    """Times the named kernels from SIGALRM every PERIOD_S seconds.

    `ticks` holds [start, end, seconds of kernel 1, seconds of kernel 2,
    ...] in the order of `kinds`, with perf_counter times.
    """

    def __init__(self, *kinds):
        self.kinds = []
        self.ticks = []
        self._kernels = []
        self._numpy = None
        for kind in kinds:
            self.add(kind)

    def add(self, kind):
        if kind == "python":
            kernel = _python_kernel
        else:
            if self._numpy is None:
                self._numpy = _NumpyKernels()
            kernel = getattr(self._numpy, kind)
        self.kinds.append(kind)
        self._kernels.append(kernel)
        # a tick recorded before this kernel ran has no time for it
        for tick in self.ticks:
            tick.append(math.nan)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        row = [start, start]
        for kernel in self._kernels:
            t = time.perf_counter()
            kernel()
            row.append(time.perf_counter() - t)
        row[1] = time.perf_counter()
        self.ticks.append(row)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def column(self, kind):
        """[start, end, seconds] of every tick that timed `kind`."""
        k = 2 + self.kinds.index(kind)
        return [[t[0], t[1], t[k]] for t in self.ticks if not math.isnan(t[k])]


def share(column, kind) -> float:
    """Median share of full speed over the ticks of a column."""
    return statistics.median(REFERENCE_S[kind] / row[2] for row in column)


def full_speed_seconds(start, end, column, kind, near_s=1.0) -> float:
    """Wall seconds of [start, end), less tick time, scaled to full speed.

    The scale is the mean of reference / kernel time over the ticks in
    the window; a window too short to hold a tick takes the ticks within
    `near_s` of it.
    """
    ref = REFERENCE_S[kind]
    inside = [row for row in column if start <= row[0] < end]
    busy = sum(row[1] - row[0] for row in inside)
    ticks = inside or [row for row in column
                       if start - near_s <= row[0] < end + near_s]
    if not ticks:
        raise ValueError("no speed samples near the window")
    share = sum(ref / row[2] for row in ticks) / len(ticks)
    return (end - start - busy) * share
