"""Machine-speed probe: turns measured times into reference seconds.

The benchmark's host is a virtual machine on shared cores. Its speed drifts
with the other tenants' load: a fixed piece of work that takes 2.5 ms at one
moment takes 4 ms half a minute later, and over a 4-minute trace the
quartiles of 40-second means were still 15-20% apart. A wall time reports
that drift as much as it reports the program, whatever the length of the run.

While a workload runs, a ``SIGALRM`` handler runs a small fixed kernel
(Python arithmetic and a few NumPy calls, the mix bomi itself runs) on the
benchmark's own thread every ``INTERVAL_S`` and records how long it took.
``Probe.clock()`` then gives a reference clock: between two probes it
advances at ``REF_KERNEL_S / kernel time`` (the rolling mean over
``SMOOTH`` probes) per second, and it stands still while a probe runs, so
the probes' own time is never charged to the workload. A duration on that
clock is the time the same work would take on a machine where the kernel
takes ``REF_KERNEL_S``: it follows every change to bomi's own speed while
the host's drift cancels out. Raw wall times are kept alongside.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.05
# Median kernel time measured on the baseline machine (see README.md);
# re-measure it whenever _kernel changes.
REF_KERNEL_S = 1.65e-4
SMOOTH = 9

_VEC = np.linspace(0.0, 3.0, 256)


def _kernel() -> float:
    acc = 0.0
    for i in range(600):
        acc += (i * 0.37) % 1.3
    words = {str(i): i for i in range(64)}
    for _ in range(12):
        acc += float(np.sin(_VEC).sum()) + len(words)
    return acc


class Probe:
    """Samples the kernel's time on a timer signal between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.kernel = array("d")
        self.began = self.stopped = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()  # warms the caches the workload's own work left cold
        t1 = time.perf_counter()
        _kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.kernel.append(t2 - t1)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.stopped = time.perf_counter()

    def kernel_s(self) -> np.ndarray:
        return np.frombuffer(self.kernel)

    def clock(self):
        """Return ``ref(t)``: perf_counter seconds -> reference seconds.

        Only valid for times between ``start`` and ``stop``; ``ref(b) -
        ref(a)`` is the reference duration of ``[a, b]``.
        """
        starts, ends = np.frombuffer(self.starts), np.frombuffer(self.ends)
        n = len(starts)
        if n < SMOOTH:
            raise RuntimeError(f"only {n} speed probes ran; the run was too short")
        rate = REF_KERNEL_S / self.kernel_s()
        pad = SMOOTH // 2
        padded = np.concatenate([np.repeat(rate[0], pad), rate, np.repeat(rate[-1], pad)])
        rate = np.lib.stride_tricks.sliding_window_view(padded, SMOOTH).mean(axis=1)
        # Knots: began, then each probe's start and end, then stopped. The
        # gap before probe i runs at the mean rate of probes i-1 and i.
        gap_rate = np.concatenate([rate[:1], (rate[:-1] + rate[1:]) / 2, rate[-1:]])
        gap_len = np.concatenate([starts - np.concatenate([[self.began], ends[:-1]]),
                                 [self.stopped - ends[-1]]])
        knots_t = np.empty(2 * n + 2)
        knots_t[0], knots_t[-1] = self.began, self.stopped
        knots_t[1:-1:2], knots_t[2:-1:2] = starts, ends
        steps = np.zeros(2 * n + 1)
        steps[0::2] = gap_len * gap_rate  # probes themselves add nothing
        knots_v = np.concatenate([[0.0], np.cumsum(steps)])

        def ref(t):
            return np.interp(t, knots_t, knots_v)

        return ref
