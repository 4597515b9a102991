"""Host speed probe, used to put timings on a common footing.

On a shared 2-core virtual machine the same work can take 40% longer
for seconds to minutes at a time while other tenants load the host, and
no statistic over one run removes that. So the benchmark times a fixed
kernel before and after every timed phase: a mix of interpreter work,
small numpy calls and one mid-sized matmul, like the program's own
instruction mix. The kernel's time over ``REFERENCE_S`` is the host's
slowdown, and each phase time is divided by the mean slowdown of the two
probes around it (each rate multiplied by it). The kernel never touches
the program, so a change to the program moves the normalized numbers in
full.

``REFERENCE_S`` is the kernel's time on an unloaded 2-core x86-64 VM with
one OpenBLAS thread (numpy 2.4); any fixed value works, it only sets the
scale.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.018


def probe():
    """Seconds taken by the fixed kernel."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 8, 64))
    w = rng.standard_normal((64, 64)) / 8.0
    a = rng.standard_normal((64, 256))
    b = rng.standard_normal((256, 1024))
    start = time.perf_counter()
    for _ in range(12):
        h = x
        for _ in range(4):
            h = h @ w
            h = (h - h.mean(-1, keepdims=True)) / np.sqrt(h.var(-1, keepdims=True) + 1e-8)
        acc = []
        for i in range(300):
            acc.append((lambda v: v * 0.5 + i)(i))
        a @ b
    return time.perf_counter() - start


def slowdown():
    """The host's current slowdown against ``REFERENCE_S``: the median of
    three probes, so that one interrupted probe (seen up to twice the
    usual time) does not skew a phase."""
    return statistics.median(probe() for _ in range(3)) / REFERENCE_S


class PhaseClock:
    """Times phases back to back, probing the host between them, so each
    phase gets the mean slowdown of the probes on either side."""

    def __init__(self):
        self.last = slowdown()

    def time(self, fn, *args, **kwargs):
        """(result, raw seconds, slowdown) of one call."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        after = slowdown()
        factor, self.last = (self.last + after) / 2.0, after
        return out, elapsed, factor
