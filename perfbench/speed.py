"""Speed probe: the time of a fixed kernel, for speed-normalised timings.

On a shared machine the rate at which this process executes instructions
drifts by 20 % and more within seconds and between minutes, while the
program's work stays the same.  The benchmark therefore times a fixed
kernel next to every operation and reports each operation's wall time
scaled to the reference speed, the speed at which the kernel takes
REFERENCE_MS:

    normalised = measured * REFERENCE_MS / kernel time around the measurement

The kernel mixes interpreter work with numpy work on a 32 KiB array, like
the program does, and uses no library code, so a change to ads3s3 cannot
move it.  Raw wall times are recorded next to the normalised ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_MS = 1.0
_PYTHON_STEPS = 300
_ARRAY_STEPS = 10
_ARRAY_SIZE = 4096
_PROBE_REPEATS = 2


def kernel():
    """Wall time in ms of a fixed mix of integer, dict, format and numpy array work."""
    x = np.arange(_ARRAY_SIZE) * 1e-3
    start = time.perf_counter()
    acc = 0
    table = {}
    parts = []
    for i in range(_PYTHON_STEPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
        parts.append(format(acc * 1e-6, ".17g"))
    "".join(parts)
    for _ in range(_ARRAY_STEPS):
        np.sin(x) * x + np.cos(x)
    return (time.perf_counter() - start) * 1e3


def probe():
    """The kernel's time now: the fastest of a few runs, since noise only adds time."""
    return min(kernel() for _ in range(_PROBE_REPEATS))


def normalise(measured, probe_before, probe_after):
    """`measured` scaled to the reference speed, using the probes either side of it."""
    return measured * REFERENCE_MS / (0.5 * (probe_before + probe_after))
