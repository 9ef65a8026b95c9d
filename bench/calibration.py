"""Machine speed, measured by a fixed kernel that does not call esdlab.

On a shared 2-core virtual machine the speed of the same code was seen
to swing by up to 2x within minutes, with CPU time following wall time,
so the cause is the host and not scheduling.  The worker times one
calibration sample before every operation and divides each timing by
the local slowdown: the median of CAL_WINDOW neighbouring samples over
the kernel's time on an idle machine.  Raw timings are kept in the
result files.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

CAL_NOMINAL_S = 2.0e-3
CAL_WINDOW = 5
_CAL_OPS = [np.array([[1.0, k], [0.5, -k]], dtype=np.complex128) / (2 + k) for k in range(8)]
_CAL_RHO = np.full((4, 4), 0.25, dtype=np.complex128)


def calibrate() -> float:
    """Seconds for a fixed mix of small numpy calls and a Python float loop.

    The mix imitates esdlab's cost profile without calling esdlab, so its
    time follows the speed of the machine and never the code under test.
    """
    t0 = time.perf_counter()
    out = np.zeros((4, 4), dtype=np.complex128)
    for a in _CAL_OPS:
        for b in _CAL_OPS:
            k = np.kron(a, b)
            out += k @ _CAL_RHO @ k.conj().T
    np.linalg.eigvalsh(out + out.conj().T)
    acc = 0.0
    for i in range(500):
        acc += math.exp(-1e-3 * i)
    return time.perf_counter() - t0


def slowdowns(cal: list[float]) -> list[float]:
    """Machine slowdown at each calibration sample: local median over nominal."""
    half = CAL_WINDOW // 2
    return [statistics.median(cal[max(0, i - half):i + half + 1]) / CAL_NOMINAL_S
            for i in range(len(cal))]
