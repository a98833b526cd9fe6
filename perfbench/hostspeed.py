"""Host-speed reference: a fixed computation timed next to every measured call.

On a shared virtual machine the same call was measured at 1.5 times its usual
wall time for minutes at a stretch, on every kind of operation at once, so
medians of separate runs spread by up to 30% with no change to the code. The
benchmark therefore times this reference right before and right after each
measured call and scales the call's time by ``REFERENCE_S`` over the mean of
the two. A scaled value reads in seconds at the host speed where the
reference takes ``REFERENCE_S``; raw wall times are printed alongside.

The reference does the kind of work the package does: numpy sorts, cumulative
sums and reductions on a few thousand floats, and an interpreter loop. It is
the benchmark's own code, so a change to the package does not move it.

Import time swings with the host's load by more than that reference does, so
``setup_s`` uses another one: ``import numpy`` alone in a fresh interpreter,
which ``import auxshrink`` contains but the package does not change.
"""

from __future__ import annotations

import time

import numpy as np

# The reference's median wall time on a 2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6. It sets the scale only: any constant works the same way.
REFERENCE_S = 0.005
# The median wall time of ``import numpy`` in a fresh interpreter on that VM.
NUMPY_IMPORT_S = 0.09

_DATA = np.random.default_rng(0).standard_normal(4096)


def _reference() -> float:
    acc = 0.0
    for i in range(64):
        y = np.sort(_DATA[i:i + 2048])
        acc += float(np.cumsum(np.abs(y))[-1])
        z = np.where(y > 0, y, 0.0)
        acc += float(z @ z)
    s = 0
    for i in range(30000):
        s += i * i % 7
    return acc + s


def time_reference() -> float:
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    _reference()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float,
           nominal: float = REFERENCE_S) -> float:
    """``seconds`` at reference speed, from the times of the reference around
    it and the reference's time at that speed, ``nominal``."""
    return seconds * 2 * nominal / (ref_before + ref_after)
