"""Host speed, measured with a fixed kernel that uses no aimpart code.

The benchmark shares a few cores of a host whose speed drifts by tens of
per cent over minutes (CPU time drifts as much as wall time, so this is not
time spent waiting for a core). run.py times this kernel after every group
of operations and divides each operation's wall time by the host's speed
factor around it (see Runner.normalise): the kernel's time over
REFERENCE_S. A normalised time therefore reads as the operation's wall time
on a host that runs the kernel in REFERENCE_S seconds. A change to the
library cannot move the kernel, so it still moves the normalised times by
what it changes. Operations do not all speed up and slow down with the
host by the same share as the kernel, so normalising narrows the spread
between runs without removing it.

The kernel has three parts, each of the kind of work the workloads do:
interpreted Python (the solvers' and DMA's loops), a numpy sweep over a
1.6 MB array (step 1 on the large grids) and many tiny numpy calls (call
overhead). The factor is their geometric mean, so each weighs the same.
"""

import math
import statistics
import time

import numpy as np

# Median of speed_factor() * REFERENCE_S over 200 back-to-back calls
# on the 2-core 2.0 GHz Xeon host the workloads were sized on.
REFERENCE_S = 0.0050

_X = np.random.default_rng(0).random(200_000)
# the sweep writes into this buffer: a fresh 1.6 MB temporary would cost
# page faults or not depending on the allocator's state, which the
# operations run before it change
_Y = np.empty_like(_X)
_M = np.random.default_rng(1).random((8, 8))


def _python():
    s = 0.0
    for i in range(50_000):
        s += i * 0.5
    return s


def _numpy_sweep():
    s = 0.0
    for _ in range(20):
        np.negative(_X, out=_Y)
        np.exp(_Y, out=_Y)
        s += float(_Y.sum())
    return s


def _small_calls():
    s = 0.0
    for _ in range(700):
        s += float((_M @ _M).sum())
    return s


PARTS = (_python, _numpy_sweep, _small_calls)
# each part runs this many times, interleaved, and counts with its median
# time, so that one hiccup of the host does not move the factor
REPEATS = 3


def speed_factor():
    """Kernel time over REFERENCE_S: above 1 means the host runs slow now."""
    times = [[] for _ in PARTS]
    for _ in range(REPEATS):
        for part, acc in zip(PARTS, times):
            start = time.perf_counter()
            part()
            acc.append(time.perf_counter() - start)
    log_sum = sum(math.log(statistics.median(acc)) for acc in times)
    return math.exp(log_sum / len(PARTS)) / REFERENCE_S
