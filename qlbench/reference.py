"""A fixed reference computation, timed next to every operation.

The speed of the shared machine the benchmark runs on drifts by up to a
factor of two over tens of seconds to minutes, and CPU time drifts with
wall time, so no wall time of the program alone can be held to a bound of
a quarter.  Each timed operation is therefore bracketed by two runs of this
computation, and the end-to-end time metrics are the operation's wall time
over the mean of the two reference times: a slow phase of the machine
stretches both alike.

The computation mixes what the program spends its time on: interpreter
work, parsing CSV text with ``np.loadtxt``, arithmetic on small arrays and a
small matrix product.  Its arrays stay in a core's caches: arithmetic on an
array larger than the caches varies with the traffic of other tenants of
the machine, and tracked the CLI operation worse.  It does not call the
program, so no change to the program changes it.  Do not change
it either: a change rescales every ratio and breaks comparison with earlier
results.
"""

from __future__ import annotations

import io
import time

import numpy as np

_TEXT = "".join(f"{i % 97}.25,{-(i % 13)}.5,{i % 7},{i % 1009}.125\n" for i in range(50_000))
_SMALL = np.linspace(-1.0, 1.0, 20_000)
_MAT = np.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)


def work() -> float:
    total = 0
    for i in range(330_000):
        total += (i * i) % 7
    total += float(np.loadtxt(io.StringIO(_TEXT), delimiter=",", ndmin=2).sum())
    for _ in range(400):
        total += float(np.sqrt(_SMALL * _SMALL + 1.0).sum())
    m = _MAT
    for _ in range(10):
        m = m @ _MAT / 200.0
    return total + float(m.sum())


def timed() -> float:
    """Wall seconds of one run of the reference computation."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
