"""Host speed, measured by a fixed reference kernel.

The processors of a shared host slow down and speed up by up to a fifth
over seconds to minutes, as other tenants come and go; Python and small
numpy work slow down alike.  The benchmark runs this kernel, which uses no
g2abc code, right before and after each timed interval and divides the
interval by the slowness the kernel saw, so its figures read as on an idle
host.  A change to g2abc cannot change the kernel's time.
"""

import time

import numpy as np

from checks import ricci_matrix

#: Kernel time on an idle host: one 2.1 GHz Xeon vCPU, Python 3.11.7, numpy 2.4.6.
REFERENCE_S = 1.8e-3

_VALUES = np.arange(35.0)
_INDEX = _VALUES[::-1].astype(np.int64)
_TRIPLE = (np.diag([1.0, 2.0, -1.0, -2.0]), np.eye(4), np.zeros((4, 4)))


def kernel(rounds=300):
    """Small-array numpy calls and Python objects, the mix g2abc spends its time in."""
    out = np.zeros(35)
    total = 0.0
    for i in range(rounds):
        np.add.at(out, _INDEX, _VALUES * 0.5)
        coeffs = {(j, j + 1): float(out[j]) for j in range(7)}
        total += sum(coeffs.values())
        if i % 30 == 0:
            total += float(ricci_matrix(*_TRIPLE)[6, 6])
    return total


def kernel_seconds():
    """Time of one kernel run, after a short run that brings its code and data
    back into the processor caches, so that the time follows the host, not
    what ran before."""
    kernel(rounds=30)
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def slowness(before_s, after_s):
    """Host slowness over an interval bracketed by two kernel times; 1 on an idle host."""
    return (before_s + after_s) / (2.0 * REFERENCE_S)
