"""Host-speed probe: a fixed piece of work that uses none of the program.

A shared host's speed drifts: on the 2-vCPU host the bounds were set
on, by 10-30 % over minutes (README "Host-speed scaling"), and every
timing of the program drifts with it.  The probe times a small mix of
the work the program does — scipy sparse products, numpy vector updates
and an interpreter loop — built and run by the benchmark alone, so a
change to the program cannot move it.  A workload runs a few probes
next to each timed sample and reports the sample at the reference host
speed::

    reported = measured * REFERENCE_S / median(the probes next to it)

A change to the program shows in full, while whatever slows the probe
and the program alike cancels.  The measured timings and every probe
time are written to the run's result file, and the measured metrics
are printed as a note.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from .stats import median

#: Median probe time on the host the bounds were set on (2 vCPUs of an
#: Intel Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  Only a scale:
#: any constant would do, as long as it never changes.
REFERENCE_S = 0.025
#: The probe's parts: products with a large (32**3 rows) and a small
#: (8**3 rows) 7-point Laplacian, the way the program's large and small
#: operators are used, and a plain interpreter loop.
_LARGE, _LARGE_PRODUCTS = 32, 20
_SMALL, _SMALL_PRODUCTS = 8, 1000
_LOOP = 100_000

def _laplacian(grid: int) -> sp.csr_matrix:
    one = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid, grid))
    eye = sp.identity(grid)
    return (sp.kron(sp.kron(one, eye), eye) + sp.kron(sp.kron(eye, one), eye)
            + sp.kron(sp.kron(eye, eye), one)).tocsr()


def _products(A: sp.csr_matrix, count: int) -> None:
    x = np.linspace(-1.0, 1.0, A.shape[0])
    for _ in range(count):
        y = A @ x
        x = x - 0.1 * y / (np.abs(y).max() + 1.0)


class HostClock:
    """Runs probes for a workload and keeps every probe time."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self._large = _laplacian(_LARGE)
        self._small = _laplacian(_SMALL)

    def probe(self) -> float:
        """Run the probe once; returns its wall time in seconds."""
        t0 = perf_counter()
        _products(self._large, _LARGE_PRODUCTS)
        _products(self._small, _SMALL_PRODUCTS)
        acc = 0
        for i in range(_LOOP):
            acc += i & 7
        return perf_counter() - t0

    def run(self, repeats: int) -> List[float]:
        """Probe ``repeats`` times; returns the probe times."""
        now = [self.probe() for _ in range(repeats)]
        self.times += now
        return now


def factor(times: Sequence[float]) -> float:
    """``REFERENCE_S / median(times)``: takes a time measured next to
    these probes to the reference host speed."""
    return REFERENCE_S / median(times)
