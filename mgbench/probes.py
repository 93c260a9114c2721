"""Per-layer probes used by the traced run.

Counts and costs below are *computed* from the operators (flops from
the solvers' own cost accounting, bytes from a CSR traffic model), or
timed through public entry points (``solver.correction``,
``repro.kernels.stats``).  The 27pt-32 fine matrix is ~10 MB, inside
the last-level cache, so no bandwidth or roofline figure is claimed.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .stats import median

#: Kernels reported per layer (``repro.kernels`` names).
KERNELS: Tuple[str, ...] = (
    "range_residual",
    "range_residual_block",
    "jacobi_sweeps",
    "prolong_add",
    "residual_norm",
)
#: Grid labels of the per-grid metrics; grids 3 and coarser fold into g3.
GRIDS: Tuple[str, ...] = ("g0", "g1", "g2", "g3")
#: Timed repeats of each grid's correction; the median is reported.
CORRECTION_REPS = 5


def _spmv_bytes(M: sp.spmatrix) -> float:
    """CSR product traffic: value + column index per nonzero, row
    pointers, one read of the source and one write of the target."""
    rows, cols = M.shape
    return 12.0 * M.nnz + 4.0 * (rows + 1) + 8.0 * (rows + cols)


def cycle_cost(solver) -> Tuple[float, float]:
    """Computed ``(flops, bytes)`` of one synchronous Multadd cycle."""
    levels = solver.hierarchy.levels
    flops = solver.residual_flops() + sum(
        solver.correction_flops(k) for k in range(solver.ngrids)
    )
    nbytes = _spmv_bytes(levels[0].A) + 8.0 * levels[0].n  # r = b - A x
    for k in range(solver.ngrids):
        for j in range(k):  # restrict and prolong through P_bar[j]
            nbytes += 2.0 * _spmv_bytes(solver.P_bar[j])
        if k == solver.hierarchy.coarsest:
            nbytes += 6.0 * solver.coarse.flops()  # 12 B per LU nonzero
        else:  # symmetrized Jacobi: two level products + diagonal work
            nbytes += 2.0 * _spmv_bytes(levels[k].A) + 32.0 * levels[k].n
    return float(flops), float(nbytes)


def correction_ms(solver, r: np.ndarray) -> List[float]:
    """Median ms of ``solver.correction(k, r)`` per grid label."""
    per_k = []
    for k in range(solver.ngrids):
        times = []
        for _ in range(CORRECTION_REPS):
            t0 = perf_counter()
            solver.correction(k, r)
            times.append(perf_counter() - t0)
        per_k.append(median(times) * 1e3)
    return per_grid(per_k)


def kernel_metrics(delta: Dict[str, Tuple[int, float]]) -> Dict[str, float]:
    """``kernels.<k>.calls`` / ``kernels.<k>.s`` from a ``stats_delta``."""
    out: Dict[str, float] = {}
    for name in KERNELS:
        calls, secs = delta.get(name, (0, 0.0))
        out[f"kernels.{name}.calls"] = float(calls)
        out[f"kernels.{name}.s"] = float(secs)
    return out


def cache_metrics(rounds: Sequence[Dict[str, int]]) -> Dict[str, float]:
    """``setupcache.*`` from one ``setup_cache_info()`` per round, taken
    at the round's end.  Every round starts from ``clear_setup_cache()``,
    which zeroes the counters, so a round's cold set-up is counted too."""
    hits = float(sum(c["hits"] for c in rounds))
    misses = float(sum(c["misses"] for c in rounds))
    return {
        "setupcache.hits": hits,
        "setupcache.misses": misses,
        "setupcache.evictions": float(sum(c["evictions"] for c in rounds)),
        "setupcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def per_grid(values: Sequence[float]) -> List[float]:
    """Fold a per-grid sequence onto :data:`GRIDS` (coarse tail summed)."""
    out = [0.0] * len(GRIDS)
    for k, v in enumerate(values):
        out[min(k, len(GRIDS) - 1)] += float(v)
    return out
