"""Metric names and units, and what a workload run hands back.

``E2E`` and ``PER_LAYER`` must match ``BENCHMARK.json`` (a test checks
it).  Every workload reports every metric: a per-layer metric of a
layer the workload does not reach reads 0 and the run prints why.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .hostprobe import REFERENCE_S, HostClock
from .probes import GRIDS, KERNELS
from .stats import median, tail

E2E: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "goodput_jobs_s": "jobs/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER: Dict[str, str] = {
    "problems.assemble_s": "s",
    "amg.setup_s": "s",
    "amg.levels": "count",
    "amg.operator_complexity": "ratio",
    "setupcache.hits": "count",
    "setupcache.misses": "count",
    "setupcache.evictions": "count",
    "setupcache.hit_ratio": "ratio",
    **{f"kernels.{k}.calls": "count" for k in KERNELS},
    **{f"kernels.{k}.s": "s" for k in KERNELS},
    "kernels.flops_per_cycle": "flop",
    "kernels.bytes_per_cycle": "B",
    "kernels.gflops": "GFLOP/s",
    "solvers.cycles_to_tol": "count",
    "solvers.time_to_tol_s": "s",
    "solvers.cycle_ms": "ms",
    **{f"solvers.correction_ms.{g}": "ms" for g in GRIDS},
    "procs.startup_s": "s",
    "procs.solve_s": "s",
    **{f"procs.corrections.{g}": "count" for g in GRIDS},
    "procs.useful_share": "ratio",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.tail": "ms",
    "serve.service_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.batch_mean": "count",
    "serve.cycles_mean": "count",
    "serve.rejected": "count",
    "serve.shed": "count",
    "serve.retries": "count",
    "serve.degraded": "count",
    "serve.solvers_held": "count",
    "load.lateness_ms": "ms",
    "guard.rejections": "count",
    "guard.rollbacks": "count",
    "selftime.problems_s": "s",
    "selftime.amg_s": "s",
    "selftime.solvers_s": "s",
    "selftime.core_parallel_s": "s",
    "selftime.serve_s": "s",
    "trace.overhead": "ratio",
}

#: Span layer -> self-time metric.
SELFTIME = {
    "problems": "selftime.problems_s",
    "amg": "selftime.amg_s",
    "solvers": "selftime.solvers_s",
    "core.parallel": "selftime.core_parallel_s",
    "serve": "selftime.serve_s",
}


@dataclass
class Outcome:
    """One workload run: metrics, operation counts and notes."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    #: raw timings behind the end-to-end metrics, seconds
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def timings(
    setup: Sequence[float], latency: Sequence[float], tail_of: Sequence[float],
    jobs: float, busy_s: float,
) -> Dict[str, float]:
    """The four gated timings from their samples (seconds)."""
    return {
        "setup_s": median(setup),
        "latency_p50_ms": median(latency) * 1e3,
        "latency_tail_ms": tail(tail_of)[0] * 1e3,
        "goodput_jobs_s": jobs / busy_s,
    }


def end_to_end(
    out: Outcome, clock: HostClock, scaled: Dict[str, float], measured: Dict[str, float]
) -> Dict[str, float]:
    """The gated metrics: ``scaled`` timings (each sample at the reference
    host speed, see ``hostprobe``), memory and the ok share.  The
    ``measured`` timings go into a note."""
    out.notes.append(
        f"host probe: median {median(clock.times) * 1e3:.2f} ms over {len(clock.times)} probes"
        f" (reference {REFERENCE_S * 1e3:.1f} ms); as measured: "
        + ", ".join(f"{k} {v:.5g}" for k, v in measured.items())
    )
    out.samples["host_probe"] = list(clock.times)
    return {
        **scaled,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - out.failed / out.attempted,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child's (``getrusage``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
