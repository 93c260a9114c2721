"""``solve-large``: verified solves of the 27pt 3-D Laplacian at grid 32.

Each seeded RHS is solved to ``||b - Ax|| / ||b|| <= 1e-8`` twice,
alternating so drift hits both paths alike:

- the synchronous baseline, ``Multadd.solve`` one cycle at a time on
  one thread, stopped at the first cycle that meets the tolerance;
- ``run_procs`` with 2 worker processes, ``criterion2`` and a fixed
  per-grid budget of 40 corrections, timed from the call to its return
  (process start, bundle transport and teardown included).
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from repro import Multadd, SetupOptions, build_problem
from repro import kernels
from repro.core.parallel import run_procs
from repro.kernels.setupcache import (
    cached_setup_hierarchy,
    clear_setup_cache,
    setup_cache_info,
)

from . import inputs, probes
from .checks import TOL, Checker, NoVerifiedAnswer
from .hostprobe import HostClock, factor
from .metrics import Outcome, end_to_end, timings
from .spans import Spans
from .stats import median, tail

PROCS_WORKERS = 2
PROCS_TMAX = 40
#: Host probes after each cold build and for each RHS, between its serial
#: and its procs solve (right after ``run_procs`` returns, its teardown
#: still slows this process).
PROBES = 3
#: Cycle cap of the serial baseline (27pt-32 needs ~50).
SERIAL_CAP = 400


def serial_solve(solver, b: np.ndarray) -> Tuple[np.ndarray, int, float]:
    """Synchronous cycles until the reported residual meets :data:`TOL`.

    Returns ``(x, cycles, reported rel. residual)``.
    """
    x = None
    for cycles in range(1, SERIAL_CAP + 1):
        res = solver.solve(b, tmax=1, x0=x)
        x = res.x
        if res.diverged or res.final_relres <= TOL:
            break
    return x, cycles, res.final_relres


def _cold_build(spans: Spans, rid: str):
    """Assembly, AMG setup and solver construction from an empty cache."""
    family, size = inputs.LARGE_PROBLEM
    clear_setup_cache()
    gc.collect()
    t0 = perf_counter()
    with spans.span("build_problem", "problems", rid=rid):
        problem = build_problem(family, size)
    t1 = perf_counter()
    with spans.span("cached_setup_hierarchy", "amg", rid=rid):
        hierarchy = cached_setup_hierarchy(problem.A, SetupOptions())
    t2 = perf_counter()
    with spans.span("Multadd", "solvers", rid=rid):
        solver = Multadd(hierarchy, smoother="jacobi", weight=problem.jacobi_weight)
    t3 = perf_counter()
    return problem, solver, (t3 - t0, t1 - t0, t2 - t1)


def run(seed: int, seconds: float, spans: Spans, checker: Checker, rounds: int) -> Outcome:
    """Measure ``rounds`` rounds of ``seconds / rounds`` each.

    A round is a cold build (one ``setup_s`` sample) followed by solves
    with its solver, so set-ups and solves are spread over the whole run
    and see the same host.  Each build and each procs solve is also taken
    to the reference host speed by the probes next to it.
    Per-layer numbers come from traced runs, which use one round.
    """
    out = Outcome()
    traced = spans.enabled
    clock = HostClock()
    setup, assemble, amg_setup = [], [], []
    serial_s: List[float] = []
    cycles: List[int] = []
    procs_s: List[float] = []
    factors: Dict[str, List[float]] = {"setup": [], "procs": []}
    counts: List[np.ndarray] = []
    guard_rej = guard_roll = 0
    cache: List[Dict[str, int]] = []
    i = 0
    for rep in range(rounds):
        problem = solver = None  # release the previous hierarchy first
        problem, solver, (total, t_asm, t_amg) = _cold_build(spans, f"setup{rep}")
        setup.append(total)
        factors["setup"].append(factor(clock.run(PROBES)))
        assemble.append(t_asm)
        amg_setup.append(t_amg)
        A = problem.A
        if rep == 0:
            stats0 = kernels.stats()

        # requests: serial and procs solve of each RHS
        end = perf_counter() + seconds / rounds
        first = i
        while i == first or perf_counter() < end:
            rid = f"rhs{i}"
            b = inputs.rhs(A.shape[0], inputs.large_rhs_key(seed, i))
            t0 = perf_counter()
            with spans.span("Multadd.solve", "solvers", rid=rid):
                x, ncyc, _ = serial_solve(solver, b)
            wall = perf_counter() - t0
            with spans.span("check", "check", rid=rid):
                ok = checker.converged(f"{rid} serial", A, x, b)
            out.count(ok)
            if ok:
                serial_s.append(wall)
                cycles.append(ncyc)
            host = factor(clock.run(PROBES))

            t0 = perf_counter()
            with spans.span("run_procs", "core.parallel", rid=rid):
                res = run_procs(
                    solver, b, tmax=PROCS_TMAX, criterion="criterion2", workers=PROCS_WORKERS
                )
            wall = perf_counter() - t0
            with spans.span("check", "check", rid=rid):
                ok = not (res.diverged or res.errors) and checker.converged(
                    f"{rid} procs", A, res.x, b
                )
            out.count(ok)
            if ok:
                procs_s.append(wall)
                factors["procs"].append(host)
                counts.append(np.asarray(res.counts))
            guard_rej += res.telemetry.corrections_rejected
            guard_roll += res.telemetry.rollbacks
            i += 1
        cache.append(setup_cache_info())  # before the next cold build clears it
    request_stats = kernels.stats_delta(stats0)
    if not serial_s or not procs_s:
        raise NoVerifiedAnswer("solve-large: no verified serial or procs solve")

    _, p_pct, p_n = tail(procs_s)
    out.notes.append(
        f"procs solves: {p_n}; latency_tail_ms is "
        + ("the maximum" if p_pct == 100.0 else f"p{p_pct:.1f}")
    )
    out.samples = {"setup": setup, "serial": serial_s, "procs": procs_s,
                   **{f"{k}_factor": v for k, v in factors.items()}}
    setup_ref = [t * f for t, f in zip(setup, factors["setup"])]
    procs_ref = [t * f for t, f in zip(procs_s, factors["procs"])]
    out.e2e = end_to_end(
        out, clock,
        scaled=timings(setup_ref, procs_ref, procs_ref, len(procs_ref), sum(procs_ref)),
        measured=timings(setup, procs_s, procs_s, len(procs_s), sum(procs_s)),
    )
    if not traced:
        return out

    # -- per-layer numbers (traced run only) --
    hierarchy = solver.hierarchy
    flops, nbytes = probes.cycle_cost(solver)
    startup = []
    b0 = inputs.rhs(A.shape[0], inputs.large_rhs_key(seed, 0))
    for rep in range(3):
        t0 = perf_counter()
        with spans.span("run_procs.startup_probe", "core.parallel", rid=f"probe{rep}"):
            run_procs(solver, b0, tmax=1, criterion="criterion2", workers=PROCS_WORKERS)
        startup.append(perf_counter() - t0)
    ngrids = solver.ngrids
    useful = [ngrids * PROCS_TMAX / float(c.sum()) for c in counts]
    grid_counts = probes.per_grid(np.median(np.stack(counts), axis=0))
    corr = probes.correction_ms(solver, b0)
    out.layers = {
        "problems.assemble_s": median(assemble),
        "amg.setup_s": median(amg_setup),
        "amg.levels": float(hierarchy.nlevels),
        "amg.operator_complexity": hierarchy.operator_complexity(),
        **probes.cache_metrics(cache),
        **probes.kernel_metrics(request_stats),
        "kernels.flops_per_cycle": flops,
        "kernels.bytes_per_cycle": nbytes,
        "kernels.gflops": flops * sum(cycles) / sum(serial_s) / 1e9,
        "solvers.cycles_to_tol": median(cycles),
        "solvers.time_to_tol_s": median(serial_s),
        "solvers.cycle_ms": median([w / c for w, c in zip(serial_s, cycles)]) * 1e3,
        **{f"solvers.correction_ms.{g}": v for g, v in zip(probes.GRIDS, corr)},
        "procs.startup_s": median(startup),
        "procs.solve_s": median(procs_s) - median(startup),
        **{f"procs.corrections.{g}": v for g, v in zip(probes.GRIDS, grid_counts)},
        "procs.useful_share": median(useful),
        "guard.rejections": float(guard_rej),
        "guard.rollbacks": float(guard_roll),
    }
    out.notes += [
        "setupcache: one miss per cold build; the solves make no lookups (one solver serves every RHS)",
        "kernels: counted in this process only; run_procs workers run theirs in child processes",
        "serve.*, load.lateness_ms: no server on this workload",
    ]
    return out
