"""``serve-warm`` and ``serve-churn``: an in-process ``SolveServer`` under load.

The run is a number of rounds.  Each starts with a cold server start:
empty set-up cache, assembly of the four warm operators, a 2-worker
server, and one job per operator (which builds its hierarchy and solver
in a worker).  Then, from the one generator thread:

1. open loop — a slice of the Poisson arrival schedule at the profile's
   fixed rate, each job timed from its *due* time to its result;
2. closed loop — ``K`` tickets kept outstanding;
3. direct-call baseline, once the server has stopped — the same warm
   operators solved by ``Multadd.solve`` on this thread.

On ``serve-churn`` one job in four brings a never-seen operator: a
seeded shift ``A + s * mean(diag A) * I`` of a warm family, so AMG
setup runs in the request path.
"""

from __future__ import annotations

import contextlib
import gc
import threading
from collections import deque
from time import perf_counter, sleep
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

import repro.serve.server as server_mod
from repro import Multadd, build_problem
from repro import kernels
from repro.kernels.setupcache import (
    cached_setup_hierarchy,
    clear_setup_cache,
    setup_cache_info,
)
from repro.serve import OK, JobResult, JobSpec, OperatorRef, ServeConfig, SolveServer

from . import inputs, probes
from .checks import Checker, NoVerifiedAnswer
from .hostprobe import HostClock, factor
from .metrics import Outcome, end_to_end, timings
from .solve_large import serial_solve
from .spans import Span, Spans
from .stats import median, tail

WORKERS = 2
#: Cycle budget and deadline of every job: generous, so a job only
#: fails when something is wrong.
JOB_TMAX = 400
JOB_DEADLINE_S = 10.0
#: How long the generator waits for any one ticket.
RESULT_TIMEOUT_S = 60.0
#: Shares of each round given to the open and closed loops; the
#: direct-call baseline takes the rest.
OPEN_SHARE = 0.55
CLOSED_SHARE = 0.25
#: Host probes before each round's cold start and after its server has
#: stopped; together they take the round's timings to the reference host
#: speed.
PROBES = 8


class _Warm:
    """The warm operator set: problems, server refs and baseline solvers."""

    def __init__(self, problems, refs: List[OperatorRef]) -> None:
        self.problems = problems
        self.refs = refs
        self.solvers: List[Multadd] = []

    def ref_for(self, arrival: inputs.Arrival) -> OperatorRef:
        base = self.refs[arrival.family]
        if not arrival.cold:
            return base
        A = base.A
        shift = arrival.shift * float(A.diagonal().mean())
        return OperatorRef(A + shift * sp.identity(A.shape[0], format="csr"),
                           base.options, base.solver_kwargs)

    def spec(self, arrival: inputs.Arrival, ref: OperatorRef) -> JobSpec:
        return JobSpec(
            tenant=arrival.tenant,
            operator=ref,
            b=inputs.rhs(ref.n, arrival.rhs_key),
            tmax=JOB_TMAX,
            deadline_s=JOB_DEADLINE_S,
        )


def _cold_start(seed: int, start: int, spans: Spans, tracing: Optional["_Tracing"]):
    """One cold server start with the warm set; returns timings too."""
    clear_setup_cache()
    gc.collect()
    t0 = perf_counter()
    with spans.span("build_problem", "problems", rid=f"setup{start}"):
        problems = [build_problem(f, s) for f, s in inputs.WARM_SET]
    t_asm = perf_counter() - t0
    server = SolveServer(ServeConfig(workers=WORKERS)).start()
    try:
        refs = [
            server.register_operator(
                f"{p.name}-{p.size_param}", p.A, solver_kwargs={"weight": p.jacobi_weight}
            )
            for p in problems
        ]
        warm = _Warm(problems, refs)
        jobs = []
        for f, ref in enumerate(refs):
            b = inputs.rhs(ref.n, inputs.warmup_key(seed, start, f))
            spec = JobSpec(tenant="warmup", operator=ref, b=b, tmax=JOB_TMAX,
                           deadline_s=JOB_DEADLINE_S)
            if tracing is not None:
                tracing.rid_of[id(b)] = f"warmup{start}.{f}"
            jobs.append((spec, perf_counter(), server.submit(spec)))
        results = [(spec, t_sub, t.result(timeout=RESULT_TIMEOUT_S)) for spec, t_sub, t in jobs]
    except BaseException:
        server.stop()
        raise
    return server, warm, results, perf_counter() - t0, t_asm


def _judge(checker: Checker, what: str, spec: JobSpec, res: Optional[JobResult]) -> bool:
    """A job counts as ok only if it ended ``ok`` within its deadline and
    its iterate passes the independent check; a degraded job's reported
    residual is checked against its iterate too."""
    if res is None:
        checker.failures.append(f"{what}: no result within {RESULT_TIMEOUT_S}s")
        return False
    A = spec.operator.A
    if res.status == OK:
        return checker.converged(what, A, res.x, spec.b) and res.deadline_met
    if res.x is not None:
        checker.reported(what, A, res.x, spec.b, res.rel_residual)
    return False


class _Tracing:
    """Traced run only: wraps the server's calls into other layers.

    ``solve_batch`` (solvers), ``cached_setup_hierarchy`` (amg) and the
    ``Multadd`` constructor (solvers) are reached only from the server's
    worker threads, so they are wrapped where ``repro.serve.server``
    looks them up, and restored on exit.  A batch's columns are mapped
    back to their request ids by the identity of their RHS arrays.
    """

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.rid_of: Dict[int, str] = {}
        self.amg_s: List[float] = []
        self._pending = threading.local()

    def _stash(self, name: str, layer: str, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            if layer == "amg":
                self.amg_s.append(t1 - t0)
            pending = getattr(self._pending, "spans", None)
            if pending is None:
                pending = self._pending.spans = []
            pending.append((name, layer, t0, t1))

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        saved = (server_mod.solve_batch, server_mod.cached_setup_hierarchy, server_mod.Multadd)
        solve_batch, setup, make_solver = saved

        def traced_setup(*args, **kwargs):
            return self._stash("cached_setup_hierarchy", "amg", setup, *args, **kwargs)

        def traced_solver(*args, **kwargs):
            return self._stash("Multadd", "solvers", make_solver, *args, **kwargs)

        def traced_batch(solver, columns, contexts, *args, **kwargs):
            t0 = perf_counter()
            try:
                return solve_batch(solver, columns, contexts, *args, **kwargs)
            finally:
                t1 = perf_counter()
                rids = [self.rid_of.get(id(c), "unknown") for c in columns]
                pending = getattr(self._pending, "spans", [])
                self._pending.spans = []
                for rid in rids:
                    parent = f"{rid}.service"
                    for name, layer, a, b in pending:
                        self.spans.add(Span(name, layer, a, b, self.spans.new_id(), parent, rid))
                    self.spans.add(Span("solve_batch", "solvers", t0, t1, self.spans.new_id(),
                                        parent, rid, {"batched": len(columns)}))

        server_mod.solve_batch = traced_batch
        server_mod.cached_setup_hierarchy = traced_setup
        server_mod.Multadd = traced_solver
        try:
            yield
        finally:
            server_mod.solve_batch, server_mod.cached_setup_hierarchy, server_mod.Multadd = saved


def _job_spans(spans: Spans, rid: str, due: float, t_sub: float, res: JobResult) -> None:
    """Split a served job into due→result, generator lateness, queue wait
    and service spans (from ``JobResult.queue_wait_s``/``service_s``)."""
    done = t_sub + res.latency_s
    spans.add(Span("job", "serve", due, done, rid, None, rid, {"status": res.status}))
    spans.add(Span("lateness", "load", due, t_sub, f"{rid}.late", rid, rid))
    queued = t_sub + res.queue_wait_s
    spans.add(Span("queue_wait", "serve", t_sub, queued, f"{rid}.queue", rid, rid))
    spans.add(Span("service", "serve", done - res.service_s, done, f"{rid}.service", rid, rid))


def _open_loop(
    server: SolveServer, warm: _Warm, arrivals: List[inputs.Arrival],
    tracing: Optional[_Tracing],
) -> list:
    """Submit a slice of the open-loop schedule at its due times (the
    first job at once), then collect every result."""
    specs = [warm.spec(a, warm.ref_for(a)) for a in arrivals]
    if tracing is not None:
        tracing.rid_of.update({id(s.b): f"open{a.index}" for a, s in zip(arrivals, specs)})
    sent = []
    t0 = perf_counter() - arrivals[0].due_s
    for a, spec in zip(arrivals, specs):
        due = t0 + a.due_s
        wait = due - perf_counter()
        if wait > 0:
            sleep(wait)
        t_sub = perf_counter()
        sent.append((a, spec, due, t_sub, server.submit(spec)))
    return [(a, spec, due, t_sub, ticket.result(timeout=RESULT_TIMEOUT_S))
            for a, spec, due, t_sub, ticket in sent]


def _closed_loop(
    server: SolveServer, warm: _Warm, stream: Iterator[inputs.Arrival], k: int, seconds: float,
    tracing: Optional[_Tracing],
) -> Tuple[list, float, float]:
    """Keep ``k`` tickets outstanding for ``seconds``, drawing jobs from
    ``stream``, then collect the last ones.  Returns the finished jobs and
    the loop's start and end (the last result)."""
    outstanding = deque()
    finished = []
    t0 = perf_counter()
    end = t0 + seconds
    while True:
        now = perf_counter()
        while now < end and len(outstanding) < k:
            a = next(stream)
            spec = warm.spec(a, warm.ref_for(a))
            if tracing is not None:
                tracing.rid_of[id(spec.b)] = f"closed{a.index}"
            t_sub = perf_counter()
            outstanding.append((a, spec, t_sub, t_sub, server.submit(spec)))
            now = t_sub
        if not outstanding:
            break
        outstanding[0][4].result(timeout=0.002)
        for item in [it for it in outstanding if it[4].done]:
            outstanding.remove(item)
            a, spec, due, t_sub, ticket = item
            finished.append((a, spec, due, t_sub, ticket.result(timeout=0.0)))
    return finished, t0, perf_counter()


class _Baseline:
    """Direct-call baseline: the warm operators solved by ``Multadd.solve``
    on the generator thread, families in turn, with no server in the way.

    It runs in one short window at the end of each round, after the
    server has stopped: an idle server's dispatcher and workers still wake
    every ``tick_s`` and take the GIL, which made these timings swing.
    """

    def __init__(self, seed: int, spans: Spans, checker: Checker, out: Outcome) -> None:
        self.seed, self.spans, self.checker, self.out = seed, spans, checker, out
        self.per_family: Dict[int, List[Tuple[float, int]]] = {}
        self.rounds = 0

    def window(self, warm: _Warm, seconds: float) -> None:
        end = perf_counter() + seconds
        start = self.rounds
        while self.rounds == start or perf_counter() < end:
            j = self.rounds
            for f, solver in enumerate(warm.solvers):
                A = warm.refs[f].A
                b = inputs.rhs(A.shape[0], inputs.baseline_key(self.seed, f, j))
                rid = f"baseline{f}.{j}"
                t0 = perf_counter()
                with self.spans.span("Multadd.solve", "solvers", rid=rid):
                    x, ncyc, _ = serial_solve(solver, b)
                wall = perf_counter() - t0
                ok = self.checker.converged(rid, A, x, b)
                self.out.count(ok)
                if ok:
                    self.per_family.setdefault(f, []).append((wall, ncyc))
            self.rounds += 1


def run(profile: inputs.ServeProfile, seed: int, seconds: float, spans: Spans,
        checker: Checker, rounds: int) -> Outcome:
    """Measure ``rounds`` rounds of ``seconds / rounds`` each.

    A round is a cold server start (one ``setup_s`` sample), a slice of
    the open-loop schedule and a closed-loop window on that server, and
    once it has stopped a baseline window, so every metric samples the
    whole run.  Host probes before the cold start and after the server
    stops take the round's set-up, latencies and closed-loop time to the
    reference host speed.
    Per-layer numbers come from traced runs, which use one round.
    """
    out = Outcome()
    traced = spans.enabled
    clock = HostClock()
    tracing = _Tracing(spans) if traced else None
    # whole runs of the mix (and of cold jobs) in every round keep the composition exact
    quantum = len(inputs.MIX) * max(1, profile.cold_every)
    per_round = quantum * max(1, round(profile.open_rate * OPEN_SHARE * seconds
                                       / rounds / quantum))
    schedule = inputs.open_schedule(profile, seed, per_round * rounds)
    stream = inputs.closed_jobs(profile, seed)
    window = (1.0 - OPEN_SHARE - CLOSED_SHARE) * seconds / rounds
    setup, assemble, amg_setup = [], [], []
    opened, closed = [], []
    goodput_jobs, closed_s, retries = 0, 0.0, 0.0
    # per round: host factor; per served job: its round's factor
    factors: List[float] = []
    opened_f: List[float] = []
    closed_f: List[float] = []
    closed_s_ref = 0.0
    cache: List[Dict[str, int]] = []
    baseline = _Baseline(seed, spans, checker, out)
    with tracing.installed() if tracing is not None else contextlib.nullcontext():
        for rep in range(rounds):
            server = warm = None  # release the previous round's server and operators first
            before = clock.run(PROBES)
            server, warm, results, total, t_asm = _cold_start(seed, rep, spans, tracing)
            try:
                setup.append(total)
                assemble.append(t_asm)
                for f, (spec, t_sub, res) in enumerate(results):
                    rid = f"warmup{rep}.{f}"
                    out.count(_judge(checker, rid, spec, res))
                    if traced and res is not None:
                        _job_spans(spans, rid, t_sub, t_sub, res)
                # baseline solvers over the cached hierarchies (set-up cache hits)
                for p, ref in zip(warm.problems, warm.refs):
                    h = cached_setup_hierarchy(ref.A, ref.options)
                    warm.solvers.append(Multadd(h, smoother="jacobi", weight=p.jacobi_weight))
                if rep == 0:
                    amg_setup = list(tracing.amg_s) if tracing is not None else []
                    stats0 = kernels.stats()
                retries0 = server.metrics.flatten().get("serve.retries", 0.0)

                rows = _open_loop(server, warm, schedule[rep * per_round:(rep + 1) * per_round],
                                  tracing)
                opened += rows
                n_open = len(rows)
                rows, c0, c_end = _closed_loop(server, warm, stream, inputs.CLOSED_K,
                                               CLOSED_SHARE * seconds / rounds, tracing)
                closed += rows
                closed_s += c_end - c0
                goodput_jobs += sum(1 for *_, res in rows
                                    if res is not None and res.status == OK and res.deadline_met)
                retries += server.metrics.flatten().get("serve.retries", 0.0) - retries0
            finally:
                server.stop()
            factors.append(factor(before + clock.run(PROBES)))
            opened_f += [factors[-1]] * n_open
            closed_f += [factors[-1]] * len(rows)
            closed_s_ref += (c_end - c0) * factors[-1]
            baseline.window(warm, window)
            cache.append(setup_cache_info())
        request_stats = kernels.stats_delta(stats0)

    # -- judge every served answer --
    lat_due, cold_lat, closed_lat, lateness, queue, service = [], [], [], [], [], []
    lat_due_ref, closed_lat_ref = [], []
    batched, cycles, fingerprints = [], [], set()
    counts = {"rejected": 0, "shed": 0, "degraded": 0}
    guard_rej = guard_roll = 0
    for phase, rows, facs in (("open", opened, opened_f), ("closed", closed, closed_f)):
        for (a, spec, due, t_sub, res), host in zip(rows, facs):
            rid = f"{phase}{a.index}"
            ok = _judge(checker, f"{rid} ({spec.operator.n} rows)", spec, res)
            out.count(ok)
            if res is None:
                continue
            if traced:
                _job_spans(spans, rid, due, t_sub, res)
            if res.status == "rejected":
                counts["rejected"] += 1
                counts["shed"] += res.cause == "shed"
            counts["degraded"] += res.status == "degraded"
            guard_rej += res.telemetry.corrections_rejected
            guard_roll += res.telemetry.rollbacks
            if res.batched:
                fingerprints.add(res.fingerprint)
                batched.append(res.batched)
                cycles.append(res.cycles)
            if phase == "open" and ok:
                lat = (t_sub - due) + res.latency_s
                lateness.append(t_sub - due)
                queue.append(res.queue_wait_s)
                service.append(res.service_s)
                if a.cold:
                    cold_lat.append(lat)
                else:
                    lat_due.append(lat)
                    lat_due_ref.append(lat * host)
            elif ok and not a.cold:
                closed_lat.append(res.latency_s)
                closed_lat_ref.append(res.latency_s * host)

    if not lat_due or not closed_lat or len(baseline.per_family) < len(inputs.WARM_SET):
        raise NoVerifiedAnswer(f"{profile.name}: a measured phase has no verified answer")
    if profile.cold_every and not cold_lat:
        raise NoVerifiedAnswer(f"{profile.name}: no verified cold job")

    # The tail comes from the closed loop, where every job meets the same
    # contention; open-loop tails hinge on how many Poisson arrivals
    # collide in the 2-worker pool (printed for reference).
    _, t_pct, t_n = tail(closed_lat)
    o_val, o_pct, o_n = tail(lat_due)
    out.notes += [
        f"open loop: {o_n} warm jobs, {len(cold_lat)} cold; p{o_pct:.1f} {o_val * 1e3:.1f} ms",
        f"closed loop: {t_n} warm jobs; latency_tail_ms is "
        + ("the maximum" if t_pct == 100.0 else f"p{t_pct:.1f}"),
    ]
    if profile.cold_every:
        out.notes.append(f"cold jobs: median latency {median(cold_lat) * 1e3:.1f} ms")
    out.samples = {"setup": setup, "open": lat_due, "closed": closed_lat, "cold": cold_lat,
                   "round_factor": factors,
                   **{f"baseline{f}": [w for w, _ in v] for f, v in baseline.per_family.items()}}
    setup_ref = [t * f for t, f in zip(setup, factors)]
    out.e2e = end_to_end(
        out, clock,
        scaled=timings(setup_ref, lat_due_ref, closed_lat_ref, goodput_jobs, closed_s_ref),
        measured=timings(setup, lat_due, closed_lat, goodput_jobs, closed_s),
    )
    if not traced:
        return out

    # -- per-layer numbers (traced run only) --
    costs = [probes.cycle_cost(s) for s in warm.solvers]
    flop_s = sum(costs[f][0] * c for f, v in baseline.per_family.items() for _, c in v)
    wall_s = sum(w for v in baseline.per_family.values() for w, _ in v)
    corr = np.sum([probes.correction_ms(s, inputs.rhs(s.n, inputs.probe_key(seed, f)))
                   for f, s in enumerate(warm.solvers)], axis=0)
    levels = [s.hierarchy.levels for s in warm.solvers]
    baseline_runs = [r for v in baseline.per_family.values() for r in v]
    q_tail = tail(queue)[0]
    out.layers = {
        "problems.assemble_s": median(assemble),
        "amg.setup_s": median(amg_setup),
        "amg.levels": float(sum(len(lv) for lv in levels)),
        "amg.operator_complexity": sum(l.nnz for lv in levels for l in lv)
        / sum(lv[0].nnz for lv in levels),
        **probes.cache_metrics(cache),
        **probes.kernel_metrics(request_stats),
        "kernels.flops_per_cycle": float(np.mean([c[0] for c in costs])),
        "kernels.bytes_per_cycle": float(np.mean([c[1] for c in costs])),
        "kernels.gflops": flop_s / wall_s / 1e9,
        "solvers.cycles_to_tol": median([c for _, c in baseline_runs]),
        "solvers.time_to_tol_s": float(np.mean([median([w for w, _ in v])
                                                for v in baseline.per_family.values()])),
        "solvers.cycle_ms": median([w / c for w, c in baseline_runs]) * 1e3,
        **{f"solvers.correction_ms.{g}": float(v) for g, v in zip(probes.GRIDS, corr)},
        "serve.queue_wait_ms.p50": median(queue) * 1e3,
        "serve.queue_wait_ms.tail": q_tail * 1e3,
        "serve.service_ms": median(service) * 1e3,
        "serve.overhead_ms": median(spans.self_times_of("service")) * 1e3,
        "serve.batch_mean": float(np.mean(batched)),
        "serve.cycles_mean": float(np.mean(cycles)),
        "serve.rejected": float(counts["rejected"]),
        "serve.shed": float(counts["shed"]),
        "serve.retries": float(retries),
        "serve.degraded": float(counts["degraded"]),
        "serve.solvers_held": float(len(fingerprints)),
        "load.lateness_ms": max(lateness) * 1e3,
        "guard.rejections": float(guard_rej),
        "guard.rollbacks": float(guard_roll),
    }
    out.notes += [
        "setupcache: the cold start misses once per warm operator and the baseline solvers hit;"
        " the server looks up the cache only for operators it holds no solver for"
        + (" (no evictions on this workload)" if not profile.cold_every else ""),
        "serve.solvers_held: distinct operators dispatched; the server keeps every solver",
        "serve.overhead_ms: service time outside solve_batch and cold set-up, per job",
        "procs.*: run_procs is not used on this workload",
    ]
    return out
