"""Seeded workload inputs.

Everything a workload sends to the program is generated here, from the
``--seed`` argument alone: right-hand sides, arrival schedules, the
operator mix, tenants and the never-seen operators of ``serve-churn``.
The same seed gives the same inputs; another seed keeps the
composition (the operator, tenant and cold-job shares are stratified,
so every block of consecutive jobs holds each kind exactly once).

Streams are separated by a stream id in the generator key, so the
open-loop schedule does not shift when the closed loop draws more jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

#: The large solve problem: the 27-point 3-D Laplacian at grid 32.
LARGE_PROBLEM: Tuple[str, int] = ("27pt", 32)

#: Warm operator set of the serve workloads: (registry family, size).
WARM_SET: Tuple[Tuple[str, int], ...] = (
    ("7pt", 16),
    ("27pt", 12),
    ("mfem_laplace", 16),
    ("5pt", 64),
)

#: Family of each slot of the operator mix: 7pt-16 twice, the others
#: once.  Every run of ``len(MIX)`` consecutive warm jobs (and,
#: separately, of cold jobs) holds each slot once.  The doubled family
#: is the one with the median service time, so the latency median falls
#: inside one family's cluster instead of in the gap between two.
MIX: Tuple[int, ...] = (0, 0, 1, 2, 3)

TENANTS: Tuple[str, ...] = ("tenant-a", "tenant-b", "tenant-c")

#: Shift range of serve-churn's new operators, as a share of the mean
#: diagonal: ``A + shift * mean(diag(A)) * I``.
SHIFT_RANGE: Tuple[float, float] = (0.01, 0.2)

#: Outstanding tickets in the closed loop.
CLOSED_K = 4

# Generator stream ids (second element of every generator key).
_LARGE_RHS = 0
_OPEN = 1
_CLOSED = 2
_BASELINE = 3
_WARMUP = 4
_GAPS = 5
_PROBE = 6


@dataclass(frozen=True)
class ServeProfile:
    """Load shape of one serve workload."""

    name: str
    #: open-loop Poisson arrival rate, jobs/s
    open_rate: float
    #: one job in ``cold_every`` brings a never-seen operator (0 = none)
    cold_every: int


SERVE_PROFILES = {
    "serve-warm": ServeProfile("serve-warm", open_rate=4.0, cold_every=0),
    "serve-churn": ServeProfile("serve-churn", open_rate=3.0, cold_every=4),
}


@dataclass(frozen=True)
class Arrival:
    """One generated job."""

    index: int
    #: due time, seconds after the phase starts (0 in a closed loop)
    due_s: float
    #: index into :data:`WARM_SET`
    family: int
    tenant: str
    #: generator key of the right-hand side
    rhs_key: Tuple[int, ...]
    #: 0 for a warm operator; else the shift of a never-seen operator
    shift: float = 0.0

    @property
    def cold(self) -> bool:
        return self.shift > 0.0


def rhs(n: int, key: Tuple[int, ...]) -> np.ndarray:
    """Uniform ``[-1, 1]`` right-hand side (the paper's RHS) for a key."""
    return np.random.default_rng(list(key)).uniform(-1.0, 1.0, size=n)


def large_rhs_key(seed: int, i: int) -> Tuple[int, ...]:
    return (seed, _LARGE_RHS, i)


def _stratified(rng: np.random.Generator, k: int, count: int) -> List[int]:
    """``count`` draws where every block of ``k`` is a permutation of ``range(k)``."""
    out: List[int] = []
    while len(out) < count:
        out.extend(int(v) for v in rng.permutation(k))
    return out[:count]


def _jobs(
    profile: ServeProfile, seed: int, stream: int, start: int, count: int
) -> List[Arrival]:
    """Jobs ``start .. start+count`` of one stream, due times left at 0.

    Blocks are drawn from a generator keyed by the block number, so
    job ``i`` is the same whether it was drawn alone or in a batch.  In
    a block, one job in each run of ``cold_every`` is cold; warm and
    cold jobs take their families from separate stratified sequences.
    """
    every = max(1, profile.cold_every)
    block = len(MIX) * len(TENANTS) * every
    out: List[Arrival] = []
    for b in range(start // block, (start + count - 1) // block + 1):
        rng = np.random.default_rng([seed, stream, b])
        cold = [False] * block
        if profile.cold_every:
            for pos in range(0, block, every):
                cold[pos + int(rng.integers(every))] = True
        ncold = sum(cold)
        warm_fam = iter(MIX[k] for k in _stratified(rng, len(MIX), block - ncold))
        cold_fam = iter(MIX[k] for k in _stratified(rng, len(MIX), ncold))
        ten = _stratified(rng, len(TENANTS), block)
        shifts = rng.uniform(*SHIFT_RANGE, size=block)
        for j in range(block):
            family = next(cold_fam if cold[j] else warm_fam)
            i = b * block + j
            if start <= i < start + count:
                out.append(
                    Arrival(
                        index=i,
                        due_s=0.0,
                        family=family,
                        tenant=TENANTS[ten[j]],
                        rhs_key=(seed, stream, i),
                        shift=float(shifts[j]) if cold[j] else 0.0,
                    )
                )
    return out


def open_schedule(profile: ServeProfile, seed: int, njobs: int) -> List[Arrival]:
    """``njobs`` open-loop jobs with Poisson arrivals at the profile's rate."""
    jobs = _jobs(profile, seed, _OPEN, 0, njobs)
    gaps = np.random.default_rng([seed, _GAPS]).exponential(
        1.0 / profile.open_rate, size=njobs
    )
    due = np.cumsum(gaps)
    return [
        Arrival(a.index, float(t), a.family, a.tenant, a.rhs_key, a.shift)
        for a, t in zip(jobs, due)
    ]


def closed_jobs(profile: ServeProfile, seed: int) -> Iterator[Arrival]:
    """Endless closed-loop job stream (same composition rules)."""
    start = 0
    while True:
        yield from _jobs(profile, seed, _CLOSED, start, 64)
        start += 64


def baseline_key(seed: int, family: int, j: int) -> Tuple[int, ...]:
    """RHS key of the ``j``-th direct-call baseline solve of a family."""
    return (seed, _BASELINE, family, j)


def warmup_key(seed: int, start: int, family: int) -> Tuple[int, ...]:
    """RHS key of the first job per operator in a cold server start."""
    return (seed, _WARMUP, start, family)


def probe_key(seed: int, family: int) -> Tuple[int, ...]:
    """RHS key of the traced run's per-grid correction probe."""
    return (seed, _PROBE, family)
