"""The benchmark's own tests.

Fast tests cover input generation, the statistics and the span maths;
the rest run ``mgbench/run.py`` as a subprocess with short run lengths
(about two minutes in all).  Run with ``python3 -m pytest mgbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mgbench import hostprobe, inputs, stats
from mgbench.metrics import E2E, PER_LAYER
from mgbench.run import EXIT_ARGS, EXIT_CHECK, EXIT_NO_PROGRAM, EXIT_OVERRUN, EXIT_SIGTERM
from mgbench.spans import Span, Spans

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "mgbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT, code: str = "") -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-c", code, *args] if code else [sys.executable, str(RUN), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=240)


def _result(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


# -- inputs -------------------------------------------------------------
@pytest.mark.parametrize("profile", list(inputs.SERVE_PROFILES.values()), ids=str)
def test_same_seed_gives_identical_inputs(profile):
    a = inputs.open_schedule(profile, 7, 60)
    b = inputs.open_schedule(profile, 7, 60)
    assert a == b
    assert inputs.open_schedule(profile, 7, 25) == a[:25]
    closed_a, closed_b = inputs.closed_jobs(profile, 7), inputs.closed_jobs(profile, 7)
    assert [next(closed_a) for _ in range(100)] == [next(closed_b) for _ in range(100)]
    for job in a[:5]:
        assert np.array_equal(inputs.rhs(500, job.rhs_key), inputs.rhs(500, job.rhs_key))
    key = inputs.large_rhs_key(7, 3)
    assert np.array_equal(inputs.rhs(500, key), inputs.rhs(500, key))


@pytest.mark.parametrize("profile", list(inputs.SERVE_PROFILES.values()), ids=str)
def test_other_seed_keeps_composition(profile):
    njobs = 120
    schedules = [inputs.open_schedule(profile, seed, njobs) for seed in (1, 2, 3)]
    assert schedules[0] != schedules[1]
    mix, nten = sorted(inputs.MIX), len(inputs.TENANTS)
    for sched in schedules:
        warm = [a for a in sched if not a.cold]
        cold = [a for a in sched if a.cold]
        for jobs in (warm, cold):
            for i in range(0, len(jobs) - len(mix) + 1, len(mix)):
                assert sorted(a.family for a in jobs[i:i + len(mix)]) == mix
        for i in range(0, njobs, nten):
            assert sorted(a.tenant for a in sched[i:i + nten]) == sorted(inputs.TENANTS)
        if profile.cold_every:
            for i in range(0, njobs, profile.cold_every):
                assert sum(a.cold for a in sched[i:i + profile.cold_every]) == 1
            lo, hi = inputs.SHIFT_RANGE
            assert all(lo <= a.shift <= hi for a in cold)
        else:
            assert not cold
        # Poisson arrivals at the profile's rate: mean span njobs / rate
        assert abs(sched[-1].due_s * profile.open_rate / njobs - 1) < 0.35
        assert all(b.due_s > a.due_s for a, b in zip(sched, sched[1:]))


# -- statistics and spans -----------------------------------------------
def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = stats.tail([float(v) for v in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert stats.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0, 20)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_spread_uses_statistics_quartiles():
    s = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0 and s["q1"] == 1.5 and s["q3"] == 4.5
    assert s["spread"] == pytest.approx(1.0)


def test_self_time_subtracts_children_union():
    spans = Spans(enabled=True)
    spans.add(Span("job", "serve", 0.0, 10.0, "p"))
    for i, (a, b) in enumerate([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]):
        spans.add(Span("child", "solvers", a, b, f"c{i}", "p"))
    selft = spans.self_times()
    assert selft["serve"] == pytest.approx(4.0)
    assert selft["solvers"] == pytest.approx(2.0 + 3.0 + 4.0)


def test_disabled_spans_record_nothing():
    spans = Spans(enabled=False)
    with spans.span("x", "amg"):
        pass
    assert spans.records == []


def test_host_probe_runs_none_of_the_program():
    from repro import kernels

    was_on = kernels.enable_stats(True)
    try:
        before = kernels.stats()
        clock = hostprobe.HostClock()
        times = clock.run(3)
        assert kernels.stats_delta(before) == {}
    finally:
        kernels.enable_stats(was_on)
    assert clock.times == times and len(times) == 3 and all(t > 0 for t in times)


def test_host_clock_scales_to_the_reference_speed():
    slow = [2 * hostprobe.REFERENCE_S] * 3  # a host at half the reference speed
    assert hostprobe.factor(slow + [hostprobe.REFERENCE_S]) == pytest.approx(0.5)


def test_metric_table_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


# -- whole runs -----------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "provenance: " in proc.stdout


def test_traced_run_emits_every_per_layer_metric():
    proc = _run("--workload", "serve-churn", "--seed", "3", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert result["metrics"]["trace.overhead"]["value"] > 0
    spans = ROOT / "mgbench" / "out" / "serve-churn-seed3-trace.spans.jsonl"
    layers = {json.loads(line)["layer"] for line in spans.read_text().splitlines()}
    assert {"problems", "amg", "solvers", "serve"} <= layers


def test_wrong_answer_fails_the_command():
    code = (
        "import sys; sys.path[:0] = ['.', 'src']\n"
        "import repro.serve.server as srv\n"
        "import mgbench.run as run\n"
        "real = srv.solve_batch\n"
        "calls = []\n"
        "def wrong(*a, **k):\n"
        "    outs = real(*a, **k)\n"
        "    if not calls:\n"
        "        outs[0].x[0] += 1.0\n"
        "    calls.append(1)\n"
        "    return outs\n"
        "srv.solve_batch = wrong\n"
        "sys.exit(run.main(sys.argv[1:]))\n"
    )
    proc = _run("--workload", "serve-warm", "--seed", "3", "--seconds", "1", code=code)
    assert proc.returncode == EXIT_CHECK
    result = _result(proc)
    assert result["correct"] is False and result["failed"] == 1
    assert result["metrics"]["ok_share"]["value"] < 1.0
    assert "check failed" in proc.stderr


def test_no_verified_answer_fails_the_command():
    code = (
        "import sys; sys.path[:0] = ['.', 'src']\n"
        "import repro.serve.server as srv\n"
        "import mgbench.run as run\n"
        "real = srv.solve_batch\n"
        "def wrong(*a, **k):\n"
        "    outs = real(*a, **k)\n"
        "    for out in outs:\n"
        "        out.x[:] = 0.0\n"
        "    return outs\n"
        "srv.solve_batch = wrong\n"
        "sys.exit(run.main(sys.argv[1:]))\n"
    )
    proc = _run("--workload", "serve-warm", "--seed", "3", "--seconds", "1", code=code)
    assert proc.returncode == EXIT_CHECK
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0 and result["metrics"] == {}


@pytest.mark.parametrize(
    "args",
    [
        ["--workload", "serve-warm", "--seconds", "1"],
        ["--workload", "nope", "--seed", "1", "--seconds", "1"],
        ["--workload", "serve-warm", "--seed", "1", "--seconds", "0"],
        ["--workload", "serve-warm", "--seed", "-1", "--seconds", "1"],
    ],
)
def test_bad_arguments_exit_2(args):
    proc = _run(*args)
    assert proc.returncode == EXIT_ARGS
    assert proc.stdout == ""


def test_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "mgbench", tmp_path / "mgbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "mgbench/run.py", "--workload", "serve-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_NO_PROGRAM
    assert proc.stdout == ""


def test_overrun_exits_4_without_a_result():
    code = (
        "import sys; sys.path.insert(0, '.')\n"
        "import mgbench.run as run\n"
        "run.TIME_LIMIT_S = 3\n"
        "sys.exit(run.main(sys.argv[1:]))\n"
    )
    proc = _run("--workload", "serve-warm", "--seed", "1", "--seconds", "30", code=code)
    assert proc.returncode == EXIT_OVERRUN
    assert proc.stdout == ""


def _children(pid: int) -> set:
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return {int(p) for p in path.read_text().split()} if path.exists() else set()


def _alive(pid: int) -> bool:
    status = Path(f"/proc/{pid}/status")
    return status.exists() and "\nState:\tZ" not in status.read_text()


def _shm() -> set:
    return {p.name for p in Path("/dev/shm").glob("psm_*")}


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_sigterm_stops_every_process_and_segment():
    shm_before = _shm()
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "solve-large", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        seen: set = set()
        deadline = time.monotonic() + 150
        while len(seen) < 2 and time.monotonic() < deadline:  # tracker + a worker
            seen |= _children(proc.pid)
            time.sleep(0.05)
        assert len(seen) >= 2, "run_procs workers never started"
        seen |= _children(proc.pid)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == EXIT_SIGTERM
    assert '"metrics"' not in out
    time.sleep(0.5)
    assert not [pid for pid in seen if _alive(pid)]
    assert _shm() - shm_before == set()

