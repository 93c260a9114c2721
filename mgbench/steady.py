"""Steadiness tool: run a workload over several seeds and report the spread.

Usage (from the repository root)::

    python3 mgbench/steady.py --workload serve-warm --runs 10 [--first-seed 100]
        [--sets 2]

Each run is ``mgbench/run.py --trace 0`` with its own seed and
``run_seconds`` from ``BENCHMARK.json``.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the inter-quartile range as a
share of the median, and the metric's bound from ``BENCHMARK.json``;
``spread/bound`` above 1/3 is flagged.  With ``--sets 2`` the same seeds
run twice and the second set's spread and its median's change against
the first are printed beside the bound, as the acceptance check
compares them.  A last line gives the spreads of the timings as
measured, before host-speed scaling (``mgbench/hostprobe.py``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from mgbench.stats import spread  # noqa: E402

#: Marks the timings as measured, before host-speed scaling, in a run's note.
MEASURED = "as measured: "


def _measured(stdout: str) -> Dict[str, float]:
    for line in stdout.splitlines():
        if line.startswith("note: host probe:") and MEASURED in line:
            pairs = line.split(MEASURED, 1)[1].split(", ")
            return {k: float(v) for k, v in (p.split(" ") for p in pairs)}
    return {}


def _one(workload: str, seed: int, seconds: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  seed {seed}: {wall:.1f}s wall, attempted {result['attempted']}, "
          f"failed {result['failed']}", file=sys.stderr, flush=True)
    return values, _measured(proc.stdout)


def _table(spec: dict, runs: List[Dict[str, float]]) -> Dict[str, dict]:
    rows = {}
    for m in spec["end_to_end"]:
        s = spread([r[m["name"]] for r in runs])
        s["bound"] = m["bound"]
        rows[m["name"]] = s
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    sets = [[_one(args.workload, s, seconds) for s in seeds] for _ in range(args.sets)]
    tables = [_table(spec, [v for v, _ in runs]) for runs in sets]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{args.workload}: {args.runs} seeds from {args.first_seed}, "
          f"{seconds}s per run")
    print(f"{'metric':24} {'unit':7} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'2nd spread':>10} {'2nd vs 1st':>10}")
    steady = True
    for name, row in tables[0].items():
        spreads = [t[name]["spread"] for t in tables]
        flag = max(spreads) > row["bound"] / 3
        steady &= not flag
        second = ""
        if len(tables) == 2:
            second = f"{spreads[1]:10.3f} {tables[1][name]['median'] / row['median'] - 1:+10.3f}"
        print(f"{name:24} {units[name]:7} {row['median']:11.5g} {row['q1']:11.5g} "
              f"{row['q3']:11.5g} {row['spread']:7.3f} {row['bound']:6.3g} {second}"
              + ("  <- above bound/3" if flag else ""))
    print("as measured, before host-speed scaling: "
          + ", ".join(f"{name} spread " + " / ".join(
              f"{spread([m[name] for _, m in runs])['spread']:.3f}" for runs in sets)
              for name in sets[0][0][1]))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
