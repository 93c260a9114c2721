"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 mgbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the run measures the workload untraced and then traced (same seed, half
the seconds each) and prints the per-layer metrics, ``trace.overhead`` among them.  Lines
before it give the provenance, the sample counts and the per-layer
notes.  Results and spans are also written under ``mgbench/out/``.

Exit codes: 0 ok; 1 an answer failed its check; 2 bad arguments; 3 the
program (``src/repro``) is not there; 4 the run overran its time limit;
5 an unexpected error; 143 terminated by SIGTERM.  Only exit code 0 and
1 print a result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import sys
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

#: ``serve-churn`` runs but is not in BENCHMARK.json (see README.md).
WORKLOADS = ("solve-large", "serve-warm", "serve-churn")
OUT_DIR = Path(__file__).resolve().parent / "out"

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_ARGS = 2
EXIT_NO_PROGRAM = 3
EXIT_OVERRUN = 4
EXIT_ERROR = 5
EXIT_SIGTERM = 128 + signal.SIGTERM

#: Wall-clock limit of one run, seconds (a run must end within 180).
TIME_LIMIT_S = 170
#: Rounds per run; traced runs use one.  Each round begins with a cold
#: set-up, so ``setup_s`` is the median of this many.
ROUNDS = {"solve-large": 4, "serve-warm": 6, "serve-churn": 6}


class Overrun(BaseException):
    """Raised in the main thread when the run exceeds its time limit."""


class Terminated(BaseException):
    """Raised in the main thread on SIGTERM, so teardown runs."""


def _raise(exc: type) -> Callable[[int, Any], None]:
    def handler(signum: int, frame: Any) -> None:
        raise exc()

    return handler


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def provenance() -> Dict[str, object]:
    """Where the numbers came from (``benchmarks._common.identity_block``)."""
    import numpy
    import scipy

    from benchmarks._common import commit_hash, identity_block
    from repro import kernels

    return identity_block(
        "mgbench",
        measured=True,
        commit=commit_hash(),
        nproc=os.cpu_count() or 1,
        kernel_backend=kernels.current_backend(),
        numba=importlib.util.find_spec("numba") is not None,
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
    )


def _measure(workload: str, seed: int, seconds: int, traced: bool, checker, rounds: int):
    from mgbench import inputs, serve_load, solve_large
    from mgbench.spans import Spans
    from repro import kernels

    spans = Spans(enabled=traced)
    stats_were_on = kernels.enable_stats(traced)
    try:
        if workload == "solve-large":
            out = solve_large.run(seed, seconds, spans, checker, rounds)
        else:
            profile = inputs.SERVE_PROFILES[workload]
            out = serve_load.run(profile, seed, seconds, spans, checker, rounds)
    finally:
        kernels.enable_stats(stats_were_on)
    return out, spans


def _run(args: argparse.Namespace) -> int:
    from mgbench.checks import Checker, NoVerifiedAnswer

    checker = Checker()
    try:
        return _report(args, checker)
    except NoVerifiedAnswer as exc:
        for line in checker.failures:
            print(f"check failed: {line}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": checker.checked,
                          "failed": len(checker.failures), "metrics": {}}))
        return EXIT_CHECK


def _report(args: argparse.Namespace, checker) -> int:
    from mgbench.metrics import E2E, PER_LAYER, SELFTIME

    if args.trace:
        # Untraced reference, then the traced run: same seed, one set-up
        # and half the seconds each.
        half = max(1, args.seconds // 2)
        base, _ = _measure(args.workload, args.seed, half, False, checker, 1)
        out, spans = _measure(args.workload, args.seed, half, True, checker, 1)
        out.attempted += base.attempted
        out.failed += base.failed
        for layer, secs in spans.self_times().items():
            if layer in SELFTIME:
                out.layers[SELFTIME[layer]] = secs
        out.layers["trace.overhead"] = out.e2e["latency_p50_ms"] / base.e2e["latency_p50_ms"]
        for name in PER_LAYER:  # layers this workload does not reach (see notes)
            out.layers.setdefault(name, 0.0)
        names, values = PER_LAYER, out.layers
        tag = f"{args.workload}-seed{args.seed}-trace"
        spans.write(OUT_DIR / f"{tag}.spans.jsonl")
    else:
        out, _ = _measure(args.workload, args.seed, args.seconds, False, checker,
                          ROUNDS[args.workload])
        names, values = E2E, out.e2e
        tag = f"{args.workload}-seed{args.seed}"

    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in names.items()
    }
    failed = out.failed
    correct = not checker.failures
    prov = provenance()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "provenance": prov, "notes": out.notes, "check_failures": checker.failures,
             "attempted": out.attempted, "failed": failed, "metrics": metrics,
             "e2e": out.e2e, "layers": out.layers, "samples": out.samples},
            indent=2,
        )
        + "\n"
    )
    for line in checker.failures:
        print(f"check failed: {line}", file=sys.stderr)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for note in out.notes:
        print(f"note: {note}")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": failed,
                      "metrics": metrics}))
    return EXIT_OK if correct else EXIT_CHECK


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this run started it."""
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)  # private, Python >= 3.8
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is not there (no {ROOT / 'src' / 'repro'})", file=sys.stderr)
        return EXIT_NO_PROGRAM
    signal.signal(signal.SIGTERM, _raise(Terminated))
    signal.signal(signal.SIGALRM, _raise(Overrun))
    signal.alarm(TIME_LIMIT_S)
    try:
        return _run(args)
    except Overrun:
        print(f"error: run exceeded {TIME_LIMIT_S}s", file=sys.stderr)
        return EXIT_OVERRUN
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return EXIT_SIGTERM
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR
    finally:
        signal.alarm(0)
        _stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
