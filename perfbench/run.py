"""Benchmark of the symbolic engine on three workloads.

    python3 perfbench/run.py --workload marginals|filter|wide \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in its own
single-threaded worker process (``worker.py``).  Set-up time is measured
here, from starting a worker to its ``ready`` line: SETUP_PROBES extra
workers do nothing but set up, and ``setup_s`` is the median over them and
the measuring worker.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every answer matched the reference, 1 otherwise, and no result
is printed when the worker cannot start.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 4
# a run stops measuring after --seconds; the rest of this budget covers
# set-up, the last round and the reference check
RUN_BUDGET_S = 170.0
# one thread per process, so numpy cannot spread work over the other core
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS")}


def start_worker(args: list[str], deadline: float
                 ) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and its set-up time in seconds."""
    env = dict(os.environ, **SINGLE_THREAD)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc, deadline)
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def stop(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the worker until the deadline, killing it after; returns
    what it printed after ``ready``."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(),
                                              1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.MAKERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(["--setup-only"], deadline)
        setups.append(setup)
        stop(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    proc, setup = start_worker(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline)
    setups.append(setup)
    out = stop(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
