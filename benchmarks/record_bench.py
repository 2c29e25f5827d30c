"""Record the benchmark of one change as BENCH_<n>.json at the repo root.

Runs ``perfbench/run.py`` for the three workloads, untraced and traced,
at seeds 0 and 1000, for 25 s each as the benchmark does, and keeps every
JSON line it prints.  The same runs are made on a baseline checkout (say,
the parent commit) in alternating order, the untraced seed-0 runs ten
times each, so the file holds medians and quartiles per metric on both
sides and the number of pairs in which the change read lower.

Next to the runs it records the plan of every query of round 0 of each
workload at seed 0: ``max_factor_wires``, ``contractions``,
``grouped_steps``, ``swept`` (the wires summed inside their own factor),
``stepped`` (the nodes applied to a held summary before it was asked),
whether it read a summary (``summarized``), the node records its
network's base keeps after it (``records``), the order width and the
answer.  The perfbench per-layer counts are averaged over
however many rounds a run reaches, so they cannot show a plan change;
two BENCH files can be compared plan by plan instead.

Usage: python3 benchmarks/record_bench.py N BASELINE_DIR
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("marginals", "filter", "wide")
SEEDS = (0, 1000)
PLAN_SEED = 0
SECONDS = 25
# untraced seed-0 runs per side: enough pairs to tell a gain
PAIRS = 10
# one thread per process, as perfbench runs its workers
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS")}


def checkout_info(path: Path) -> dict:
    """The commit a checkout stands on, whether its program differs from
    that commit, and a digest of the program's source files."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(path), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None
    digest = hashlib.sha256()
    for f in sorted((path / "src").rglob("*.py")):
        digest.update(f.relative_to(path).as_posix().encode())
        digest.update(f.read_bytes())
    status = git("status", "--porcelain", "--", "src", "perfbench")
    return {"sha": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import scipy
    return {"cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def bench_run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run([sys.executable, *cmd], cwd=checkout,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": done.returncode, "result": result}


def plans(checkout: Path) -> dict:
    """Round 0 of each workload at PLAN_SEED, run by that checkout's
    ``perfbench/worker.py`` pass, with the order and stats of every query.

    They are taken by wrapping the ``scheduled_eliminate`` that
    ``pnbayes.reason`` calls, as the worker's tracer does, and matched to
    the query whose answer comes next.  A query without a plan or without
    an answer is recorded as an error entry; a failed update fails every
    query left in its session, as in the worker.
    """
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import worker
    import workloads
    from pnbayes import reason

    eliminate = reason.scheduled_eliminate
    out = {}
    for workload in WORKLOADS:
        sessions = workloads.round_sessions(workload, PLAN_SEED, 0)
        done, taken = worker.Pass(), {}

        def record(net, *args, **kwargs):
            result = eliminate(net, *args, **kwargs)
            taken[len(done.answers)] = (*result[1:],
                                        len(net.preparation.nodes))
            return result
        reason.scheduled_eliminate = record
        try:
            done.run(worker.program_inputs(sessions))
        finally:
            reason.scheduled_eliminate = eliminate
        asked = [place for s in sessions for *_, queries in s["steps"]
                 for place in queries]
        queries = []
        for k, (place, value) in enumerate(zip(asked, done.answers)):
            if value is None or k not in taken:
                error = "no answer" if value is None else "no plan"
                queries.append({"place": place, "error": error})
                continue
            order, stats, records = taken[k]
            queries.append({
                "place": place, "value": value,
                "max_factor_wires": stats.max_factor_wires,
                "contractions": stats.contractions,
                "grouped_steps": stats.grouped_steps,
                # a checkout older than the count has no swept wires
                "swept": getattr(stats, "swept", None),
                # nor steps: it never steps a summary
                "stepped": getattr(stats, "stepped", 0),
                "summarized": stats.summarized, "records": records,
                "width": order.width})
        out[workload] = queries
    return out


def plans_of(checkout: Path) -> dict:
    """``plans`` in a process of its own, importing that checkout's
    program."""
    done = subprocess.run(
        [sys.executable, __file__, "--plans-of", str(checkout)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, **SINGLE_THREAD))
    return json.loads(done.stdout)


def summary(runs: dict[str, list[dict]]) -> dict:
    """Median and quartiles of each untraced metric per workload and seed,
    and the number of pairs in which the change read lower."""
    table: dict = {}
    for label, side in runs.items():
        for run in side:
            if run["trace"] or run["result"] is None:
                continue
            key = f"{run['workload']}/seed{run['seed']}"
            for name, metric in run["result"]["metrics"].items():
                table.setdefault(key, {}).setdefault(name, {}).setdefault(
                    label, []).append(metric["value"])
    for metrics in table.values():
        for name, sides in metrics.items():
            values = dict(sides)
            for label, vals in values.items():
                q1, med, q3 = np.percentile(vals, [25, 50, 75])
                sides[label] = {"n": len(vals), "median": med, "q1": q1,
                                "q3": q3, "values": vals}
            if len(values) == 2:
                base, change = values["baseline"], values["change"]
                sides["change_lower_pairs"] = sum(
                    c < b for b, c in zip(base, change))
    return table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("number", nargs="?", type=int)
    ap.add_argument("baseline", nargs="?", type=Path)
    ap.add_argument("--plans-of", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.plans_of is not None:
        print(json.dumps(plans(args.plans_of.resolve())))
        return 0
    if args.number is None or args.baseline is None:
        ap.error("the BENCH number and the baseline checkout are required")

    sides = {"baseline": args.baseline.resolve(), "change": ROOT}
    # before the timed runs, so a failing plan costs no recording
    plan_table = {label: plans_of(path) for label, path in sides.items()}
    configs = [(w, 0, 0) for _ in range(PAIRS) for w in WORKLOADS]
    configs += [(w, seed, trace) for trace in (0, 1) for seed in SEEDS
                for w in WORKLOADS if (seed, trace) != (0, 0)]
    runs: dict[str, list[dict]] = {label: [] for label in sides}
    for i, (workload, seed, trace) in enumerate(configs):
        order = list(sides.items())
        if i % 2:
            order.reverse()
        for label, path in order:
            run = bench_run(path, workload, seed, trace)
            runs[label].append(run)
            print(label, json.dumps(run), flush=True)
    doc = {
        "number": args.number,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace T",
        "machine": machine_info(),
        "checkouts": {label: checkout_info(path)
                      for label, path in sides.items()},
        "runs": runs,
        "summary": summary(runs),
        "plans": plan_table,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["exit"] == 0 for side in runs.values()
                    for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
