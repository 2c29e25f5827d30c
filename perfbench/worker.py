"""One workload in one single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1
    python3 perfbench/worker.py --setup-only

The worker imports the program from ``src/`` next to this directory, runs
one warm-up query and prints ``ready``; everything up to that line is the
set-up that ``run.py`` times.  With ``--setup-only`` it stops there.

Otherwise it works through whole rounds of sessions (see
``workloads.py``) until ``--seconds`` have passed, then checks every
answer against the brute-force reference and prints one JSON line: the
end-to-end metrics without ``setup_s`` (``--trace 0``), or the per-layer
metrics of the traced run (``--trace 1``).  The traced run runs every round
twice, once plain and once traced, in alternating order; the two must give
bit-identical answers.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

# One fixed core: on a shared two-core machine, a worker left free to
# migrate ran numpy work about 1.5x slower and twice as unevenly.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from pnbayes import kernels, mbn, reason  # noqa: E402
from pnbayes.errors import PnbayesError  # noqa: E402
from pnbayes.petri import CENet, StepSpec  # noqa: E402

import check_reference  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

MARGINAL_ATOL = 1e-6
MASS_RTOL = 1e-6


def warm_up() -> None:
    """One update and two queries on a fixed four-place net."""
    net = CENet(("K1", "K2", "K3", "K4"), (
        ("d1", ("K1",), ("K1", "K2")), ("d2", ("K2",), ("K1", "K2")),
        ("d3", ("K1",), ("K1", "K3")), ("d4", ("K3",), ("K1", "K3", "K4"))))
    prior = reason.PriorSpec(marginals=tuple((p, 0.5) for p in net.places))
    step = StepSpec("stochastic", {"d1": 0.25, "d2": 0.5, "d3": 0.25})
    posterior = reason.run(reason.ObservationTrace(
        net, prior, ((step, "success"),)))
    posterior.marginal(["K3"])
    posterior.mass()


def program_inputs(sessions):
    """The values the program receives, built fresh for every pass so no
    pass can reuse state another pass left on them."""
    out = []
    for s in sessions:
        net = CENet(s["places"], s["transitions"])
        prior = reason.PriorSpec(marginals=s["prior"])
        steps = [(StepSpec(sem, w), obs, queries)
                 for sem, w, obs, queries in s["steps"]]
        out.append((net, prior, steps))
    return out


class Pass:
    """The operations of one pass over one round, with their latencies."""

    def __init__(self):
        self.answers: list[float | None] = []
        self.update_s: list[float] = []
        self.query_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, inputs, tracer=None) -> None:
        for net, prior, steps in inputs:
            if tracer is not None:
                tracer.places = len(net.places)
            state = prior.as_mbn(net)
            for k, (step, obs, queries) in enumerate(steps):
                t0 = time.perf_counter()
                try:
                    up = mbn.build_update(net, step)
                    state = mbn.attach_update(state, up, obs, step_index=k)
                except PnbayesError:
                    self._abandon(steps[k:])
                    break
                self.update_s.append(time.perf_counter() - t0)
                self.attempted += 1
                posterior = reason.Posterior(net, state)
                for place in queries:
                    self.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        if place is None:
                            value = posterior.mass()
                        else:
                            value = posterior.marginal([place]).entry(1)
                    except PnbayesError:
                        self.failed += 1
                        self.answers.append(None)
                        continue
                    self.query_s.append(time.perf_counter() - t0)
                    self.answers.append(value)

    def _abandon(self, rest) -> None:
        """A failed update fails every operation left in its session."""
        asked = sum(len(queries) for _, _, queries in rest)
        self.attempted += len(rest) + asked
        self.failed += len(rest) + asked
        self.answers += [None] * asked


class Tracer:
    """Per-layer totals, taken by wrapping the public functions of each
    layer from outside the program: the update constructor and attacher
    of ``pnbayes.mbn``, the ``scheduled_eliminate`` that ``pnbayes.reason``
    calls, and the contraction kernel ``pnbayes.kernels.sum_product_pair``.
    """

    def __init__(self):
        self.places = 0
        self.ms = {"build_update": 0.0, "attach_update": 0.0,
                   "eliminate": 0.0, "kernel": 0.0}
        self.count = {"contractions": 0, "grouped_steps": 0,
                      "escalated_queries": 0, "over_places": 0,
                      "kernel_calls": 0}
        self.peak = {"ell": 0, "width": 0, "kernel_wires": 0}
        self.kernel_out_bytes = 0
        self._saved = []

    def install(self) -> None:
        self._saved = [(mbn, "build_update", mbn.build_update),
                       (mbn, "attach_update", mbn.attach_update),
                       (reason, "scheduled_eliminate",
                        reason.scheduled_eliminate),
                       (kernels, "sum_product_pair",
                        kernels.sum_product_pair)]
        mbn.build_update = self._build_update(mbn.build_update)
        mbn.attach_update = self._timed("attach_update", mbn.attach_update)
        reason.scheduled_eliminate = self._eliminate(
            reason.scheduled_eliminate)
        kernels.sum_product_pair = self._kernel(kernels.sum_product_pair)

    def remove(self) -> None:
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved = []

    def _timed(self, key, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[key] += (time.perf_counter() - t0) * 1e3
        return wrapper

    def _build_update(self, fn):
        timed = self._timed("build_update", fn)

        def wrapper(*args, **kwargs):
            up = timed(*args, **kwargs)
            self.peak["ell"] = max(self.peak["ell"], up.ell)
            return up
        return wrapper

    def _eliminate(self, fn):
        timed = self._timed("eliminate", fn)

        def wrapper(*args, **kwargs):
            calls = self.count["kernel_calls"]
            result = timed(*args, **kwargs)
            stats = result[2]
            grouped = stats.contractions - (self.count["kernel_calls"] - calls)
            self.count["contractions"] += stats.contractions
            self.count["grouped_steps"] += grouped
            self.count["escalated_queries"] += grouped > 0
            self.count["over_places"] += stats.max_factor_wires > self.places
            self.peak["width"] = max(self.peak["width"],
                                     stats.max_factor_wires)
            return result
        return wrapper

    def _kernel(self, fn):
        timed = self._timed("kernel", fn)

        def wrapper(tables, slots, out_bits):
            self.count["kernel_calls"] += 1
            self.peak["kernel_wires"] = max(self.peak["kernel_wires"],
                                            out_bits + 1)
            table = timed(tables, slots, out_bits)
            self.kernel_out_bytes += table.nbytes
            return table
        return wrapper

    def metrics(self, rounds: int, query_ms: float,
                overhead_s: float) -> dict:
        """Per-layer metrics: times and counts per round, peaks over the
        run.  ``query_ms`` is the total traced query time."""
        ms, n = self.ms, self.count

        def per_round(value, unit):
            return {"value": value / rounds, "unit": unit}

        def peak(value, unit):
            return {"value": value, "unit": unit}
        return {
            "mbn.build_update_ms": per_round(ms["build_update"], "ms"),
            "mbn.attach_update_ms": per_round(ms["attach_update"], "ms"),
            "mbn.max_ell": peak(self.peak["ell"], "places"),
            "eliminate.ms": per_round(ms["eliminate"], "ms"),
            "eliminate.self_ms": per_round(ms["eliminate"] - ms["kernel"],
                                           "ms"),
            "eliminate.contractions": per_round(n["contractions"], "count"),
            "eliminate.grouped_steps": per_round(n["grouped_steps"], "count"),
            "eliminate.escalated_queries": per_round(n["escalated_queries"],
                                                     "count"),
            "eliminate.width_max": peak(self.peak["width"], "wires"),
            "eliminate.over_places": per_round(n["over_places"], "count"),
            "kernels.ms": per_round(ms["kernel"], "ms"),
            "kernels.calls": per_round(n["kernel_calls"], "count"),
            "kernels.max_wires": peak(self.peak["kernel_wires"], "wires"),
            "kernels.out_mb": per_round(self.kernel_out_bytes / 1e6, "MB"),
            "reason.query_self_ms": per_round(query_ms - ms["eliminate"],
                                              "ms"),
            "trace.overhead_s": peak(overhead_s, "s"),
        }


def check_answers(sessions, answers) -> bool:
    """Compare the program's answers with the brute-force reference:
    marginals to MARGINAL_ATOL, masses to MASS_RTOL relative.  Answers of
    failed operations (None) are skipped."""
    check_reference.check()
    want = [(value, place is None)
            for s in sessions for value, place in zip(
                reference.answers(s),
                [p for _, _, _, queries in s["steps"] for p in queries])]
    if len(want) != len(answers):
        return False
    for (ref, is_mass), got in zip(want, answers):
        if got is None:
            continue
        if is_mass:
            if abs(got - ref) > MASS_RTOL * abs(ref):
                return False
        elif abs(got - ref) > MARGINAL_ATOL:
            return False
    return True


def timed_pass(inputs, tracer=None):
    done = Pass()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        done.run(inputs, tracer)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.remove()
    return done, wall


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.MAKERS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not Path(reason.__file__).resolve().is_relative_to(SRC):
        print(f"pnbayes imported from {reason.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # rounds[i] holds round i's sessions; passes[i] its plain pass and, in
    # the traced run, its traced pass
    rounds, passes = [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(workloads.round_sessions(args.workload, args.seed,
                                               len(rounds)))
        if tracer is None:
            passes.append([timed_pass(program_inputs(rounds[-1]))])
            continue
        # the traced run runs every round plain and traced back to back,
        # in alternating order so neither always runs second
        traced_first = len(rounds) % 2 == 0
        pair = [timed_pass(program_inputs(rounds[-1]),
                           tracer if use else None)
                for use in (traced_first, not traced_first)]
        passes.append(pair[::-1] if traced_first else pair)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024e-6

    # the plain and traced passes of a round must give bit-identical
    # answers, and the plain one must match the reference
    plain = [pair[0] for pair in passes]
    correct = all(done.answers == pair[0][0].answers
                  for pair in passes for done, _ in pair)
    correct = correct and check_answers(
        [s for batch in rounds for s in batch],
        [a for done, _ in plain for a in done.answers])
    attempted = sum(done.attempted for pair in passes for done, _ in pair)
    failed = sum(done.failed for pair in passes for done, _ in pair)
    if tracer is None:
        query_ms = [t * 1e3 for done, _ in plain for t in done.query_s]
        update_ms = [t * 1e3 for done, _ in plain for t in done.update_s]
        p50, p90 = np.percentile(query_ms, [50, 90])
        metrics = {
            "wall_s": {"value": float(np.mean([w for _, w in plain])),
                       "unit": "s"},
            "query_ms_p50": {"value": float(p50), "unit": "ms"},
            "query_ms_p90": {"value": float(p90), "unit": "ms"},
            "update_ms_p50": {"value": float(np.median(update_ms)),
                              "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        traced = [pair[1] for pair in passes]
        overhead = float(np.mean([w for _, w in traced])
                         - np.mean([w for _, w in plain]))
        query_ms = sum(t for done, _ in traced for t in done.query_s) * 1e3
        metrics = tracer.metrics(len(traced), query_ms, overhead)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
