"""Time three posterior queries on random traces end to end.

Each case draws a random net and trace from the seeded generator, then
times `run` on the trace followed by the marginal of the net's first place
and the mass of the observations.  Next to the median time it prints the
marginal, the mass and the realized width of the marginal query (the
widest table the elimination produced).

The online columns replay the same trace one step at a time, as an
observer does: each step is `Posterior.observe` followed by the marginal
of the first place.  They give the median ms of such a step and the widest
table any of those queries produced.

Usage: python3 benchmarks/compare_kernels.py [--repeats 5] [--seed 0]
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from pnbayes.bitmatrix import normalize
from pnbayes.randnet import random_trace
from pnbayes.reason import ObservationTrace, run

# (places, transitions, steps) of each query case
CASES = [(20, 12, 10), (30, 14, 10), (40, 15, 10)]


def online(trace, place: str, repeats: int) -> tuple[float, int]:
    """Median ms of one step (``observe`` plus the marginal of ``place``)
    and the widest table those queries produced."""
    times, width = [], 0
    for _ in range(repeats):
        posterior = run(ObservationTrace(trace.net, trace.prior, ()))
        for step, obs in trace.steps:
            t0 = time.perf_counter()
            posterior = posterior.observe(step, obs)
            # what marginal() does, keeping the stats of this first query,
            # which include summing the previous step out to the places
            raw, _, stats = posterior.query_stats([place])
            normalize(raw)
            times.append(time.perf_counter() - t0)
            width = max(width, stats.max_factor_wires)
    return float(np.median(times)) * 1e3, width


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    print(f"{'posterior query':<24}{'median ms':>11}{'marginal':>14}"
          f"{'mass':>14}{'width':>7}{'online ms':>11}{'width':>7}")
    for places, transitions, steps in CASES:
        trace = random_trace(rng, places, transitions, steps)
        place = trace.net.places[0]
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            posterior = run(trace)
            marginal = posterior.marginal([place]).entry(1)
            mass = posterior.mass()
            times.append(time.perf_counter() - t0)
        _, _, stats = posterior.query_stats([place])
        step_ms, step_width = online(trace, place, args.repeats)
        print(f"{f'{places}p {transitions}t {steps} steps':<24}"
              f"{float(np.median(times)) * 1e3:>11.1f}{marginal:>14.9f}"
              f"{mass:>14.6e}{stats.max_factor_wires:>7d}"
              f"{step_ms:>11.1f}{step_width:>7d}")


if __name__ == "__main__":
    main()
