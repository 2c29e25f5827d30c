"""Random nets and observation traces, plus benchmark plumbing.

Traces are generated by simulation: a hidden marking is sampled from the
prior and each step's outcome is drawn from the event distribution at
that marking, so every generated trace has positive probability and both
engines can condition on it.  All randomness flows through one ``numpy``
generator; benchmark rows seed it as ``[seed, places, trial]`` so runs
are reproducible row by row.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import chain, reason
from .bitmatrix import ProbVector, normalize
from .chain import DEFAULT_PLACE_LIMIT, FAILURE, SUCCESS
from .errors import ValidationError
from .petri import CENet, INDEPENDENT, STOCHASTIC, StepSpec, Transition

ENGINES = ("mbn", "dense")


def random_net(rng: np.random.Generator, places: int, transitions: int,
               max_pre: int = 3, max_post: int = 3) -> CENet:
    """Pre sets of size 1..max_pre, post sets of size 0..max_post,
    both uniform subsets of the places."""
    if max_pre < 1 or max_post < 1:
        raise ValidationError("max_pre and max_post must be at least 1")
    names = [f"p{i}" for i in range(places)]
    trans = []
    for j in range(transitions):
        npre = int(rng.integers(1, min(max_pre, places) + 1))
        npost = int(rng.integers(0, min(max_post, places) + 1))
        pre = rng.choice(places, size=npre, replace=False)
        post = rng.choice(places, size=npost, replace=False)
        trans.append(Transition(f"t{j}",
                                tuple(names[i] for i in sorted(pre)),
                                tuple(names[i] for i in sorted(post))))
    return CENet(names, trans)


def random_step(rng: np.random.Generator, net: CENet,
                semantics: str = INDEPENDENT,
                max_active: int = 5) -> StepSpec:
    """Normalized-uniform weights over 1..max_active transitions, with a
    fail share under the independent semantics."""
    hi = min(max_active, len(net.transitions))
    count = int(rng.integers(1, hi + 1))
    chosen = rng.choice(len(net.transitions), size=count, replace=False)
    raw = rng.uniform(0.2, 1.0, size=count + 1)
    if semantics == INDEPENDENT:
        shares = raw / raw.sum()
        weights = {net.transitions[i].name: float(w)
                   for i, w in zip(sorted(chosen), shares)}
        weights["fail"] = float(shares[-1])
    else:
        weights = {net.transitions[i].name: float(w)
                   for i, w in zip(sorted(chosen), raw)}
    return StepSpec(semantics, weights)


def _sample_marking(rng: np.random.Generator, net: CENet,
                    prior: reason.PriorSpec) -> int:
    probs = dict(prior.marginals)
    m = 0
    for i, place in enumerate(net.places):
        if rng.random() < probs[place]:
            m |= 1 << (net.width - 1 - i)
    return m


def _sample_event(rng: np.random.Generator, net: CENet, step: StepSpec,
                  m: int) -> tuple[str, int]:
    """Draw one event at hidden marking ``m``; returns (obs, next marking)."""
    names = step.support(net)
    pvals = []
    for t in names:
        pre = net.pre_mask(t)
        pvals.append(step.weight(t) if (m & pre) == pre else 0.0)
    total = sum(pvals)
    if step.semantics == STOCHASTIC:
        if total <= 0.0:
            return FAILURE, m
        pvals = [v / total for v in pvals]
    u = rng.random()
    acc = 0.0
    for t, v in zip(names, pvals):
        acc += v
        if u < acc:
            pre, post = net.pre_mask(t), net.post_mask(t)
            return SUCCESS, (m & ~pre) | post
    return FAILURE, m


def random_trace(rng: np.random.Generator, places: int, transitions: int,
                 steps: int, semantics: str = INDEPENDENT,
                 max_pre: int = 3, max_post: int = 3,
                 max_active: int = 5) -> reason.ObservationTrace:
    """A net plus a positive-probability trace of the given length."""
    net = random_net(rng, places, transitions, max_pre, max_post)
    marginals = tuple((p, float(rng.uniform(0.3, 0.7))) for p in net.places)
    prior = reason.PriorSpec(marginals=marginals)
    m = _sample_marking(rng, net, prior)
    trace_steps = []
    for _ in range(steps):
        step = random_step(rng, net, semantics, max_active)
        obs, m = _sample_event(rng, net, step, m)
        trace_steps.append((step, obs))
    return reason.ObservationTrace(net, prior, tuple(trace_steps))


# -- benchmark rows --------------------------------------------------------

@dataclass(frozen=True)
class BenchConfig:
    """Grid of place counts; the transition count is drawn per trial."""

    places: tuple[int, ...] = (8, 10, 12)
    transitions: tuple[int, ...] = tuple(range(10, 16))
    max_pre: int = 3
    max_post: int = 3
    max_active: int = 5
    steps: int = 10
    trials: int = 3
    seed: int = 0
    semantics: str = INDEPENDENT
    engines: tuple[str, ...] = ENGINES

    def __post_init__(self):
        if not self.places or not self.transitions:
            raise ValidationError("places and transitions must be nonempty")
        if min(self.places + self.transitions) < 1:
            raise ValidationError("place and transition counts must be at "
                                  "least 1")
        if min(self.max_pre, self.max_post, self.max_active) < 1:
            raise ValidationError("max_pre, max_post and max_active must be "
                                  "at least 1")
        if min(self.steps, self.trials) < 0:
            raise ValidationError("steps and trials must not be negative")
        for engine in self.engines:
            if engine not in ENGINES:
                raise ValidationError(f"unknown engine {engine!r}")


@dataclass(frozen=True)
class BenchRow:
    places: int
    transitions: int
    trial: int
    engine: str
    seed: int
    steps: int
    runtime_ms: float
    max_factor_wires: int


CSV_HEADER = ("places,transitions,trial,engine,seed,steps,"
              "runtime_ms,max_factor_wires")


def run_engine(engine: str, trace: reason.ObservationTrace,
               places: Sequence[str]) -> tuple[ProbVector, int]:
    """One normalized marginal query; returns (vector, max factor wires).

    The dense engine touches every marking, so its factor metric is the
    full place count.
    """
    if engine == "mbn":
        posterior = reason.run(trace)
        raw, _, stats = posterior.query_stats(places)
        return normalize(raw), stats.max_factor_wires
    if engine == "dense":
        joint = reason.dense_posterior(trace)
        marg = chain.marginal_of(joint, trace.net, places)
        return normalize(marg), trace.net.width
    raise ValidationError(f"unknown engine {engine!r}")


def bench_rows(cfg: BenchConfig) -> list[BenchRow]:
    rows = []
    for k in cfg.places:
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, k, trial])
            n_trans = int(rng.choice(np.asarray(cfg.transitions)))
            trace = random_trace(rng, k, n_trans, cfg.steps, cfg.semantics,
                                 cfg.max_pre, cfg.max_post, cfg.max_active)
            query = [trace.net.places[0]]
            for engine in cfg.engines:
                if engine == "dense" and k > DEFAULT_PLACE_LIMIT:
                    continue
                start = time.perf_counter()
                _, max_wires = run_engine(engine, trace, query)
                elapsed = (time.perf_counter() - start) * 1000.0
                rows.append(BenchRow(k, n_trans, trial, engine, cfg.seed,
                                     cfg.steps, elapsed, max_wires))
    rows.sort(key=lambda r: (r.places, r.trial))
    return rows


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.places},{r.transitions},{r.trial},{r.engine},"
                     f"{r.seed},{r.steps},{r.runtime_ms:.3f},"
                     f"{r.max_factor_wires}")
    return "\n".join(lines) + "\n"
