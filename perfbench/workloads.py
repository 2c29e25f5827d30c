"""Seeded inputs for the three workloads, as plain Python data.

Nothing here imports the program: nets, priors, step weights and observed
outcomes are drawn by this module alone, so a change to the program cannot
change what is measured.  A session is a dict with

- ``places``: place names in declaration order;
- ``transitions``: ``(name, pre, post)`` triples of place-name tuples;
- ``prior``: ``(place, P(marked))`` pairs, one per place;
- ``steps``: ``(semantics, weights, obs, queries)`` tuples, where
  ``queries`` lists what is asked right after that step: a place name for
  its marginal, ``None`` for the mass.

Outcomes come from simulating a hidden marking drawn from the prior, so
every trace has positive probability.  A run works through rounds; round
``r`` of seed ``s`` holds ``ROUND_SESSIONS`` sessions, session ``k`` drawn
from ``default_rng([s, stream, r, k])``.
"""
from __future__ import annotations

import numpy as np

INDEPENDENT = "independent"
STOCHASTIC = "stochastic"
SUCCESS = "success"
FAILURE = "failure"
FAIL = "fail"

# Each workload draws from its own stream, so the same --seed gives
# unrelated inputs on different workloads.
STREAM = {"marginals": 1, "filter": 2, "wide": 3}
ROUND_SESSIONS = {"marginals": 6, "filter": 6, "wide": 4}

# marginals: SIR agents on a ring.  Each step activates one agent's
# neighbourhood (its recovery and the infections on its two links), so a
# success node spans 7 places, 14 wires.  Fixing the number of successes
# keeps the realized width within five wires of 14 instead of swinging
# with a binomial count of wide nodes, which is what makes a run
# repeatable across seeds.
SIR_AGENTS = 5
SIR_STEPS = 8
SIR_SUCCESSES = 3

# filter: small-world diffusion; the elimination graph grows with every
# step, so the session length sets the width.  On 12 agents with a free
# number of successes, 20 steps gave 9 to 22 wires (and 30 steps 25, with
# single sessions 10x slower); 10 agents with exactly 10 successes keep it
# near 10 to 19 and the session cost within a few percent.
DIFF_AGENTS = 10
DIFF_NEIGHBOURS = 2          # ring lattice: links to 2 agents on each side
DIFF_REWIRE = 0.2
DIFF_ACTIVE = 2
DIFF_STEPS = 20
DIFF_SUCCESSES = 10

# wide: random nets with many transitions active per step, so the relevant
# place set of a step covers most of the net.  With pre sets of at least
# 2 places and post sets of at least 1, success nodes nearly always span
# more than the 20 wires the query layer tabulates, so queries take the
# grouped path; with smaller sets some traces stay tabulated, and min-degree then
# planned 24 wires on 18 places, one query in 50 taking 1 s and 500 MB.
WIDE_PLACES = 18
WIDE_TRANSITIONS = 24
WIDE_ACTIVE = 6
WIDE_STEPS = 10
WIDE_QUERIES = 3
WIDE_SUCCESSES = 2


def _step_weights(rng, names, semantics):
    raw = rng.uniform(0.2, 1.0, size=len(names) + 1)
    if semantics == STOCHASTIC:
        return {t: float(w) for t, w in zip(names, raw[:-1])}
    shares = raw / raw.sum()
    weights = {t: float(w) for t, w in zip(names, shares[:-1])}
    weights[FAIL] = float(shares[-1])
    return weights


def _simulate(rng, transitions, semantics, weights, marked):
    """Draw one step's event at the hidden marking; returns (obs, marking)."""
    cands = [(name, pre, post) for name, pre, post in transitions
             if weights.get(name, 0.0) > 0.0]
    probs = [weights[name] if set(pre) <= marked else 0.0
             for name, pre, _ in cands]
    if semantics == STOCHASTIC:
        total = sum(probs)
        if total == 0.0:
            return FAILURE, marked
        probs = [p / total for p in probs]
    u = rng.random()
    acc = 0.0
    for (_, pre, post), p in zip(cands, probs):
        acc += p
        if u < acc:
            return SUCCESS, (marked - set(pre)) | set(post)
    return FAILURE, marked


def _trace(rng, transitions, prior, semantics, active, steps,
           successes=None):
    """``steps`` simulated steps as (semantics, weights, obs) triples.

    ``active`` is either a count of distinct transitions drawn uniformly
    per step, or a list of transition-name groups of which each step
    activates one, drawn uniformly.  With ``successes`` set, whole traces
    are drawn until one has exactly that many successes.
    """
    names = [t[0] for t in transitions]
    while True:
        marked = {p for p, q in prior if rng.random() < q}
        out = []
        for _ in range(steps):
            if isinstance(active, int):
                chosen = [names[i] for i in sorted(
                    rng.choice(len(names), size=active, replace=False))]
            else:
                chosen = active[int(rng.integers(len(active)))]
            weights = _step_weights(rng, chosen, semantics)
            obs, marked = _simulate(rng, transitions, semantics, weights,
                                    marked)
            out.append((semantics, weights, obs))
        if successes is None or \
                sum(obs == SUCCESS for _, _, obs in out) == successes:
            return out


def _ask_at_end(trace, queries):
    last = len(trace) - 1
    return [(sem, w, obs, list(queries) if k == last else [])
            for k, (sem, w, obs) in enumerate(trace)]


def sir_session(rng):
    """The paper's SIR example.  Infection ``inf_i_j`` moves agent j from
    S to I while i stays infected; recovery ``rec_i`` moves i from I to R.
    Every place's marginal and the mass are asked after the trace."""
    n = SIR_AGENTS
    places = tuple(f"{s}{i}" for i in range(n) for s in "SIR")
    transitions = []
    for i in range(n):
        j = (i + 1) % n
        for a, b in ((i, j), (j, i)):
            transitions.append((f"inf_{a}_{b}", (f"I{a}", f"S{b}"),
                                (f"I{a}", f"I{b}")))
    for i in range(n):
        transitions.append((f"rec_{i}", (f"I{i}",), (f"R{i}",)))
    groups = []
    for i in range(n):
        group = [f"rec_{i}"]
        for j in ((i - 1) % n, (i + 1) % n):
            group += [f"inf_{i}_{j}", f"inf_{j}_{i}"]
        groups.append(group)
    prior = []
    for i in range(n):
        prior += [(f"S{i}", float(rng.uniform(0.6, 0.9))),
                  (f"I{i}", float(rng.uniform(0.2, 0.5))),
                  (f"R{i}", float(rng.uniform(0.02, 0.1)))]
    trace = _trace(rng, transitions, prior, INDEPENDENT, groups, SIR_STEPS,
                   SIR_SUCCESSES)
    return {"places": places, "transitions": tuple(transitions),
            "prior": tuple(prior),
            "steps": _ask_at_end(trace, list(places) + [None])}


def _small_world(rng, n, k, beta):
    """Watts-Strogatz: ring lattice with k neighbours per side, each link
    rewired with probability ``beta`` to a fresh partner."""
    lattice = sorted({(i, (i + d) % n) for i in range(n)
                      for d in range(1, k + 1)})
    links = set()
    for i, j in lattice:
        if rng.random() < beta:
            taken = {b for a, b in links if a == i} | \
                {a for a, b in links if b == i}
            free = [c for c in range(n) if c != i and c not in taken]
            j = int(rng.choice(free))
        links.add((min(i, j), max(i, j)))
    return sorted(links)


def diffusion_session(rng):
    """The paper's information-diffusion example: ``K_i`` says agent i
    knows the rumour, and ``tell_i_j`` (pre K_i, post K_i K_j) passes it
    along one link.  One watched agent is asked about after every step."""
    n = DIFF_AGENTS
    places = tuple(f"K{i}" for i in range(n))
    transitions = []
    for i, j in _small_world(rng, n, DIFF_NEIGHBOURS, DIFF_REWIRE):
        for a, b in ((i, j), (j, i)):
            transitions.append((f"tell_{a}_{b}", (f"K{a}",),
                                (f"K{a}", f"K{b}")))
    prior = tuple((p, float(rng.uniform(0.1, 0.4))) for p in places)
    trace = _trace(rng, transitions, prior, STOCHASTIC, DIFF_ACTIVE,
                   DIFF_STEPS, DIFF_SUCCESSES)
    watched = places[int(rng.integers(n))]
    return {"places": places, "transitions": tuple(transitions),
            "prior": prior,
            "steps": [(sem, w, obs, [watched]) for sem, w, obs in trace]}


def wide_session(rng):
    """A random net as in the paper's runtime experiments: pre sets of 2-3
    places, post sets of 1-3.  A few marginals and the mass are asked
    after the trace."""
    n = WIDE_PLACES
    places = tuple(f"p{i}" for i in range(n))
    transitions = []
    for j in range(WIDE_TRANSITIONS):
        pre = rng.choice(n, size=int(rng.integers(2, 4)), replace=False)
        post = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        transitions.append((f"t{j}", tuple(places[i] for i in sorted(pre)),
                            tuple(places[i] for i in sorted(post))))
    prior = tuple((p, float(rng.uniform(0.3, 0.7))) for p in places)
    trace = _trace(rng, transitions, prior, INDEPENDENT, WIDE_ACTIVE,
                   WIDE_STEPS, WIDE_SUCCESSES)
    picked = sorted(rng.choice(n, size=WIDE_QUERIES, replace=False))
    return {"places": places, "transitions": tuple(transitions),
            "prior": prior,
            "steps": _ask_at_end(trace, [places[i] for i in picked] + [None])}


MAKERS = {"marginals": sir_session, "filter": diffusion_session,
          "wide": wide_session}


def round_sessions(workload: str, seed: int, rnd: int) -> list[dict]:
    """The sessions of round ``rnd`` of ``workload`` under ``seed``."""
    make = MAKERS[workload]
    return [make(np.random.default_rng([seed, STREAM[workload], rnd, k]))
            for k in range(ROUND_SESSIONS[workload])]
