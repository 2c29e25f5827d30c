"""Exact brute-force answers for a session, apart from the program.

A forward filter over all 2^n markings, written from the step semantics
in the project README and ``StepSpec``:

- a transition is enabled when every place of its pre-set is marked;
  firing it clears the pre-set, then marks the post-set;
- independent semantics: transition ``t`` is drawn with weight ``w_t``
  and ``fail`` with ``w_fail``; a drawn transition that is not enabled
  counts as a failure;
- stochastic semantics: the weights are renormalized over the enabled
  transitions of the marking; the step fails only when none is enabled.

The filter keeps the unnormalized posterior, so its total is the
probability of the observations seen so far.  It imports nothing from the
program.
"""
from __future__ import annotations

import numpy as np

from workloads import FAIL, STOCHASTIC, SUCCESS


def _indicator(n, axes):
    """1.0 where every place on ``axes`` is marked, as an array over the
    marking tensor that broadcasts along every other place."""
    ind = np.zeros([2 if a in axes else 1 for a in range(n)])
    ind[tuple(1 if a in axes else 0 for a in range(n))] = 1.0
    return ind


def _step(dist, index, pre_post, semantics, weights, obs):
    n = dist.ndim
    support = [(name, w) for name, w in weights.items()
               if name != FAIL and w > 0.0]
    enabled = {name: _indicator(n, pre_post[name][0])
               for name, _ in support}
    if semantics == STOCHASTIC:
        denom = sum(w * enabled[name] for name, w in support)
        safe = np.where(denom > 0.0, denom, 1.0)
        fire = {name: w * enabled[name] / safe for name, w in support}
        stay = (denom == 0.0).astype(np.float64)
    else:
        fire = {name: w * enabled[name] for name, w in support}
        stay = weights.get(FAIL, 0.0) + sum(w * (1.0 - enabled[name])
                                            for name, w in support)
    if obs != SUCCESS:
        return dist * stay
    out = np.zeros_like(dist)
    for name, _ in support:
        pre, post = pre_post[name]
        # firing clears pre, then marks post: every marking of the places
        # in pre | post lands on the one with post marked, the rest clear
        touched = tuple(sorted(pre | post))
        land = tuple((1 if a in post else 0) if a in touched else slice(None)
                     for a in range(n))
        out[land] += (dist * fire[name]).sum(axis=touched)
    return out


def answers(session: dict) -> list[float]:
    """Every answer the session asks for, in order: the posterior
    probability that a place is marked, or the mass for ``None``."""
    places = session["places"]
    index = {p: i for i, p in enumerate(places)}
    pre_post = {name: ({index[p] for p in pre}, {index[p] for p in post})
                for name, pre, post in session["transitions"]}
    prior = dict(session["prior"])
    # axis i holds place i, so the flat order puts the first place on the
    # most significant bit
    dist = np.ones(())
    for place in places:
        dist = np.multiply.outer(dist, [1.0 - prior[place], prior[place]])
    out = []
    for semantics, weights, obs, queries in session["steps"]:
        dist = _step(dist, index, pre_post, semantics, weights, obs)
        for place in queries:
            mass = float(dist.ravel().sum())
            if place is None:
                out.append(mass)
            else:
                marked = np.take(dist, 1, axis=index[place])
                out.append(float(marked.ravel().sum()) / mass)
    return out
