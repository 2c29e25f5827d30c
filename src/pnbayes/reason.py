"""Observation traces and the posteriors they induce.

A trace fixes a net, a prior belief over its markings and a sequence of
steps, each carrying the event weights in force and whether the step was
observed to succeed or to fail.  The posterior over markings is kept
symbolically: each update appends one node to a modular Bayesian network,
and queries run scheduled variable elimination over the accumulated
graph.  Normalization is deferred to query time, which conditions on the
whole observation sequence at once.

Every query is one ``eliminate.scheduled_eliminate`` call on the
posterior's network with the asked places, and all of them share one
preparation, kept on the network (``MBN.preparation``) and freed with it:
the first query builds the node factors, and the second sums the network
out to its place wires once, so every later marginal, mass or joint query
plans over that summary instead of the whole trace (where the summary
would be too wide, they reuse the node factors).
``Posterior.marginals`` asks every place's marginal.  The preparation
moves on with each step: ``Posterior.observe`` (like
``mbn.attach_update``, which it calls) hands it to the next network, whose
first query sums the older history out to the place wires and adds the new
node to that summary.  An observer who queries after every step thus
builds each node factor once per trace, and a query costs about the same
at step 20 as at step 1.  Where the summary would be too wide (a node over
many places), or point masses conflict, the next network takes the older
node records over instead.  ``run`` builds no preparation along the way,
so the first query on its posterior plans over the whole trace.

The dense engine in :mod:`pnbayes.chain` replays the same trace over the
full marking space and acts as an independent cross-check on small nets.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import chain
from .bitmatrix import ProbVector, normalize, parse_vector
from .chain import DEFAULT_PLACE_LIMIT, OBSERVATIONS
from .eliminate import ElimOrder, ElimStats, scheduled_eliminate
from .errors import TooLarge, ValidationError
from .mbn import (MBN, attach_update, build_update, prior_independent,
                  prior_joint)
from .petri import CENet, StepSpec, net_from_json


@dataclass(frozen=True)
class PriorSpec:
    """Initial belief: independent per-place marginals or an explicit joint."""

    marginals: tuple[tuple[str, float], ...] | None = None
    joint: ProbVector | None = None

    def __post_init__(self):
        if (self.marginals is None) == (self.joint is None):
            raise ValidationError(
                "prior needs either per-place marginals or a joint")

    def as_mbn(self, net: CENet) -> MBN:
        if self.joint is not None:
            return prior_joint(net, self.joint)
        return prior_independent(net, dict(self.marginals))

    def as_vector(self, net: CENet,
                  limit: int = DEFAULT_PLACE_LIMIT) -> ProbVector:
        """The explicit joint, for the dense engine."""
        if self.joint is not None:
            return self.joint
        if net.width > limit:
            raise TooLarge(
                f"net has {net.width} places, dense limit is {limit}")
        probs = dict(self.marginals)
        data = np.ones(1)
        for place in net.places:
            q = probs[place]
            data = np.kron(data, np.array([1.0 - q, q]))
        return ProbVector(net.width, data)


@dataclass(frozen=True)
class ObservationTrace:
    """A net, a prior and the observed (step, outcome) sequence."""

    net: CENet
    prior: PriorSpec
    steps: tuple[tuple[StepSpec, str], ...]


@dataclass(frozen=True)
class Posterior:
    """The belief state after a trace, as a modular Bayesian network.

    The network is unnormalized: its total mass is the probability of the
    observations, and queries normalize at the end.  Every query on one
    posterior shares one preparation of the network, kept on the network
    itself: its first query builds the node factors, its second replaces
    them by the network summed out to its place wires, which later queries
    read, and all of it is freed with the network.  The posterior from
    ``observe`` extends that preparation instead of building its own.
    """

    net: CENet
    mbn: MBN

    def query_stats(self, places: Sequence[str]
                    ) -> tuple[ProbVector, ElimOrder, ElimStats]:
        """Unnormalized marginal over ``places`` (kept in net order),
        plus the elimination order used and its bookkeeping."""
        mat, order, stats = scheduled_eliminate(self.mbn, places)
        raw = ProbVector(mat.out_arity, mat.to_dense()[:, 0])
        return raw, order, stats

    def marginal(self, places: Sequence[str]) -> ProbVector:
        """Posterior marginal over ``places``, normalized."""
        raw, _, _ = self.query_stats(places)
        return normalize(raw)

    def marginals(self, places: Sequence[str] | None = None
                  ) -> dict[str, ProbVector]:
        """Each place's posterior marginal, normalized, keyed by place:
        ``places`` in the given order, or every place of the net.  One
        ``marginal`` query per place, so all but the posterior's first query
        read its summary (see the class docstring).  A bare string raises
        ValidationError, as in ``marginal``."""
        if isinstance(places, str):
            raise ValidationError(
                f"places must be a sequence of names, not {places!r}")
        asked = self.net.places if places is None else places
        return {p: self.marginal([p]) for p in asked}

    def mass(self) -> float:
        """Probability of the observed trace (the normalization constant)."""
        raw, _, _ = self.query_stats(())
        return raw.mass()

    def joint(self) -> ProbVector:
        """Normalized posterior over all places (dense in the place count)."""
        return self.marginal(self.net.places)

    def observe(self, step: StepSpec, obs: str) -> Posterior:
        """The posterior after one more step observed as ``obs``.

        Its network is this one with the step's update node attached.  Its
        first query sums this posterior's network out to the place wires,
        reusing this posterior's node factors and writing nothing into
        them, and adds that node to the summary; querying after every step
        thus builds each node factor once and keeps the query over about
        places plus one node's wires.  Where the summary would be too wide,
        it extends this posterior's preparation by the node instead.
        """
        up = build_update(self.net, step)
        return Posterior(self.net, attach_update(self.mbn, up, obs))


def run(trace: ObservationTrace) -> Posterior:
    """Fold the trace into a posterior network, one node per observation."""
    mbn = trace.prior.as_mbn(trace.net)
    for k, (step, obs) in enumerate(trace.steps):
        if obs not in OBSERVATIONS:
            raise ValidationError(f"unknown observation {obs!r}")
        up = build_update(trace.net, step)
        mbn = attach_update(mbn, up, obs, step_index=k)
    return Posterior(trace.net, mbn)


def dense_posterior(trace: ObservationTrace,
                    limit: int = DEFAULT_PLACE_LIMIT) -> ProbVector:
    """Replay the trace with the dense engine; unnormalized joint."""
    prior = trace.prior.as_vector(trace.net, limit)
    return chain.replay_trace(trace.net, prior, list(trace.steps),
                              limit=limit)


# -- trace files ---------------------------------------------------------------

def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{what} must be a number, got {value!r}") from None


def parse_step(doc: Mapping) -> tuple[StepSpec, str]:
    if not isinstance(doc, Mapping) or "weights" not in doc \
            or "obs" not in doc:
        raise ValidationError(
            "each step must be an object with 'weights' and 'obs'")
    if not isinstance(doc["weights"], Mapping):
        raise ValidationError("step 'weights' must be an object")
    weights = {str(t): _number(w, f"weight of {t!r}")
               for t, w in doc["weights"].items()}
    step = StepSpec(str(doc.get("semantics", "independent")), weights)
    obs = str(doc["obs"])
    if obs not in OBSERVATIONS:
        raise ValidationError(f"unknown observation {obs!r}")
    return step, obs


def parse_prior(doc: Mapping, net: CENet) -> PriorSpec:
    if not isinstance(doc, Mapping):
        raise ValidationError("prior must be an object")
    if set(doc) == {"joint"}:
        if not isinstance(doc["joint"], list):
            raise ValidationError("'joint' prior must be a list")
        values = [_number(v, "'joint' prior entry") for v in doc["joint"]]
        # joint vectors are listed in descending bitstring order, like dumps
        return PriorSpec(joint=parse_vector(net.width, values))
    marginals = tuple((str(p), _number(q, f"prior for {p!r}"))
                      for p, q in doc.items())
    for p, q in marginals:
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"prior for {p!r} outside [0, 1]: {q}")
    missing = set(net.places) - {p for p, _ in marginals}
    extra = {p for p, _ in marginals} - set(net.places)
    if missing or extra:
        raise ValidationError(
            f"prior places do not match the net (missing {sorted(missing)}, "
            f"unknown {sorted(extra)})")
    return PriorSpec(marginals=marginals)


def parse_trace(doc: Mapping, base: Path | None = None) -> ObservationTrace:
    if not isinstance(doc, Mapping):
        raise ValidationError("trace must be an object")
    for key in ("net", "prior", "steps"):
        if key not in doc:
            raise ValidationError(f"trace is missing {key!r}")
    if not isinstance(doc["steps"], list):
        raise ValidationError("trace 'steps' must be a list")
    spec = doc["net"]
    if isinstance(spec, str):
        path = Path(spec)
        if base is not None and not path.is_absolute():
            path = base / path
        net = net_from_json(json.loads(path.read_text()))
    else:
        net = net_from_json(spec)
    prior = parse_prior(doc["prior"], net)
    steps = tuple(parse_step(s) for s in doc["steps"])
    return ObservationTrace(net, prior, steps)


def load_trace(path) -> ObservationTrace:
    path = Path(path)
    return parse_trace(json.loads(path.read_text()), base=path.parent)
