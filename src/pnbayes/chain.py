"""Dense Markov-chain engine over the full marking space.

Ground truth for the symbolic pipeline: the joint distribution over all
2^k markings is held as one vector, the step matrices are built explicitly,
and observation updates multiply by the success matrix ``P`` (all firings)
or the diagonal failure matrix ``F`` (all non-firings).  The absorbing fail
state is never stored; its mass is the deficit to 1.

Everything here is exponential in the number of places and guarded by a
configurable limit.
"""
from __future__ import annotations

import numpy as np

from .bitmatrix import ProbVector, TypedMatrix, from_entries, normalize
from .errors import TooLarge, ValidationError
from .petri import FAIL, INDEPENDENT, STOCHASTIC, CENet, StepSpec

# ProbVector over all places; the fail-state mass is 1 - mass().
JointDist = ProbVector

DEFAULT_PLACE_LIMIT = 25

SUCCESS = "success"
FAILURE = "failure"
OBSERVATIONS = (SUCCESS, FAILURE)


def _guard(net: CENet, limit: int) -> None:
    if net.width > limit:
        raise TooLarge(
            f"net has {net.width} places, dense limit is {limit}")


def _index_array(k: int) -> np.ndarray:
    dtype = np.int32 if k < 31 else np.int64
    return np.arange(1 << k, dtype=dtype)


def _stochastic_denominator(net: CENet, step: StepSpec,
                            idx: np.ndarray) -> np.ndarray:
    denom = np.zeros(idx.shape[0])
    for t in step.support(net):
        pre = net.pre_mask(t)
        denom += step.weight(t) * ((idx & pre) == pre)
    return denom


def build_P(net: CENet, step: StepSpec,
            limit: int = DEFAULT_PLACE_LIMIT) -> TypedMatrix:
    """The success matrix: ``P(m'|m)`` sums ``r(m,t)`` over firings m => m',
    stored as :func:`~pnbayes.bitmatrix.from_entries` decides."""
    _guard(net, limit)
    k = net.width
    idx = _index_array(k)
    denom = (_stochastic_denominator(net, step, idx)
             if step.semantics == STOCHASTIC else None)
    rows, cols, vals = [], [], []
    for t in step.support(net):
        pre, post = net.pre_mask(t), net.post_mask(t)
        en = (idx & pre) == pre
        src = idx[en]
        tgt = (src & ~pre) | post
        if denom is None:
            w = np.full(src.shape[0], step.weight(t))
        else:
            w = step.weight(t) / denom[en]
        rows.append(tgt)
        cols.append(src)
        vals.append(w)
    rows, cols, vals = (np.concatenate(a) if a else np.zeros(0, np.int64)
                        for a in (rows, cols, vals))
    return from_entries(k, k, rows, cols, vals)


def build_F(net: CENet, step: StepSpec,
            limit: int = DEFAULT_PLACE_LIMIT) -> TypedMatrix:
    """The failure matrix: diagonal, ``F(m|m)`` = mass of non-firing events."""
    _guard(net, limit)
    idx = _index_array(net.width)
    return TypedMatrix.diagonal(_failure_diagonal(net, step, idx))


def _failure_diagonal(net: CENet, step: StepSpec,
                      idx: np.ndarray) -> np.ndarray:
    if step.semantics == STOCHASTIC:
        denom = _stochastic_denominator(net, step, idx)
        return (denom == 0).astype(np.float64)
    diag = np.full(idx.shape[0], step.weight(FAIL))
    for t in step.support(net):
        pre = net.pre_mask(t)
        diag += step.weight(t) * ((idx & pre) != pre)
    return diag


def _raw_update(data: np.ndarray, net: CENet, step: StepSpec,
                obs: str) -> np.ndarray:
    """One unnormalized observation update, never materializing a matrix."""
    idx = _index_array(net.width)
    if obs == FAILURE:
        return _failure_diagonal(net, step, idx) * data
    size = idx.shape[0]
    denom = (_stochastic_denominator(net, step, idx)
             if step.semantics == STOCHASTIC else None)
    out = np.zeros(size)
    for t in step.support(net):
        pre, post = net.pre_mask(t), net.post_mask(t)
        en = (idx & pre) == pre
        tgt = (idx[en] & ~pre) | post
        w = step.weight(t) * data[en]
        if denom is not None:
            w = w / denom[en]
        out += np.bincount(tgt, weights=w, minlength=size)
    return out


def update(p: JointDist, net: CENet, step: StepSpec, obs: str,
           normalize_result: bool = True,
           limit: int = DEFAULT_PLACE_LIMIT) -> JointDist:
    """Condition on one observed success or failure.

    The posterior is ``norm(P . p)`` on success and ``norm(F . p)`` on
    failure; pass ``normalize_result=False`` to defer normalization (the
    two conventions agree after a final normalize).
    """
    if obs not in OBSERVATIONS:
        raise ValidationError(f"unknown observation {obs!r}")
    _guard(net, limit)
    out = ProbVector(net.width, _raw_update(p.data, net, step, obs))
    return normalize(out) if normalize_result else out


def replay_trace(net: CENet, prior: JointDist,
                 steps: list[tuple[StepSpec, str]],
                 normalize_each: bool = False,
                 limit: int = DEFAULT_PLACE_LIMIT) -> JointDist:
    """Run all updates; the result is unnormalized unless asked otherwise."""
    _guard(net, limit)
    data = prior.data
    for step, obs in steps:
        if obs not in OBSERVATIONS:
            raise ValidationError(f"unknown observation {obs!r}")
        data = _raw_update(data, net, step, obs)
        if normalize_each:
            out = normalize(ProbVector(net.width, data))
            data = out.data
    return ProbVector(net.width, data)


def marginal_of(p: JointDist, net: CENet, places) -> ProbVector:
    """Marginalize the joint onto ``places`` (kept in net order)."""
    keep = [q for q in net.places if q in set(places)]
    for q in places:
        net.place_index(q)
    idx = _index_array(net.width)
    out_bits = len(keep)
    sel = np.zeros(idx.shape[0], dtype=np.int64)
    for j, q in enumerate(keep):
        bit = (idx >> (net.width - 1 - net.place_index(q))) & 1
        sel |= bit.astype(np.int64) << (out_bits - 1 - j)
    return ProbVector(out_bits,
                      np.bincount(sel, weights=p.data, minlength=1 << out_bits))
