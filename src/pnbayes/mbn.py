"""Modular Bayesian networks: causality graphs evaluated in matrices.

An MBN pairs a causality graph with an evaluation map sending each
generator to a sub-stochastic matrix of matching type.  Its semantics is a
matrix obtained by summing, over all boolean wire assignments, the product
of node matrix entries; :func:`eval_naive` computes that sum literally and
serves as the oracle for the elimination engine.

When an MBN represents a belief over markings it carries ``places``: the
net's places in declaration order, place ``i`` owning output port ``i``.
Observation updates attach one fresh node per step whose sources are the
current wires of the relevant places, so the ``P' (x) Id`` structure of the
update never needs explicit permutation or identity nodes.

A network also carries its query preparation (``eliminate._Base``), built
by its first prepared query.  Until then, a network returned by
:func:`attach_update` holds the preparation its parent held, and its first
query extends that by the new node instead of starting over: where exact
and narrow enough, on top of the parent's history summed out to its place
wires, so the query's cost does not grow with the trace.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from .bitmatrix import (DENSIFY_BITS, ProbVector, TypedMatrix,
                        _finalize_sparse)
from .causality import CausalityGraph, Generator, Wire, node_graph, validate
from .chain import OBSERVATIONS, SUCCESS
from .errors import MissingPlace, TooLarge, TypeMismatch, ValidationError
from .petri import FAIL, STOCHASTIC, CENet, StepSpec, relevant_sets

EVAL_WIRE_LIMIT = 22


@dataclass(frozen=True)
class MBN:
    graph: CausalityGraph
    ev: Mapping[str, TypedMatrix]
    places: tuple[str, ...] | None = None
    # the query preparation (an eliminate._Base): this network's own once a
    # prepared query built it, else what attach_update handed on from the
    # parent; a cache, so neither compared nor shown
    preparation: Any = field(default=None, compare=False, repr=False)

    def matrix(self, label: str) -> TypedMatrix:
        try:
            return self.ev[label]
        except KeyError:
            raise ValidationError(f"no evaluation for generator {label!r}") \
                from None

    def place_wire(self, place: str) -> Wire:
        """The output wire currently carrying ``place``."""
        if self.places is None:
            raise MissingPlace("this MBN carries no place map")
        try:
            i = self.places.index(place)
        except ValueError:
            raise MissingPlace(f"unknown place {place!r}") from None
        return self.graph.out[i]


def validate_mbn(net: MBN) -> list[str]:
    errors = validate(net.graph)
    for g in net.graph.gens:
        if g.name not in net.ev:
            errors.append(f"no evaluation for generator {g.name!r}")
            continue
        mat = net.ev[g.name]
        if (mat.in_arity, mat.out_arity) != (g.in_arity, g.out_arity):
            errors.append(
                f"evaluation of {g.name!r} has type {mat.in_arity} -> "
                f"{mat.out_arity}, generator wants {g.in_arity} -> "
                f"{g.out_arity}")
        elif not mat.is_substochastic():
            errors.append(f"evaluation of {g.name!r} is not sub-stochastic")
    if net.places is not None and len(net.places) != net.graph.out_arity:
        errors.append("place map length differs from output arity")
    return errors


def eval_naive(net: MBN) -> TypedMatrix:
    """Literal evaluation by enumerating every wire assignment.

    Exponential in the wire count and guarded accordingly; intended as the
    semantics definition and as ground truth for variable elimination.
    """
    graph = net.graph
    wires = graph.wires()
    n_wires = len(wires)
    if n_wires > EVAL_WIRE_LIMIT:
        raise TooLarge(f"{n_wires} wires exceed the enumeration guard "
                       f"({EVAL_WIRE_LIMIT})")
    pos = {w: n_wires - 1 - i for i, w in enumerate(wires)}
    space = np.arange(1 << n_wires, dtype=np.int64)

    def bit(w: Wire) -> np.ndarray:
        return (space >> pos[w]) & 1

    total = np.ones(space.shape[0])
    for v in range(graph.node_count):
        g = graph.gens[v]
        mat = net.matrix(g.name).to_dense()
        col = np.zeros(space.shape[0], dtype=np.int64)
        for j, w in enumerate(graph.sources[v]):
            col |= bit(w) << (g.in_arity - 1 - j)
        row = np.zeros(space.shape[0], dtype=np.int64)
        for p in range(1, g.out_arity + 1):
            row |= bit(Wire(v, p)) << (g.out_arity - p)
        total *= mat[row, col]
    n, m = graph.in_arity, graph.out_arity
    col = np.zeros(space.shape[0], dtype=np.int64)
    for j, w in enumerate(graph.inputs()):
        col |= bit(w) << (n - 1 - j)
    row = np.zeros(space.shape[0], dtype=np.int64)
    for k, w in enumerate(graph.out):
        row |= bit(w) << (m - 1 - k)
    dense = np.bincount(row << n | col, weights=total,
                        minlength=1 << (n + m)).reshape(1 << m, 1 << n)
    return TypedMatrix(n, m, dense=dense)


def is_obn(net: MBN) -> bool:
    """An ordinary Bayesian network: closed, unary stochastic nodes, and a
    one-to-one correspondence between outputs and wires."""
    graph = net.graph
    if graph.in_arity != 0:
        return False
    if any(g.out_arity != 1 for g in graph.gens):
        return False
    if len(set(graph.out)) != len(graph.out):
        return False
    if set(graph.out) != set(graph.wires()):
        return False
    return all(net.matrix(g.name).is_stochastic() for g in graph.gens)


# -- priors ------------------------------------------------------------------

def prior_independent(net: CENet, marginals: Mapping[str, float]) -> MBN:
    """One source node per place; ``marginals[p]`` is P(p marked)."""
    for p in marginals:
        net.place_index(p)
    gens = []
    ev: dict[str, TypedMatrix] = {}
    for p in net.places:
        if p not in marginals:
            raise MissingPlace(f"no prior marginal for place {p!r}")
        q = float(marginals[p])
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"prior marginal of {p!r} outside [0, 1]")
        name = f"prior_{p}"
        gens.append(Generator(name, 0, 1))
        ev[name] = TypedMatrix.dense(np.array([[1.0 - q], [q]]))
    k = len(net.places)
    graph = CausalityGraph(0, tuple(gens), ((),) * k,
                           tuple(Wire(v, 1) for v in range(k)))
    return MBN(graph, ev, net.places)


def prior_joint(net: CENet, p: ProbVector) -> MBN:
    """A single source node holding an arbitrary joint over all places."""
    if p.arity != net.width:
        raise TypeMismatch(
            f"joint arity {p.arity} != {net.width} places")
    gen = Generator("prior", 0, net.width)
    return MBN(node_graph(gen), {"prior": p.as_matrix()}, net.places)


def prior_point(net: CENet, marking) -> MBN:
    """Point-mass prior; stays sparse so huge nets are fine."""
    mk = net.marking(marking).value
    k = net.width
    col = sp.csc_matrix(([1.0], ([mk], [0])), shape=(1 << k, 1))
    gen = Generator("prior", 0, k)
    return MBN(node_graph(gen), {"prior": _finalize_sparse(col, 0, k)},
               net.places)


def uniform_prior(net: CENet) -> MBN:
    return prior_independent(net, {p: 0.5 for p in net.places})


# -- observation updates ------------------------------------------------------

@dataclass(frozen=True)
class UpdatePair:
    """The success matrix P' and failure matrix F' of one step, restricted
    to the relevant places ``sbar``."""

    pmat: TypedMatrix
    fmat: TypedMatrix
    sbar: tuple[str, ...]

    @property
    def ell(self) -> int:
        return len(self.sbar)


def build_update(net: CENet, step: StepSpec) -> UpdatePair:
    """Construct P' and F' over the relevant places of ``step``.

    This states the step semantics once.  At each sub-marking ``m`` of
    ``sbar`` the step draws transition ``t`` with probability rbar(m, t):
    its weight under the independent semantics, enabled or not; under the
    stochastic semantics, if ``t`` is enabled, its weight over the summed
    weights of the transitions enabled at ``m``, else 0.  P' moves that
    mass from ``m`` to the successor of ``t`` wherever ``t`` is enabled.
    F' is diagonal: ``fail``'s weight plus the weights drawn while
    disabled, or 1 where nothing is enabled under the stochastic semantics.
    """
    rel = relevant_sets(net, step)
    ell = rel.ell
    size = 1 << ell
    idx = np.arange(size, dtype=np.int64)
    enabled = {t: (idx & pre) == pre for t, (pre, _) in rel.masks.items()}
    stochastic = step.semantics == STOCHASTIC
    if stochastic:
        denom = sum(step.weight(t) * en for t, en in enabled.items())
    rows, cols, vals = [], [], []
    fdiag = np.zeros(size)
    for t, (pre, post) in rel.masks.items():
        en, w = enabled[t], step.weight(t)
        src = idx[en]
        rows.append((src & ~pre) | post)
        cols.append(src)
        if stochastic:
            # where t is enabled its own weight is in denom, so denom > 0
            vals.append(w / denom[en])
        else:
            vals.append(np.full(src.shape[0], w))
            fdiag += w * ~en
    fdiag += (denom == 0) if stochastic else step.weight(FAIL)
    rows, cols, vals = (np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(vals))
    if not np.any(vals[rows != cols]):
        pmat = TypedMatrix.diagonal(
            np.bincount(rows, weights=vals, minlength=size))
    elif 2 * ell <= DENSIFY_BITS:
        dense = np.bincount(rows * size + cols, weights=vals,
                            minlength=size * size)
        pmat = TypedMatrix(ell, ell, dense=dense.reshape(size, size),
                           check=False)
    else:
        mat = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
        pmat = _finalize_sparse(mat, ell, ell)
    fmat = TypedMatrix.diagonal(fdiag)
    return UpdatePair(pmat, fmat, rel.sbar)


def _fresh_update_name(net: MBN, obs: str, step_index: int | None) -> str:
    k = step_index if step_index is not None else net.graph.node_count
    suffix = "succ" if obs == SUCCESS else "fail"
    name = f"upd_{k}_{suffix}"
    while name in net.ev:
        k += 1
        name = f"upd_{k}_{suffix}"
    return name


def attach_update(net: MBN, up: UpdatePair, obs: str,
                  step_index: int | None = None) -> MBN:
    """Append one update node reading the relevant places' current wires.

    On success the node evaluates to P', on failure to the diagonal F'.
    The relevant places' ports move to the new node; everything else keeps
    its wire, which realizes the padded update without identity nodes.

    The result holds the query preparation ``net`` holds, copying nothing.
    Its first prepared query extends that preparation by the new node, so
    an observer who queries after every step builds each node factor once.
    That query first sums the held network out to its place wires, unless
    the summary would span more than ``eliminate.BULK_NODE_BITS`` wires or
    the held network's point masses conflict; the new node then reads
    summary factors over the places, not the whole history.
    """
    if obs not in OBSERVATIONS:
        raise ValidationError(f"unknown observation {obs!r}")
    if net.places is None:
        raise MissingPlace("cannot attach an update without a place map")
    sources = tuple(net.place_wire(p) for p in up.sbar)
    name = _fresh_update_name(net, obs, step_index)
    v = net.graph.node_count
    gen = Generator(name, up.ell, up.ell)
    port_of = {p: i + 1 for i, p in enumerate(up.sbar)}
    new_out = tuple(
        Wire(v, port_of[p]) if p in port_of else w
        for p, w in zip(net.places, net.graph.out))
    graph = CausalityGraph(net.graph.in_arity,
                           net.graph.gens + (gen,),
                           net.graph.sources + (sources,),
                           new_out)
    ev = dict(net.ev)
    ev[name] = up.pmat if obs == SUCCESS else up.fmat
    return MBN(graph, ev, net.places, net.preparation)


def kept_places(net: MBN, keep: Iterable[str]) -> tuple[str, ...]:
    """The places of ``keep`` in net declaration order, once each; an
    unknown place, or a network without a place map, raises MissingPlace,
    and a bare string, not a sequence of names, raises ValidationError."""
    if isinstance(keep, str):
        raise ValidationError(
            f"places must be a sequence of names, not {keep!r}")
    if net.places is None:
        raise MissingPlace("this MBN carries no place map")
    keep = set(keep)
    for p in keep:
        if p not in net.places:
            raise MissingPlace(f"unknown place {p!r}")
    return tuple(p for p in net.places if p in keep)


def terminate(net: MBN, keep: Iterable[str]) -> MBN:
    """Drop all places outside ``keep`` from the outputs.

    The dropped wires become internal, so evaluation marginalizes them
    away; the result's outputs follow net declaration order.
    """
    kept = kept_places(net, keep)
    new_out = tuple(net.place_wire(p) for p in kept)
    graph = replace(net.graph, out=new_out)
    return MBN(graph, net.ev, kept)
