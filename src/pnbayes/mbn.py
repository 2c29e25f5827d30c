"""Modular Bayesian networks: causality graphs evaluated in matrices.

An MBN pairs a causality graph with an evaluation map sending each
generator to a sub-stochastic matrix of matching type.  Its semantics is a
matrix obtained by summing, over all boolean wire assignments, the product
of node matrix entries; :func:`eval_naive` computes that sum literally and
serves as the oracle for the elimination engine.

When an MBN represents a belief over markings it carries ``places``: the
net's places in declaration order, place ``i`` owning output port ``i``.
Observation updates attach one fresh node per step whose sources are the
current wires of the places it varies on, so the ``P' (x) Id`` structure
of the update never needs explicit permutation or identity nodes.  A
success node reads the step's relevant places; a failure node reads only
the pre-places of the step's support, since a failure says nothing but
that no drawn transition was enabled (context-specific independence).
Each step builds only the matrix it attaches, over those places alone.

A network also carries its query preparation (``eliminate._Base``), built
by its first prepared query.  Until then, a network returned by
:func:`attach_update` holds the preparation its parent held, and its first
query extends that by the new node instead of starting over, then sums
the result out to its place wires.  Where the summary is narrow enough,
the held preparation is the history summed out to its place wires, so the
query's cost does not grow with the trace.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Iterable, Mapping

import numpy as np

from .bitmatrix import MAX_DENSE_BITS, ProbVector, TypedMatrix, from_entries
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
    return (graph.in_arity == 0
            and all(g.out_arity == 1 for g in graph.gens)
            and len(set(graph.out)) == len(graph.out)
            and set(graph.out) == set(graph.wires())
            and all(net.matrix(g.name).is_stochastic() for g in graph.gens))


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
    mk, k = net.marking(marking).value, net.width
    one = (np.array([mk]), np.zeros(1, dtype=np.int64), np.ones(1))
    return MBN(node_graph(Generator("prior", 0, k)),
               {"prior": TypedMatrix(0, k, sparse=one, check=False)},
               net.places)


def uniform_prior(net: CENet) -> MBN:
    return prior_independent(net, {p: 0.5 for p in net.places})


# -- observation updates ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UpdatePair:
    """The success matrix P' over the relevant places ``sbar`` and the
    failure matrix F' over ``fail_places``, the pre-places of the step's
    support (in ``sbar`` order), each built when first read.

    A failure says only that no drawn transition was enabled, and
    enabledness reads the pre-places alone, so F' is constant along every
    other place of ``sbar``: padding F' with the identity there gives the
    failure matrix over all of ``sbar``.
    """

    sbar: tuple[str, ...]
    fail_places: tuple[str, ...]
    step: StepSpec = field(repr=False)
    # each support transition's pre- and post-set as masks over sbar
    masks: Mapping[str, tuple[int, int]] = field(repr=False)

    @property
    def ell(self) -> int:
        return len(self.sbar)

    @cached_property
    def pmat(self) -> TypedMatrix:
        ell, size, step = self.ell, 1 << self.ell, self.step
        idx, enabled, denom = _draws(
            step, {t: pre for t, (pre, _) in self.masks.items()}, ell)
        rows, cols, vals = [], [], []
        for t, (pre, post) in self.masks.items():
            en, w = enabled[t], step.weight(t)
            src = idx[en]
            rows.append((src & ~pre) | post)
            cols.append(src)
            # where t is enabled its own weight is in denom, so denom > 0
            vals.append(np.full(src.shape[0], w) if denom is None
                        else w / denom[en])
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        if not np.any(vals[rows != cols]):
            return TypedMatrix.diagonal(
                np.bincount(rows, weights=vals, minlength=size))
        return from_entries(ell, ell, rows, cols, vals)

    @cached_property
    def fmat(self) -> TypedMatrix:
        # each pre-mask moved from sbar's bits onto those of fail_places
        k, step = len(self.fail_places), self.step
        at = [self.ell - 1 - self.sbar.index(p) for p in self.fail_places]
        _, enabled, denom = _draws(step, {
            t: sum(1 << (k - 1 - i) for i, b in enumerate(at) if pre >> b & 1)
            for t, (pre, _) in self.masks.items()}, k)
        if denom is not None:
            fdiag = denom == 0
        else:
            fdiag = step.weight(FAIL) + sum(step.weight(t) * ~en
                                            for t, en in enabled.items())
        # sums of the step's validated weights, so within [0, 1] unchecked
        return TypedMatrix(k, k, diag=fdiag, check=False)


def _draws(step: StepSpec, pres: Mapping[str, int], bits: int):
    """The sub-markings of ``bits`` places, each transition's enabledness
    there by its pre-mask, and the stochastic semantics' denominator."""
    if bits > MAX_DENSE_BITS:
        raise TooLarge(f"update over {bits} places exceeds the "
                       f"2^{MAX_DENSE_BITS} guard")
    idx = np.arange(1 << bits, dtype=np.int64)
    enabled = {t: (idx & pre) == pre for t, pre in pres.items()}
    if step.semantics != STOCHASTIC:
        return idx, enabled, None
    return idx, enabled, sum(step.weight(t) * en for t, en in enabled.items())


def build_update(net: CENet, step: StepSpec) -> UpdatePair:
    """The update of ``step``: P' over its relevant places and F' over the
    pre-places of its support, each built when first read.

    This states the step semantics once.  At each sub-marking ``m`` of
    ``sbar`` the step draws transition ``t`` with probability rbar(m, t):
    its weight under the independent semantics, enabled or not; under the
    stochastic semantics, if ``t`` is enabled, its weight over the summed
    weights of the transitions enabled at ``m``, else 0.  P' moves that
    mass from ``m`` to the successor of ``t`` wherever ``t`` is enabled.
    F' is diagonal over the sub-markings of ``fail_places`` alone:
    ``fail``'s weight plus the weights drawn while disabled, or 1 where
    nothing is enabled under the stochastic semantics.  A step builds only
    the matrix it attaches, and one over more than MAX_DENSE_BITS places
    raises TooLarge before it is allocated.
    """
    rel = relevant_sets(net, step)
    pre = set().union(*(net.transition(t).pre for t in rel.masks))
    return UpdatePair(rel.sbar, tuple(p for p in rel.sbar if p in pre),
                      step, rel.masks)


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
    """Append one update node reading the current wires of the places it
    varies on.

    On success the node evaluates to P' and reads the relevant places
    ``sbar``; on failure it evaluates to the diagonal F' and reads only
    ``fail_places``, a 0-ary node when the support has no pre-places; a
    failure never builds P'.  Those places' ports move to the new node;
    every other place keeps its wire, which realizes the padded update
    without identity nodes.

    The result holds the query preparation ``net`` holds, copying nothing.
    Its first prepared query extends that preparation by the new node, so
    an observer who queries after every step builds each node factor once.
    Every network's first query sums it out to its place wires, unless it
    has more than ``eliminate.BULK_NODE_BITS`` unpinned place classes or
    the summary raises TooLarge; so where ``net``
    or an ancestor was queried, the new node reads summary factors over the
    places, not the whole history.
    """
    if obs not in OBSERVATIONS:
        raise ValidationError(f"unknown observation {obs!r}")
    if net.places is None:
        raise MissingPlace("cannot attach an update without a place map")
    places, mat = ((up.sbar, up.pmat) if obs == SUCCESS
                   else (up.fail_places, up.fmat))
    sources = tuple(net.place_wire(p) for p in places)
    name = _fresh_update_name(net, obs, step_index)
    v = net.graph.node_count
    gen = Generator(name, len(places), len(places))
    port_of = {p: i + 1 for i, p in enumerate(places)}
    new_out = tuple(
        Wire(v, port_of[p]) if p in port_of else w
        for p, w in zip(net.places, net.graph.out))
    graph = CausalityGraph(net.graph.in_arity, net.graph.gens + (gen,),
                           net.graph.sources + (sources,), new_out)
    return MBN(graph, {**net.ev, name: mat}, net.places, net.preparation)


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
    graph = replace(net.graph, out=tuple(net.place_wire(p) for p in kept))
    return MBN(graph, net.ev, kept)
