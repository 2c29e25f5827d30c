"""Reference networks and randomized generators shared across the suite.

The fixed nets are small enough to check against hand calculation: a
four-place gossip net whose one-step posterior is known in closed form, a
one-place detector net with a textbook Bayes-rule posterior, and three
wiring shapes with known elimination widths (a two-layer fan-in, a
broadcast star, and a composition of two square matrices).
"""
from __future__ import annotations

import itertools

import numpy as np

from pnbayes.bitmatrix import TypedMatrix
from pnbayes.causality import (CausalityGraph, Generator, Wire, node_graph,
                               seq, tensor, wiring_identity)
from pnbayes.eliminate import (ConstT, GenT, SeqT, TensorT, Term,
                               TreeDecomposition, term_type)
from pnbayes.mbn import MBN
from pnbayes.petri import CENet, StepSpec
from pnbayes.reason import ObservationTrace, PriorSpec

GOSSIP_PLACES = ("K1", "K2", "K3", "K4")
GOSSIP_TRANSITIONS = (
    ("d1", ("K1",), ("K1", "K2")),
    ("d2", ("K2",), ("K1", "K2")),
    ("d3", ("K1",), ("K1", "K3")),
    ("d4", ("K3",), ("K1", "K3", "K4")),
    ("d5", ("K4",), ("K2", "K4")),
)


def gossip_net() -> CENet:
    """Four agents spreading a rumour; K_i marked iff agent i knows it."""
    return CENet(GOSSIP_PLACES, GOSSIP_TRANSITIONS)


def gossip_step() -> StepSpec:
    """The three-transition stochastic step (weights renormalize to 1)."""
    return StepSpec("stochastic", {"d1": 1 / 6, "d2": 1 / 3, "d3": 1 / 6})


def gossip_trace() -> ObservationTrace:
    """Uniform prior, one observed success of the step above."""
    prior = PriorSpec(marginals=tuple((p, 0.5) for p in GOSSIP_PLACES))
    return ObservationTrace(gossip_net(), prior, ((gossip_step(), "success"),))


# -- one-place detector ------------------------------------------------------

def detector_net() -> CENet:
    """One hidden place read by a noisy detector.

    ``noise`` fires regardless, ``signal`` only when I is marked, and both
    leave the marking unchanged.  Under the independent semantics a success
    is a positive reading: P(success | marked) = w_noise + w_signal and
    P(success | clear) = w_noise.
    """
    return CENet(("I",), (("noise", (), ()), ("signal", ("I",), ("I",))))


def detector_step(p_pos_clear: float, p_pos_marked: float) -> StepSpec:
    """Weights realizing the given true/false positive rates."""
    return StepSpec("independent", {
        "noise": p_pos_clear,
        "signal": p_pos_marked - p_pos_clear,
        "fail": 1.0 - p_pos_marked,
    })


# -- random matrices ---------------------------------------------------------

def stochastic_matrix(rng: np.random.Generator, n: int, m: int) -> TypedMatrix:
    tab = rng.uniform(0.05, 1.0, size=(1 << m, 1 << n))
    return TypedMatrix(n, m, dense=tab / tab.sum(axis=0, keepdims=True))


def substochastic_matrix(rng: np.random.Generator, n: int,
                         m: int) -> TypedMatrix:
    tab = rng.uniform(0.05, 1.0, size=(1 << m, 1 << n))
    scale = rng.uniform(0.4, 1.0, size=(1, 1 << n))
    return TypedMatrix(n, m, dense=tab / tab.sum(axis=0, keepdims=True) * scale)


# -- wiring shapes with known widths -----------------------------------------

def fanin_mbn(seed: int = 0) -> MBN:
    """(A (x) B (x) C);(D (x) id);E - three sources into two fan-in nodes."""
    rng = np.random.default_rng([seed, 3])
    gens = {name: Generator(name, 0, 1) for name in "ABC"}
    gens["D"] = Generator("D", 2, 1)
    gens["E"] = Generator("E", 2, 1)
    layer = tensor(tensor(node_graph(gens["A"]), node_graph(gens["B"])),
                   node_graph(gens["C"]))
    graph = seq(seq(layer, tensor(node_graph(gens["D"]), wiring_identity(1))),
                node_graph(gens["E"]))
    ev = {name: stochastic_matrix(rng, g.in_arity, g.out_arity)
          for name, g in gens.items()}
    return MBN(graph, ev)


def named_wire(graph: CausalityGraph, name: str, port: int = 1) -> Wire:
    """The output wire of the (unique) node labelled ``name``."""
    for v, g in enumerate(graph.gens):
        if g.name == name:
            return Wire(v, port)
    raise KeyError(name)


def star_mbn(n: int, seed: int = 0) -> MBN:
    """A hub broadcast to n unary readers; only the hub wire is internal.

    Eliminating the hub wire cliques all n reader outputs at once, yet a
    decomposition with one two-wire bag per reader exists.
    """
    rng = np.random.default_rng([seed, n])
    gens = [Generator("hub", 0, 1)]
    sources: list[tuple[Wire, ...]] = [()]
    ev = {"hub": stochastic_matrix(rng, 0, 1)}
    out = []
    for i in range(n):
        name = f"r{i}"
        gens.append(Generator(name, 1, 1))
        sources.append((Wire(0, 1),))
        ev[name] = stochastic_matrix(rng, 1, 1)
        out.append(Wire(i + 1, 1))
    graph = CausalityGraph(0, tuple(gens), tuple(sources), tuple(out))
    return MBN(graph, ev)


def star_decomposition(net: MBN) -> TreeDecomposition:
    """One bag per reader, all sharing the hub wire; width 1."""
    hub = Wire(0, 1)
    bags = tuple(frozenset({hub, Wire(v, 1)})
                 for v in range(1, net.graph.node_count))
    edges = tuple((0, i) for i in range(1, len(bags)))
    return TreeDecomposition(bags, edges)


def square_pair_mbn(k: int, seed: int = 0) -> MBN:
    """Two k -> k matrices in sequence; the k middle wires are internal."""
    rng = np.random.default_rng([seed, k])
    graph = seq(node_graph(Generator("A", k, k)),
                node_graph(Generator("C", k, k)))
    ev = {"A": stochastic_matrix(rng, k, k),
          "C": stochastic_matrix(rng, k, k)}
    return MBN(graph, ev)


def square_pair_term(k: int) -> Term:
    return SeqT(GenT(Generator("A", k, k)), GenT(Generator("C", k, k)))


# -- randomized structures ---------------------------------------------------

def random_mbn(rng: np.random.Generator, max_nodes: int = 6,
               max_wires: int = 12) -> MBN | None:
    """A closed random network built in layers over a growing wire pool.

    Returns None when the draw exceeds ``max_wires``; callers resample.
    """
    gens, sources, ev = [], [], {}
    pool: list[Wire] = []
    for v in range(int(rng.integers(2, max_nodes + 1))):
        n = int(rng.integers(0, min(3, len(pool)) + 1)) if pool else 0
        m = int(rng.integers(1, 4)) if n == 0 else int(rng.integers(0, 4))
        picks = rng.choice(len(pool), size=n, replace=False) if n else []
        name = f"g{v}"
        gens.append(Generator(name, n, m))
        sources.append(tuple(pool[int(i)] for i in picks))
        ev[name] = substochastic_matrix(rng, n, m)
        pool.extend(Wire(v, p) for p in range(1, m + 1))
    if not pool:
        return None
    count = min(len(pool), int(rng.integers(1, 4)))
    keep = sorted(int(i) for i in
                  rng.choice(len(pool), size=count, replace=False))
    graph = CausalityGraph(0, tuple(gens), tuple(sources),
                           tuple(pool[i] for i in keep))
    if len(graph.wires()) > max_wires:
        return None
    return MBN(graph, ev)


def random_term(rng: np.random.Generator, max_depth: int = 3) -> Term:
    """A well-typed random term; sequencing composes into fresh generators."""
    counter = itertools.count()

    def gen(n: int, m: int) -> GenT:
        return GenT(Generator(f"g{next(counter)}", n, m))

    def leaf() -> Term:
        if rng.random() < 0.3:
            kind = ("id", "dup", "swap", "term")[int(rng.integers(4))]
            return ConstT(kind, int(rng.integers(1, 3)))
        n = int(rng.integers(0, 3))
        m = int(rng.integers(1, 3)) if n == 0 else int(rng.integers(0, 3))
        return gen(n, m)

    def build(depth: int) -> Term:
        if depth == 0 or rng.random() < 0.35:
            return leaf()
        left = build(depth - 1)
        if rng.random() < 0.5:
            return TensorT(left, build(depth - 1))
        _, m = term_type(left)
        k = int(rng.integers(0, 3)) if m else int(rng.integers(1, 3))
        return SeqT(left, gen(m, k))

    return build(max_depth)


# -- long and wide traces ------------------------------------------------------

def loop_trace(successes: int) -> ObservationTrace:
    """One place under a self-loop that fires with weight 0.5, observed to
    succeed ``successes`` times: P(I) = 1 and the mass is 0.5^(n+1)."""
    net = CENet(("I",), (("loop", ("I",), ("I",)),))
    step = StepSpec("independent", {"loop": 0.5, "fail": 0.5})
    prior = PriorSpec(marginals=(("I", 0.5),))
    return ObservationTrace(net, prior, ((step, "success"),) * successes)


def wide_trace(rng: np.random.Generator, places: int = 18,
               transitions: int = 24, steps: int = 10,
               active: int = 6) -> ObservationTrace:
    """A random net with pre sets of 2-3 places and post sets of 1-3, and
    a simulated trace whose every step activates ``active`` transitions
    plus ``fail``.  Success nodes span most of the net, so queries on it
    escalate to grouped contraction."""
    names = tuple(f"p{i}" for i in range(places))
    trans = []
    for j in range(transitions):
        pre = rng.choice(places, size=int(rng.integers(2, 4)), replace=False)
        post = rng.choice(places, size=int(rng.integers(1, 4)), replace=False)
        trans.append((f"t{j}", tuple(names[i] for i in sorted(pre)),
                      tuple(names[i] for i in sorted(post))))
    net = CENet(names, tuple(trans))
    prior = PriorSpec(marginals=tuple(
        (p, float(rng.uniform(0.3, 0.7))) for p in names))
    marked = {p for p in names if rng.random() < dict(prior.marginals)[p]}
    trace = []
    for _ in range(steps):
        chosen = sorted(rng.choice(transitions, size=active, replace=False))
        raw = rng.uniform(0.2, 1.0, size=active + 1)
        shares = raw / raw.sum()
        weights = {trans[i][0]: float(w) for i, w in zip(chosen, shares)}
        weights["fail"] = float(shares[-1])
        obs = "failure"
        u, acc = rng.random(), 0.0
        for i, w in zip(chosen, shares):
            _, pre, post = trans[i]
            if set(pre) <= marked:
                acc += w
                if u < acc:
                    marked = (marked - set(pre)) | set(post)
                    obs = "success"
                    break
        trace.append((StepSpec("independent", weights), obs))
    return ObservationTrace(net, prior, tuple(trace))
