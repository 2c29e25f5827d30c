"""Causality graphs: the wiring syntax underneath modular Bayesian networks.

A graph of type ``n -> m`` has ``n`` input wires, a finite set of nodes,
each labelled with a generator and reading a sequence of wires, and ``m``
output ports each designating a wire.  Every node owns one fresh wire per
output port; acyclicity of the reads-from relation is required.  Output
designation need not be injective (duplication) and may skip wires
(the skipped wires become internal and are marginalized by evaluation).

Node ids are consecutive integers assigned at construction, so the results
of :func:`seq` and :func:`tensor` are canonical and structural equality
coincides with isomorphism-up-to-order-preserving renumbering.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import TypeMismatch, ValidationError


class Generator(NamedTuple):
    """A node label with fixed arities."""

    name: str
    in_arity: int
    out_arity: int


class Wire(NamedTuple):
    """Graph input ``j`` is ``Wire(-1, j)``; node output ``p`` is
    ``Wire(node_id, p)``.  Ports are 1-based.  Tuple order doubles as the
    deterministic wire id used for tie-breaking."""

    node: int
    port: int


def input_wire(j: int) -> Wire:
    return Wire(-1, j)


def wire_str(w: Wire) -> str:
    return f"in:{w.port}" if w.node < 0 else f"{w.node}:{w.port}"


def parse_wire(s: str) -> Wire:
    head, _, port = s.partition(":")
    try:
        p = int(port)
    except ValueError:
        raise ValidationError(f"bad wire literal {s!r}") from None
    if head == "in":
        return Wire(-1, p)
    try:
        return Wire(int(head), p)
    except ValueError:
        raise ValidationError(f"bad wire literal {s!r}") from None


@dataclass(frozen=True)
class CausalityGraph:
    in_arity: int
    gens: tuple[Generator, ...]
    sources: tuple[tuple[Wire, ...], ...]
    out: tuple[Wire, ...]

    @property
    def out_arity(self) -> int:
        return len(self.out)

    @property
    def node_count(self) -> int:
        return len(self.gens)

    def ports(self, v: int) -> tuple[Wire, ...]:
        """The target wires owned by node ``v``, one per output port."""
        return tuple(Wire(v, p) for p in range(1, self.gens[v].out_arity + 1))

    def inputs(self) -> tuple[Wire, ...]:
        return tuple(Wire(-1, j) for j in range(1, self.in_arity + 1))

    def wires(self) -> tuple[Wire, ...]:
        """All wires in ascending id order (inputs first)."""
        ws = list(self.inputs())
        for v in range(self.node_count):
            ws.extend(self.ports(v))
        return tuple(ws)

    def internal_wires(self) -> tuple[Wire, ...]:
        external = set(self.out) | set(self.inputs())
        return tuple(w for w in self.wires() if w not in external)

    def scope(self, v: int) -> tuple[Wire, ...]:
        """Source and target wires of node ``v``, deduplicated, sorted."""
        return tuple(sorted(set(self.sources[v]) | set(self.ports(v))))


def wiring_identity(n: int) -> CausalityGraph:
    return CausalityGraph(n, (), (), tuple(
        Wire(-1, j) for j in range(1, n + 1)))


def wiring_swap(n: int, m: int) -> CausalityGraph:
    """Pure rewiring ``n + m -> m + n`` exchanging the two input blocks."""
    tail = tuple(Wire(-1, j) for j in range(n + 1, n + m + 1))
    head = tuple(Wire(-1, j) for j in range(1, n + 1))
    return CausalityGraph(n + m, (), (), tail + head)


def wiring_duplicate(n: int) -> CausalityGraph:
    """Pure rewiring ``n -> 2n`` designating every input twice."""
    ins = tuple(Wire(-1, j) for j in range(1, n + 1))
    return CausalityGraph(n, (), (), ins + ins)


def wiring_terminate(n: int) -> CausalityGraph:
    """Pure rewiring ``n -> 0``: inputs are read by nobody."""
    return CausalityGraph(n, (), (), ())


def node_graph(g: Generator) -> CausalityGraph:
    """The single-node graph wrapping ``g``."""
    sources = (tuple(Wire(-1, j) for j in range(1, g.in_arity + 1)),)
    out = tuple(Wire(0, p) for p in range(1, g.out_arity + 1))
    return CausalityGraph(g.in_arity, (g,), sources, out)


def seq(first: CausalityGraph, second: CausalityGraph) -> CausalityGraph:
    """Plug ``first``'s outputs into ``second``'s inputs."""
    if first.out_arity != second.in_arity:
        raise TypeMismatch(
            f"cannot compose {first.out_arity} outputs into "
            f"{second.in_arity} inputs")
    shift = first.node_count

    def sub(w: Wire) -> Wire:
        if w.node < 0:
            return first.out[w.port - 1]
        return Wire(w.node + shift, w.port)

    return CausalityGraph(
        first.in_arity,
        first.gens + second.gens,
        first.sources + tuple(tuple(sub(w) for w in s)
                              for s in second.sources),
        tuple(sub(w) for w in second.out))


def tensor(first: CausalityGraph, second: CausalityGraph) -> CausalityGraph:
    """Place the graphs side by side; ``first`` gets the leading wires."""
    shift = first.node_count
    n1 = first.in_arity

    def sub(w: Wire) -> Wire:
        if w.node < 0:
            return Wire(-1, w.port + n1)
        return Wire(w.node + shift, w.port)

    return CausalityGraph(
        n1 + second.in_arity,
        first.gens + second.gens,
        first.sources + tuple(tuple(sub(w) for w in s)
                              for s in second.sources),
        first.out + tuple(sub(w) for w in second.out))


def validate(graph: CausalityGraph) -> list[str]:
    """Structural diagnostics; an empty list means the graph is well formed."""
    errors: list[str] = []
    n_nodes = graph.node_count
    if len(graph.sources) != n_nodes:
        errors.append("sources and generators differ in length")
        return errors

    def check_wire(w: Wire, where: str) -> None:
        if w.node < 0:
            if not (1 <= w.port <= graph.in_arity):
                errors.append(f"{where}: no graph input {wire_str(w)}")
        elif w.node >= n_nodes:
            errors.append(f"{where}: wire {wire_str(w)} names a missing node")
        elif not (1 <= w.port <= graph.gens[w.node].out_arity):
            errors.append(f"{where}: port out of range in {wire_str(w)}")

    for v in range(n_nodes):
        g = graph.gens[v]
        if len(graph.sources[v]) != g.in_arity:
            errors.append(
                f"node {v} ({g.name}): reads {len(graph.sources[v])} wires, "
                f"generator wants {g.in_arity}")
        for w in graph.sources[v]:
            check_wire(w, f"node {v} ({g.name})")
    for k, w in enumerate(graph.out):
        check_wire(w, f"output {k + 1}")
    if errors:
        return errors

    # reads-from relation must be acyclic
    state = [0] * n_nodes  # 0 unseen, 1 on stack, 2 done
    for root in range(n_nodes):
        if state[root]:
            continue
        stack = [(root, iter([w.node for w in graph.sources[root]
                              if w.node >= 0]))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            for u in it:
                if state[u] == 1:
                    errors.append(f"cycle through node {u}")
                    return errors
                if state[u] == 0:
                    state[u] = 1
                    stack.append(
                        (u, iter([w.node for w in graph.sources[u]
                                  if w.node >= 0])))
                    break
            else:
                state[v] = 2
                stack.pop()
    return errors


def dump_graph(graph: CausalityGraph) -> str:
    """One line per node, then the output designation."""
    lines = []
    for v in range(graph.node_count):
        ins = ",".join(wire_str(w) for w in graph.sources[v])
        lines.append(f"{v} {graph.gens[v].name} inputs=[{ins}]")
    lines.append("out=[" + ",".join(wire_str(w) for w in graph.out) + "]")
    return "\n".join(lines) + "\n"
