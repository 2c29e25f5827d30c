"""Generalized variable elimination over modular Bayesian networks.

Evaluation is phrased over factors: one table per node on its source and
target wires.  Internal wires are summed out one at a time; eliminating a
wire multiplies the factors containing it and sums it away, and the final
product over the surviving factors, read at the external wires, is the
network's matrix.  The width of an elimination order (the largest factor
the order can force) is tracked alongside, together with the elimination
graph, fill-in, the min-degree heuristic, tree-decomposition checking and
the term-width calculus for compositional expressions.

The query path (``scheduled_eliminate``) always applies three rewrites
from the evaluation-scheduling playbook: diagonal nodes merge their
input/output wires into equivalence classes instead of doubling factor
arity, node outputs that nobody reads are summed out of their producing
factor, and point-mass source nodes pin their wires to constants so
factors shrink by slicing.  Runs over an explicit order
(``run_elimination``) apply none of them, except the diagonal merge on
request.

Preparation comes in two halves.  The base (``_Base``) depends only on
the network: the merged wire classes, the pins, the classes some node
reads, and each node's factor over every target that is read or is an
output, or its sparse matrix over the same targets when a grouped step
contracts it.  Both are built from one reader of the node's matrix
entries.  A query derives its problem from the base cheaply: it sums the
outputs it drops out of their factors and picks the nodes to keep as
matrices.

The base lives on the network (``MBN.preparation``), so every query on
the network shares it.  A network from ``mbn.attach_update`` holds its
parent's base until its first query, which extends it by the new node.
Where that is exact and bounded, the parent's
history is first summed out to its place wires (``_Base.summarized``): the
new base holds the factors left over the parent's output classes and a
record for the new node only, so a query plans and contracts about places
plus one node's wires however long the trace.  Otherwise the new base takes
the parent's node records over as they are, sharing their tables.  This is
the interface (frontier) idea of filtering in dynamic Bayesian networks.

A network's second query sums the network itself out the same way, once:
its base is replaced by its own summary, so that query and every later
marginal, mass or joint query on the network plan over the summary factors
alone, within BULK_NODE_BITS wires.  The first query keeps its plan, so a
network asked once pays nothing for the summary.

Nodes whose factor would not fit in memory (sparse update matrices over
many wires) are never tabulated.  The scheduler keeps them as matrices and
contracts each in a single grouped step: the dense factors touching its
input wires are joined, reshaped into a block per input assignment, and
pushed through the matrix as one sparse-times-dense product.  Everything
below the size threshold runs through the ordinary one-wire-at-a-time
eliminator.
"""
from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Union

import numpy as np
import scipy.sparse as sp

from . import kernels
from .bitmatrix import TypedMatrix
from .causality import (CausalityGraph, Generator, Wire, seq, tensor,
                        wiring_duplicate, wiring_identity, wiring_swap,
                        wiring_terminate, node_graph)
from .errors import BadOrder, TooLarge, TypeMismatch, ValidationError
from .mbn import MBN, kept_places

POINT_EPS = 1e-12
MAX_FACTOR_BITS = kernels.MAX_CONTRACT_BITS
# node factors over more live wires than this are never tabulated; they stay
# sparse matrices and are contracted by one grouped step each
BULK_NODE_BITS = 20
# once a run escalates to grouped contraction, every node over this many live
# wires goes the grouped route, so the pool keeps only small tables and the
# schedule follows the wiring order
GROUP_NODE_BITS = 6

# a node's matrix for a grouped step: (source wires, target wires, matrix
# with rows over the targets and columns over the sources)
_Grouped = tuple[tuple[Wire, ...], tuple[Wire, ...], sp.csr_matrix]


# -- factors ------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """A table over a duplicate-free, ascending wire tuple.

    The first wire indexes the most significant bit of the flat table.
    """

    wires: tuple[Wire, ...]
    table: np.ndarray

    def __post_init__(self):
        if len(set(self.wires)) != len(self.wires):
            raise ValidationError("factor wires contain duplicates")
        if tuple(sorted(self.wires)) != self.wires:
            raise ValidationError("factor wires must be sorted ascending")
        if self.table.shape != (1 << len(self.wires),):
            raise ValidationError("factor table size does not match wires")

    @property
    def size(self) -> int:
        return len(self.wires)

    def entry(self, bits: int) -> float:
        return float(self.table[bits])


def _graph_of(net: MBN | CausalityGraph) -> CausalityGraph:
    return net.graph if isinstance(net, MBN) else net


# -- elimination graphs and orders -------------------------------------------

class ElimGraph:
    """Undirected wire adjacency with fill-in under elimination."""

    def __init__(self, vertices: Iterable[Wire],
                 scopes: Iterable[Iterable[Wire]]):
        self.adj: dict[Wire, set[Wire]] = {w: set() for w in vertices}
        for scope in scopes:
            sc = list(scope)
            for w in sc:
                self.adj.setdefault(w, set())
            for i, a in enumerate(sc):
                for b in sc[i + 1:]:
                    if a != b:
                        self.adj[a].add(b)
                        self.adj[b].add(a)

    def neighbors(self, w: Wire) -> set[Wire]:
        return self.adj[w]

    def eliminate(self, w: Wire) -> tuple[Wire, ...]:
        """Remove ``w``, connecting its neighbourhood into a clique."""
        around = sorted(self.adj.pop(w))
        for a in around:
            self.adj[a].discard(w)
        for i, a in enumerate(around):
            for b in around[i + 1:]:
                self.adj[a].add(b)
                self.adj[b].add(a)
        return tuple(around)


@dataclass(frozen=True)
class ElimOrder:
    """A sequence of internal wires together with its recorded width."""

    wires: tuple[Wire, ...]
    width: int


def _order_problems(order: Sequence[Wire],
                    internal: Iterable[Wire]) -> list[str]:
    errors = []
    seen = set()
    internal = set(internal)
    for w in order:
        if w in seen:
            errors.append(f"wire {w} eliminated twice")
        seen.add(w)
        if w not in internal:
            errors.append(f"wire {w} is not internal")
    for w in sorted(internal - seen):
        errors.append(f"internal wire {w} missing from the order")
    return errors


def _scope_width(scopes: Iterable[Iterable[Wire]]) -> int:
    return max((len(set(s)) for s in scopes), default=0)


def _replay_width(vertices, scopes, order: Sequence[Wire]) -> int:
    graph = ElimGraph(vertices, scopes)
    width = _scope_width(scopes)
    for w in order:
        width = max(width, len(graph.neighbors(w)))
        graph.eliminate(w)
    return width


def _greedy_order(vertices, scopes, internal: Iterable[Wire]) -> ElimOrder:
    """Min-degree greedy elimination, smallest wire id breaking ties."""
    return _min_degree(ElimGraph(vertices, scopes), internal,
                       _scope_width(scopes))


def _min_degree(graph: ElimGraph, internal: Iterable[Wire],
                width: int) -> ElimOrder:
    """Eliminate ``internal`` from ``graph`` by min degree, smallest wire
    id breaking ties; the width is at least ``width``."""
    order: list[Wire] = []
    remaining = set(internal)
    while remaining:
        w = min(remaining, key=lambda x: (len(graph.neighbors(x)), x))
        width = max(width, len(graph.neighbors(w)))
        graph.eliminate(w)
        order.append(w)
        remaining.remove(w)
    return ElimOrder(tuple(order), width)


def _node_scopes(graph: CausalityGraph) -> list[frozenset[Wire]]:
    return [frozenset(graph.scope(v)) for v in range(graph.node_count)]


def min_degree_order(net: MBN | CausalityGraph) -> ElimOrder:
    """Greedy min-degree order over the internal wires."""
    graph = _graph_of(net)
    return _greedy_order(graph.wires(), _node_scopes(graph),
                         graph.internal_wires())


def order_width(net: MBN | CausalityGraph,
                order: ElimOrder | Sequence[Wire]) -> int:
    """Replay ``order`` and report the largest factor it can force: the
    maximum of the initial node scopes and of each eliminated wire's
    filled neighbourhood."""
    graph = _graph_of(net)
    wires = order.wires if isinstance(order, ElimOrder) else tuple(order)
    problems = _order_problems(wires, graph.internal_wires())
    if problems:
        raise BadOrder("; ".join(problems))
    return _replay_width(graph.wires(), _node_scopes(graph), wires)


def elimination_width_exact(net: MBN | CausalityGraph,
                            limit: int = 8) -> int:
    """Minimum width over all elimination orders (factorial search)."""
    graph = _graph_of(net)
    internal = graph.internal_wires()
    if len(internal) > limit:
        raise TooLarge(f"{len(internal)} internal wires exceed the "
                       f"brute-force guard ({limit})")
    vertices = graph.wires()
    scopes = _node_scopes(graph)
    best = None
    for perm in itertools.permutations(internal):
        w = _replay_width(vertices, scopes, perm)
        if best is None or w < best:
            best = w
    return best if best is not None else _scope_width(scopes)


# -- union-find for diagonal wire merging -------------------------------------

class _UnionFind:
    def __init__(self, parent: dict[Wire, Wire]):
        self.parent = parent

    def find(self, w: Wire) -> Wire:
        root = w
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(w, w) != w:
            self.parent[w], w = root, self.parent[w]
        return root

    def union(self, a: Wire, b: Wire) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # keep the smallest wire as the class representative
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


# -- factor construction ------------------------------------------------------

def _gather_positions(streams, vals: np.ndarray, pinned: dict[Wire, int]
                      ) -> tuple[list[Wire], np.ndarray, np.ndarray]:
    """Place each entry at its index over the streams' wires.

    A stream is a ``(wire, index, shift)`` triple: the wire's bit of entry
    k is ``(index[k] >> shift) & 1``.  Returns the sorted unique unpinned
    wires, each entry's flat index over them (first wire most
    significant), and ``vals`` with every entry zeroed whose repeated
    wires disagree or whose pinned wire differs from its pin.  Bits are
    computed one wire at a time.
    """
    unique = sorted({w for w, _, _ in streams if w not in pinned})
    if len(unique) > MAX_FACTOR_BITS:
        raise TooLarge(f"factor over {len(unique)} wires exceeds the "
                       f"2^{MAX_FACTOR_BITS} guard")
    slot = {w: len(unique) - 1 - k for k, w in enumerate(unique)}
    flat = np.zeros(vals.shape[0], dtype=np.int64)
    ok = None
    placed: set[Wire] = set()
    for w, index, shift in streams:
        bits = (index >> shift) & 1
        if w in pinned:
            cond = bits == pinned[w]
        elif w in placed:
            cond = bits == ((flat >> slot[w]) & 1)
        else:
            placed.add(w)
            bits <<= slot[w]
            flat |= bits
            continue
        ok = cond if ok is None else ok & cond
    if ok is not None:
        vals = np.where(ok, vals, 0.0)
    return unique, flat, vals


def _entries(mat: TypedMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries as (rows, cols, values), column by column with
    rows ascending: the order of the matrix's CSC form, built without it
    when the matrix is dense or diagonal."""
    if mat.is_sparse:
        coo = mat.to_sparse().tocoo()
        return coo.row, coo.col, coo.data
    if mat.is_diagonal:
        diag = mat.diag_vector()
        idx = np.flatnonzero(diag)
        return idx, idx, diag[idx]
    dense = mat.to_dense()
    cols, rows = np.nonzero(dense.T)
    return rows, cols, dense[rows, cols]


def _bit_streams(node: _Node):
    """A node's nonzero values with its sources and its live targets as
    ``(wire, index, shift)`` streams over the entries of its matrix."""
    rows, cols, vals = _entries(node.mat)
    n, m = node.mat.in_arity, node.mat.out_arity
    sources = [(w, cols, n - 1 - j) for j, w in enumerate(node.src)]
    targets = [(w, rows, m - p)
               for p, (w, alive) in enumerate(zip(node.tgt, node.live), 1)
               if alive]
    return vals, sources, targets


def _node_factor(node: _Node, pinned: dict[Wire, int]) -> Factor:
    """Build a node's factor over its source wires and live target wires.

    Dead target wires (read by nobody, not outputs) are summed out on the
    fly; the construction walks the matrix nonzeros, so large sparse
    updates never materialize a dense table over all their wires.  A
    diagonal node's sources are its merged input/output classes.
    """
    vals, sources, targets = _bit_streams(node)
    unique, flat, vals = _gather_positions(sources + targets, vals, pinned)
    table = np.bincount(flat, weights=vals, minlength=1 << len(unique))
    return Factor(tuple(unique), table)


def _node_matrix(node: _Node, pinned: dict[Wire, int]) -> _Grouped:
    """The node's matrix as rows over live targets, columns over sources.

    Dead targets are summed out and pinned wires sliced away, both by
    accumulating coordinate duplicates; wires index bits in ascending
    order on each side.
    """
    vals, sources, targets = _bit_streams(node)
    ins, cols, vals = _gather_positions(sources, vals, pinned)
    outs, rows, vals = _gather_positions(targets, vals, pinned)
    keep = vals != 0.0
    reduced = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                            shape=(1 << len(outs), 1 << len(ins)))
    return tuple(ins), tuple(outs), reduced


# -- prepared elimination problems --------------------------------------------

@dataclass
class ElimStats:
    """Bookkeeping of one elimination run.  ``contractions`` counts every
    contraction, ``grouped_steps`` the grouped ones among them.
    ``summarized`` says whether the query planned over a summary of the
    network's history (``_Base.summarized``) instead of its node records
    alone."""

    max_factor_wires: int = 0
    contractions: int = 0
    grouped_steps: int = 0
    summarized: bool = False

    def track(self, size: int) -> None:
        if size > self.max_factor_wires:
            self.max_factor_wires = size


@dataclass(frozen=True)
class _Node:
    """One node's matrix over representative wire classes.

    ``live`` marks the targets its factor keeps; a dead target is summed
    out.  A diagonal node lists its merged input/output classes as ``src``
    and has no targets of its own.
    """

    index: int
    mat: TypedMatrix
    src: tuple[Wire, ...]
    tgt: tuple[Wire, ...]
    live: tuple[bool, ...]
    diagonal: bool = False

    def scope(self, pinned: dict[Wire, int],
              live: Sequence[bool] | None = None) -> frozenset[Wire]:
        """The unpinned wires of the node's factor."""
        live = self.live if live is None else live
        wires = {w for w in self.src if w not in pinned}
        wires.update(w for w, alive in zip(self.tgt, live)
                     if alive and w not in pinned)
        return frozenset(wires)


def _is_point_mass(mat: TypedMatrix) -> int | None:
    """The unique output bitstring of a point-mass source, else None."""
    if mat.in_arity != 0:
        return None
    rows, _, vals = _entries(mat)
    heavy = np.flatnonzero(vals > POINT_EPS)
    if heavy.shape[0] == 1 and abs(vals[heavy[0]] - 1) <= POINT_EPS:
        return int(rows[heavy[0]])
    return None


class _Base:
    """The query-independent half of preparing a network.

    It holds the merged diagonal wire classes, the point-mass pins, the
    classes some node reads, and each node's factor, or its sparse matrix
    for a grouped step, once a query first asks for it.  A ``query`` base
    pins point masses, and its factors and matrices span the node's targets
    that are read or are outputs of the network.  A query that drops an
    output sums it out of its single producing factor, which is what
    folding it at construction would give; a grouped step keeps it in its
    result, where it is confined and summed out next.  Without ``query``
    (runs over an explicit order) nothing is pinned or folded.  A node
    whose base factor would span more than BULK_NODE_BITS wires is not
    kept; each query that needs its table builds its own.

    A base is built node by node on top of a ``parent`` base, or of the
    empty base.  The parent's records are taken as they are, which is
    right when the network's first nodes are the parent's (see
    ``_extends``), the new nodes read only wires the parent knows
    (``_knows``), and no older target changes between read-or-output and
    dead (``kept``).  Adding later nodes never changes an older class:
    each new wire joins the class of a wire it is merged with, and it is
    larger than every older wire, so the smallest wire stays the
    representative.  The parent's cached tables and matrices are shared;
    the dicts that hold them are copied.

    A base may also hold ``summary`` factors: an older network, or the
    network itself, summed out to its output classes (see ``summarized``).  Every query multiplies
    them in as they are.  They are shared read-only and never folded by
    live flags, because a dropped output can sit in several of them; such
    a wire is simply eliminated.  A base with a summary knows only the
    wires of its records and the summarized network's inputs and outputs.
    """

    def __init__(self, net: MBN, merge_diagonal: bool, query: bool,
                 parent: _Base | None = None):
        graph = net.graph
        if parent is None:
            first, fresh = 0, list(graph.inputs())
            rep: dict[Wire, Wire] = {}
            pinned: dict[Wire, int] = {}
            zero, read = False, set()
            nodes: dict[int, _Node] = {}
            tables: dict[int, Factor] = {}
            matrices: dict[int, _Grouped] = {}
            summary: tuple[Factor, ...] = ()
        else:
            first, fresh = parent.graph.node_count, []
            rep, pinned = dict(parent.rep), dict(parent.pinned)
            zero, read = parent.zero, set(parent.read)
            nodes = dict(parent.nodes)
            tables, matrices = dict(parent._tables), dict(parent._matrices)
            summary = parent.summary
        added = range(first, graph.node_count)
        for v in added:
            fresh.extend(graph.ports(v))

        uf = _UnionFind(rep)
        diagonal_nodes = set()
        if merge_diagonal:
            for v in added:
                mat = net.matrix(graph.gens[v].name)
                if mat.is_diagonal and mat.in_arity > 0:
                    diagonal_nodes.add(v)
                    for j, w in enumerate(graph.sources[v]):
                        uf.union(w, Wire(v, j + 1))
        for w in fresh:
            rep[w] = uf.find(w)

        skipped = set()
        if query:
            for v in added:
                if v in diagonal_nodes or graph.gens[v].in_arity != 0:
                    continue
                point = _is_point_mass(net.matrix(graph.gens[v].name))
                if point is None:
                    continue
                skipped.add(v)
                m = graph.gens[v].out_arity
                for p in range(1, m + 1):
                    bit = (point >> (m - p)) & 1
                    w = rep[Wire(v, p)]
                    if pinned.setdefault(w, bit) != bit:
                        zero = True

        read.update(rep[w] for v in added if v not in skipped
                    for w in graph.sources[v])
        kept = read | {rep[w] for w in graph.out}
        for v in added:
            if v in skipped:
                continue
            gen = graph.gens[v]
            mat = net.matrix(gen.name)
            src = tuple(rep[w] for w in graph.sources[v])
            if v in diagonal_nodes:
                nodes[v] = _Node(v, mat, src, (), (), diagonal=True)
                continue
            tgt = tuple(rep[Wire(v, p)] for p in range(1, gen.out_arity + 1))
            live = tuple(not query or w in kept for w in tgt)
            nodes[v] = _Node(v, mat, src, tgt, live)
        self.graph = graph
        self.ev = net.ev
        self.rep = rep
        self.pinned = pinned
        self.zero = zero
        self.query = query
        self.read = read
        self.kept = kept
        self.nodes = nodes
        self._tables = tables
        self._matrices = matrices
        self.summary = summary
        # whether a query has already tried to summarize this base in place
        self.tried_summary = False

    def _extends(self, net: MBN) -> bool:
        """Whether ``net`` starts with this base's network: the same
        inputs, and the same first nodes reading the same wires and
        evaluated by the same matrix objects."""
        mine, graph = self.graph, net.graph
        n = mine.node_count
        return (graph.in_arity == mine.in_arity
                and graph.gens[:n] == mine.gens
                and graph.sources[:n] == mine.sources
                and all(net.ev.get(g.name) is self.ev[g.name]
                        for g in mine.gens))

    def _knows(self, net: MBN, wires) -> bool:
        """Whether ``net``'s new nodes read, and its outputs are, only
        ``wires`` of this base's network or ports of those new nodes."""
        graph, n = net.graph, self.graph.node_count
        return all(w.node >= n or w in wires
                   for w in itertools.chain(graph.out, *graph.sources[n:]))

    def summarized(self, net: MBN, stats: ElimStats) -> _Base | None:
        """This network summed out to its inputs and unpinned output
        classes, as a base with no node records, for ``net`` to extend.

        It is the problem of this network over all its outputs
        (``problem``), eliminated by min-degree; the factors left are the
        new summary.  It is taken only when it is exact for ``net`` (this
        base is not zero, and ``net``'s new nodes read and its outputs are
        only this network's inputs, outputs or new ports) and its plan is
        at most BULK_NODE_BITS wide; otherwise the result is None, found
        without planning when a node would be kept as a matrix.  The run is
        charged to ``stats``.  Its factors come from ``problem.factors()``,
        so a node table not built yet is built and kept in this base, as by
        any query; nothing already in the base changes.  With ``net`` this
        base's own network, the result answers every query on it.
        """
        graph, rep = self.graph, self.rep
        shown = graph.inputs() + graph.out
        if self.zero or not self._knows(net, set(shown)):
            return None
        problem = self.problem(graph.out, BULK_NODE_BITS)
        if problem.lazy:
            return None
        plan = _greedy_order(problem.vertices(), problem.scopes,
                             problem.internal)
        if plan.width > BULK_NODE_BITS:
            return None
        left = _absorb(_run(problem.factors(), plan.wires, stats))
        for f in left:
            f.table.flags.writeable = False
        base = copy.copy(self)
        base.rep = {w: rep[w] for w in shown}
        base.read, base.kept = set(), {rep[w] for w in graph.out}
        base.nodes, base._tables, base._matrices = {}, {}, {}
        base.summary = tuple(left)
        return base

    def problem(self, out: Sequence[Wire],
                bulk_bits: int | None = None) -> _Problem:
        """The elimination problem of the base network with only the
        output wires ``out``.

        Nodes whose factor would span more than ``bulk_bits`` live wires
        are kept as matrices (``lazy``).  No table is built here.
        """
        graph, rep, pinned = self.graph, self.rep, self.pinned
        kept = self.read | {rep[w] for w in out}
        tabulated: list[tuple[int, tuple[bool, ...]]] = []
        scopes = [frozenset(f.wires) for f in self.summary]
        lazy: list[tuple[int, tuple[bool, ...]]] = []
        in_factors: set[Wire] = set().union(*scopes)
        for node in self.nodes.values():
            live = node.live
            if self.query:
                live = tuple(w in kept for w in node.tgt)
            scope = node.scope(pinned, live)
            in_factors.update(scope)
            if (bulk_bits is not None and not node.diagonal
                    and len(scope) > bulk_bits):
                lazy.append((node.index, live))
                continue
            tabulated.append((node.index, live))
            scopes.append(scope)

        ext_slots = tuple(rep[w] for w in graph.inputs()) + \
            tuple(rep[w] for w in out)
        external = set(ext_slots)
        internal = tuple(sorted(w for w in in_factors if w not in external))
        return _Problem(self, tabulated, scopes, internal, ext_slots,
                        graph.in_arity, len(out), lazy)

    def factor(self, index: int, live: tuple[bool, ...]) -> Factor:
        """Node ``index``'s factor over its ``live`` targets."""
        node = self.nodes[index]
        full = self._tables.get(index)
        if full is None:
            if (not node.diagonal
                    and len(node.scope(self.pinned)) > BULK_NODE_BITS):
                return _node_factor(replace(node, live=live), self.pinned)
            full = _node_factor(node, self.pinned)
            # shared by every query on this base, so never written to
            full.table.flags.writeable = False
            self._tables[index] = full
        dead = tuple(full.wires.index(w) for w, was, alive
                     in zip(node.tgt, node.live, live) if was and not alive)
        if not dead:
            return full
        table = full.table.reshape((2,) * full.size).sum(axis=dead).ravel()
        wires = tuple(w for a, w in enumerate(full.wires) if a not in dead)
        return Factor(wires, table)

    def matrix(self, index: int) -> _Grouped:
        """Node ``index``'s matrix for a grouped step, over the targets
        that are read or are outputs of the network."""
        got = self._matrices.get(index)
        if got is None:
            got = _node_matrix(self.nodes[index], self.pinned)
            self._matrices[index] = got
        return got


@dataclass
class _Problem:
    """One query against a base: which nodes it tabulates and which it
    keeps as matrices, each with its live targets, and its internal
    wires."""

    base: _Base
    tabulated: list[tuple[int, tuple[bool, ...]]]
    scopes: list[frozenset[Wire]]
    internal: tuple[Wire, ...]
    ext_slots: tuple[Wire, ...]
    in_arity: int
    out_arity: int
    lazy: list[tuple[int, tuple[bool, ...]]]

    def factors(self) -> list[Factor]:
        return list(self.base.summary) + [self.base.factor(v, live)
                                          for v, live in self.tabulated]

    def vertices(self):
        verts = set(self.ext_slots)
        for scope in self.scopes:
            verts.update(scope)
        return verts


def _query_base(net: MBN, stats: ElimStats) -> _Base:
    """The query base of ``net``, kept on the network.

    A network that holds its own base returns it; the first time after the
    query that built it, if the base still holds node records, it is first
    replaced by its own summary (``summarized``, charged to ``stats``), so
    the second and later queries plan over the summary factors alone.  The
    summary is tried once per base.  One that holds another
    base, handed on by ``attach_update``, extends it by the new nodes when
    ``net`` starts with that base's network: on top of the held base's
    summary when ``summarized`` gives one (its elimination is charged to
    ``stats``), else on top of the held base itself when the new nodes read
    only wires it knows and its records keep their live targets.
    Otherwise, and for a network that holds nothing, the base is built from
    the empty one.  The new base replaces the held one, so a chain of
    networks keeps at most one older base alive.
    """
    held = net.preparation
    if held is not None and held.graph is net.graph and held.ev is net.ev:
        if held.nodes and not held.tried_summary:
            held.tried_summary = True
            summary = held.summarized(net, stats)
            if summary is not None:
                object.__setattr__(net, "preparation", summary)
                return summary
        return held
    base = None
    if held is not None and held._extends(net):
        summary = held.summarized(net, stats)
        if summary is not None:
            base = _Base(net, merge_diagonal=True, query=True,
                         parent=summary)
        elif held._knows(net, held.rep):
            base = _Base(net, merge_diagonal=True, query=True,
                         parent=held)
            n = held.graph.node_count
            if {w for w in base.kept if w.node < n} != held.kept:
                base = None
    if base is None:
        base = _Base(net, merge_diagonal=True, query=True)
    # the network is frozen; its preparation is a cache beside its fields
    object.__setattr__(net, "preparation", base)
    return base


# -- running an elimination ---------------------------------------------------

def _contract(group: list[Factor], z: Wire, stats: ElimStats) -> Factor:
    union: set[Wire] = set()
    for f in group:
        union.update(f.wires)
    union.discard(z)
    out_wires = tuple(sorted(union))
    slot = {w: k for k, w in enumerate(out_wires)}
    slot[z] = len(out_wires)
    tables = [f.table for f in group]
    slots = [tuple(slot[w] for w in f.wires) for f in group]
    table = kernels.sum_product_pair(tables, slots, len(out_wires))
    stats.contractions += 1
    out = Factor(out_wires, table)
    stats.track(out.size)
    return out


def _run(factors: list[Factor], order: Sequence[Wire],
         stats: ElimStats) -> list[Factor]:
    factors = list(factors)
    for f in factors:
        stats.track(f.size)
    for z in order:
        group = [f for f in factors if z in f.wires]
        factors = [f for f in factors if z not in f.wires]
        if not group:
            # a wire constrained by nothing sums to 2 over its two values
            factors.append(Factor((), np.array([2.0])))
            continue
        factors.append(_contract(group, z, stats))
    return factors


def _absorb(factors: list[Factor]) -> list[Factor]:
    """Multiply each factor into a wider one holding all its wires, so no
    factor left is covered by another; scalars fold into the first."""
    kept: list[Factor] = []
    for f in sorted(factors, key=lambda f: -f.size):
        wires = set(f.wires)
        for k, g in enumerate(kept):
            if wires <= set(g.wires):
                kept[k] = Factor(g.wires, _join([g, f], g.wires))
                break
        else:
            kept.append(f)
    return kept


def _join(group: list[Factor], wires: tuple[Wire, ...]) -> np.ndarray:
    """Pointwise product of the factors, broadcast over ``wires``."""
    if len(wires) > MAX_FACTOR_BITS:
        raise TooLarge(f"joined factor over {len(wires)} wires exceeds "
                       f"the 2^{MAX_FACTOR_BITS} guard")
    slot = {w: k for k, w in enumerate(wires)}
    product = kernels._broadcast_product(
        [f.table for f in group],
        [tuple(slot[w] for w in f.wires) for f in group], len(wires))
    return np.ascontiguousarray(product).ravel()


def _apply_lazy(matrix: _Grouped, factors: list[Factor], stats: ElimStats
                ) -> tuple[list[Factor], tuple[Wire, ...]]:
    """Contract one oversized node in a single grouped step.

    Joins the factors meeting the node's inputs, sums all inputs out
    through the node's ``matrix`` (from ``_Base.matrix``) and returns the
    surviving factors plus the wires this step eliminated.
    """
    ins, outs, reduced = matrix
    in_set = set(ins)
    touched = [f for f in factors if in_set.intersection(f.wires)]
    rest = [f for f in factors if not in_set.intersection(f.wires)]
    scope = set(in_set)
    for f in touched:
        scope.update(f.wires)
    passthrough = tuple(sorted(scope - in_set))
    # join with inputs leading so each input assignment indexes one block
    joined_wires = ins + passthrough
    joined = _join(touched, joined_wires)
    stats.track(len(joined_wires))
    stats.contractions += 1
    stats.grouped_steps += 1
    block = joined.reshape(1 << len(ins), -1)
    result = np.asarray(reduced @ block)
    stats.track(len(outs) + len(passthrough))

    # read the product back over the deduplicated result wires; a wire on
    # both sides (target merged into a passthrough class) must agree, so
    # duplicated axes collapse onto their diagonal (views throughout, one
    # materialization at the end)
    axis_wires = list(outs) + list(passthrough)
    view = result.reshape((2,) * len(axis_wires))
    while len(set(axis_wires)) != len(axis_wires):
        seen: dict[Wire, int] = {}
        for a, w in enumerate(axis_wires):
            if w in seen:
                view = np.diagonal(view, axis1=seen[w], axis2=a)
                del axis_wires[a], axis_wires[seen[w]]
                axis_wires.append(w)
                break
            seen[w] = a
    order = sorted(range(len(axis_wires)), key=lambda a: axis_wires[a])
    wires = tuple(sorted(axis_wires))
    rest.append(Factor(wires, np.ascontiguousarray(
        view.transpose(order)).ravel()))
    return rest, ins


def _sweep_confined(factors: list[Factor], protected: set[Wire],
                    eliminated: list[Wire]) -> list[Factor]:
    """Sum out unprotected wires confined to a single factor.

    Each grouped step strands wires whose every reader has already fired;
    marginalizing them inside their own factor keeps later joins from
    dragging the dead scope along.
    """
    count: dict[Wire, int] = {}
    for f in factors:
        for w in f.wires:
            count[w] = count.get(w, 0) + 1
    swept: list[Factor] = []
    for f in factors:
        dead = [w for w in f.wires if count[w] == 1 and w not in protected]
        if not dead:
            swept.append(f)
            continue
        axes = tuple(f.wires.index(w) for w in dead)
        table = f.table.reshape((2,) * f.size).sum(axis=axes).ravel()
        kept = tuple(w for w in f.wires if w not in dead)
        swept.append(Factor(kept, table))
        eliminated.extend(dead)
    return swept


def _run_hybrid(problem: _Problem, stats: ElimStats
                ) -> tuple[list[Factor], tuple[Wire, ...]]:
    """Grouped contraction of the oversized nodes, in wiring order, then
    ordinary min-degree elimination of whatever wires remain."""
    external = set(problem.ext_slots)
    base = problem.base
    pinned = base.pinned
    # a grouped step sums out every input at once, so it must own them:
    # nodes reading external wires or wires another oversized node also
    # reads fall back to a table (the factor guard rules on feasibility)
    grouped: list[_Node] = []
    demoted: list[Factor] = []
    taken: set[Wire] = set()
    for index, live in problem.lazy:
        node = base.nodes[index]
        ins = {w for w in node.src if w not in pinned}
        if ins & external or ins & taken:
            demoted.append(base.factor(index, live))
            continue
        taken |= ins
        grouped.append(node)
    factors = problem.factors() + demoted
    for f in factors:
        stats.track(f.size)
    eliminated: list[Wire] = []
    for i, node in enumerate(grouped):
        protected = set(external)
        for later in grouped[i:]:
            protected.update(later.scope(pinned))
        factors = _sweep_confined(factors, protected, eliminated)
        factors, consumed = _apply_lazy(base.matrix(node.index), factors,
                                        stats)
        eliminated.extend(consumed)
    factors = _sweep_confined(factors, external, eliminated)
    done = set(eliminated)
    remaining = tuple(w for w in problem.internal if w not in done)
    verts = set(external)
    scopes = []
    for f in factors:
        verts.update(f.wires)
        scopes.append(frozenset(f.wires))
    plan = _greedy_order(verts, scopes, remaining)
    factors = _run(factors, plan.wires, stats)
    eliminated.extend(plan.wires)
    return factors, tuple(eliminated)


def _combine(problem: _Problem, factors: list[Factor]) -> TypedMatrix:
    n, m = problem.in_arity, problem.out_arity
    total_bits = n + m
    if total_bits > MAX_FACTOR_BITS:
        raise TooLarge(f"result over {total_bits} wires exceeds the "
                       f"2^{MAX_FACTOR_BITS} guard")
    size = 1 << total_bits
    if problem.base.zero:
        return TypedMatrix(n, m,
                           dense=np.zeros((1 << m, 1 << n)), check=False)
    pinned = problem.base.pinned
    space = np.arange(size, dtype=np.int64)
    # flat result index: output bits (most significant) then input bits
    slot_bits: dict[Wire, np.ndarray] = {}
    mask = np.ones(size, dtype=bool)
    positions = list(problem.ext_slots[n:]) + list(problem.ext_slots[:n])
    for k, w in enumerate(positions):
        bits = (space >> (total_bits - 1 - k)) & 1
        if w in pinned:
            mask &= bits == pinned[w]
        elif w in slot_bits:
            mask &= bits == slot_bits[w]
        else:
            slot_bits[w] = bits
    values = mask.astype(np.float64)
    for f in factors:
        idx = np.zeros(size, dtype=np.int64)
        for a, w in enumerate(f.wires):
            if w in pinned:
                # already sliced away during construction
                raise ValidationError("pinned wire survived elimination")
            if w not in slot_bits:
                raise BadOrder(f"internal wire {w} was never eliminated")
            idx |= slot_bits[w] << (f.size - 1 - a)
        values = values * f.table[idx]
    return TypedMatrix(n, m, dense=values.reshape(1 << m, 1 << n),
                       check=False)


def initial_factors(net: MBN, merge_diagonal: bool = False) -> list[Factor]:
    """One factor per node; with ``merge_diagonal`` the diagonal-flagged
    nodes contribute a half-arity factor over merged wire classes."""
    base = _Base(net, merge_diagonal, query=False)
    return base.problem(net.graph.out).factors()


def run_elimination_stats(net: MBN, order: ElimOrder | Sequence[Wire],
                          merge_diagonal: bool = False
                          ) -> tuple[TypedMatrix, ElimStats]:
    graph = net.graph
    wires = order.wires if isinstance(order, ElimOrder) else tuple(order)
    problems = _order_problems(wires, graph.internal_wires())
    if problems:
        raise BadOrder("; ".join(problems))
    base = _Base(net, merge_diagonal, query=False)
    problem = base.problem(graph.out)
    # a merged class is summed out where its last member would have been
    last = {base.rep[w]: k for k, w in enumerate(wires)}
    rep_order = sorted(problem.internal, key=last.__getitem__)
    stats = ElimStats()
    left = _run(problem.factors(), rep_order, stats)
    return _combine(problem, left), stats


def run_elimination(net: MBN, order: ElimOrder | Sequence[Wire],
                    merge_diagonal: bool = False) -> TypedMatrix:
    """Eliminate the internal wires in ``order`` and return the matrix.

    Agrees with naive evaluation on every valid order; the order must
    cover the internal wires exactly.  With ``merge_diagonal=True`` the
    run is never wider than the plain run on the same order.
    """
    return run_elimination_stats(net, order, merge_diagonal)[0]


def scheduled_eliminate(net: MBN, places: Iterable[str] | None = None
                        ) -> tuple[TypedMatrix, ElimOrder, ElimStats]:
    """The query path: the marginal of ``net`` over ``places`` (every
    output when None, else the asked places in net order, each output
    outside them summed out).  It always folds dead outputs, merges
    diagonal wires and pins point masses, then eliminates the internal
    wires by min-degree.

    The places are checked before anything is prepared: an unknown place,
    or places asked of a network without a place map, raises
    ``MissingPlace`` and leaves ``net.preparation`` as it was.  The base is
    kept on the network (``_query_base``), so a later call on the same
    network, over any places, reuses it with every node factor and
    grouped-step matrix built from it.  A network from ``attach_update``
    extends the base its parent held instead of building one from nothing;
    when it first sums the parent's history out to the place wires, or when
    a second call sums the network itself out, that elimination runs in
    this call and counts in the returned stats (``contractions``,
    ``max_factor_wires``), so ``max_factor_wires`` may exceed the order's
    width.  ``stats.summarized`` says whether the plan ran over a summary.

    Nodes whose factor would span more than BULK_NODE_BITS live wires are
    never tabulated.  When such a node exists, or when no tabulated
    min-degree run would fit the factor guard, the run escalates: every
    node over GROUP_NODE_BITS live wires is kept as a sparse matrix and
    contracted in one grouped step, in wiring order.  The escalated problem
    is derived from the same base, so escalating prepares nothing twice,
    and no table is built before the route is chosen.  The returned order
    then lists the wires in the sequence actually summed out and reports
    the realized width (the widest table the run produced).  Both
    thresholds are read when the call starts.
    """
    out = net.graph.out if places is None else tuple(
        net.place_wire(p) for p in kept_places(net, places))
    stats = ElimStats()
    base = _query_base(net, stats)
    stats.summarized = bool(base.summary)
    problem = base.problem(out, BULK_NODE_BITS)
    if not problem.lazy:
        plan = _greedy_order(problem.vertices(), problem.scopes,
                             problem.internal)
        # width counts a factor's wires after the sum-out; the contraction
        # in flight holds one more, so a plan at the guard must escalate
        if plan.width < MAX_FACTOR_BITS:
            left = _run(problem.factors(), plan.wires, stats)
            return _combine(problem, left), plan, stats
    problem = base.problem(out, GROUP_NODE_BITS)
    if base.zero:
        return _combine(problem, []), ElimOrder((), 0), stats
    left, sequence = _run_hybrid(problem, stats)
    plan = ElimOrder(sequence, stats.max_factor_wires)
    return _combine(problem, left), plan, stats


# -- tree decompositions ------------------------------------------------------

@dataclass(frozen=True)
class TreeDecomposition:
    """Bags of wires on an (undirected) tree, given as bag list plus edges
    between bag indices."""

    bags: tuple[frozenset[Wire], ...]
    edges: tuple[tuple[int, int], ...]


def validate_tree_decomposition(net: MBN | CausalityGraph,
                                td: TreeDecomposition) -> int:
    """Check the decomposition conditions; return max bag size minus one.

    Raises with the violated condition: (1) the bag graph is a tree,
    (2) every wire is covered, (3) every node's scope fits in one bag,
    (4) each wire's bags form a subtree.
    """
    graph = _graph_of(net)
    nb = len(td.bags)
    adj: dict[int, set[int]] = {i: set() for i in range(nb)}
    for a, b in td.edges:
        if not (0 <= a < nb and 0 <= b < nb) or a == b:
            raise ValidationError(f"condition 1: bad edge ({a}, {b})")
        adj[a].add(b)
        adj[b].add(a)
    if len(td.edges) != max(nb - 1, 0):
        raise ValidationError("condition 1: edge count is not bags - 1")
    if nb:
        seen = {0}
        queue = [0]
        while queue:
            for j in adj[queue.pop()]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) != nb:
            raise ValidationError("condition 1: bag graph is disconnected")
    covered = set().union(*td.bags) if nb else set()
    for w in graph.wires():
        if w not in covered:
            raise ValidationError(f"condition 2: wire {w} in no bag")
    for v in range(graph.node_count):
        scope = set(graph.scope(v))
        if not any(scope <= bag for bag in td.bags):
            raise ValidationError(
                f"condition 3: node {v}'s wires fit in no bag")
    for w in covered:
        holding = [i for i, bag in enumerate(td.bags) if w in bag]
        inside = set(holding)
        seen = {holding[0]}
        queue = [holding[0]]
        while queue:
            for j in adj[queue.pop()]:
                if j in inside and j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) != len(holding):
            raise ValidationError(
                f"condition 4: bags containing {w} are not connected")
    return max((len(bag) for bag in td.bags), default=0) - 1


def tree_decomposition_from_order(net: MBN | CausalityGraph,
                                  order: ElimOrder | Sequence[Wire]
                                  ) -> TreeDecomposition:
    """The decomposition an elimination order induces: one bag per wire,
    holding the wire plus its filled neighbourhood at elimination time.

    The order covers the internal wires; external wires are appended
    greedily to complete the elimination.
    """
    graph = _graph_of(net)
    wires = order.wires if isinstance(order, ElimOrder) else tuple(order)
    problems = _order_problems(wires, graph.internal_wires())
    if problems:
        raise BadOrder("; ".join(problems))
    # replay the internal part, then extend min-degree over the externals
    shadow = ElimGraph(graph.wires(), _node_scopes(graph))
    for w in wires:
        shadow.eliminate(w)
    rest = _min_degree(shadow, set(graph.wires()) - set(wires), 0)
    full_order = wires + rest.wires
    g = ElimGraph(graph.wires(), _node_scopes(graph))
    position = {w: i for i, w in enumerate(full_order)}
    bags = []
    parents: list[int | None] = []
    for w in full_order:
        around = g.eliminate(w)
        bags.append(frozenset((w,) + around))
        parents.append(min((position[u] for u in around), default=None))
    edges = []
    roots = [i for i, p in enumerate(parents) if p is None]
    edges.extend((i, p) for i, p in enumerate(parents) if p is not None)
    edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(tuple(bags), tuple(edges))


# -- terms and term width -----------------------------------------------------

@dataclass(frozen=True)
class GenT:
    gen: Generator


@dataclass(frozen=True)
class ConstT:
    kind: str  # id | dup | swap | term
    n: int


@dataclass(frozen=True)
class SeqT:
    first: "Term"
    second: "Term"


@dataclass(frozen=True)
class TensorT:
    first: "Term"
    second: "Term"


Term = Union[GenT, ConstT, SeqT, TensorT]

_CONST_TYPES = {
    "id": lambda n: (n, n),
    "dup": lambda n: (n, 2 * n),
    "swap": lambda n: (2 * n, 2 * n),
    "term": lambda n: (n, 0),
}


def term_type(t: Term) -> tuple[int, int]:
    if isinstance(t, GenT):
        return t.gen.in_arity, t.gen.out_arity
    if isinstance(t, ConstT):
        if t.kind not in _CONST_TYPES:
            raise ValidationError(f"unknown constant kind {t.kind!r}")
        if t.n < 0 or (t.n == 0 and t.kind != "id"):
            raise ValidationError(f"bad constant arity {t.n}")
        return _CONST_TYPES[t.kind](t.n)
    n1, m1 = term_type(t.first)
    n2, m2 = term_type(t.second)
    if isinstance(t, SeqT):
        if m1 != n2:
            raise TypeMismatch(
                f"cannot compose {m1} outputs into {n2} inputs")
        return n1, m2
    return n1 + n2, m1 + m2


def term_width(t: Term) -> int:
    """The largest matrix type a term evaluation passes through."""
    n, m = term_type(t)
    if isinstance(t, (GenT, ConstT)):
        return n + m
    return max(term_width(t.first), term_width(t.second), n + m)


def term_graph(t: Term) -> CausalityGraph:
    return _build_term(t)[0]


def _build_term(t: Term) -> tuple[CausalityGraph, list[Wire]]:
    if isinstance(t, GenT):
        return node_graph(t.gen), []
    if isinstance(t, ConstT):
        term_type(t)  # validates
        maker = {"id": wiring_identity, "dup": wiring_duplicate,
                 "term": wiring_terminate,
                 "swap": lambda n: wiring_swap(n, n)}[t.kind]
        return maker(t.n), []
    g1, o1 = _build_term(t.first)
    g2, o2 = _build_term(t.second)
    shift = g1.node_count
    o2 = [Wire(w.node + shift, w.port) for w in o2]
    if isinstance(t, TensorT):
        return tensor(g1, g2), o1 + o2
    composite = seq(g1, g2)
    out_set = set(composite.out)
    mids: list[Wire] = []
    seen: set[Wire] = set()
    for w in g1.out:
        if w.node < 0 or w in out_set or w in seen:
            continue
        seen.add(w)
        mids.append(w)
    return composite, o1 + o2 + mids


def order_from_term(t: Term) -> ElimOrder:
    """The elimination order a compositional term induces: sub-term orders
    first, then the wires each sequential composite hides."""
    graph, order = _build_term(t)
    return ElimOrder(tuple(order),
                     _replay_width(graph.wires(), _node_scopes(graph), order))
