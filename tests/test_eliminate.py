"""Variable elimination: orders, widths, optimizations, decompositions."""
import itertools

import numpy as np
import pytest

from pnbayes import eliminate
from pnbayes.bitmatrix import TypedMatrix
from pnbayes.causality import (CausalityGraph, Generator, Wire, node_graph,
                               seq)
from pnbayes.eliminate import (ConstT, GenT, SeqT, TensorT, TreeDecomposition,
                               elimination_width_exact, initial_factors,
                               min_degree_order, order_from_term, order_width,
                               run_elimination, run_elimination_stats,
                               scheduled_eliminate, term_graph, term_type,
                               term_width, tree_decomposition_from_order,
                               validate_tree_decomposition)
from pnbayes.errors import (BadOrder, MissingPlace, TooLarge, TypeMismatch,
                            ValidationError)
from pnbayes.mbn import (MBN, attach_update, build_update, eval_naive,
                         prior_independent, prior_point, terminate,
                         uniform_prior)
from pnbayes.randnet import BenchConfig, bench_rows, random_trace
from pnbayes.reason import ObservationTrace, dense_posterior, run

import reference_nets as nets


def fanin_wires(net):
    return {name: nets.named_wire(net.graph, name) for name in "ABCDE"}


# -- factors ------------------------------------------------------------------

def test_initial_factors_carry_node_scopes():
    net = nets.fanin_mbn()
    factors = initial_factors(net)
    w = fanin_wires(net)
    scopes = {f.wires for f in factors}
    assert (w["A"],) in scopes and (w["B"],) in scopes
    assert (w["A"], w["B"], w["D"]) in scopes
    assert (w["C"], w["D"], w["E"]) in scopes
    # ascending wires, first wire most significant: (a=1, b=0, d=1)
    d_factor = next(f for f in factors
                    if f.wires == (w["A"], w["B"], w["D"]))
    assert d_factor.entry(0b101) == pytest.approx(
        net.ev["D"].entry("1", "10"))


def test_gather_positions_on_streams():
    a, b, c = Wire(0, 1), Wire(1, 1), Wire(2, 1)
    index = np.arange(8, dtype=np.int64)
    vals = np.arange(1.0, 9.0)
    # entry k: a is bit 2; b is read twice, as bits 1 and 0; c, pinned to
    # 1, is bit 0 again
    streams = [(b, index, 1), (a, index, 2), (b, index, 0), (c, index, 0)]
    wires, flat, got = eliminate._gather_positions(streams, vals, {c: 1})
    assert wires == [a, b]
    assert flat.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]  # a is most significant
    # kept only where both reads of b agree and c matches its pin
    assert got.tolist() == [0, 0, 0, 4.0, 0, 0, 0, 8.0]
    assert vals.tolist() == list(np.arange(1.0, 9.0))

    wide = [(Wire(k, 1), index, 0)
            for k in range(eliminate.MAX_FACTOR_BITS + 1)]
    with pytest.raises(TooLarge, match="guard"):
        eliminate._gather_positions(wide, vals, {})
    pinned = {Wire(0, 1): 0}
    wires, _, _ = eliminate._gather_positions(wide, vals, pinned)
    assert len(wires) == eliminate.MAX_FACTOR_BITS


# -- orders and widths ---------------------------------------------------------

def test_fanin_min_degree_width_is_three():
    net = nets.fanin_mbn()
    order = min_degree_order(net)
    assert order.width == 3
    assert set(order.wires) == set(net.graph.internal_wires())
    assert elimination_width_exact(net) == 3


def test_fanin_orders_starting_at_the_join_pay_more():
    net = nets.fanin_mbn()
    w = fanin_wires(net)
    others = [w["A"], w["B"], w["C"]]
    for rest in itertools.permutations(others):
        assert order_width(net, [w["D"], *rest]) == 4


def test_order_width_validates_the_order():
    net = nets.fanin_mbn()
    w = fanin_wires(net)
    internal = list(net.graph.internal_wires())
    with pytest.raises(BadOrder, match="missing from the order"):
        order_width(net, internal[:-1])
    with pytest.raises(BadOrder, match="eliminated twice"):
        order_width(net, internal + [internal[0]])
    with pytest.raises(BadOrder, match="is not internal"):
        order_width(net, internal + [w["E"]])


def test_exact_width_guard():
    with pytest.raises(TooLarge, match="brute-force"):
        elimination_width_exact(nets.square_pair_mbn(9))


def test_star_widths():
    for n in (3, 5):
        net = nets.star_mbn(n)
        internal = net.graph.internal_wires()
        assert len(internal) == 1
        assert order_width(net, internal) == n
        assert min_degree_order(net).width == n


def test_square_pair_widths():
    for k in (2, 3):
        net = nets.square_pair_mbn(k)
        internal = net.graph.internal_wires()
        assert len(internal) == k
        for perm in itertools.permutations(internal):
            assert order_width(net, perm) == 3 * k - 1


# -- running eliminations -------------------------------------------------------

def test_run_elimination_matches_naive_on_references():
    for net in (nets.fanin_mbn(), nets.star_mbn(4),
                nets.square_pair_mbn(2)):
        order = min_degree_order(net)
        mat, stats = run_elimination_stats(net, order)
        assert mat.allclose(eval_naive(net), atol=1e-12)
        assert stats.max_factor_wires <= order.width


def test_run_elimination_all_orders_agree():
    net = nets.fanin_mbn()
    ref = eval_naive(net)
    internal = list(net.graph.internal_wires())
    for perm in itertools.permutations(internal):
        mat = run_elimination(net, perm)
        assert mat.allclose(ref, atol=1e-12)


def test_an_output_read_twice_keeps_only_agreeing_bits(rng):
    """One network's outputs name B's first wire twice; another's are a
    diagonal node D's input and its output, which the query path merges
    into one class.  In both, two result bits read one wire."""
    a, b, d = (Generator("A", 0, 1), Generator("B", 1, 2),
               Generator("D", 1, 1))
    twice = MBN(CausalityGraph(0, (a, b), ((), (Wire(0, 1),)),
                               (Wire(1, 1), Wire(0, 1), Wire(1, 1))),
                {"A": nets.stochastic_matrix(rng, 0, 1),
                 "B": nets.substochastic_matrix(rng, 1, 2)})
    merged = MBN(CausalityGraph(0, (a, d, b),
                                ((), (Wire(0, 1),), (Wire(1, 1),)),
                                (Wire(0, 1), Wire(1, 1), Wire(2, 2))),
                 {"A": nets.stochastic_matrix(rng, 0, 1),
                  "D": TypedMatrix.diagonal([0.3, 0.8]),
                  "B": nets.substochastic_matrix(rng, 1, 2)})
    for net in (twice, merged):
        want = eval_naive(net)
        mat, _, _ = scheduled_eliminate(net)
        assert mat.allclose(want, atol=1e-15)
        order = min_degree_order(net)
        for merge in (False, True):
            got = run_elimination(net, order, merge_diagonal=merge)
            assert got.allclose(want, atol=1e-15)


def test_run_elimination_rejects_bad_orders():
    net = nets.fanin_mbn()
    with pytest.raises(BadOrder):
        run_elimination(net, ())


def test_scheduled_matches_naive_on_random_nets(rng, monkeypatch):
    checked = 0
    while checked < 40:
        net = nets.random_mbn(rng)
        if net is None:
            continue
        checked += 1
        ref = eval_naive(net)
        mat, _, _ = scheduled_eliminate(net)
        assert mat.allclose(ref, atol=1e-9)
        # forcing the grouped path must not change the value; a network
        # without the base stored above prepares again under the thresholds
        with monkeypatch.context() as forced:
            forced.setattr(eliminate, "BULK_NODE_BITS", 1)
            forced.setattr(eliminate, "GROUP_NODE_BITS", 1)
            grouped, _, _ = scheduled_eliminate(
                MBN(net.graph, net.ev, net.places))
        assert grouped.allclose(ref, atol=1e-9)


def test_scheduled_explicit_order(gossip_net, gossip_step):
    posterior = attach_update(uniform_prior(gossip_net),
                              build_update(gossip_net, gossip_step),
                              "success")
    marg = terminate(posterior, ["K3"])
    ref = eval_naive(marg)
    order = min_degree_order(marg)
    # an explicit order runs over the raw graph, without the query rewrites
    mat, _ = run_elimination_stats(marg, order)
    assert mat.allclose(ref, atol=1e-12)
    scheduled, _, _ = scheduled_eliminate(marg)
    assert scheduled.allclose(mat, atol=1e-12)
    with pytest.raises(BadOrder):
        run_elimination_stats(marg, order.wires[:1])


def test_scheduled_reports_realized_width(gossip_net, gossip_step):
    posterior = attach_update(uniform_prior(gossip_net),
                              build_update(gossip_net, gossip_step),
                              "success")
    marg = terminate(posterior, ["K3"])
    # the first call sums the network out to K3 and counts that run too
    _, _, first = scheduled_eliminate(marg)
    assert first.summarized and first.contractions >= 1
    _, plan, stats = scheduled_eliminate(marg)
    assert stats.max_factor_wires <= plan.width
    assert first.max_factor_wires >= stats.max_factor_wires
    # the input tables count too, not only the contractions' results
    _, _, whole = scheduled_eliminate(posterior)
    assert whole.max_factor_wires >= max(
        f.size for f in initial_factors(posterior, merge_diagonal=True))


def test_a_plan_wider_than_the_tabulation_limit_escalates(monkeypatch):
    """A plan wider than BULK_NODE_BITS takes the grouped route even when
    every node would fit a table, and agrees with the dense engine."""
    trace = random_trace(np.random.default_rng(0), places=10, transitions=12,
                         steps=12, max_pre=2, max_post=2, max_active=2)
    with monkeypatch.context() as records:
        # the plan over the node records, not over a summary of them
        records.setattr(eliminate._Base, "summarized",
                        lambda self, stats: None)
        _, plan, stats = scheduled_eliminate(run(trace).mbn)
    assert not stats.grouped_steps
    net = run(trace).mbn
    limit = plan.width - 2
    monkeypatch.setattr(eliminate, "BULK_NODE_BITS", limit)
    base = eliminate._Base(net, merge_diagonal=True, query=True)
    # every node's table over the targets a summary keeps fits the limit
    assert max(map(len, base.problem(net.graph.out).scopes)) <= limit
    # the summary, or where it is refused the query, runs over that plan
    mat, _, stats = scheduled_eliminate(net)
    assert stats.grouped_steps
    joint, dense = mat.to_dense().ravel(), dense_posterior(trace).data
    assert joint.sum() == pytest.approx(dense.sum(), rel=1e-6)
    assert np.allclose(joint / joint.sum(), dense / dense.sum(), rtol=0.0,
                       atol=1e-6)


def _cut_after_last_success(trace: ObservationTrace) -> ObservationTrace:
    last = max(k for k, (_, obs) in enumerate(trace.steps)
               if obs == "success")
    return ObservationTrace(trace.net, trace.prior, trace.steps[:last + 1])


@pytest.mark.parametrize("escalating, cut", [
    (False, None), (True, None), (True, 0), (True, 1), (True, 3)],
    ids=["False", "True", "cut0", "cut1", "cut3"])
def test_scheduled_eliminate_asks_places_of_the_network(escalating, cut,
                                                        monkeypatch):
    """Asking places of a network answers and plans as eliminating the
    network terminated at them does, a second call reuses the network's
    base, and the places are checked before any base is built.  The cut
    wide traces end on a success whose targets no failure node reads, so
    a grouped matrix must sum the unasked ones out as termination does.
    Over the node records the two agree bit for bit; over the summary a
    network's first query makes, to rounding."""
    if cut is not None:
        trace = _cut_after_last_success(
            nets.wide_trace(np.random.default_rng(cut)))
    elif escalating:
        trace = nets.wide_trace(np.random.default_rng(0))
    else:
        trace = random_trace(np.random.default_rng(3), places=6,
                             transitions=8, steps=8)
    places = trace.net.places
    built = []
    init = eliminate._Base.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(eliminate._Base, "__init__", counted)
    for asked in (None, (), places[1::2], places):
        kept = places if asked is None else asked
        with monkeypatch.context() as records:
            records.setattr(eliminate._Base, "summarized",
                            lambda self, stats: None)
            net = run(trace).mbn
            mat, order, stats = scheduled_eliminate(net, asked)
            want, want_order, want_stats = scheduled_eliminate(terminate(
                run(trace).mbn, kept))
        assert np.array_equal(mat.to_dense(), want.to_dense())
        assert order == want_order
        assert stats == want_stats
        assert bool(stats.grouped_steps) == escalating
        for summarized in (False, True):
            if summarized:
                net = run(trace).mbn
                mat, _, stats = scheduled_eliminate(net, asked)
                assert stats.summarized
                assert bool(stats.grouped_steps) == escalating
                assert np.allclose(mat.to_dense(), want.to_dense(),
                                   rtol=1e-12, atol=0.0)
            built.clear()
            again, _, _ = scheduled_eliminate(net, asked)
            assert not built and net.preparation is not None
            assert np.allclose(again.to_dense(), mat.to_dense(), rtol=1e-12,
                               atol=0.0)
    fresh = run(trace).mbn
    for bad in (MBN(fresh.graph, fresh.ev), fresh):
        with pytest.raises(MissingPlace):
            scheduled_eliminate(bad, [places[0], "nowhere"])
        assert bad.preparation is None
    assert not built


def test_point_mass_pinning_shrinks_factors(gossip_net, gossip_step,
                                            monkeypatch):
    posterior = attach_update(prior_point(gossip_net, "1100"),
                              build_update(gossip_net, gossip_step),
                              "success")
    marg = terminate(posterior, ["K3"])
    ref = eval_naive(marg)
    pinned, _, s1 = scheduled_eliminate(marg)
    plain, s2 = run_elimination_stats(marg, min_degree_order(marg))
    assert pinned.allclose(ref, atol=1e-12)
    assert plain.allclose(ref, atol=1e-12)
    assert s1.max_factor_wires <= s2.max_factor_wires
    # per-place point masses pin some of the update's sources; the grouped
    # route must slice them out of the update's matrix
    prior = prior_independent(gossip_net, {"K1": 1.0, "K2": 0.0, "K3": 0.5,
                                           "K4": 0.5})
    marg = terminate(attach_update(prior, build_update(gossip_net,
                                                       gossip_step),
                                   "success"), ["K3"])
    with monkeypatch.context() as forced:
        forced.setattr(eliminate, "BULK_NODE_BITS", 1)
        forced.setattr(eliminate, "GROUP_NODE_BITS", 1)
        grouped, _, _ = scheduled_eliminate(marg)
    assert grouped.allclose(eval_naive(marg), atol=1e-12)


def test_diagonal_merge_equivalence(gossip_net):
    # failure updates are diagonal; merging halves their factor arity
    step = nets.gossip_step()
    posterior = attach_update(uniform_prior(gossip_net),
                              build_update(gossip_net, step), "failure")
    marg = terminate(posterior, ["K1"])
    order = min_degree_order(marg)
    merged, s1 = run_elimination_stats(marg, order, merge_diagonal=True)
    naive, s2 = run_elimination_stats(marg, order, merge_diagonal=False)
    assert merged.allclose(naive, atol=1e-12)
    assert s1.max_factor_wires <= s2.max_factor_wires
    fm = initial_factors(marg, merge_diagonal=True)
    fn = initial_factors(marg, merge_diagonal=False)
    assert max(f.size for f in fm) < max(f.size for f in fn)


def test_zero_posterior_evaluates_to_zero():
    net = nets.detector_net()
    step = nets.detector_step(0.0, 0.7)  # success impossible when clear
    posterior = attach_update(prior_point(net, "0"),
                              build_update(net, step), "success")
    marg = terminate(posterior, ["I"])
    mat, _, _ = scheduled_eliminate(marg)
    assert np.allclose(mat.to_dense(), 0.0)


# -- the confinement rule -------------------------------------------------------

def test_ordinary_orders_sweep_then_plan_every_internal_wire(monkeypatch):
    """On the reference nets and the criterion-8 grid, every elimination
    on the ordinary route, summaries and queries alike, sweeps exactly the
    internal wires that one factor holds, lists them first, names every
    internal wire once, and reports the width of its order replayed over
    the unswept scopes."""
    checked = []
    route = eliminate._eliminate

    def recorded(base, out, stats):
        grouped, swept = stats.grouped_steps, stats.swept
        problem, left, plan = route(base, out, stats)
        if (problem.lazy or stats.grouped_steps != grouped
                or plan.width > eliminate.BULK_NODE_BITS):
            return problem, left, plan
        count = {}
        for scope in problem.scopes:
            for w in scope:
                count[w] = count.get(w, 0) + 1
        confined = {w for w in problem.internal if count[w] == 1}
        assert eliminate._order_problems(plan.wires,
                                         problem.internal) == []
        assert set(plan.wires[:len(confined)]) == confined
        assert stats.swept - swept == len(confined)
        assert plan.width == eliminate._replay_width((), problem.scopes,
                                                     plan.wires)
        checked.append(len(confined))
        return problem, left, plan
    monkeypatch.setattr(eliminate, "_eliminate", recorded)

    for trace in (nets.gossip_trace(),
                  nets.wide_trace(np.random.default_rng(0))):
        posterior = run(trace)
        posterior.marginals()
        posterior.mass()
    for net in (nets.fanin_mbn(), nets.star_mbn(4), nets.square_pair_mbn(2)):
        for _ in range(2):
            scheduled_eliminate(net)
    rng = np.random.default_rng(5)
    for _ in range(10):
        net = nets.random_mbn(rng)
        if net is not None:
            scheduled_eliminate(net)
            scheduled_eliminate(net)
    bench_rows(BenchConfig(places=(10, 15, 20, 25), trials=3, seed=0,
                           engines=("mbn",)))
    assert len(checked) > 50 and sum(checked) > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_inputs_and_asked_outputs_are_never_swept(k):
    """Two k -> k nodes in sequence: the inputs sit in the first node's
    factor only and the outputs in the second's, then all of them in the
    summary's.  Each is confined, yet as an input or an asked output of a
    joint query it is never summed out; unasked outputs are."""
    net = nets.square_pair_mbn(k)
    places = tuple(f"y{i}" for i in range(k))
    net = MBN(net.graph, net.ev, places)
    assert net.graph.in_arity == k
    want = eval_naive(net)
    for read_summary in (False, True):
        mat, order, stats = scheduled_eliminate(net)
        assert stats.summarized and stats.swept == 0
        assert mat.allclose(want, atol=1e-12)
    # the joint over the summary factor has nothing left to eliminate
    assert order.wires == () and stats.contractions == 0
    for asked in (places[:1], places[1:]):
        mat, order, stats = scheduled_eliminate(net, asked)
        assert mat.allclose(eval_naive(terminate(net, asked)), atol=1e-12)
        assert stats.contractions == 0
        assert stats.swept == k - len(asked) == len(order.wires)


# -- tree decompositions --------------------------------------------------------

def test_star_decomposition_width_one():
    net = nets.star_mbn(4)
    td = nets.star_decomposition(net)
    assert validate_tree_decomposition(net, td) == 1


def test_decomposition_condition_diagnostics():
    net = nets.star_mbn(3)
    hub = Wire(0, 1)
    readers = [Wire(v, 1) for v in (1, 2, 3)]
    good = nets.star_decomposition(net)

    with pytest.raises(ValidationError, match="edge count"):
        validate_tree_decomposition(net, TreeDecomposition(
            good.bags, ((0, 1),)))
    with pytest.raises(ValidationError, match=r"bad edge \(5, 0\)"):
        validate_tree_decomposition(net, TreeDecomposition(
            good.bags, ((0, 1), (5, 0))))
    with pytest.raises(ValidationError, match="disconnected"):
        validate_tree_decomposition(net, TreeDecomposition(
            good.bags, ((0, 1), (0, 1))))
    with pytest.raises(ValidationError, match="condition 2"):
        validate_tree_decomposition(net, TreeDecomposition(
            good.bags[:2], ((0, 1),)))
    with pytest.raises(ValidationError, match="condition 3"):
        validate_tree_decomposition(net, TreeDecomposition(
            (frozenset({hub}), frozenset(readers)), ((0, 1),)))
    # every scope fits, but the bags holding the hub wire form no subtree
    with pytest.raises(ValidationError, match="condition 4"):
        validate_tree_decomposition(net, TreeDecomposition(
            (frozenset({hub, readers[0]}), frozenset({readers[2]}),
             frozenset({hub, readers[1]}), frozenset({hub, readers[2]})),
            ((0, 1), (1, 2), (2, 3))))


def test_decomposition_from_order_validates():
    for net in (nets.fanin_mbn(), nets.star_mbn(4),
                nets.square_pair_mbn(2)):
        order = min_degree_order(net)
        td = tree_decomposition_from_order(net, order)
        width = validate_tree_decomposition(net, td)
        assert width >= 0
    star = nets.star_mbn(4)
    td = tree_decomposition_from_order(star, min_degree_order(star))
    assert validate_tree_decomposition(star, td) == 4


# -- term calculus --------------------------------------------------------------

def fanin_term():
    a, b, c = (GenT(Generator(x, 0, 1)) for x in "ABC")
    d, e = GenT(Generator("D", 2, 1)), GenT(Generator("E", 2, 1))
    layer = TensorT(TensorT(a, b), c)
    return SeqT(SeqT(layer, TensorT(d, ConstT("id", 1))), e)


def test_term_types():
    assert term_type(fanin_term()) == (0, 1)
    assert term_type(ConstT("dup", 2)) == (2, 4)
    assert term_type(ConstT("swap", 2)) == (4, 4)
    assert term_type(ConstT("term", 3)) == (3, 0)
    with pytest.raises(TypeMismatch):
        term_type(SeqT(GenT(Generator("f", 0, 1)),
                       GenT(Generator("g", 2, 1))))
    with pytest.raises(ValidationError):
        term_type(ConstT("nope", 1))
    with pytest.raises(ValidationError):
        term_type(ConstT("dup", 0))


def test_term_width_examples():
    assert term_width(fanin_term()) == 5
    for k in (2, 3):
        assert term_width(nets.square_pair_term(k)) == 2 * k


def test_term_graph_matches_direct_construction():
    built = term_graph(nets.square_pair_term(2))
    direct = seq(node_graph(Generator("A", 2, 2)),
                 node_graph(Generator("C", 2, 2)))
    assert built == direct


def test_order_from_term():
    order = order_from_term(fanin_term())
    assert order.width == 3
    # the term order is a valid order for the graph built from the same term
    assert order_width(term_graph(fanin_term()), order.wires) == order.width
    for k in (2, 3):
        t = nets.square_pair_term(k)
        assert order_from_term(t).width == 3 * k - 1


def test_order_from_term_bound_on_random_terms(rng):
    checked = 0
    while checked < 40:
        t = nets.random_term(rng)
        graph = term_graph(t)
        if len(graph.internal_wires()) > 8:
            continue
        checked += 1
        assert order_from_term(t).width <= 2 * term_width(t)
