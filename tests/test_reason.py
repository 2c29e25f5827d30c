"""Observation traces, posteriors, and the trace file format."""
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pnbayes import eliminate
from pnbayes.bitmatrix import ProbVector, TypedMatrix, normalize
from pnbayes.causality import CausalityGraph, Generator, Wire
from pnbayes.chain import marginal_of
from pnbayes.eliminate import scheduled_eliminate
from pnbayes.errors import (InconsistentEvidence, MissingPlace, TooLarge,
                            ValidationError)
from pnbayes.mbn import (MBN, attach_update, build_update, eval_naive,
                         prior_independent, prior_joint, prior_point,
                         terminate, uniform_prior)
from pnbayes.petri import CENet, StepSpec, net_to_json
from pnbayes.randnet import random_trace
from pnbayes.reason import (ObservationTrace, Posterior, PriorSpec,
                            dense_posterior, load_trace, parse_prior,
                            parse_step, parse_trace, run)

import reference_nets as nets


def test_prior_spec_needs_exactly_one_form():
    with pytest.raises(ValidationError, match="either"):
        PriorSpec()
    with pytest.raises(ValidationError, match="either"):
        PriorSpec(marginals=(("K1", 0.5),),
                  joint=ProbVector(1, np.array([0.5, 0.5])))


def test_prior_as_vector_is_the_product(gossip_net):
    prior = PriorSpec(marginals=(("K1", 0.9), ("K2", 0.2),
                                 ("K3", 0.5), ("K4", 0.0)))
    vec = prior.as_vector(gossip_net)
    assert vec.entry("1100") == pytest.approx(0.9 * 0.2 * 0.5 * 1.0)
    assert vec.entry("0111") == pytest.approx(0.1 * 0.2 * 0.5 * 0.0)
    assert vec.mass() == pytest.approx(1.0)

    joint = ProbVector(4, np.full(16, 1 / 16))
    assert PriorSpec(joint=joint).as_vector(gossip_net) is joint


def test_prior_as_vector_guard():
    wide = CENet(tuple(f"p{i}" for i in range(26)), ())
    prior = PriorSpec(marginals=tuple((f"p{i}", 0.5) for i in range(26)))
    with pytest.raises(TooLarge, match="dense limit"):
        prior.as_vector(wide)


def test_gossip_posterior_marginal_and_mass():
    posterior = run(nets.gossip_trace())
    marg = posterior.marginal(["K3"])
    assert marg.entry("1") == pytest.approx(5 / 8, abs=1e-12)
    assert posterior.mass() == pytest.approx(0.75, abs=1e-12)


def test_posterior_marginal_keeps_net_order():
    posterior = run(nets.gossip_trace())
    pair = posterior.marginal(["K3", "K1"])  # reported as (K1, K3)
    dense = normalize(dense_posterior(nets.gossip_trace()))
    want = marginal_of(dense, nets.gossip_net(), ["K1", "K3"])
    assert pair.allclose(want, atol=1e-12)
    with pytest.raises(MissingPlace):
        posterior.marginal(["K9"])


def test_a_bare_string_of_places_raises():
    posterior = run(nets.gossip_trace())
    for ask in (posterior.marginal, posterior.query_stats,
                posterior.marginals):
        with pytest.raises(ValidationError, match="'K1'"):
            ask("K1")
    with pytest.raises(ValidationError, match="'K3'"):
        posterior.query_stats("K3")
    with pytest.raises(ValidationError, match="'K3'"):
        terminate(posterior.mbn, "K3")
    assert posterior.marginal(["K3"]).entry(1) == pytest.approx(5 / 8)
    # with single-letter places, "ab" must not be read as the pair (a, b)
    pair = CENet(("a", "b"), (("t", ("a",), ("b",)),))
    prior = PriorSpec(marginals=(("a", 0.5), ("b", 0.5)))
    posterior = run(ObservationTrace(pair, prior, ()))
    for ask in (posterior.marginal, posterior.marginals):
        with pytest.raises(ValidationError, match="'ab'"):
            ask("ab")
    assert posterior.marginal(["a", "b"]).arity == 2


def test_posterior_joint_matches_dense(rng):
    for k in range(6):
        trace = random_trace(rng, places=6, transitions=8, steps=4,
                             semantics="stochastic" if k % 2 else "independent")
        got = run(trace).joint()
        want = normalize(dense_posterior(trace))
        assert got.allclose(want, atol=1e-9)


def test_query_stats_reports_the_plan():
    posterior = run(nets.gossip_trace())
    raw, order, stats = posterior.query_stats(["K3"])
    assert raw.mass() == pytest.approx(0.75, abs=1e-12)
    assert stats.max_factor_wires <= order.width


def test_impossible_evidence_raises():
    net = nets.detector_net()
    prior = PriorSpec(joint=ProbVector(1, np.array([1.0, 0.0])))  # I clear
    step = nets.detector_step(0.0, 0.7)  # positives never fire when clear
    posterior = run(ObservationTrace(net, prior, ((step, "success"),)))
    assert posterior.mass() == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(InconsistentEvidence):
        posterior.marginal(["I"])


@pytest.mark.parametrize("successes", [39, 45])
def test_tiny_mass_is_not_inconsistent(successes):
    # the mass is 0.5^(n+1), far below 1e-12, yet P(I) = 1 exactly
    trace = nets.loop_trace(successes)
    posterior = run(trace)
    assert posterior.mass() == 0.5 ** (successes + 1)
    assert posterior.marginal(["I"]).entry(1) == pytest.approx(1.0, abs=1e-12)
    dense = normalize(dense_posterior(trace))
    assert dense.entry(1) == pytest.approx(1.0, abs=1e-12)


def test_run_rejects_unknown_observation():
    trace = ObservationTrace(nets.gossip_net(), nets.gossip_trace().prior,
                             ((nets.gossip_step(), "maybe"),))
    with pytest.raises(ValidationError, match="unknown observation"):
        run(trace)


# -- queries sharing one posterior's preparation ------------------------------

def _count_tabulations(monkeypatch) -> dict[tuple[str, int], int]:
    """Count table and grouped-matrix constructions per node."""
    counts: dict[tuple[str, int], int] = {}

    def counted(build):
        def wrapper(node, *args):
            key = (build.__name__, node.index)
            counts[key] = counts.get(key, 0) + 1
            return build(node, *args)
        return wrapper
    monkeypatch.setattr(eliminate, "_node_factor",
                        counted(eliminate._node_factor))
    monkeypatch.setattr(eliminate, "_node_matrix",
                        counted(eliminate._node_matrix))
    return counts


@pytest.mark.parametrize("trace, escalations", [
    (random_trace(np.random.default_rng(5), places=10, transitions=12,
                  steps=8), 0),
    (nets.wide_trace(np.random.default_rng(0)), 19),
], ids=["tabulated", "escalating"])
def test_each_node_is_tabulated_once_per_posterior(trace, escalations,
                                                   monkeypatch):
    counts = _count_tabulations(monkeypatch)
    escalated = []
    run_hybrid = eliminate._run_hybrid

    def hybrid(*args):
        escalated.append(True)
        return run_hybrid(*args)
    monkeypatch.setattr(eliminate, "_run_hybrid", hybrid)
    posterior = run(trace)
    for place in trace.net.places:
        posterior.marginal([place])
    posterior.mass()
    assert counts and max(counts.values()) == 1
    assert len(escalated) == escalations
    grouped = [key for key in counts if key[0] == "_node_matrix"]
    assert bool(grouped) == bool(escalations)


def test_preparation_lives_and_dies_with_the_posterior():
    posterior = run(nets.gossip_trace())
    posterior.mass()
    base = weakref.ref(posterior.mbn.preparation)
    assert posterior == Posterior(posterior.net, posterior.mbn)
    other = run(nets.gossip_trace())
    other.mass()
    assert other.mbn.preparation is not base()
    # freed by reference counting alone: no cycle waits for the collector
    del posterior
    assert base() is None


def _ask(posterior, kind, places):
    if kind == "marginal":
        return posterior.marginal(places)
    return getattr(posterior, kind)()


def _cached_and_fresh_agree(trace, rng):
    """Ask a shuffled mix of queries on one posterior.  The first one plans
    and counts as the same query on a fresh posterior does; later ones plan
    over the posterior's summary where it has one.  Every answer matches
    the fresh posterior's to rel 1e-12 and the dense oracle's to 1e-6."""
    places = trace.net.places
    queries = [("marginal", (p,)) for p in places]
    several = rng.choice(len(places), size=min(3, len(places)), replace=False)
    queries += [("marginal", tuple(places[i] for i in several)),
                ("joint", places), ("mass", ())]
    rng.shuffle(queries)
    dense = dense_posterior(trace)
    cached = run(trace)
    for k, (kind, asked) in enumerate(queries):
        fresh = run(trace)
        got_raw, got_order, got_stats = cached.query_stats(asked)
        raw, order, stats = fresh.query_stats(asked)
        if k == 0:
            assert got_stats == stats
            assert got_order.width == order.width
        assert np.allclose(got_raw.data, raw.data, rtol=1e-12, atol=0.0)
        assert got_raw.mass() == pytest.approx(dense.mass(), rel=1e-6,
                                               abs=0.0)
        if kind == "mass":
            assert cached.mass() == pytest.approx(fresh.mass(), rel=1e-12,
                                                  abs=0.0)
        elif raw.mass() == 0.0:
            with pytest.raises(InconsistentEvidence):
                _ask(cached, kind, asked)
        else:
            got = _ask(cached, kind, asked)
            assert got.allclose(_ask(fresh, kind, asked), atol=1e-12)
            want = normalize(marginal_of(dense, trace.net, asked))
            assert got.allclose(want, atol=1e-6)


def test_cached_queries_match_fresh_posteriors(rng):
    for k in range(6):
        trace = random_trace(rng, places=6, transitions=8, steps=5,
                             semantics="stochastic" if k % 2 else "independent")
        _cached_and_fresh_agree(trace, rng)


def test_cached_queries_match_fresh_with_pins_and_zero_mass(rng):
    net = nets.gossip_net()
    step = nets.gossip_step()
    pinned = ObservationTrace(net, PriorSpec(marginals=(
        ("K1", 1.0), ("K2", 0.0), ("K3", 0.5), ("K4", 0.5))),
        ((step, "success"), (step, "failure")))
    joint_point = ObservationTrace(
        net, PriorSpec(joint=ProbVector.point(4, "1000")),
        ((step, "success"),))
    zero = ObservationTrace(
        nets.detector_net(), PriorSpec(joint=ProbVector(1, [1.0, 0.0])),
        ((nets.detector_step(0.0, 0.7), "success"),))
    assert run(zero).mass() == 0.0
    for trace in (pinned, joint_point, zero):
        _cached_and_fresh_agree(trace, rng)


def test_cached_queries_match_fresh_when_escalating(rng):
    _cached_and_fresh_agree(nets.wide_trace(np.random.default_rng(0)), rng)


# -- preparation carried from step to step ------------------------------------

def _assert_fresh_base(base, net):
    """``base`` equals the base built for ``net`` from nothing, field by
    field, with the very same matrix objects in its node records."""
    want = eliminate._Base(net, merge_diagonal=True, query=True)
    assert base.rep == want.rep
    assert base.read == want.read
    assert base.pinned == want.pinned
    assert base.zero == want.zero
    assert list(base.nodes) == list(want.nodes)
    for index, node in base.nodes.items():
        other = want.nodes[index]
        assert node.mat is other.mat
        assert (node.src, node.tgt, node.live, node.diagonal) == \
            (other.src, other.tgt, other.live, other.diagonal)


def _online_trace(seed, semantics, prior_kind, zero_at):
    """A random trace on a net with a ``noise`` transition that touches no
    place, so a step of noise alone is a 0 -> 0 update: a unit scalar on
    success, which the base skips as a point mass, and under the
    independent semantics a scalar below 1 on failure.  ``zero_at`` puts
    an impossible step (noise always fires, yet failure is observed) at
    that position."""
    rng = np.random.default_rng(seed)
    drawn = random_trace(rng, places=6, transitions=8, steps=8,
                         semantics=semantics)
    net = CENet(drawn.net.places,
                drawn.net.transitions + (("noise", (), ()),))
    steps = list(drawn.steps)
    steps.insert(2, (StepSpec(semantics, {"noise": 1.0}), "success"))
    if semantics == "independent":
        steps.insert(5, (StepSpec(semantics, {"noise": 0.4, "fail": 0.6}),
                         "failure"))
    if zero_at is not None:
        steps.insert(zero_at, (StepSpec(semantics, {"noise": 1.0}),
                               "failure"))
    marginals = drawn.prior.marginals
    prior = {
        "marginals": drawn.prior,
        "pinned": PriorSpec(marginals=((marginals[0][0], 1.0),
                                       (marginals[1][0], 0.0))
                            + marginals[2:]),
        "joint": PriorSpec(joint=ProbVector.point(
            6, int(rng.integers(1 << 6)))),
    }[prior_kind]
    return ObservationTrace(net, prior, tuple(steps))


def _assert_matches_dense(posterior, trace, n, places):
    """The posterior after the first ``n`` steps of ``trace`` answers as
    the dense engine does: marginals to 1e-6, the mass to rel 1e-6, and
    InconsistentEvidence where the evidence has probability zero."""
    dense = dense_posterior(ObservationTrace(trace.net, trace.prior,
                                             trace.steps[:n]))
    assert posterior.mass() == pytest.approx(dense.mass(), rel=1e-6, abs=0.0)
    for place in places:
        if dense.mass() == 0.0:
            with pytest.raises(InconsistentEvidence):
                posterior.marginal([place])
            continue
        want = normalize(marginal_of(dense, trace.net, [place]))
        assert posterior.marginal([place]).allclose(want, atol=1e-6)


def _assert_agrees_with_unprepared(posterior, asked, rtol):
    """``query_stats`` answers as on the same network without a base: to
    ``rtol``, or bit for bit with the same plan when ``rtol`` is 0."""
    mbn = posterior.mbn
    unprepared = Posterior(posterior.net, MBN(mbn.graph, mbn.ev, mbn.places))
    raw, order, stats = posterior.query_stats(asked)
    want_raw, want_order, want_stats = unprepared.query_stats(asked)
    if rtol:
        assert np.allclose(raw.data, want_raw.data, rtol=rtol, atol=0.0)
        return
    assert np.array_equal(raw.data, want_raw.data)
    assert stats == want_stats
    assert order.width == want_order.width


@pytest.mark.parametrize("semantics", ["independent", "stochastic"])
@pytest.mark.parametrize("prior_kind, zero_at", [
    ("marginals", None), ("pinned", 6), ("joint", None)])
def test_online_posteriors_extend_their_parents_base(semantics, prior_kind,
                                                     zero_at, monkeypatch):
    counts = _count_tabulations(monkeypatch)
    trace = _online_trace(11, semantics, prior_kind, zero_at)
    rng = np.random.default_rng(12)
    posterior = run(ObservationTrace(trace.net, trace.prior, ()))
    posterior.mass()
    online, diagonal = [], False
    for step, obs in trace.steps:
        held = posterior.mbn.preparation
        posterior = posterior.observe(step, obs)
        # the handoff copies nothing
        assert posterior.mbn.preparation is held
        place = trace.net.places[int(rng.integers(len(trace.net.places)))]
        posterior.query_stats([place])
        base = posterior.mbn.preparation
        # the parent's history was summed out: no record of its nodes
        assert all(index >= held.graph.node_count for index in base.nodes)
        diagonal = diagonal or any(n.diagonal for n in base.nodes.values())
        # the second query sums the new node out too
        posterior.query_stats(())
        assert not posterior.mbn.preparation.nodes
        online.append((posterior, place))
    assert diagonal
    # the online chain built each node factor once
    builds = [n for (build, _), n in counts.items() if build == "_node_factor"]
    assert max(builds) == 1
    for n, (posterior, place) in enumerate(online, 1):
        for asked in ([place], ()):
            _assert_agrees_with_unprepared(posterior, asked, rtol=1e-12)
        _assert_matches_dense(posterior, trace, n, [place])
    if zero_at is not None:
        assert posterior.mass() == 0.0


@pytest.mark.parametrize("semantics", ["independent", "stochastic"])
def test_each_node_factor_is_built_once_per_online_trace(semantics,
                                                         monkeypatch):
    counts = _count_tabulations(monkeypatch)
    trace = random_trace(np.random.default_rng(7), places=8, transitions=10,
                         steps=10, semantics=semantics)
    posterior = run(ObservationTrace(trace.net, trace.prior, ()))
    for step, obs in trace.steps:
        posterior = posterior.observe(step, obs)
        for place in trace.net.places[:2]:
            posterior.marginal([place])
        posterior.mass()
    builds = [n for (build, _), n in counts.items() if build == "_node_factor"]
    assert len(builds) > len(trace.steps)
    assert max(builds) == 1


def test_online_chain_keeps_at_most_two_bases():
    trace = random_trace(np.random.default_rng(3), places=6, transitions=8,
                         steps=12)
    posterior = run(ObservationTrace(trace.net, trace.prior, ()))
    posterior.mass()
    bases = [weakref.ref(posterior.mbn.preparation)]
    for step, obs in trace.steps:
        # the observer still holds the previous posterior while querying
        previous, posterior = posterior, posterior.observe(step, obs)
        posterior.mass()
        bases.append(weakref.ref(posterior.mbn.preparation))
        assert sum(ref() is not None for ref in bases) <= 2
        assert bases[-2]() is previous.mbn.preparation
    del previous
    assert sum(ref() is not None for ref in bases) == 1
    del posterior
    assert all(ref() is None for ref in bases)


def test_only_attach_update_hands_on_a_base(gossip_net, gossip_step):
    child = attach_update(uniform_prior(gossip_net),
                          build_update(gossip_net, gossip_step), "success")
    scheduled_eliminate(child)
    # a bare network keeps the base its query built
    assert child.preparation is not None
    assert attach_update(child, build_update(gossip_net, gossip_step),
                         "failure").preparation is child.preparation
    others = [terminate(child, ["K3"]), MBN(child.graph, child.ev,
                                            child.places),
              uniform_prior(gossip_net),
              prior_independent(gossip_net, {p: 1.0 for p in
                                             gossip_net.places}),
              prior_joint(gossip_net, ProbVector.point(4, "1000")),
              prior_point(gossip_net, "1000")]
    for net in others:
        assert net.preparation is None


def test_a_child_that_does_not_extend_its_parent_gets_a_fresh_base(
        gossip_net, gossip_step):
    parent = attach_update(uniform_prior(gossip_net),
                           build_update(gossip_net, gossip_step), "success")
    scheduled_eliminate(parent)
    held = parent.preparation
    # the same graph evaluated by other matrix objects
    copied = {name: TypedMatrix(mat.in_arity, mat.out_arity,
                                dense=mat.to_dense())
              for name, mat in parent.ev.items()}
    # a new node reading K2's prior wire, dead in a network that outputs
    # only K1: the older record of that wire must come back to life
    only_k1 = terminate(uniform_prior(gossip_net), ["K1"])
    scheduled_eliminate(only_k1)
    graph = only_k1.graph
    reader = CausalityGraph(
        0, graph.gens + (Generator("reader", 1, 1),),
        graph.sources + ((Wire(1, 1),),), graph.out + (Wire(4, 1),))
    ev = dict(only_k1.ev, reader=TypedMatrix(1, 1, dense=np.array(
        [[0.9, 0.2], [0.1, 0.8]])))
    children = [(replace(parent, ev=copied), held),
                (MBN(reader, ev, None, only_k1.preparation),
                 only_k1.preparation)]
    for child, parent_base in children:
        assert child.preparation is parent_base
        mat, _, _ = scheduled_eliminate(child)
        assert mat.allclose(eval_naive(child), atol=1e-12)
        base = child.preparation
        assert base is not parent_base
        assert not any(base.nodes[index] is node
                       for index, node in parent_base.nodes.items())
        _assert_fresh_base(base, child)


@pytest.mark.parametrize("every", [1, 2])
@pytest.mark.parametrize("semantics", ["independent", "stochastic"])
@pytest.mark.parametrize("prior_kind, zero_at", [
    ("marginals", None), ("pinned", 4), ("joint", None)])
def test_summarized_chains_match_the_dense_oracle(every, semantics,
                                                  prior_kind, zero_at):
    # asked after every step, or after every other one, so that a child
    # also extends the summary of a network two nodes back
    trace = _online_trace(21, semantics, prior_kind, zero_at)
    posterior = run(ObservationTrace(trace.net, trace.prior, ()))
    posterior.mass()
    held = posterior.mbn.preparation
    for n, (step, obs) in enumerate(trace.steps, 1):
        posterior = posterior.observe(step, obs)
        if n % every:
            continue
        _assert_matches_dense(posterior, trace, n, trace.net.places)
        base = posterior.mbn.preparation
        assert all(index >= held.graph.node_count for index in base.nodes)
        held = base
    if zero_at is not None:
        assert posterior.mass() == 0.0


def _sweep_trace():
    """Twelve places, a ``sweep`` moving the tokens of the first six to
    the last six, and small transitions.  The first step fires the sweep,
    whose success node spans 24 wires; the rest are small steps, one
    success to two failures."""
    places = tuple(f"p{i}" for i in range(12))
    small = tuple((f"t{i}", (places[i],), (places[(i + 5) % 12],))
                  for i in range(12))
    net = CENet(places, (("sweep", places[:6], places[6:]),) + small)
    prior = PriorSpec(marginals=tuple((p, 0.5 + 0.03 * (i - 6))
                                      for i, p in enumerate(places)))
    steps = [(StepSpec("stochastic", {"sweep": 1.0}), "success")]
    for k in range(6):
        weights = {f"t{k}": 0.3, f"t{k + 6}": 0.4, "fail": 0.3}
        obs = "failure" if k % 3 else "success"
        steps.append((StepSpec("independent", weights), obs))
    return ObservationTrace(net, prior, tuple(steps))


@pytest.mark.parametrize("start", [0, 1])
def test_a_summary_too_wide_falls_back_to_records(start):
    trace = _sweep_trace()
    posterior = run(ObservationTrace(trace.net, trace.prior,
                                     trace.steps[:start]))
    posterior.mass()
    online = []
    for n, (step, obs) in enumerate(trace.steps[start:], start + 1):
        held = posterior.mbn.preparation
        posterior = posterior.observe(step, obs)
        posterior.mass()
        base = posterior.mbn.preparation
        if n == 1:
            # the prior summarizes; the sweep's node is the new record
            assert list(base.nodes) == [len(trace.net.places)]
        else:
            # a summary would span the sweep's 24 wires: every older
            # record is taken over instead
            assert all(base.nodes[index] is node
                       for index, node in held.nodes.items())
        online.append((n, posterior))
    for n, posterior in online:
        # from a base built in full the records carry the same plan and
        # bits; on top of a summary the answers agree to rounding
        full = not posterior.mbn.preparation.summary
        assert full == (start == 1)
        for asked in (["p0"], ["p11"], ()):
            _assert_agrees_with_unprepared(posterior, asked,
                                           rtol=0.0 if full else 1e-12)
        if full:
            _assert_fresh_base(posterior.mbn.preparation, posterior.mbn)
        _assert_matches_dense(posterior, trace, n, trace.net.places)


def test_a_parent_answers_the_same_after_its_child_summarized_it(rng):
    trace = random_trace(rng, places=7, transitions=9, steps=6)

    def parent():
        posterior = run(ObservationTrace(trace.net, trace.prior, ()))
        for step, obs in trace.steps[:-1]:
            posterior = posterior.observe(step, obs)
            posterior.mass()
        return posterior
    # two equal parents after one query each, so each base still holds a
    # node record; only the first gets a child
    posterior, alone = parent(), parent()
    base = posterior.mbn.preparation
    assert base.nodes
    tables = dict(base._tables)
    saved = {index: f.table.copy() for index, f in tables.items()}
    child = posterior.observe(*trace.steps[-1])
    child.mass()
    assert all(index >= len(base.graph.gens)
               for index in child.mbn.preparation.nodes)
    # the summary wrote nothing into the parent's base
    assert posterior.mbn.preparation is base
    assert base._tables == tables
    assert all(np.array_equal(tables[i].table, saved[i]) for i in saved)
    # and the parent answers, summarizing itself on the way, as its twin
    queries = [[p] for p in trace.net.places] + [list(trace.net.places[:3]),
                                                 []]
    for asked in queries:
        got_raw, got_order, got_stats = posterior.query_stats(asked)
        raw, order, stats = alone.query_stats(asked)
        assert np.array_equal(got_raw.data, raw.data)
        assert got_stats == stats and got_order == order
    assert posterior.mbn.preparation.summary


# -- a posterior summarized on its second query --------------------------------

def _random_traces(rng, count, **shape):
    return [random_trace(rng, semantics="stochastic" if k % 2 else
                         "independent", **shape) for k in range(count)]


def test_the_second_query_replaces_the_records_by_a_summary(rng):
    charged = []
    for trace in _random_traces(rng, 4, places=6, transitions=8, steps=5):
        posterior = run(trace)
        _, _, first = posterior.query_stats([trace.net.places[0]])
        base = posterior.mbn.preparation
        assert base.nodes and not base.summary and not first.summarized
        _, _, second = posterior.query_stats([trace.net.places[1]])
        summary = posterior.mbn.preparation
        assert summary is not base
        assert not summary.nodes and summary.summary and second.summarized
        # the summary's elimination counts in the query that ran it
        _, _, third = posterior.query_stats([trace.net.places[1]])
        charged.append(second.contractions - third.contractions)
        assert posterior.mbn.preparation is summary
    assert min(charged) >= 0 and max(charged) > 0


def test_queries_after_the_summary_match_the_dense_oracle(rng):
    for trace in _random_traces(rng, 6, places=7, transitions=9, steps=6):
        dense = dense_posterior(trace)
        posterior = run(trace)
        places = trace.net.places
        posterior.marginal([places[0]])
        several = [places[i] for i in rng.choice(len(places), size=3,
                                                 replace=False)]
        for asked in (several, places[1:3], [places[0]]):
            want = normalize(marginal_of(dense, trace.net, asked))
            assert posterior.marginal(asked).allclose(want, atol=1e-6)
        assert posterior.mbn.preparation.summary
        assert posterior.joint().allclose(normalize(dense), atol=1e-6)
        assert posterior.mass() == pytest.approx(dense.mass(), rel=1e-6,
                                                 abs=0.0)
        got = posterior.marginals()
        assert list(got) == list(places)
        for place, vec in got.items():
            want = normalize(marginal_of(dense, trace.net, [place]))
            assert vec.allclose(want, atol=1e-6)
        assert list(posterior.marginals(places[::-2])) == list(places[::-2])


def test_observe_on_a_summarized_parent_matches_run(rng):
    for trace in _random_traces(rng, 4, places=6, transitions=8, steps=6):
        posterior = run(ObservationTrace(trace.net, trace.prior, ()))
        for n, (step, obs) in enumerate(trace.steps, 1):
            posterior = posterior.observe(step, obs)
            posterior.marginals(trace.net.places[:2])
            assert not posterior.mbn.preparation.nodes
            want = run(ObservationTrace(trace.net, trace.prior,
                                        trace.steps[:n]))
            assert posterior.mass() == pytest.approx(want.mass(), rel=1e-12,
                                                     abs=0.0)
            for place, got in posterior.marginals().items():
                assert got.allclose(want.marginal([place]), atol=1e-12)


def test_a_wide_posterior_tries_its_summary_once_without_planning(
        monkeypatch):
    plans, tries, escalated = [], [], []
    greedy, summarized = eliminate._greedy_order, eliminate._Base.summarized
    run_hybrid = eliminate._run_hybrid

    def counting(log, fn):
        def wrapper(*args):
            result = fn(*args)
            log.append(result)
            return result
        return wrapper
    monkeypatch.setattr(eliminate, "_greedy_order", counting(plans, greedy))
    monkeypatch.setattr(eliminate._Base, "summarized",
                        counting(tries, summarized))
    monkeypatch.setattr(eliminate, "_run_hybrid",
                        counting(escalated, run_hybrid))
    trace = nets.wide_trace(np.random.default_rng(0))
    posterior = run(trace)
    queries = [[p] for p in trace.net.places] + [[]]
    for asked in queries:
        posterior.query_stats(asked)
    # every query escalates, as before; a node wider than BULK_NODE_BITS
    # rules the summary out before it is planned, and only once
    assert len(escalated) == len(queries) == 19
    assert tries == [None]
    assert len(plans) == len(queries)
    assert posterior.mbn.preparation.nodes


def test_observe_matches_run_on_the_extended_trace(rng):
    for k in range(4):
        trace = random_trace(rng, places=6, transitions=8, steps=6,
                             semantics="stochastic" if k % 2 else
                             "independent")
        posterior = run(ObservationTrace(trace.net, trace.prior, ()))
        for n, (step, obs) in enumerate(trace.steps, 1):
            posterior = posterior.observe(step, obs)
            want = run(ObservationTrace(trace.net, trace.prior,
                                        trace.steps[:n]))
            assert posterior.mass() == pytest.approx(want.mass(), rel=1e-12,
                                                     abs=0.0)
            for place in trace.net.places:
                got = posterior.marginal([place])
                assert got.allclose(want.marginal([place]), atol=1e-12)
    with pytest.raises(ValidationError, match="unknown observation"):
        posterior.observe(trace.steps[0][0], "maybe")


# -- trace documents -----------------------------------------------------------

def gossip_doc() -> dict:
    return {
        "net": net_to_json(nets.gossip_net()),
        "prior": {p: 0.5 for p in nets.GOSSIP_PLACES},
        "steps": [{"semantics": "stochastic",
                   "weights": {"d1": 1 / 6, "d2": 1 / 3, "d3": 1 / 6},
                   "obs": "success"}],
    }


def test_parse_step_fields():
    step, obs = parse_step({"weights": {"noise": 0.3, "signal": 0.4,
                                        "fail": 0.3}, "obs": "failure"})
    assert obs == "failure"
    assert step.semantics == "independent"  # the default
    with pytest.raises(ValidationError, match="'weights' and 'obs'"):
        parse_step({"obs": "success"})
    with pytest.raises(ValidationError, match="unknown observation"):
        parse_step({"weights": {"noise": 1.0}, "obs": "sideways"})


def test_parse_prior_joint_descending_order():
    two = CENet(("A", "B"), ())
    prior = parse_prior({"joint": [0.4, 0.3, 0.2, 0.1]}, two)
    # listed as P(11), P(10), P(01), P(00)
    assert prior.joint.entry("11") == pytest.approx(0.4)
    assert prior.joint.entry("00") == pytest.approx(0.1)


def test_parse_prior_marginal_diagnostics(gossip_net):
    with pytest.raises(ValidationError, match="outside"):
        parse_prior({"K1": 1.5, "K2": 0.5, "K3": 0.5, "K4": 0.5}, gossip_net)
    with pytest.raises(ValidationError, match="missing \\['K4'\\]"):
        parse_prior({"K1": 0.5, "K2": 0.5, "K3": 0.5}, gossip_net)
    with pytest.raises(ValidationError, match="unknown \\['K9'\\]"):
        parse_prior({**{p: 0.5 for p in nets.GOSSIP_PLACES}, "K9": 0.5},
                    gossip_net)


def test_parse_trace_inline_net():
    trace = parse_trace(gossip_doc())
    assert trace.net.places == nets.GOSSIP_PLACES
    assert trace.steps[0][1] == "success"
    got = run(trace).marginal(["K3"])
    assert got.entry("1") == pytest.approx(5 / 8, abs=1e-12)


def test_parse_trace_missing_keys():
    doc = gossip_doc()
    del doc["steps"]
    with pytest.raises(ValidationError, match="missing 'steps'"):
        parse_trace(doc)


def test_load_trace_resolves_net_path(tmp_path):
    (tmp_path / "net.json").write_text(
        json.dumps(net_to_json(nets.gossip_net())))
    doc = gossip_doc()
    doc["net"] = "net.json"
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(doc))
    trace = load_trace(trace_file)
    assert trace.net.places == nets.GOSSIP_PLACES
    assert run(trace).mass() == pytest.approx(0.75, abs=1e-12)
