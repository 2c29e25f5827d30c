"""Observation traces, posteriors, and the trace file format."""
import json
import weakref

import numpy as np
import pytest

from pnbayes import eliminate
from pnbayes.bitmatrix import ProbVector, normalize
from pnbayes.chain import marginal_of
from pnbayes.errors import (InconsistentEvidence, MissingPlace, TooLarge,
                            ValidationError)
from pnbayes.petri import CENet, net_to_json
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
    base = weakref.ref(posterior._prepared.base())
    assert posterior == Posterior(posterior.net, posterior.mbn)
    assert run(nets.gossip_trace())._prepared.base() is not base()
    # freed by reference counting alone: no cycle waits for the collector
    del posterior
    assert base() is None


def _ask(posterior, kind, places):
    if kind == "marginal":
        return posterior.marginal(places)
    return getattr(posterior, kind)()


def _cached_and_fresh_agree(trace, rng):
    """Ask a shuffled mix of queries on one posterior; each must match the
    same query on a fresh posterior."""
    places = trace.net.places
    queries = [("marginal", (p,)) for p in places]
    several = rng.choice(len(places), size=min(3, len(places)), replace=False)
    queries += [("marginal", tuple(places[i] for i in several)),
                ("joint", places), ("mass", ())]
    rng.shuffle(queries)
    cached = run(trace)
    for kind, asked in queries:
        fresh = run(trace)
        got_raw, got_order, got_stats = cached.query_stats(asked)
        raw, order, stats = fresh.query_stats(asked)
        assert got_stats == stats
        assert got_order.width == order.width
        assert np.allclose(got_raw.data, raw.data, rtol=1e-12, atol=0.0)
        if kind == "mass":
            assert cached.mass() == pytest.approx(fresh.mass(), rel=1e-12,
                                                  abs=0.0)
        elif raw.mass() == 0.0:
            with pytest.raises(InconsistentEvidence):
                _ask(cached, kind, asked)
        else:
            want = _ask(fresh, kind, asked)
            assert _ask(cached, kind, asked).allclose(want, atol=1e-12)


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
