"""Modular networks: priors, naive evaluation, observation updates."""
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from pnbayes import reason
from pnbayes.bitmatrix import (ProbVector, TypedMatrix, compose, identity,
                               normalize, tensor)
from pnbayes.causality import Generator, Wire
from pnbayes.chain import build_F, build_P, marginal_of, replay_trace
from pnbayes.cli import main
from pnbayes.errors import MissingPlace, TooLarge, ValidationError
from pnbayes.mbn import (MBN, attach_update, build_update, eval_naive,
                         is_obn, prior_independent, prior_joint, prior_point,
                         terminate, uniform_prior, validate_mbn)
from pnbayes.petri import (CENet, StepSpec, Transition, net_to_json,
                           relevant_sets)
from pnbayes.randnet import BenchConfig, random_net, random_step, random_trace
from pnbayes.reason import PriorSpec

import reference_nets as nets


def as_vector(mat: TypedMatrix) -> ProbVector:
    assert mat.in_arity == 0
    return ProbVector(mat.out_arity, mat.to_dense()[:, 0])


def test_independent_prior_evaluates_to_product(gossip_net):
    marginals = {"K1": 0.1, "K2": 0.9, "K3": 0.5, "K4": 0.25}
    net = prior_independent(gossip_net, marginals)
    assert validate_mbn(net) == []
    assert is_obn(net)
    vec = as_vector(eval_naive(net))
    expected = np.ones(1)
    for p in gossip_net.places:
        expected = np.kron(expected, [1 - marginals[p], marginals[p]])
    assert np.allclose(vec.data, expected, atol=1e-12)
    assert vec.entry("1001") == pytest.approx(0.1 * 0.1 * 0.5 * 0.25)


def test_uniform_prior_is_uniform(gossip_net):
    vec = as_vector(eval_naive(uniform_prior(gossip_net)))
    assert np.allclose(vec.data, 1 / 16)


def test_joint_and_point_priors(gossip_net):
    joint = ProbVector(4, np.linspace(0.0, 0.125, 16))
    back = as_vector(eval_naive(prior_joint(gossip_net, joint)))
    assert np.allclose(back.data, joint.data)
    point = as_vector(eval_naive(prior_point(gossip_net, "0110")))
    assert point.entry("0110") == 1.0 and point.mass() == 1.0
    with pytest.raises(MissingPlace):
        prior_independent(gossip_net, {"K1": 0.5})
    with pytest.raises(ValidationError):
        prior_independent(gossip_net, {p: 1.5 for p in gossip_net.places})


def test_eval_naive_matches_matrix_algebra():
    # the fan-in network is small enough to evaluate by composition
    net = nets.fanin_mbn()
    a, b, c = (net.ev[x] for x in "ABC")
    d, e = net.ev["D"], net.ev["E"]
    expected = compose(compose(tensor(tensor(a, b), c),
                               tensor(d, identity(1))), e)
    assert eval_naive(net).allclose(expected, atol=1e-12)


def test_eval_naive_marginalizes_hidden_outputs():
    net = nets.star_mbn(3)
    # dropping every output leaves the total mass, a 0 -> 0 scalar
    closed = MBN(replace(net.graph, out=()), net.ev)
    total = eval_naive(closed).to_dense()
    assert total.shape == (1, 1)
    assert total[0, 0] == pytest.approx(1.0)


def test_eval_naive_wire_guard():
    wide = CENet([f"p{i}" for i in range(23)], [("t", ("p0",), ())])
    with pytest.raises(TooLarge, match="enumeration guard"):
        eval_naive(uniform_prior(wide))


def test_validate_mbn_diagnostics():
    star = nets.star_mbn(2)
    missing = MBN(star.graph, {})
    assert any("no evaluation" in e for e in validate_mbn(missing))
    bad_type = MBN(star.graph, {**star.ev, "hub": identity(2)})
    assert any("has type" in e for e in validate_mbn(bad_type))


def test_build_update_gossip_values(gossip_net, gossip_step):
    up = build_update(gossip_net, gossip_step)
    assert up.sbar == ("K1", "K2", "K3")
    assert up.ell == 3
    assert up.pmat.entry("110", "110") == pytest.approx(3 / 4)
    assert up.pmat.entry("111", "110") == pytest.approx(1 / 4)
    assert not up.pmat.is_diagonal
    assert up.fmat.is_diagonal
    # nothing enabled on the all-clear sub-marking
    assert up.fmat.entry("000", "000") == 1.0


def test_update_pads_to_the_full_step(gossip_net, gossip_step):
    # the compact updates, padded with the identity on the places they do
    # not read (K4 for P' over S-bar; K3 and K4 for F' over the pre-places
    # K1, K2), reproduce the dense step matrices exactly
    up = build_update(gossip_net, gossip_step)
    P = build_P(gossip_net, gossip_step)
    F = build_F(gossip_net, gossip_step)
    assert up.fail_places == ("K1", "K2")
    assert tensor(up.pmat, identity(1)).allclose(P, atol=1e-12)
    assert tensor(up.fmat, identity(2)).allclose(F, atol=1e-12)


def test_update_is_diagonal_when_marking_is_preserved():
    net = nets.detector_net()
    up = build_update(net, nets.detector_step(0.1, 0.7))
    assert up.sbar == ("I",)
    assert up.pmat.is_diagonal
    assert np.allclose(up.pmat.diag_vector(), [0.1, 0.7])
    assert np.allclose(up.fmat.diag_vector(), [0.9, 0.3])


def test_attach_update_repoints_wires(gossip_net, gossip_step):
    prior = uniform_prior(gossip_net)
    up = build_update(gossip_net, gossip_step)
    posterior = attach_update(prior, up, "success", step_index=0)
    graph = posterior.graph
    assert graph.node_count == 5
    assert graph.gens[-1] == Generator("upd_0_succ", 3, 3)
    # the update reads the prior wires of K1, K2, K3
    assert graph.sources[-1] == (Wire(0, 1), Wire(1, 1), Wire(2, 1))
    # K1..K3 now exit the update node; K4 keeps its prior wire
    assert graph.out == (Wire(4, 1), Wire(4, 2), Wire(4, 3), Wire(3, 1))
    assert not is_obn(posterior)
    with pytest.raises(ValidationError):
        attach_update(prior, up, "sideways")


def _update_cases(gossip_net, gossip_step, rng):
    cases = [(gossip_net, gossip_step)]
    # random nets of both semantics, each with a transition that touches no
    # place, and a step drawing only it or fail: an update over no places
    for semantics in ("independent", "stochastic"):
        for _ in range(6):
            drawn = random_net(rng, int(rng.integers(2, 7)),
                               int(rng.integers(2, 8)))
            net = CENet(drawn.places, drawn.transitions + (
                Transition("noise", (), ()),))
            noise = float(rng.uniform(0.1, 0.9))
            cases += [(net, random_step(rng, net, semantics)),
                      (net, StepSpec("independent",
                                     {"noise": noise, "fail": 1 - noise}))]
    return cases


def test_attached_update_matches_dense_replay(gossip_net, gossip_step, rng):
    for net, step in _update_cases(gossip_net, gossip_step, rng):
        prior = PriorSpec(marginals=tuple(
            (p, float(rng.uniform(0.2, 0.8))) for p in net.places))
        up = build_update(net, step)
        for obs in ("success", "failure"):
            posterior = attach_update(prior.as_mbn(net), up, obs)
            joint = as_vector(eval_naive(posterior))
            ref = replay_trace(net, prior.as_vector(net), [(step, obs)])
            assert np.allclose(joint.data, ref.data, rtol=0.0, atol=1e-12)


def test_failure_node_reads_only_the_pre_places(gossip_net, gossip_step,
                                               rng):
    """F' spans the pre-places of the step's support, in S-bar order, and
    a failure node moves only their wires."""
    detector = (nets.detector_net(), nets.detector_step(0.1, 0.7))
    assert build_update(gossip_net, gossip_step).fail_places == ("K1", "K2")
    assert build_update(*detector).fail_places == ("I",)
    for net, step in _update_cases(gossip_net, gossip_step, rng) + [detector]:
        up = build_update(net, step)
        pre = set().union(*(net.transition(t).pre
                            for t in step.support(net)))
        assert up.fail_places == tuple(p for p in up.sbar if p in pre)
        assert up.fmat.is_diagonal
        assert up.fmat.in_arity == len(up.fail_places)
        prior = uniform_prior(net)
        posterior = attach_update(prior, up, "failure")
        v = prior.graph.node_count
        assert posterior.graph.sources[v] == tuple(
            prior.place_wire(p) for p in up.fail_places)
        for p in net.places:
            if p in pre:
                port = up.fail_places.index(p) + 1
                assert posterior.place_wire(p) == Wire(v, port)
            else:
                assert posterior.place_wire(p) == prior.place_wire(p)


def test_terminate_marginalizes(gossip_net, gossip_step):
    prior = uniform_prior(gossip_net)
    up = build_update(gossip_net, gossip_step)
    posterior = attach_update(prior, up, "success")
    marg = terminate(posterior, ["K3"])
    assert marg.places == ("K3",)
    vec = normalize(as_vector(eval_naive(marg)))
    assert vec.entry(1) == pytest.approx(5 / 8, abs=1e-12)
    ref = replay_trace(gossip_net, ProbVector.uniform(4),
                       [(gossip_step, "success")])
    ref_marg = normalize(marginal_of(ref, gossip_net, ["K3"]))
    assert vec.allclose(ref_marg, atol=1e-12)
    with pytest.raises(MissingPlace):
        terminate(posterior, ["K9"])
    with pytest.raises(MissingPlace):
        terminate(MBN(posterior.graph, posterior.ev), ["K3"])


def _full_update(net, step):
    """The reference update, both matrices built over all 2^ell
    sub-markings of S-bar: P' summed through scipy's CSC form and read
    back as its entries, F' read off the sub-markings that clear every
    place outside the pre-places."""
    rel = relevant_sets(net, step)
    idx = np.arange(1 << rel.ell, dtype=np.int64)
    enabled = {t: (idx & pre) == pre for t, (pre, _) in rel.masks.items()}
    stochastic = step.semantics == "stochastic"
    denom = sum(step.weight(t) * en for t, en in enabled.items())
    rows, cols, vals = [], [], []
    for t, (pre, post) in rel.masks.items():
        en, w = enabled[t], step.weight(t)
        src = idx[en]
        rows.append((src & ~pre) | post)
        cols.append(src)
        vals.append(w / denom[en] if stochastic else np.full(src.shape[0], w))
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    coo = sp.csc_matrix((vals, (rows, cols)),
                        shape=(idx.shape[0],) * 2).tocoo()
    union = 0
    for pre, _ in rel.masks.values():
        union |= pre
    sub = idx[(idx & ~union) == 0]
    if stochastic:
        fdiag = denom[sub] == 0
    else:
        fdiag = step.weight("fail") + sum(step.weight(t) * ~en[sub]
                                          for t, en in enabled.items())
    return (coo.row, coo.col, coo.data), np.asarray(fdiag, dtype=np.float64)


def _grid_updates():
    """Every step of the criterion-8 grid under both semantics."""
    for semantics in ("independent", "stochastic"):
        cfg = BenchConfig(places=(10, 15, 20, 25), trials=3, seed=0,
                          semantics=semantics)
        for k in cfg.places:
            for trial in range(cfg.trials):
                rng = np.random.default_rng([cfg.seed, k, trial])
                n_trans = int(rng.choice(np.asarray(cfg.transitions)))
                trace = random_trace(rng, k, n_trans, cfg.steps, semantics,
                                     cfg.max_pre, cfg.max_post,
                                     cfg.max_active)
                yield from ((trace.net, step) for step, _ in trace.steps)


def test_update_matches_the_full_construction(gossip_net, gossip_step, rng):
    """F' over the pre-places alone equals the full construction's bit for
    bit, and P' has the same entries in the same column-major order with
    bit-identical values, a position two transitions reach included."""
    cases = ([(gossip_net, gossip_step),
              (nets.detector_net(), nets.detector_step(0.1, 0.7))]
             + _update_cases(gossip_net, gossip_step, rng)
             + list(_grid_updates()))
    layouts = set()
    for net, step in cases:
        (rows, cols, vals), fdiag = _full_update(net, step)
        up = build_update(net, step)
        assert up.fmat.diag_vector().tobytes() == fdiag.tobytes()
        got = up.pmat.entries()
        assert np.array_equal(got[0], rows) and np.array_equal(got[1], cols)
        assert got[2].tobytes() == vals.tobytes()
        layouts.add("diagonal" if up.pmat.is_diagonal else
                    "sparse" if up.pmat.is_sparse else "dense")
    assert layouts == {"diagonal", "dense", "sparse"}


def test_a_step_builds_only_the_matrix_it_attaches(gossip_net, gossip_step):
    up = build_update(gossip_net, gossip_step)
    assert "pmat" not in vars(up) and "fmat" not in vars(up)
    attach_update(uniform_prior(gossip_net), up, "failure")
    assert "pmat" not in vars(up) and "fmat" in vars(up)
    up = build_update(gossip_net, gossip_step)
    attach_update(uniform_prior(gossip_net), up, "success")
    assert "pmat" in vars(up) and "fmat" not in vars(up)


@pytest.mark.parametrize("all_failures", [True, False])
def test_run_builds_p_once_per_success(monkeypatch, all_failures):
    """P' is cached on its update once built, so the updates holding one
    count the P' builds: none on an all-failure trace, one per success on
    a mixed one."""
    built = []

    def recording(net, step):
        built.append(build_update(net, step))
        return built[-1]
    monkeypatch.setattr(reason, "build_update", recording)
    trace = random_trace(np.random.default_rng(8), 6, 8, 12, "independent")
    if all_failures:
        trace = replace(trace, steps=tuple(
            (step, "failure") for step, _ in trace.steps))
    successes = sum(obs == "success" for _, obs in trace.steps)
    assert successes == 0 if all_failures else 0 < successes < 12
    joint = reason.run(trace).joint()
    assert sum("pmat" in vars(up) for up in built) == successes
    assert sum("fmat" in vars(up) for up in built) == 12 - successes
    ref = normalize(replay_trace(trace.net, trace.prior.as_vector(trace.net),
                                 list(trace.steps)))
    assert np.allclose(joint.data, ref.data, rtol=0.0, atol=1e-12)


def _forty_place_step():
    """A net of 40 places whose step moves tokens across all of them, while
    its support reads two: S-bar has 40 places, the pre-places two."""
    places = [f"p{i}" for i in range(40)]
    net = CENet(places, [("a", ["p0"], places[2:21]),
                         ("b", ["p1"], places[21:])])
    step = StepSpec("independent", {"a": 0.3, "b": 0.4, "fail": 0.3})
    return net, step


def test_a_failure_over_many_places_builds_only_its_pre_places():
    net, step = _forty_place_step()
    q = {p: 0.2 + 0.015 * i for i, p in enumerate(net.places)}
    up = build_update(net, step)
    assert up.ell == 40 and up.fail_places == ("p0", "p1")
    posterior = reason.Posterior(net, attach_update(
        prior_independent(net, q), up, "failure"))
    assert up.fmat.in_arity == 2 and "pmat" not in vars(up)
    # P(fail | m) = 0.3 + 0.3 [p0 clear] + 0.4 [p1 clear]
    q0, q1 = q["p0"], q["p1"]
    expected = (q0 * (0.3 + 0.4 * (1 - q1))
                / (0.3 + 0.3 * (1 - q0) + 0.4 * (1 - q1)))
    got = posterior.marginal(["p0"]).entry(1)
    assert abs(got - expected) <= 1e-12 * expected
    with pytest.raises(TooLarge, match="update over 40 places"):
        attach_update(prior_independent(net, q), up, "success")


def test_a_success_over_too_many_places_exits_with_the_guard_code(tmp_path):
    net, step = _forty_place_step()
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({
        "net": net_to_json(net), "prior": {p: 0.5 for p in net.places},
        "steps": [{"weights": step.weights, "obs": obs}
                  for obs in ("failure", "success")]}))
    assert main(["query", str(trace), "--marginal", "p0"]) == 4
