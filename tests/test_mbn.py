"""Modular networks: priors, naive evaluation, observation updates."""
import numpy as np
import pytest

from pnbayes.bitmatrix import (ProbVector, TypedMatrix, compose, identity,
                               normalize, tensor)
from pnbayes.causality import Generator, Wire
from pnbayes.chain import build_F, build_P, marginal_of, replay_trace
from pnbayes.errors import MissingPlace, TooLarge, ValidationError
from pnbayes.mbn import (MBN, attach_update, build_update, eval_naive,
                         is_obn, prior_independent, prior_joint, prior_point,
                         terminate, uniform_prior, validate_mbn)
from pnbayes.petri import CENet, StepSpec, Transition
from pnbayes.randnet import random_net, random_step
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
    from dataclasses import replace
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
    # the compact update on S-bar, padded with the identity on K4,
    # reproduces the dense step matrices exactly
    up = build_update(gossip_net, gossip_step)
    P = build_P(gossip_net, gossip_step)
    F = build_F(gossip_net, gossip_step)
    assert tensor(up.pmat, identity(1)).allclose(P, atol=1e-12)
    assert tensor(up.fmat, identity(1)).allclose(F, atol=1e-12)


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


def test_attached_update_matches_dense_replay(gossip_net, gossip_step, rng):
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
    for net, step in cases:
        prior = PriorSpec(marginals=tuple(
            (p, float(rng.uniform(0.2, 0.8))) for p in net.places))
        up = build_update(net, step)
        for obs in ("success", "failure"):
            posterior = attach_update(prior.as_mbn(net), up, obs)
            joint = as_vector(eval_naive(posterior))
            ref = replay_trace(net, prior.as_vector(net), [(step, obs)])
            assert np.allclose(joint.data, ref.data, rtol=0.0, atol=1e-12)


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
