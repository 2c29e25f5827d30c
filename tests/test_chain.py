"""Dense engine against a from-the-definitions enumeration oracle."""
import numpy as np
import pytest

from pnbayes.bitmatrix import ProbVector, normalize
from pnbayes.chain import (build_F, build_P, marginal_of, replay_trace,
                           update)
from pnbayes.errors import TooLarge, ValidationError
from pnbayes.petri import CENet, StepSpec, enabled, fire, r
from pnbayes.randnet import random_net, random_step

import reference_nets as nets


def dense_step_oracle(net, step):
    """P and F by full enumeration of markings and events."""
    size = 1 << net.width
    P = np.zeros((size, size))
    F = np.zeros(size)
    events = [t.name for t in net.transitions] + ["fail"]
    for m in range(size):
        for t in events:
            p = r(net, step, m, t)
            if t != "fail" and enabled(net, m, t):
                P[fire(net, m, t).value, m] += p
            else:
                F[m] += p
    return P, F


def test_gossip_success_matrix(gossip_net, gossip_step):
    P = build_P(gossip_net, gossip_step)
    assert P.entry("1100", "1100") == pytest.approx(3 / 4)
    assert P.entry("1110", "1100") == pytest.approx(1 / 4)
    # P plus the failure diagonal is stochastic over markings
    F = build_F(gossip_net, gossip_step)
    total = P.to_dense().sum(axis=0) + F.diag_vector()
    assert np.allclose(total, 1.0)


def test_gossip_failure_matrix(gossip_net, gossip_step):
    F = build_F(gossip_net, gossip_step)
    assert F.is_diagonal
    # nothing in the step's support is enabled at 0001
    assert F.entry("0001", "0001") == 1.0
    assert F.entry("1100", "1100") == 0.0


def test_step_matrices_match_oracle(gossip_net, gossip_step):
    cases = [
        (gossip_net, gossip_step),
        (gossip_net, StepSpec("independent",
                              {"d1": 0.3, "d4": 0.25, "fail": 0.45})),
        (nets.detector_net(), nets.detector_step(0.1, 0.7)),
    ]
    rng = np.random.default_rng(7)
    for _ in range(6):
        net = random_net(rng, int(rng.integers(2, 7)),
                         int(rng.integers(1, 8)))
        for semantics in ("independent", "stochastic"):
            cases.append((net, random_step(rng, net, semantics)))
    for net, step in cases:
        P_ref, F_ref = dense_step_oracle(net, step)
        assert np.allclose(build_P(net, step).to_dense(), P_ref, atol=1e-12)
        assert np.allclose(build_F(net, step).diag_vector(), F_ref,
                           atol=1e-12)


def test_update_conditions_on_the_observation(gossip_net, gossip_step):
    prior = ProbVector.uniform(4)
    post = update(prior, gossip_net, gossip_step, "success")
    P = build_P(gossip_net, gossip_step).to_dense()
    expected = P @ prior.data
    assert np.allclose(post.data, expected / expected.sum())
    fail = update(prior, gossip_net, gossip_step, "failure")
    F = build_F(gossip_net, gossip_step).diag_vector()
    expected = F * prior.data
    assert np.allclose(fail.data, expected / expected.sum())
    with pytest.raises(ValidationError):
        update(prior, gossip_net, gossip_step, "maybe")


def test_replay_keeps_evidence_mass(gossip_net, gossip_step):
    prior = ProbVector.uniform(4)
    # a success of the three-transition step always marks K1 or K2, so the
    # failing second step must watch a different place
    probe = StepSpec("stochastic", {"d4": 1.0})
    steps = [(gossip_step, "success"), (probe, "failure")]
    out = replay_trace(gossip_net, prior, steps)
    P = build_P(gossip_net, gossip_step).to_dense()
    F = build_F(gossip_net, probe).diag_vector()
    expected = F * (P @ prior.data)
    assert out.mass() > 0.0
    assert np.allclose(out.data, expected)
    assert out.mass() == pytest.approx(expected.sum())
    # normalize_each only changes scale, not direction
    out2 = replay_trace(gossip_net, prior, steps, normalize_each=True)
    assert np.allclose(normalize(out).data, out2.data)
    with pytest.raises(ValidationError):
        replay_trace(gossip_net, prior, [(gossip_step, "maybe")])


def test_marginal_of_projects(gossip_net, gossip_step):
    prior = ProbVector.uniform(4)
    post = update(prior, gossip_net, gossip_step, "success")
    marg = marginal_of(post, gossip_net, ["K3"])
    k3 = gossip_net.place_index("K3")
    bit = (np.arange(16) >> (3 - k3)) & 1
    assert marg.entry(1) == pytest.approx(post.data[bit == 1].sum())
    # order follows net declaration, not the request
    pair = marginal_of(post, gossip_net, ["K3", "K1"])
    assert pair.arity == 2
    k1 = (np.arange(16) >> 3) & 1
    assert pair.entry("10") == pytest.approx(
        post.data[(k1 == 1) & (bit == 0)].sum())


def test_place_guard():
    wide = CENet([f"p{i}" for i in range(26)], [("t0", ("p0",), ("p1",))])
    step = StepSpec("independent", {"t0": 1.0})
    with pytest.raises(TooLarge, match="dense limit"):
        build_P(wide, step)
    with pytest.raises(TooLarge):
        replay_trace(wide, ProbVector(0, [1.0]), [])
