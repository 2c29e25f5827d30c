"""Net structure, firing, step specifications and relevant sets."""
import pytest

from pnbayes.errors import MissingPlace, NotEnabled, ValidationError
from pnbayes.mbn import prior_point
from pnbayes.petri import (CENet, Marking, StepSpec, Transition, enabled,
                           fire, net_from_json, net_to_json, r,
                           relevant_sets, validate_net_json)

import reference_nets as nets


def full_gossip_step():
    """All five transitions active, with weights 1/6,1/3,1/6,1/6,1/6."""
    return StepSpec("stochastic",
                    {"d1": 1 / 6, "d2": 1 / 3, "d3": 1 / 6,
                     "d4": 1 / 6, "d5": 1 / 6})


def test_marking_literals(gossip_net):
    m = gossip_net.marking("1100")
    assert isinstance(m, Marking)
    assert m.bits == "1100"
    assert int(m.value) == 0b1100
    # first-listed place owns the most significant bit
    assert gossip_net.place_index("K1") == 0
    assert gossip_net.pre_mask("d1") == 0b1000
    with pytest.raises(ValidationError):
        gossip_net.marking("11")


def test_an_integer_marking_outside_the_net_raises():
    net = CENet(("a", "b"), (("t", ("a",), ("b",)),))
    assert net.marking(3) == Marking(3, 2)
    for bad in (4, 7, -1, Marking(7, 2)):
        with pytest.raises(ValidationError, match="outside"):
            net.marking(bad)
    with pytest.raises(ValidationError):
        fire(net, 7, "t")
    with pytest.raises(ValidationError):
        prior_point(net, 7)


def test_enabled_and_fire(gossip_net):
    assert enabled(gossip_net, "1100", "d1")
    assert enabled(gossip_net, "1100", "d2")
    assert not enabled(gossip_net, "1100", "d4")
    assert fire(gossip_net, "1100", "d3").bits == "1110"
    # firing consumes pre and produces post
    assert fire(gossip_net, "0001", "d5").bits == "0101"
    with pytest.raises(NotEnabled):
        fire(gossip_net, "0001", "d1")


def test_constructor_guards():
    with pytest.raises(ValidationError):
        CENet(("A", "A"), ())
    with pytest.raises(MissingPlace):
        CENet(("A",), (("t", ("B",), ()),))
    with pytest.raises(ValidationError):
        CENet(("A",), (("fail", ("A",), ()),))
    with pytest.raises(ValidationError):
        CENet(("A",), (("t", ("A",), ()), ("t", (), ("A",))))
    t = Transition("t", ["A"], ["A", "B"])
    assert t.pre == frozenset({"A"}) and t.post == frozenset({"A", "B"})


def test_step_spec_normalization():
    st = StepSpec("stochastic", {"d1": 1 / 6, "d2": 1 / 3, "d3": 1 / 6})
    assert st.weight("d1") == pytest.approx(1 / 4)
    assert st.weight("d2") == pytest.approx(1 / 2)
    with pytest.raises(ValidationError):
        StepSpec("stochastic", {"d1": 0.5, "fail": 0.5})
    with pytest.raises(ValidationError):
        StepSpec("independent", {"d1": 0.5})  # misses the fail share
    with pytest.raises(ValidationError):
        StepSpec("independent", {"fail": 1.0})  # empty support
    with pytest.raises(ValidationError):
        StepSpec("markov", {"d1": 1.0})
    ok = StepSpec("independent", {"d1": 0.6, "fail": 0.4})
    assert ok.weight("fail") == pytest.approx(0.4)


def test_support_in_declaration_order(gossip_net):
    st = StepSpec("stochastic", {"d3": 0.2, "d1": 0.8})
    assert st.support(gossip_net) == ("d1", "d3")
    with pytest.raises(ValidationError):
        StepSpec("stochastic", {"nope": 1.0}).support(gossip_net)


def test_event_distribution_at_marking(gossip_net):
    # at 1100 only d1, d2, d3 are enabled; weights renormalize over them
    st = full_gossip_step()
    assert r(gossip_net, st, "1100", "d2") == pytest.approx(1 / 2)
    assert r(gossip_net, st, "1100", "d1") == pytest.approx(1 / 4)
    assert r(gossip_net, st, "1100", "d3") == pytest.approx(1 / 4)
    assert r(gossip_net, st, "1100", "d4") == 0.0
    assert r(gossip_net, st, "1100", "fail") == 0.0
    # nothing enabled at the empty marking: failure is certain
    assert r(gossip_net, st, "0000", "fail") == 1.0


def test_event_distribution_independent(gossip_net):
    # the independent draw ignores the marking; disabled draws become
    # failures downstream, in the step matrices
    st = StepSpec("independent", {"d1": 0.3, "d2": 0.5, "fail": 0.2})
    assert r(gossip_net, st, "1100", "d1") == pytest.approx(0.3)
    assert r(gossip_net, st, "1000", "d2") == pytest.approx(0.5)
    assert r(gossip_net, st, "1000", "fail") == pytest.approx(0.2)
    total = sum(r(gossip_net, st, "1000", t)
                for t in ("d1", "d2", "d3", "d4", "d5", "fail"))
    assert total == pytest.approx(1.0)


def test_relevant_sets(gossip_net, gossip_step):
    rel = relevant_sets(gossip_net, gossip_step)
    assert rel.sbar == ("K1", "K2", "K3")
    assert rel.ell == 3
    assert set(rel.tbar) == {"d1", "d2", "d3", "fail"}
    # independent step without fail weight keeps fail out of tbar
    st = StepSpec("independent", {"d1": 1.0})
    rel2 = relevant_sets(gossip_net, st)
    assert rel2.sbar == ("K1", "K2")
    assert "fail" not in rel2.tbar


def test_json_round_trip(gossip_net):
    doc = net_to_json(gossip_net)
    back = net_from_json(doc)
    assert back.places == gossip_net.places
    assert back.transitions == gossip_net.transitions
    assert validate_net_json(doc) == []


def test_json_diagnostics():
    assert validate_net_json([]) == ["net description must be a JSON object"]
    errors = validate_net_json({
        "places": ["A", "A"],
        "transitions": [
            {"name": "t", "pre": ["B"]},
            {"name": "t"},
            {"name": "fail"},
            {"nope": 1},
        ],
    })
    assert any("duplicate place" in e for e in errors)
    assert any("unknown place 'B'" in e for e in errors)
    assert any("duplicate transition" in e for e in errors)
    assert any("reserved" in e for e in errors)
    assert any("must be an object" in e for e in errors)
    with pytest.raises(ValidationError):
        net_from_json({"places": 3, "transitions": []})


def test_reference_detector_rates():
    net = nets.detector_net()
    st = nets.detector_step(0.1, 0.7)
    assert r(net, st, "1", "noise") + r(net, st, "1", "signal") \
        == pytest.approx(0.7)
    assert r(net, st, "0", "noise") == pytest.approx(0.1)
    assert r(net, st, "0", "fail") == pytest.approx(0.3)
    assert fire(net, "1", "signal").bits == "1"
    assert fire(net, "0", "noise").bits == "0"
