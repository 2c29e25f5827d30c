"""Condition/event nets and their probabilistic step semantics.

Places hold at most one token, so a marking is a subset of places, encoded
as a bitstring in place-declaration order (first place = most significant
bit).  There is no contact condition: firing ``t`` replaces ``pre(t)`` by
``post(t)`` regardless of tokens already present on ``post(t)``.

A step draws a transition according to a :class:`StepSpec`: either
independently of the marking (a disabled draw is a failure) or restricted
to the enabled transitions with renormalized weights (failure only when
nothing is enabled).  ``fail`` is the reserved name for the failure event.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .bitmatrix import STOCH_EPS, bits_to_int, int_to_bits
from .errors import (DegenerateStep, MissingPlace, NotEnabled,
                     ValidationError)

FAIL = "fail"

INDEPENDENT = "independent"
STOCHASTIC = "stochastic"
SEMANTICS = (INDEPENDENT, STOCHASTIC)


class Marking(NamedTuple):
    """A token configuration: ``value`` holds one bit per place."""

    value: int
    width: int

    @classmethod
    def from_bits(cls, bits: str) -> "Marking":
        return cls(bits_to_int(bits), len(bits))

    @property
    def bits(self) -> str:
        return int_to_bits(self.value, self.width)

    def __str__(self) -> str:
        return self.bits


@dataclass(frozen=True)
class Transition:
    name: str
    pre: frozenset[str]
    post: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "pre", frozenset(self.pre))
        object.__setattr__(self, "post", frozenset(self.post))


class CENet:
    """A condition/event net over named places."""

    def __init__(self, places: Iterable[str],
                 transitions: Iterable[tuple | Transition]):
        self.places: tuple[str, ...] = tuple(places)
        if len(set(self.places)) != len(self.places):
            raise ValidationError("duplicate place names")
        self._pindex = {p: i for i, p in enumerate(self.places)}
        trans = []
        for t in transitions:
            if not isinstance(t, Transition):
                name, pre, post = t
                t = Transition(name, frozenset(pre), frozenset(post))
            if t.name == FAIL:
                raise ValidationError(f"{FAIL!r} is a reserved transition name")
            for p in t.pre | t.post:
                if p not in self._pindex:
                    raise MissingPlace(
                        f"transition {t.name!r} references unknown place {p!r}")
            trans.append(t)
        self.transitions: tuple[Transition, ...] = tuple(trans)
        if len({t.name for t in trans}) != len(trans):
            raise ValidationError("duplicate transition names")
        self._tindex = {t.name: t for t in trans}
        self.width = len(self.places)
        # pre/post as bitmasks, place i at bit width-1-i (MSB-first markings)
        self._pre_mask = {t.name: self._mask(t.pre) for t in trans}
        self._post_mask = {t.name: self._mask(t.post) for t in trans}

    def _mask(self, places: frozenset[str]) -> int:
        m = 0
        for p in places:
            m |= 1 << (self.width - 1 - self._pindex[p])
        return m

    def place_index(self, place: str) -> int:
        try:
            return self._pindex[place]
        except KeyError:
            raise MissingPlace(f"unknown place {place!r}") from None

    def transition(self, name: str) -> Transition:
        try:
            return self._tindex[name]
        except KeyError:
            raise ValidationError(f"unknown transition {name!r}") from None

    def pre_mask(self, name: str) -> int:
        return self._pre_mask[name]

    def post_mask(self, name: str) -> int:
        return self._post_mask[name]

    def marking(self, m: Marking | str | int) -> Marking:
        if isinstance(m, str):
            if len(m) != self.width:
                raise ValidationError(
                    f"marking literal {m!r} has wrong length")
            return Marking.from_bits(m)
        if isinstance(m, Marking):
            if m.width != self.width:
                raise ValidationError(
                    f"marking width {m.width} != {self.width} places")
            m = m.value
        if not 0 <= int(m) < 1 << self.width:
            raise ValidationError(
                f"marking {m} is outside [0, 2^{self.width})")
        return Marking(int(m), self.width)

    def __repr__(self):
        return (f"CENet({len(self.places)} places, "
                f"{len(self.transitions)} transitions)")


def enabled(net: CENet, m: Marking | str | int, t: str) -> bool:
    """``t`` is enabled iff all its pre-places are marked."""
    mv = net.marking(m).value
    pre = net.pre_mask(t)
    return (mv & pre) == pre


def fire(net: CENet, m: Marking | str | int, t: str) -> Marking:
    """Fire ``t``: remove ``pre(t)``, then mark ``post(t)``."""
    mk = net.marking(m)
    if not enabled(net, mk, t):
        raise NotEnabled(f"transition {t!r} is not enabled at {mk.bits}")
    return Marking((mk.value & ~net.pre_mask(t)) | net.post_mask(t), net.width)


class StepSpec:
    """Semantics tag plus transition weights for one step.

    Weights may include the reserved key ``fail`` under the independent
    semantics.  Under the stochastic semantics the weights are only defined
    up to scale (they are renormalized over the enabled transitions), so
    they are normalized to sum 1 at construction; the independent semantics
    requires them to sum to 1 already.
    """

    __slots__ = ("semantics", "weights")

    def __init__(self, semantics: str, weights: Mapping[str, float]):
        if semantics not in SEMANTICS:
            raise ValidationError(f"unknown semantics {semantics!r}")
        w = {name: float(v) for name, v in weights.items()}
        for name, v in w.items():
            if not (0.0 <= v <= 1.0 + STOCH_EPS):
                raise ValidationError(
                    f"weight of {name!r} outside [0, 1]: {v}")
        support = [name for name, v in w.items() if v > 0 and name != FAIL]
        if not support:
            raise ValidationError("no transition has positive weight")
        total = sum(w.values())
        if semantics == STOCHASTIC:
            if w.get(FAIL, 0.0) != 0.0:
                raise ValidationError(
                    "fail weight must be 0 under stochastic semantics")
            w = {name: v / total for name, v in w.items()}
        elif abs(total - 1.0) > STOCH_EPS:
            raise ValidationError(
                f"independent-step weights must sum to 1, got {total}")
        self.semantics = semantics
        self.weights = dict(w)

    def weight(self, t: str) -> float:
        return self.weights.get(t, 0.0)

    def support(self, net: CENet) -> tuple[str, ...]:
        """Positive-weight transitions in net declaration order."""
        for name in self.weights:
            if name != FAIL:
                net.transition(name)
        return tuple(t.name for t in net.transitions
                     if self.weights.get(t.name, 0.0) > 0)

    def __repr__(self):
        return f"StepSpec({self.semantics}, {self.weights})"


def r(net: CENet, step: StepSpec, m: Marking | str | int, t: str) -> float:
    """Probability that step ``step`` at marking ``m`` draws event ``t``.

    ``t`` ranges over the transitions plus ``fail``; for every marking the
    values sum to 1.
    """
    mk = net.marking(m)
    if step.semantics == INDEPENDENT:
        return step.weight(t)
    en = [u.name for u in net.transitions
          if step.weight(u.name) > 0 and enabled(net, mk, u.name)]
    if not en:
        return 1.0 if t == FAIL else 0.0
    if t == FAIL or t not in en:
        return 0.0
    return step.weight(t) / sum(step.weight(u) for u in en)


class RelevantSets:
    """The places and events a step can actually touch.

    ``sbar`` lists the ``ell`` relevant places in net order, ``tbar`` the
    relevant events: the transitions with positive weight, then ``fail``
    whenever it can be drawn.  ``masks`` maps each relevant transition to
    its pre- and post-set as bitmasks over sub-markings of ``sbar``
    (``sbar[j]`` at bit ``ell-1-j``).  These places decide the enabledness
    and firing of every relevant transition, so ``mbn.build_update`` builds
    the step's update over their sub-markings alone.
    """

    def __init__(self, net: CENet, step: StepSpec):
        support = step.support(net)
        if not support:
            raise DegenerateStep("no transition has positive weight")
        trans = [net.transition(name) for name in support]
        touched = set().union(*(t.pre | t.post for t in trans))
        self.sbar: tuple[str, ...] = tuple(
            p for p in net.places if p in touched)
        include_fail = (step.semantics == STOCHASTIC
                        or step.weight(FAIL) > 0)
        self.tbar: tuple[str, ...] = support + ((FAIL,) if include_fail else ())
        self.ell = len(self.sbar)
        spos = {p: self.ell - 1 - j for j, p in enumerate(self.sbar)}
        self.masks: dict[str, tuple[int, int]] = {
            t.name: (sum(1 << spos[p] for p in t.pre),
                     sum(1 << spos[p] for p in t.post)) for t in trans}


def relevant_sets(net: CENet, step: StepSpec) -> RelevantSets:
    return RelevantSets(net, step)


# -- serialization ----------------------------------------------------------

def net_from_json(obj: dict) -> CENet:
    errors = validate_net_json(obj)
    if errors:
        raise ValidationError("; ".join(errors))
    return CENet(obj["places"],
                 [(t["name"], t.get("pre", []), t.get("post", []))
                  for t in obj["transitions"]])


def net_to_json(net: CENet) -> dict:
    return {
        "places": list(net.places),
        "transitions": [
            {"name": t.name, "pre": sorted(t.pre), "post": sorted(t.post)}
            for t in net.transitions
        ],
    }


def validate_net_json(obj) -> list[str]:
    """Structural diagnostics for a net description; empty means valid."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return ["net description must be a JSON object"]
    places = obj.get("places")
    if not isinstance(places, list) or not all(
            isinstance(p, str) for p in places):
        errors.append("'places' must be a list of strings")
        places = []
    if len(set(places)) != len(places):
        errors.append("duplicate place names")
    transitions = obj.get("transitions")
    if not isinstance(transitions, list):
        errors.append("'transitions' must be a list")
        transitions = []
    seen = set()
    for i, t in enumerate(transitions):
        where = f"transitions[{i}]"
        if not isinstance(t, dict) or not isinstance(t.get("name"), str):
            errors.append(f"{where}: must be an object with a 'name'")
            continue
        name = t["name"]
        if name == FAIL:
            errors.append(f"{where}: {FAIL!r} is reserved")
        if name in seen:
            errors.append(f"{where}: duplicate transition name {name!r}")
        seen.add(name)
        for key in ("pre", "post"):
            val = t.get(key, [])
            if not isinstance(val, list):
                errors.append(f"{where}.{key}: must be a list")
                continue
            for p in val:
                if p not in places:
                    errors.append(f"{where}.{key}: unknown place {p!r}")
    return errors
