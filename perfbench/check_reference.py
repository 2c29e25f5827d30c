"""Closed-form tests of the brute-force reference.

Every benchmark run calls :func:`check` before it trusts the reference;
``python3 perfbench/check_reference.py`` runs the same tests alone.

- The gossip trace shipped in ``data/`` has the documented answers
  ``K3=1: 0.625`` and ``mass: 0.75``.
- A one-place detector under the independent semantics: ``noise`` fires
  whatever the marking, ``signal`` only when ``I`` is marked, and both
  leave the marking unchanged, so Bayes' rule gives the posterior of ``I``
  after one reading.
"""
from __future__ import annotations

import json
from pathlib import Path

import reference

GOSSIP = Path(__file__).resolve().parent.parent / "data" / "gossip_trace.json"
DETECTOR_CASES = ((0.5, 0.2, 0.7), (0.1, 0.05, 0.95), (0.8, 0.3, 0.4))


def _gossip() -> None:
    doc = json.loads(GOSSIP.read_text())
    net = doc["net"]
    session = {
        "places": tuple(net["places"]),
        "transitions": tuple((t["name"], tuple(t.get("pre", ())),
                              tuple(t.get("post", ())))
                             for t in net["transitions"]),
        "prior": tuple(doc["prior"].items()),
        "steps": [(s.get("semantics", "independent"), s["weights"], s["obs"],
                   ["K3", None] if k == len(doc["steps"]) - 1 else [])
                  for k, s in enumerate(doc["steps"])],
    }
    got = reference.answers(session)
    if abs(got[0] - 0.625) > 1e-12 or abs(got[1] - 0.75) > 1e-12:
        raise AssertionError(f"gossip trace: got {got}, want [0.625, 0.75]")


def _detector() -> None:
    for p_marked, lo, hi in DETECTOR_CASES:
        for obs, w_marked, w_clear in (
                ("success", p_marked * hi, (1 - p_marked) * lo),
                ("failure", p_marked * (1 - hi), (1 - p_marked) * (1 - lo))):
            session = {
                "places": ("I",),
                "transitions": (("noise", (), ()), ("signal", ("I",), ("I",))),
                "prior": (("I", p_marked),),
                "steps": [("independent",
                           {"noise": lo, "signal": hi - lo, "fail": 1 - hi},
                           obs, ["I", None])],
            }
            got = reference.answers(session)
            want = (w_marked / (w_marked + w_clear), w_marked + w_clear)
            if abs(got[0] - want[0]) > 1e-12 or abs(got[1] - want[1]) > 1e-12:
                raise AssertionError(
                    f"detector {p_marked, lo, hi} {obs}: got {got}, "
                    f"want {want}")


def check() -> None:
    """Raise AssertionError unless the reference meets every closed form."""
    _gossip()
    _detector()


if __name__ == "__main__":
    check()
    print("reference: gossip and detector closed forms hold")
