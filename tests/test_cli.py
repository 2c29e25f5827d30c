"""End-to-end checks of the command line front end."""
import json
from pathlib import Path

import numpy as np
import pytest

from pnbayes.cli import main
from pnbayes.petri import net_to_json
from pnbayes.reason import load_trace, run

import reference_nets as nets

DATA = Path(__file__).resolve().parent.parent / "data"
GOSSIP_TRACE = str(DATA / "gossip_trace.json")


def write_net(tmp_path, doc, name="net.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write_net(tmp_path, net_to_json(nets.gossip_net()))
    assert main(["validate", path]) == 0
    assert "ok: 4 places, 5 transitions" in capsys.readouterr().out


def test_validate_reports_problems(tmp_path, capsys):
    doc = net_to_json(nets.gossip_net())
    doc["transitions"][0]["pre"] = ["K9"]
    doc["transitions"].append(doc["transitions"][1])
    path = write_net(tmp_path, doc)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "unknown place 'K9'" in err
    assert "duplicate transition name" in err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/net.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_query_marginal_and_mass(capsys):
    assert main(["query", GOSSIP_TRACE, "--marginal", "K3", "--mass"]) == 0
    out = capsys.readouterr().out
    assert "K3=1: 0.625" in out
    assert "mass: 0.75" in out


def test_repeated_flags_print_what_single_queries_print(capsys):
    flags = [["--marginal", p] for p in nets.GOSSIP_PLACES] + [["--mass"]]
    assert main(["query", GOSSIP_TRACE] + sum(flags, [])) == 0
    together = capsys.readouterr().out.splitlines()
    one_by_one = []
    for flag in flags:
        assert main(["query", GOSSIP_TRACE] + flag) == 0
        one_by_one += capsys.readouterr().out.splitlines()
    assert together == one_by_one
    assert together[2] == "K3=1: 0.625" and together[4] == "mass: 0.75"


@pytest.mark.parametrize("successes", [39, 45])
def test_tiny_mass_query_succeeds(tmp_path, capsys, successes):
    trace = nets.loop_trace(successes)
    doc = {
        "net": net_to_json(trace.net),
        "prior": dict(trace.prior.marginals),
        "steps": [{"weights": dict(step.weights), "obs": obs}
                  for step, obs in trace.steps],
    }
    path = write_net(tmp_path, doc, "trace.json")
    assert main(["query", path, "--marginal", "I"]) == 0
    assert capsys.readouterr().out == "I=1: 1.0\n"


def test_query_without_requests_is_usage_error(capsys):
    assert main(["query", GOSSIP_TRACE]) == 1
    assert "nothing to report" in capsys.readouterr().err


def test_query_dump_matrix(capsys):
    assert main(["query", GOSSIP_TRACE, "--marginal", "K3",
                 "--dump-matrix"]) == 0
    out = capsys.readouterr().out
    # vector dump: "0 1" header, then the weights in descending order
    assert "\n0 1\n0.625\n0.375\n" in out


def test_query_agrees_with_oracle(tmp_path, capsys, rng):
    trace = nets.gossip_trace()
    doc = {
        "net": net_to_json(trace.net),
        "prior": {p: q for p, q in trace.prior.marginals},
        "steps": [
            {"semantics": "stochastic",
             "weights": {"d1": 0.25, "d2": 0.5, "d3": 0.25},
             "obs": "success"},
            {"semantics": "independent",
             "weights": {"d4": 0.4, "d5": 0.3, "fail": 0.3},
             "obs": "failure"},
        ],
    }
    path = write_net(tmp_path, doc, "trace.json")
    for place in trace.net.places:
        assert main(["query", path, "--marginal", place]) == 0
        symbolic = capsys.readouterr().out
        assert main(["oracle", path, "--marginal", place]) == 0
        dense = capsys.readouterr().out
        a = float(symbolic.split(":")[1])
        b = float(dense.split(":")[1])
        assert a == pytest.approx(b, abs=1e-9)


def test_query_with_order_file(tmp_path, capsys):
    assert main(["width", GOSSIP_TRACE]) == 0
    report = json.loads(capsys.readouterr().out)
    order_file = tmp_path / "order.txt"
    order_file.write_text("# forced order\n" +
                          "\n".join(report["order"]) + "\n")
    assert main(["query", GOSSIP_TRACE, "--marginal", "K3",
                 "--order-file", str(order_file)]) == 0
    assert "K3=1: 0.625" in capsys.readouterr().out


def test_query_stats_prints_one_json_line_per_query(tmp_path, capsys):
    flags = ["--marginal", "K3", "--marginal", "K1", "--mass"]
    assert main(["query", GOSSIP_TRACE] + flags) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(["query", GOSSIP_TRACE] + flags + ["--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the answers are unchanged, each followed by its report
    assert lines[::2] == plain
    posterior = run(load_trace(GOSSIP_TRACE))
    for line, asked in zip(lines[1::2], (["K3"], ["K1"], [])):
        _, order, stats = posterior.query_stats(asked)
        query = {"marginal": asked[0]} if asked else {"mass": True}
        assert json.loads(line) == {
            **query, "width": order.width,
            "max_factor_wires": stats.max_factor_wires,
            "contractions": stats.contractions, "swept": stats.swept,
            "grouped": False,
            "summarized": stats.summarized, "stepped": stats.stepped}

    # a forced order reports that order's width
    assert main(["width", GOSSIP_TRACE]) == 0
    order_file = tmp_path / "order.txt"
    order_file.write_text("\n".join(json.loads(
        capsys.readouterr().out)["order"]) + "\n")
    assert main(["query", GOSSIP_TRACE, "--marginal", "K3", "--order-file",
                 str(order_file), "--stats"]) == 0
    answer, line = capsys.readouterr().out.splitlines()
    assert answer == "K3=1: 0.625"
    report = json.loads(line)
    assert report["marginal"] == "K3" and report["grouped"] is False
    assert 0 < report["max_factor_wires"] <= report["width"]


def test_query_stats_reports_whether_a_query_read_the_summary(capsys):
    flags = ["--marginal", "K3", "--marginal", "K1", "--marginal", "K2",
             "--mass", "--stats"]
    assert main(["query", GOSSIP_TRACE] + flags) == 0
    lines = capsys.readouterr().out.splitlines()
    answers = [line.split(": ")[1] for line in lines[::2]]
    reports = [json.loads(line) for line in lines[1::2]]
    # the first query sums the posterior out to its place wires, and every
    # query reads that summary
    assert [r["summarized"] for r in reports] == [True, True, True, True]
    assert reports[0]["contractions"] > reports[1]["contractions"]
    posterior = run(load_trace(GOSSIP_TRACE))
    want = [posterior.marginal([p]).entry(1) for p in ("K3", "K1", "K2")]
    assert [float(a) for a in answers[:3]] == pytest.approx(want, abs=1e-12)
    assert float(answers[3]) == pytest.approx(0.75, abs=1e-12)


def test_query_stats_reports_grouped_contraction(tmp_path, capsys):
    trace = nets.wide_trace(np.random.default_rng(0))
    doc = {
        "net": net_to_json(trace.net),
        "prior": dict(trace.prior.marginals),
        "steps": [{"weights": dict(step.weights), "obs": obs}
                  for step, obs in trace.steps],
    }
    path = write_net(tmp_path, doc, "trace.json")
    assert main(["query", path, "--marginal", "p0", "--stats"]) == 0
    answer, line = capsys.readouterr().out.splitlines()
    assert answer.startswith("p0=1: ")
    report = json.loads(line)
    assert report["grouped"] is True
    assert report["max_factor_wires"] == report["width"]


def test_width_report(capsys):
    assert main(["width", GOSSIP_TRACE]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_factor_entries"] == 1 << report["width"]
    assert len(report["order"]) >= 4
    assert all(isinstance(w, str) for w in report["order"])


def test_width_dump_graph(capsys):
    assert main(["width", GOSSIP_TRACE, "--dump-graph"]) == 0
    out = capsys.readouterr().out
    assert "prior_K1" in out and "upd_0_succ" in out


def test_inconsistent_evidence_exit_code(tmp_path, capsys):
    doc = {
        "net": net_to_json(nets.detector_net()),
        "prior": {"I": 0.0},
        "steps": [{"weights": {"noise": 0.0, "signal": 0.7, "fail": 0.3},
                   "obs": "success"}],
    }
    path = write_net(tmp_path, doc, "trace.json")
    assert main(["query", path, "--marginal", "I"]) == 3
    assert "error:" in capsys.readouterr().err


def test_validation_exit_code(tmp_path, capsys):
    net = net_to_json(nets.gossip_net())
    even = {p: 0.5 for p in nets.GOSSIP_PLACES}
    step = {"weights": {"d1": 1.0}, "obs": "success"}
    docs = [
        {"net": net, "prior": {"K1": 0.5}, "steps": []},  # incomplete
        {"net": net, "prior": {"joint": [1 / 16] * 16, "K1": 0.5},
         "steps": []},
        {"net": net, "prior": {"joint": ["nan"] * 16}, "steps": []},
        {"net": net, "prior": {**even, "K1": None}, "steps": []},
        {"net": net, "prior": even,
         "steps": [{**step, "weights": ["d1"]}]},
        {"net": net, "prior": even, "steps": [3]},
    ]
    for doc in docs:
        path = write_net(tmp_path, doc, "trace.json")
        assert main(["query", path, "--mass"]) == 2
        assert "error:" in capsys.readouterr().err


def test_guard_exit_code(tmp_path, capsys):
    places = [f"p{i}" for i in range(26)]
    doc = {
        "net": {"places": places,
                "transitions": [{"name": "t0", "pre": ["p0"],
                                 "post": ["p1"]}]},
        "prior": {p: 0.5 for p in places},
        "steps": [{"weights": {"t0": 0.6, "fail": 0.4}, "obs": "success"}],
    }
    path = write_net(tmp_path, doc, "trace.json")
    assert main(["oracle", path, "--mass"]) == 4
    assert "dense limit" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])  # --places is required
    assert exc.value.code == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--steps", "-2", "steps and trials must not be negative"),
    ("--max-active", "0", "max_active must be at least 1"),
    ("--places", "0", "place and transition counts must be at least 1")])
def test_bench_rejects_counts_out_of_range(flag, value, message, capsys):
    argv = {"--places": "3", "--transitions": "4", "--steps": "2"}
    argv[flag] = value
    assert main(["bench", *[a for kv in argv.items() for a in kv]]) == 2
    assert message in capsys.readouterr().err


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["bench", "--places", "5..6", "--transitions", "6",
                 "--steps", "2", "--trials", "1", "--seed", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("places,transitions,trial,engine")
    assert len(lines) == 1 + 2 * 2  # two sizes, two engines each
    assert main(["bench", "--places", "5", "--transitions", "6",
                 "--steps", "2", "--trials", "1", "--engines", "mbn"]) == 0
    stdout_csv = capsys.readouterr().out
    assert stdout_csv.count("\n") == 2  # header plus one row
