"""Random net/trace generators and the benchmark row machinery."""
import pytest

from pnbayes.errors import ValidationError
from pnbayes.randnet import (CSV_HEADER, BenchConfig, bench_rows, random_net,
                             random_step, random_trace, rows_to_csv,
                             run_engine)
from pnbayes.reason import dense_posterior


def test_random_net_respects_bounds(rng):
    for _ in range(20):
        net = random_net(rng, places=7, transitions=9,
                         max_pre=2, max_post=3)
        assert len(net.places) == 7 and len(net.transitions) == 9
        for t in net.transitions:
            assert 1 <= len(t.pre) <= 2
            assert len(t.post) <= 3
            assert len(set(t.pre)) == len(t.pre)
            assert len(set(t.post)) == len(t.post)
    with pytest.raises(ValidationError):
        random_net(rng, places=4, transitions=2, max_pre=0)


def test_random_step_shapes(rng):
    net = random_net(rng, places=6, transitions=10)
    for _ in range(20):
        ind = random_step(rng, net, "independent", max_active=4)
        assert 1 <= len(ind.support(net)) <= 4
        assert ind.weight("fail") > 0.0
        sto = random_step(rng, net, "stochastic", max_active=4)
        assert sto.weight("fail") == 0.0
        assert sum(sto.weight(t) for t in sto.support(net)) == \
            pytest.approx(1.0)


def test_random_trace_has_positive_probability(rng):
    for k in range(10):
        semantics = "stochastic" if k % 2 else "independent"
        trace = random_trace(rng, places=6, transitions=8, steps=5,
                             semantics=semantics)
        assert len(trace.steps) == 5
        assert dense_posterior(trace).mass() > 0.0


def test_run_engine_agreement(rng):
    trace = random_trace(rng, places=6, transitions=8, steps=4)
    query = [trace.net.places[0]]
    mbn_vec, mbn_wires = run_engine("mbn", trace, query)
    dense_vec, dense_wires = run_engine("dense", trace, query)
    assert mbn_vec.allclose(dense_vec, atol=1e-9)
    assert dense_wires == trace.net.width
    assert mbn_wires >= 1
    with pytest.raises(ValidationError, match="unknown engine"):
        run_engine("turbo", trace, query)


def test_bench_config_validation():
    with pytest.raises(ValidationError):
        BenchConfig(places=())
    with pytest.raises(ValidationError):
        BenchConfig(engines=("mbn", "turbo"))


@pytest.mark.parametrize("field, value", [
    ("places", (3, 0)), ("transitions", (0,)), ("transitions", (-2, 4)),
    ("max_active", 0), ("max_pre", 0), ("steps", -2), ("trials", -1)])
def test_bench_config_rejects_counts_out_of_range(field, value):
    with pytest.raises(ValidationError):
        BenchConfig(**{field: value})


def test_bench_config_allows_zero_steps_and_trials():
    assert bench_rows(BenchConfig(places=(3,), steps=0, trials=1))
    assert not bench_rows(BenchConfig(places=(3,), trials=0))


def test_bench_rows_layout_and_determinism():
    cfg = BenchConfig(places=(5, 6), transitions=(6, 7), steps=3, trials=2,
                      seed=11)
    rows = bench_rows(cfg)
    # both engines per (places, trial) cell, sorted by places then trial
    assert [(r.places, r.trial) for r in rows] == \
        [(5, 0), (5, 0), (5, 1), (5, 1), (6, 0), (6, 0), (6, 1), (6, 1)]
    assert {r.engine for r in rows} == {"mbn", "dense"}
    assert all(r.seed == 11 and r.steps == 3 for r in rows)
    assert all(r.runtime_ms >= 0.0 for r in rows)

    again = bench_rows(cfg)
    fixed = [(r.places, r.transitions, r.trial, r.engine, r.seed, r.steps,
              r.max_factor_wires) for r in rows]
    assert fixed == [(r.places, r.transitions, r.trial, r.engine, r.seed,
                      r.steps, r.max_factor_wires) for r in again]


def test_bench_rows_skip_dense_above_limit():
    cfg = BenchConfig(places=(26,), transitions=(8,), steps=2, trials=1,
                      engines=("mbn", "dense"))
    rows = bench_rows(cfg)
    assert [r.engine for r in rows] == ["mbn"]


def test_csv_round_trip():
    cfg = BenchConfig(places=(5,), transitions=(6,), steps=2, trials=1)
    text = rows_to_csv(bench_rows(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_HEADER.split(","))
    assert cells[0] == "5" and cells[3] in ("mbn", "dense")
