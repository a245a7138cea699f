"""Experiment configs, seeded grids, CSV round trips, and summaries."""

import csv
import math

import pytest

from hoptree import harness
from hoptree.exact_oracle import OPTIMUM_MAX_N
from hoptree.graph_model import Instance, save_instance
from hoptree.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    MilestoneSummary,
    TrialRecord,
    config_hash,
    default_budget,
    format_summary,
    read_csv,
    run_grid,
    summarize,
    trial_seeds,
    write_csv,
)


def make_config(**overrides):
    base = dict(algo="ea-edge", n=5, p1=0.5, trials=3, seed=11, budget=200)
    base.update(overrides)
    return ExperimentConfig(**base)


# --- config validation -----------------------------------------------------------


def test_config_accepts_reasonable_values():
    cfg = make_config(targets=("feasible",), trace_every=10)
    assert cfg.representation == "edge"
    assert not cfg.needs_oracle
    assert make_config(algo="ea-vertex").representation == "vertex"
    assert make_config(targets=("opt",)).needs_oracle


@pytest.mark.parametrize(
    "overrides",
    [
        {"algo": "hillclimb"},
        {"n": 1},
        {"p1": -0.5},
        {"p1": 1.5},
        {"trials": 0},
        {"budget": 0},
        {"budget": 100_000_001},
        {"targets": ("fast",)},
        {"targets": ("ratio32",), "n": OPTIMUM_MAX_N + 1},
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        make_config(**overrides)


def test_oracle_targets_allowed_up_to_the_bound():
    make_config(targets=("ratio32", "opt"), n=OPTIMUM_MAX_N)


# --- hashing and seed derivation ---------------------------------------------------


def test_config_hash_is_stable_and_ignores_output_path():
    a = make_config(out="a.csv")
    b = make_config(out="b.csv")
    c = make_config(seed=12)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16
    int(config_hash(a), 16)


def test_trial_seeds_are_deterministic_and_distinct():
    cfg = make_config(trials=6)
    seeds = trial_seeds(cfg)
    assert seeds == trial_seeds(cfg)
    assert len(seeds) == 6
    inst_seeds = [s for s, _ in seeds]
    run_seeds = [s for _, s in seeds]
    assert len(set(inst_seeds)) == 6 and len(set(run_seeds)) == 6
    assert set(inst_seeds).isdisjoint(run_seeds)


# --- running grids -----------------------------------------------------------------


def test_run_grid_produces_one_record_per_trial():
    cfg = make_config(trials=4, targets=("feasible",), budget=5000)
    records = run_grid(cfg)
    assert len(records) == 4
    expected_runs = [rs for _, rs in trial_seeds(cfg)]
    for record, run_seed in zip(records, expected_runs):
        assert record.config_hash == config_hash(cfg)
        assert record.algo == "ea-edge" and record.n == 5 and record.m == 15
        assert record.instance_id.startswith("r")
        assert record.seed == run_seed
        assert record.eval_feasible is not None
        assert record.wall_ms is not None and record.wall_ms >= 0.0


def test_run_grid_replays_to_the_same_outcome():
    cfg = make_config(trials=3, targets=("opt",), budget=3000, n=4)
    first = run_grid(cfg)
    second = run_grid(cfg)
    for a, b in zip(first, second):
        assert a.same_outcome(b)
    for record in first:
        assert record.opt_cost is not None and record.ratio is not None


def test_run_grid_parallel_matches_serial():
    cfg = make_config(trials=4, budget=300)
    serial = run_grid(cfg, workers=1)
    parallel = run_grid(cfg, workers=2)
    assert all(a.same_outcome(b) for a, b in zip(serial, parallel))


def test_run_grid_on_a_fixed_instance_file(tmp_path, i3):
    path = tmp_path / "desk.txt"
    save_instance(i3, path)
    cfg = make_config(n=3, trials=3, targets=("opt",), budget=4000, instance_file=str(path))
    records = run_grid(cfg)
    for record in records:
        assert record.instance_id == "desk"
        assert record.n == 3 and record.m == 6
        assert record.opt_cost == 4


def test_run_grid_rejects_oversized_instance_files(tmp_path):
    n = OPTIMUM_MAX_N + 1
    big = Instance(n, [1] * (n * (n + 1) // 2))
    path = tmp_path / "big.txt"
    save_instance(big, path)
    with pytest.raises(ValueError):
        make_config(n=n, targets=("opt",), instance_file=str(path))


def test_run_grid_rejects_a_config_n_that_disagrees_with_the_file(tmp_path):
    path = tmp_path / "six.txt"
    save_instance(Instance(6, [1] * 21), path)
    cfg = make_config(n=5, instance_file=str(path))
    with pytest.raises(ValueError, match="n=5 does not match n=6"):
        run_grid(cfg)


def test_run_grid_writes_csv_when_asked(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = make_config(trials=2, budget=100, out=str(out))
    records = run_grid(cfg)
    assert out.exists()
    assert all(a.same_outcome(b) for a, b in zip(records, read_csv(out)))


# --- CSV ---------------------------------------------------------------------------


def test_csv_round_trip_drops_traces(tmp_path):
    cfg = make_config(trials=3, budget=400, trace_every=100, targets=("feasible",))
    records = run_grid(cfg)
    assert any(r.trace for r in records)
    path = tmp_path / "out.csv"
    write_csv(records, path)
    loaded = read_csv(path)
    assert len(loaded) == 3
    for a, b in zip(records, loaded):
        assert a.same_outcome(b)
        assert b.trace == ()
        assert b.wall_ms == pytest.approx(a.wall_ms)


def test_csv_is_stable_apart_from_wall_time(tmp_path):
    cfg = make_config(trials=2, budget=300)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_grid(cfg), p1)
    write_csv(run_grid(cfg), p2)
    rows1 = list(csv.reader(p1.open()))
    rows2 = list(csv.reader(p2.open()))
    assert rows1[0] == list(CSV_COLUMNS)
    assert [r[:-1] for r in rows1] == [r[:-1] for r in rows2]


def test_read_csv_rejects_foreign_headers(tmp_path):
    path = tmp_path / "alien.csv"
    path.write_text("who,what\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(path)


# --- summaries ---------------------------------------------------------------------


def synthetic_record(algo, n, feasible, opt=None):
    m = n * (n + 1) // 2
    return TrialRecord(
        config_hash="feedc0de00000000",
        algo=algo,
        n=n,
        m=m,
        p1=0.5,
        instance_id="synthetic",
        seed=0,
        budget=10**6,
        eval_feasible=feasible,
        eval_ratio32=None,
        eval_opt=opt,
        final_cost=None,
        opt_cost=None,
        ratio=None,
        wall_ms=1.0,
    )


def test_summarize_medians_and_slopes():
    records = []
    for n in (8, 16, 32, 64):
        m = n * (n + 1) // 2
        for _ in range(3):
            records.append(synthetic_record("ea-edge", n, feasible=m, opt=7))
    summaries, fits = summarize(records)

    n8 = {s.target: s for s in summaries if s.n == 8}
    assert n8["feasible"] == MilestoneSummary(
        "ea-edge", 8, 36, "feasible", 3, 3, 36.0, 36.0, 36.0
    )
    assert n8["ratio32"].reached == 0 and n8["ratio32"].median is None

    by_target = {f.target: f for f in fits}
    assert set(by_target) == {"feasible", "opt"}  # ratio32 never has points
    feas = by_target["feasible"]
    assert feas.slope == pytest.approx(1.0, abs=1e-9)
    assert feas.ci_high - feas.ci_low < 1e-6
    assert feas.points == 4
    assert by_target["opt"].slope == pytest.approx(0.0, abs=1e-9)

    text = format_summary(summaries, fits)
    assert "reached 3/3" in text and "reached 0/3" in text
    assert "log-log slope vs m: 1.000" in text


def test_summarize_needs_three_sizes_for_a_fit():
    records = [synthetic_record("gsemo", n, feasible=n) for n in (8, 16)]
    summaries, fits = summarize(records)
    assert fits == []
    assert {s.n for s in summaries} == {8, 16}


# --- workers and budgets -------------------------------------------------------------


def test_worker_count_sources(monkeypatch):
    # only the argument sets the worker count: the default and anything
    # below two run in this process, whatever the environment says
    def no_pool(*args, **kwargs):
        raise AssertionError("a serial grid must not start a process pool")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("HOPTREE_WORKERS", "3")
    cfg = make_config(trials=2)
    reference = run_grid(cfg)
    for workers in (1, 0, -4):
        records = run_grid(cfg, workers=workers)
        assert all(a.same_outcome(b) for a, b in zip(records, reference, strict=True))


def test_default_budget_shapes():
    assert default_budget("ea-vertex", 8, ("ratio32",)) == 100 * 8**4
    lg = math.ceil(math.log(8))
    assert default_budget("ea-edge", 8, ("feasible",)) == 100 * 36 * lg
    assert default_budget("ea-edge", 8, ()) == 100 * 36 * lg
    assert default_budget("gsemo", 8, ("feasible",)) == 100 * 36 * lg * 8
    assert default_budget("gsemo1", 8, ("opt",)) == 100 * 36**3
    assert default_budget("ea-vertex", 64, ("opt",)) == 100_000_000  # capped
