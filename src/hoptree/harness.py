"""Batch experiment driver: seeded grids, CSV records, and summaries.

A config describes one grid cell family: an algorithm, an instance source
(either generator settings (n, p1) or a fixed instance file), and a number of
trials.  Each trial gets its own instance seed and run seed, both mixed
deterministically from the config hash, so a config replays to identical
milestone counts on any machine.  Wall time is the only nondeterministic
column in the emitted CSV.

Worker processes: `run_grid(cfg, workers=k)` parallelises over trials;
records always come back in trial order.

`summarize` fits the scaling slopes with `scipy.stats`, imported there
alone, so that loading the harness (every CLI command, every benchmark
set-up and every pool worker) does not pay for scipy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph_model import Instance, load_instance
from .algorithms import ALGO_IDS, MAX_BUDGET, TARGET_NAMES, run
from .exact_oracle import OPTIMUM_MAX_N, optimum
from .instance_gen import random_instance

_ORACLE_TARGETS = ("ratio32", "opt")

CSV_COLUMNS = (
    "config_hash",
    "algo",
    "n",
    "m",
    "p1",
    "instance_id",
    "seed",
    "budget",
    "eval_feasible",
    "eval_ratio32",
    "eval_opt",
    "final_cost",
    "opt_cost",
    "ratio",
    "wall_ms",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: algorithm x instance family x trial seeds.

    `instance_file` overrides the (n, p1) generator: every trial then runs
    on that one instance, whose n must equal `n` (`run_grid` rejects a
    mismatch, since n enters the config hash and so every run seed).
    Targets that need the exact optimum are rejected for n beyond the
    oracle bound.
    """

    algo: str
    n: int
    p1: float
    trials: int
    seed: int
    budget: int
    targets: tuple[str, ...] = ()
    instance_file: str | None = None
    trace_every: int = 0
    out: str | None = None

    def __post_init__(self):
        if self.algo not in ALGO_IDS:
            raise ValueError(f"unknown algorithm {self.algo!r}; choose from {ALGO_IDS}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {self.p1}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 1 <= self.budget <= MAX_BUDGET:
            raise ValueError(f"budget must lie in [1, {MAX_BUDGET}], got {self.budget}")
        unknown = [t for t in self.targets if t not in TARGET_NAMES]
        if unknown:
            raise ValueError(f"unknown targets {unknown}; choose from {TARGET_NAMES}")
        if self.needs_oracle and self.n > OPTIMUM_MAX_N:
            raise ValueError(
                f"targets {self.targets} need the exact optimum, "
                f"which is only available for n <= {OPTIMUM_MAX_N}"
            )

    @property
    def needs_oracle(self) -> bool:
        return any(t in _ORACLE_TARGETS for t in self.targets)

    @property
    def representation(self) -> str:
        return "vertex" if self.algo == "ea-vertex" else "edge"


def config_hash(cfg: ExperimentConfig) -> str:
    """16-hex-digit identity of the experiment (output path excluded)."""
    payload = json.dumps(
        {
            "algo": cfg.algo,
            "n": cfg.n,
            "p1": cfg.p1,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "budget": cfg.budget,
            "targets": list(cfg.targets),
            "instance_file": cfg.instance_file,
            "trace_every": cfg.trace_every,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _mix_seed(hash_hex: str, tag: str, index: int) -> int:
    digest = hashlib.sha256(f"{hash_hex}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def trial_seeds(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    """Per-trial (instance seed, run seed) pairs, mixed from the config hash."""
    h = config_hash(cfg)
    return [(_mix_seed(h, "inst", i), _mix_seed(h, "run", i)) for i in range(cfg.trials)]


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row: the outcome of a single (instance, seed) cell."""

    config_hash: str
    algo: str
    n: int
    m: int
    p1: float
    instance_id: str
    seed: int
    budget: int
    eval_feasible: int | None
    eval_ratio32: int | None
    eval_opt: int | None
    final_cost: int | None
    opt_cost: int | None
    ratio: float | None
    wall_ms: float | None
    trace: tuple = ()

    def same_outcome(self, other: "TrialRecord") -> bool:
        """Equality modulo wall time and trace (the replay criterion)."""
        fields = CSV_COLUMNS[:-1]
        return all(getattr(self, f) == getattr(other, f) for f in fields)


def _run_cell(args) -> TrialRecord:
    """One trial; `args` is (config, its hash, fixed instance text or None,
    instance id, instance seed, run seed)."""
    cfg, cfg_hash, inst_text, instance_id, inst_seed, run_seed = args
    if inst_text is not None:
        inst = Instance.from_text(inst_text)
    else:
        inst = random_instance(cfg.n, cfg.p1, inst_seed)
        instance_id = f"r{inst_seed:016x}"
    opt_cost = optimum(inst)[0] if cfg.needs_oracle else None
    t0 = time.perf_counter()
    rec = run(
        cfg.algo,
        inst,
        run_seed,
        cfg.budget,
        targets=cfg.targets,
        opt_cost=opt_cost,
        trace_every=cfg.trace_every,
    )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    ratio = None
    if rec.final_cost is not None and opt_cost is not None:
        ratio = rec.final_cost / opt_cost
    return TrialRecord(
        config_hash=cfg_hash,
        algo=cfg.algo,
        n=inst.n,
        m=inst.m,
        p1=cfg.p1,
        instance_id=instance_id,
        seed=run_seed,
        budget=cfg.budget,
        eval_feasible=rec.eval_feasible,
        eval_ratio32=rec.eval_ratio32,
        eval_opt=rec.eval_opt,
        final_cost=rec.final_cost,
        opt_cost=opt_cost,
        ratio=ratio,
        wall_ms=wall_ms,
        trace=rec.trace,
    )


def run_grid(cfg: ExperimentConfig, workers: int = 1) -> list[TrialRecord]:
    """Run every trial of the config; write CSV when cfg.out is set.

    Deterministic apart from wall_ms.  The exact optimum is computed per
    instance only when a target needs it.  More than one worker runs the
    trials on a process pool; one or fewer runs them in this process.
    """
    h = config_hash(cfg)
    inst_text = None
    instance_id = None
    if cfg.instance_file is not None:
        inst = load_instance(cfg.instance_file)
        inst_text = inst.to_text()
        instance_id = Path(cfg.instance_file).stem
        if inst.n != cfg.n:
            raise ValueError(f"config n={cfg.n} does not match n={inst.n} in {cfg.instance_file}")
    cells = [(cfg, h, inst_text, instance_id, s, r) for s, r in trial_seeds(cfg)]
    if workers <= 1 or len(cells) == 1:
        records = [_run_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_cell, cells))
    if cfg.out is not None:
        write_csv(records, cfg.out)
    return records


# --- CSV ----------------------------------------------------------------------


def _cell_str(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def write_csv(records: list[TrialRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_cell_str(getattr(r, col)) for col in CSV_COLUMNS])


def _opt_int(text: str) -> int | None:
    return None if text == "" else int(text)


def _opt_float(text: str) -> float | None:
    return None if text == "" else float(text)


def read_csv(path) -> list[TrialRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        out = []
        for row in reader:
            d = dict(zip(CSV_COLUMNS, row))
            out.append(
                TrialRecord(
                    config_hash=d["config_hash"],
                    algo=d["algo"],
                    n=int(d["n"]),
                    m=int(d["m"]),
                    p1=float(d["p1"]),
                    instance_id=d["instance_id"],
                    seed=int(d["seed"]),
                    budget=int(d["budget"]),
                    eval_feasible=_opt_int(d["eval_feasible"]),
                    eval_ratio32=_opt_int(d["eval_ratio32"]),
                    eval_opt=_opt_int(d["eval_opt"]),
                    final_cost=_opt_int(d["final_cost"]),
                    opt_cost=_opt_int(d["opt_cost"]),
                    ratio=_opt_float(d["ratio"]),
                    wall_ms=_opt_float(d["wall_ms"]),
                )
            )
        return out


# --- summaries ------------------------------------------------------------------


_MILESTONE_FIELDS = {
    "feasible": "eval_feasible",
    "ratio32": "eval_ratio32",
    "opt": "eval_opt",
}


@dataclass(frozen=True)
class MilestoneSummary:
    algo: str
    n: int
    m: int
    target: str
    reached: int
    total: int
    median: float | None
    q1: float | None
    q3: float | None


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(median milestone) against log(m), with a
    95% t-interval.  Needs at least three distinct sizes."""

    algo: str
    target: str
    slope: float
    ci_low: float
    ci_high: float
    points: int


def summarize(records: list[TrialRecord]) -> tuple[list[MilestoneSummary], list[SlopeFit]]:
    from scipy import stats  # imported here, its one user: it multiplies the package's import time and RSS

    groups: dict[tuple[str, int], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.algo, r.n), []).append(r)

    summaries: list[MilestoneSummary] = []
    for (algo, n), recs in sorted(groups.items()):
        m = recs[0].m
        for target, fieldname in _MILESTONE_FIELDS.items():
            values = [getattr(r, fieldname) for r in recs]
            hit = [v for v in values if v is not None]
            if hit:
                median = float(np.median(hit))
                q1 = float(np.percentile(hit, 25))
                q3 = float(np.percentile(hit, 75))
            else:
                median = q1 = q3 = None
            summaries.append(
                MilestoneSummary(algo, n, m, target, len(hit), len(values), median, q1, q3)
            )

    fits: list[SlopeFit] = []
    for algo in sorted({s.algo for s in summaries}):
        for target in _MILESTONE_FIELDS:
            points = [
                (s.m, s.median)
                for s in summaries
                if s.algo == algo and s.target == target and s.median is not None
            ]
            if len(points) < 3:
                continue
            xs = np.log([p[0] for p in points])
            ys = np.log([p[1] for p in points])
            fit = stats.linregress(xs, ys)
            half = float(stats.t.ppf(0.975, len(points) - 2)) * fit.stderr
            fits.append(
                SlopeFit(
                    algo=algo,
                    target=target,
                    slope=float(fit.slope),
                    ci_low=float(fit.slope - half),
                    ci_high=float(fit.slope + half),
                    points=len(points),
                )
            )
    return summaries, fits


def format_summary(summaries: list[MilestoneSummary], fits: list[SlopeFit]) -> str:
    lines = []
    for s in summaries:
        med = "-" if s.median is None else f"{s.median:.0f}"
        iqr = "-" if s.q1 is None else f"[{s.q1:.0f}, {s.q3:.0f}]"
        lines.append(
            f"{s.algo:<10} n={s.n:<4} {s.target:<9} reached {s.reached}/{s.total}"
            f"  median {med}  IQR {iqr}"
        )
    for f in fits:
        lines.append(
            f"{f.algo:<10} {f.target:<9} log-log slope vs m: {f.slope:.3f}"
            f"  95% CI [{f.ci_low:.3f}, {f.ci_high:.3f}]  ({f.points} sizes)"
        )
    return "\n".join(lines)


def default_budget(algo: str, n: int, targets: tuple[str, ...]) -> int:
    """Generous budget shaped after the known expected-time bounds.

    Feasibility-only runs get 100 * m * ceil(ln n) (times n for gsemo, whose
    population dilutes per-slot progress); the vertex EA gets 100 * n^4 for
    ratio/optimum targets; ratio/optimum targets for edge algorithms use
    100 * m^3 as a pragmatic stand-in for the far looser formal bounds.
    Everything is capped at MAX_BUDGET.
    """
    m = n * (n + 1) // 2
    lg = max(1, math.ceil(math.log(n)))
    if algo == "ea-vertex":
        budget = 100 * n**4
    elif not targets or set(targets) == {"feasible"}:
        budget = 100 * m * lg * (n if algo == "gsemo" else 1)
    else:
        budget = 100 * m**3
    return min(budget, MAX_BUDGET)
