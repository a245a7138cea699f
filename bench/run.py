"""hoptree benchmark: three seeded workloads, checked outputs, traced layers.

Usage, from the root of the repository:

    python3 bench/run.py --workload feasible-n64 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                       # all three workloads, seed 1
    python3 bench/selftest.py                  # the checker's own tests

Workloads (see workloads.WHY): feasible-n64, opt-n12, oracle-certify.

--trace 0 measures the end-to-end metrics (metrics.END_TO_END): set-up is
timed in fresh interpreters, then the workload pass repeats until
--seconds have passed and medians over the passes are reported.
--trace 1 runs untraced passes for reference, then set-up plus one pass
with spans around the calls into each hoptree module (tracing.py), and
reports the per-layer metrics (metrics.PER_LAYER); spans go to
bench/out/trace-<workload>-seed<seed>.jsonl.

Every output row is checked against invariants, and on the default seed
against expected.json.  The last line of output is one JSON object with
the keys correct, attempted, failed and metrics; the exit code is 0 only
when nothing failed.

Regenerating expected.json: only a change that alters the random draw
order of a run (and says so in CHANGES.md) may do it, in the same change:

    python3 bench/run.py --seed 1 --seconds 1 --write-expected
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "hoptree").is_dir():
    sys.exit(f"bench: no hoptree sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hoptree  # noqa: E402
from hoptree import algorithms, harness, instance_gen  # noqa: E402

import metrics  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers_for(workload: str) -> int:
    # opt-n12 exercises the process pool; capped to keep memory small
    return min(4, nproc()) if workload == "opt-n12" else 1


def git_commit() -> str:
    """HEAD of the checkout's own .git, or 'unknown' (read inside the checkout only)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hoptree": hoptree.__version__,
        "nproc": nproc(),
        "cpu": platform.processor() or platform.machine(),
        "workload": workload,
        "seed": seed,
        "workers": workers_for(workload),
        "trials_per_cell": wl.TRIALS if workload != "oracle-certify" else None,
    }


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    return float(np.percentile(xs, q)) if xs else 0.0


def repeat(fn, seconds: float) -> list:
    """Call fn until `seconds` have passed; at least once."""
    out = []
    t0 = time.perf_counter()
    while not out or time.perf_counter() - t0 < seconds:
        out.append(fn())
    return out


def evals_per_s(res: wl.PassResult) -> float:
    """Harmonic mean of the per-algorithm rates: evaluations per second of a
    mix with equal evaluations per algorithm, so the seed cannot shift the mix."""
    rates = [e / s for e, s in res.busy.values() if s > 0]
    return len(rates) / sum(1 / r for r in rates) if rates else 0.0


def ops_per_s(workload: str, res: wl.PassResult) -> float:
    if workload == "oracle-certify":
        return len(res.item_s) / sum(res.item_s) if res.item_s else 0.0
    return evals_per_s(res)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import hoptree and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--prepare-only", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=150, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def load_expected() -> dict | None:
    try:
        return json.loads(EXPECTED_PATH.read_text())
    except FileNotFoundError:
        return None


def check_passes(workload: str, seed: int, passes: list[wl.PassResult], expected: dict | None) -> None:
    """Every pass must repeat the first; on the table's seed, match the table."""
    for res in passes[1:]:
        wl.compare_rows(res, passes[0].rows, "the first pass")
    if expected is not None and expected.get("seed") == seed:
        for res in passes:
            wl.compare_rows(res, expected.get(workload, []), "the expected table")


def show(name: str, value: float, samples: str) -> None:
    text = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
    print(f"  {name:<40} {text} {metrics.UNITS[name]:<9} ({samples})")


def report_failures(passes: list[wl.PassResult]) -> None:
    shown = 0
    for res in passes:
        for row, problems in zip(res.rows, res.problems):
            if problems and shown < 20:
                print(f"  FAIL {json.dumps(row)}: {'; '.join(problems)}")
                shown += 1


def result_line(passes: list[wl.PassResult], values: dict, names: list[str]) -> dict:
    attempted = sum(len(r.rows) for r in passes)
    failed = sum(r.failed for r in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": metrics.UNITS[k]} for k in names},
    }


# --- --trace 0 ------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, expected: dict | None) -> dict:
    setup = setup_seconds(workload, seed)
    inputs = wl.prepare(workload, seed)
    workers = workers_for(workload)
    passes = repeat(lambda: wl.run_pass(workload, inputs, workers), seconds)
    check_passes(workload, seed, passes, expected)

    values = {
        "ops_per_s": median([ops_per_s(workload, r) for r in passes]),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(setup),
    }
    count = len(passes)
    print(f"workload {workload}  seed {seed}  workers {workers}  passes {count}")
    show("ops_per_s", values["ops_per_s"], f"median of {count} passes")
    show("peak_rss_mb", values["peak_rss_mb"], "whole run")
    show("setup_s", values["setup_s"], f"median of {SETUP_SAMPLES} set-ups")
    show("grid_s", median([r.wall_s for r in passes]), f"median of {count} passes")
    if workload == "oracle-certify":
        samples = {k: [x for r in passes for x in r.latency_ms.get(f"{k}_ms", [])] for k in ("oracle", "improve", "certify")}
    else:
        pooled = [sum(e for e, _ in r.busy.values()) / sum(s for _, s in r.busy.values()) for r in passes]
        show("evals_per_s_pooled", median(pooled), f"median of {count} passes")
        samples = {"trial": [x for r in passes for x in r.trial_ms]}
    for key, xs in samples.items():
        show(f"{key}_ms_p50", percentile(xs, 50), f"n={len(xs)}")
        if len(xs) >= 40:  # ten or more samples beyond the 75th percentile
            show(f"{key}_ms_p75", percentile(xs, 75), f"n={len(xs)}")
    result = result_line(passes, values, [m[0] for m in metrics.END_TO_END])
    show("fail_frac", result["failed"] / result["attempted"], f"of {result['attempted']} operations")
    report_failures(passes)
    return result


# --- --trace 1 ------------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Rebind the cross-module names the workloads reach inside hoptree."""
    for attr in ("flip_mask", "adjacency", "deficiency_set_size"):
        tracer.patch(algorithms, attr, f"edge_repr.{attr}", leaf=True)
    for attr in ("dominates_gsemo1", "dominates_gsemo2"):
        tracer.patch(algorithms, attr, "fitness.dominates", leaf=True)
    tracer.patch(harness, "run", "algorithms.run")
    tracer.patch(harness, "optimum", "exact_oracle.optimum")
    tracer.patch(harness, "random_instance", "instance_gen.random_instance")
    tracer.patch(instance_gen, "optimum", "exact_oracle.optimum")


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    if prefix != "bench" and prefix not in metrics.LAYERS:
        raise ValueError(f"span {span_name!r} belongs to no layer")
    return prefix


def traced(workload: str, seed: int, seconds: float, expected: dict | None) -> dict:
    inputs = wl.prepare(workload, seed)
    workers = workers_for(workload)
    own = [wl.run_pass(workload, inputs, workers)] if workers > 1 else []
    serial = repeat(lambda: wl.run_pass(workload, inputs, 1), seconds / 2)

    tracer = Tracer()
    install(tracer)
    try:
        with tracer.root("bench.traced") as root:
            traced_inputs = tracer.call("bench.setup", wl.prepare, workload, seed, tracer)
            res = tracer.call("bench.pass", wl.run_pass, workload, traced_inputs, 1, tracer)
    finally:
        tracer.restore()
    passes = own + serial + [res]
    check_passes(workload, seed, passes, expected)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")

    v = layer_values(tracer.totals(), (root.end - root.start) / 1e6)
    v["trace.overhead_frac"] = res.wall_s / median([r.wall_s for r in serial]) - 1.0
    evals = sum(e for e, _ in res.busy.values())
    v["algorithms.evaluations"] = evals
    runs = len(res.trial_ms)
    if workload != "oracle-certify" and v["edge_repr.flip_mask.calls"] != evals - runs:
        res.problems[0].append(f"{v['edge_repr.flip_mask.calls']} flip_mask calls for {evals} evaluations in {runs} runs")
    for algo in algorithms.ALGO_IDS:
        rates = [r.busy[algo][0] / r.busy[algo][1] / 1000.0 for r in serial if algo in r.busy]
        v[f"algorithms.{algo}.kevals_per_s"] = median(rates)
    v["certifier.improve_until_certified.moves"] = sum(sum(r.get("moves", [])) for r in res.rows)
    v["harness.overhead_ms"] = median([(r.grid_call_s - sum(r.trial_ms) / 1000.0) * 1000.0 for r in serial])
    pool = own[0] if own else serial[0]
    v["harness.pool_efficiency"] = (
        sum(pool.trial_ms) / 1000.0 / (workers * pool.grid_call_s) if pool.grid_call_s else 0.0
    )

    print(
        f"workload {workload}  seed {seed}  traced on 1 worker; untraced passes: "
        f"{len(own)} on {workers} workers, {len(serial)} on 1"
    )
    for name, _, _, moves in metrics.PER_LAYER:
        show(name, v[name], moves)
    result = result_line(passes, v, [m[0] for m in metrics.PER_LAYER])
    report_failures(passes)
    return result


def layer_values(tot: dict, grid_ms: float) -> dict[str, float]:
    """Per-layer metrics from the span totals of one traced set-up and pass."""

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    v: dict[str, float] = {}
    self_by_layer = {layer: 0.0 for layer in ("bench",) + metrics.LAYERS}
    for name, t in tot.items():
        self_by_layer[layer_of(name)] += t["self_ms"]
    accounted = sum(self_by_layer.values())
    if abs(accounted - grid_ms) > 1e-6 * grid_ms + 0.01:
        raise RuntimeError(f"self times add up to {accounted} ms, the traced run took {grid_ms} ms")
    for layer in metrics.LAYERS:
        v["algorithms.run.self_ms" if layer == "algorithms" else f"{layer}.self_ms"] = self_by_layer[layer]
    v["trace.grid_ms"] = grid_ms
    v["trace.untimed_ms"] = self_by_layer["bench"]

    calls = get("edge_repr.flip_mask", "calls")
    v["edge_repr.flip_mask.calls"] = calls
    v["edge_repr.flip_mask.zero_draws"] = get("edge_repr.flip_mask", "zero")
    v["edge_repr.flip_mask.zero_frac"] = get("edge_repr.flip_mask", "zero") / calls if calls else 0.0
    v["edge_repr.flip_mask.ms"] = get("edge_repr.flip_mask", "ms")
    v["edge_repr.adjacency.calls"] = get("edge_repr.adjacency", "calls")
    for name in ("edge_repr.deficiency_set_size", "fitness.dominates", "exact_oracle.optimum"):
        v[f"{name}.calls"] = get(name, "calls")
        v[f"{name}.ms"] = get(name, "ms")
    for name in (
        "certifier.improve_until_certified",
        "certifier.certify_three_halves",
        "instance_gen.random_instance",
        "instance_gen.planted_instance",
        "graph_model.from_text",
        "vertex_repr.build_tree",
        "harness.run_grid",
    ):
        v[f"{name}.ms"] = get(name, "ms")
    return v


# --- entry point ------------------------------------------------------------------


def write_expected(rows_by_workload: dict, seed: int) -> None:
    lines = ["{", f' "seed": {seed},']
    for i, (workload, rows) in enumerate(rows_by_workload.items()):
        body = ",\n".join("  " + json.dumps(r) for r in rows)
        end = "" if i == len(rows_by_workload) - 1 else ","
        lines.append(f' "{workload}": [\n{body}\n ]{end}')
    lines.append("}")
    EXPECTED_PATH.write_text("\n".join(lines) + "\n")


def main(argv=None, expected: dict | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true", help="rewrite expected.json from this run")
    ap.add_argument("--prepare-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    names = wl.NAMES if args.workload == "all" else (args.workload,)
    if args.prepare_only:
        for name in names:
            wl.prepare(name, args.seed)
        return 0
    if args.write_expected and args.seed != wl.DEFAULT_SEED:
        ap.error(f"the expected table is kept for seed {wl.DEFAULT_SEED} only")
    if expected is None:
        expected = load_expected()

    status = 0
    fresh_rows = {name: (expected or {}).get(name, []) for name in wl.NAMES}
    for name in names:
        if args.write_expected:
            res = wl.run_pass(name, wl.prepare(name, args.seed), workers_for(name))
            if res.failed:
                report_failures([res])
                return 1
            fresh_rows[name] = res.rows
            continue
        run = traced if args.trace else measure
        result = run(name, args.seed, args.seconds, expected)
        print("provenance " + json.dumps(provenance(name, args.seed)))
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    if args.write_expected:
        write_expected(fresh_rows, args.seed)
        print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
