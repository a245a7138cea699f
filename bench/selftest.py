"""Tests of the benchmark's own checker.

    python3 bench/selftest.py

1. BENCHMARK.json lists exactly the workloads and metrics the benchmark
   emits (workloads.WHY, metrics.END_TO_END, metrics.PER_LAYER).
2. A wrong value in the expected table is reported: failures, fail_frac > 0
   and a nonzero exit code.
3. A certified tree above 3/2 of the optimum is reported the same way.
4. Two runs of one seed give identical outcome rows, on the pool and serially.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run  # puts the checkout's src/ on sys.path
import metrics
import workloads as wl
from hoptree import certifier
from hoptree.certifier import CertificateResult, HopTree

failures = 0


def check(ok: bool, what: str) -> None:
    global failures
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    failures += not ok


def run_main(argv, expected=None) -> tuple[int, str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, expected=expected)
    out = buf.getvalue()
    return code, out, json.loads(out.strip().splitlines()[-1])


def benchmark_json_matches() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the six top-level keys",
    )
    check(
        [(w["name"], w["why"]) for w in spec["workloads"]] == list(wl.WHY.items()),
        "BENCHMARK.json workloads match workloads.WHY",
    )
    check(
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
        == [m[:4] for m in metrics.END_TO_END],
        "BENCHMARK.json end_to_end matches metrics.END_TO_END",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [m[:3] for m in metrics.PER_LAYER],
        "BENCHMARK.json per_layer matches metrics.PER_LAYER",
    )


def wrong_expected_value_fails() -> None:
    table = run.load_expected()
    tampered = copy.deepcopy(table)
    tampered["oracle-certify"][0]["optimum"] += 1
    argv = ["--workload", "oracle-certify", "--seed", str(table["seed"]), "--seconds", "0"]
    code, out, result = run_main(argv, expected=tampered)
    check(code != 0 and result["failed"] > 0 and not result["correct"], "a wrong expected optimum fails the run")
    check("differs from the expected table in ['optimum']" in out, "the failure names the differing field")
    code, _, result = run_main(argv, expected=table)
    check(code == 0 and result["failed"] == 0, "the committed table passes")


def star_certified_fails() -> None:
    """Substitute a certifier that 'certifies' the all-children star."""

    def star(inst, tree):
        return HopTree((0,) * (inst.n + 1)), []

    saved = certifier.improve_until_certified, certifier.certify_three_halves
    certifier.improve_until_certified = star
    certifier.certify_three_halves = lambda inst, tree: CertificateResult(True, None)
    try:
        code, out, result = run_main(["--workload", "oracle-certify", "--seed", "3", "--seconds", "0"])
    finally:
        certifier.improve_until_certified, certifier.certify_three_halves = saved
    frac = result["failed"] / result["attempted"]
    check(code != 0 and frac > 0, f"a certified cost above 3/2 of the optimum fails the run (fail_frac {frac:.2f})")
    check("certified cost 40 outside [26, 39.0]" in out, "the failure names the 3/2 bound")


def same_seed_same_rows() -> None:
    for workload in ("oracle-certify", "opt-n12"):
        first = wl.run_pass(workload, wl.prepare(workload, 2), run.workers_for(workload))
        second = wl.run_pass(workload, wl.prepare(workload, 2), 1)
        clean = not any(first.problems) and not any(second.problems)
        check(clean and first.rows == second.rows, f"{workload}: two runs of seed 2 give identical rows")


if __name__ == "__main__":
    benchmark_json_matches()
    wrong_expected_value_fails()
    star_certified_fails()
    same_seed_same_rows()
    print(f"{failures} failed")
    sys.exit(1 if failures else 0)
