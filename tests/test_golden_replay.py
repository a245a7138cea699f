"""Seeded replay against a committed table of run outcomes.

Each row of ``data/golden_replay.json`` fixes one (algorithm, instance,
run seed, budget, targets) cell and the outcome it produced: the three
milestone evaluation counts, the final cost and the number of evaluations
spent.  Within-build replay (acceptance criterion 10) cannot catch a change
that alters every run the same way; this table can, across changes.

Only a change to the random draw order may regenerate the table:

    PYTHONPATH=src python tests/test_golden_replay.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from hoptree.algorithms import ALGO_IDS, run
from hoptree.exact_oracle import optimum
from hoptree.instance_gen import random_instance

TABLE = Path(__file__).parent / "data" / "golden_replay.json"
OUTCOME = ("eval_feasible", "eval_ratio32", "eval_opt", "final_cost", "evaluations")
ALL_TARGETS = ("feasible", "ratio32", "opt")


def cases() -> list[dict]:
    """Small instances run to the optimum, fixed-budget runs at n = 32, and
    n = 64 runs of gsemo2 to feasibility and of ea-vertex on a fixed budget."""
    out = []
    for algo in ALGO_IDS:
        for n in (4, 6, 8, 10):
            for inst_seed, p1 in ((1, 0.3), (2, 0.5), (3, 0.7)):
                out.append(dict(algo=algo, n=n, p1=p1, inst_seed=inst_seed,
                                run_seed=100 + inst_seed, budget=2_000_000,
                                targets=list(ALL_TARGETS)))
        for inst_seed, p1 in ((4, 0.25), (5, 0.5)):
            out.append(dict(algo=algo, n=32, p1=p1, inst_seed=inst_seed,
                            run_seed=200 + inst_seed, budget=20_000, targets=[]))
    for inst_seed in (6, 7):
        out.append(dict(algo="gsemo2", n=64, p1=0.5, inst_seed=inst_seed,
                        run_seed=300 + inst_seed, budget=2_000_000, targets=["feasible"]))
        out.append(dict(algo="ea-vertex", n=64, p1=0.5, inst_seed=inst_seed,
                        run_seed=300 + inst_seed, budget=20_000, targets=[]))
    return out


def replay(case: dict) -> dict:
    inst = random_instance(case["n"], case["p1"], case["inst_seed"])
    needs_opt = any(t in ("ratio32", "opt") for t in case["targets"])
    opt_cost = optimum(inst)[0] if needs_opt else None
    rec = run(case["algo"], inst, case["run_seed"], case["budget"],
              targets=tuple(case["targets"]), opt_cost=opt_cost)
    return {key: getattr(rec, key) for key in OUTCOME}


def _case_id(case: dict) -> str:
    return f"{case['algo']}-n{case['n']}-s{case['inst_seed']}"


ROWS = json.loads(TABLE.read_text())


def test_table_covers_every_case():
    assert [{k: row[k] for k in row if k not in OUTCOME} for row in ROWS] == cases()


@pytest.mark.parametrize("row", ROWS, ids=[_case_id(r) for r in ROWS])
def test_replay_matches_golden_row(row):
    case = {k: v for k, v in row.items() if k not in OUTCOME}
    assert replay(case) == {k: row[k] for k in OUTCOME}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_replay.py --write")
    rows = [{**case, **replay(case)} for case in cases()]
    TABLE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {TABLE}")
