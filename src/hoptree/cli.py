"""Command-line front end.

Subcommands:
  run      execute one experiment config and write/print its records
  gen      write a random or planted instance file
  oracle   print the exact optimum of an instance file
  certify  check a tree against the local-improvement certificate

Every subcommand exits 2 on bad input (a missing or malformed file, an
out-of-range setting) or when an exact search runs out of nodes, printing
one `error: ...` line.  `certify` exits 0 when the tree is certified and 1
when an improving move refutes it.
"""

from __future__ import annotations

import argparse
import sys

from .graph_model import load_instance, save_instance
from .edge_repr import DeficiencySearchBudget, solution_from_text
from .vertex_repr import VertexSolution, build_tree
from .certifier import HopTree, TreeError, certify_three_halves
from .exact_oracle import optimum
from .instance_gen import PLANT_KINDS, planted_instance, random_instance
from .harness import (
    ExperimentConfig,
    config_hash,
    default_budget,
    format_summary,
    run_grid,
    summarize,
)
from .algorithms import ALGO_IDS, TARGET_NAMES


def _cmd_run(args) -> int:
    targets = tuple(args.target or ())
    n = args.n
    if args.instance is not None:
        # the file fixes n, which sizes the default budget and enters the config
        n = load_instance(args.instance).n
        if args.n != n:
            raise ValueError(f"--n {args.n} does not match n={n} in {args.instance}")
    budget = args.budget
    if budget is None:
        budget = default_budget(args.algo, n, targets)
    cfg = ExperimentConfig(
        algo=args.algo,
        n=n,
        p1=args.p1,
        trials=args.trials,
        seed=args.seed,
        budget=budget,
        targets=targets,
        instance_file=args.instance,
        trace_every=args.trace_every,
        out=args.out,
    )
    records = run_grid(cfg, workers=args.workers)
    print(f"config {config_hash(cfg)}  budget {budget}  trials {len(records)}")
    summaries, fits = summarize(records)
    print(format_summary(summaries, fits))
    if cfg.out:
        print(f"wrote {cfg.out}")
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "random":
        inst = random_instance(args.n, args.p1, args.seed)
        save_instance(inst, args.out)
        print(f"wrote {args.out} (n={inst.n}, m={inst.m})")
        return 0
    planted = planted_instance(args.kind, args.seed, n=args.n)
    save_instance(planted.instance, args.out)
    print(f"wrote {args.out} (n={planted.instance.n}, kind={planted.kind})")
    print(f"tree {planted.tree.to_edge_solution(planted.instance).to_text()}")
    if planted.move is not None:
        print(f"move {planted.move.describe()}")
    if planted.hubs:
        print(f"hubs {' '.join(str(h) for h in planted.hubs)} optimum {planted.optimum_cost}")
    return 0


def _cmd_oracle(args) -> int:
    best, children = optimum(load_instance(args.instance))
    print(f"opt {best}")
    print("children " + " ".join(str(v) for v in sorted(children)))
    return 0


def _cmd_certify(args) -> int:
    inst = load_instance(args.instance)
    sol = solution_from_text(args.solution)
    if isinstance(sol, VertexSolution):
        if sol.bits == 0:
            raise TreeError("empty vertex solution decodes to no tree")
        tree = HopTree(build_tree(inst, sol))
    else:
        tree = HopTree.from_edge_solution(inst, sol)
    result = certify_three_halves(inst, tree)
    print(f"{result.describe()} cost {tree.cost(inst)}")
    return 0 if result.certified else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hoptree", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--algo", required=True, choices=ALGO_IDS)
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--p1", type=float, default=0.5)
    p_run.add_argument("--trials", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--budget", type=int, default=None, help="default: bound-shaped")
    p_run.add_argument("--target", action="append", choices=TARGET_NAMES, help="repeatable")
    p_run.add_argument("--instance", default=None, help="fixed instance file instead of (n, p1)")
    p_run.add_argument("--out", default=None, help="CSV output path")
    p_run.add_argument("--workers", type=int, default=1, help="processes; <= 1 runs serially")
    p_run.add_argument("--trace-every", type=int, default=0)
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="write an instance file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p1", type=float, default=0.5, help="random kind only")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--kind", default="random", choices=("random",) + PLANT_KINDS)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_oracle = sub.add_parser("oracle", help="exact optimum of an instance file")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_cert = sub.add_parser("certify", help="certificate check for a tree")
    p_cert.add_argument("--instance", required=True)
    p_cert.add_argument(
        "--solution", required=True, help='tree as "e:<m>:<hex>" or "v:<n>:<hex>"'
    )
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, DeficiencySearchBudget) as exc:  # InstanceFormatError and TreeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
