"""Names, units and meaning of every metric the benchmark reports.

`END_TO_END` and `PER_LAYER` are the lists that `BENCHMARK.json` repeats
(`selftest.py` checks that the two agree).  `PER_LAYER` also records, for
each layer metric, which end-to-end number it should move on which
workload, so a later change can cite the prediction by metric name.
"""

from __future__ import annotations

# (name, unit, better, bound, what it is on each workload)
END_TO_END = (
    (
        "ops_per_s",
        "1/s",
        "higher",
        0.1,
        "feasible-n64, opt-n12: fitness evaluations per second of trial wall time, "
        "each algorithm weighted equally (harmonic mean of the per-algorithm rates); "
        "oracle-certify: instances per second, each parsed, solved exactly when "
        "n <= 24, decoded from its start child sets, improved and certified",
    ),
    (
        "peak_rss_mb",
        "MB",
        "lower",
        0.1,
        "peak resident set of the benchmark process plus the largest child "
        "(set-up probes and pool workers)",
    ),
    (
        "setup_s",
        "s",
        "lower",
        0.25,
        "median wall time of a fresh interpreter that imports hoptree and builds "
        "the workload's inputs (the cluster plants call the exact oracle)",
    ),
)

# Printed with their sample counts but not listed in BENCHMARK.json: they
# apply to one or two workloads only, or (grid_s, trial_ms_*) vary with the
# seed by more than any bound allows, because hitting times are heavy-tailed.
REPORTED_ONLY = (
    ("grid_s", "s", "wall time of one pass of the workload"),
    ("evals_per_s_pooled", "1/s", "all evaluations / summed trial wall time"),
    ("trial_ms_p50", "ms", "per-trial wall_ms, median"),
    ("trial_ms_p75", "ms", "per-trial wall_ms, 75th percentile"),
    ("oracle_ms_p50", "ms", "one exact_oracle.optimum call, n = 20"),
    ("improve_ms_p50", "ms", "improve_until_certified per start tree, n = 256"),
    ("certify_ms_p50", "ms", "certify_three_halves, n = 256"),
    ("oracle_ms_p75", "ms", "one exact_oracle.optimum call, n = 20"),
    ("improve_ms_p75", "ms", "improve_until_certified per start tree, n = 256"),
    ("certify_ms_p75", "ms", "certify_three_halves, n = 256"),
    ("fail_frac", "frac", "failed operations / attempted operations"),
)

_EVALS = "ops_per_s on feasible-n64 and opt-n12; nothing on oracle-certify"
_ORACLE_CERTIFY = "ops_per_s on oracle-certify; nothing on the search workloads"
_SETUP = "ops_per_s and setup_s on oracle-certify; negligible on the search workloads"

# (name, unit, better, moves which end-to-end metric on which workload)
PER_LAYER = (
    ("algorithms.run.self_ms", "ms", "lower", _EVALS),
    ("algorithms.evaluations", "count", "lower", "exact count; a change that keeps the RNG stream keeps it"),
    ("algorithms.ea-edge.kevals_per_s", "kevals/s", "higher", _EVALS),
    ("algorithms.gsemo.kevals_per_s", "kevals/s", "higher", "ops_per_s on feasible-n64"),
    ("algorithms.gsemo1.kevals_per_s", "kevals/s", "higher", _EVALS),
    ("algorithms.gsemo2.kevals_per_s", "kevals/s", "higher", _EVALS),
    ("algorithms.ea-vertex.kevals_per_s", "kevals/s", "higher", "ops_per_s on feasible-n64"),
    ("edge_repr.self_ms", "ms", "lower", _EVALS),
    ("edge_repr.flip_mask.calls", "count", "lower", "exact count, one per evaluation after the first"),
    ("edge_repr.flip_mask.zero_draws", "count", "lower", "exact count of offspring with no flips"),
    ("edge_repr.flip_mask.zero_frac", "frac", "lower", "about 1/e; a skip of zero draws would move it"),
    ("edge_repr.flip_mask.ms", "ms", "lower", _EVALS),
    (
        "edge_repr.deficiency_set_size.calls",
        "count",
        "lower",
        "exact branch and bound from gsemo2; a rise predicts a drop in ops_per_s on opt-n12",
    ),
    ("edge_repr.deficiency_set_size.ms", "ms", "lower", "ops_per_s on opt-n12"),
    ("edge_repr.adjacency.calls", "count", "lower", "one per run; negligible"),
    ("fitness.self_ms", "ms", "lower", "ops_per_s of the gsemo1/gsemo2 cells"),
    ("fitness.dominates.calls", "count", "lower", "exact count from gsemo1/gsemo2"),
    ("fitness.dominates.ms", "ms", "lower", "ops_per_s of the gsemo1/gsemo2 cells"),
    ("exact_oracle.self_ms", "ms", "lower", _SETUP),
    ("exact_oracle.optimum.calls", "count", "lower", "exact count; 0 on feasible-n64"),
    ("exact_oracle.optimum.ms", "ms", "lower", _SETUP + "; a small share of opt-n12"),
    ("certifier.self_ms", "ms", "lower", _ORACLE_CERTIFY),
    ("certifier.improve_until_certified.ms", "ms", "lower", _ORACLE_CERTIFY),
    ("certifier.improve_until_certified.moves", "count", "lower", "exact count of improving moves"),
    ("certifier.certify_three_halves.ms", "ms", "lower", _ORACLE_CERTIFY),
    ("instance_gen.self_ms", "ms", "lower", _SETUP),
    ("instance_gen.random_instance.ms", "ms", "lower", _SETUP),
    ("instance_gen.planted_instance.ms", "ms", "lower", "setup_s on oracle-certify"),
    ("graph_model.self_ms", "ms", "lower", _SETUP),
    ("graph_model.from_text.ms", "ms", "lower", _ORACLE_CERTIFY),
    ("vertex_repr.self_ms", "ms", "lower", _ORACLE_CERTIFY),
    ("vertex_repr.build_tree.ms", "ms", "lower", _ORACLE_CERTIFY),
    ("harness.self_ms", "ms", "lower", "grid_s on the search workloads"),
    ("harness.run_grid.ms", "ms", "lower", "grid_s on the search workloads"),
    ("harness.overhead_ms", "ms", "lower", "grid_s minus the summed trial wall_ms, serial pass"),
    (
        "harness.pool_efficiency",
        "frac",
        "higher",
        "summed trial wall_ms / (workers x grid wall); grid_s on opt-n12, no change on feasible-n64",
    ),
    ("trace.grid_ms", "ms", "lower", "wall time of the traced set-up and pass; the self times plus untimed_ms"),
    ("trace.untimed_ms", "ms", "lower", "benchmark code and span bookkeeping inside the traced run"),
    ("trace.overhead_frac", "frac", "lower", "traced grid time / untraced grid time - 1, both serial"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + REPORTED_ONLY + PER_LAYER}

LAYERS = (
    "harness",
    "algorithms",
    "edge_repr",
    "fitness",
    "exact_oracle",
    "instance_gen",
    "graph_model",
    "vertex_repr",
    "certifier",
)
