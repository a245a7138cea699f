"""Ground-truth oracles versus straightforward test-local enumerations."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from helpers import all_ones, all_twos
from hoptree.edge_repr import EdgeSolution, deficiency_set_size, metrics
from hoptree.exact_oracle import (
    BRUTE_VD_MAX_N,
    OPTIMUM_MAX_N,
    brute_metrics,
    brute_vd,
    optimum,
)
from hoptree.graph_model import Instance
from hoptree.instance_gen import random_instance


def _sol(inst, pairs):
    bits = sum(1 << inst.edge_index(u, v) for u, v in pairs)
    return EdgeSolution(bits, inst.m)


def test_optimum_reference_values(i3):
    assert optimum(all_ones(5)) == (5, frozenset({1}))
    assert optimum(all_twos(4))[0] == 8
    assert optimum(i3) == (4, frozenset({1}))
    # at n = 20 the child sets span several enumeration chunks; only {20}
    # is optimal in the second instance, and its mask lies beyond the first
    assert optimum(all_ones(20)) == (20, frozenset({1}))
    last = Instance(20, [1 if 20 in pair else 2 for pair in all_twos(20).pairs])
    assert optimum(last) == (20, frozenset({20}))


def test_optimum_matches_exhaustive_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        inst = random_instance(n, float(rng.uniform(0, 1)), int(rng.integers(1 << 30)))
        cost, children = optimum(inst)
        ref_cost, ref_children = helpers.brute_optimum(inst)
        assert cost == ref_cost
        assert children == ref_children


def _weight_one(n: int, pairs) -> Instance:
    """All-twos instance on n vertices with weight 1 on `pairs`."""
    return Instance(n, [1 if pair in pairs else 2 for pair in all_twos(n).pairs])


# {1} costs 2 + 1 + 1 = 4 like {1, 3} and {3}, so the lex-least optimum
# leaves out vertex 3 although its root edge has weight 1
_SKIPS_ROOT_ONE = _weight_one(3, {(0, 3), (1, 2), (1, 3)})


def test_optimum_may_leave_out_a_root_weight_one_vertex():
    assert optimum(_SKIPS_ROOT_ONE) == (4, frozenset({1}))
    assert helpers.sweep_optimum(_SKIPS_ROOT_ONE) == (4, frozenset({1}))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.floats(0, 1), st.integers(0, 1 << 30))
@example(4, 0.0, 0)
@example(16, 1.0, 0)
@example(16, 0.9, 3)
def test_optimum_matches_the_sweep(n, p1, seed):
    inst = random_instance(n, p1, seed)
    assert optimum(inst) == helpers.sweep_optimum(inst)


def test_optimum_matches_the_sweep_on_skipped_root_one_vertices():
    # dense instances: many root-weight-1 vertices tie, and the lex-least
    # optimum keeps only a prefix of them
    rng = np.random.default_rng(23)
    skipped = 0
    for _ in range(30):
        inst = random_instance(int(rng.integers(4, 13)), float(rng.uniform(0.6, 1)), int(rng.integers(1 << 30)))
        cost, children = optimum(inst)
        assert (cost, children) == helpers.sweep_optimum(inst)
        r1 = {v for v in range(1, inst.n + 1) if inst.root_weights[v] == 1}
        skipped += not r1 <= children
    assert skipped >= 10


# (n, p1) -> (cost, lex-least child set) of random_instance(n, p1, seed=n),
# as helpers.sweep_optimum prices them (n = 24 takes it about 6 s)
_PINNED = {
    (20, 0.05): (34, {1, 2, 4, 5, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18}),
    (20, 0.15): (25, {1, 2, 3, 4, 6, 7, 10, 13, 14, 15}),
    (22, 0.05): (35, {2, 3, 4, 6, 7, 8, 10, 11, 13, 14, 16, 19, 21}),
    (22, 0.15): (25, {1, 3, 6, 9, 12, 16, 18}),
    (24, 0.05): (37, {1, 2, 4, 5, 8, 9, 10, 13, 14, 15, 16, 17, 18, 19, 23}),
    (24, 0.15): (28, {6, 8, 14, 15, 16, 17, 19}),
}


@pytest.mark.parametrize("n, p1", sorted(_PINNED))
def test_optimum_pinned_sweep_values(n, p1):
    cost, children = _PINNED[n, p1]
    assert optimum(random_instance(n, p1, n)) == (cost, frozenset(children))


def test_optimum_matches_the_sweep_at_n20():
    for p1 in (0.05, 0.15):
        inst = random_instance(20, p1, 20)
        assert optimum(inst) == helpers.sweep_optimum(inst)


def test_optimum_refuses_large_instances():
    inst = all_ones(6)
    with pytest.raises(ValueError):
        optimum(inst, max_n=5)
    assert OPTIMUM_MAX_N == 64


def test_brute_metrics_reference_cases(i3):
    for x in (
        EdgeSolution(0, i3.m),
        _sol(i3, [(0, 1), (1, 2), (2, 3)]),
        _sol(i3, [(0, 1), (0, 2), (0, 3)]),
    ):
        assert brute_metrics(i3, x) == metrics(i3, x)


def test_brute_metrics_matches_metrics_on_randoms():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = n * (n + 1) // 2
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=m)])
        x = EdgeSolution(helpers.random_solution_bits(rng, m), m)
        assert brute_metrics(inst, x) == metrics(inst, x)


def two_deep_branches() -> tuple[Instance, EdgeSolution]:
    """Two root paths of length three; their far ends need separate fixes."""
    inst = all_twos(6)
    x = _sol(inst, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    return inst, x


def test_brute_vd_reference_values(i3):
    assert brute_vd(i3, _sol(i3, [(0, 1), (0, 2), (0, 3)])) == 0
    assert brute_vd(i3, _sol(i3, [(0, 1), (1, 2), (2, 3)])) == 1
    inst, x = two_deep_branches()
    assert brute_vd(inst, x) == 2
    assert deficiency_set_size(inst, x) == 2


def test_brute_vd_matches_exact_search():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        m = n * (n + 1) // 2
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=m)])
        x = EdgeSolution(helpers.random_solution_bits(rng, m), m)
        assert brute_vd(inst, x) == deficiency_set_size(inst, x)


def test_brute_vd_refuses_large_instances():
    inst = all_twos(6)
    with pytest.raises(ValueError):
        brute_vd(inst, EdgeSolution(0, inst.m), max_n=5)
    assert BRUTE_VD_MAX_N == 14
