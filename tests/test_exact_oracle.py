"""Ground-truth oracles versus straightforward test-local enumerations."""

import numpy as np
import pytest

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


def test_optimum_refuses_large_instances():
    inst = all_ones(6)
    with pytest.raises(ValueError):
        optimum(inst, max_n=5)
    assert OPTIMUM_MAX_N == 24


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
