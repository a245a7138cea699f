"""Child-set solutions and their canonical tree decoding."""

import copy

import numpy as np
import pytest

from helpers import all_ones
from hoptree.algorithms import init_state
from hoptree.edge_repr import cost as edge_cost, flip_mask, is_feasible
from hoptree.exact_oracle import optimum
from hoptree.graph_model import Instance
from hoptree.vertex_repr import (
    VertexSolution,
    build_tree,
    child_set_cost,
    cost,
    to_edge_solution,
)


def test_solution_basics():
    x = VertexSolution(0b101, 3)
    assert x.hamming == 2
    assert x.chosen() == (1, 3)
    with pytest.raises(ValueError):
        VertexSolution(1 << 3, 3)


def test_text_round_trip():
    x = VertexSolution(0b011, 5)
    assert VertexSolution.from_text(x.to_text()) == x
    with pytest.raises(ValueError):
        VertexSolution.from_text("e:5:03")


def test_build_tree_reference_cases(i3):
    # every vertex a child of the root
    assert build_tree(i3, VertexSolution(0b111, 3)) == (0, 0, 0, 0)
    assert cost(i3, VertexSolution(0b111, 3)) == 5

    # only vertex 1 chosen: 2 hangs off its weight-1 edge, 3 is forced at weight 2
    assert build_tree(i3, VertexSolution(0b001, 3)) == (0, 0, 1, 1)
    assert cost(i3, VertexSolution(0b001, 3)) == 4

    # only vertex 2 chosen: both others have weight-1 edges to it
    assert build_tree(i3, VertexSolution(0b010, 3)) == (0, 2, 0, 2)
    assert cost(i3, VertexSolution(0b010, 3)) == 4


def test_unmatched_vertices_fall_back_to_lowest_child():
    # no weight-1 edges anywhere: non-children attach to the lowest chosen child
    inst = Instance(4, [2] * 10)
    assert build_tree(inst, VertexSolution(0b1010, 4)) == (0, 2, 0, 2, 0)


def test_empty_child_set(i3):
    assert cost(i3, VertexSolution(0, 3)) == 7  # 2n + 1
    with pytest.raises(ValueError):
        build_tree(i3, VertexSolution(0, 3))


def test_width_mismatch_rejected(i3):
    with pytest.raises(ValueError):
        cost(i3, VertexSolution(0, 4))


def test_every_child_set_costs_n_on_all_ones():
    inst = all_ones(4)
    for bits in range(1, 1 << 4):
        assert cost(inst, VertexSolution(bits, 4)) == 4


def test_cost_stays_in_band():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        m = n * (n + 1) // 2
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=m)])
        bits = int(rng.integers(1, 1 << n))
        assert n <= cost(inst, VertexSolution(bits, n)) <= 2 * n


def test_decoded_tree_is_feasible_and_cost_consistent():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        m = n * (n + 1) // 2
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=m)])
        x = VertexSolution(int(rng.integers(1, 1 << n)), n)
        edge_form = to_edge_solution(inst, x)
        assert is_feasible(inst, edge_form)
        assert edge_cost(inst, edge_form) == cost(inst, x)


def test_best_child_set_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = n * (n + 1) // 2
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=m)])
        best = min(cost(inst, VertexSolution(b, n)) for b in range(1, 1 << n))
        assert best == optimum(inst)[0]


class _NoFlipRng:
    def binomial(self, length, p):
        return 0


def test_mutation_identity_and_determinism():
    assert flip_mask(4, _NoFlipRng()) == 0
    assert flip_mask(4, np.random.default_rng(2)) == flip_mask(4, np.random.default_rng(2))


def test_mutation_matches_flip_mask_stream():
    # a vertex-EA offspring is its parent's child mask XOR an n-bit flip_mask
    # drawn from the run's own stream; it replaces the parent unless it costs more
    inst = Instance(4, [1, 2, 2, 1, 1, 2, 2, 1, 2, 1])
    for seed in range(20):
        state = init_state("ea-vertex", inst, seed)
        twin = copy.deepcopy(state.rng)
        before = state.bits
        state.step()
        child = before ^ flip_mask(4, twin)
        kept = child_set_cost(inst, child) <= child_set_cost(inst, before)
        assert state.bits == (child if kept else before)


def test_mutation_mean_flip_count():
    n = 10
    rng = np.random.default_rng(29)
    trials = 100_000
    total = sum(flip_mask(n, rng).bit_count() for _ in range(trials))
    assert 0.97 <= total / trials <= 1.03
