"""Edge bitmask solutions: metrics, feasibility, deficiency, cycles, mutation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from helpers import all_ones, all_twos
from hoptree.edge_repr import (
    DeficiencyClass,
    DeficiencySearchBudget,
    EdgeSolution,
    adjacency,
    components,
    cost,
    deficiency_class,
    deficiency_set_size,
    flip_mask,
    is_feasible,
    metrics,
    removable_cycle_edges,
    single_attachment_fixes,
    solution_from_text,
)
from hoptree.graph_model import Instance
from hoptree.vertex_repr import VertexSolution


def path_solution(i3: Instance) -> EdgeSolution:
    """Edges (0,1), (1,2), (2,3) on the reference instance."""
    bits = sum(1 << i3.edge_index(u, v) for u, v in [(0, 1), (1, 2), (2, 3)])
    return EdgeSolution(bits, i3.m)


def star_solution(inst: Instance) -> EdgeSolution:
    bits = sum(1 << inst.edge_index(0, v) for v in range(1, inst.n + 1))
    return EdgeSolution(bits, inst.m)


# --- the solution type --------------------------------------------------------


def test_solution_basics(i3):
    x = path_solution(i3)
    assert x.bits == 0b101001
    assert x.hamming == 3
    assert x.has_edge(0) and not x.has_edge(1)
    assert x.edges(i3) == ((0, 1), (1, 2), (2, 3))
    assert x.flip(1).hamming == 4
    assert x.flip(0).flip(0) == x


def test_solution_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        EdgeSolution(1 << 6, 6)
    with pytest.raises(ValueError):
        EdgeSolution(-1, 6)


@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))
))
def test_text_round_trip(mx):
    m, bits = mx
    x = EdgeSolution(bits, m)
    assert EdgeSolution.from_text(x.to_text()) == x


def test_text_kind_dispatch():
    assert solution_from_text("e:6:29") == EdgeSolution(0x29, 6)
    assert solution_from_text("v:3:5") == VertexSolution(5, 3)
    with pytest.raises(ValueError):
        EdgeSolution.from_text("v:3:5")
    for bad in ("e:6", "e:x:0", "e:6:zz", "w:6:0", ""):
        with pytest.raises(ValueError):
            solution_from_text(bad)


# --- metrics ------------------------------------------------------------------


def test_metrics_on_empty_selection(i3):
    met = metrics(i3, EdgeSolution(0, i3.m))
    assert met.hamming == 0
    assert met.cost == 0
    assert met.n_cc == 4
    assert met.dist == (0, 4, 4, 4)
    assert met.n_d_gt(2) == 3
    assert met.n_mid == 0  # disconnected vertices sit above the n band


def test_metrics_on_reference_path(i3):
    met = metrics(i3, path_solution(i3))
    assert met.dist == (0, 1, 2, 3)
    assert met.n_d_gt(2) == 1
    assert met.n_mid == 1
    assert met.cost == 3
    assert met.n_cc == 1
    assert not met.feasible


def test_metrics_on_reference_star(i3):
    met = metrics(i3, star_solution(i3))
    assert met.dist == (0, 1, 1, 1)
    assert met.n_d_gt(2) == 0
    assert met.cost == 5
    assert met.feasible


def test_metrics_rejects_width_mismatch(i3):
    with pytest.raises(ValueError):
        metrics(i3, EdgeSolution(0, 5))


def test_metrics_against_reference_bfs_exhaustively(i3):
    for bits in range(1 << i3.m):
        met = metrics(i3, EdgeSolution(bits, i3.m))
        assert met.dist == tuple(helpers.bfs_distances(i3, bits))
        assert met.n_cc == helpers.component_count(i3, bits)
        assert met.cost == helpers.solution_cost(i3, bits)
        assert met.hamming == bin(bits).count("1")


def test_metrics_against_reference_bfs_sampled():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = n * (n + 1) // 2
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=m)])
        bits = helpers.random_solution_bits(rng, m)
        met = metrics(inst, EdgeSolution(bits, m))
        assert met.dist == tuple(helpers.bfs_distances(inst, bits))
        assert met.n_cc == helpers.component_count(inst, bits)
        assert met.cost == helpers.solution_cost(inst, bits)


def test_component_count_helper(i3):
    x = path_solution(i3)
    assert components(i3.n, adjacency(i3, x)) == (1, 0b1111)
    assert components(i3.n, adjacency(i3, EdgeSolution(0, i3.m))) == (4, 0b0001)
    # the root's component is reported even when it is not the largest
    x = EdgeSolution(sum(1 << i3.edge_index(u, v) for u, v in [(1, 2), (2, 3)]), i3.m)
    assert components(i3.n, adjacency(i3, x)) == (2, 0b0001)


# --- feasibility --------------------------------------------------------------


def test_is_feasible_examples(i3):
    assert is_feasible(i3, star_solution(i3))
    assert not is_feasible(i3, path_solution(i3))
    heavy = star_solution(i3).flip(i3.edge_index(1, 2))  # now n+1 edges
    assert not is_feasible(i3, heavy)


def test_feasible_means_spanning_two_hop_tree(i3):
    for bits in range(1 << i3.m):
        x = EdgeSolution(bits, i3.m)
        if is_feasible(i3, x):
            assert helpers.feasible(i3, bits)
            met = metrics(i3, x)
            assert met.n_cc == 1 and all(d <= 2 for d in met.dist[1:])


# --- deficiency ---------------------------------------------------------------


def test_deficiency_reference_values(i3):
    assert deficiency_set_size(i3, star_solution(i3)) == 0
    assert deficiency_set_size(i3, path_solution(i3)) == 1
    assert deficiency_set_size(i3, EdgeSolution(0, i3.m)) == 0  # nothing in 2 < d <= n


def test_deficiency_matches_definition_on_smalls():
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(2, 8))
        m = n * (n + 1) // 2
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=m)])
        bits = helpers.random_solution_bits(rng, m)
        x = EdgeSolution(bits, m)
        assert deficiency_set_size(inst, x) == helpers.min_root_attachments(inst, bits)


def test_single_attachment_fixes_reference(i3):
    # attaching either 2 or 3 directly to the root repairs the path
    assert single_attachment_fixes(i3, path_solution(i3)) == (2, 3)
    # the star leaves nothing to fix and no non-adjacent vertex to try
    assert single_attachment_fixes(i3, star_solution(i3)) == ()


def long_path_instance(n: int) -> tuple[Instance, EdgeSolution]:
    inst = all_twos(n)
    bits = sum(1 << inst.edge_index(v, v + 1) for v in range(n))
    return inst, EdgeSolution(bits, inst.m)


def test_deficiency_class_examples(i3):
    assert deficiency_class(i3, star_solution(i3)) is DeficiencyClass.ZERO
    assert deficiency_class(i3, path_solution(i3)) is DeficiencyClass.ONE
    # a path down to depth 5 is still fixable by one attachment: hanging
    # vertex 4 off the root puts 3 and 5 at depth 2
    inst5, x5 = long_path_instance(5)
    assert deficiency_class(inst5, x5) is DeficiencyClass.ONE
    # at depth 6 no single attachment covers both ends of the deep segment
    inst6, x6 = long_path_instance(6)
    assert deficiency_class(inst6, x6) is DeficiencyClass.MANY
    # disconnected selections are never ZERO or ONE
    assert deficiency_class(i3, EdgeSolution(0, i3.m)) is DeficiencyClass.MANY


def test_deficiency_search_budget(i3):
    # vertex 3 sits three hops deep, so the exact search must take a node
    with pytest.raises(DeficiencySearchBudget):
        deficiency_set_size(i3, path_solution(i3), node_budget=0)
    # nothing connected lies deeper than two hops: no search is needed
    assert deficiency_set_size(i3, star_solution(i3), node_budget=0) == 0
    assert deficiency_set_size(i3, EdgeSolution(0, i3.m), node_budget=0) == 0


def test_deficiency_class_agrees_with_size_when_connected():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 60:
        n = int(rng.integers(3, 9))
        m = n * (n + 1) // 2
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=m)])
        bits = helpers.random_solution_bits(rng, m)
        x = EdgeSolution(bits, m)
        if metrics(inst, x).n_cc != 1:
            continue
        checked += 1
        size = deficiency_set_size(inst, x)
        cls = deficiency_class(inst, x)
        if size == 0:
            assert cls is DeficiencyClass.ZERO
        elif size == 1:
            assert cls is DeficiencyClass.ONE
        else:
            assert cls is DeficiencyClass.MANY


# --- cycle-edge removal -------------------------------------------------------


def test_removable_edges_on_root_triangle():
    inst = all_ones(2)
    bits = 0b111  # the whole graph: (0,1), (0,2), (1,2)
    picked = removable_cycle_edges(inst, EdgeSolution(bits, inst.m))
    assert len(picked) == 1


def test_removable_edges_reference_case(i3):
    x = EdgeSolution(star_solution(i3).bits | (1 << i3.edge_index(1, 2)), i3.m)
    # all cycle vertices touch the root, so the non-root edge must be chosen
    assert removable_cycle_edges(i3, x) == (i3.edge_index(1, 2),)


def test_removable_edges_in_rootless_component():
    inst = all_twos(5)
    tri = [(1, 2), (1, 3), (2, 3)]
    bits = sum(1 << inst.edge_index(u, v) for u, v in tri)
    picked = removable_cycle_edges(inst, EdgeSolution(bits, inst.m))
    assert len(picked) == 1
    assert inst.pair(picked[0]) in tri


def test_removable_edges_requires_a_cycle(i3):
    with pytest.raises(ValueError):
        removable_cycle_edges(i3, star_solution(i3))


def test_removable_edges_unit_properties():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 150:
        n = int(rng.integers(2, 11))
        m = n * (n + 1) // 2
        inst = Instance(n, [int(w) for w in rng.integers(1, 3, size=m)])
        bits = helpers.random_solution_bits(rng, m)
        x = EdgeSolution(bits, m)
        met = metrics(inst, x)
        if met.n_cc + met.hamming <= n + 1:
            continue
        checked += 1
        picked = removable_cycle_edges(inst, x)
        assert len(picked) == len(set(picked)) == met.n_cc + met.hamming - n - 1
        for i in picked:
            assert x.has_edge(i)
            after = metrics(inst, x.flip(i))
            assert after.cost < met.cost
            assert after.n_cc == met.n_cc
            assert after.n_d_gt(2) == met.n_d_gt(2)


# --- mutation -----------------------------------------------------------------


class _ScriptRng:
    """Records the draws and answers them from a fixed list."""

    def __init__(self, count, positions=()):
        self.answers = [count, *positions]
        self.calls = []

    def binomial(self, length, p):
        self.calls.append(("binomial", length, p))
        return self.answers.pop(0)

    def integers(self, low, high):
        self.calls.append(("integers", low, high))
        return self.answers.pop(0)


def test_mutation_identity_on_zero_mask(i3):
    rng = _ScriptRng(0)
    assert flip_mask(i3.m, rng) == 0
    assert rng.calls == [("binomial", i3.m, 1.0 / i3.m)]


def test_mutation_is_deterministic_per_seed(i3):
    a = [flip_mask(i3.m, np.random.default_rng(5)) for _ in range(2)]
    assert a[0] == a[1]
    assert len({flip_mask(i3.m, np.random.default_rng(seed)) for seed in range(20)}) > 1


def test_mutation_matches_flip_mask_stream(i3):
    # the flip count comes from Binomial(m, 1/m), then distinct positions
    # from integers(0, m); a repeated position is drawn again
    rng = _ScriptRng(3, [4, 1, 4, 0])
    assert flip_mask(i3.m, rng) == 0b10011
    assert rng.calls == [("binomial", i3.m, 1.0 / i3.m)] + [("integers", 0, i3.m)] * 4
    for seed in range(20):
        assert 0 <= flip_mask(i3.m, np.random.default_rng(seed)) < 1 << i3.m


def test_mutation_mean_flip_count():
    # standard bit mutation over 10 bits flips 1 on average; the sample mean
    # over 1e5 trials has sigma ~ 0.003, so +-0.03 leaves ample slack
    m = 10
    rng = np.random.default_rng(23)
    trials = 100_000
    total = sum(flip_mask(m, rng).bit_count() for _ in range(trials))
    assert 0.97 <= total / trials <= 1.03
