"""Differential checks of the shared bitmask kernels.

The search loops keep each member's neighbour bitmasks up to date under
mutation and read components, the two-hop cover, the edge cost and the
attachment deficiency off them.  Random edge sets and flip sequences are
driven through those kernels and compared with the plain-graph references
in ``helpers`` and with the adjacency rebuilt from scratch.  The vertex
EA's child-set cost is compared with the oracle's per-vertex reference and
with the cost of the decoded tree.
"""

from hypothesis import given, settings, strategies as st

import helpers
from hoptree.algorithms import ALGO_IDS, init_state, population_view, step
from hoptree.certifier import HopTree
from hoptree.edge_repr import (
    EdgeSolution,
    adjacency,
    cheap_deficiency_size,
    components,
    deficiency_set_size,
    edge_cost,
    root_component,
    toggle_edges,
    two_hop_cover,
)
from hoptree.exact_oracle import _child_set_cost
from hoptree.fitness import deficiency_value, f_m, f_m2, f_one_plus_one
from hoptree.graph_model import Instance
from hoptree.instance_gen import random_instance
from hoptree.vertex_repr import VertexSolution, build_tree, child_set_cost, cost as vertex_cost


@st.composite
def flip_walks(draw, max_n: int = 8):
    """An instance, a starting edge set, and a sequence of nonzero flip masks."""
    n = draw(st.integers(2, max_n))
    m = n * (n + 1) // 2
    inst = Instance(n, draw(st.lists(st.sampled_from((1, 2)), min_size=m, max_size=m)))
    bits = draw(st.integers(0, (1 << m) - 1))
    edge_sets = st.sets(st.integers(0, m - 1), min_size=1, max_size=4)
    flips = [sum(1 << i for i in edges) for edges in draw(st.lists(edge_sets, max_size=8))]
    return inst, bits, flips


@settings(max_examples=150, deadline=None)
@given(walk=flip_walks())
def test_kernels_follow_flip_sequences(walk):
    inst, bits, flips = walk
    adj = adjacency(inst, EdgeSolution(bits, inst.m))
    for fm in [0] + flips:
        toggle_edges(inst, adj, fm)
        bits ^= fm
        assert adj == adjacency(inst, EdgeSolution(bits, inst.m))
        count, root = components(inst.n, adj)
        assert count == helpers.component_count(inst, bits)
        dist = helpers.bfs_distances(inst, bits)
        assert root == sum(1 << v for v, d in enumerate(dist) if d <= inst.n)
        assert root_component(adj, two_hop_cover(adj)) == root
        assert inst.n + 1 - two_hop_cover(adj).bit_count() == helpers.deep_count(inst, bits)
        assert edge_cost(inst, bits) == helpers.solution_cost(inst, bits)


@settings(max_examples=150, deadline=None)
@given(walk=flip_walks())
def test_cheap_deficiency_matches_brute_force_on_connected_graphs(walk):
    inst, bits, flips = walk
    adj = adjacency(inst, EdgeSolution(bits, inst.m))
    for fm in [0] + flips:
        toggle_edges(inst, adj, fm)
        bits ^= fm
        if helpers.component_count(inst, bits) != 1:
            continue
        size = helpers.min_root_attachments(inst, bits)
        root = (1 << (inst.n + 1)) - 1
        assert cheap_deficiency_size(adj, root, two_hop_cover(adj)) == (size if size <= 1 else None)
        assert deficiency_value(inst, bits, adj) == (size if size <= 1 else None)
        assert deficiency_value(inst, bits, adj, lambda x: deficiency_set_size(inst, x)) == size


@settings(max_examples=150, deadline=None)
@given(walk=flip_walks())
def test_deficiency_value_on_any_graph(walk):
    inst, bits, flips = walk
    adj = adjacency(inst, EdgeSolution(bits, inst.m))
    for fm in [0] + flips:
        toggle_edges(inst, adj, fm)
        bits ^= fm
        count = helpers.component_count(inst, bits)
        value = helpers.min_root_attachments(inst, bits) + inst.m * inst.m * (count - 1)
        assert deficiency_value(inst, bits, adj, lambda x: deficiency_set_size(inst, x)) == value
        assert deficiency_value(inst, bits, adj) == (value if value <= 1 else None)


@st.composite
def child_sets(draw, max_n: int = 12):
    """An instance with n <= max_n and a nonempty child set over its vertices."""
    n = draw(st.integers(1, max_n))
    m = n * (n + 1) // 2
    inst = Instance(n, draw(st.lists(st.sampled_from((1, 2)), min_size=m, max_size=m)))
    return inst, draw(st.integers(1, (1 << n) - 1))


@settings(max_examples=200, deadline=None)
@given(case=child_sets())
def test_child_set_cost_matches_the_references(case):
    inst, drawn = case
    assert child_set_cost(inst, 0) == 2 * inst.n + 1
    # every nonempty child set on the small instances, the drawn one on the others
    for bits in range(1, 1 << inst.n) if inst.n <= 6 else [drawn]:
        tree = HopTree(build_tree(inst, VertexSolution(bits, inst.n)))
        assert child_set_cost(inst, bits) == _child_set_cost(inst, bits) == tree.cost(inst)


_REFERENCE = {
    "ea-edge": f_one_plus_one,
    "gsemo": f_m,
    "gsemo1": f_m,
    "gsemo2": f_m2,
    "ea-vertex": vertex_cost,
}


@settings(max_examples=60, deadline=None)
@given(
    algo=st.sampled_from(ALGO_IDS),
    n=st.integers(2, 10),
    p1=st.sampled_from((0.2, 0.5, 0.8)),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 400),
)
def test_population_fitness_matches_a_fresh_evaluation(algo, n, p1, seed, steps):
    inst = random_instance(n, p1, seed)
    state = init_state(algo, inst, seed)
    for _ in range(steps):
        step(state)
    for solution, fit in population_view(state):
        assert fit == _REFERENCE[algo](inst, solution)
