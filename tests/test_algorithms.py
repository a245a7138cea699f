"""Run steps, populations, milestones, and the run loop."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_twos, dominates_gsemo
from hoptree import algorithms, edge_repr, fitness
from hoptree.algorithms import (
    ALGO_IDS,
    MAX_BUDGET,
    RNG_ID,
    TARGET_NAMES,
    best_feasible_cost,
    init_state,
    population_view,
    potential,
    run,
    step,
)
from hoptree.edge_repr import EdgeSolution, adjacency
from hoptree.exact_oracle import optimum
from hoptree.fitness import Dominance, dominates_gsemo1, dominates_gsemo2, f_m, f_m2
from hoptree.graph_model import Instance
from hoptree.instance_gen import random_instance


class ScriptRng:
    """Replays a fixed list of draws so a step takes a chosen path.

    A step draws, in order: a parent index via integers(k) when the
    population has more than one member, the flip count via binomial, then
    distinct flip positions via integers(0, length).
    """

    def __init__(self, draws):
        self.draws = deque(draws)

    def binomial(self, n, p):
        return self.draws.popleft()

    def integers(self, *args):
        return self.draws.popleft()

    def exhausted(self) -> bool:
        return not self.draws


def fresh_state(algo, inst, seed=0):
    """Init state, then wipe milestones so crafted steps start clean."""
    state = init_state(algo, inst, seed)
    state.milestones = {"feasible": None, "ratio32": None, "opt": None}
    state.evaluations = 1
    return state


def put_edge_member(state, inst, bits):
    adj = adjacency(inst, EdgeSolution(bits, inst.m))
    return bits, adj


# --- construction and constants -------------------------------------------------


def test_module_constants():
    assert ALGO_IDS == ("ea-edge", "gsemo", "gsemo1", "gsemo2", "ea-vertex")
    assert TARGET_NAMES == ("feasible", "ratio32", "opt")
    assert MAX_BUDGET == 100_000_000
    assert RNG_ID == "numpy:PCG64"


def test_init_state_counts_the_first_evaluation(i3):
    for algo in ALGO_IDS:
        assert init_state(algo, i3, seed=5).evaluations == 1


def test_init_state_validation(i3):
    with pytest.raises(ValueError):
        init_state("ea-node", i3, seed=0)
    with pytest.raises(ValueError):
        init_state("ea-edge", Instance(1, [1]), seed=0)


def test_init_state_draws_initial_bits_from_seed(i3):
    state = init_state("ea-edge", i3, seed=9)
    rng = np.random.Generator(np.random.PCG64(9))
    expected = int.from_bytes(rng.bytes(1), "little") & 0x3F
    assert state.bits == expected


# --- crafted (1+1) steps --------------------------------------------------------


def test_ea_edge_accepts_improving_penalty(i3):
    state = fresh_state("ea-edge", i3)
    state.bits, state.adj = put_edge_member(state, i3, 0b101001)  # root path
    state.f = 3 + 36 * 2
    state.rng = ScriptRng([1, 2])  # one flip, edge (0,3)
    assert step(state) is True
    assert state.rng.exhausted()
    # the extra root edge overfills the tree but clears the depth violations
    assert state.bits == 0b101101 and state.f == 5 + 36
    assert state.evaluations == 2
    assert state.milestones["feasible"] is None
    assert best_feasible_cost(state) is None and potential(state) == 1


def test_ea_edge_rejects_worse_offspring(i3):
    state = fresh_state("ea-edge", i3)
    state.bits, state.adj = put_edge_member(state, i3, 0b000111)  # all-children star
    state.f = 5
    state.rng = ScriptRng([1, 3])  # add edge (1,2)
    assert step(state) is False
    assert state.bits == 0b000111 and state.f == 5
    assert state.evaluations == 2
    assert best_feasible_cost(state) == 5 and potential(state) == 0


@pytest.mark.parametrize("algo", ALGO_IDS)
def test_zero_flip_steps_only_burn_budget(algo, i3):
    state = init_state(algo, i3, seed=11)
    before = population_view(state)
    state.rng = ScriptRng([0])
    assert step(state) is False
    assert state.evaluations == 2
    assert population_view(state) == before


def test_ea_vertex_accepts_equal_cost(i3):
    state = fresh_state("ea-vertex", i3)
    state.bits, state.f = 0b010, 4
    state.rng = ScriptRng([1, 0])  # make vertex 1 a root child too
    assert step(state) is True
    assert state.bits == 0b011 and state.f == 4
    assert state.milestones["feasible"] == 2


def test_ea_vertex_accepts_strict_improvement(i3):
    state = fresh_state("ea-vertex", i3)
    state.bits, state.f = 0b111, 5
    state.rng = ScriptRng([2, 1, 2])  # drop children 2 and 3
    assert step(state) is True
    assert state.bits == 0b001 and state.f == 4


# --- crafted population steps ---------------------------------------------------


def test_gsemo1_keeps_incomparable_offspring(i3):
    state = fresh_state("gsemo1", i3)
    bits, adj = put_edge_member(state, i3, 0b000111)
    state.members = [[3, 5, bits, adj]]
    state.rng = ScriptRng([1, 3])  # no parent draw at size one; add edge (1,2)
    assert step(state) is True
    assert {(z[0], z[1]) for z in state.members} == {(3, 5), (4, 6)}
    assert state.milestones["feasible"] is None  # the new member is overfull
    assert best_feasible_cost(state) == 5


def test_gsemo1_distance_gate_rejects_without_evaluating(i3):
    state = fresh_state("gsemo1", i3)
    bits, adj = put_edge_member(state, i3, 0b000111)
    state.members = [[3, 5, bits, adj]]
    state.rng = ScriptRng([2, 1, 2])  # drop two root edges: weight 1
    assert step(state) is False
    assert [tuple(z[:2]) for z in state.members] == [(3, 5)]
    assert state.evaluations == 2


def two_branch_instance():
    """Two depth-3 root paths; the full plant has deficiency set size two."""
    inst = all_twos(6)
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)]
    bits = 0
    for u, v in edges:
        bits |= 1 << inst.edge_index(u, v)
    return inst, bits


def test_gsemo2_rejects_deep_deficiency_cheaply():
    inst, target = two_branch_instance()
    state = fresh_state("gsemo2", inst)
    missing = inst.edge_index(5, 6)
    bits, adj = put_edge_member(state, inst, target ^ (1 << missing))
    state.members = [[0, 10, bits, adj]]
    state.rng = ScriptRng([1, missing])
    # the offspring needs two attachments; with the slot pair already at
    # deficiency <= 1 the run rejects without the exact search
    assert step(state) is False
    assert [tuple(z[:2]) for z in state.members] == [(0, 10)]


def test_gsemo2_computes_exact_deficiency_when_needed():
    inst, target = two_branch_instance()
    state = fresh_state("gsemo2", inst)
    missing = inst.edge_index(5, 6)
    parent_bits = target ^ (1 << missing)
    bits, adj = put_edge_member(state, inst, parent_bits)
    m2 = inst.m * inst.m
    # the parent really is one component short plus one fixing attachment
    state.members = [[m2 + 1, 10, bits, adj]]
    state.rng = ScriptRng([1, missing])
    assert step(state) is True
    assert [tuple(z[:2]) for z in state.members] == [(2, 12)]


def test_gsemo2_rejects_a_disconnected_offspring_without_counting_components(monkeypatch):
    inst = all_twos(4)

    def edge_bits(*edges):
        return sum(1 << inst.edge_index(u, v) for u, v in edges)

    state = fresh_state("gsemo2", inst)
    star = put_edge_member(state, inst, edge_bits((0, 1), (0, 2), (0, 3), (0, 4)))
    deep = put_edge_member(state, inst, edge_bits((0, 1), (1, 2), (2, 3), (0, 4)))
    state.members = [[0, 8, *star], [1, 8, *deep]]
    state.rng = ScriptRng([0, 1, inst.edge_index(0, 4)])  # star parent; cut leaf 4

    def forbidden(*args):
        raise AssertionError("a disconnected offspring needs no component count")

    monkeypatch.setattr(edge_repr, "components", forbidden)
    monkeypatch.setattr(fitness, "components", forbidden)
    monkeypatch.setattr(algorithms, "deficiency_set_size", forbidden)
    # with every member at deficiency value <= 1, an offspring with a
    # vertex cut off from the root (value >= m^2) is already dominated
    assert step(state) is False
    assert state.rng.exhausted()
    assert [tuple(z[:2]) for z in state.members] == [(0, 8), (1, 8)]


def test_gsemo_overfull_member_shrinks_back_into_slots(i3):
    state = fresh_state("gsemo", i3)
    bits, adj = put_edge_member(state, i3, 0b011111)
    state.slots, state.slot_keys = {}, []
    state.over = [5, bits, adj, None]
    state.rng = ScriptRng([2, 3, 4])  # no parent draw; drop edges (1,2),(1,3)
    assert step(state) is True
    assert state.over is None
    assert state.slot_keys == [3]
    assert state.slots[3][0] == 0b000111 and state.slots[3][2] == 5
    assert state.milestones["feasible"] == 2
    assert best_feasible_cost(state) == 5


def test_gsemo_rejects_growth_past_the_overfull_member(i3):
    state = fresh_state("gsemo", i3)
    bits, adj = put_edge_member(state, i3, 0b000111)
    state.slots = {3: [bits, adj, 5]}
    state.slot_keys = [3]
    state.over = None
    state.rng = ScriptRng([1, 4])  # add edge (1,3): weight four beats nothing
    assert step(state) is False
    assert state.slot_keys == [3] and state.over is None


def test_gsemo_parent_pick_uses_slot_key_order(i3):
    state = fresh_state("gsemo", i3)
    star_bits, star_adj = put_edge_member(state, i3, 0b000111)
    one_bits, one_adj = put_edge_member(state, i3, 0b000001)
    state.slots = {3: [star_bits, star_adj, 5], 1: [one_bits, one_adj, None]}
    state.slot_keys = [3, 1]
    state.over = None
    state.rng = ScriptRng([1, 1, 1])  # parent index 1 -> weight-1 slot; add edge (0,2)
    assert step(state) is True
    assert state.slot_keys == [3, 1, 2]
    assert state.slots[2][0] == 0b000011
    assert state.slots[2][2] is None  # cost only materialises for weight-n members


def test_population_view_fills_lazy_fitness(i3):
    state = fresh_state("gsemo", i3)
    bits, adj = put_edge_member(state, i3, 0b000111)
    state.slots = {3: [bits, adj, None]}
    state.slot_keys = [3]
    state.over = None
    view = population_view(state)
    assert view == ((EdgeSolution(0b000111, 6), (3, 5)),)
    assert state.slots[3][2] == 5


_RULES = {
    "gsemo": (f_m, dominates_gsemo),
    "gsemo1": (f_m, dominates_gsemo1),
    "gsemo2": (f_m2, lambda y, z, n: dominates_gsemo2(y, z)),
}


@settings(max_examples=150, deadline=None)
@given(
    algo=st.sampled_from(sorted(_RULES)),
    n=st.integers(2, 6),
    p1=st.sampled_from((0.2, 0.5, 0.8)),
    seed=st.integers(0, 2**32 - 1),
    steps=st.one_of(st.integers(0, 3), st.integers(0, 300)),  # few steps: often overfull
    data=st.data(),
)
def test_offers_follow_the_generic_dominance_rule(algo, n, p1, seed, steps, data):
    """Reject an offspring some member dominates; else drop the members it
    weakly dominates and add it.  gsemo's weight slots, gsemo1's distance
    gate and gsemo2's cheap deficiency reject must all agree with that."""
    inst = random_instance(n, p1, seed)
    state = init_state(algo, inst, seed)
    for _ in range(steps):
        step(state)
    fitness, rule = _RULES[algo]
    before = {(fit, x.bits) for x, fit in population_view(state)}
    # offspring: a member with a few flips (to meet its slot), or a random
    # subgraph whose weight is drawn near n often enough to meet the slots
    members = sorted(b for _, b in before)
    flips = st.lists(st.integers(0, inst.m - 1), max_size=3)
    if data.draw(st.booleans()):
        bits = data.draw(st.sampled_from(members))
        for i in data.draw(flips):
            bits ^= 1 << i
    else:
        weight = data.draw(st.one_of(st.integers(0, n + 1), st.integers(0, inst.m)))
        bits = sum(1 << i for i in data.draw(st.permutations(range(inst.m)))[:weight])
    y = fitness(inst, EdgeSolution(bits, inst.m))
    verdicts = [rule(y, fit, n) for fit, _ in before]
    accepted = not any(v is Dominance.DOMINATED for v in verdicts)
    expected = before
    if accepted:
        kept = {z for z, v in zip(before, verdicts) if not v.weak}
        expected = kept | {(y, bits)}
    assert state.offer(bits, adjacency(inst, EdgeSolution(bits, inst.m))) is accepted
    assert {(fit, x.bits) for x, fit in population_view(state)} == expected


# --- the run loop ---------------------------------------------------------------


def test_run_validates_arguments(i3):
    with pytest.raises(ValueError):
        run("ea-edge", i3, seed=0, budget=0)
    with pytest.raises(ValueError):
        run("ea-edge", i3, seed=0, budget=MAX_BUDGET + 1)
    with pytest.raises(ValueError):
        run("ea-edge", i3, seed=0, budget=10, targets=("optimal",))
    with pytest.raises(ValueError):
        run("ea-edge", i3, seed=0, budget=10, targets=("opt",))
    run("ea-edge", i3, seed=0, budget=10, targets=("feasible",))


def test_run_with_budget_one_stops_at_the_initial_solution(i3):
    record = run("gsemo", i3, seed=3, budget=1)
    assert record.evaluations == 1 and record.budget == 1


@pytest.mark.parametrize("algo", ALGO_IDS)
def test_runs_replay_exactly(algo):
    inst = random_instance(6, 0.5, seed=3)
    first = run(algo, inst, seed=17, budget=300, trace_every=100)
    second = run(algo, inst, seed=17, budget=300, trace_every=100)
    assert first == second
    assert run(algo, inst, seed=18, budget=300) != run(algo, inst, seed=17, budget=300)


@pytest.mark.parametrize("algo", ALGO_IDS)
def test_milestones_are_ordered(algo):
    inst = random_instance(5, 0.5, seed=8)
    opt_cost, _ = optimum(inst)
    record = run(algo, inst, seed=2, budget=30_000, opt_cost=opt_cost)
    assert record.eval_feasible is not None
    if record.eval_ratio32 is not None:
        assert record.eval_feasible <= record.eval_ratio32
    if record.eval_opt is not None:
        assert record.eval_ratio32 is not None
        assert record.eval_ratio32 <= record.eval_opt
        assert record.opt_cost == opt_cost


def test_run_stops_once_targets_are_met():
    inst = random_instance(6, 0.5, seed=21)
    record = run("ea-edge", inst, seed=4, budget=1_000_000, targets=("feasible",))
    assert record.eval_feasible is not None
    assert record.evaluations == record.eval_feasible
    assert record.final_cost is not None


def test_run_stops_at_the_optimum_target():
    inst = random_instance(4, 0.5, seed=5)
    opt_cost, _ = optimum(inst)
    record = run(
        "ea-edge",
        inst,
        seed=6,
        budget=1_000_000,
        targets=("feasible", "ratio32", "opt"),
        opt_cost=opt_cost,
    )
    assert record.eval_opt is not None
    assert record.evaluations == record.eval_opt
    assert record.final_cost == opt_cost


def test_vertex_runs_are_feasible_from_the_first_evaluation(i3):
    # a nonzero child set decodes to a spanning tree straight away
    record = run("ea-vertex", i3, seed=1, budget=1, targets=("feasible",))
    assert record.eval_feasible == 1 and record.evaluations == 1


def test_trace_entries_land_on_the_grid(i3):
    record = run("gsemo1", i3, seed=7, budget=200, trace_every=50)
    assert record.trace[0][0] == 1
    assert all(e % 50 == 0 for e, _, _ in record.trace[1:])
    assert len(record.trace) >= 4
    # once feasible, traces report a cost within the instance's range
    for _, cost, pen in record.trace:
        assert cost is None or 3 <= cost <= 6
        assert pen is not None


def test_trace_is_off_by_default(i3):
    assert run("ea-edge", i3, seed=7, budget=50).trace == ()
