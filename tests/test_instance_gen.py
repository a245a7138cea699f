"""Random instances and planted local-search patterns."""

import pytest

from hoptree import instance_gen
from hoptree.certifier import apply_move_edges, apply_move_tree
from hoptree.edge_repr import DeficiencyClass, cost as edge_cost, deficiency_class, metrics
from hoptree.exact_oracle import optimum
from hoptree.instance_gen import (
    PLANT_KINDS,
    plant_cluster,
    plant_op1,
    plant_op2,
    plant_op3,
    plant_op4,
    plant_op5,
    plant_op6,
    plant_op7,
    planted_instance,
    random_instance,
)


# --- i.i.d. instances ----------------------------------------------------------


def test_random_instance_is_seed_deterministic():
    a = random_instance(9, 0.4, seed=123)
    b = random_instance(9, 0.4, seed=123)
    c = random_instance(9, 0.4, seed=124)
    assert a.weights == b.weights
    assert a.weights != c.weights


def test_random_instance_degenerate_probabilities():
    assert set(random_instance(6, 1.0, seed=0).weights) == {1}
    assert set(random_instance(6, 0.0, seed=0).weights) == {2}


def test_random_instance_mixes_weights():
    inst = random_instance(20, 0.5, seed=7)
    ones = inst.weights.count(1)
    # 210 draws at p=0.5; six sigma is ~43
    assert 62 <= ones <= 148


def test_random_instance_rejects_bad_probability():
    for p1 in (-0.1, 1.1):
        with pytest.raises(ValueError):
            random_instance(5, p1, seed=0)


# --- single-operation plants ----------------------------------------------------


COST_ONE_PLANTERS = {
    1: plant_op1,
    2: plant_op2,
    3: plant_op3,
    4: plant_op4,
    5: plant_op5,
}


@pytest.mark.parametrize("op", sorted(COST_ONE_PLANTERS))
@pytest.mark.parametrize("n", [6, 8])
def test_cost_one_plants_round_trip(op, n):
    planter = COST_ONE_PLANTERS[op]
    for seed in range(10):
        planted = planter(n, seed)
        assert planted.kind == f"op{op}"
        assert planted.move.op == op and planted.move.delta == -1
        before = planted.tree.cost(planted.instance)
        after = apply_move_tree(planted.instance, planted.tree, planted.move)
        assert after.cost(planted.instance) == before - 1


@pytest.mark.parametrize("op", sorted(COST_ONE_PLANTERS))
def test_plants_move_their_roles_around(op):
    moves = {COST_ONE_PLANTERS[op](8, seed).move for seed in range(20)}
    assert len(moves) > 1


def test_op4_heavy_variant():
    for seed in range(10):
        planted = plant_op4(8, seed, variant="22")
        assert planted.move.op == 4 and planted.move.delta == -1
        # both removed edges are grandchild parent edges, none touches the root
        assert all(0 not in e for e in planted.move.removed)
        after = apply_move_tree(planted.instance, planted.tree, planted.move)
        assert after.cost(planted.instance) == planted.tree.cost(planted.instance) - 1
    with pytest.raises(ValueError):
        plant_op4(8, 0, variant="12")


def test_leaf_pair_capture_plant():
    for seed in range(10):
        planted = plant_op6(8, seed)
        assert planted.move.op == 6 and planted.move.delta == -2
        inst = planted.instance
        x2 = apply_move_edges(inst, planted.tree.to_edge_solution(inst), planted.move)
        met = metrics(inst, x2)
        assert met.hamming == inst.n and met.n_cc == 1 and not met.feasible
        assert met.cost == planted.tree.cost(inst) - 2
        assert deficiency_class(inst, x2) is DeficiencyClass.ONE


def test_deficiency_repair_plant():
    for seed in range(10):
        planted = plant_op7(8, seed)
        inst = planted.instance
        assert planted.move.op == 7 and planted.move.delta == 1
        assert planted.partner == planted.tree.to_edge_solution(inst)
        assert edge_cost(inst, planted.x3) == planted.tree.cost(inst) - 2
        repaired = apply_move_edges(inst, planted.x3, planted.move)
        assert metrics(inst, repaired).feasible
        assert edge_cost(inst, repaired) == edge_cost(inst, planted.x3) + 1


@pytest.mark.parametrize(
    "planter, n",
    [
        (plant_op1, 1),
        (plant_op2, 2),
        (plant_op3, 1),
        (plant_op4, 2),
        (plant_op5, 3),
        (plant_op6, 3),
        (plant_op7, 3),
    ],
)
def test_plants_reject_tiny_instances(planter, n):
    with pytest.raises(ValueError):
        planter(n, seed=0)


def test_op4_heavy_variant_needs_four_vertices():
    with pytest.raises(ValueError):
        plant_op4(3, seed=0, variant="22")


# --- hub clusters ---------------------------------------------------------------


def test_cluster_plant_reference_case():
    planted = plant_cluster(12, seed=5, hubs=2)
    assert planted.kind == "cluster"
    assert len(planted.hubs) == 2
    assert planted.optimum_cost == 14
    assert planted.tree.cost(planted.instance) == 14
    assert optimum(planted.instance)[0] == 14


@pytest.mark.parametrize("n", [32, 48, 64])
def test_cluster_plant_self_check_solves_the_optimum(n, monkeypatch):
    solved = []

    def spy(inst):
        solved.append(optimum(inst))
        return solved[-1]

    monkeypatch.setattr(instance_gen, "optimum", spy)
    planted = plant_cluster(n, seed=n)
    assert [cost for cost, _ in solved] == [n + len(planted.hubs)] == [planted.optimum_cost]


def test_cluster_plant_default_hub_count():
    assert len(plant_cluster(9, seed=1).hubs) == 3
    assert len(plant_cluster(2, seed=1).hubs) == 1


def test_cluster_plant_rejects_bad_hub_counts():
    for hubs in (0, 13):
        with pytest.raises(ValueError):
            plant_cluster(12, seed=0, hubs=hubs)


# --- dispatch -------------------------------------------------------------------


def test_planted_instance_dispatch():
    assert set(PLANT_KINDS) == {f"op{k}" for k in range(1, 8)} | {"cluster"}
    via_dispatch = planted_instance("op3", seed=9, n=6)
    direct = plant_op3(6, seed=9)
    assert via_dispatch.instance.weights == direct.instance.weights
    assert via_dispatch.move == direct.move
    kwargs = planted_instance("op4", seed=9, n=6, variant="22")
    assert kwargs.move == plant_op4(6, seed=9, variant="22").move
    with pytest.raises(ValueError):
        planted_instance("op9", seed=0)
