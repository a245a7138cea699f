"""Instance generators: i.i.d. random weights and planted local-search patterns.

Planted instances embed exactly one occurrence of a chosen improvement
operation into an otherwise all-weight-2 instance, with role vertices drawn
from a seeded permutation so the pattern never sits at fixed indices.  Each
generator verifies its own plant (earlier operations stay silent, the target
detector reports exactly the intended move) and raises PlantError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph_model import Instance, _row_offset
from .edge_repr import EdgeSolution
from .certifier import (
    HopTree,
    Move,
    _OP_SCANS,
    _edge,
    apply_move_edges,
    find_op6,
    find_op7,
)
from .exact_oracle import OPTIMUM_MAX_N, optimum


class PlantError(RuntimeError):
    """A planted pattern failed its self-check."""


@dataclass(frozen=True)
class Planted:
    """A generated instance together with the structure planted into it."""

    instance: Instance
    kind: str
    tree: HopTree
    move: Move | None = None
    x3: EdgeSolution | None = None
    partner: EdgeSolution | None = None
    hubs: tuple[int, ...] = ()
    optimum_cost: int | None = None


def random_instance(n: int, p1: float, seed: int) -> Instance:
    """Complete instance on n+1 vertices; each weight is 1 w.p. p1, else 2."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    rng = np.random.Generator(np.random.PCG64(seed))
    m = n * (n + 1) // 2
    draws = rng.random(m)
    return Instance(n, [1 if d < p1 else 2 for d in draws])


def _rng_labels(n: int, seed: int, k: int) -> list[int]:
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(np.arange(1, n + 1))
    return [int(v) for v in perm[:k]]


def _all_two(n: int) -> list[int]:
    return [2] * (n * (n + 1) // 2)


def _set_one(inst_weights: list[int], n: int, u: int, v: int) -> None:
    a, b = (u, v) if u < v else (v, u)
    inst_weights[_row_offset(a, n) + (b - a - 1)] = 1


def _star_parents(n: int) -> list[int]:
    return [0] * (n + 1)


def _verify(inst: Instance, t: HopTree, op: int, expected: Move) -> None:
    for scan in _OP_SCANS[: op - 1]:
        stray = scan(inst, t)
        if stray is not None:
            raise PlantError(f"op {op} plant also matches {stray.describe()}")
    found = _OP_SCANS[op - 1](inst, t) if op <= 5 else find_op6(inst, t)
    if found != expected:
        raise PlantError(f"op {op} plant found {found}, expected {expected.describe()}")


def plant_op1(n: int, seed: int) -> Planted:
    if n < 2:
        raise ValueError("op 1 plant needs n >= 2")
    v1, p1 = _rng_labels(n, seed, 2)
    w = _all_two(n)
    _set_one(w, n, 0, v1)
    inst = Instance(n, w)
    parents = _star_parents(n)
    parents[v1] = p1
    t = HopTree(tuple(parents))
    move = Move(1, (_edge(v1, p1),), ((0, v1),), -1)
    _verify(inst, t, 1, move)
    return Planted(inst, "op1", t, move)


def plant_op2(n: int, seed: int) -> Planted:
    if n < 3:
        raise ValueError("op 2 plant needs n >= 3")
    v1, v2, p2 = _rng_labels(n, seed, 3)
    w = _all_two(n)
    _set_one(w, n, v1, v2)
    inst = Instance(n, w)
    parents = _star_parents(n)
    parents[v2] = p2
    t = HopTree(tuple(parents))
    move = Move(2, (_edge(v2, p2),), (_edge(v1, v2),), -1)
    _verify(inst, t, 2, move)
    return Planted(inst, "op2", t, move)


def plant_op3(n: int, seed: int) -> Planted:
    if n < 2:
        raise ValueError("op 3 plant needs n >= 2")
    v1, v2 = sorted(_rng_labels(n, seed, 2))
    w = _all_two(n)
    _set_one(w, n, v1, v2)
    inst = Instance(n, w)
    t = HopTree(tuple(_star_parents(n)))
    move = Move(3, ((0, v1),), (_edge(v1, v2),), -1)
    _verify(inst, t, 3, move)
    return Planted(inst, "op3", t, move)


def plant_op4(n: int, seed: int, variant: str = "11") -> Planted:
    """Variant "11": v1's two edges both weight 1, v2 a childless root child.
    Variant "22": both weight 2, v2 a second grandchild (the pattern is then
    symmetric in v1/v2, so labels are sorted)."""
    if variant not in ("11", "22"):
        raise ValueError(f"unknown op 4 variant {variant!r}")
    if variant == "11":
        if n < 3:
            raise ValueError("op 4 plant needs n >= 3")
        v1, v2, p1 = _rng_labels(n, seed, 3)
        w = _all_two(n)
        _set_one(w, n, 0, v1)
        _set_one(w, n, v1, p1)
        _set_one(w, n, v1, v2)
        inst = Instance(n, w)
        parents = _star_parents(n)
        parents[v1] = p1
        t = HopTree(tuple(parents))
        move = Move(4, (_edge(v1, p1), (0, v2)), ((0, v1), _edge(v1, v2)), -1)
    else:
        if n < 4:
            raise ValueError("op 4 variant 22 plant needs n >= 4")
        a, b, p1, p2 = _rng_labels(n, seed, 4)
        v1, v2 = sorted((a, b))
        w = _all_two(n)
        _set_one(w, n, v1, v2)
        inst = Instance(n, w)
        parents = _star_parents(n)
        parents[v1] = p1
        parents[v2] = p2
        t = HopTree(tuple(parents))
        move = Move(4, (_edge(v1, p1), _edge(v2, p2)), ((0, v1), _edge(v1, v2)), -1)
    _verify(inst, t, 4, move)
    return Planted(inst, "op4", t, move)


def _plant_op5_layout(n: int, seed: int) -> tuple[Instance, HopTree, int, int, int, int]:
    if n < 4:
        raise ValueError("ops 5-7 plants need n >= 4")
    v1, p1, a, b = _rng_labels(n, seed, 4)
    v2, v3 = sorted((a, b))
    w = _all_two(n)
    _set_one(w, n, v1, p1)
    _set_one(w, n, v1, v2)
    _set_one(w, n, v1, v3)
    inst = Instance(n, w)
    parents = _star_parents(n)
    parents[v1] = p1
    return inst, HopTree(tuple(parents)), v1, p1, v2, v3


def plant_op5(n: int, seed: int) -> Planted:
    inst, t, v1, p1, v2, v3 = _plant_op5_layout(n, seed)
    move = Move(
        5,
        (_edge(v1, p1), (0, v2), (0, v3)),
        ((0, v1), _edge(v1, v2), _edge(v1, v3)),
        -1,
    )
    _verify(inst, t, 5, move)
    return Planted(inst, "op5", t, move)


def plant_op6(n: int, seed: int) -> Planted:
    """Same weight pattern as the op-5 plant; operation 6 ignores v1's own
    edges, so only operations 1-4 are checked for silence here (operation 5
    deliberately matches too)."""
    inst, t, v1, p1, v2, v3 = _plant_op5_layout(n, seed)
    move = Move(6, ((0, v2), (0, v3)), (_edge(v1, v2), _edge(v1, v3)), -2)
    for scan in _OP_SCANS[:4]:
        stray = scan(inst, t)
        if stray is not None:
            raise PlantError(f"op 6 plant also matches {stray.describe()}")
    found = find_op6(inst, t)
    if found != move:
        raise PlantError(f"op 6 plant found {found}, expected {move.describe()}")
    return Planted(inst, "op6", t, move)


def plant_op7(n: int, seed: int) -> Planted:
    """Op-6 plant pushed one step: x3 is the deficient intermediate, the
    original tree is the partner, and the repair re-roots v1 at cost +1."""
    base = plant_op6(n, seed)
    inst, t = base.instance, base.tree
    # recover v1 from the planted move: the added edges (v1,v2),(v1,v3) share it
    (a1, a2), (b1, b2) = base.move.added
    v1 = a1 if a1 in (b1, b2) else a2
    p1 = t.parent[v1]
    partner = t.to_edge_solution(inst)
    x3 = apply_move_edges(inst, partner, base.move)
    move = Move(7, (_edge(v1, p1),), ((0, v1),), inst.weight(0, v1) - inst.weight(v1, p1))
    found = find_op7(inst, x3, partner)
    if found != move:
        raise PlantError(f"op 7 plant found {found}, expected {move.describe()}")
    return Planted(inst, "op7", t, move, x3=x3, partner=partner)


def plant_cluster(n: int, seed: int, hubs: int | None = None) -> Planted:
    """`hubs` hub vertices, each with weight-1 spokes to its assigned block;
    the optimum hangs every spoke under its hub for a cost of n + hubs, while
    the all-children star costs 2n."""
    h = hubs if hubs is not None else max(1, n // 3)
    if not 1 <= h <= n:
        raise ValueError(f"need 1 <= hubs <= n, got {h}")
    labels = _rng_labels(n, seed, n)
    hub_list = sorted(labels[:h])
    w = _all_two(n)
    parents = _star_parents(n)
    for i, spoke in enumerate(labels[h:]):
        hub = hub_list[i % h]
        _set_one(w, n, hub, spoke)
        parents[spoke] = hub
    inst = Instance(n, w)
    t = HopTree(tuple(parents))
    expected = n + h
    if t.cost(inst) != expected:
        raise PlantError(f"cluster tree costs {t.cost(inst)}, expected {expected}")
    if n <= OPTIMUM_MAX_N:
        best, _ = optimum(inst)
        if best != expected:
            raise PlantError(f"cluster optimum {best} != {expected}")
    return Planted(inst, "cluster", t, hubs=tuple(hub_list), optimum_cost=expected)


_PLANTERS = {
    "op1": plant_op1,
    "op2": plant_op2,
    "op3": plant_op3,
    "op4": plant_op4,
    "op5": plant_op5,
    "op6": plant_op6,
    "op7": plant_op7,
    "cluster": plant_cluster,
}

PLANT_KINDS = tuple(_PLANTERS)


def planted_instance(kind: str, seed: int, n: int = 8, **params) -> Planted:
    try:
        planter = _PLANTERS[kind]
    except KeyError:
        raise ValueError(f"unknown plant kind {kind!r}; choose from {PLANT_KINDS}") from None
    return planter(n, seed, **params)
