"""Penalised fitness values and the three dominance preorders.

The reference values below are hand arithmetic on the desk instance
(m = 6, so the penalty unit is 36): the root path costs 3 and leaves one
vertex deeper than two hops; the star costs 5 and is feasible.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import all_ones, dominates_gsemo
from hoptree.edge_repr import EdgeSolution, is_feasible
from hoptree.fitness import (
    Dominance,
    dominates_gsemo1,
    dominates_gsemo2,
    f_m,
    f_m2,
    f_one_plus_one,
)
from hoptree.graph_model import Instance
from hoptree.vertex_repr import VertexSolution, cost as vertex_cost


def _sol(inst, pairs):
    bits = sum(1 << inst.edge_index(u, v) for u, v in pairs)
    return EdgeSolution(bits, inst.m)


@pytest.fixture
def path(i3):
    return _sol(i3, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def star(i3):
    return _sol(i3, [(0, 1), (0, 2), (0, 3)])


def test_penalty_unit(i3):
    # the unit is m^2: the empty subgraph pays it twice per too-deep vertex
    assert i3.m ** 2 == 36
    assert f_one_plus_one(i3, EdgeSolution(0, i3.m)) == 2 * 3 * i3.m ** 2


def test_scalar_fitness_reference_values(i3, path, star):
    assert f_one_plus_one(i3, star) == 5
    assert f_one_plus_one(i3, path) == 3 + 36 * 2  # one deep vertex, no surplus
    assert f_one_plus_one(i3, EdgeSolution(0, i3.m)) == 36 * 6  # three deep
    heavy = star.flip(i3.edge_index(1, 2))
    assert f_one_plus_one(i3, heavy) == 6 + 36  # one surplus edge


def test_weight_cost_fitness_reference_values(i3, path, star):
    assert f_m(i3, star) == (3, 5)
    assert f_m(i3, path) == (3, 39)
    assert f_m(i3, EdgeSolution(0, i3.m)) == (0, 108)


def test_deficiency_cost_fitness_reference_values(i3, path, star):
    assert f_m2(i3, star) == (0, 5)
    assert f_m2(i3, path) == (1, 3)
    assert f_m2(i3, EdgeSolution(0, i3.m)) == (108, 0)


def test_vertex_fitness_reference_values(i3):
    inst = all_ones(5)
    assert vertex_cost(inst, VertexSolution(0b11111, 5)) == 5
    assert vertex_cost(i3, VertexSolution(0b001, 3)) == 4
    assert vertex_cost(i3, VertexSolution(0, 3)) == 7


def _instances_up_to_4():
    rng = np.random.default_rng(41)
    out = []
    for n in (3, 4):
        for _ in range(3):
            m = n * (n + 1) // 2
            out.append(Instance(n, [int(w) for w in rng.integers(1, 3, size=m)]))
    return out


def test_scalar_fitness_bridges_feasibility_exhaustively():
    for inst in _instances_up_to_4():
        cut = inst.m ** 2
        for bits in range(1 << inst.m):
            x = EdgeSolution(bits, inst.m)
            assert (f_one_plus_one(inst, x) < cut) == is_feasible(inst, x)


def test_vector_fitness_bridges_feasibility_exhaustively():
    for inst in _instances_up_to_4():
        cut = inst.m ** 2
        for bits in range(1 << inst.m):
            x = EdgeSolution(bits, inst.m)
            ok = is_feasible(inst, x)
            h, f = f_m(inst, x)
            assert (h == inst.n and f < cut) == ok
            a, f2 = f_m2(inst, x)
            assert (a == 0 and f2 < cut) == ok


# --- dominance ----------------------------------------------------------------


def test_dominance_examples_weight_cost():
    n = 4
    assert dominates_gsemo((3, 10), (3, 10), n) is Dominance.EQUAL
    # a surplus solution loses to anything lighter
    assert dominates_gsemo((5, 0), (2, 99), n) is Dominance.DOMINATED
    assert dominates_gsemo((2, 99), (5, 0), n) is Dominance.STRICT
    # distinct in-range weights never compare
    assert dominates_gsemo((2, 0), (3, 0), n) is Dominance.INCOMPARABLE
    assert dominates_gsemo((3, 4), (3, 9), n) is Dominance.STRICT


def test_dominance_examples_near_n():
    n = 6
    assert dominates_gsemo1((6, 5), (7, 5), n) is Dominance.INCOMPARABLE
    assert dominates_gsemo1((5, 99), (3, 0), n) is Dominance.STRICT  # closer to n
    assert dominates_gsemo1((6, 4), (6, 9), n) is Dominance.STRICT
    # equal distance on opposite sides falls through to the fitness values
    assert dominates_gsemo1((4, 7), (8, 7), n) is Dominance.EQUAL
    assert dominates_gsemo1((4, 6), (8, 7), n) is Dominance.STRICT


def test_dominance_examples_deficiency():
    assert dominates_gsemo2((0, 5), (1, 5)) is Dominance.INCOMPARABLE
    assert dominates_gsemo2((3, 99), (7, 0)) is Dominance.STRICT
    assert dominates_gsemo2((2, 4), (2, 4)) is Dominance.EQUAL


def _grid_values(n, m):
    return [0, 1, 3, m * m - 1, m * m, m * m + 5]


@pytest.mark.parametrize("n", [3, 6])
def test_incomparability_characterizations(n):
    m = n * (n + 1) // 2
    fs = _grid_values(n, m)
    for hy in range(m + 1):
        for hz in range(m + 1):
            for fy in fs:
                for fz in fs:
                    v = dominates_gsemo((hy, fy), (hz, fz), n)
                    assert (v is Dominance.INCOMPARABLE) == (
                        hy <= n and hz <= n and hy != hz
                    )
                    v1 = dominates_gsemo1((hy, fy), (hz, fz), n)
                    assert (v1 is Dominance.INCOMPARABLE) == (
                        n <= hy <= n + 1 and n <= hz <= n + 1 and hy != hz
                    )
    for ay in range(m + 2):
        for az in range(m + 2):
            for fy in fs:
                for fz in fs:
                    v2 = dominates_gsemo2((ay, fy), (az, fz))
                    assert (v2 is Dominance.INCOMPARABLE) == (
                        ay <= 1 and az <= 1 and ay != az
                    )


_pair = st.tuples(st.integers(0, 12), st.integers(0, 200))


@given(y=_pair, z=_pair, n=st.integers(2, 8))
def test_dominance_verdicts_are_mutually_consistent(y, z, n):
    for rel in (
        lambda a, b: dominates_gsemo(a, b, n),
        lambda a, b: dominates_gsemo1(a, b, n),
        lambda a, b: dominates_gsemo2(a, b),
    ):
        assert rel(y, y) is Dominance.EQUAL
        forward, backward = rel(y, z), rel(z, y)
        assert (forward is Dominance.STRICT) == (backward is Dominance.DOMINATED)
        assert (forward is Dominance.EQUAL) == (backward is Dominance.EQUAL)
        assert (forward is Dominance.INCOMPARABLE) == (
            backward is Dominance.INCOMPARABLE
        )
        assert forward.weak == (forward in (Dominance.STRICT, Dominance.EQUAL))
