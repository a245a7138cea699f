"""Fitness functions and dominance relations for the five search algorithms.

All fitness arithmetic is exact integer arithmetic.  Infeasibility is priced
with the coefficient m^2, which strictly exceeds any reachable cost
(c(x) <= 2m), so a scalar fitness value below m^2 certifies feasibility of
the structural property it penalizes.

Fitness values:

* scalar, for the edge (1+1) EA:  c(x) + m^2 * (2*N_{d>2}(x) + max(|x|-n, 0))
* weight/cost vector:             (|x|, c(x) + m^2 * N_{d>2}(x))
* deficiency/cost vector:         (|V_d(x)| + m^2 * (N_cc(x)-1),
                                   c(x) + m^2 * max(|x|-n, 0))

The search loops evaluate these on raw edge bits plus the neighbour
bitmasks they keep up to date (`scalar_value`, `depth_value`,
`surplus_value`, `deficiency_value`); `f_one_plus_one`, `f_m` and `f_m2`
compute the same values from an `EdgeSolution`.

`deficiency_value` is exact only when given an `exact_size` search.
Without one it returns the deficiency value when that is 0 or 1 and None
when it is larger (a deficiency set of two or more, or a disconnected
subgraph), which is all gsemo2's dominance needs once every member sits at
0 or 1.

Dominance verdicts are reported from the first argument's point of view.
"""

from __future__ import annotations

from enum import Enum

from .graph_model import Instance
from .edge_repr import (
    EdgeSolution,
    adjacency,
    cheap_deficiency_size,
    components,
    deficiency_set_size,
    edge_cost,
    root_component,
    two_hop_cover,
)


def scalar_value(inst: Instance, bits: int, adj: list[int]) -> int:
    """c(x) + m^2 * (2*N_{d>2}(x) + max(|x|-n, 0))."""
    over = bits.bit_count() - inst.n
    deep = inst.n + 1 - two_hop_cover(adj).bit_count()
    return edge_cost(inst, bits) + inst.m * inst.m * (2 * deep + (over if over > 0 else 0))


def depth_value(inst: Instance, bits: int, adj: list[int]) -> int:
    """c(x) + m^2 * N_{d>2}(x), the second objective of the weight/cost vector."""
    deep = inst.n + 1 - two_hop_cover(adj).bit_count()
    return edge_cost(inst, bits) + inst.m * inst.m * deep


def surplus_value(inst: Instance, bits: int) -> int:
    """c(x) + m^2 * max(|x|-n, 0), the second objective of the deficiency/cost vector."""
    over = bits.bit_count() - inst.n
    return edge_cost(inst, bits) + inst.m * inst.m * (over if over > 0 else 0)


def deficiency_value(inst: Instance, bits: int, adj: list[int], exact_size=None) -> int | None:
    """|V_d(x)| + m^2 * (N_cc(x)-1), the first objective of the deficiency/cost vector.

    With `exact_size` (normally a call to `deficiency_set_size`) the result
    is always the value.  Without it the result is the value when that is 0
    or 1, and None when it is larger, so a caller can reject without paying
    for the branch-and-bound search or for counting components.

    The work stops as early as the answer allows: a full two-hop cover gives
    0; otherwise the root's component is grown out from the cover, and a
    connected x takes the cheap one-attachment test.  A disconnected x has
    a value of at least m^2 > 1, so its components are counted only when
    `exact_size` asks for the exact value.
    """
    full = (1 << (inst.n + 1)) - 1
    cover = two_hop_cover(adj)
    if cover == full:
        return 0
    root = root_component(adj, cover)
    if root != full and exact_size is None:
        return None
    size = cheap_deficiency_size(adj, root, cover)
    if size is None:
        if exact_size is None:
            return None
        size = exact_size(EdgeSolution(bits, inst.m))
    if root == full:
        return size
    return size + inst.m * inst.m * (components(inst.n, adj)[0] - 1)


def f_one_plus_one(inst: Instance, x: EdgeSolution) -> int:
    return scalar_value(inst, x.bits, adjacency(inst, x))


def f_m(inst: Instance, x: EdgeSolution) -> tuple[int, int]:
    return x.hamming, depth_value(inst, x.bits, adjacency(inst, x))


def f_m2(inst: Instance, x: EdgeSolution, node_budget: int = 1_000_000) -> tuple[int, int]:
    adj = adjacency(inst, x)
    f1 = deficiency_value(inst, x.bits, adj, lambda y: deficiency_set_size(inst, y, node_budget))
    return f1, surplus_value(inst, x.bits)


class Dominance(Enum):
    """Relation of y to z: y strictly better, identical, worse, or neither."""

    STRICT = "strict"
    EQUAL = "equal"
    DOMINATED = "dominated"
    INCOMPARABLE = "incomparable"

    @property
    def weak(self) -> bool:
        """True iff y weakly dominates z."""
        return self in (Dominance.STRICT, Dominance.EQUAL)


def _by_value(a: int, b: int) -> Dominance:
    if a < b:
        return Dominance.STRICT
    if a > b:
        return Dominance.DOMINATED
    return Dominance.EQUAL


def dominates_gsemo1(y: tuple[int, int], z: tuple[int, int], n: int) -> Dominance:
    """Distance-to-n dominance keeping the weight-n and weight-(n+1) slots apart.

    Outside the [n, n+1] pair, a smaller |weight - n| wins; distance ties
    (equal weights, or the mirrored pair n-k / n+k) fall through to the cost
    component so that incomparability is confined to weights n vs n+1 and
    the population never exceeds those two slots.
    """
    hy, fy = y
    hz, fz = z
    if hy in (n, n + 1) and hz in (n, n + 1):
        if hy != hz:
            return Dominance.INCOMPARABLE
        return _by_value(fy, fz)
    dy = hy - n if hy >= n else n - hy
    dz = hz - n if hz >= n else n - hz
    if dy != dz:
        return Dominance.STRICT if dy < dz else Dominance.DOMINATED
    return _by_value(fy, fz)


def dominates_gsemo2(y: tuple[int, int], z: tuple[int, int]) -> Dominance:
    """Deficiency-first dominance: a deficiency value of 0 and of 1 coexist;
    anything above 1 is dominated by any smaller deficiency."""
    ay, by = y
    az, bz = z
    if ay <= 1 and az <= 1:
        if ay != az:
            return Dominance.INCOMPARABLE
        return _by_value(by, bz)
    if ay != az:
        return Dominance.STRICT if ay < az else Dominance.DOMINATED
    return _by_value(by, bz)
