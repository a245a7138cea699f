"""Vertex-set solution representation: choose the root's children.

A bit string of length n marks which vertices hang directly off the root
(bit i = vertex i+1).  Every other vertex attaches greedily: to its
lowest-index weight-1 neighbour among the chosen children if one exists,
otherwise to the lowest-index chosen child.  Any nonempty choice therefore
decodes to a feasible two-hop spanning tree; the empty choice decodes to
nothing and is priced at the worst-tree cost 2n + 1 so search moves away
from it.  `child_set_cost` prices a raw child bitmask; the vertex EA calls
it on every offspring.  It works on whole bitmasks: with C the child mask
and reach the union of the children's weight-1 neighbourhoods, the cost is
|C| + |C \\ n1_mask(0)| + 2(n - |C|) - |reach \\ C \\ {0}|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_model import Instance
from .edge_repr import EdgeSolution, _split_solution_text


@dataclass(frozen=True)
class VertexSolution:
    """Bit string over vertices 1..n; bit i-1 set means i is a root child."""

    bits: int
    n: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits out of range for n={self.n}")

    @property
    def hamming(self) -> int:
        return self.bits.bit_count()

    def chosen(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.bits >> (v - 1) & 1)

    def to_text(self) -> str:
        width = (self.n + 3) // 4
        return f"v:{self.n}:{self.bits:0{width}x}"

    @classmethod
    def from_text(cls, text: str) -> "VertexSolution":
        kind, length, payload = _split_solution_text(text)
        if kind != "v":
            raise ValueError(f"expected vertex solution 'v:...', got kind {kind!r}")
        return cls(int(payload, 16), length)


def build_tree(inst: Instance, x: VertexSolution) -> tuple[int, ...]:
    """Decode x to a parent map: entry v is v's parent, entry 0 is 0.

    Requires at least one chosen child; the empty solution decodes to no
    tree at all (see `cost`).
    """
    if x.n != inst.n:
        raise ValueError(f"solution width {x.n} does not match instance n={inst.n}")
    if x.bits == 0:
        raise ValueError("empty child set decodes to no tree")
    children_mask = x.bits << 1  # as a vertex mask over 1..n
    lowest_child = (children_mask & -children_mask).bit_length() - 1
    parent = [0] * (inst.n + 1)
    for v in range(1, inst.n + 1):
        if children_mask >> v & 1:
            continue
        near = inst.n1_mask(v) & children_mask
        parent[v] = (near & -near).bit_length() - 1 if near else lowest_child
    return tuple(parent)


def cost(inst: Instance, x: VertexSolution) -> int:
    """Cost of the decoded tree; 2n + 1 for the empty child set."""
    if x.n != inst.n:
        raise ValueError(f"solution width {x.n} does not match instance n={inst.n}")
    return child_set_cost(inst, x.bits)


def child_set_cost(inst: Instance, bits: int) -> int:
    """`cost` of the child set given as a raw bitmask, without validation.

    With C the children as a vertex mask (`bits << 1`), k = |C| and reach
    the union of the weight-1 neighbourhoods `n1_mask(c)` over c in C:

        cost = k + |C \\ n1_mask(0)| + 2(n - k) - |reach \\ C \\ {0}|

    Each child pays its root edge (one, plus one if that edge has weight
    2); each other vertex pays 2, less 1 if it has a weight-1 edge to some
    child.  That is |C| ORs and three popcounts instead of a loop over all
    n vertices.
    """
    n = inst.n
    if bits == 0:
        return 2 * n + 1
    children = bits << 1
    n1_mask = inst.n1_mask
    reach = 0
    t = children
    while t:
        b = t & -t
        t ^= b
        reach |= n1_mask(b.bit_length() - 1)
    k = bits.bit_count()
    heavy = (children & ~n1_mask(0)).bit_count()
    near = (reach & ~children & ~1).bit_count()
    return k + heavy + 2 * (n - k) - near


def to_edge_solution(inst: Instance, x: VertexSolution) -> EdgeSolution:
    parent = build_tree(inst, x)
    bits = 0
    for v in range(1, inst.n + 1):
        bits |= 1 << inst.edge_index(parent[v], v)
    return EdgeSolution(bits, inst.m)
