"""Two-hop trees, local improvement operations, and the 3/2 certificate.

A feasible solution is a spanning tree where every vertex is a child or a
grandchild of the root.  Operations 1-5 are weight-pattern rewrites that
each cut the tree cost by exactly 1 while preserving feasibility; a tree
admitting none of them costs at most 3/2 times the optimum, so scanning
them yields a certificate.  Operations 6 and 7 are the two-step variant
used by the deficiency-driven search: 6 trades feasibility for a cost-2
improvement (leaving exactly one deficient attachment), 7 repairs it.

The detectors work on role masks (`Roles`, bit v for vertex v) built once
per tree in O(n): root children K, grandchildren G, root children with a
child H, vertices whose parent edge (P2) or root edge (R2) weighs 2, and the
weight-2-attached leaves L2 = (G | K & ~H) & P2.  Each scan walks one
candidate mask in ascending order and tests the candidate's weight-1
neighbourhood `n1_mask(v)` against a target mask at once, so it reports the
same first match in ascending index order as a loop over candidate tuples.
Moves are applied to the parent map directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph_model import Instance
from .edge_repr import (
    EdgeSolution,
    adjacency,
    bfs_forest,
    is_feasible,
    metrics,
    single_attachment_fixes,
)
from .fitness import surplus_value


class TreeError(ValueError):
    """Raised when a parent map is not a two-hop spanning tree."""


@dataclass(frozen=True)
class HopTree:
    """Spanning tree of depth at most two, as a parent map.

    `parent[v]` is v's parent for v in 1..n; entry 0 is 0 by convention.
    """

    parent: tuple[int, ...]

    def __post_init__(self):
        p = self.parent
        n = len(p) - 1
        if n < 1 or p[0] != 0:
            raise TreeError("parent map must cover vertices 0..n with parent[0] = 0")
        for v in range(1, n + 1):
            pv = p[v]
            if not 0 <= pv <= n or pv == v:
                raise TreeError(f"vertex {v} has invalid parent {pv}")
            if pv != 0 and p[pv] != 0:
                raise TreeError(f"vertex {v} sits deeper than two hops (parent {pv})")

    @property
    def n(self) -> int:
        return len(self.parent) - 1

    def depth(self, v: int) -> int:
        if v == 0:
            return 0
        return 1 if self.parent[v] == 0 else 2

    def cost(self, inst: Instance) -> int:
        return sum(inst.weight(self.parent[v], v) for v in range(1, self.n + 1))

    def to_edge_solution(self, inst: Instance) -> EdgeSolution:
        bits = 0
        for v in range(1, self.n + 1):
            bits |= 1 << inst.edge_index(self.parent[v], v)
        return EdgeSolution(bits, inst.m)

    @classmethod
    def from_edge_solution(cls, inst: Instance, x: EdgeSolution) -> "HopTree":
        if not is_feasible(inst, x):
            raise TreeError("edge solution is not a two-hop spanning tree")
        parent, _ = bfs_forest(inst.n, adjacency(inst, x))
        return cls(tuple(parent))


@dataclass(frozen=True)
class VertexPartition:
    """Vertices split by depth and parent-edge weight.

    v11/v12: root children with weight-1/weight-2 root edges; v21/v22:
    grandchildren with weight-1/weight-2 parent edges.  The tree cost obeys
    c = n + |v12| + |v22|.
    """

    v11: frozenset[int]
    v12: frozenset[int]
    v21: frozenset[int]
    v22: frozenset[int]

    def identity_cost(self, n: int) -> int:
        return n + len(self.v12) + len(self.v22)


def partition(inst: Instance, t: HopTree) -> VertexPartition:
    v11, v12, v21, v22 = set(), set(), set(), set()
    for v in range(1, t.n + 1):
        p = t.parent[v]
        w = inst.weight(p, v)
        if p == 0:
            (v11 if w == 1 else v12).add(v)
        else:
            (v21 if w == 1 else v22).add(v)
    return VertexPartition(frozenset(v11), frozenset(v12), frozenset(v21), frozenset(v22))


@dataclass(frozen=True)
class Move:
    """An edge rewrite: remove `removed`, add `added`, changing cost by `delta`.

    For operations 1-5 delta is -1 and feasibility is preserved; operation 6
    has delta -2 but leaves one deficient attachment; operation 7 repairs a
    one-deficient tree at delta <= +1.
    """

    op: int
    removed: tuple[tuple[int, int], ...]
    added: tuple[tuple[int, int], ...]
    delta: int

    def describe(self) -> str:
        rm = ",".join(f"({u},{v})" for u, v in self.removed)
        ad = ",".join(f"({u},{v})" for u, v in self.added)
        return f"op={self.op} remove=[{rm}] add=[{ad}] delta={self.delta:+d}"


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def apply_move_edges(inst: Instance, x: EdgeSolution, move: Move) -> EdgeSolution:
    bits = x.bits
    for u, v in move.removed:
        i = inst.edge_index(u, v)
        if not bits >> i & 1:
            raise ValueError(f"move removes absent edge ({u},{v})")
        bits ^= 1 << i
    for u, v in move.added:
        i = inst.edge_index(u, v)
        if bits >> i & 1:
            raise ValueError(f"move adds already-present edge ({u},{v})")
        bits |= 1 << i
    return EdgeSolution(bits, x.m)


def apply_move_tree(inst: Instance, t: HopTree, move: Move) -> HopTree:
    """Apply `move` to the parent map: a removed tree edge frees the vertex
    below it, an added absent edge hangs its free endpoint.  An added edge
    with no free endpoint re-orients the tree (operations 1-6 never do); it
    is settled on the edge set.  A result that is not a two-hop spanning
    tree raises TreeError."""
    parent = list(t.parent)
    for u, v in move.removed:
        below = _lower_end(inst, parent, u, v)
        if below is None:
            raise ValueError(f"move removes absent edge ({u},{v})")
        parent[below] = -1
    for u, v in move.added:
        if _lower_end(inst, parent, u, v) is not None:
            raise ValueError(f"move adds already-present edge ({u},{v})")
        if parent[v] == -1:
            parent[v] = u
        elif parent[u] == -1:
            parent[u] = v
        else:
            return HopTree.from_edge_solution(inst, apply_move_edges(inst, t.to_edge_solution(inst), move))
    return HopTree(tuple(parent))


def _lower_end(inst: Instance, parent: list[int], u: int, v: int) -> int | None:
    """The vertex whose parent edge is (u, v), or None if it is no tree edge."""
    inst.edge_index(u, v)  # rejects self-loops and out-of-range pairs
    if parent[v] == u:
        return v
    return u if parent[u] == v else None


# --- operation detectors ----------------------------------------------------


class Roles(NamedTuple):
    """Vertex role masks of a tree; see the module docstring."""

    kids: int  # K
    gkids: int  # G
    parents: int  # H
    p2: int
    r2: int
    l2: int


def roles(inst: Instance, t: HopTree) -> Roles:
    """The role masks of t, from its parent map and the weight-1 neighbourhoods."""
    n1 = inst.n1_mask
    below: dict[int, int] = {}  # root child -> mask of its children
    for v, p in enumerate(t.parent):
        if p:
            below[p] = below.get(p, 0) | 1 << v
    gkids = parents = p2 = 0
    for h, c in below.items():
        gkids |= c
        parents |= 1 << h
        p2 |= c & ~n1(h)
    everyone = (1 << (t.n + 1)) - 2
    kids = everyone & ~gkids
    r2 = everyone & ~n1(0)
    p2 |= kids & r2
    return Roles(kids, gkids, parents, p2, r2, p2 & ~parents)


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _first(inst: Instance, candidates: int, targets: int, need: int = 1) -> tuple[int, int]:
    """(v, hits): the lowest candidate v with at least `need` (1 or 2) weight-1
    neighbours in `targets`, and that neighbour mask; (0, 0) if there is none."""
    n1 = inst.n1_mask
    while candidates:
        v = _low(candidates)
        hits = n1(v) & targets
        if hits and (need == 1 or hits & (hits - 1)):
            return v, hits
        candidates &= candidates - 1
    return 0, 0


def find_op1(inst: Instance, t: HopTree, r: Roles | None = None) -> Move | None:
    """Grandchild with a weight-2 parent edge but a weight-1 root edge: rehang at root."""
    r = r or roles(inst, t)
    v1 = _low(r.gkids & r.p2 & ~r.r2)
    return None if v1 < 0 else Move(1, (_edge(v1, t.parent[v1]),), (_edge(0, v1),), -1)


def find_op2(inst: Instance, t: HopTree, r: Roles | None = None) -> Move | None:
    """Grandchild on a weight-2 edge that has a weight-1 link to some root child
    (never its own parent: that edge weighs 2)."""
    r = r or roles(inst, t)
    v1, hits = _first(inst, r.kids, r.gkids & r.p2)
    v2 = _low(hits)
    return Move(2, (_edge(v2, t.parent[v2]),), (_edge(v1, v2),), -1) if v1 else None


def find_op3(inst: Instance, t: HopTree, r: Roles | None = None) -> Move | None:
    """Childless root child on a weight-2 root edge with a weight-1 link to a sibling."""
    r = r or roles(inst, t)
    v1, hits = _first(inst, r.kids & ~r.parents & r.r2, r.kids)
    return Move(3, (_edge(0, v1),), (_edge(v1, _low(hits)),), -1) if v1 else None


def find_op4(inst: Instance, t: HopTree, r: Roles | None = None) -> Move | None:
    """Grandchild whose parent edge matches its root edge weight, pulled up to the
    root while capturing a weight-2-attached leaf over a weight-1 link."""
    r = r or roles(inst, t)
    v1, hits = _first(inst, r.gkids & ~(r.p2 ^ r.r2), r.l2)
    if not v1:
        return None
    v2 = _low(hits)
    cut = (_edge(v1, t.parent[v1]), _edge(v2, t.parent[v2]))
    return Move(4, cut, (_edge(0, v1), _edge(v1, v2)), -1)


def _leaf_pair(t: HopTree, v1: int, hits: int) -> tuple[tuple, tuple]:
    """Parent edges of the two lowest leaves in `hits`, and v1's edges to them."""
    v2, v3 = _low(hits), _low(hits & (hits - 1))
    return (_edge(t.parent[v2], v2), _edge(t.parent[v3], v3)), (_edge(v1, v2), _edge(v1, v3))


def find_op5(inst: Instance, t: HopTree, r: Roles | None = None) -> Move | None:
    """Grandchild on a weight-1 edge with a weight-2 root edge that can absorb two
    weight-2-attached leaves over weight-1 links, paying the root edge once."""
    r = r or roles(inst, t)
    v1, hits = _first(inst, r.gkids & ~r.p2 & r.r2, r.l2, need=2)
    if not v1:
        return None
    cut, hang = _leaf_pair(t, v1, hits)
    return Move(5, (_edge(v1, t.parent[v1]),) + cut, (_edge(0, v1),) + hang, -1)


def find_op6(inst: Instance, t: HopTree, partner_f2: int | None = None) -> Move | None:
    """Hang two weight-2-attached leaves under a grandchild via weight-1 links.

    Cuts cost by 2 but pushes the two leaves to depth three, leaving a tree
    whose deficiency is exactly one attachment.  When `partner_f2` is given,
    the move is withheld unless partner_f2 >= cost(t) - 1, mirroring the
    population condition under which the deficiency-driven search would
    accept the intermediate solution.
    """
    if partner_f2 is not None and partner_f2 < t.cost(inst) - 1:
        return None
    r = roles(inst, t)
    v1, hits = _first(inst, r.gkids, r.l2, need=2)
    return Move(6, *_leaf_pair(t, v1, hits), -2) if v1 else None


def find_op7(inst: Instance, x3: EdgeSolution, partner: EdgeSolution) -> Move | None:
    """Repair a one-deficient spanning tree by re-rooting its deficient branch.

    `x3` must be a connected spanning tree (n edges) fixable by a single
    root attachment; `partner` is the deficiency-free solution it is paired
    with.  The move swaps the witness's parent edge for its root edge and is
    returned only when cost(x3) <= f2(partner) - 2, i.e. when the repaired
    tree undercuts the partner.  Among witnesses, the shallowest (then
    lowest-index) one whose swap keeps every vertex within two hops is used.
    """
    met = metrics(inst, x3)
    if met.hamming != inst.n or met.n_cc != 1:
        raise ValueError("op 7 needs a connected spanning tree (n edges, one component)")
    witnesses = single_attachment_fixes(inst, x3)
    if met.n_mid == 0 or not witnesses:
        raise ValueError("op 7 needs a tree fixable by exactly one root attachment")
    if partner.m != inst.m:
        raise ValueError(f"partner width {partner.m} does not match instance m={inst.m}")
    if met.cost > surplus_value(inst, partner.bits) - 2:
        return None
    parent, _ = bfs_forest(inst.n, adjacency(inst, x3))
    for v in sorted(witnesses, key=lambda u: (met.dist[u], u)):
        p = parent[v]
        move = Move(7, (_edge(v, p),), (_edge(0, v),), inst.weight(0, v) - inst.weight(v, p))
        if is_feasible(inst, apply_move_edges(inst, x3, move)):
            return move
    return None


@dataclass(frozen=True)
class CertificateResult:
    certified: bool
    move: Move | None

    def describe(self) -> str:
        return "CERTIFIED" if self.certified else f"REFUTED {self.move.describe()}"


_OP_SCANS = (find_op1, find_op2, find_op3, find_op4, find_op5)


def certify_three_halves(inst: Instance, t: HopTree) -> CertificateResult:
    """Certify that none of operations 1-5 applies; such trees cost <= 3/2 optimum."""
    r = roles(inst, t)
    for scan in _OP_SCANS:
        move = scan(inst, t, r)
        if move is not None:
            return CertificateResult(False, move)
    return CertificateResult(True, None)


def improve_until_certified(inst: Instance, t: HopTree) -> tuple[HopTree, list[Move]]:
    """Apply refuting moves until the certificate holds.  Each move cuts the
    cost by 1 and cost is bounded below, so this terminates."""
    applied: list[Move] = []
    while True:
        result = certify_three_halves(inst, t)
        if result.certified:
            return t, applied
        t = apply_move_tree(inst, t, result.move)
        applied.append(result.move)
