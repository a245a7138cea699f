"""Two-hop trees, local improvement operations, and the 3/2 certificate.

A feasible solution is a spanning tree where every vertex is a child or a
grandchild of the root.  Operations 1-5 are weight-pattern rewrites that
each cut the tree cost by exactly 1 while preserving feasibility; a tree
admitting none of them costs at most 3/2 times the optimum, so scanning
them yields a certificate.  Operations 6 and 7 are the two-step variant
used by the deficiency-driven search: 6 trades feasibility for a cost-2
improvement (leaving exactly one deficient attachment), 7 repairs it.

All detectors scan candidate tuples in ascending index order and report the
first match, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_model import Instance
from .edge_repr import (
    EdgeSolution,
    adjacency,
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

    def children_of_root(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.parent[v] == 0)

    def grandchildren(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.parent[v] != 0)

    def children(self, v: int) -> tuple[int, ...]:
        return tuple(u for u in range(1, self.n + 1) if self.parent[u] == v)

    def has_child(self, v: int) -> bool:
        return any(self.parent[u] == v for u in range(1, self.n + 1))

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
        adj = adjacency(inst, x)
        n = inst.n
        parent = [0] * (n + 1)
        root_kids = adj[0]
        for v in range(1, n + 1):
            if root_kids >> v & 1:
                continue
            up = adj[v] & root_kids
            assert up, "feasible grandchild must neighbour a root child"
            parent[v] = (up & -up).bit_length() - 1
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
    return HopTree.from_edge_solution(inst, apply_move_edges(inst, t.to_edge_solution(inst), move))


# --- operation detectors ----------------------------------------------------


def find_op1(inst: Instance, t: HopTree) -> Move | None:
    """Grandchild with a weight-2 parent edge but a weight-1 root edge: rehang at root."""
    for v1 in t.grandchildren():
        p1 = t.parent[v1]
        if inst.weight(v1, p1) == 2 and inst.weight(0, v1) == 1:
            return Move(1, (_edge(v1, p1),), (_edge(0, v1),), -1)
    return None


def find_op2(inst: Instance, t: HopTree) -> Move | None:
    """Grandchild on a weight-2 edge that has a weight-1 link to some root child."""
    kids = t.children_of_root()
    gkids = t.grandchildren()
    for v1 in kids:
        for v2 in gkids:
            p2 = t.parent[v2]
            if p2 != v1 and inst.weight(v2, p2) == 2 and inst.weight(v1, v2) == 1:
                return Move(2, (_edge(v2, p2),), (_edge(v1, v2),), -1)
    return None


def find_op3(inst: Instance, t: HopTree) -> Move | None:
    """Childless root child on a weight-2 root edge with a weight-1 link to a sibling."""
    kids = t.children_of_root()
    for v1 in kids:
        if t.has_child(v1) or inst.weight(0, v1) != 2:
            continue
        for v2 in kids:
            if v2 != v1 and inst.weight(v1, v2) == 1:
                return Move(3, (_edge(0, v1),), (_edge(v1, v2),), -1)
    return None


def _leaf_roles(t: HopTree) -> tuple[int, ...]:
    """Vertices usable as relocation targets: grandchildren or childless root children."""
    out = []
    for v in range(1, t.n + 1):
        if t.parent[v] != 0 or not t.has_child(v):
            out.append(v)
    return tuple(out)


def find_op4(inst: Instance, t: HopTree) -> Move | None:
    """Grandchild whose parent edge matches its root edge weight, pulled up to the
    root while capturing a weight-2-attached leaf over a weight-1 link."""
    leaves = _leaf_roles(t)
    for v1 in t.grandchildren():
        p1 = t.parent[v1]
        if inst.weight(v1, p1) != inst.weight(0, v1):
            continue
        for v2 in leaves:
            if v2 == v1:
                continue
            p2 = t.parent[v2]
            if inst.weight(v2, p2) == 2 and inst.weight(v1, v2) == 1:
                return Move(
                    4,
                    (_edge(v1, p1), _edge(v2, p2)),
                    (_edge(0, v1), _edge(v1, v2)),
                    -1,
                )
    return None


def find_op5(inst: Instance, t: HopTree) -> Move | None:
    """Grandchild on a weight-1 edge with a weight-2 root edge that can absorb two
    weight-2-attached leaves over weight-1 links, paying the root edge once."""
    leaves = _leaf_roles(t)
    for v1 in t.grandchildren():
        p1 = t.parent[v1]
        if inst.weight(v1, p1) != 1 or inst.weight(0, v1) != 2:
            continue
        for i, v2 in enumerate(leaves):
            if v2 == v1 or inst.weight(t.parent[v2], v2) != 2 or inst.weight(v1, v2) != 1:
                continue
            for v3 in leaves[i + 1 :]:
                if v3 == v1 or inst.weight(t.parent[v3], v3) != 2 or inst.weight(v1, v3) != 1:
                    continue
                return Move(
                    5,
                    (_edge(v1, p1), _edge(t.parent[v2], v2), _edge(t.parent[v3], v3)),
                    (_edge(0, v1), _edge(v1, v2), _edge(v1, v3)),
                    -1,
                )
    return None


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
    leaves = _leaf_roles(t)
    for v1 in t.grandchildren():
        for i, v2 in enumerate(leaves):
            if v2 == v1 or inst.weight(t.parent[v2], v2) != 2 or inst.weight(v1, v2) != 1:
                continue
            for v3 in leaves[i + 1 :]:
                if v3 == v1 or inst.weight(t.parent[v3], v3) != 2 or inst.weight(v1, v3) != 1:
                    continue
                return Move(
                    6,
                    (_edge(t.parent[v2], v2), _edge(t.parent[v3], v3)),
                    (_edge(v1, v2), _edge(v1, v3)),
                    -2,
                )
    return None


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
    adj = adjacency(inst, x3)
    for v in sorted(witnesses, key=lambda u: (met.dist[u], u)):
        # the tree parent of v is its neighbour nearest the root
        up = [u for u in range(inst.n + 1) if adj[v] >> u & 1 and met.dist[u] == met.dist[v] - 1]
        p = min(up)
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
    for scan in _OP_SCANS:
        move = scan(inst, t)
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
