"""Independent reference implementations used to cross-check the package.

Everything here favours clarity over speed: adjacency lives in dicts of
sets, distances come from a queue BFS, components from union-find, and
minima from exhaustive enumeration.  None of it shares code with the
bitmask machinery in ``hoptree`` beyond the public data types, except the
reference operation scans: the certifier's earlier loop code, which still
applies moves through ``apply_move_edges`` and ``HopTree.from_edge_solution``.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from hoptree.certifier import HopTree, Move, apply_move_edges
from hoptree.fitness import Dominance
from hoptree.graph_model import Instance


def all_ones(n: int) -> Instance:
    return Instance(n, [1] * (n * (n + 1) // 2))


def all_twos(n: int) -> Instance:
    return Instance(n, [2] * (n * (n + 1) // 2))


def instance_fields(n: int, weights) -> tuple:
    """(weights, pairs, w2_mask, n1 masks, root_weights) of an instance,
    built edge by edge as hoptree.graph_model did before it read the masks
    from one digit string."""
    w = tuple(int(x) for x in weights)
    pairs = tuple(combinations(range(n + 1), 2))
    w2_mask = int("".join("1" if x == 2 else "0" for x in reversed(w)), 2)
    n1 = [0] * (n + 1)
    for (u, v), wi in zip(pairs, w):
        if wi == 1:
            n1[u] |= 1 << v
            n1[v] |= 1 << u
    return w, pairs, w2_mask, tuple(n1), (0,) + w[:n]


def n1_neighbors(inst: Instance, v: int) -> frozenset[int]:
    mask = inst.n1_mask(v)
    return frozenset(b for b in range(inst.n + 1) if mask >> b & 1)


# --- plain-graph views of an edge bitmask ------------------------------------


def edge_list(inst: Instance, bits: int) -> list[tuple[int, int]]:
    return [inst.pairs[i] for i in range(inst.m) if bits >> i & 1]


def neighbor_sets(inst: Instance, bits: int) -> dict[int, set[int]]:
    nbr: dict[int, set[int]] = {v: set() for v in range(inst.n + 1)}
    for u, v in edge_list(inst, bits):
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def bfs_distances(inst: Instance, bits: int) -> list[int]:
    """Hop distances from the root; unreachable vertices get n + 1."""
    nbr = neighbor_sets(inst, bits)
    dist = [None] * (inst.n + 1)
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in nbr[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return [inst.n + 1 if d is None else d for d in dist]


def component_count(inst: Instance, bits: int) -> int:
    parent = list(range(inst.n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edge_list(inst, bits):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(inst.n + 1)})


def solution_cost(inst: Instance, bits: int) -> int:
    return sum(inst.weight(u, v) for u, v in edge_list(inst, bits))


def deep_count(inst: Instance, bits: int, bound: int = 2) -> int:
    return sum(1 for d in bfs_distances(inst, bits)[1:] if d > bound)


def feasible(inst: Instance, bits: int) -> bool:
    return bin(bits).count("1") == inst.n and deep_count(inst, bits) == 0


def min_root_attachments(inst: Instance, bits: int) -> int:
    """Smallest D such that adding every root-D edge clears 2 < dist <= n.

    Works straight from the definition: try every vertex subset in
    ascending size and re-run the BFS on the augmented graph.
    """
    n = inst.n

    def mid_free(mask: int) -> bool:
        augmented = bits
        for v in range(1, n + 1):
            if mask >> v & 1:
                augmented |= 1 << inst.edge_index(0, v)
        return all(not 2 < d <= n for d in bfs_distances(inst, augmented)[1:])

    if mid_free(0):
        return 0
    for size in range(1, n + 1):
        for combo in combinations(range(1, n + 1), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if mid_free(mask):
                return size
    raise AssertionError("attaching every vertex always clears the middle band")


def single_attachment_fixes(inst: Instance, bits: int) -> tuple[int, ...]:
    """All v not already adjacent to the root whose attachment clears
    2 < dist <= n, by one BFS per attached vertex (hoptree.edge_repr's
    earlier test)."""
    n = inst.n
    out = []
    for v in range(1, n + 1):
        root_edge = 1 << inst.edge_index(0, v)
        if not bits & root_edge and all(not 2 < d <= n for d in bfs_distances(inst, bits | root_edge)[1:]):
            out.append(v)
    return tuple(out)


# --- exhaustive optimum -------------------------------------------------------


def brute_optimum(inst: Instance) -> tuple[int, frozenset[int]]:
    """Minimum two-hop tree cost with the lexicographically least child set."""
    best_cost = None
    best_set = None
    for size in range(1, inst.n + 1):
        for combo in combinations(range(1, inst.n + 1), size):
            total = sum(inst.weight(0, v) for v in combo)
            chosen = set(combo)
            for u in range(1, inst.n + 1):
                if u not in chosen:
                    total += min(inst.weight(u, v) for v in combo)
            key = (total, combo)
            if best_cost is None or key < (best_cost, tuple(sorted(best_set))):
                best_cost, best_set = total, frozenset(combo)
    return best_cost, best_set


# --- chunked enumeration of every child set -----------------------------------
#
# The optimum that hoptree.exact_oracle computed before it solved the cover:
# every nonempty child set is priced once, in numpy chunks.  It reaches
# further than brute_optimum (n = 20 in about 0.3 s) and serves as the
# reference for the cover search at n > 9.

_CHUNK = 1 << 18


def _chunk_picks(inst: Instance):
    """(cost, child set) per chunk: the least tree cost over the chunk's child
    sets, and the lex-least child set at that cost.

    Child sets are encoded as integers with bit v-1 for vertex v; the
    nonempty ones are swept once, in vectorized chunks of `_CHUNK`.
    """
    n = inst.n
    w0 = np.array(inst.root_weights, dtype=np.int64)
    n1 = [inst.n1_mask(v) >> 1 for v in range(n + 1)]  # shifted to child-set encoding
    total = 1 << n
    for lo in range(1, total, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        costs = np.zeros(masks.shape, dtype=np.int64)
        for v in range(1, n + 1):
            member = (masks >> (v - 1)) & 1
            covered = (masks & n1[v]) != 0
            costs += member * w0[v] + (1 - member) * (2 - covered)
        best = int(costs.min())
        yield best, _lex_least(masks[costs == best], n)


def _lex_least(masks: np.ndarray, n: int) -> int:
    """The mask in `masks` whose sorted vertex tuple is least.

    Takes each vertex, lowest first, that some remaining mask contains,
    keeps only the masks containing it, and stops once the vertices taken
    form one of the masks: that mask is a prefix of every other one left.
    """
    taken = 0
    for v in range(1, n + 1):
        bit = 1 << (v - 1)
        with_v = masks[(masks & bit) != 0]
        if with_v.size:
            masks = with_v
            taken |= bit
            if (masks == taken).any():
                break
    return taken


def sweep_optimum(inst: Instance) -> tuple[int, frozenset[int]]:
    """Least tree cost and the lex-least optimal child set, by pricing every
    child set; each chunk offers its lex-least cheapest set and the lex-least
    of the cheapest offers wins."""
    picks = list(_chunk_picks(inst))
    best = min(cost for cost, _ in picks)
    mask = _lex_least(np.array([m for cost, m in picks if cost == best], dtype=np.int64), inst.n)
    return best, frozenset(v for v in range(1, inst.n + 1) if mask >> (v - 1) & 1)


def brute_min_cover(sets: list[int], universe: int) -> int:
    """Fewest of `sets` covering `universe`, by trying every choice in
    increasing size."""
    for size in range(len(sets) + 1):
        for combo in combinations(sets, size):
            union = 0
            for s in combo:
                union |= s
            if universe & ~union == 0:
                return size
    raise ValueError("the sets do not cover the universe")


# --- random structures --------------------------------------------------------


def random_solution_bits(rng: np.random.Generator, m: int) -> int:
    return int.from_bytes(rng.bytes((m + 7) // 8), "little") & ((1 << m) - 1)


def random_tree(inst: Instance, rng: np.random.Generator) -> HopTree:
    """Uniformly messy two-hop tree: random child set, random attachments."""
    n = inst.n
    k = int(rng.integers(1, n + 1))
    kids = [int(v) for v in rng.choice(np.arange(1, n + 1), size=k, replace=False)]
    parent = [0] * (n + 1)
    kid_set = set(kids)
    for v in range(1, n + 1):
        if v not in kid_set:
            parent[v] = kids[int(rng.integers(len(kids)))]
    return HopTree(tuple(parent))


# --- tree roles by linear scans of the parent map ------------------------------


def children_of_root(t: HopTree) -> tuple[int, ...]:
    return tuple(v for v in range(1, t.n + 1) if t.parent[v] == 0)


def grandchildren(t: HopTree) -> tuple[int, ...]:
    return tuple(v for v in range(1, t.n + 1) if t.parent[v] != 0)


def children(t: HopTree, v: int) -> tuple[int, ...]:
    return tuple(u for u in range(1, t.n + 1) if t.parent[u] == v)


def has_child(t: HopTree, v: int) -> bool:
    return any(t.parent[u] == v for u in range(1, t.n + 1))


def depth(t: HopTree, v: int) -> int:
    if v == 0:
        return 0
    return 1 if t.parent[v] == 0 else 2


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


# --- exhaustive rewrite-applicability scans -----------------------------------
#
# Each scan re-derives the vertex roles from the parent map and enumerates
# every candidate tuple, answering only "does a matching pattern exist?".


def _roles(t: HopTree) -> tuple[list[int], list[int], list[int]]:
    n = t.n
    kids = [v for v in range(1, n + 1) if t.parent[v] == 0]
    gkids = [v for v in range(1, n + 1) if t.parent[v] != 0]
    occupied = {t.parent[v] for v in gkids}
    leaves = [v for v in range(1, n + 1) if v not in occupied]
    return kids, gkids, leaves


def rewrite_exists(inst: Instance, t: HopTree, op: int) -> bool:
    kids, gkids, leaves = _roles(t)
    w = inst.weight
    if op == 1:
        return any(w(v, t.parent[v]) == 2 and w(0, v) == 1 for v in gkids)
    if op == 2:
        return any(
            t.parent[v2] != v1 and w(v2, t.parent[v2]) == 2 and w(v1, v2) == 1
            for v1 in kids
            for v2 in gkids
        )
    if op == 3:
        childless = [v for v in kids if v in leaves]
        return any(
            w(0, v1) == 2 and w(v1, v2) == 1
            for v1 in childless
            for v2 in kids
            if v2 != v1
        )
    if op == 4:
        return any(
            w(v1, t.parent[v1]) == w(0, v1)
            and v2 != v1
            and w(v2, t.parent[v2]) == 2
            and w(v1, v2) == 1
            for v1 in gkids
            for v2 in leaves
        )
    if op in (5, 6):
        for v1 in gkids:
            if op == 5 and not (w(v1, t.parent[v1]) == 1 and w(0, v1) == 2):
                continue
            hooks = [
                v
                for v in leaves
                if v != v1 and w(v, t.parent[v]) == 2 and w(v1, v) == 1
            ]
            if len(hooks) >= 2:
                return True
        return False
    raise ValueError(f"no rewrite scan for op {op}")


# --- reference operation scans -------------------------------------------------
#
# The loop scans and the edge round trip that hoptree.certifier used before it
# scanned role bitmasks, kept verbatim so the bitmask scans can be compared
# against them move for move.  certify_three_halves returns the refuting move
# (None when certified) rather than a CertificateResult.


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def apply_move_tree(inst: Instance, t: HopTree, move: Move) -> HopTree:
    return HopTree.from_edge_solution(inst, apply_move_edges(inst, t.to_edge_solution(inst), move))


def find_op1(inst: Instance, t: HopTree) -> Move | None:
    """Grandchild with a weight-2 parent edge but a weight-1 root edge: rehang at root."""
    for v1 in grandchildren(t):
        p1 = t.parent[v1]
        if inst.weight(v1, p1) == 2 and inst.weight(0, v1) == 1:
            return Move(1, (_edge(v1, p1),), (_edge(0, v1),), -1)
    return None


def find_op2(inst: Instance, t: HopTree) -> Move | None:
    """Grandchild on a weight-2 edge that has a weight-1 link to some root child."""
    kids = children_of_root(t)
    gkids = grandchildren(t)
    for v1 in kids:
        for v2 in gkids:
            p2 = t.parent[v2]
            if p2 != v1 and inst.weight(v2, p2) == 2 and inst.weight(v1, v2) == 1:
                return Move(2, (_edge(v2, p2),), (_edge(v1, v2),), -1)
    return None


def find_op3(inst: Instance, t: HopTree) -> Move | None:
    """Childless root child on a weight-2 root edge with a weight-1 link to a sibling."""
    kids = children_of_root(t)
    for v1 in kids:
        if has_child(t, v1) or inst.weight(0, v1) != 2:
            continue
        for v2 in kids:
            if v2 != v1 and inst.weight(v1, v2) == 1:
                return Move(3, (_edge(0, v1),), (_edge(v1, v2),), -1)
    return None


def _leaf_roles(t: HopTree) -> tuple[int, ...]:
    """Vertices usable as relocation targets: grandchildren or childless root children."""
    out = []
    for v in range(1, t.n + 1):
        if t.parent[v] != 0 or not has_child(t, v):
            out.append(v)
    return tuple(out)


def find_op4(inst: Instance, t: HopTree) -> Move | None:
    """Grandchild whose parent edge matches its root edge weight, pulled up to the
    root while capturing a weight-2-attached leaf over a weight-1 link."""
    leaves = _leaf_roles(t)
    for v1 in grandchildren(t):
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
    for v1 in grandchildren(t):
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
    for v1 in grandchildren(t):
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


_OP_SCANS = (find_op1, find_op2, find_op3, find_op4, find_op5)


def certify_three_halves(inst: Instance, t: HopTree) -> Move | None:
    """The first refuting move of operations 1-5, or None when certified."""
    for scan in _OP_SCANS:
        move = scan(inst, t)
        if move is not None:
            return move
    return None


def improve_until_certified(inst: Instance, t: HopTree) -> tuple[HopTree, list[Move]]:
    applied: list[Move] = []
    while (move := certify_three_halves(inst, t)) is not None:
        t = apply_move_tree(inst, t, move)
        applied.append(move)
    return t, applied


# --- dominance reference ---------------------------------------------------------


def dominates_gsemo(y: tuple[int, int], z: tuple[int, int], n: int) -> Dominance:
    """Weight-slotted dominance: weights in [0, n] compete only at equal weight;
    once either weight leaves [0, n], lower weight wins outright.  The gsemo
    run keeps weight slots instead of calling it; tests check that the slots
    follow this rule."""
    hy, fy = y
    hz, fz = z
    if hy <= n and hz <= n and hy != hz:
        return Dominance.INCOMPARABLE
    a, b = (fy, fz) if hy == hz else (hy, hz)
    if a < b:
        return Dominance.STRICT
    if a > b:
        return Dominance.DOMINATED
    return Dominance.EQUAL


# --- algorithm-state structure checks -----------------------------------------


def check_population_invariant(state) -> None:
    """Assert the population shape promised for the state's algorithm."""
    n = state.inst.n
    algo = state.algo
    if algo in ("ea-edge", "ea-vertex"):
        assert isinstance(state.f, int)
        return
    if algo == "gsemo":
        if state.over is not None:
            assert not state.slots, "weight slots must be empty while over-budget"
            assert state.over[0] > n
            assert state.over[1].bit_count() == state.over[0]
        else:
            assert state.slots
            assert len(state.slots) <= n + 1
            assert sorted(state.slot_keys) == sorted(state.slots)
            assert len(set(state.slot_keys)) == len(state.slot_keys)
            for h, entry in state.slots.items():
                assert 0 <= h <= n
                assert entry[0].bit_count() == h
        return
    assert 1 <= len(state.members) <= 2
    firsts = sorted(z[0] for z in state.members)
    if algo == "gsemo1":
        for z in state.members:
            assert z[2].bit_count() == z[0]
        if len(firsts) == 2:
            assert firsts == [n, n + 1]
    else:  # gsemo2
        assert all(a >= 0 for a in firsts)
        if len(firsts) == 2:
            assert firsts == [0, 1]
