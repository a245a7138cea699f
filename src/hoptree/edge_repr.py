"""Edge-set solution representation and its structural metrics.

A candidate solution is a bit string over the m edge slots of an instance,
stored as a Python integer (bit i = edge i).  Solutions are not required to
be feasible: metrics below quantify how far a subgraph is from being a
spanning tree in which every vertex sits within two hops of the root.

Distances use the sentinel n+1 for vertices not connected to the root, so
`N_{d>i}` counts both too-deep and disconnected vertices, and
`N_{n>=d>2}` counts only the connected-but-too-deep ones.

This module is the one home of the graph kernels over vertex bitmasks:
adjacency and its in-place flip update, the breadth-first forest
(`bfs_forest`: root distances and tree parents, and through them the
metrics, the removable cycle edges and the certifier's parent maps),
components with the root's component, the root's component alone grown
out from its two-hop cover (`root_component`; it and `components` share
one growth loop), the two-hop cover, the edge cost, the deficiency tests
(the cheap one-attachment test and the exact search), and the exact
set-cover branch and bound (`min_cover`) behind that search and behind
`exact_oracle.optimum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph_model import Instance


@dataclass(frozen=True)
class EdgeSolution:
    """Bit string over edge slots; `bits` is the integer mask, `m` its width."""

    bits: int
    m: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.m):
            raise ValueError(f"bits out of range for m={self.m}")

    @property
    def hamming(self) -> int:
        return self.bits.bit_count()

    def has_edge(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def flip(self, i: int) -> "EdgeSolution":
        return EdgeSolution(self.bits ^ (1 << i), self.m)

    def edges(self, inst: Instance) -> tuple[tuple[int, int], ...]:
        return tuple(inst.pairs[i] for i in range(self.m) if self.bits >> i & 1)

    # Serialized form: "e:<m>:<hex>", hex digits encode `bits` most
    # significant digit first (plain integer hex, zero-padded).
    def to_text(self) -> str:
        width = (self.m + 3) // 4
        return f"e:{self.m}:{self.bits:0{width}x}"

    @classmethod
    def from_text(cls, text: str) -> "EdgeSolution":
        kind, length, payload = _split_solution_text(text)
        if kind != "e":
            raise ValueError(f"expected edge solution 'e:...', got kind {kind!r}")
        return cls(int(payload, 16), length)


def _split_solution_text(text: str) -> tuple[str, int, str]:
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"malformed solution string {text!r}; expected kind:length:hex")
    kind, length_s, payload = parts
    try:
        length = int(length_s)
    except ValueError:
        raise ValueError(f"bad length field in solution string {text!r}") from None
    if length < 1:
        raise ValueError(f"solution length must be >= 1, got {length}")
    return kind, length, payload


def solution_from_text(text: str):
    """Parse either representation by its kind tag ('e' or 'v')."""
    kind, _, _ = _split_solution_text(text)
    if kind == "e":
        return EdgeSolution.from_text(text)
    if kind == "v":
        from .vertex_repr import VertexSolution

        return VertexSolution.from_text(text)
    raise ValueError(f"unknown solution kind {kind!r}")


# --- adjacency and traversal over vertex bitmasks --------------------------


def toggle_edges(inst: Instance, adj: list[int], mask: int) -> None:
    """Flip the edges set in `mask` in the neighbour bitmasks `adj`, in place."""
    pairs = inst.pairs
    while mask:
        low = mask & -mask
        mask ^= low
        u, v = pairs[low.bit_length() - 1]
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u


def adjacency(inst: Instance, x: EdgeSolution) -> list[int]:
    """Per-vertex neighbour bitmasks of the selected subgraph."""
    if x.m != inst.m:
        raise ValueError(f"solution width {x.m} does not match instance m={inst.m}")
    adj = [0] * (inst.n + 1)
    toggle_edges(inst, adj, x.bits)
    return adj


def edge_cost(inst: Instance, bits: int) -> int:
    """Total weight of the edge set `bits`: one per edge, two per weight-2 edge."""
    return bits.bit_count() + (bits & inst.w2_mask).bit_count()


def bfs_forest(n: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """(parent, dist): a breadth-first spanning forest and the root distances.

    Each component is grown in layers from its lowest vertex, the root's
    first.  `parent[v]` is v's lowest-index neighbour in the layer before
    v's own; each component's first vertex is its own parent, so the
    self-parents count the components.  `dist[v]` is the hop distance from
    the root, with the sentinel n+1 outside the root's component.
    """
    parent = list(range(n + 1))
    dist = [n + 1] * (n + 1)
    dist[0] = 0
    unseen = (1 << (n + 1)) - 1
    while unseen:
        frontier = unseen & -unseen  # the first vertex of the next component
        unseen ^= frontier
        in_root = frontier == 1
        d = 0
        while frontier:
            d += 1
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                u = b.bit_length() - 1
                # the layer is walked in ascending order, so the first u to
                # reach a vertex is its lowest-index neighbour in the layer
                fresh = adj[u] & unseen
                unseen ^= fresh
                nxt |= fresh
                while fresh:
                    c = fresh & -fresh
                    fresh ^= c
                    v = c.bit_length() - 1
                    parent[v] = u
                    if in_root:
                        dist[v] = d
            frontier = nxt
    return parent, dist


def _grow(adj: list[int], comp: int, frontier: int) -> int:
    """Close the vertex set `comp` under adjacency, expanding from `frontier`.

    Every vertex of `comp` whose neighbours may lie outside it must be in
    `frontier`; the result is the union of the components `comp` touches.
    """
    while frontier:
        nxt = 0
        t = frontier
        while t:
            b = t & -t
            t ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & ~comp
        comp |= frontier
    return comp


def components(n: int, adj: list[int]) -> tuple[int, int]:
    """(component count, the root's component as a vertex bitmask)."""
    unseen = (1 << (n + 1)) - 1
    count = 0
    root = 0
    while unseen:
        # the lowest unseen vertex seeds the next component: the root first
        seed = unseen & -unseen
        comp = _grow(adj, seed, seed)
        if not count:
            root = comp
        unseen &= ~comp
        count += 1
    return count, root


def root_component(adj: list[int], cover: int) -> int:
    """The root's component, grown out from its two-hop cover `cover`.

    The cover is closed out to two hops, so the growth starts from the
    vertices outside it that touch it (the ones at distance three).  Near
    feasibility those are few, and the scan over the vertices outside the
    cover is short.
    """
    frontier = 0
    t = ((1 << len(adj)) - 1) & ~cover
    while t:
        b = t & -t
        t ^= b
        if adj[b.bit_length() - 1] & cover:
            frontier |= b
    return _grow(adj, cover | frontier, frontier)


def two_hop_cover(adj: list[int]) -> int:
    """Vertex bitmask of the root and every vertex within two hops of it."""
    cover = adj[0] | 1
    t = adj[0]
    while t:
        b = t & -t
        t ^= b
        cover |= adj[b.bit_length() - 1]
    return cover


@dataclass(frozen=True)
class EdgeMetrics:
    """Structural metrics of a selected subgraph.

    dist[v] is the hop distance from the root (dist[0] = 0); disconnected
    vertices carry the sentinel n+1, where n = len(dist) - 1.
    """

    hamming: int
    cost: int
    n_cc: int
    dist: tuple[int, ...]

    def n_d_gt(self, i: int) -> int:
        return sum(1 for d in self.dist[1:] if d > i)

    @property
    def n_mid(self) -> int:
        """Connected vertices deeper than two hops."""
        n = len(self.dist) - 1
        return sum(1 for d in self.dist[1:] if 2 < d <= n)

    @property
    def feasible(self) -> bool:
        n = len(self.dist) - 1
        return self.hamming == n and self.n_d_gt(2) == 0


def metrics(inst: Instance, x: EdgeSolution) -> EdgeMetrics:
    parent, dist = bfs_forest(inst.n, adjacency(inst, x))
    n_cc = sum(1 for v, p in enumerate(parent) if p == v)
    return EdgeMetrics(hamming=x.bits.bit_count(), cost=edge_cost(inst, x.bits), n_cc=n_cc, dist=tuple(dist))


def cost(inst: Instance, x: EdgeSolution) -> int:
    if x.m != inst.m:
        raise ValueError(f"solution width {x.m} does not match instance m={inst.m}")
    return edge_cost(inst, x.bits)


def is_feasible(inst: Instance, x: EdgeSolution) -> bool:
    """True iff x spans every vertex within two hops of the root with n edges."""
    if x.bits.bit_count() != inst.n:
        return False
    return two_hop_cover(adjacency(inst, x)) == (1 << (inst.n + 1)) - 1


# --- deficiency: how many root attachments repair the deep vertices --------


class DeficiencySearchBudget(RuntimeError):
    """Exact cover search exceeded its node budget; result would be unverified."""


class DeficiencyClass(Enum):
    ZERO = 0
    ONE = 1
    MANY = 2


def cheap_deficiency_size(adj: list[int], root: int, cover: int) -> int | None:
    """The deficiency-set size when it is 0 or 1, else None.

    `root` is the root's component and `cover` its two-hop cover
    (`two_hop_cover(adj)`).  The vertices of `root` beyond two hops need
    attachments; one attachment v suffices iff all of them lie in v's
    closed neighbourhood, so only the neighbours of the lowest one are
    tried.  Settles the common sizes without the exact search.
    """
    deep = root & ~cover
    if deep == 0:
        return 0
    low = deep & -deep
    t = adj[low.bit_length() - 1] | low  # no root: deep vertices are not its neighbours
    while t:
        b = t & -t
        t ^= b
        if deep & ~(adj[b.bit_length() - 1] | b) == 0:
            return 1
    return None


def min_cover(sets: list[int], universe: int, node_budget: int) -> int:
    """Fewest of the bitmasks `sets` whose union contains `universe`.

    Exact branch and bound: each node branches on the uncovered element
    with the fewest sets left to cover it, trying those sets in turn and
    dropping each tried one from its later siblings.  A greedy cover is the
    first upper bound, and a node is pruned once the sets taken plus
    ceil(|uncovered| / largest remaining set) reach the best cover found.
    Sets inside another set are dropped first.  Raises
    DeficiencySearchBudget once more than `node_budget` nodes are visited
    (the root counts), and ValueError when `sets` cannot cover `universe`.
    """
    if not universe:
        return 0
    pool = sorted({s & universe for s in sets} - {0}, key=lambda s: (-s.bit_count(), s))
    sets = [s for i, s in enumerate(pool) if all(s & ~t for t in pool[:i])]
    elements = [1 << e for e in range(universe.bit_length()) if universe >> e & 1]
    holders = {b: sum(1 << i for i, s in enumerate(sets) if s & b) for b in elements}
    if not all(holders.values()):
        raise ValueError("the sets do not cover the universe")
    best = 0
    left = universe
    while left:
        left &= ~max(sets, key=lambda s: (s & left).bit_count())
        best += 1
    nodes = 0

    def descend(uncovered: int, live: int, taken: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise DeficiencySearchBudget(f"exceeded {node_budget} search nodes")
        if not uncovered:
            best = taken
            return
        # every uncovered element keeps a live holder: one held only by tried
        # siblings would have had fewer holders than the element branched on
        largest = max((s & uncovered).bit_count() for i, s in enumerate(sets) if live >> i & 1)
        if taken + -(-uncovered.bit_count() // largest) >= best:
            return
        options = min((holders[b] & live for b in elements if uncovered & b), key=int.bit_count)
        while options:
            b = options & -options
            options ^= b
            descend(uncovered & ~sets[b.bit_length() - 1], live, taken + 1)
            live ^= b
            if taken + 1 >= best:
                return

    descend(universe, (1 << len(sets)) - 1, 0)
    return best


def deficiency_set_size(inst: Instance, x: EdgeSolution, node_budget: int = 1_000_000) -> int:
    """Minimum number of direct root attachments that clear N_{n>=d>2}.

    Attaching vertex v to the root fixes v and every neighbour of v, so this
    is the minimum cover (`min_cover`) of U = {u : n >= dist(u) > 2} by the
    closed neighbourhoods N[v] ∩ U of the non-root vertices.  Raises
    DeficiencySearchBudget after `node_budget` search nodes.
    """
    adj = adjacency(inst, x)
    cover = two_hop_cover(adj)
    U = root_component(adj, cover) & ~cover
    return min_cover([(adj[v] | 1 << v) & U for v in range(1, inst.n + 1)], U, node_budget)


def single_attachment_fixes(inst: Instance, x: EdgeSolution) -> tuple[int, ...]:
    """All v not already adjacent to the root whose attachment clears N_{n>=d>2}.

    Attaching v joins v's component to the root's and brings exactly v and
    its neighbours within two hops, so v fixes x iff the deep vertices of
    the root's component, and v's component when it is another one, lie in
    v's closed neighbourhood: the test of `cheap_deficiency_size`.
    """
    adj = adjacency(inst, x)
    cover = two_hop_cover(adj)
    root = root_component(adj, cover)
    deep = root & ~cover
    out = []
    for v in range(1, inst.n + 1):
        b = 1 << v
        if adj[0] & b:
            continue
        need = deep if root & b else deep | _grow(adj, b, b)
        if need & ~(adj[v] | b) == 0:
            out.append(v)
    return tuple(out)


def deficiency_class(inst: Instance, x: EdgeSolution) -> DeficiencyClass:
    """Classify x by N_cc and the attachments needed: ZERO, ONE, or MANY.

    ZERO means connected with nothing deeper than two hops; ONE means
    connected and fixable by a single root attachment.  Disconnected
    solutions are never ZERO or ONE.
    """
    adj = adjacency(inst, x)
    cover = two_hop_cover(adj)
    root = root_component(adj, cover)
    connected = root == (1 << (inst.n + 1)) - 1
    size = cheap_deficiency_size(adj, root, cover) if connected else None
    return DeficiencyClass.MANY if size is None else DeficiencyClass(size)


# --- cycle-edge removal ------------------------------------------------------


def removable_cycle_edges(inst: Instance, x: EdgeSolution) -> tuple[int, ...]:
    """Edge indices whose individual removal from x lowers cost while keeping
    both the component count and N_{d>2} unchanged.

    Requires N_cc(x) + |x| > n + 1 and returns, in ascending index order,
    the N_cc(x) + |x| - n - 1 edges of x outside its breadth-first forest
    (`bfs_forest`).  Removing any one of them leaves that forest in place,
    so the components and every root distance stay as they are, while the
    cost drops by the edge's weight.
    """
    parent, _ = bfs_forest(inst.n, adjacency(inst, x))
    forest = sum(1 << inst.edge_index(p, v) for v, p in enumerate(parent) if p != v)
    rest = x.bits & ~forest
    if not rest:
        raise ValueError("no removable cycle edges: x is a forest, N_cc + |x| = n + 1")
    return tuple(i for i in range(x.m) if rest >> i & 1)


# --- mutation ----------------------------------------------------------------


def flip_mask(length: int, rng) -> int:
    """Positions hit by standard bit mutation, as a bitmask (0 = no flips).

    Sampling draws the flip count from Binomial(length, 1/length) and then
    picks that many distinct positions uniformly, which yields exactly the
    independent per-bit distribution while touching O(flips) slots.
    """
    k = int(rng.binomial(length, 1.0 / length))
    if k == 0:
        return 0
    pos: set[int] = set()
    while len(pos) < k:
        pos.add(int(rng.integers(0, length)))
    mask = 0
    for i in pos:
        mask |= 1 << i
    return mask
