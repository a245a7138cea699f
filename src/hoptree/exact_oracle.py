"""Exact optimum and brute-force ground-truth oracles.

The optimum is solved as a cover: every root-weight-1 vertex may join the
child set for free, and each further child, or each vertex left with no
weight-1 edge into the child set, adds 1 to n.  So the least cost is n plus
the fewest closed weight-1 neighbourhoods that cover the vertices the free
children leave bare, found by `edge_repr.min_cover`.  The other oracles
trade speed for independence: distances come from boolean matrix powers
rather than the breadth-first forest used by the solution metrics, and the
deficiency oracle tries attachment sets literally by adding root edges.
Each refuses inputs above its bound instead of guessing.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .graph_model import Instance
from .edge_repr import EdgeSolution, EdgeMetrics, min_cover

OPTIMUM_MAX_N = 64
BRUTE_VD_MAX_N = 14

_NODE_BUDGET = 20_000_000  # per cover; 220 random n = 64 instances took at most 0.1M in all


def _least_cost(n: int, n1: list[int], r1: int, forced_in: int, forced_out: int) -> int:
    """Least tree cost over the child sets C with forced_in ⊆ C and no vertex
    of forced_out (vertex bitmasks).

    Some such C holds every root-weight-1 vertex r1 not forced out, since
    adding one never costs more.  Past those and forced_in, each child costs
    1, and so does each vertex with no weight-1 edge into C; the bare
    vertices E are covered by N1[w] for a free w, or by themselves when
    forced out.
    """
    base = forced_in | r1 & ~forced_out
    reach = base
    for w in range(1, n + 1):
        if base >> w & 1:
            reach |= n1[w]
    bare = ((1 << n + 1) - 2) & ~reach
    sets = [n1[w] | 1 << w for w in range(1, n + 1) if not (base | forced_out) >> w & 1]
    sets += [1 << u for u in range(1, n + 1) if (bare & forced_out) >> u & 1]
    return n + (forced_in & ~r1).bit_count() + min_cover(sets, bare, _NODE_BUDGET)


def optimum(inst: Instance, max_n: int = OPTIMUM_MAX_N) -> tuple[int, frozenset[int]]:
    """Exact optimum cost and the lexicographically least optimal child set.

    Ties between optimal child sets break toward the set whose sorted vertex
    tuple is smallest, e.g. {1} before {1,2} before {2}.  After the
    unconstrained least cost, the set grows a vertex at a time: the next
    vertex is the lowest one with which, and with every lower vertex not
    taken left out, the least cost stays optimal, until the taken set costs
    the optimum itself.  Refuses n beyond `max_n`; a cover search past its
    node budget raises DeficiencySearchBudget.
    """
    if inst.n > max_n:
        raise ValueError(f"optimum bound exceeded: n={inst.n} > {max_n}")
    n = inst.n
    everyone = (1 << n + 1) - 2
    n1 = [inst.n1_mask(v) & ~1 for v in range(n + 1)]
    r1 = sum(1 << v for v in range(1, n + 1) if inst.root_weights[v] == 1)
    best = _least_cost(n, n1, r1, 0, 0)
    taken = skipped = 0
    for v in range(1, n + 1):
        if _least_cost(n, n1, r1, taken | 1 << v, skipped) != best:
            skipped |= 1 << v
            continue
        taken |= 1 << v
        if _least_cost(n, n1, r1, taken, everyone & ~taken) == best:
            break
    return best, frozenset(v for v in range(1, n + 1) if taken >> v & 1)


# --- matrix-power distances --------------------------------------------------


def _bool_adjacency(inst: Instance, bits: int) -> np.ndarray:
    n = inst.n
    A = np.zeros((n + 1, n + 1), dtype=bool)
    t = bits
    while t:
        b = t & -t
        u, v = inst.pairs[b.bit_length() - 1]
        A[u, v] = A[v, u] = True
        t ^= b
    return A


def _power_distances(inst: Instance, bits: int) -> list[int]:
    """Hop distances from the root via repeated boolean matrix-vector products."""
    n = inst.n
    A = _bool_adjacency(inst, bits)
    dist = [n + 1] * (n + 1)
    dist[0] = 0
    reach = np.zeros(n + 1, dtype=bool)
    reach[0] = True
    found = reach.copy()
    for d in range(1, n + 1):
        reach = A.T @ reach
        newly = reach & ~found
        for v in np.flatnonzero(newly):
            dist[int(v)] = d
        found |= newly
    return dist


def brute_metrics(inst: Instance, x: EdgeSolution) -> EdgeMetrics:
    """Metrics recomputed from scratch by matrix powers and closure rows."""
    if x.m != inst.m:
        raise ValueError(f"solution width {x.m} does not match instance m={inst.m}")
    n = inst.n
    h = x.bits.bit_count()
    c = h + (x.bits & inst.w2_mask).bit_count()
    dist = _power_distances(inst, x.bits)
    A = _bool_adjacency(inst, x.bits)
    closure = np.eye(n + 1, dtype=bool) | A
    for _ in range(max(1, (n + 1).bit_length())):
        closure = closure | (closure @ closure)
    n_cc = int(np.unique(closure, axis=0).shape[0])
    return EdgeMetrics(hamming=h, cost=c, n_cc=n_cc, dist=tuple(dist))


def brute_vd(inst: Instance, x: EdgeSolution, max_n: int = BRUTE_VD_MAX_N) -> int:
    """Smallest attachment set, by literally adding root edges and re-measuring.

    Tries every vertex subset in increasing size (equivalently, exhausts all
    2^n of them) and returns the first size whose root attachments leave no
    connected vertex deeper than two hops.
    """
    if inst.n > max_n:
        raise ValueError(f"brute_vd enumeration bound exceeded: n={inst.n} > {max_n}")
    n = inst.n
    for size in range(n + 1):
        for D in combinations(range(1, n + 1), size):
            bits = x.bits
            for v in D:
                bits |= 1 << inst.edge_index(0, v)
            dist = _power_distances(inst, bits)
            if all(not (2 < dist[v] <= n) for v in range(1, n + 1)):
                return size
    raise AssertionError("attaching every vertex always clears the deep ones")
