"""Exhaustive ground-truth oracles, for tests and small-instance experiments.

Everything here trades speed for independence: the optimum prices every
child set once, in vectorized chunks, distances come from boolean matrix
powers rather than the breadth-first forest used by the solution metrics,
and the deficiency oracle tries attachment sets literally by adding root
edges.  Each refuses inputs above its enumeration bound instead of
guessing.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

import numpy as np

from .graph_model import Instance
from .edge_repr import EdgeSolution, EdgeMetrics

OPTIMUM_MAX_N = 24
BRUTE_VD_MAX_N = 14

_CHUNK = 1 << 18


def _chunk_picks(inst: Instance) -> Iterator[tuple[int, int]]:
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


def optimum(inst: Instance, max_n: int = OPTIMUM_MAX_N) -> tuple[int, frozenset[int]]:
    """Exact optimum cost and the lexicographically least optimal child set.

    Ties between optimal child sets break toward the set whose sorted vertex
    tuple is smallest, e.g. {1} before {1,2} before {2}.  Every child set is
    priced once; each chunk offers its lex-least cheapest set and the
    lex-least of the cheapest offers wins.  Refuses n beyond `max_n` (2^n
    enumeration).
    """
    if inst.n > max_n:
        raise ValueError(f"optimum enumeration bound exceeded: n={inst.n} > {max_n}")
    picks = list(_chunk_picks(inst))
    best = min(cost for cost, _ in picks)
    mask = _lex_least(np.array([m for cost, m in picks if cost == best], dtype=np.int64), inst.n)
    return best, frozenset(v for v in range(1, inst.n + 1) if mask >> (v - 1) & 1)


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
