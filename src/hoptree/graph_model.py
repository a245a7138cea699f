"""Weighted complete graphs over a root and n satellite vertices.

An instance is the complete graph on vertices {0, 1, ..., n} where vertex 0
is the root and every edge carries weight 1 or 2.  Edges are indexed
lexicographically by their endpoint pair:

    (0,1), (0,2), ..., (0,n), (1,2), ..., (1,n), (2,3), ..., (n-1,n)

so a solution bit string of length m = n*(n+1)/2 selects a subgraph by edge
index.  Bit i of an integer mask corresponds to edge index i throughout the
package; vertex masks use bit v for vertex v.
"""

from __future__ import annotations

import itertools


class InstanceFormatError(ValueError):
    """Raised when instance text cannot be parsed; message carries the line number."""


def _row_offset(u: int, n: int) -> int:
    # number of edges (a,b) with a < u
    return u * n - (u * (u - 1)) // 2


class Instance:
    """Immutable-by-convention complete graph with {1,2} weights.

    `weights` is the flat upper triangle in edge-index order.  Derived masks
    are precomputed once: `w2_mask` marks the weight-2 edges, `n1_mask(v)`
    holds v's weight-1 neighbourhood as a vertex bitmask.
    """

    __slots__ = ("n", "m", "_w", "pairs", "w2_mask", "_n1_masks", "root_weights")

    def __init__(self, n: int, weights):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        m = n * (n + 1) // 2
        w = tuple(int(x) for x in weights)
        if len(w) != m:
            raise ValueError(f"expected {m} weights for n={n}, got {len(w)}")
        if any(x not in (1, 2) for x in w):
            raise ValueError("edge weights must be 1 or 2")
        self.n = n
        self.m = m
        self._w = w
        self.pairs = pairs = tuple(itertools.combinations(range(n + 1), 2))
        w2 = 0
        n1 = [0] * (n + 1)
        for i, wi in enumerate(w):
            if wi == 2:
                w2 |= 1 << i
            else:
                u, v = pairs[i]
                n1[u] |= 1 << v
                n1[v] |= 1 << u
        self.w2_mask = w2
        self._n1_masks = tuple(n1)
        self.root_weights = (0,) + tuple(w[:n])  # root_weights[v] = W(0, v)

    def edge_index(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError(f"no self-loop ({u},{v})")
        if u > v:
            u, v = v, u
        if u < 0 or v > self.n:
            raise ValueError(f"vertex pair ({u},{v}) out of range for n={self.n}")
        return _row_offset(u, self.n) + (v - u - 1)

    def pair(self, i: int) -> tuple[int, int]:
        return self.pairs[i]

    def weight(self, u: int, v: int) -> int:
        return self._w[self.edge_index(u, v)]

    def edge_weight(self, i: int) -> int:
        return self._w[i]

    def n1_mask(self, v: int) -> int:
        """Vertex bitmask of v's weight-1 neighbours (may include the root bit)."""
        return self._n1_masks[v]

    def n1_neighbors(self, v: int) -> frozenset[int]:
        mask = self._n1_masks[v]
        return frozenset(b for b in range(self.n + 1) if mask >> b & 1)

    @property
    def weights(self) -> tuple[int, ...]:
        return self._w

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self.n == other.n and self._w == other._w

    def __hash__(self) -> int:
        return hash((self.n, self._w))

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m})"

    # --- text format ------------------------------------------------------
    #
    # Line 1: "n <int>".  Then n rows; row k (1-based) lists the weights
    # W(k-1,k) W(k-1,k+1) ... W(k-1,n) separated by spaces.  '#' starts a
    # comment, blank lines are ignored.

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        i = 0
        for u in range(self.n):
            row = self._w[i : i + self.n - u]
            i += self.n - u
            lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Instance":
        rows = []
        header = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 2 or parts[0] != "n":
                    raise InstanceFormatError(f"line {lineno}: expected 'n <int>', got {raw!r}")
                try:
                    header = int(parts[1])
                except ValueError:
                    raise InstanceFormatError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
                if header < 1:
                    raise InstanceFormatError(f"line {lineno}: need n >= 1, got {header}")
                continue
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: non-integer weight in {raw!r}") from None
            expected = header - len(rows)
            if expected <= 0:
                raise InstanceFormatError(f"line {lineno}: more than {header} weight rows")
            if len(row) != expected:
                raise InstanceFormatError(
                    f"line {lineno}: expected {expected} weights, got {len(row)}"
                )
            if any(x not in (1, 2) for x in row):
                raise InstanceFormatError(f"line {lineno}: weights must be 1 or 2")
            rows.append(row)
        if header is None:
            raise InstanceFormatError("line 1: empty instance text")
        if len(rows) != header:
            raise InstanceFormatError(f"expected {header} weight rows, got {len(rows)}")
        flat = [x for row in rows for x in row]
        return cls(header, flat)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return Instance.from_text(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inst.to_text())
