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

import functools
import itertools


class InstanceFormatError(ValueError):
    """Raised when instance text cannot be parsed; message carries the line number."""


def _row_offset(u: int, n: int) -> int:
    # number of edges (a,b) with a < u
    return u * n - (u * (u - 1)) // 2


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The endpoint pairs in edge-index order, shared by the instances of one n."""
    return tuple(itertools.combinations(range(n + 1), 2))


_ONES = bytes.maketrans(b"\x01\x02", b"10")  # weight byte -> b"1" for a weight-1 edge
_DIGITS = frozenset("12")
_WEIGHT_BYTES = bytes.maketrans(b"12", b"\x01\x02")


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
        w = tuple(map(int, weights))
        if len(w) != m:
            raise ValueError(f"expected {m} weights for n={n}, got {len(w)}")
        if not set(w) <= {1, 2}:
            raise ValueError("edge weights must be 1 or 2")
        self.n = n
        self.m = m
        self._w = w
        self.pairs = _pairs(n)
        # one digit per edge, b"1" for weight 1; reversed, int(..., 2) has bit i for edge i
        ones = bytes(w).translate(_ONES)
        self.w2_mask = int(ones[::-1], 2) ^ ((1 << m) - 1)
        # the weight-1 adjacency matrix as digits: row u of the triangle fills
        # row u right of the diagonal and, as a strided slice, column u below it
        size = n + 1
        grid = bytearray(b"0") * (size * size)
        for u in range(n):
            row = ones[_row_offset(u, n) : _row_offset(u + 1, n)]
            grid[u * size + u + 1 : (u + 1) * size] = row
            grid[(u + 1) * size + u :: size] = row
        grid.reverse()  # row v read as one base-2 number is n1_mask(v)
        self._n1_masks = tuple(int(grid[k * size : (k + 1) * size], 2) for k in reversed(range(size)))
        self.root_weights = (0,) + w[:n]  # root_weights[v] = W(0, v)

    def edge_index(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError(f"no self-loop ({u},{v})")
        if u > v:
            u, v = v, u
        if u < 0 or v > self.n:
            raise ValueError(f"vertex pair ({u},{v}) out of range for n={self.n}")
        return _row_offset(u, self.n) + (v - u - 1)

    def weight(self, u: int, v: int) -> int:
        return self._w[self.edge_index(u, v)]

    def n1_mask(self, v: int) -> int:
        """Vertex bitmask of v's weight-1 neighbours (may include the root bit)."""
        return self._n1_masks[v]

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
            row = line.split()
            digits = _DIGITS.issuperset(row)  # the common case: no int per token
            if not digits:
                try:
                    values = [int(tok) for tok in row]
                except ValueError:
                    raise InstanceFormatError(f"line {lineno}: non-integer weight in {raw!r}") from None
            expected = header - len(rows)
            if expected <= 0:
                raise InstanceFormatError(f"line {lineno}: more than {header} weight rows")
            if len(row) != expected:
                raise InstanceFormatError(
                    f"line {lineno}: expected {expected} weights, got {len(row)}"
                )
            if not digits:
                if any(x not in (1, 2) for x in values):
                    raise InstanceFormatError(f"line {lineno}: weights must be 1 or 2")
                row = map(str, values)
            rows.append("".join(row))
        if header is None:
            raise InstanceFormatError("line 1: empty instance text")
        if len(rows) != header:
            raise InstanceFormatError(f"expected {header} weight rows, got {len(rows)}")
        return cls(header, "".join(rows).encode().translate(_WEIGHT_BYTES))


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return Instance.from_text(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inst.to_text())
