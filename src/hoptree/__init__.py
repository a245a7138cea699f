"""Search heuristics and analysis tooling for two-hop spanning trees with
weight-1/weight-2 edges: solution encodings, exact small-instance oracles, a
3/2-approximation certificate, and a reproducible experiment harness.

The API lives in the submodules (`hoptree.algorithms`, `hoptree.harness`,
...); this package module re-exports nothing."""

__version__ = "0.1.0"
