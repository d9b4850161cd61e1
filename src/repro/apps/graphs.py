"""Synthetic graphs standing in for the paper's SuiteSparse inputs (§5.1).

The paper's two TC inputs differ in exactly one property that drives
Fig. 11's diverging result:

* **Graph 1** (412,148 edges) — high diameter: the fixed point needs 2,933
  iterations, each producing relatively few new paths → small per-iteration
  all-to-all loads → Bruck-friendly.
* **Graph 2** (1,014,951 edges) — low diameter: only 89 iterations, each
  producing ~10× more paths per iteration → large loads → Bruck-hostile.

The generators here control that property directly, scaled down so the
per-rank functional runtime finishes in seconds (the scale substitution
is documented in DESIGN.md): :func:`graph1` is chain-dominated (long
diameter, sparse shortcuts), :func:`graph2` is a dense random digraph
(logarithmic diameter).  Edge counts keep roughly the paper's 1:2.5 ratio.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["chain_graph", "dense_random_graph", "graph1", "graph2",
           "sequential_transitive_closure"]

Edge = Tuple[int, int]


def chain_graph(chain_length: int, n_chains: int = 1,
                extra_edges: int = 0, seed: int = 0) -> List[Edge]:
    """Disjoint directed chains plus optional random shortcut edges.

    Diameter ≈ ``chain_length`` regardless of shortcuts (shortcuts go
    *forward* a bounded distance so they cannot collapse the diameter),
    giving the many-cheap-iterations regime of the paper's Graph 1.
    """
    if chain_length < 1 or n_chains < 1:
        raise ValueError("chain_length and n_chains must be >= 1")
    edges: List[Edge] = []
    for c in range(n_chains):
        base = c * (chain_length + 1)
        edges.extend((base + i, base + i + 1) for i in range(chain_length))
    if extra_edges:
        rng = np.random.default_rng(seed)
        n_nodes = n_chains * (chain_length + 1)
        for _ in range(extra_edges):
            u = int(rng.integers(0, n_nodes - 2))
            # Short forward hop inside the same chain region.
            v = min(u + 1 + int(rng.integers(1, 4)),
                    (u // (chain_length + 1) + 1) * (chain_length + 1) - 1)
            if u != v:
                edges.append((u, v))
    return sorted(set(edges))


def dense_random_graph(n_nodes: int, n_edges: int, seed: int = 0) -> List[Edge]:
    """A dense Erdős–Rényi-style digraph: diameter ``O(log n)``, so the
    fixed point converges in a handful of heavy iterations (Graph 2)."""
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < n_edges:
        need = n_edges - len(edges)
        u = rng.integers(0, n_nodes, size=need * 2)
        v = rng.integers(0, n_nodes, size=need * 2)
        for a, b in zip(u.tolist(), v.tolist()):
            if a != b:
                edges.add((a, b))
            if len(edges) >= n_edges:
                break
    return sorted(edges)


def graph1(scale: float = 1.0, seed: int = 1) -> List[Edge]:
    """Scaled-down Graph 1 analogue: chain-dominated, high diameter."""
    length = max(8, int(60 * scale))
    return chain_graph(length, n_chains=3, extra_edges=int(40 * scale),
                       seed=seed)


def graph2(scale: float = 1.0, seed: int = 2) -> List[Edge]:
    """Scaled-down Graph 2 analogue: dense, low diameter, ~2.5× the edges
    of :func:`graph1` at the same scale."""
    n_nodes = max(10, int(60 * scale))
    n_edges = int(500 * scale)
    return dense_random_graph(n_nodes, n_edges, seed=seed)


def sequential_transitive_closure(edges: List[Edge]) -> set:
    """Reference TC via per-source BFS (used by tests and examples)."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    closure = set()
    nodes = {u for u, _ in edges} | {v for _, v in edges}
    for src in nodes:
        seen = set()
        stack = list(adj.get(src, ()))
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj.get(v, ()))
        closure.update((src, v) for v in seen)
    return closure
