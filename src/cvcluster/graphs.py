"""Cluster graphs and their nullifier combinations.

Modes are labelled 1..n everywhere in the public interface.  All objects in
this module are immutable values and all functions are pure, so they are safe
to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "Nullifier",
    "linear_chain",
    "two_diamond",
    "adjacency",
    "nullifiers",
]


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted graph on modes 1..n.

    ``edges`` holds pairs ``(a, b)`` with ``1 <= a < b <= n``.  Self-loops are
    rejected; :meth:`from_edges`, which configs use, merges a repeated or
    reversed edge into one.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"mode count must be positive, got {self.n}")
        for a, b in self.edges:
            if not (1 <= a < b <= self.n):
                raise ValueError(f"invalid edge ({a}, {b}) for {self.n} modes")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph, normalising each pair to (min, max) order."""
        normalised = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on mode {a}")
            normalised.add((min(a, b), max(a, b)))
        return cls(n=n, edges=frozenset(normalised))


@dataclass(frozen=True)
class Nullifier:
    """One quadrature combination p_a - sum_b x_b over the neighbours b of a.

    The p coefficient is +1 and every x coefficient is -1; ``x_modes`` lists
    the neighbours in increasing order.
    """

    mode: int
    x_modes: tuple[int, ...]

    def terms(self) -> list[tuple[int, str, float]]:
        """Coefficient list as (mode, quadrature, coefficient) triples."""
        out = [(self.mode, "p", 1.0)]
        out.extend((b, "x", -1.0) for b in self.x_modes)
        return out


def linear_chain(n: int) -> Graph:
    """Chain graph 1-2-...-n."""
    if n < 1:
        raise ValueError(f"chain length must be positive, got {n}")
    return Graph(n=n, edges=frozenset((i, i + 1) for i in range(1, n)))


def two_diamond() -> Graph:
    """Eight-mode graph made of two diamonds joined through the 4-5 edge."""
    edges = [(1, 3), (1, 4), (2, 3), (2, 4), (4, 5), (5, 7), (5, 8), (6, 7), (6, 8)]
    return Graph(n=8, edges=frozenset(edges))


def adjacency(graph: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""
    a = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        a[i - 1, j - 1] = 1.0
        a[j - 1, i - 1] = 1.0
    return a


def nullifiers(graph: Graph) -> list[Nullifier]:
    """One nullifier per mode, ordered by mode label; one pass over the edges."""
    x_modes: list[list[int]] = [[] for _ in range(graph.n + 1)]
    for a, b in graph.edges:
        x_modes[a].append(b)
        x_modes[b].append(a)
    return [Nullifier(mode=a, x_modes=tuple(sorted(x_modes[a]))) for a in range(1, graph.n + 1)]
