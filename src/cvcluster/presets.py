"""Wiring and published tables of the two benchmark eight-mode experiments.

Both networks take amplitude-squeezed inputs on modes 1, 3, 5, 7 and
phase-squeezed inputs on modes 2, 4, 6, 8.  The chain network comes out of
the Gram pipeline with the published pivot signs; the two-diamond network is
the chain network followed by local output phases.  ``cluster_state``, the
state builder of :mod:`cvcluster.gaussian`, is bound here for their callers.

``PUBLISHED`` holds each builtin graph with the labels of its inequalities,
its printed noise-term table, its measured variance sums and its quoted
unit-gain thresholds; every use of a builtin's tables looks it up there by name.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import graphs, reference
from .gaussian import cluster_state
from .criteria import Criterion, graph_criteria
from .network import compile_cluster_unitary, diamond_from_linear

__all__ = [
    "X_SQUEEZED_INPUTS",
    "CHAIN8_PIVOT_SIGNS",
    "PublishedExperiment",
    "PUBLISHED",
    "builtin_network",
    "builtin_criteria",
    "nullifier_vectors",
    "cluster_state",
]

X_SQUEEZED_INPUTS = (1, 3, 5, 7)

# Pivot signs (one per solve step) that make the 8-mode chain factor assemble
# into the published network matrix for that experiment.  Any other sign
# choice flips only columns of the network (a gauge) and produces the same
# state.
CHAIN8_PIVOT_SIGNS = (1, 1, -1, 1, 1, -1, 1, -1)


class PublishedExperiment(NamedTuple):
    """A builtin graph, its published labels and its tables from :mod:`.reference`.

    ``labels`` are the arguments of :func:`.criteria.graph_criteria`: criterion
    ids in published order with their edges, slot names keyed by (m, j) for
    x_j in the nullifier of m, and 4e's tied gain.
    """

    graph: graphs.Graph
    labels: dict
    noise_terms: dict
    measured_lhs: tuple[float, ...]
    unit_gain_thresholds: dict[str, float]


_DIAMOND8_SLOTS = {
    "g_D1": ((1, 4), (2, 4), (7, 5), (8, 5)),
    "g_D2": ((3, 1), (3, 2), (6, 7), (6, 8)),
    "g_D3": ((1, 3), (2, 3), (7, 6), (8, 6)),
    "g_D4": ((4, 1), (4, 2), (5, 7), (5, 8)),
    "g_D5": ((4, 5), (5, 4)),
}
_DIAMOND8_EDGES = ((1, 3), (2, 3), (1, 4), (2, 4), (4, 5), (5, 7), (5, 8), (6, 7), (6, 8))
PUBLISHED = {
    "linear8": PublishedExperiment(
        graph=graphs.linear_chain(8),
        labels=dict(
            order={f"3{c}": (a, a + 1) for a, c in zip(range(1, 8), "abcdefg")},
            slot_names={
                (m, j): f"g_L{j}" for a in range(1, 8) for m, j in ((a, a + 1), (a + 1, a))
            },
        ),
        noise_terms=reference.REFERENCE_NOISE_TERMS_LINEAR,
        measured_lhs=reference.MEASURED_LHS_LINEAR,
        unit_gain_thresholds=reference.PUBLISHED_UNIT_GAIN_THRESHOLDS_LINEAR,
    ),
    "diamond8": PublishedExperiment(
        graph=graphs.two_diamond(),
        labels=dict(
            order={f"4{c}": edge for c, edge in zip("abcdefghi", _DIAMOND8_EDGES)},
            slot_names={mj: name for name, pairs in _DIAMOND8_SLOTS.items() for mj in pairs},
            ties={"4e": "g_D6"},
        ),
        noise_terms=reference.REFERENCE_NOISE_TERMS_DIAMOND,
        measured_lhs=reference.MEASURED_LHS_DIAMOND,
        unit_gain_thresholds=reference.PUBLISHED_UNIT_GAIN_THRESHOLDS_DIAMOND,
    ),
}


@lru_cache(maxsize=None)
def builtin_network(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Gram factor and network matrix of a builtin experiment, both read-only.

    Both networks are built from the chain factor with the published pivot
    signs, so the two-diamond experiment shares it.
    """
    if name == "linear8":
        a = graphs.adjacency(graphs.linear_chain(8))
        network = compile_cluster_unitary(a, X_SQUEEZED_INPUTS, CHAIN8_PIVOT_SIGNS)
    elif name == "diamond8":
        factor, chain = builtin_network("linear8")
        network = factor, diamond_from_linear(chain)
    else:
        raise ValueError(f"unknown builtin graph {name!r}")
    for matrix in network:
        matrix.setflags(write=False)
    return network


@lru_cache(maxsize=None)
def builtin_criteria(name: str) -> tuple[Criterion, ...]:
    """The published inequalities of a builtin graph, under their published labels.

    Built once per name: a criterion is frozen and its affine form read-only.
    """
    return tuple(graph_criteria(PUBLISHED[name].graph, **PUBLISHED[name].labels))


def nullifier_vectors(graph: graphs.Graph) -> list[np.ndarray]:
    """Output-quadrature coefficient vectors of the graph's nullifiers.

    Row m of [-A | I], with A the adjacency matrix, is p_m - sum_{N(m)} x_j;
    ``0.0 - A`` keeps zeros +0.0, as :func:`.gaussian.combination_vector` does.
    """
    a = graphs.adjacency(graph)
    return list(np.hstack([0.0 - a, np.eye(graph.n)]))
