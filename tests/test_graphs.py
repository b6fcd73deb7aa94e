import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvcluster import graphs, presets
from cvcluster.gaussian import combination_vector

from expected import CHAIN8_NEIGHBOURS, DIAMOND8_NEIGHBOURS


def test_linear_chain_8_edges():
    g = graphs.linear_chain(8)
    assert g.n == 8
    assert g.edges == frozenset((i, i + 1) for i in range(1, 8))


def test_linear_chain_small():
    assert graphs.linear_chain(1).edges == frozenset()
    assert graphs.linear_chain(2).edges == frozenset({(1, 2)})


def test_linear_chain_zero_rejected():
    with pytest.raises(ValueError):
        graphs.linear_chain(0)


def test_two_diamond_edges():
    g = graphs.two_diamond()
    assert g.n == 8
    assert g.edges == frozenset(
        [(1, 3), (1, 4), (2, 3), (2, 4), (4, 5), (5, 7), (5, 8), (6, 7), (6, 8)]
    )


def test_two_diamond_neighbours_of_4():
    assert graphs.nullifiers(graphs.two_diamond())[3].x_modes == (1, 2, 5)


def test_graph_rejects_self_loop_and_bad_edge():
    with pytest.raises(ValueError):
        graphs.Graph.from_edges(3, [(2, 2)])
    with pytest.raises(ValueError):
        graphs.Graph(n=3, edges=frozenset({(1, 4)}))


def test_from_edges_normalises_order_and_duplicates():
    g = graphs.Graph.from_edges(3, [(2, 1), (1, 2), (3, 1)])
    assert g.edges == frozenset({(1, 2), (1, 3)})


def test_adjacency_chain8():
    a = graphs.adjacency(graphs.linear_chain(8))
    expected = np.zeros((8, 8))
    for i in range(7):
        expected[i, i + 1] = expected[i + 1, i] = 1.0
    assert np.array_equal(a, expected)


def test_adjacency_empty_graph_is_zero():
    g = graphs.Graph(n=4, edges=frozenset())
    assert np.array_equal(graphs.adjacency(g), np.zeros((4, 4)))


def test_adjacency_two_diamond_entries():
    a = graphs.adjacency(graphs.two_diamond())
    assert a[3, 4] == 1.0  # modes 4 and 5 are linked
    assert a[0, 1] == 0.0  # modes 1 and 2 are not


@pytest.mark.parametrize("graph", [graphs.linear_chain(8), graphs.two_diamond()])
def test_adjacency_symmetric_zero_diagonal(graph):
    a = graphs.adjacency(graph)
    assert np.array_equal(a, a.T)
    assert np.trace(a) == 0.0


def test_adjacency_random_graphs_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.4
        ]
        a = graphs.adjacency(graphs.Graph.from_edges(n, edges))
        assert np.array_equal(a, a.T)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.trace(a) == 0.0


def test_nullifier_chain_mode_1():
    nf = graphs.nullifiers(graphs.linear_chain(8))[0]
    assert nf.mode == 1
    assert nf.x_modes == (2,)
    assert nf.terms() == [(1, "p", 1.0), (2, "x", -1.0)]


def test_nullifier_diamond_mode_5():
    nf = graphs.nullifiers(graphs.two_diamond())[4]
    assert nf.mode == 5
    assert nf.x_modes == (4, 7, 8)


def test_nullifier_isolated_node():
    g = graphs.Graph(n=2, edges=frozenset())
    nf = graphs.nullifiers(g)[0]
    assert nf.terms() == [(1, "p", 1.0)]


def test_nullifier_count_matches_degree():
    for g in (graphs.linear_chain(8), graphs.two_diamond()):
        for nf in graphs.nullifiers(g):
            neighbours = {b for edge in g.edges if nf.mode in edge for b in edge} - {nf.mode}
            p_terms = [(m, c) for m, q, c in nf.terms() if q == "p"]
            x_terms = [(m, c) for m, q, c in nf.terms() if q == "x"]
            assert p_terms == [(nf.mode, 1.0)]
            assert len(x_terms) == len(neighbours)
            assert {m for m, _ in x_terms} == neighbours
            assert all(c == -1.0 for _, c in x_terms)


def test_published_nullifier_lists():
    # Term-for-term match with the printed nullifier expressions.
    for g, table in (
        (graphs.linear_chain(8), CHAIN8_NEIGHBOURS),
        (graphs.two_diamond(), DIAMOND8_NEIGHBOURS),
    ):
        for nf in graphs.nullifiers(g):
            assert set(nf.x_modes) == table[nf.mode]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return graphs.Graph.from_edges(n, edges)


@given(graph=random_graphs())
def test_nullifier_vectors_match_the_term_route(graph):
    # [-A | I] row by row, bit for bit: the zeros of both routes are +0.0.
    vectors = np.array(presets.nullifier_vectors(graph))
    expected = np.array(
        [combination_vector(graph.n, nf.terms()) for nf in graphs.nullifiers(graph)]
    )
    assert np.array_equal(vectors, expected)
    assert np.array_equal(np.signbit(vectors), np.signbit(expected))
