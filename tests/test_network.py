import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cvcluster import graphs, network, presets

from expected import CHAIN8_GRAM_INVERSE, CHAIN8_UNITARY, DIAMOND8_UNITARY


def chain8_adjacency():
    return graphs.adjacency(graphs.linear_chain(8))


def random_adjacency(rng, n):
    a = np.triu((rng.random((n, n)) < 0.45).astype(float), k=1)
    return a + a.T


def compiled_chain8():
    _, u = network.compile_cluster_unitary(
        chain8_adjacency(), (1, 3, 5, 7), presets.CHAIN8_PIVOT_SIGNS
    )
    return u


def solve_order(n):
    """Rows outward from the middle one, upper neighbour first; pivot columns
    are the same order with the first two entries swapped."""
    mid = (n + 1) // 2 - 1
    rows = sorted(range(n), key=lambda i: (abs(i - mid), i < mid))
    cols = rows[:2][::-1] + rows[2:]
    return rows, cols


class TestInverseGram:
    def test_chain8_reference_entries(self):
        m = network.inverse_gram(chain8_adjacency())
        assert abs(m[0, 0] - 21 / 34) < 1e-14
        assert abs(m[0, 2] - (-4 / 17)) < 1e-14
        assert abs(m[3, 4]) < 1e-14
        assert np.max(np.abs(m - CHAIN8_GRAM_INVERSE)) < 1e-14

    def test_zero_adjacency_gives_identity(self):
        assert np.allclose(network.inverse_gram(np.zeros((5, 5))), np.eye(5), atol=1e-14)

    def test_two_node_chain_multiply_back(self):
        a = graphs.adjacency(graphs.linear_chain(2))
        m = network.inverse_gram(a)
        assert np.max(np.abs((np.eye(2) + a @ a) @ m - np.eye(2))) < 1e-12

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            network.inverse_gram(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_result_symmetric_positive_definite(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = network.inverse_gram(random_adjacency(rng, 6))
            assert np.array_equal(m, m.T)
            assert np.min(np.linalg.eigvalsh(m)) > 0


@pytest.mark.parametrize("n", range(1, 65))
def test_outward_rows_contract(n):
    rows = network._outward_rows(n)
    assert sorted(rows) == list(range(n))
    start = (n + 1) // 2 - 1  # row ceil(n/2), 0-based
    assert rows[0] == start
    distances = [abs(r - start) for r in rows]
    assert distances == sorted(distances)
    # At each distance the upper row, start + d, comes before start - d.
    for d in range(1, max(distances) + 1):
        pair = [r for r in rows if abs(r - start) == d]
        assert pair == sorted(pair, reverse=True)


class TestGramFactorSequential:
    def test_chain8_pivot_entry(self):
        # The assembled pipeline fixes the pivot signs; the published
        # intermediate quotes this entry with the opposite sign, which is a
        # pure gauge choice (see the gauge-invariance test below).
        factor = network.gram_factor_sequential(CHAIN8_GRAM_INVERSE)
        assert abs(abs(factor[3, 4]) - np.sqrt(15 / 34)) < 1e-14
        assert factor[3, 4] > 0

    def test_chain8_support_pattern(self):
        factor = network.gram_factor_sequential(CHAIN8_GRAM_INVERSE)
        support = {
            (i + 1, j + 1) for i, j in zip(*np.nonzero(np.abs(factor) > 1e-12))
        }
        assert support == {
            (4, 5), (5, 4), (3, 3), (3, 4), (6, 5), (6, 6), (2, 2), (2, 5),
            (7, 4), (7, 7), (1, 1), (1, 3), (1, 4), (8, 5), (8, 6), (8, 8),
        }

    def test_identity_gives_signed_permutation(self):
        factor = network.gram_factor_sequential(np.eye(5))
        assert np.allclose(np.abs(factor) @ np.abs(factor).T, np.eye(5), atol=1e-14)
        assert np.count_nonzero(np.abs(factor) > 1e-14) == 5

    def test_random_spd_multiply_back(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            root = rng.standard_normal((4, 4))
            m = root @ root.T + 0.5 * np.eye(4)
            factor = network.gram_factor_sequential(m)
            assert np.max(np.abs(factor @ factor.T - m)) < 1e-12

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            network.gram_factor_sequential(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            network.gram_factor_sequential(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_near_singular_pivot_rejected(self):
        # Cholesky succeeds, but a pivot of 1e-13 is below the 1e-12 floor.
        with pytest.raises(ValueError, match="not positive definite"):
            network.gram_factor_sequential(np.diag([1.0, 1e-13]))

    def test_explicit_pivot_signs_flip_columns(self):
        base = network.gram_factor_sequential(
            CHAIN8_GRAM_INVERSE, pivot_signs=presets.CHAIN8_PIVOT_SIGNS
        )
        flipped = network.gram_factor_sequential(
            CHAIN8_GRAM_INVERSE, pivot_signs=tuple(-s for s in presets.CHAIN8_PIVOT_SIGNS)
        )
        assert np.allclose(flipped, -base, atol=1e-14)
        assert np.max(np.abs(flipped @ flipped.T - CHAIN8_GRAM_INVERSE)) < 1e-12

    def test_default_pivots_non_negative_for_chain8(self):
        # No input is special: the chain Gram inverse gets +1 pivots too.
        factor = network.gram_factor_sequential(CHAIN8_GRAM_INVERSE)
        rows, cols = solve_order(8)
        assert all(factor[r, c] > 0 for r, c in zip(rows, cols))

    def test_near_symmetric_matrix_rejected(self):
        # Cholesky reads one triangle only; the symmetry check must not
        # forgive an asymmetry of 5e-6 through a relative tolerance.
        assert not network.is_symmetric(np.array([[0.0, 1.0], [1.0 + 5e-6, 0.0]]))
        with pytest.raises(ValueError):
            network.gram_factor_sequential(np.array([[2.0, 1.0], [1.0 + 5e-6, 2.0]]))

    def test_wrong_pivot_sign_count_rejected(self):
        with pytest.raises(ValueError):
            network.gram_factor_sequential(np.eye(3), pivot_signs=(1, -1))

    @given(
        n=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 1.0),
    )
    def test_factor_properties_on_random_graphs(self, n, seed, density):
        rng = np.random.default_rng(seed)
        upper = np.triu((rng.random((n, n)) < density).astype(float), k=1)
        a = upper + upper.T
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=n))
        factor = network.gram_factor_sequential(network.inverse_gram(a), pivot_signs=signs)

        gram = np.linalg.inv(np.eye(n) + a @ a)
        assert np.max(np.abs(factor @ factor.T - gram)) <= 1e-12
        rows, cols = solve_order(n)
        for k in range(n):
            assert all(factor[rows[k], cols[j]] == 0.0 for j in range(k + 1, n))
        assert [int(np.sign(factor[r, c])) for r, c in zip(rows, cols)] == list(signs)
        u = network.assemble_unitary(a, factor)
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12


class TestAssembleUnitary:
    def test_chain8_phase_network_entries(self):
        a = chain8_adjacency()
        factor = network.gram_factor_sequential(network.inverse_gram(a))
        u = network.assemble_unitary(a, factor)
        assert abs(u[0, 0] - 1 / np.sqrt(2)) < 1e-14
        assert abs(u[1, 0] - 1j / np.sqrt(2)) < 1e-14

    def test_trivial_inputs(self):
        u = network.assemble_unitary(np.zeros((3, 3)), np.eye(3))
        assert np.array_equal(u, np.eye(3).astype(complex))

    def test_unitarity_residual_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_adjacency(rng, int(rng.integers(2, 9)))
            factor = network.gram_factor_sequential(network.inverse_gram(a))
            u = network.assemble_unitary(a, factor)
            eye = np.eye(a.shape[0])
            assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-12

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="must be symmetric"):
            network.assemble_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            network.assemble_unitary(np.zeros((2, 2)), np.eye(3))

    def test_gram_precondition_enforced(self):
        a = chain8_adjacency()
        with pytest.raises(ValueError, match="Gram condition"):
            network.assemble_unitary(a, np.eye(8))

    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        log_eps=st.floats(-15.0, -6.0),
    )
    # Either side of the 1e-12 unitarity tolerance on 40 modes.
    @example(n=40, seed=3, log_eps=-13.5)
    @example(n=40, seed=3, log_eps=-13.0)
    def test_unitarity_check_stands_in_for_gram_check(self, n, seed, log_eps):
        # U U^dag - I = (I + iA)(R R^T - G)(I - iA) and I +- iA has singular
        # values >= 1, so the unitarity check bounds the Gram residual.
        rng = np.random.default_rng(seed)
        a = random_adjacency(rng, n)
        gram = network.inverse_gram(a)
        factor = network.gram_factor_sequential(gram)
        factor = factor + 10.0**log_eps * rng.standard_normal((n, n))
        unitary = network.is_unitary((np.eye(n) + 1j * a) @ factor)
        residual = np.max(np.abs(factor @ factor.T - gram))
        try:
            network.assemble_unitary(a, factor)
        except ValueError:
            raised = True
        else:
            raised = False
            assert residual <= n * 1e-12
        assert raised == (not unitary)
        if residual > 1e-10:
            assert raised


class TestInputBasisConvert:
    def test_empty_set_unchanged(self):
        u = compiled_chain8()
        assert np.array_equal(network.input_basis_convert(u, ()), u)

    def test_applying_twice_negates_columns(self):
        u = compiled_chain8()
        twice = network.input_basis_convert(network.input_basis_convert(u, (1, 3)), (1, 3))
        assert np.allclose(twice[:, [0, 2]], -u[:, [0, 2]], atol=1e-14)
        assert np.allclose(np.abs(twice), np.abs(u), atol=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            network.input_basis_convert(np.eye(4, dtype=complex), (5,))

    def test_unitarity_preserved(self):
        u = network.input_basis_convert(compiled_chain8(), (2, 4))
        assert network.is_unitary(u)


class TestDiamondFromLinear:
    # The two-diamond network is the chain network followed by local phases.
    def test_matches_published_matrix(self):
        u_l = presets.builtin_network("linear8")[1]
        u_d = presets.builtin_network("diamond8")[1]
        assert np.array_equal(u_d, presets.DIAMOND_LOCAL_PHASES @ u_l)
        assert np.max(np.abs(u_d - DIAMOND8_UNITARY)) < 1e-12
        assert abs(u_d[0, 0] - (-1j / np.sqrt(2))) < 1e-14

    def test_entry_magnitudes_unchanged(self):
        u_l = presets.builtin_network("linear8")[1]
        u_d = presets.builtin_network("diamond8")[1]
        assert np.allclose(np.abs(u_d), np.abs(u_l), atol=1e-14)

    def test_result_unitary(self):
        assert network.is_unitary(presets.builtin_network("diamond8")[1])

    def test_local_phases_are_read_only(self):
        assert presets.DIAMOND_LOCAL_PHASES.flags.writeable is False
        with pytest.raises(ValueError):
            presets.DIAMOND_LOCAL_PHASES[0, 0] = 1


class TestElements:
    def test_beamsplitter_half_entries(self):
        e = network.NetworkElement("beamsplitter", (7, 8), 0.5, -1)
        u = network.element_matrix(e, 8)
        root_half = 1 / np.sqrt(2)
        assert u[6, 6] == pytest.approx(root_half)
        assert u[6, 7] == pytest.approx(root_half)
        assert u[7, 6] == pytest.approx(-root_half)
        assert u[7, 7] == pytest.approx(root_half)

    def test_fourier_pair_is_identity(self):
        u = network.element_matrix(
            network.NetworkElement("fourier", (3,)), 4
        ) @ network.element_matrix(network.NetworkElement("inverse_fourier", (3,)), 4)
        assert np.allclose(u, np.eye(4), atol=1e-15)

    def test_pi_rotation_squares_to_identity(self):
        u = network.element_matrix(network.NetworkElement("pi_rotation", (2,)), 3)
        assert np.allclose(u @ u, np.eye(3), atol=1e-15)

    def test_transmission_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            network.NetworkElement("beamsplitter", (1, 2), 1.2, +1)
        with pytest.raises(ValueError):
            network.NetworkElement("beamsplitter", (1, 2), -0.1, -1)

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 25 / 34, 1.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_beamsplitter_unitary_for_all_transmissions(self, t, sign):
        u = network.element_matrix(network.NetworkElement("beamsplitter", (1, 2), t, sign), 3)
        assert network.is_unitary(u)

    def test_mode_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            network.element_matrix(network.NetworkElement("fourier", (5,)), 4)

    def test_repeated_beamsplitter_mode_rejected(self):
        with pytest.raises(ValueError, match="two distinct modes"):
            network.NetworkElement("beamsplitter", (2, 2), 0.5, +1)

    def test_beamsplitter_sign_other_than_one_rejected(self):
        with pytest.raises(ValueError, match="sign must be"):
            network.NetworkElement("beamsplitter", (1, 2), 0.5, 0)

    def test_single_mode_kind_given_two_modes_rejected(self):
        with pytest.raises(ValueError, match="exactly one mode"):
            network.NetworkElement("fourier", (1, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            network.NetworkElement("rotation", (1,))


class TestComposeSequence:
    def test_empty_sequence_is_identity(self):
        assert np.array_equal(network.compose_sequence([], 4), np.eye(4, dtype=complex))

    def test_single_element_equals_its_matrix(self):
        e = network.NetworkElement("beamsplitter", (1, 3), 0.25, +1)
        assert np.array_equal(
            network.compose_sequence([e], 4), network.element_matrix(e, 4)
        )

    def test_chain8_sequence_reproduces_published_network(self):
        # Listed order is the operator product: the last element acts first.
        composed = network.compose_sequence(presets.CHAIN8_ELEMENTS, 8)
        assert np.max(np.abs(composed - CHAIN8_UNITARY)) < 1e-12

    def test_reversed_order_does_not_reproduce_it(self):
        reversed_u = network.compose_sequence(presets.CHAIN8_ELEMENTS[::-1], 8)
        assert np.max(np.abs(reversed_u - CHAIN8_UNITARY)) > 1e-3


def test_chain8_transmissions():
    seq = presets.CHAIN8_ELEMENTS
    splitters = {e.modes: e.transmission for e in seq if e.kind == "beamsplitter"}
    assert splitters == {
        (4, 5): 25 / 34,
        (3, 4): 2 / 5,
        (5, 6): 2 / 5,
        (2, 3): 1 / 3,
        (6, 7): 1 / 3,
        (1, 2): 1 / 2,
        (7, 8): 1 / 2,
    }


def test_chain8_sequence_has_seven_beamsplitters():
    seq = presets.CHAIN8_ELEMENTS
    assert len(seq) == 19
    assert sum(1 for e in seq if e.kind == "beamsplitter") == 7


def test_pipeline_matches_published_chain_network():
    assert np.max(np.abs(compiled_chain8() - CHAIN8_UNITARY)) < 1e-12


def test_published_chain_network_is_the_one_pipeline():
    assert np.array_equal(presets.builtin_network("linear8")[1], compiled_chain8())


def test_non_square_matrix_is_not_unitary():
    # Its rows are orthonormal, so only the shape check can reject it.
    assert not network.is_unitary(np.eye(2, 3))


def test_unknown_builtin_network_rejected():
    with pytest.raises(ValueError, match="unknown builtin graph"):
        presets.builtin_network("triangle")
