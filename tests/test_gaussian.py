import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvcluster import gaussian, graphs, network, presets
from cvcluster.config import parse_config
from cvcluster.gaussian import (
    GaussianState,
    LossModel,
    SqueezePattern,
    apply_loss,
    combination_vector,
    evolve,
    excess_noise_decomposition,
    input_covariance,
    omega,
    qnl_variance,
    quadrature_variance,
    squeezing_terms,
    symplectic_from_unitary,
    vacuum_state,
    variance_db,
)


def chain8_state(r):
    return presets.cluster_state(
        presets.builtin_network("linear8")[1], SqueezePattern.alternating(8, r)
    )


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestInputCovariance:
    def test_x_squeezed_variances(self):
        state = input_covariance(SqueezePattern(("x",), (0.5,)))
        assert state.cov[0, 0] == pytest.approx(np.exp(-1.0) / 4, abs=1e-15)
        assert state.cov[1, 1] == pytest.approx(np.exp(+1.0) / 4, abs=1e-15)

    def test_r_zero_is_vacuum(self):
        state = input_covariance(SqueezePattern.uniform(3, 0.0))
        assert np.allclose(state.cov, np.eye(6) * 0.25, atol=1e-15)

    def test_squeezing_level_matches_quoted_db(self):
        # r = 0.50 corresponds to the quoted 4.30 +- 0.07 dB noise reduction.
        db = 10 * np.log10(np.exp(-2 * 0.50))
        assert -4.37 <= db <= -4.23

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezePattern(("x",), (-0.1,))

    def test_orientation_validation(self):
        with pytest.raises(ValueError):
            SqueezePattern(("q",), (0.1,))
        with pytest.raises(ValueError):
            SqueezePattern(("x", "p"), (0.1,))


class TestSymplectic:
    def test_identity(self):
        assert np.array_equal(symplectic_from_unitary(np.eye(3, dtype=complex)), np.eye(6))

    def test_single_mode_fourier_block_action(self):
        s = symplectic_from_unitary(np.diag([1j, 1.0]).astype(complex))
        # x_1 -> -p_1 and p_1 -> x_1; mode 2 untouched.
        vec = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(s @ vec, [0.0, 0.0, 1.0, 0.0])
        vec = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.allclose(s @ vec, [-1.0, 0.0, 0.0, 0.0])

    def test_chain8_orthogonal_and_symplectic(self):
        s = symplectic_from_unitary(presets.builtin_network("linear8")[1])
        form = omega(8)
        assert np.max(np.abs(s @ s.T - np.eye(16))) < 1e-12
        assert np.max(np.abs(s @ form @ s.T - form)) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            symplectic_from_unitary(np.ones((2, 2), dtype=complex))


class TestEvolve:
    def test_vacuum_through_passive_network_stays_vacuum(self):
        s = symplectic_from_unitary(presets.builtin_network("linear8")[1])
        out = evolve(vacuum_state(8), s)
        assert np.max(np.abs(out.cov - np.eye(16) * 0.25)) < 1e-12

    def test_chain8_nullifier_variances_at_half(self):
        state = chain8_state(0.5)
        for vec in presets.nullifier_vectors(graphs.linear_chain(8)):
            ratio = quadrature_variance(state, [vec])[0] / qnl_variance(vec)
            assert ratio == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_determinant_preserved(self):
        state = input_covariance(SqueezePattern.alternating(8, 0.4))
        s = symplectic_from_unitary(presets.builtin_network("linear8")[1])
        out = evolve(state, s)
        assert np.linalg.det(out.cov) == pytest.approx(np.linalg.det(state.cov), rel=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evolve(vacuum_state(3), np.eye(4))

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError):
            evolve(vacuum_state(2), np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_uncertainty_bound_preserved(self):
        state = chain8_state(1.5)
        bound = state.cov + 0.25j * omega(8)
        assert np.min(np.linalg.eigvalsh(bound)) > -1e-10


class TestLoss:
    def test_unit_efficiency_is_identity(self):
        state = chain8_state(0.5)
        out = apply_loss(state, LossModel.uniform(8, 1.0))
        assert np.max(np.abs(out.cov - state.cov)) < 1e-15

    def test_zero_efficiency_gives_vacuum(self):
        out = apply_loss(chain8_state(0.5), LossModel.uniform(8, 0.0))
        assert np.max(np.abs(out.cov - np.eye(16) * 0.25)) < 1e-15

    def test_single_mode_formula(self):
        state = input_covariance(SqueezePattern(("x",), (0.5,)))
        out = apply_loss(state, LossModel(etas=(0.783,)))
        expected = 0.783 * np.exp(-1.0) / 4 + 0.217 / 4
        assert out.cov[0, 0] == pytest.approx(expected, abs=1e-12)
        assert out.cov[0, 0] == pytest.approx(0.12626, abs=5e-6)

    def test_channel_composition(self):
        state = chain8_state(0.8)
        rng = np.random.default_rng(2)
        eta1 = rng.uniform(0.3, 1.0, 8)
        eta2 = rng.uniform(0.3, 1.0, 8)
        sequential = apply_loss(apply_loss(state, LossModel(tuple(eta1))), LossModel(tuple(eta2)))
        combined = apply_loss(state, LossModel(tuple(eta1 * eta2)))
        assert np.max(np.abs(sequential.cov - combined.cov)) < 1e-12

    def test_efficiency_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LossModel(etas=(1.1,))
        with pytest.raises(ValueError):
            apply_loss(chain8_state(0.1), LossModel.uniform(4, 0.9))


class TestVariances:
    def test_vacuum_two_quadrature_combination(self):
        c = combination_vector(8, [(1, "p", 1.0), (2, "x", -1.0)])
        assert quadrature_variance(vacuum_state(8), [c])[0] == pytest.approx(0.5, abs=1e-15)

    def test_chain8_first_nullifier_at_half(self):
        state = chain8_state(0.5)
        c = combination_vector(8, [(1, "p", 1.0), (2, "x", -1.0)])
        assert quadrature_variance(state, [c])[0] == pytest.approx(np.exp(-1.0) / 2, abs=1e-12)
        assert quadrature_variance(state, [c])[0] == pytest.approx(0.18394, abs=5e-6)

    def test_zero_vector_gives_zero(self):
        assert quadrature_variance(vacuum_state(4), [np.zeros(8)])[0] == 0.0

    def test_qnl_values(self):
        two = combination_vector(4, [(1, "p", 1.0), (2, "x", -1.0)])
        three = combination_vector(4, [(1, "p", 1.0), (2, "x", -1.0), (3, "x", -1.0)])
        four = combination_vector(
            4, [(1, "p", 1.0), (2, "x", -1.0), (3, "x", -1.0), (4, "x", -1.0)]
        )
        assert qnl_variance(two) == pytest.approx(0.5)
        assert qnl_variance(three) == pytest.approx(0.75)
        assert qnl_variance(four) == pytest.approx(1.0)

    def test_variance_db_values(self):
        assert variance_db(0.4, 0.4) == pytest.approx(0.0, abs=1e-14)
        assert variance_db(np.exp(-1.0), 1.0) == pytest.approx(-4.3429448, abs=1e-6)
        assert variance_db(np.exp(-0.6), 1.0) == pytest.approx(-2.6057669, abs=1e-6)

    def test_variance_db_rejects_non_positive(self):
        with pytest.raises(ValueError):
            variance_db(0.0, 1.0)
        with pytest.raises(ValueError):
            variance_db(1.0, -0.5)

    def test_variance_monotone_in_r(self):
        # Nullifier variances shrink (weakly) as squeezing grows.
        for name, graph in (
            ("linear8", graphs.linear_chain(8)),
            ("diamond8", graphs.two_diamond()),
        ):
            vectors = presets.nullifier_vectors(graph)
            grid = np.arange(0.0, 3.0 + 1e-9, 0.1)
            previous = None
            for r in grid:
                unitary = presets.builtin_network(name)[1]
                state = presets.cluster_state(unitary, SqueezePattern.alternating(8, r))
                values = quadrature_variance(state, vectors)
                if previous is not None:
                    assert all(v <= p + 1e-12 for v, p in zip(values, previous))
                previous = values


class TestExcessNoise:
    def test_chain8_first_nullifier_terms(self):
        vectors = presets.nullifier_vectors(graphs.linear_chain(8))
        noise = excess_noise_decomposition(
            presets.builtin_network("linear8")[1], SqueezePattern.alternating(8, 0.5), vectors
        )[0]
        assert noise.anti.size == 0
        [(mode, quadrature, coefficient)] = noise.squeezed.tolist()
        assert (mode, quadrature) == (1, "x")
        assert coefficient == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_chain8_fourth_nullifier_terms(self):
        vectors = presets.nullifier_vectors(graphs.linear_chain(8))
        noise = excess_noise_decomposition(
            presets.builtin_network("linear8")[1], SqueezePattern.alternating(8, 0.5), vectors
        )[3]
        got = {(m, q): coeff for m, q, coeff in noise.squeezed.tolist()}
        assert got[(2, "p")] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert got[(6, "p")] == pytest.approx(np.sqrt(2 / 5), abs=1e-12)
        assert got[(5, "x")] == pytest.approx(np.sqrt(34 / 15), abs=1e-12)
        assert noise.max_anti_coefficient < 1e-12

    def test_identity_network_antisqueezed_input(self):
        # p_1 on an x-squeezed input mode sits entirely on the amplified side.
        pattern = SqueezePattern.uniform(2, 0.3, orientation="x")
        c = combination_vector(2, [(1, "p", 1.0)])
        noise = excess_noise_decomposition(np.eye(2, dtype=complex), pattern, [c])[0]
        assert noise.squeezed.size == 0
        assert noise.anti.tolist() == [(1, "p", pytest.approx(1.0))]

    def test_no_combinations_give_no_decompositions(self):
        pattern = SqueezePattern.alternating(3, 0.4)
        assert excess_noise_decomposition(np.eye(3, dtype=complex), pattern, []) == []

    def test_reconstruction_matches_covariance_for_random_networks(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            u = haar_unitary(rng, n)
            orientations = tuple(rng.choice(["x", "p"], size=n))
            rs = tuple(rng.uniform(0.0, 1.2, size=n))
            pattern = SqueezePattern(orientations, rs)
            coeffs = rng.standard_normal(2 * n)
            state = evolve(input_covariance(pattern), symplectic_from_unitary(u))
            noise = excess_noise_decomposition(u, pattern, [coeffs])[0]
            assert noise.variance == pytest.approx(
                quadrature_variance(state, [coeffs])[0], abs=1e-10
            )


def expanded_covariance(terms, r):
    return np.exp(-2 * r) * terms[0] + np.exp(2 * r) * terms[1] + terms[2]


def composed_covariance(u, pattern, loss):
    """Reference route: inputs, network and loss applied one validated step at a time."""
    state = evolve(input_covariance(pattern), symplectic_from_unitary(u))
    return (state if loss is None else apply_loss(state, loss)).cov


@st.composite
def cluster_networks(draw):
    """Compiled network of a random graph on 2..12 modes with random orientations."""
    n = draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    graph = graphs.Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs))))
    orientations = tuple(draw(st.lists(st.sampled_from("xp"), min_size=n, max_size=n)))
    x_inputs = tuple(j + 1 for j, o in enumerate(orientations) if o == "x")
    _, u = network.compile_cluster_unitary(graphs.adjacency(graph), x_squeezed_inputs=x_inputs)
    return u, orientations


@given(case=cluster_networks(), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_excess_noise_matches_one_pull_back_per_vector(case, k, seed):
    # The decomposition pulls every combination back in one product C·S; each
    # row must equal the single product Sᵀ c within rounding.
    u, orientations = case
    rng = np.random.default_rng(seed)
    n = len(orientations)
    pattern = SqueezePattern(orientations, tuple(rng.uniform(0.0, 1.5, size=n)))
    combos = rng.standard_normal((k, 2 * n)) * rng.choice([1e-3, 1.0, 1e3], size=(k, 1))
    s = symplectic_from_unitary(u)
    squeezed = gaussian._squeezed_quadratures(orientations)
    noises = excess_noise_decomposition(u, pattern, list(combos))
    assert len(noises) == k
    for c, noise in zip(combos, noises):
        w = s.T @ c
        tol = 1e-15 * np.linalg.norm(s, 2) * np.linalg.norm(c)
        for side in (noise.squeezed, noise.anti):
            # Rows of NOISE_TERM, each side in the order x_1, p_1, x_2, p_2, ...
            assert side.dtype == gaussian.NOISE_TERM
            order = [(m, "xp".index(q)) for m, q, _ in side.tolist()]
            assert order == sorted(set(order))
        listed = {
            (m, q): coeff for m, q, coeff in noise.squeezed.tolist() + noise.anti.tolist()
        }
        for i in range(2 * n):
            got = listed.get((i % n + 1, "xp"[i // n]))
            if got is None:
                assert abs(w[i]) <= 1e-12 + tol
            else:
                assert abs(got - w[i]) <= tol
        assert {(m, q) for m, q, _ in noise.squeezed.tolist()} <= {
            (i % n + 1, "xp"[i // n]) for i in np.flatnonzero(squeezed)
        }
        assert noise.max_anti_coefficient == pytest.approx(
            np.max(np.abs(w[~squeezed])), rel=0.0, abs=tol
        )
        assert noise.variance == pytest.approx(
            w**2 @ gaussian._input_variances(pattern), rel=1e-12
        )


class TestClusterState:
    @given(case=cluster_networks(), data=st.data())
    def test_random_graphs_match_composed_route(self, case, data):
        u, orientations = case
        n = len(orientations)
        rs = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
        etas = data.draw(
            st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        )
        pattern = SqueezePattern(orientations, tuple(rs))
        loss = None if etas is None else LossModel(tuple(etas))
        cov = presets.cluster_state(u, pattern, loss=loss).cov
        reference = composed_covariance(u, pattern, loss)
        assert np.max(np.abs(cov - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("loss", [None, LossModel.uniform(8, 0.8)])
    def test_one_validated_state_per_call(self, monkeypatch, loss):
        validated = []
        original = GaussianState.__post_init__

        def counting(state):
            validated.append(state)
            original(state)

        monkeypatch.setattr(GaussianState, "__post_init__", counting)
        pattern = SqueezePattern.alternating(8, 0.5)
        state = presets.cluster_state(presets.builtin_network("linear8")[1], pattern, loss)
        assert validated == [state]

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            presets.cluster_state(np.eye(2), SqueezePattern.alternating(3, 0.5))
        with pytest.raises(ValueError):
            presets.cluster_state(
                np.eye(2), SqueezePattern.alternating(2, 0.5), LossModel.uniform(3, 0.9)
            )


class TestSqueezingTerms:
    @given(
        name=st.sampled_from(["linear8", "diamond8"]),
        r=st.floats(0.0, 2.0),
        etas=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)),
    )
    def test_builtin_configs_match_build_state(self, name, r, etas):
        loss = {"effective_r": r} if etas is None else {"eta": etas}
        config = parse_config({"graph": name, "squeeze": {"r": r}, "loss": loss})
        terms = squeezing_terms(
            config.build_unitary(), config.pattern.orientations, config.loss
        )
        cov = config.build_state().cov
        assert np.max(np.abs(expanded_covariance(terms, r) - cov)) <= 1e-12 * np.max(np.abs(cov))

    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        r=st.floats(0.0, 2.0),
        lossy=st.booleans(),
    )
    def test_random_graphs_match_cluster_state(self, n, seed, r, lossy):
        # Against the composed route: cluster_state shares the channel product.
        rng = np.random.default_rng(seed)
        upper = np.triu((rng.random((n, n)) < 0.45).astype(float), k=1)
        orientations = tuple(rng.choice(["x", "p"], n))
        x_inputs = tuple(j + 1 for j, o in enumerate(orientations) if o == "x")
        _, u = network.compile_cluster_unitary(upper + upper.T, x_squeezed_inputs=x_inputs)
        loss = LossModel(tuple(rng.uniform(0.0, 1.0, n))) if lossy else None
        cov = composed_covariance(u, SqueezePattern(orientations, (r,) * n), loss)
        expanded = expanded_covariance(squeezing_terms(u, orientations, loss), r)
        assert np.max(np.abs(expanded - cov)) <= 1e-12 * np.max(np.abs(cov))

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            squeezing_terms(np.eye(2), ("x",))
        with pytest.raises(ValueError):
            squeezing_terms(np.eye(2), ("x", "p"), LossModel.uniform(3, 0.9))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            squeezing_terms(2 * np.eye(2), ("x", "p"))


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(cov=np.eye(3))  # odd dimension
    with pytest.raises(ValueError):
        GaussianState(cov=np.array([[0.25, 0.1], [0.0, 0.25]]))  # not symmetric
    with pytest.raises(ValueError):
        GaussianState(cov=np.diag([0.01, 0.01]))  # beats the uncertainty bound


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_covariance_rejected(entry):
    # A Cholesky factorisation does not flag every NaN, so finiteness is its own check.
    for cov in (np.diag([entry, 0.25]), np.full((2, 2), entry)):
        with pytest.raises(ValueError, match="finite"):
            GaussianState(cov=cov)


def test_asymmetry_is_checked_against_the_covariance_scale():
    # A hidden relative tolerance of 1e-5 would let this 5e-6 asymmetry
    # through; the Cholesky factorisations of the uncertainty check and of
    # sampling read one triangle, a variance both, so the routes would disagree.
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(cov=[[10.0, 1.0], [1.0 + 5e-6, 10.0]])
    GaussianState(cov=[[10.0, 1.0], [1.0 + 5e-10, 10.0]])  # within 1e-10 of the scale 10


@pytest.mark.parametrize("r", [7.0, 8.0, 10.0])
def test_large_squeezing_accepted(r):
    # Rounding in the uncertainty check grows with the covariance entries.
    state = chain8_state(r)
    assert np.max(np.abs(state.cov)) > 1e5


def test_uncertainty_check_still_rejects_invalid_states():
    with pytest.raises(ValueError):
        GaussianState(cov=0.2 * np.eye(4))
    with pytest.raises(ValueError):
        # Mode 1 has Var x Var p = 0.02 < 1/16; the minimum eigenvalue of
        # cov + (i/4) Omega is -4.25e-6 at a covariance scale of 1e4.
        GaussianState(cov=np.diag([1e4, 0.25, 2e-6, 0.25]))


def eigvalsh_rejects(cov) -> bool:
    """The eigendecomposition route: some eigenvalue of cov + (i/4) Omega below -tol."""
    tol = 1e-10 * max(1.0, float(np.max(np.abs(cov))))
    bound = cov + 0.25j * omega(cov.shape[0] // 2)
    return bool(np.min(np.linalg.eigvalsh(bound)) < -tol)


def rejected(cov) -> bool:
    try:
        GaussianState(cov=cov)
    except ValueError as exc:
        assert "uncertainty bound" in str(exc)
        return True
    return False


@given(case=cluster_networks(), data=st.data())
def test_uncertainty_check_accepts_every_channel_built_state(case, data):
    # Without loss the state is pure and the bound is tight: the smallest
    # eigenvalue of cov + (i/4) Omega is 0, and only the tolerance separates
    # it from a rejection, up to covariance entries of e^20 / 4 at r = 10.
    u, orientations = case
    n = len(orientations)
    rs = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    etas = data.draw(st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    loss = None if etas is None else LossModel(tuple(etas))
    state = presets.cluster_state(u, SqueezePattern(orientations, tuple(rs)), loss=loss)
    assert not eigvalsh_rejects(state.cov)


@given(
    case=cluster_networks(),
    r=st.floats(0.0, 3.0),
    exponent=st.floats(0.0, 8.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_uncertainty_check_rejects_where_the_eigenvalues_do(case, r, exponent, sign):
    # A channel-built covariance scaled to max|cov| = 10**exponent, then
    # shifted along the identity so that the smallest eigenvalue of
    # cov + (i/4) Omega is sign * 10 tol: the Cholesky check must reject
    # exactly the negative side, as the eigendecomposition route does.
    u, orientations = case
    cov = presets.cluster_state(u, SqueezePattern(orientations, (r,) * len(orientations))).cov
    cov = cov * (10.0**exponent / np.max(np.abs(cov)))
    cov = (cov + cov.T) / 2.0
    tol = 1e-10 * max(1.0, float(np.max(np.abs(cov))))
    lowest = np.min(np.linalg.eigvalsh(cov + 0.25j * omega(cov.shape[0] // 2)))
    cov = cov + (sign * 10.0 * tol - lowest) * np.eye(cov.shape[0])
    assert eigvalsh_rejects(cov) == (sign < 0)
    assert rejected(cov) == (sign < 0)
