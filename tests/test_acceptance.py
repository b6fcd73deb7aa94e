"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
of every criterion.
"""

import numpy as np
import pytest

from cvcluster import graphs, network, presets, reference
from cvcluster.config import load_config
from cvcluster.criteria import (
    evaluate,
    gram_block,
    optimal_gains_numeric,
    resolve_gains,
    threshold_r,
)
from cvcluster.gaussian import (
    LossModel,
    SqueezePattern,
    apply_loss,
    excess_noise_decomposition,
    evolve,
    input_covariance,
    omega,
    qnl_variance,
    quadrature_variance,
    squeezing_terms,
    symplectic_from_unitary,
)
from cvcluster.sampling import estimate_variance, sample_quadratures

from expected import CHAIN8_GRAM_INVERSE, CHAIN8_UNITARY, optimal_gains_analytic


LINEAR_NETWORK = presets.builtin_network("linear8")[1]
DIAMOND_NETWORK = presets.builtin_network("diamond8")[1]


def linear_state(r):
    return presets.cluster_state(LINEAR_NETWORK, SqueezePattern.alternating(8, r))


def diamond_state(r):
    return presets.cluster_state(DIAMOND_NETWORK, SqueezePattern.alternating(8, r))


LINEAR = load_config("linear8").criteria()
DIAMOND = load_config("diamond8").criteria()


def test_acceptance_1_compiler_fidelity():
    a = graphs.adjacency(graphs.linear_chain(8))
    gram = network.inverse_gram(a)
    gram_deviation = np.max(np.abs(gram - CHAIN8_GRAM_INVERSE))
    assert gram_deviation < 1e-14

    factor = network.gram_factor_sequential(gram, pivot_signs=presets.CHAIN8_PIVOT_SIGNS)
    u = network.input_basis_convert(
        network.assemble_unitary(a, factor), presets.X_SQUEEZED_INPUTS
    )
    unitary_deviation = np.max(np.abs(u - CHAIN8_UNITARY))
    assert unitary_deviation < 1e-12
    print(
        f"\nACCEPTANCE 1 compiler fidelity: PASS "
        f"(network dev {unitary_deviation:.1e}, gram dev {gram_deviation:.1e})"
    )


def test_acceptance_2_element_decomposition():
    composed = network.compose_sequence(presets.CHAIN8_ELEMENTS, 8)
    deviation = np.max(np.abs(composed - CHAIN8_UNITARY))
    assert deviation < 1e-12
    print(
        "\nACCEPTANCE 2 element decomposition: PASS "
        f"(listed order, last element acts first; dev {deviation:.1e})"
    )


def test_acceptance_3_excess_noise():
    worst_anti = 0.0
    worst_ratio = 0.0
    for unitary, graph in (
        (LINEAR_NETWORK, graphs.linear_chain(8)),
        (DIAMOND_NETWORK, graphs.two_diamond()),
    ):
        vectors = presets.nullifier_vectors(graph)
        for r in (0.1, 0.5, 1.0):
            pattern = SqueezePattern.alternating(8, r)
            state = presets.cluster_state(unitary, pattern)
            noises = excess_noise_decomposition(unitary, pattern, vectors)
            for vec, noise in zip(vectors, noises):
                worst_anti = max(worst_anti, noise.max_anti_coefficient)
                ratio = quadrature_variance(state, [vec])[0] / qnl_variance(vec)
                worst_ratio = max(worst_ratio, abs(ratio - np.exp(-2.0 * r)))
    assert worst_anti < 1e-10
    assert worst_ratio < 1e-10

    # Term-by-term comparison against the printed coefficient tables: every
    # magnitude must match; sign disagreements are reported, not hidden.
    pattern = SqueezePattern.alternating(8, 0.5)
    sign_mismatches = []
    for unitary, graph, table in (
        (LINEAR_NETWORK, graphs.linear_chain(8), reference.REFERENCE_NOISE_TERMS_LINEAR),
        (DIAMOND_NETWORK, graphs.two_diamond(), reference.REFERENCE_NOISE_TERMS_DIAMOND),
    ):
        noises = excess_noise_decomposition(
            unitary, pattern, presets.nullifier_vectors(graph)
        )
        for mismatch in reference.compare_noise_terms(noises, table):
            assert mismatch.magnitudes_agree, mismatch
            sign_mismatches.append(mismatch)
    report = "; ".join(
        f"nullifier {m.mode} term ({m.input_mode},{m.quadrature}) computed "
        f"{m.computed:+.4f} vs printed {m.reference:+.4f}"
        for m in sign_mismatches
    )
    print(
        "\nACCEPTANCE 3 excess noise: PASS "
        f"(max anti {worst_anti:.1e}, max ratio dev {worst_ratio:.1e}; "
        f"sign mismatches reported: {report or 'none'})"
    )


_LINEAR_MODEL_LHS = [0.686, 0.823, 0.823, 0.823, 0.823, 0.823, 0.686]


def test_acceptance_4_linear_measured_values():
    state = linear_state(reference.EFFECTIVE_R)
    criteria = LINEAR
    lhs = [r.lhs for r in evaluate(criteria, state, resolve_gains(criteria, "unit"))]
    for model, exact in zip(lhs, _LINEAR_MODEL_LHS):
        assert model == pytest.approx(exact, abs=5e-4)
    gaps = [abs(m - meas) for m, meas in zip(lhs, reference.MEASURED_LHS_LINEAR)]
    assert max(gaps) <= 0.08
    print(
        "\nACCEPTANCE 4 (chain list): PASS "
        f"(max |model - measured| = {max(gaps):.3f} <= 0.08)"
    )


def _diamond_lhs_at_effective_r():
    state = diamond_state(reference.EFFECTIVE_R)
    criteria = DIAMOND
    gains = resolve_gains(criteria, {"g_D6": reference.MEASURED_G_D6})
    return [r.lhs for r in evaluate(criteria, state, gains)]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "4e: covariance model gives lhs = 0.794 at effective r = 0.30 with "
        "g_D6 = 0.60, while the measured value is 0.95; the 0.156 gap exceeds "
        "the +-0.05 tolerance and reflects experimental excess noise on the "
        "gain-scaled combinations that a Gaussian loss model cannot produce. "
        "The other sixteen list values pass (see the companion test)."
    ),
)
def test_acceptance_4_diamond_measured_values_full_list():
    lhs = _diamond_lhs_at_effective_r()
    gaps = [abs(m - meas) for m, meas in zip(lhs, reference.MEASURED_LHS_DIAMOND)]
    print(
        "\nACCEPTANCE 4 (diamond list, faithful): FAIL "
        f"(4e model {lhs[4]:.3f} vs measured {reference.MEASURED_LHS_DIAMOND[4]:.2f}, "
        f"gap {gaps[4]:.3f} > 0.05)"
    )
    assert max(gaps) <= 0.05


def test_acceptance_4_diamond_measured_values_except_4e():
    lhs = _diamond_lhs_at_effective_r()
    assert lhs[2] == pytest.approx(0.960, abs=5e-4)  # 4c exact model value
    gaps = {
        cid: abs(m - meas)
        for cid, m, meas in zip(
            [c.cid for c in DIAMOND],
            lhs,
            reference.MEASURED_LHS_DIAMOND,
        )
    }
    worst = max(v for k, v in gaps.items() if k != "4e")
    assert worst <= 0.05
    print(
        "\nACCEPTANCE 4 (diamond list): PARTIAL - 8/9 within +-0.05 "
        f"(worst {worst:.3f}); 4e model {lhs[4]:.3f} vs measured 0.95 is a "
        "documented model-experiment gap, reported in the faithful test"
    )


def test_acceptance_5_nullifier_noise_power():
    model_db = 10.0 * np.log10(np.exp(-2.0 * reference.EFFECTIVE_R))
    assert model_db == pytest.approx(-2.606, abs=5e-4)
    measured = reference.MEASURED_DB_LINEAR + reference.MEASURED_DB_DIAMOND
    worst = max(abs(model_db - m) for m in measured)
    assert worst <= 0.45
    print(
        "\nACCEPTANCE 5 nullifier noise power: PASS "
        f"(model {model_db:.3f} dB within +-0.45 dB of all 16 measurements, worst {worst:.2f})"
    )


def test_builtin_configs_carry_the_published_source_figures():
    for name in ("linear8", "diamond8", "linear8_physical", "diamond8_physical"):
        config = load_config(name)
        assert set(config.pattern.rs) == {reference.INITIAL_SQUEEZING_R}, name
        if name.endswith("_physical"):
            assert config.effective_r is None, name
            assert set(config.loss.etas) == {reference.TOTAL_EFFICIENCY}, name
        else:
            assert config.loss is None, name
            assert config.effective_r == reference.EFFECTIVE_R, name
        if name.startswith("diamond8"):
            assert config.gains_spec == {"g_D6": reference.MEASURED_G_D6}, name
    assert reference.TOTAL_EFFICIENCY == (
        reference.BEAM_EFFICIENCY * reference.DETECTION_EFFICIENCY
    )


def test_initial_squeezing_in_db():
    # The quoted source squeezing is -4.30 +- 0.07 dB at r = 0.50.
    model_db = 10.0 * np.log10(np.exp(-2.0 * reference.INITIAL_SQUEEZING_R))
    assert model_db == pytest.approx(-4.343, abs=5e-4)
    assert abs(model_db - reference.INITIAL_SQUEEZING_DB) <= 0.07


def test_tuned_4e_noise_power_lies_below_the_measured_pair():
    # The model's two 4e combinations at g_D6 = 0.60 sit 0.77-0.81 dB below
    # the measured pair: the excess noise of the strict 4e xfail above.
    config = load_config("diamond8")
    gains = resolve_gains(DIAMOND, config.gains_spec)
    result = evaluate(DIAMOND, config.build_state(), gains)[4]
    assert result.cid == "4e"
    for model_db, measured in zip((result.u_db, result.v_db), reference.MEASURED_DB_DIAMOND_TUNED):
        assert model_db == pytest.approx(-2.335, abs=5e-4)
        assert 0.77 <= round(measured - model_db, 2) <= 0.81


def test_acceptance_6_thresholds():
    lin = {c.cid: c for c in LINEAR}
    dia = {c.cid: c for c in DIAMOND}
    orientations = SqueezePattern.alternating(8, 0.0).orientations
    linear_terms = squeezing_terms(LINEAR_NETWORK, orientations)
    diamond_terms = squeezing_terms(DIAMOND_NETWORK, orientations)
    targets = {
        "3a": (lin["3a"], linear_terms, 0.5 * np.log(1.25)),
        "3b": (lin["3b"], linear_terms, 0.5 * np.log(1.5)),
        "4a": (dia["4a"], diamond_terms, 0.5 * np.log(1.5)),
        "4c": (dia["4c"], diamond_terms, 0.5 * np.log(1.75)),
        "4e": (dia["4e"], diamond_terms, 0.5 * np.log(2.0)),
    }
    computed = {}
    for cid, (criterion, terms, expected) in targets.items():
        (value,), _ = threshold_r([criterion], gram_block([criterion], terms))
        computed[cid] = value
        assert value == pytest.approx(expected, abs=1e-4), cid

    notes = []
    for cid in ("3c", "3d"):
        (value,), _ = threshold_r([lin[cid]], gram_block([lin[cid]], linear_terms))
        assert value == pytest.approx(0.5 * np.log(1.5), abs=1e-4)
        published = presets.PUBLISHED["linear8"].unit_gain_thresholds[cid]
        notes.append(
            f"{cid}: model {value:.4f} vs published {published:.2f} "
            "(covariance simulation is the ground truth; the model value also "
            "follows from the printed noise-term magnitudes)"
        )
    print(
        "\nACCEPTANCE 6 thresholds: PASS "
        f"(3a {computed['3a']:.4f}, 3b {computed['3b']:.4f}, 4a ~, "
        f"4c {computed['4c']:.4f}, 4e {computed['4e']:.4f}; " + "; ".join(notes) + ")"
    )


def test_acceptance_7_optimal_gains():
    worst = 0.0
    for r in (0.1, 0.3, 0.5, 1.0):
        analytic = optimal_gains_analytic(r)
        for criteria, state in ((LINEAR, linear_state(r)), (DIAMOND, diamond_state(r))):
            for numeric in optimal_gains_numeric(criteria, state).values():
                worst = max(worst, *(abs(v - analytic[k]) for k, v in numeric.items()))
    assert worst < 1e-12

    g_d6 = optimal_gains_analytic(0.5)["g_D6"]
    assert abs(g_d6 - reference.MEASURED_G_D6) < 0.02

    for r in (0.01, 0.05, 0.1):
        gains = optimal_gains_analytic(r)
        for criteria, state in ((LINEAR, linear_state(r)), (DIAMOND, diamond_state(r))):
            for result in evaluate(criteria, state, {c.cid: gains for c in criteria}):
                assert result.satisfied, (result.cid, r)
    print(
        "\nACCEPTANCE 7 optimal gains: PASS "
        f"(analytic vs numeric within {worst:.1e}; g_D6(0.5) = {g_d6:.4f}; "
        "all 16 criteria satisfied at r = 0.01, 0.05, 0.1)"
    )


def test_acceptance_8_property_suites():
    rng = np.random.default_rng(2024)
    form16 = None
    worst_residual = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        upper = np.triu((rng.random((n, n)) < 0.4).astype(float), k=1)
        a = upper + upper.T
        _, u = network.compile_cluster_unitary(a)
        s = symplectic_from_unitary(u)
        form = omega(n)
        worst_residual = max(
            worst_residual,
            float(np.max(np.abs(u @ u.conj().T - np.eye(n)))),
            float(np.max(np.abs(s @ form @ s.T - form))),
        )
    assert worst_residual < 1e-12

    # Gauge freedom: an orthogonal right factor on the Gram factor leaves all
    # nullifier variances unchanged for identical phase-squeezed inputs.
    a = graphs.adjacency(graphs.linear_chain(8))
    gram = network.inverse_gram(a)
    factor = network.gram_factor_sequential(gram)
    vectors = presets.nullifier_vectors(graphs.linear_chain(8))
    pattern = SqueezePattern.uniform(8, 0.4, orientation="p")
    base_state = evolve(
        input_covariance(pattern),
        symplectic_from_unitary(network.assemble_unitary(a, factor)),
    )
    baseline = quadrature_variance(base_state, vectors)
    worst_gauge = 0.0
    for _ in range(50):
        q, r_ = np.linalg.qr(rng.standard_normal((8, 8)))
        q = q * np.sign(np.diag(r_))
        state = evolve(
            input_covariance(pattern),
            symplectic_from_unitary(network.assemble_unitary(a, factor @ q)),
        )
        values = quadrature_variance(state, vectors)
        worst_gauge = max(worst_gauge, float(np.max(np.abs(values - baseline))))
    assert worst_gauge < 1e-10

    state = linear_state(0.7)
    worst_loss = 0.0
    for _ in range(10):
        eta1 = rng.uniform(0.2, 1.0, 8)
        eta2 = rng.uniform(0.2, 1.0, 8)
        sequential = apply_loss(
            apply_loss(state, LossModel(tuple(eta1))), LossModel(tuple(eta2))
        )
        combined = apply_loss(state, LossModel(tuple(eta1 * eta2)))
        worst_loss = max(worst_loss, float(np.max(np.abs(sequential.cov - combined.cov))))
    assert worst_loss < 1e-12
    print(
        "\nACCEPTANCE 8 property suites: PASS "
        f"(200 graphs residual {worst_residual:.1e}; gauge dev {worst_gauge:.1e}; "
        f"loss composition {worst_loss:.1e})"
    )


def test_acceptance_9_monte_carlo():
    worst_z = 0.0
    for name, seed in (("linear8", 1), ("diamond8", 1001)):
        config = load_config(name)
        state = config.build_state()
        batch = sample_quadratures(state, 1_000_000, seed)
        checks = list(presets.nullifier_vectors(config.graph))
        criteria = config.criteria()
        gains = resolve_gains(criteria, config.gains_spec, state=state)
        for criterion in criteria:
            checks += list(criterion.sides(gains[criterion.cid]))
        analytic = quadrature_variance(state, checks)
        est = estimate_variance(batch, checks)
        worst_z = max(worst_z, float(np.max(np.abs(est.estimate - analytic) / est.std_error)))
    assert worst_z < 3.0
    print(
        f"\nACCEPTANCE 9 Monte Carlo: PASS (48 checks at n = 1e6, max |z| = {worst_z:.2f})"
    )
