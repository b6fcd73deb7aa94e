import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvcluster import graphs, network, presets, sampling
from cvcluster.config import BUILTIN_CONFIGS, load_config
from cvcluster.criteria import resolve_gains, unit_gains
from cvcluster.gaussian import (
    LossModel,
    SqueezePattern,
    combination_vector,
    quadrature_variance,
    vacuum_state,
)
from cvcluster.sampling import estimate_variance, estimate_variances, sample_quadratures


def chain8_state(r):
    return presets.cluster_state(
        presets.builtin_network("linear8")[1], SqueezePattern.alternating(8, r)
    )


def check_vectors(config):
    """The (k, 2n) stack `sample` checks on a builtin config with unit gains."""
    vectors = presets.nullifier_vectors(config.graph)
    for c in config.criteria():
        vectors += list(c.sides(unit_gains([c])))
    return np.array(vectors)


def test_vacuum_per_quadrature_variance():
    batch = sample_quadratures(vacuum_state(2), 200_000, seed=0)
    for column in range(4):
        coeffs = np.zeros(4)
        coeffs[column] = 1.0
        est = estimate_variance(batch, [coeffs])
        assert abs(est.estimate[0] - 0.25) <= 3 * est.std_error[0]


def test_same_seed_reproduces_batch():
    state = chain8_state(0.5)
    a = sample_quadratures(state, 5_000, seed=42)
    b = sample_quadratures(state, 5_000, seed=42)
    assert np.array_equal(a.samples, b.samples)


def test_different_seed_differs():
    state = chain8_state(0.5)
    a = sample_quadratures(state, 1_000, seed=1)
    b = sample_quadratures(state, 1_000, seed=2)
    assert not np.array_equal(a.samples, b.samples)


def test_chain8_first_nullifier_sampled_variance():
    state = chain8_state(0.5)
    vec = presets.nullifier_vectors(graphs.linear_chain(8))[0]
    batch = sample_quadratures(state, 1_000_000, seed=3)
    est = estimate_variance(batch, [vec])
    analytic = np.exp(-1.0) / 2
    assert abs(est.estimate[0] - analytic) <= 3 * est.std_error[0]
    assert est.estimate[0] == pytest.approx(0.18394, abs=0.002)


def test_minimum_sample_counts():
    state = vacuum_state(1)
    with pytest.raises(ValueError):
        sample_quadratures(state, 0, seed=0)
    batch = sample_quadratures(state, 1, seed=0)
    with pytest.raises(ValueError):
        estimate_variance(batch, np.array([[1.0, 0.0]]))


def test_zero_projection_estimates_zero():
    batch = sample_quadratures(vacuum_state(2), 100, seed=5)
    est = estimate_variance(batch, [np.zeros(4)])
    assert est.estimate[0] == 0.0
    assert est.std_error[0] == 0.0


def test_vacuum_combination_near_half():
    batch = sample_quadratures(vacuum_state(8), 200_000, seed=6)
    vec = combination_vector(8, [(1, "p", 1.0), (2, "x", -1.0)])
    est = estimate_variance(batch, [vec])
    assert abs(est.estimate[0] - 0.5) <= 3 * est.std_error[0]


def test_criterion_3a_lhs_from_samples():
    state = chain8_state(0.30)
    c = presets.builtin_criteria("linear8")[0]
    gains = unit_gains([c])
    batch = sample_quadratures(state, 400_000, seed=8)
    est = estimate_variance(batch, c.sides(gains))
    total, spread = est.estimate.sum(), est.std_error.sum()
    assert abs(total - 1.25 * np.exp(-0.6)) <= 3 * spread


def test_three_sigma_coverage_over_seeds():
    state = chain8_state(0.5)
    vec = presets.nullifier_vectors(graphs.linear_chain(8))[0]
    analytic = quadrature_variance(state, [vec])[0]
    hits = 0
    for seed in range(20):
        est = estimate_variance(sample_quadratures(state, 100_000, seed), [vec])
        if abs(est.estimate[0] - analytic) <= 3 * est.std_error[0]:
            hits += 1
    assert hits >= 19


def test_std_error_scaling_with_n():
    state = chain8_state(0.5)
    vec = presets.nullifier_vectors(graphs.linear_chain(8))[0]
    small = estimate_variance(sample_quadratures(state, 100_000, seed=12), [vec])
    large = estimate_variance(sample_quadratures(state, 200_000, seed=13), [vec])
    ratio = small.std_error[0] / large.std_error[0]
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.10)


@given(
    k=st.integers(1, 6),
    n=st.integers(2, 300),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_moments_are_numpys_mean_and_var(k, n, dim, seed):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n, dim)) * rng.uniform(0.01, 100) + rng.uniform(-10, 10)
    coeffs = rng.standard_normal(dim if k is None else (k, dim))
    kept_samples, kept_coeffs = samples.copy(), coeffs.copy()
    est = estimate_variance(sampling.SampleBatch(samples), coeffs)
    projected = coeffs @ samples.T
    assert np.array_equal(est.mean, projected.mean(-1))
    assert np.array_equal(est.estimate, projected.var(-1, ddof=1))
    assert np.array_equal(samples, kept_samples)
    assert np.array_equal(coeffs, kept_coeffs)


@given(
    k=st.integers(1, 40),
    n=st.integers(1025, 5000),
    dim=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_sliced_moments_match_numpys_past_one_product(k, n, dim, seed):
    # Past 1024 draws the projection is taken in several products; an entry
    # may round differently from one whole product, in its last bits.
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n, dim)) * rng.uniform(0.01, 100) + rng.uniform(-10, 10)
    coeffs = rng.standard_normal(dim if k is None else (k, dim))
    kept_samples, kept_coeffs = samples.copy(), coeffs.copy()
    est = estimate_variance(sampling.SampleBatch(samples), coeffs)
    projected = coeffs @ samples.T
    np.testing.assert_allclose(est.mean, projected.mean(-1), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(est.estimate, projected.var(-1, ddof=1), rtol=1e-12, atol=0.0)
    assert np.array_equal(samples, kept_samples)
    assert np.array_equal(coeffs, kept_coeffs)


def projection_draws(run):
    """The draws each ``np.matmul`` product covers while ``run()`` runs."""
    draws = []
    original = np.matmul

    def recording(a, b, *args, **kwargs):
        draws.append(np.shape(b)[-1])
        return original(a, b, *args, **kwargs)

    with mock.patch.object(np, "matmul", recording):
        run()
    return draws


def test_projection_products_cover_at_most_1024_draws():
    # A 4096-draw product of 26 checks on 16 columns is large enough for
    # OpenBLAS to split it over two threads, which then spin between calls.
    config = load_config("diamond8_physical")
    state, vectors = config.build_state(), check_vectors(config)
    assert len(vectors) == 26
    draws = projection_draws(lambda: estimate_variances(state, vectors, 1_000_000, seed=1))
    assert max(draws) <= 1024
    assert sum(draws) == 1_000_000


def test_wide_blocks_are_projected_in_one_product():
    # Past 64 columns a block holds 1024 draws, one product's worth.
    state = vacuum_state(256)
    draws = projection_draws(lambda: estimate_variances(state, np.eye(512)[:4], 3000, seed=0))
    assert draws == [1024, 1024, 952]


# Rows per streamed block for the 16-column 8-mode states.
BLOCK_ROWS = sampling.BLOCK_VALUES // 16


@pytest.mark.parametrize(
    "n",
    [2, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
    # 16 and 32 whole blocks: a run one short of, at, and one past a boundary deep in the tree.
    + [16 * BLOCK_ROWS - 1, 16 * BLOCK_ROWS, 16 * BLOCK_ROWS + 1, 32 * BLOCK_ROWS + 1],
)
def test_streamed_matches_materialised_batch(n):
    # B + 1 and 2B + 1 would leave a block of one draw, which cannot carry a variance.
    state = chain8_state(0.5)
    vectors = check_vectors(load_config("linear8"))
    streamed = estimate_variances(state, vectors, n, seed=21)
    reference = estimate_variance(sample_quadratures(state, n, seed=21), vectors)
    for estimate, std_error, expected, expected_error in zip(
        streamed.estimate, streamed.std_error, reference.estimate, reference.std_error
    ):
        assert estimate == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert std_error == pytest.approx(expected_error, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("modes, rows", [(8, 4096), (32, 1024), (64, 1024), (256, 1024)])
def test_wide_blocks_keep_enough_draws_to_amortise_the_product(modes, rows):
    # Blocks hold 2**16 normals up to 64 columns; wider blocks keep 1024 draws.
    seen = []
    original = sampling._blocks

    def recording(dim, n, seed, rows):
        seen.append(rows)
        return original(dim, n, seed, rows)

    with mock.patch.object(sampling, "_blocks", recording):
        estimate_variances(vacuum_state(modes), np.eye(2 * modes)[:2], 3000, seed=0)
    assert seen == [rows]


def test_streamed_zero_vector_estimates_zero():
    state = chain8_state(0.5)
    vectors = np.array([np.zeros(16), presets.nullifier_vectors(graphs.linear_chain(8))[0]])
    est = estimate_variances(state, vectors, 2 * BLOCK_ROWS + 1, seed=22)
    assert est.estimate[0] == 0.0
    assert est.std_error[0] == 0.0
    assert est.estimate[1] > 0.0


def test_streamed_rejects_single_draw():
    with pytest.raises(ValueError):
        estimate_variances(vacuum_state(1), np.eye(2), 1, seed=0)


@st.composite
def lossy_cluster_states(draw):
    """A random graph on 2..8 modes with per-mode squeezing and efficiency."""
    n = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    graph = graphs.Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs))))
    _, unitary = network.compile_cluster_unitary(graphs.adjacency(graph))
    rs = draw(st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n))
    etas = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    pattern = SqueezePattern(tuple("xp"[j % 2] for j in range(n)), tuple(rs))
    state = presets.cluster_state(unitary, pattern, loss=LossModel(tuple(etas)))
    return state, np.array(presets.nullifier_vectors(graph))


@given(
    case=lossy_cluster_states(),
    n=st.integers(2, 400),
    block_values=st.sampled_from([1, 40, 100, 2**16, 2**20]),
    seed=st.integers(0, 2**32),
)
def test_streamed_matches_materialised_on_random_graphs(case, n, block_values, seed):
    state, vectors = case
    with mock.patch.object(sampling, "BLOCK_VALUES", block_values):
        streamed = estimate_variances(state, vectors, n, seed)
    reference = estimate_variance(sample_quadratures(state, n, seed), vectors)
    np.testing.assert_allclose(streamed.estimate, reference.estimate, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(streamed.mean, reference.mean, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", [2, 46, 116])
def test_two_draws_are_centred_exactly(seed):
    # With two draws the sample mean is as large as the spread, so one-pass
    # centring, sum y^2 - (sum y)^2 / N, cancels: on these seeds it is off by
    # 6.1e-12, 1.3e-11 and 1.9e-11 relative.
    state = chain8_state(0.5)
    vectors = check_vectors(load_config("linear8"))
    streamed = estimate_variances(state, vectors, 2, seed)
    reference = estimate_variance(sample_quadratures(state, 2, seed), vectors)
    np.testing.assert_allclose(streamed.estimate, reference.estimate, rtol=1e-12, atol=0.0)


# Rows of draws projected at a time by the exact reference below.
EXACT_CHUNK = 2**15


def exact_row_sums(blocks):
    """``math.fsum`` of each row of (k, m) blocks laid end to end, for k rows.

    A double is an integer |d| < 2^53 times 2^(e - 53), e from ``np.frexp``.
    d splits into a high and a low digit below 2^27, and ``np.bincount``
    adds each row's digits of equal e.  Below 2^26 values per row every
    partial sum is an integer under 2^53, so nothing rounds; each digit total
    times its power of two is an exact double, and ``math.fsum`` of those
    rounds once, to the double nearest the exact sum, as it does on the values.
    """
    span, offset = 2100, 1075  # e of a double lies in [-1073, 1024]
    totals = 0.0
    for block in blocks:
        mantissas, exponents = np.frexp(block)
        assert exponents.min() >= -1021, "digits times 2^(e - 53) would be subnormal"
        digits = np.ldexp(mantissas, 53).astype(np.int64)
        high = digits >> 26
        keys = (exponents + offset + span * np.arange(len(block))[:, None]).ravel()
        size = len(block) * span
        totals = totals + np.array(
            [np.bincount(keys, d.ravel(), size) for d in (high, digits - (high << 26))]
        )
    powers = np.ldexp(1.0, np.arange(span) - offset - 53)
    return [
        math.fsum(np.concatenate([high * powers * 2.0**26, low * powers]).tolist())
        for high, low in totals.reshape(2, -1, span).transpose(1, 0, 2)
    ]


def test_exact_row_sums_round_as_fsum_does():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((3, 5000)) * np.exp(rng.uniform(-30.0, 30.0, (3, 5000)))
    values[0, ::7] = 0.0
    values[1, :2] = [1e300, -1e300]
    assert exact_row_sums(np.array_split(values, 4, axis=1)) == [
        math.fsum(row.tolist()) for row in values
    ]


def test_streamed_estimates_match_an_exact_two_pass_sum():
    # The checks of five `sample` ops (each builtin, and diamond8_physical with
    # optimal gains) at 10**6 draws, 245 blocks.  Merged one block after the
    # other, those blocks drift from the exact sum by 1.2e-15 to 1.6e-15
    # relative; the pairwise tree stays below 3.3e-16.  Unit-gain sides repeat
    # nullifiers, so the exact sums are taken once per distinct pulled-back row,
    # all rows at once over chunks of the draws.
    n, seed = 1_000_000, 1
    normals = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, 16))

    cases = [(name, None) for name in BUILTIN_CONFIGS]
    cases.append(("diamond8_physical", "optimal"))
    checks, distinct = [], {}
    for name, gains in cases:
        config = load_config(name)
        state = config.build_state()
        criteria = config.criteria()
        table = resolve_gains(criteria, gains or config.gains_spec, state=state)
        vectors = np.array(
            presets.nullifier_vectors(config.graph)
            + [side for c in criteria for side in c.sides(table[c.cid])]
        )
        streamed = estimate_variances(state, vectors, n, seed)
        pulled = vectors @ np.linalg.cholesky(state.cov)
        keys = [row.tobytes() for row in pulled]
        distinct.update(zip(keys, pulled))
        checks.append((name, gains, streamed.estimate, keys))
    rows = np.array(list(distinct.values()))

    def projections():
        for start in range(0, n, EXACT_CHUNK):
            yield rows @ normals[start : start + EXACT_CHUNK].T

    means = np.array(exact_row_sums(projections())) / n
    squares = ((p - means[:, None]) ** 2 for p in projections())
    exact = dict(zip(distinct, np.array(exact_row_sums(squares)) / (n - 1)))
    # The digit sums agree with math.fsum on the first row's whole projection.
    first = normals @ rows[0]
    assert exact_row_sums([first[None]]) == [math.fsum(first.tolist())]

    for name, gains, estimates, keys in checks:
        for estimate, key in zip(estimates, keys):
            assert abs(estimate - exact[key]) <= 1e-15 * exact[key], (name, gains)


@given(case=lossy_cluster_states(), k=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_variance_stack_matches_single_vectors(case, k, seed):
    state, nullifiers = case
    extra = np.random.default_rng(seed).standard_normal((k, nullifiers.shape[1]))
    stack = np.vstack([nullifiers, extra])
    variances = quadrature_variance(state, stack)
    assert np.array_equal(variances, [quadrature_variance(state, [c])[0] for c in stack])
    assert np.array_equal(variances, [c @ state.cov @ c for c in stack])
    with pytest.raises(ValueError):
        quadrature_variance(state, stack[:, :-1])
    with pytest.raises(ValueError):
        quadrature_variance(state, stack[None])
    with pytest.raises(ValueError):
        quadrature_variance(state, stack[0])


def test_a_single_vector_is_not_a_stack():
    # Every variance route takes a (k, 2n) stack of checks, k = 1 included.
    state = vacuum_state(2)
    vec = np.ones(4)
    batch = sample_quadratures(state, 10, seed=0)
    for route in (
        lambda: quadrature_variance(state, vec),
        lambda: estimate_variance(batch, vec),
        lambda: estimate_variances(state, vec, 10, seed=0),
    ):
        with pytest.raises(ValueError):
            route()
    assert estimate_variance(batch, [vec]).estimate.shape == (1,)


def test_streamed_memory_does_not_grow_with_draws():
    config = load_config("diamond8_physical")
    state = config.build_state()
    vectors = check_vectors(config)
    tracemalloc.start()
    try:
        estimate_variances(state, vectors, 1_000_000, seed=1)
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        batch = sample_quadratures(state, 1_000_000, seed=1)
        for vec in vectors:
            estimate_variance(batch, [vec])
        materialised = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed < 64 * 2**20
    assert materialised > 200 * 2**20


def test_streamed_blocks_stay_cache_sized():
    # One 2**16-value block of normals (512 KB) and its projection onto the
    # 26 checks (0.85 MB) are all the route holds at a time.
    config = load_config("diamond8_physical")
    state = config.build_state()
    vectors = check_vectors(config)
    tracemalloc.start()
    try:
        estimate_variances(state, vectors, 1_000_000, seed=1)
        streamed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed < 4 * 2**20


def test_covariance_that_is_not_positive_definite_is_rejected_before_any_draw():
    # Only `cov` is read; a physical state is always positive definite, so a
    # bare stand-in carries the singular matrix.
    state = SimpleNamespace(cov=np.diag([1.0, 0.0]))

    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples")

    with mock.patch.object(sampling, "_blocks", no_draws):
        for route in (
            lambda: sample_quadratures(state, 10, seed=0),
            lambda: estimate_variances(state, np.eye(2), 10, seed=0),
        ):
            with pytest.raises(ValueError, match="positive definite"):
                route()


def test_streamed_route_projects_the_normals_onto_pulled_back_checks():
    # Var(v·Lz) = Var((Lᵀv)·z): a stand-in stream of normals, projected
    # through the pulled-back checks, gives the estimate of the outcomes z·Lᵀ.
    state = chain8_state(0.7)
    vectors = check_vectors(load_config("linear8"))
    normals = np.random.default_rng(5).standard_normal((300, 16))
    with mock.patch.object(sampling, "_blocks", lambda *args, **kwargs: iter([normals])):
        streamed = estimate_variances(state, vectors, 300, seed=0)
    outcomes = normals @ np.linalg.cholesky(state.cov).T
    reference = estimate_variance(sampling.SampleBatch(outcomes), vectors)
    np.testing.assert_allclose(streamed.estimate, reference.estimate, rtol=1e-12, atol=0.0)
