import json
import re
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvcluster import cli, graphs, presets
from cvcluster import criteria as criteria_module
from cvcluster.config import load_config, parse_config
from cvcluster.criteria import (
    GAIN_MODES,
    Criterion,
    Term,
    evaluate,
    full_inseparability_report,
    graph_criteria,
    gram_block,
    lhs_curve,
    optimal_gains_numeric,
    resolve_gains,
    threshold_r,
    unit_gains,
    vlf_bound,
)
from cvcluster.gaussian import (
    LossModel,
    SqueezePattern,
    quadrature_variance,
    squeezing_terms,
    vacuum_state,
)
from cvcluster.network import compile_cluster_unitary

from expected import CUSTOM64_CONFIG, PUBLISHED_CRITERIA, lcg_edges, optimal_gains_analytic


def linear_state(r):
    return presets.cluster_state(
        presets.builtin_network("linear8")[1], SqueezePattern.alternating(8, r)
    )


def diamond_state(r):
    return presets.cluster_state(
        presets.builtin_network("diamond8")[1], SqueezePattern.alternating(8, r)
    )


LINEAR = load_config("linear8").criteria()
DIAMOND = load_config("diamond8").criteria()
BUILTIN = LINEAR + DIAMOND
ORIENTATIONS = SqueezePattern.alternating(8, 0.0).orientations
LINEAR_TERMS = squeezing_terms(presets.builtin_network("linear8")[1], ORIENTATIONS)
DIAMOND_TERMS = squeezing_terms(presets.builtin_network("diamond8")[1], ORIENTATIONS)


@st.composite
def graph_cases(draw, max_modes=12):
    """The criteria and network of a builtin graph or of a random graph on
    2..max_modes modes (with a triangle on modes 1-3 in about half of them)."""
    name = draw(st.sampled_from(["linear8", "diamond8", "random"]))
    if name != "random":
        return load_config(name).criteria(), presets.builtin_network(name)[1]
    n = draw(st.integers(2, max_modes))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    if n >= 3 and draw(st.booleans()):
        edges |= {(1, 2), (2, 3), (1, 3)}
    graph = graphs.Graph.from_edges(n, edges)
    _, unitary = compile_cluster_unitary(
        graphs.adjacency(graph), x_squeezed_inputs=range(1, n + 1, 2)
    )
    return graph_criteria(graph), unitary


@st.composite
def criteria_sets(draw):
    """A graph case's criteria with the squeezing terms of its lossless cluster state."""
    criteria, unitary = draw(graph_cases())
    orientations = SqueezePattern.alternating(len(unitary), 0.0).orientations
    return criteria, squeezing_terms(unitary, orientations)


class TestCriterionSets:
    def test_counts(self):
        assert len(LINEAR) == 7
        assert len(DIAMOND) == 9

    def test_3a_template(self):
        c = LINEAR[0]
        assert c.u == (Term(1, "p", 1.0), Term(2, "x", -1.0))
        assert c.v == (Term(2, "p", 1.0), Term(1, "x", -1.0), Term(3, "x", -1.0, "g_L3"))
        assert c.bipartition == (1, 2)

    def test_4e_template(self):
        c = DIAMOND[4]
        assert c.cid == "4e"
        assert c.u == (
            Term(4, "p", 1.0),
            Term(1, "x", -1.0, "g_D6"),
            Term(2, "x", -1.0, "g_D6"),
            Term(5, "x", -1.0),
        )
        assert c.v == (
            Term(5, "p", 1.0),
            Term(4, "x", -1.0),
            Term(7, "x", -1.0, "g_D6"),
            Term(8, "x", -1.0, "g_D6"),
        )
        assert c.bipartition == (4, 5)

    @pytest.mark.parametrize("name", ["linear8", "diamond8"])
    def test_generated_criteria_match_published_table(self, name):
        table = PUBLISHED_CRITERIA[name]
        criteria = load_config(name).criteria()
        assert [c.cid for c in criteria] == list(table)
        rng = np.random.default_rng(5)
        for c, (u, v, bipartition) in zip(criteria, table.values()):
            # Construction also checks that the published terms form a nullifier pair.
            sides = (tuple(Term(*t) for t in side) for side in (u, v))
            published = Criterion(c.cid, *sides, bipartition, 8)
            assert c.bipartition == bipartition and c.n == 8, c.cid
            assert c.gain_names == published.gain_names, c.cid
            # Vectors, not term order: the published 4b lists x2 before x1 in v.
            slots = c.gain_names
            for gains in (unit_gains([c]), dict(zip(slots, rng.uniform(-3.0, 3.0, len(slots))))):
                assert np.array_equal(c.sides(gains), published.sides(gains)), c.cid

    def test_bipartitions(self):
        assert [c.bipartition for c in LINEAR] == [
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
        ]
        assert [c.bipartition for c in DIAMOND] == [
            (1, 3), (2, 3), (1, 4), (2, 4), (4, 5), (5, 7), (5, 8), (6, 7), (6, 8),
        ]

    @pytest.mark.parametrize(
        "criteria,graph",
        [
            (LINEAR, graphs.linear_chain(8)),
            (DIAMOND, graphs.two_diamond()),
        ],
    )
    def test_unit_gains_reduce_to_two_nullifiers(self, criteria, graph):
        nullifier_vecs = {
            nf.mode: presets.nullifier_vectors(graph)[nf.mode - 1]
            for nf in graphs.nullifiers(graph)
        }
        for c in criteria:
            for terms, vec in zip((c.u, c.v), c.sides(unit_gains([c]))):
                p_mode = next(t.mode for t in terms if t.quadrature == "p")
                assert np.allclose(vec, nullifier_vecs[p_mode], atol=1e-14), c.cid


@given(case=criteria_sets(), data=st.data())
def test_sides_match_termwise_sum(case, data):
    criteria, _ = case
    gains = data.draw(
        st.fixed_dictionaries({name: st.floats(-5.0, 5.0) for name in unit_gains(criteria)})
    )
    for c in criteria:
        expected = np.zeros((2, 2 * c.n))
        for row, side in zip(expected, (c.u, c.v)):
            for t in side:
                column = t.mode - 1 + (c.n if t.quadrature == "p" else 0)
                row[column] += t.coefficient * (1.0 if t.gain is None else gains[t.gain])
        assert np.array_equal(c.sides(gains), expected), c.cid
        if c.gain_names:
            missing = data.draw(st.sampled_from(c.gain_names))
            with pytest.raises(ValueError, match=re.escape(repr(missing))):
                c.sides({name: g for name, g in gains.items() if name != missing})


class TestBound:
    def test_unit_gain_bound_is_one_for_all(self):
        assert vlf_bound(BUILTIN) == pytest.approx(np.ones(len(BUILTIN)), abs=1e-12)

    @given(case=criteria_sets(), data=st.data())
    def test_bound_is_one_under_any_gains(self, case, data):
        # vlf_bound reads the ungained coefficients; this holds because no
        # gain slot scales a term that enters a symplectic product.
        criteria, terms = case
        gains = data.draw(
            st.fixed_dictionaries({name: st.floats(-5.0, 5.0) for name in unit_gains(criteria)})
        )
        state = vacuum_state(len(terms[0]) // 2)
        results = evaluate(criteria, state, {c.cid: gains for c in criteria})
        assert [r.bound for r in results] == vlf_bound(criteria).tolist() == [1.0] * len(criteria)
        threshold_r(criteria, gram_block(criteria, terms))

    def test_3a_bound_with_scaled_gain(self):
        c = LINEAR[0]
        result = evaluate([c], linear_state(0.3), {c.cid: {"g_L3": 0.5}})[0]
        assert result.bound == pytest.approx(1.0, abs=1e-14)

    def test_missing_gain_rejected(self):
        c = LINEAR[0]
        with pytest.raises(ValueError):
            evaluate([c], linear_state(0.3), {c.cid: {}})


def nullifier_side(own, partner, partner_gain=None, p_gain=None):
    """p_own - x_partner - x_9 with a slot on x_9, as graph_criteria builds it."""
    return (
        Term(own, "p", 1.0, p_gain),
        Term(partner, "x", -1.0, partner_gain),
        Term(9, "x", -1.0, "g"),
    )


class TestCriterionShape:
    """Construction accepts only nullifier pairs, whose bound is 1 under any gains."""

    def test_epr_style_pair_rejected(self):
        # x_1 - x_2 and p_1 + p_2 certify the pair with bound 1 as well, but
        # neither side is a nullifier: u has no p term and v has two.
        with pytest.raises(ValueError, match="not a nullifier pair"):
            Criterion(
                "epr",
                (Term(1, "x", 1.0), Term(2, "x", -1.0)),
                (Term(1, "p", 1.0), Term(2, "p", 1.0)),
                (1, 2),
                n=2,
            )

    def test_gain_dependent_bound_rejected(self):
        # The slot scales x_2, and the other side holds p_2, so the bound would
        # move with the gain and one bound per criterion would be wrong.
        with pytest.raises(ValueError, match="not a nullifier pair"):
            Criterion(
                "t",
                (Term(1, "x", 1.0), Term(2, "x", -1.0, "g")),
                (Term(1, "p", 1.0), Term(2, "p", 1.0)),
                (1, 2),
                n=2,
            )

    @pytest.mark.parametrize(
        "u,v",
        [
            (nullifier_side(1, 2, partner_gain="h"), nullifier_side(2, 1)),
            (nullifier_side(1, 2), nullifier_side(2, 1, partner_gain="h")),
            (nullifier_side(1, 2, p_gain="h"), nullifier_side(2, 1)),
            (nullifier_side(1, 2), nullifier_side(2, 1, p_gain="h")),
            (nullifier_side(1, 2) + (Term(1, "x", 0.5),), nullifier_side(2, 1)),
            (nullifier_side(3, 2), nullifier_side(2, 1)),
        ],
        ids=["partner_slot_u", "partner_slot_v", "p_slot_u", "p_slot_v", "own_x", "p_off_pair"],
    )
    def test_malformed_pair_rejected(self, u, v):
        with pytest.raises(ValueError, match="not a nullifier pair"):
            Criterion("t", u, v, (1, 2), n=9)


class TestEvaluate:
    def test_3a_at_effective_squeezing(self):
        result = evaluate(LINEAR, linear_state(0.30), resolve_gains(LINEAR, "unit"))[0]
        assert result.lhs == pytest.approx(1.25 * np.exp(-0.6), abs=1e-12)
        assert result.lhs == pytest.approx(0.686, abs=5e-4)
        assert result.satisfied

    def test_3b_at_effective_squeezing(self):
        result = evaluate(LINEAR, linear_state(0.30), resolve_gains(LINEAR, "unit"))[1]
        assert result.lhs == pytest.approx(1.5 * np.exp(-0.6), abs=1e-12)
        assert result.lhs == pytest.approx(0.823, abs=5e-4)

    def test_vacuum_not_certified(self):
        for result in evaluate(LINEAR, vacuum_state(8), resolve_gains(LINEAR, "unit")):
            assert result.lhs >= result.bound
            assert not result.satisfied

    @given(
        case=graph_cases() | st.just(([], np.eye(1))),
        gain_mode=st.sampled_from(["unit", "optimal"]),
        data=st.data(),
    )
    def test_nothing_certified_at_zero_squeezing(self, case, gain_mode, data):
        # At r = 0 the state is the vacuum, a product state, whatever the
        # network and the loss; there the optimal-gain lhs equals the bound in
        # exact arithmetic, so a rounding-level margin must not count.  The
        # one-mode graph has no inequality at all, so nothing certifies it.
        criteria, unitary = case
        n = len(unitary)
        etas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        state = presets.cluster_state(
            unitary, SqueezePattern.alternating(n, 0.0), loss=LossModel(tuple(etas))
        )
        gains = resolve_gains(criteria, gain_mode, state)
        report = full_inseparability_report(criteria, state, gains)
        assert [r.cid for r in report.results if r.satisfied] == []
        assert not report.all_satisfied

    def test_unit_gain_lhs_equals_nullifier_variance_sum(self):
        for criteria_set, graph, state in (
            (LINEAR, graphs.linear_chain(8), linear_state(0.37)),
            (DIAMOND, graphs.two_diamond(), diamond_state(0.37)),
        ):
            vectors = presets.nullifier_vectors(graph)
            results = evaluate(criteria_set, state, resolve_gains(criteria_set, "unit"))
            for c, result in zip(criteria_set, results):
                u_mode = next(t.mode for t in c.u if t.quadrature == "p")
                v_mode = next(t.mode for t in c.v if t.quadrature == "p")
                expected = quadrature_variance(state, [vectors[u_mode - 1]])[0]
                expected += quadrature_variance(state, [vectors[v_mode - 1]])[0]
                assert result.lhs == pytest.approx(expected, abs=1e-12)


class TestListForms:
    """Every routine that reads criteria takes the list of them."""

    def test_an_empty_list_gives_empty_results(self):
        state = linear_state(0.3)
        assert evaluate([], state, {}) == []
        assert optimal_gains_numeric([], state) == {}
        assert vlf_bound([]).shape == (0,)
        assert gram_block([], state.cov) == []
        assert gram_block([], LINEAR_TERMS) == []

    @pytest.mark.parametrize(
        "call",
        [
            lambda c, state: evaluate(c, state, resolve_gains([c], "unit")),
            lambda c, state: optimal_gains_numeric(c, state),
            lambda c, state: vlf_bound(c),
            lambda c, state: gram_block(c, state.cov),
            lambda c, state: lhs_curve(c, gram_block([c], LINEAR_TERMS), [0.3]),
            lambda c, state: threshold_r(c, gram_block([c], LINEAR_TERMS)),
        ],
        ids=["evaluate", "optimal_gains_numeric", "vlf_bound", "gram_block", "lhs_curve",
             "threshold_r"],
    )
    def test_a_bare_criterion_is_rejected(self, call):
        with pytest.raises(TypeError):
            call(LINEAR[0], linear_state(0.3))

    @given(
        case=graph_cases(max_modes=10),
        gain_mode=st.sampled_from(["unit", "optimal"]),
        uniform=st.booleans(),
        data=st.data(),
    )
    def test_each_row_is_the_row_of_a_list_of_one(self, case, gain_mode, uniform, data):
        # The stacked gain solves, variances and bounds give each criterion the
        # bits it gets alone, in any order of the list.
        criteria, unitary = case
        n = len(unitary)
        etas = data.draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n))
        size = 1 if uniform else n
        rs = data.draw(st.lists(st.floats(0.0, 1.5), min_size=size, max_size=size))
        orientations = SqueezePattern.alternating(n, 0.0).orientations
        pattern = SqueezePattern(orientations, tuple(rs * (n // size)))
        loss = LossModel(tuple(etas))
        state = presets.cluster_state(unitary, pattern, loss=loss)

        gains = resolve_gains(criteria, gain_mode, state)
        results = evaluate(criteria, state, gains)
        bounds = vlf_bound(criteria).tolist()
        blocks = gram_block(criteria, state.cov)
        assert list(gains) == [c.cid for c in criteria] == [r.cid for r in results]
        for c, result, bound, block in zip(criteria, results, bounds, blocks):
            alone = resolve_gains([c], gain_mode, state)
            assert alone == {c.cid: gains[c.cid]}, c.cid
            assert evaluate([c], state, alone) == [result], c.cid
            assert vlf_bound([c]).tolist() == [bound] == [result.bound], c.cid
            assert np.array_equal(gram_block([c], state.cov)[0], block), c.cid

        order = data.draw(st.permutations(range(len(criteria))))
        shuffled = [criteria[i] for i in order]
        assert evaluate(shuffled, state, resolve_gains(shuffled, gain_mode, state)) == [
            results[i] for i in order
        ]
        assert vlf_bound(shuffled).tolist() == [bounds[i] for i in order]

        if uniform:
            terms = squeezing_terms(unitary, orientations, loss)
            curves = lhs_curve(criteria, gram_block(criteria, terms), rs)
            curve = curves[GAIN_MODES.index(gain_mode), :, 0]
            for c, result, lhs in zip(criteria, results, curve.tolist()):
                assert abs(result.lhs - lhs) <= 1e-12 * abs(lhs), c.cid


class TestOptimalGains:
    def test_analytic_values_at_half(self):
        gains = optimal_gains_analytic(0.5)
        assert gains["g_D6"] == pytest.approx(0.6005, abs=5e-5)
        assert abs(gains["g_D6"] - 0.60) < 0.02  # quoted tuned value
        assert gains["g_L1"] == pytest.approx(0.7978, abs=5e-5)

    def test_analytic_zero_squeezing_gives_zero(self):
        assert all(v == pytest.approx(0.0, abs=1e-14) for v in optimal_gains_analytic(0.0).values())

    def test_numeric_matches_analytic_single_slot(self):
        numeric = optimal_gains_numeric(LINEAR[:1], linear_state(0.5))["3a"]
        assert numeric["g_L3"] == pytest.approx(optimal_gains_analytic(0.5)["g_L3"], abs=1e-12)

    def test_numeric_zero_squeezing(self):
        numeric = optimal_gains_numeric(LINEAR[:1], linear_state(0.0))["3a"]
        assert numeric["g_L3"] == pytest.approx(0.0, abs=1e-9)

    def test_numeric_4e(self):
        numeric = optimal_gains_numeric(DIAMOND, diamond_state(0.5))["4e"]
        assert numeric["g_D6"] == pytest.approx(0.6005, abs=5e-5)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 1.0])
    def test_numeric_matches_analytic_everywhere(self, r):
        analytic = optimal_gains_analytic(r)
        for criteria, state in ((LINEAR, linear_state(r)), (DIAMOND, diamond_state(r))):
            for cid, numeric in optimal_gains_numeric(criteria, state).items():
                for name, value in numeric.items():
                    assert value == pytest.approx(analytic[name], abs=1e-12), (cid, name)

    @given(
        name=st.sampled_from(["linear8", "diamond8"]),
        r=st.floats(0.0, 2.0),
        etas=st.lists(st.floats(0.5, 1.0), min_size=8, max_size=8),
        shifts=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    )
    def test_solved_gains_minimise_under_per_mode_loss(self, name, r, etas, shifts):
        state = presets.cluster_state(
            presets.builtin_network(name)[1],
            SqueezePattern.alternating(8, r),
            loss=LossModel(tuple(etas)),
        )
        step = 1e-3
        criteria = load_config(name).criteria()
        tables = optimal_gains_numeric(criteria, state)
        unit = evaluate(criteria, state, resolve_gains(criteria, "unit"))
        for c, result, unit_result in zip(criteria, evaluate(criteria, state, tables), unit):
            gains, best = tables[c.cid], result.lhs
            tol = 1e-12 * max(1.0, best)

            def lhs(trial):
                return evaluate([c], state, {c.cid: trial})[0].lhs

            # The sum is quadratic in the gains, so central differences are
            # exact up to rounding: the gradient vanishes at the solution.
            for slot in c.gain_names:
                up = lhs({**gains, slot: gains[slot] + step})
                down = lhs({**gains, slot: gains[slot] - step})
                assert abs(up - down) / (2 * step) < 1e-9 * max(1.0, best), (c.cid, slot)
            assert best <= unit_result.lhs + tol, c.cid
            moved = {slot: g + d for (slot, g), d in zip(gains.items(), shifts)}
            assert best <= lhs(moved) + tol, c.cid

    def test_lhs_convex_in_each_gain(self):
        state = linear_state(0.4)
        for c in LINEAR:
            gains = unit_gains([c])
            for name in c.gain_names:
                def lhs(g):
                    trial = {**gains, name: g}
                    return evaluate([c], state, {c.cid: trial})[0].lhs

                second_difference = lhs(1.5) - 2 * lhs(0.5) + lhs(-0.5)
                assert second_difference >= 0


class TestThresholds:
    def test_3a_unit_threshold(self):
        (value,), _ = threshold_r(LINEAR[:1], gram_block(LINEAR[:1], LINEAR_TERMS))
        assert value == pytest.approx(0.5 * np.log(1.25), abs=1e-4)

    def test_4c_unit_threshold(self):
        (value,), _ = threshold_r(DIAMOND[2:3], gram_block(DIAMOND[2:3], DIAMOND_TERMS))
        assert value == pytest.approx(0.5 * np.log(1.75), abs=1e-4)

    def test_3a_optimal_never_crosses(self):
        _, (value,) = threshold_r(LINEAR[:1], gram_block(LINEAR[:1], LINEAR_TERMS))
        assert value is None

    def test_threshold_brackets_the_crossing(self):
        first = LINEAR[:1]
        (value,), _ = threshold_r(first, gram_block(first, LINEAR_TERMS))
        eps = 1e-4
        (above,) = evaluate(first, linear_state(value + eps), resolve_gains(first, "unit"))
        (below,) = evaluate(first, linear_state(value - eps), resolve_gains(first, "unit"))
        assert above.lhs < above.bound < below.lhs

    def test_published_thresholds_are_tables_of_their_graph(self):
        linear = presets.PUBLISHED["linear8"].unit_gain_thresholds
        diamond = presets.PUBLISHED["diamond8"].unit_gain_thresholds
        assert linear == {"3a": 0.11, "3b": 0.20, "3c": 0.24, "3d": 0.27}
        assert diamond == {"4a": 0.20, "4c": 0.28, "4e": 0.35}
        for name, table in (("linear8", linear), ("diamond8", diamond)):
            assert set(table) <= {c.cid for c in load_config(name).criteria()}, name

    def test_sweep_projects_each_criterion_once(self, monkeypatch, tmp_path):
        # Both r-curves and both thresholds of a criterion read one Gram block,
        # projected in one call for the whole set; lhs_curve and threshold_r
        # project nothing themselves.
        projections = []
        original = criteria_module.gram_block

        def counted(criteria, covs):
            projections.append([c.cid for c in criteria])
            return original(criteria, covs)

        for module in (criteria_module, cli):
            monkeypatch.setattr(module, "gram_block", counted)
        argv = ["sweep", "--config", "diamond8_physical", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert projections == [[c.cid for c in DIAMOND]]

    @pytest.mark.parametrize("config, curve_calls", [("diamond8_physical", 24), ("linear8", 16)])
    def test_sweep_calls_threshold_r_once_per_block_size_and_gain_mode(
        self, monkeypatch, tmp_path, config, curve_calls
    ):
        # Criteria with one slot count share a block stack inside lhs_curve
        # and threshold_r: diamond8 has 3 slot counts and linear8 2, each
        # curved, scanned and bisected in both gain modes.  The counts are
        # those of a sweep that grouped the criteria itself.  sweep calls
        # threshold_r once, and it thresholds each stack once per gain mode.
        calls, stacks, curves = [], [], []
        original, original_curves = criteria_module.threshold_r, criteria_module._curves
        original_thresholds = criteria_module._thresholds

        def counted(criteria, blocks):
            calls.append([c.cid for c in criteria])
            return original(criteria, blocks)

        def counted_thresholds(criteria, q, gain_mode):
            stacks.append(([c.cid for c in criteria], gain_mode))
            return original_thresholds(criteria, q, gain_mode)

        def counted_curves(*args):
            curves.append(args)
            return original_curves(*args)

        for module in (criteria_module, cli):
            monkeypatch.setattr(module, "threshold_r", counted)
        monkeypatch.setattr(criteria_module, "_thresholds", counted_thresholds)
        monkeypatch.setattr(criteria_module, "_curves", counted_curves)
        argv = ["sweep", "--config", config, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert len(curves) == curve_calls
        cids = [c.cid for c in parse_config(json.loads(builtin_json(config))).criteria()]
        assert calls == [cids]
        for gain_mode in GAIN_MODES:
            thresholded = [cid for group, mode in stacks if mode == gain_mode for cid in group]
            assert sorted(thresholded) == sorted(cids), gain_mode

    def test_each_criterion_needs_its_gram_block(self):
        # One block per criterion, of its own shape: 4a and 4b have 2 slots.
        q = np.stack(gram_block(DIAMOND[:2], DIAMOND_TERMS))
        with pytest.raises(ValueError, match="Gram block"):
            threshold_r(DIAMOND[:2], q[:1])
        with pytest.raises(ValueError, match="Gram block"):
            threshold_r(DIAMOND[:1], q[0])

    def test_a_covariance_stack_is_not_a_gram_block(self):
        # The (3, 2n, 2n) stack K must be projected first: 1 + slots < 2n.
        for c, terms in [(LINEAR[0], LINEAR_TERMS), (DIAMOND[4], DIAMOND_TERMS)]:
            with pytest.raises(ValueError, match="Gram block"):
                lhs_curve([c], [terms], [0.3])
            with pytest.raises(ValueError, match="Gram block"):
                threshold_r([c], [terms])


class TestLhsCurve:
    @given(
        case=graph_cases(),
        rs=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_matches_evaluate_at_every_r(self, case, rs, data):
        criteria, unitary = case
        n = len(unitary)
        per_mode = st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)
        etas = data.draw(st.one_of(st.none(), per_mode))
        loss = None if etas is None else LossModel(tuple(etas))
        terms = squeezing_terms(unitary, SqueezePattern.alternating(n, 0.0).orientations, loss)
        blocks = gram_block(criteria, terms)
        for gain_mode, curves in zip(GAIN_MODES, lhs_curve(criteria, blocks, rs)):
            for r, column in zip(rs, curves.T.tolist()):
                state = presets.cluster_state(unitary, SqueezePattern.alternating(n, r), loss=loss)
                results = evaluate(criteria, state, resolve_gains(criteria, gain_mode, state))
                for c, curve_lhs, result in zip(criteria, column, results):
                    expected = result.lhs
                    assert abs(curve_lhs - expected) <= 1e-12 * max(1.0, expected), c.cid

    def test_a_failed_gain_solve_in_a_stack_names_its_criteria(self):
        # 4c and 4d both have 3 slots.
        group = DIAMOND[2:4]
        stack = np.stack(gram_block(group, DIAMOND_TERMS))
        not_finite = stack.copy()
        not_finite[1, 2, 1:, :1] = np.nan
        with pytest.raises(RuntimeError, match="optimal gains of criterion 4d are not finite"):
            lhs_curve(group, not_finite, [0.3, 0.6])
        singular = stack.copy()
        singular[0] = 0.0
        with pytest.raises(RuntimeError, match="gain system of criterion 4c, 4d is singular"):
            threshold_r(group, singular)

    def test_peak_memory_of_a_128_mode_curve_is_under_1_mb(self):
        # A criterion's sides touch only the modes of N[a] and N[b], so its
        # projection and curve hold small Gram blocks, never a 256 x 256
        # covariance per r.
        graph = graphs.Graph.from_edges(128, lcg_edges(128, 192, seed=12))
        _, unitary = compile_cluster_unitary(
            graphs.adjacency(graph), x_squeezed_inputs=range(1, 129, 2)
        )
        terms = squeezing_terms(unitary, SqueezePattern.alternating(128, 0.0).orientations)
        criterion = graph_criteria(graph)[0]
        tracemalloc.start()
        try:
            q = gram_block([criterion], terms)
            lhs_curve([criterion], q, np.linspace(0.05, 3.0, 60))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


def closed_form_threshold(criterion, unitary, loss):
    """Unit-gain threshold from the quadratic in t = e^{2r}.

    lhs(r) = A e^{-2r} + B e^{2r} + K, with A, B, K read off the covariance
    route at r = 0, 1/2, 1.  lhs = 1 gives B t^2 + (K - 1) t + A = 0, whose
    smaller root is written in the form that stays exact as B -> 0.
    """
    rs = np.array([0.0, 0.5, 1.0])
    lhs = [
        evaluate(
            [criterion],
            presets.cluster_state(unitary, SqueezePattern.alternating(8, r), loss=loss),
            resolve_gains([criterion], "unit"),
        )[0].lhs
        for r in rs
    ]
    basis = np.column_stack([np.exp(-2 * rs), np.exp(2 * rs), np.ones(3)])
    a, b, k = np.linalg.solve(basis, lhs)
    discriminant = (1 - k) ** 2 - 4 * a * b
    assert discriminant > 0 and k < 1, criterion.cid
    return 0.5 * np.log(2 * a / ((1 - k) + np.sqrt(discriminant)))


THRESHOLD_CONFIGS = {
    "linear8": {},
    "diamond8": {},
    "linear8_physical": {},
    "diamond8_physical": {},
    "linear8_per_mode": {
        "base": "linear8_physical",
        "eta": [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6],
    },
    "diamond8_per_mode": {
        "base": "diamond8_physical",
        "eta": [0.6, 0.72, 0.91, 0.55, 0.99, 0.8, 0.66, 0.87],
    },
}


def builtin_json(name):
    return resources.files("cvcluster").joinpath(f"configs/{name}.json").read_text()


def threshold_config(label):
    """A THRESHOLD_CONFIGS entry, or custom64, parsed."""
    if label == "custom64":
        return parse_config(CUSTOM64_CONFIG)
    spec = THRESHOLD_CONFIGS[label]
    raw = json.loads(builtin_json(spec.get("base", label)))
    if "eta" in spec:
        raw["loss"] = {"eta": spec["eta"]}
    return parse_config(raw)


def sequential_threshold(criterion, q, gain_mode):
    """The grid scan plus one single-point lhs_curve call per bisection step."""
    (bound,) = vlf_bound([criterion]).tolist()
    mode = GAIN_MODES.index(gain_mode)
    grid = np.linspace(0.0, 3.0, 61)
    lhs = lhs_curve([criterion], [q], grid[1:])[mode, 0]
    if np.all(lhs < bound):
        return None
    if np.all(lhs > bound):
        return np.inf
    first = int(np.argmax(lhs <= bound))
    lo, hi = grid[first], grid[first + 1]
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if lhs_curve([criterion], [q], [mid])[mode, 0, 0] > bound:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


@pytest.mark.parametrize("label", THRESHOLD_CONFIGS)
def test_thresholds_match_closed_form(label):
    config = threshold_config(label)
    unitary, loss = config.build_unitary(), config.loss
    terms = squeezing_terms(unitary, config.pattern.orientations, loss)
    criteria = config.criteria()
    unit, _ = threshold_r(criteria, gram_block(criteria, terms))
    for c, value in zip(criteria, unit):
        assert abs(value - closed_form_threshold(c, unitary, loss)) < 1e-6, c.cid


def block_size_groups(criteria, terms):
    """Each slot count's criteria with their single blocks and their (C, 3, S, S) stack."""
    groups = {}
    for c in criteria:
        groups.setdefault(len(c.gain_names), []).append(c)
    for group in groups.values():
        blocks = gram_block(group, terms)
        yield group, blocks, np.stack(blocks)


@pytest.mark.parametrize("label", [*THRESHOLD_CONFIGS, "custom64"])
def test_batched_bisection_equals_the_sequential_one(label):
    # The nested grid holds the sequential midpoints bitwise, so the
    # thresholds agree exactly, in both gain modes; a stack of criteria with
    # one slot count gives each criterion's curve and threshold bit for bit.
    config = threshold_config(label)
    terms = squeezing_terms(config.build_unitary(), config.pattern.orientations, config.loss)
    rs = np.linspace(0.0, 3.0, 61)
    for group, blocks, stack in block_size_groups(config.criteria(), terms):
        found, all_curves = threshold_r(group, stack), lhs_curve(group, stack, rs)
        for mode, gain_mode in enumerate(GAIN_MODES):
            stacked, curves = found[mode], all_curves[mode]
            assert len(stacked) == len(group) and curves.shape == (len(group), len(rs))
            for c, q, value, curve in zip(group, blocks, stacked, curves):
                assert threshold_r([c], [q])[mode] == [value], (c.cid, gain_mode)
                assert value == sequential_threshold(c, q, gain_mode), (c.cid, gain_mode)
                single = lhs_curve([c], [q], rs)[mode, 0]
                assert np.array_equal(curve, single), (c.cid, gain_mode)


@pytest.mark.parametrize("gain_mode", ["unit", "optimal"])
def test_mixed_slot_counts_give_each_criterion_its_own_result(gain_mode):
    # The 9 diamond criteria hold 3 slot counts; each row and threshold of
    # one call is the one its criterion alone gives, bit for bit.
    assert len({len(c.gain_names) for c in DIAMOND}) == 3
    blocks = gram_block(DIAMOND, DIAMOND_TERMS)
    rs = np.linspace(0.0, 3.0, 61)
    mode = GAIN_MODES.index(gain_mode)
    curves = lhs_curve(DIAMOND, blocks, rs)[mode]
    found = threshold_r(DIAMOND, blocks)[mode]
    assert curves.shape == (9, len(rs)) and len(found) == 9
    for c, q, curve, value in zip(DIAMOND, blocks, curves, found):
        assert np.array_equal(curve, lhs_curve([c], [q], rs)[mode, 0]), c.cid
        assert threshold_r([c], [q])[mode] == [value], c.cid


@given(case=graph_cases(), data=st.data())
def test_batched_bisection_matches_the_sequential_one_on_random_graphs(case, data):
    # Under per-mode loss a midpoint may sit within rounding of the bound, so
    # the bisection may take the other side there: equal to within 1e-6.  The
    # stacked route takes the same sides as the single one: equal exactly.
    criteria, unitary = case
    n = len(unitary)
    etas = data.draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n))
    rs = data.draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8))
    orientations = SqueezePattern.alternating(n, 0.0).orientations
    terms = squeezing_terms(unitary, orientations, LossModel(tuple(etas)))
    for group, blocks, stack in block_size_groups(criteria, terms):
        found, all_curves = threshold_r(group, stack), lhs_curve(group, stack, rs)
        for mode, gain_mode in enumerate(GAIN_MODES):
            stacked, curves = found[mode], all_curves[mode]
            for c, q, batched, curve in zip(group, blocks, stacked, curves):
                assert threshold_r([c], [q])[mode] == [batched], (c.cid, gain_mode)
                single = lhs_curve([c], [q], rs)[mode, 0]
                assert np.array_equal(curve, single), (c.cid, gain_mode)
                sequential = sequential_threshold(c, q, gain_mode)
                if sequential is None or sequential == np.inf:
                    assert batched == sequential, (c.cid, gain_mode)
                else:
                    assert abs(batched - sequential) <= 1e-6, (c.cid, gain_mode)


class TestReports:
    def test_linear_all_satisfied_at_effective_squeezing(self):
        criteria = LINEAR
        gains = resolve_gains(criteria, "unit")
        report = full_inseparability_report(criteria, linear_state(0.30), gains)
        assert report.all_satisfied
        assert len(report.results) == 7

    def test_vacuum_fails_everywhere(self):
        criteria = LINEAR
        gains = resolve_gains(criteria, "unit")
        report = full_inseparability_report(criteria, vacuum_state(8), gains)
        assert not report.all_satisfied
        assert all(not r.satisfied for r in report.results)

    def test_diamond_with_tuned_gain_all_satisfied(self):
        criteria = DIAMOND
        gains = resolve_gains(criteria, {"g_D6": 0.60})
        report = full_inseparability_report(criteria, diamond_state(0.30), gains)
        assert report.all_satisfied
        assert len(report.results) == 9

    def test_resolve_gains_validation(self):
        criteria = LINEAR
        with pytest.raises(ValueError):
            resolve_gains(criteria, {"g_D6": 0.5})  # not a chain slot
        with pytest.raises(ValueError):
            resolve_gains(criteria, "optimal")  # needs a state
        with pytest.raises(ValueError):
            resolve_gains(criteria, 3.5)

    def test_criteria_that_miss_a_split_do_not_certify(self):
        # Edges 1-2 and 3-4 leave the split {1, 2} | {3, 4} unrefuted even
        # though both of their criteria are satisfied.
        graph = graphs.Graph.from_edges(4, [(1, 2), (3, 4)])
        _, unitary = compile_cluster_unitary(graphs.adjacency(graph), x_squeezed_inputs=(1, 3))
        state = presets.cluster_state(unitary, SqueezePattern.alternating(4, 0.8))
        criteria = graph_criteria(graph)
        report = full_inseparability_report(criteria, state, resolve_gains(criteria, "unit"))
        assert [r.satisfied for r in report.results] == [True, True]
        assert not report.all_satisfied
