import csv
import dataclasses
import json
import shutil
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from cvcluster import config as config_module
from cvcluster import presets, sampling
from cvcluster.cli import main
from cvcluster.config import ConfigError, ExperimentConfig, load_config, parse_config
from cvcluster.criteria import evaluate, graph_criteria, optimal_gains_numeric

from expected import CHAIN8_UNITARY, CUSTOM64_CONFIG, CUSTOM256_CONFIG, DIAMOND8_UNITARY


def read_complex(path):
    payload = json.loads(path.read_text())
    return np.array([[re + 1j * im for re, im in row] for row in payload["matrix"]])


def base_config(**overrides):
    raw = {
        "graph": "linear8",
        "squeeze": {"r": 0.5, "orientations": ["x", "p"] * 4},
        "loss": {"effective_r": 0.3},
        "gains": "unit",
    }
    raw.update(overrides)
    return raw


class TestConfigParsing:
    def test_builtin_configs_load(self):
        for name in ("linear8", "diamond8", "linear8_physical", "diamond8_physical"):
            config = load_config(name)
            assert config.graph.n == 8
            assert config.pattern.orientations == ("x", "p") * 4

    def test_effective_r_shortcut(self):
        config = load_config("linear8")
        assert config.effective_r == 0.3
        assert config.loss is None
        assert config.simulation_pattern().rs == (0.3,) * 8

    def test_physical_variant_keeps_loss(self):
        config = load_config("linear8_physical")
        assert config.effective_r is None
        assert config.loss is not None
        assert config.simulation_pattern().rs == (0.5,) * 8

    def test_explicit_graph(self):
        raw = base_config(graph={"n": 3, "edges": [[1, 2], [2, 3]]})
        raw["squeeze"] = {"r": 0.4, "orientations": ["x", "p", "x"]}
        raw["loss"] = {"eta": [0.9, 0.9, 0.9]}
        config = parse_config(raw)
        assert config.graph_name is None
        assert config.graph.edges == frozenset({(1, 2), (2, 3)})
        # Custom graphs get one generated criterion per edge.
        criteria = config.criteria()
        assert [(c.cid, c.bipartition, c.gain_names) for c in criteria] == [
            ("1-2", (1, 2), ("g2_3",)),
            ("2-3", (2, 3), ("g2_1",)),
        ]

    def test_both_loss_forms_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(loss={"eta": 0.9, "effective_r": 0.3}))
        with pytest.raises(ConfigError):
            parse_config(base_config(loss={}))

    def test_missing_sections_rejected(self):
        for key in ("graph", "squeeze", "loss"):
            raw = base_config()
            del raw[key]
            with pytest.raises(ConfigError):
                parse_config(raw)

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(squeeze={"r": [0.5, 0.5], "orientations": ["x", "p"] * 4}))
        with pytest.raises(ConfigError):
            parse_config(base_config(loss={"eta": [0.9] * 3}))

    def test_unknown_sections_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(extra={}))

    @pytest.mark.parametrize("graph", ["linear8", "diamond8"])
    @pytest.mark.parametrize(
        "orientations", [["p", "x"] * 4, ["x"] * 8, ["x", "p", "x", "p", "p", "x", "x", "p"]]
    )
    def test_builtin_graph_rejects_other_orientations(self, graph, orientations):
        # The builtin networks are wired for x-squeezed inputs 1, 3, 5, 7 only.
        with pytest.raises(ConfigError):
            parse_config(base_config(graph=graph, squeeze={"r": 0.5, "orientations": orientations}))

    def test_unknown_graph_rejected(self):
        with pytest.raises(ConfigError, match="unknown builtin graph 'ring8'"):
            parse_config(base_config(graph="ring8"))

    def test_bad_sweep_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(sweep={"r_min": 0.5, "r_max": 0.1, "steps": 5}))
        with pytest.raises(ConfigError):
            parse_config(base_config(sweep={"r_min": 0.0}))

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            load_config("no_such_config")

    def test_directory_named_like_a_builtin(self, tmp_path, monkeypatch):
        # An earlier `--out linear8` leaves a directory of that name behind.
        (tmp_path / "linear8").mkdir()
        monkeypatch.chdir(tmp_path)
        assert load_config("linear8").graph_name == "linear8"
        assert main(["criteria", "--config", "linear8", "--out", "linear8"]) == 0
        assert main(["criteria", "--config", "linear8", "--out", "x", "--gains", "linear8"]) == 2


class TestCompileCommand:
    def test_linear8_unitary_matches_published(self, tmp_path):
        assert main(["compile", "--config", "linear8", "--out", str(tmp_path)]) == 0
        unitary = read_complex(tmp_path / "unitary.json")
        assert np.max(np.abs(unitary - CHAIN8_UNITARY)) < 1e-12
        gram = json.loads((tmp_path / "gram_factor.json").read_text())
        factor = np.array(gram["matrix"])
        assert factor.shape == (8, 8)
        elements = json.loads((tmp_path / "elements.json").read_text())
        assert len(elements["sequence"]) == 19
        assert elements["max_deviation_from_network"] < 1e-12

    def test_diamond8_unitary_matches_published(self, tmp_path):
        assert main(["compile", "--config", "diamond8", "--out", str(tmp_path)]) == 0
        unitary = read_complex(tmp_path / "unitary.json")
        assert np.max(np.abs(unitary - DIAMOND8_UNITARY)) < 1e-12
        assert not (tmp_path / "elements.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        for config in ("linear8", "diamond8", "linear8_physical", "diamond8_physical"):
            out1, out2 = tmp_path / "a" / config, tmp_path / "b" / config
            main(["compile", "--config", config, "--out", str(out1)])
            main(["compile", "--config", config, "--out", str(out2)])
            names = sorted(path.name for path in out1.iterdir())
            assert {"unitary.json", "gram_factor.json"} <= set(names), config
            assert names == sorted(path.name for path in out2.iterdir()), config
            for name in names:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (config, name)

    def test_custom_graph_compiles(self, tmp_path):
        config = tmp_path / "triangle.json"
        config.write_text(
            json.dumps(
                {
                    "graph": {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]},
                    "squeeze": {"r": 0.4, "orientations": ["p", "p", "p"]},
                    "loss": {"eta": 1.0},
                }
            )
        )
        assert main(["compile", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        unitary = read_complex(tmp_path / "o" / "unitary.json")
        assert np.max(np.abs(unitary @ unitary.conj().T - np.eye(3))) < 1e-12
        # Simulation works on custom graphs too (no reference comparison).
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        payload = json.loads((tmp_path / "o" / "simulate.json").read_text())
        assert "reference_term_mismatches" not in payload
        assert all(row["max_anti_coefficient"] < 1e-10 for row in payload["nullifiers"])

    def test_custom_chain_is_a_gauge_of_the_published_network(self, tmp_path):
        # The chain written out as a custom graph is compiled with default
        # pivot signs: some columns of the published network flip sign, which
        # leaves the state, and so every variance, unchanged.
        config = tmp_path / "chain.json"
        config.write_text(
            json.dumps(
                {
                    "graph": {"n": 8, "edges": [[k, k + 1] for k in range(1, 8)]},
                    "squeeze": {"r": 0.5, "orientations": ["x", "p"] * 4},
                    "loss": {"eta": 0.783},
                }
            )
        )
        custom, builtin = tmp_path / "custom", tmp_path / "builtin"
        assert main(["compile", "--config", str(config), "--out", str(custom)]) == 0
        unitary = read_complex(custom / "unitary.json")
        assert np.max(np.abs(np.abs(unitary) - np.abs(CHAIN8_UNITARY))) < 1e-12
        column_signs = np.sign(np.sum(np.conj(CHAIN8_UNITARY) * unitary, axis=0).real)
        assert np.max(np.abs(unitary - CHAIN8_UNITARY * column_signs)) < 1e-12
        assert np.any(column_signs < 0)

        assert main(["simulate", "--config", str(config), "--out", str(custom)]) == 0
        assert main(["simulate", "--config", "linear8_physical", "--out", str(builtin)]) == 0
        rows = json.loads((custom / "simulate.json").read_text())["nullifiers"]
        published = json.loads((builtin / "simulate.json").read_text())["nullifiers"]
        for row, ref in zip(rows, published, strict=True):
            assert row["variance"] == pytest.approx(ref["variance"], abs=1e-12)


class TestCriteriaCommand:
    def test_linear8_report_values(self, tmp_path, capsys):
        assert main(["criteria", "--config", "linear8", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "criteria.json").read_text())
        assert payload["all_satisfied"] is True
        lhs = [row["lhs"] for row in payload["criteria"]]
        expected = [0.686, 0.823, 0.823, 0.823, 0.823, 0.823, 0.686]
        assert lhs == pytest.approx(expected, abs=5e-4)
        assert all(row["bound"] == pytest.approx(1.0, abs=1e-12) for row in payload["criteria"])
        out = capsys.readouterr().out
        assert "fully inseparable" in out

    def test_diamond8_report_with_tuned_gain(self, tmp_path):
        assert main(["criteria", "--config", "diamond8", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "criteria.json").read_text())
        assert payload["all_satisfied"] is True
        by_id = {row["id"]: row for row in payload["criteria"]}
        assert by_id["4e"]["gains"]["g_D6"] == pytest.approx(0.60)
        assert by_id["4c"]["lhs"] == pytest.approx(0.960, abs=5e-4)

    def test_zero_squeezing_fails_all(self, tmp_path, capsys):
        config = tmp_path / "vacuum.json"
        config.write_text(
            json.dumps(
                {
                    "graph": "linear8",
                    "squeeze": {"r": 0.5, "orientations": ["x", "p"] * 4},
                    "loss": {"effective_r": 0.0},
                    "gains": "unit",
                }
            )
        )
        assert main(["criteria", "--config", str(config), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "criteria.json").read_text())
        assert payload["all_satisfied"] is False
        assert all(not row["satisfied"] for row in payload["criteria"])
        assert "NOT certified" in capsys.readouterr().out

    @pytest.mark.parametrize("gains", [[], ["--gains", "optimal"]], ids=["config", "optimal"])
    def test_graph_without_edges_has_no_criteria_and_is_not_certified(
        self, tmp_path, capsys, gains
    ):
        config = tmp_path / "one_mode.json"
        raw = {"graph": {"n": 1, "edges": []}, "squeeze": {"r": 0.5}, "loss": {"eta": 1.0}}
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["criteria", "--config", str(config), "--out", str(out)] + gains) == 0
        payload = json.loads((out / "criteria.json").read_text())
        assert payload["criteria"] == [] and payload["all_satisfied"] is False
        assert "verdict: NOT certified" in capsys.readouterr().out

    def test_gains_file_override(self, tmp_path):
        gains_file = tmp_path / "gains.json"
        gains_file.write_text(json.dumps({"g_D6": 0.35}))
        assert main(
            [
                "criteria",
                "--config",
                "diamond8",
                "--out",
                str(tmp_path),
                "--gains",
                str(gains_file),
            ]
        ) == 0
        payload = json.loads((tmp_path / "criteria.json").read_text())
        by_id = {row["id"]: row for row in payload["criteria"]}
        assert by_id["4e"]["gains"]["g_D6"] == pytest.approx(0.35)

    def test_optimal_gains_are_per_criterion(self, tmp_path):
        # Slots such as g_L3 belong to several chain criteria; under unequal
        # per-mode loss each criterion has its own optimum for them.
        raw = json.loads(
            resources.files("cvcluster").joinpath("configs/linear8_physical.json").read_text()
        )
        raw["loss"] = {"eta": [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6]}
        path = tmp_path / "per_mode_eta.json"
        path.write_text(json.dumps(raw))
        out = str(tmp_path / "out")
        assert main(["criteria", "--config", str(path), "--out", out, "--gains", "optimal"]) == 0
        assert main(["sweep", "--config", str(path), "--out", out]) == 0

        config = load_config(path)
        state = config.build_state()
        rows = json.loads((tmp_path / "out" / "criteria.json").read_text())["criteria"]
        with open(tmp_path / "out" / "sweep.csv", newline="") as handle:
            swept = {
                row["criterion"]: float(row["lhs_optimal"])
                for row in csv.DictReader(handle)
                if row["r"] == "0.5"
            }
        assert [row["id"] for row in rows] == [c.cid for c in config.criteria()]
        criteria = config.criteria()
        results = evaluate(criteria, state, optimal_gains_numeric(criteria, state))
        for criterion, row, expected in zip(criteria, rows, results):
            assert row["lhs"] == pytest.approx(expected.lhs, abs=1e-12), criterion.cid
            assert row["lhs"] == pytest.approx(swept[criterion.cid], abs=1e-12), criterion.cid
        assert rows[0]["lhs"] == pytest.approx(0.49999, abs=1e-5)

    def test_unknown_gain_slot_is_a_config_error(self, tmp_path, capsys):
        gains_file = tmp_path / "gains.json"
        gains_file.write_text(json.dumps({"g_D6": 0.6}))  # a diamond slot
        for command in ("criteria", "sample"):
            argv = [command, "--config", "linear8", "--out", str(tmp_path)]
            assert main(argv + ["--gains", str(gains_file)]) == 2
        capsys.readouterr()
        # A config's own gains section is checked at load: every command
        # rejects it, and --gains does not hide it.
        config = tmp_path / "typo.json"
        config.write_text(json.dumps(base_config(gains={"g_L33": 0.5})))
        argv = ["--config", str(config), "--out", str(tmp_path)]
        for command in ("compile", "simulate", "criteria", "sweep", "sample"):
            assert main([command] + argv) == 2, command
            assert "unknown gain slots ['g_L33']" in capsys.readouterr().err, command
        assert main(["criteria"] + argv + ["--gains", "unit"]) == 2
        assert "unknown gain slots ['g_L33']" in capsys.readouterr().err

    def test_bad_gains_flag(self, tmp_path):
        assert (
            main(
                [
                    "criteria",
                    "--config",
                    "linear8",
                    "--out",
                    str(tmp_path),
                    "--gains",
                    "nonsense",
                ]
            )
            == 2
        )


class TestSweepCommand:
    def test_header_and_threshold_summary(self, tmp_path):
        config = tmp_path / "short.json"
        config.write_text(
            json.dumps(
                {
                    "graph": "linear8",
                    "squeeze": {"r": 0.5, "orientations": ["x", "p"] * 4},
                    "loss": {"effective_r": 0.3},
                    "gains": "unit",
                    "sweep": {"r_min": 0.0, "r_max": 0.4, "steps": 5},
                }
            )
        )
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "r,criterion,lhs_unit,lhs_optimal,bound"
        assert len(lines) == 1 + 5 * 7
        for line in lines[1:]:
            r, _, lhs_unit, lhs_optimal, bound = line.split(",")
            if float(r) > 0:
                assert float(lhs_optimal) < float(bound)
            assert float(lhs_unit) >= float(lhs_optimal) - 1e-12

        thresholds = json.loads((tmp_path / "thresholds.json").read_text())
        by_id = {t["criterion"]: t for t in thresholds["thresholds"]}
        assert by_id["3a"]["threshold_unit"] == pytest.approx(0.11157, abs=1e-4)
        assert by_id["3a"]["threshold_optimal"] is None
        assert "note" in by_id["3c"]  # model threshold differs from the published figure
        assert "note" in by_id["3d"]

    def test_single_step_sweep(self, tmp_path):
        config = tmp_path / "single.json"
        config.write_text(
            json.dumps(
                {
                    "graph": "diamond8",
                    "squeeze": {"r": 0.5, "orientations": ["x", "p"] * 4},
                    "loss": {"effective_r": 0.3},
                    "sweep": {"r_min": 0.3, "r_max": 0.3, "steps": 1},
                }
            )
        )
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 9

    def test_criterion_never_satisfied_is_reported(self, tmp_path, capsys):
        raw = json.loads(
            resources.files("cvcluster").joinpath("configs/diamond8_physical.json").read_text()
        )
        raw["loss"] = {"eta": 0.5}
        raw["sweep"] = {"r_min": 0.0, "r_max": 1.0, "steps": 3}
        config = tmp_path / "lossy.json"
        config.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        thresholds = json.loads((tmp_path / "thresholds.json").read_text())["thresholds"]
        by_id = {t["criterion"]: t for t in thresholds}
        # 4e needs more than r = 3 with unit gains: null with a note, while a
        # null optimal threshold (satisfied on the whole grid) carries none.
        assert by_id["4e"]["threshold_unit"] is None
        assert by_id["4e"]["note"] == "never satisfied on (0, 3] with unit gains"
        assert by_id["4e"]["threshold_optimal"] is None
        assert by_id["4a"]["threshold_unit"] == pytest.approx(0.5493, abs=1e-4)
        assert [t["criterion"] for t in thresholds if "never" in t.get("note", "")] == ["4e"]
        out = capsys.readouterr().out
        assert "4e: r > none (optimal gains: satisfied for all r > 0)" in out
        assert "<-- never satisfied on (0, 3] with unit gains" in out

    def test_criterion_satisfied_on_the_whole_grid_is_reported(self, tmp_path, capsys):
        # The lossless one-edge graph holds its criterion with unit gains at
        # every scanned r: null thresholds and no note, like a never-satisfied
        # criterion's null, but stdout must not read "r > none".
        raw = {
            "graph": {"n": 2, "edges": [[1, 2]]},
            "squeeze": {"r": 0.0},
            "loss": {"eta": 1.0},
            "sweep": SHORT_SWEEP,
        }
        config = tmp_path / "edge.json"
        config.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        thresholds = json.loads((tmp_path / "thresholds.json").read_text())["thresholds"]
        assert thresholds == [
            {
                "criterion": "1-2",
                "published_unit": None,
                "threshold_optimal": None,
                "threshold_unit": None,
            }
        ]
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  1-2: satisfied for all r > 0"

    def test_custom_chain_matches_linear8(self, tmp_path):
        # The chain given as a custom graph compiles to a gauge of the
        # published network, so its generated criteria ("1-2", ...) give the
        # lhs values of 3a..3g, matched by bipartition.
        raw = json.loads(resources.files("cvcluster").joinpath("configs/linear8.json").read_text())
        raw["graph"] = {"n": 8, "edges": [[a, a + 1] for a in range(1, 8)]}
        config = tmp_path / "chain.json"
        config.write_text(json.dumps(raw))
        results = {}
        for label, arg in (("custom", str(config)), ("builtin", "linear8")):
            out = tmp_path / label
            assert main(["criteria", "--config", arg, "--out", str(out)]) == 0
            assert main(["sweep", "--config", arg, "--out", str(out)]) == 0
            rows = json.loads((out / "criteria.json").read_text())["criteria"]
            with open(out / "sweep.csv", newline="") as handle:
                swept = list(csv.DictReader(handle))
            results[label] = rows, swept
        names = dict(zip([f"{a}-{a + 1}" for a in range(1, 8)], "abcdefg"))
        (custom_rows, custom_swept), (rows, swept) = results["custom"], results["builtin"]
        assert [names[row["id"]] for row in custom_rows] == list("abcdefg")
        for custom, builtin in zip(custom_rows, rows):
            assert abs(custom["lhs"] - builtin["lhs"]) <= 1e-12, custom["id"]
        assert len(custom_swept) == len(swept)
        for custom, builtin in zip(custom_swept, swept):
            assert "3" + names[custom["criterion"]] == builtin["criterion"]
            for column in ("lhs_unit", "lhs_optimal", "bound"):
                assert abs(float(custom[column]) - float(builtin[column])) <= 1e-12

    def test_sweepless_config_rejected(self, tmp_path):
        config = tmp_path / "nosweep.json"
        config.write_text(
            json.dumps(
                {
                    "graph": "linear8",
                    "squeeze": {"r": 0.5},
                    "loss": {"effective_r": 0.3},
                }
            )
        )
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 2


class TestSampleCommand:
    def test_report_and_determinism(self, tmp_path):
        args = [
            "sample",
            "--config",
            "linear8",
            "--out",
            str(tmp_path / "a"),
            "--n",
            "50000",
            "--seed",
            "4",
        ]
        assert main(args) == 0
        args[4] = str(tmp_path / "b")
        assert main(args) == 0
        first = (tmp_path / "a" / "sample.json").read_bytes()
        second = (tmp_path / "b" / "sample.json").read_bytes()
        assert first == second
        payload = json.loads(first)
        assert payload["max_abs_z"] < 4.0
        names = {c["name"] for c in payload["checks"]}
        assert "nullifier_1" in names and "3a_u" in names

    def test_single_sample_rejected(self, tmp_path):
        assert (
            main(["sample", "--config", "linear8", "--out", str(tmp_path), "--n", "1"]) == 2
        )

    def test_gains_are_resolved_before_any_draw(self, tmp_path, monkeypatch, capsys):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew samples")

        monkeypatch.setattr(sampling, "_blocks", no_draws)
        gains_file = tmp_path / "gains.json"
        gains_file.write_text(json.dumps({"g_D6": 0.6}))  # a diamond slot
        argv = ["sample", "--config", "linear8", "--out", str(tmp_path), "--gains"]
        assert main(argv + [str(gains_file)]) == 2
        assert "unknown gain slots ['g_D6']" in capsys.readouterr().err
        # With valid gains the same run reaches the draw.
        assert main(argv + ["unit"]) == 1
        assert "drew samples" in capsys.readouterr().err

    @pytest.mark.parametrize("gains", ["optimal", "no_such_file.json"])
    def test_gains_on_a_custom_graph_rejected_before_any_draw(
        self, tmp_path, monkeypatch, capsys, gains
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew samples")

        monkeypatch.setattr(sampling, "_blocks", no_draws)
        config = tmp_path / "chain3.json"
        graph = {"n": 3, "edges": [[1, 2], [2, 3]]}
        squeeze = {"r": 0.5, "orientations": ["x", "p", "x"]}
        config.write_text(json.dumps(base_config(graph=graph, squeeze=squeeze)))
        argv = ["sample", "--config", str(config), "--out", str(tmp_path)]
        assert main(argv + ["--gains", gains]) == 2
        assert "nullifier checks only" in capsys.readouterr().err
        # Without --gains the same run reaches the draw.
        assert main(argv) == 1
        assert "drew samples" in capsys.readouterr().err

    def test_unknown_config_gain_slot_on_a_custom_graph_rejected_before_any_draw(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew samples")

        monkeypatch.setattr(sampling, "_blocks", no_draws)
        graph = {"n": 3, "edges": [[1, 2], [2, 3]]}
        squeeze = {"r": 0.5, "orientations": ["x", "p", "x"]}
        argv = ["sample", "--out", str(tmp_path), "--n", "10", "--config"]
        for name, gains in (("bad", {"no_such_slot": 0.5}), ("good", {"g2_1": 0.5})):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(base_config(graph=graph, squeeze=squeeze, gains=gains)))
            assert main(argv + [str(config)]) == (2 if name == "bad" else 1)
        err = capsys.readouterr().err
        assert "unknown gain slots ['no_such_slot']" in err
        # With a known slot the same run reaches the draw.
        assert "drew samples" in err

    def test_config_gains_are_not_read_on_a_custom_graph(self, tmp_path, capsys):
        # On a custom graph sample writes nullifier checks only, so the
        # config's gains section changes nothing it writes, and the help says so.
        graph = {"n": 3, "edges": [[1, 2], [2, 3]]}
        squeeze = {"r": 0.5, "orientations": ["x", "p", "x"]}
        written = {}
        for gains in ("unit", "optimal", {"g2_1": 0.5}):
            name = gains if isinstance(gains, str) else "mapping"
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(base_config(graph=graph, squeeze=squeeze, gains=gains)))
            out = tmp_path / name
            assert main(["sample", "--config", str(config), "--out", str(out), "--n", "100"]) == 0
            written[name] = (out / "sample.json").read_bytes()
        assert written["optimal"] == written["mapping"] == written["unit"]
        with pytest.raises(SystemExit):
            main(["sample", "--help"])
        assert "does not read the config's gains section" in " ".join(
            capsys.readouterr().out.split()
        )

    def test_negative_seed_rejected(self, tmp_path, capsys):
        argv = ["sample", "--config", "linear8", "--out", str(tmp_path), "--seed", "-1"]
        assert main(argv + ["--n", "10"]) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer\n"


def test_round_trip_is_deterministic(tmp_path):
    # compile -> simulate -> criteria twice; every artefact byte-identical.
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["compile", "--config", "diamond8", "--out", out]) == 0
        assert main(["simulate", "--config", "diamond8", "--out", out]) == 0
        assert main(["criteria", "--config", "diamond8", "--out", out]) == 0
    for name in ("unitary.json", "gram_factor.json", "simulate.json", "criteria.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_one_process_rewrites_what_its_first_calls_wrote(tmp_path, capsys):
    # main parses with one parser per process and a builtin's criteria are
    # built once per name: no call may see state left by an earlier one,
    # a version request, a help request or a usage error included.
    custom = tmp_path / "custom64.json"
    custom.write_text(json.dumps({**CUSTOM64_CONFIG, "gains": "optimal"}))
    commands = [
        ["compile"],
        ["simulate"],
        ["criteria"],
        ["criteria", "--gains", "optimal"],
        ["sweep"],
        ["sample", "--n", "1000", "--seed", "3"],
    ]
    runs = [(config, command) for config in ("diamond8_physical", str(custom)) for command in commands]
    first = {}
    for _ in range(3):
        for i, (config, command) in enumerate(runs):
            out = tmp_path / "out" / str(i)
            shutil.rmtree(out, ignore_errors=True)
            assert main([command[0], "--config", config, "--out", str(out), *command[1:]]) == 0
            written = (capsys.readouterr().out, {p.name: p.read_bytes() for p in out.iterdir()})
            assert first.setdefault(i, written) == written, (config, *command)
        for argv, code in [(["--version"], 0), (["sweep", "--help"], 0), (["sweep"], 2)]:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == code, argv
        assert main(["criteria", "--config", "missing", "--out", str(tmp_path)]) == 2
        capsys.readouterr()


def test_unknown_config_exit_code(tmp_path):
    assert main(["criteria", "--config", "missing", "--out", str(tmp_path)]) == 2


def test_builtin_graph_with_other_orientations_exit_code(tmp_path):
    config = tmp_path / "flipped.json"
    config.write_text(json.dumps(base_config(squeeze={"r": 0.5, "orientations": ["p", "x"] * 4})))
    for command in ("compile", "simulate"):
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2


SHORT_SWEEP = {"r_min": 0.0, "r_max": 1.0, "steps": 3}


@pytest.mark.parametrize(
    "overrides",
    [
        {"squeeze": {"r": "strong"}},
        {"loss": {"eta": [0.9] * 7 + ["high"]}},
        {"loss": {"effective_r": "low"}},
        {"gains": {"g_L3": "half"}},
        {"loss": {"effective_r": float("nan")}},
        {"loss": {"effective_r": float("inf")}},
        {"sweep": {**SHORT_SWEEP, "r_min": float("nan")}},
    ],
    ids=["r_text", "eta_text", "effective_r_text", "gain_text", "effective_r_nan",
         "effective_r_inf", "r_min_nan"],
)
def test_values_that_are_not_finite_numbers_exit_code(tmp_path, capsys, overrides):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(base_config(**{"sweep": SHORT_SWEEP, **overrides})))
    for command in ("criteria", "sweep"):
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "overrides",
    [
        {"sweep": {**SHORT_SWEEP, "steps": 2.7}},
        {"sweep": {**SHORT_SWEEP, "steps": "61"}},
        {"sweep": {**SHORT_SWEEP, "steps": True}},
        {"graph": {"n": 3.9, "edges": [[1, 2], [2, 3]]}, "squeeze": {"r": 0.5}},
        {"graph": {"n": "3", "edges": [[1, 2], [2, 3]]}, "squeeze": {"r": 0.5}},
        {"graph": {"n": True, "edges": []}, "squeeze": {"r": 0.5}},
        {"graph": {"n": 3, "edges": [[1.5, 2], [2, 3]]}, "squeeze": {"r": 0.5}},
        {"squeeze": {"r": "0.5"}},
        {"squeeze": {"r": True}},
    ],
    ids=["steps_fraction", "steps_text", "steps_bool", "n_fraction", "n_text", "n_bool",
         "edge_fraction", "r_text", "r_bool"],
)
def test_counts_and_numbers_of_the_wrong_type_exit_code(tmp_path, capsys, overrides):
    # Counts used to be truncated by int() and numbers parsed from text.
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(base_config(**{"sweep": SHORT_SWEEP, **overrides})))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"loss": {"eta": 1.5}}, "efficiency 1.5 outside [0, 1]"),
        ({"loss": {"eta": [0.9] * 7 + [-0.1]}}, "efficiency -0.1 outside [0, 1]"),
        ({"loss": {"effective_r": -0.1}}, "effective_r must be >= 0"),
        ({"squeeze": {"r": -0.5}}, "squeezing parameter must be finite and >= 0, got -0.5"),
        (
            {"squeeze": {"r": 0.5, "orientations": ["x", "p"] * 3 + ["x", "y"]}},
            "orientation must be 'x' or 'p', got 'y'",
        ),
        (
            {"graph": {"n": 2, "edges": [[1, 2]]}, "squeeze": {"r": 0.5, "orientations": ["x"]}},
            "need 2 orientations, got 1",
        ),
        (
            {"graph": {"n": 0, "edges": []}, "squeeze": {"r": 0.5}},
            "invalid graph: mode count must be positive, got 0",
        ),
        ({"graph": {"n": 3}, "squeeze": {"r": 0.5}}, "explicit graph needs 'n' and 'edges'"),
        ({"graph": 5}, "graph must be a builtin name or an object with n and edges"),
        ({"squeeze": 0.5}, "squeeze section must be an object with an 'r' entry"),
        ({"loss": 0.9}, "loss section must be an object"),
        ({"sweep": [0, 1, 3]}, "sweep section must be an object"),
        ({"gains": 3}, "gains must be 'unit', 'optimal' or a slot-to-value mapping"),
    ],
    ids=["eta_above_one", "eta_negative", "effective_r_negative", "r_negative",
         "orientation_y", "orientations_short", "n_zero", "graph_without_edges",
         "graph_number", "squeeze_number", "loss_number", "sweep_list", "gains_number"],
)
def test_values_out_of_range_or_of_the_wrong_shape_exit_code(tmp_path, capsys, overrides, message):
    # Each boundary check names its own fault; a dropped check would surface,
    # if at all, as some other error.
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(base_config(**{"sweep": SHORT_SWEEP, **overrides})))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()


def test_integral_float_counts_are_accepted():
    sweep = {**SHORT_SWEEP, "steps": 61.0}
    raw = base_config(graph={"n": 3.0, "edges": [[1, 2.0], [2, 3]]}, sweep=sweep)
    raw["squeeze"] = {"r": 0.5, "orientations": ["x", "p", "x"]}
    config = parse_config(raw)
    assert config.sweep == (0.0, 1.0, 61) and type(config.sweep[2]) is int
    assert config.graph.n == 3 and config.graph.edges == frozenset({(1, 2), (2, 3)})


def test_non_finite_gains_file_exit_code(tmp_path, capsys):
    gains_file = tmp_path / "gains.json"
    gains_file.write_text(json.dumps({"g_L3": float("nan")}))
    argv = ["criteria", "--config", "linear8", "--out", str(tmp_path), "--gains", str(gains_file)]
    assert main(argv) == 2
    assert "gain g_L3 must be finite" in capsys.readouterr().err


def test_gains_file_that_is_not_utf8_exit_code(tmp_path, capsys):
    # Read as UTF-8 like a config, whatever the locale's encoding.
    gains_file = tmp_path / "gains.json"
    gains_file.write_bytes(b'{"g_L3": 1.0, "g_\xff": 1.0}')
    argv = ["criteria", "--config", "linear8", "--out", str(tmp_path), "--gains", str(gains_file)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid gains file {gains_file}: 'utf-8' codec")


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text, message in (("{", "cannot read config"), ("[]", "config must be a JSON object")):
        bad.write_text(text)
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}"), text


@pytest.mark.parametrize(
    "gains, message",
    [
        ({"g_bogus": 0.5}, "unknown gain slots ['g_bogus']"),
        ([0.5], "expected a JSON object of slot values"),
        (None, "--gains must be 'unit', 'optimal' or a JSON file"),
    ],
    ids=["unknown_slot", "not_an_object", "missing_file"],
)
def test_bad_gains_file_rejected_before_any_network_or_state(
    tmp_path, capsys, monkeypatch, gains, message
):
    calls = {"compile": 0, "state": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        config_module, "compile_cluster_unitary",
        counted("compile", config_module.compile_cluster_unitary),
    )
    monkeypatch.setattr(presets, "cluster_state", counted("state", presets.cluster_state))
    config = tmp_path / "chain3.json"
    graph = {"n": 3, "edges": [[1, 2], [2, 3]]}
    squeeze = {"r": 0.5, "orientations": ["x", "p", "x"]}
    config.write_text(json.dumps(base_config(graph=graph, squeeze=squeeze)))
    gains_file = tmp_path / "gains.json"
    if gains is not None:
        gains_file.write_text(json.dumps(gains))
    argv = ["criteria", "--config", str(config), "--out", str(tmp_path), "--gains"]
    assert main(argv + [str(gains_file)]) == 2
    assert message in capsys.readouterr().err
    assert calls == {"compile": 0, "state": 0}
    # A known slot reaches one compile and one state build.
    gains_file.write_text(json.dumps({"g2_1": 0.5}))
    assert main(argv + [str(gains_file)]) == 0
    assert calls == {"compile": 1, "state": 1}


def test_every_config_construction_checks_its_gain_slots():
    config = load_config("diamond8")
    with pytest.raises(ConfigError, match=r"unknown gain slots \['g_bogus'\]"):
        dataclasses.replace(config, gains_spec={"g_bogus": 1.0})
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    with pytest.raises(ConfigError, match=r"unknown gain slots \['g_bogus'\]"):
        ExperimentConfig(**{**fields, "gains_spec": {"g_bogus": 1.0}})
    assert config.with_gains(None) is config
    assert config.with_gains("optimal").gains_spec == "optimal"
    assert dataclasses.replace(config, gains_spec={"g_D6": 0.35}).gains_spec == {"g_D6": 0.35}


@pytest.mark.parametrize("source", ["config", "file", "both"])
def test_custom_graph_criteria_are_built_once_per_config(tmp_path, monkeypatch, source):
    # The gain-slot checks of the config and of its --gains copy, and the
    # command, read one build.  Other tests may have cached this graph's.
    config_module._criteria.cache_clear()
    calls = []

    def counted(graph, *args, **kwargs):
        calls.append(graph.n)
        return graph_criteria(graph, *args, **kwargs)

    monkeypatch.setattr(config_module, "graph_criteria", counted)
    graph = {"n": 3, "edges": [[1, 2], [2, 3]]}
    squeeze = {"r": 0.5, "orientations": ["x", "p", "x"]}
    section = {"gains": {"g2_3": 0.5}} if source != "file" else {}
    config = tmp_path / "chain3.json"
    config.write_text(json.dumps(base_config(graph=graph, squeeze=squeeze, **section)))
    argv = ["criteria", "--config", str(config), "--out", str(tmp_path)]
    if source != "config":
        gains_file = tmp_path / "gains.json"
        gains_file.write_text(json.dumps({"g2_1": 0.7}))
        argv += ["--gains", str(gains_file)]
    assert main(argv) == 0
    assert calls == [3]


def test_unknown_gain_slot_error_stays_short_on_a_large_graph(tmp_path, capsys):
    config = tmp_path / "custom256.json"
    config.write_text(json.dumps(CUSTOM256_CONFIG))
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps({"g_bogus": 1}))
    argv = ["criteria", "--config", str(config), "--out", str(tmp_path), "--gains", str(gains)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown gain slots ['g_bogus']; known: [")
    assert err.rstrip().endswith(" more")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("unreadable", ["config", "gains"])
def test_unreadable_config_or_gains_file_exit_code(tmp_path, capsys, monkeypatch, unreadable):
    # A file that exists but cannot be read (permission denied) is a usage
    # error, not an internal one.  The suite may run as root, where chmod
    # does not stop a read, so the read itself is made to fail.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config()))
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps({"g_L3": 1.0}))
    read_text = Path.read_text

    def denied(self, *args, **kwargs):
        if self.name == f"{unreadable}.json":
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", denied)
    argv = ["criteria", "--config", str(config), "--out", str(tmp_path), "--gains", str(gains)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Permission denied" in err
    assert not (tmp_path / "criteria.json").exists()


def test_simulate_reports_mismatch_and_equivalent_r(tmp_path, capsys):
    assert main(["simulate", "--config", "diamond8", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "simulate.json").read_text())
    mismatches = payload["reference_term_mismatches"]
    assert len(mismatches) == 1
    assert mismatches[0]["mode"] == 1 and mismatches[0]["magnitudes_agree"] is True
    out = capsys.readouterr().out
    assert "term mismatches" in out

    assert main(["simulate", "--config", "linear8_physical", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "simulate.json").read_text())
    assert payload["reference_term_mismatches"] == []
    # Loss on r = 0.50 squeezing is equivalent to ~0.34 pure squeezing,
    # a little above the quoted effective value of 0.30.
    assert payload["equivalent_pure_r"] == pytest.approx([0.3416] * 8, abs=5e-4)


def test_equivalent_pure_r_is_reported_per_mode(tmp_path):
    etas = [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6]
    config = tmp_path / "per_mode.json"
    config.write_text(json.dumps(base_config(loss={"eta": etas})))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "simulate.json").read_text())
    expected = [-0.5 * np.log(eta * np.exp(-1.0) + 1.0 - eta) for eta in etas]
    assert payload["equivalent_pure_r"] == pytest.approx(expected, abs=1e-12)
    assert payload["equivalent_pure_r"][0] == pytest.approx(0.4588, abs=5e-5)
    assert payload["equivalent_pure_r"][7] == pytest.approx(0.2384, abs=5e-5)


def test_config_that_is_not_utf8_exit_code(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(json.dumps(base_config()).encode().replace(b"linear8", b"linear8\xff"))
    with pytest.raises(ConfigError, match="utf-8"):
        load_config(bad)
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("graph", ["linear8", {"n": 8, "edges": [[1, 2], [2, 3]]}])
def test_orientations_must_be_a_list(graph):
    # A string used to be read one character at a time.
    with pytest.raises(ConfigError, match="orientations must be a list"):
        parse_config(base_config(graph=graph, squeeze={"r": 0.5, "orientations": "xpxpxpxp"}))


@pytest.mark.parametrize("command", ["compile", "simulate", "criteria", "sweep", "sample"])
def test_out_that_is_not_a_directory_exit_code(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out in (taken, taken / "sub"):
        assert main([command, "--config", "linear8", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not a directory" in captured.err
    assert taken.read_text() == "keep"
