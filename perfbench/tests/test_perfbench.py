"""Tests of the benchmark itself: seeded inputs, the gate, and whole runs.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT / "perfbench"), str(SRC)]

import gate  # noqa: E402
import gauge  # noqa: E402
import workloads  # noqa: E402
from cvcluster.cli import main  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_op(op: dict, tmp_path: Path, ctx: dict) -> list[str]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(op["argv"]) == 0
    return gate.check(op, tmp_path, ctx)


def ops_in(tmp_path: Path, workload: str, seed: int = 3) -> list[dict]:
    ops = workloads.make_ops(workload, seed, SRC, str(tmp_path))
    workloads.write_configs(ops, tmp_path)
    return ops


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_are_seeded(workload):
    first = workloads.make_ops(workload, 7, SRC, "w")
    assert first == workloads.make_ops(workload, 7, SRC, "w")
    assert json.dumps(first) != json.dumps(workloads.make_ops(workload, 8, SRC, "w"))


def test_gate_flags_shifted_threshold_and_bad_optimum(tmp_path):
    op = next(o for o in ops_in(tmp_path, "sweep") if o["label"] == "linear8")
    assert run_op(op, tmp_path, {}) == []
    out = tmp_path / op["out"]

    path = out / "thresholds.json"
    original = path.read_text()
    payload = json.loads(original)
    payload["thresholds"][2]["threshold_unit"] += 1e-5  # 3c
    path.write_text(json.dumps(payload))
    problems = gate.check(op, tmp_path, {})
    assert any("3c threshold_unit" in p for p in problems)
    assert any("ln(1.5)/2" in p for p in problems)
    path.write_text(original)

    csv_path = out / "sweep.csv"
    lines = csv_path.read_text().splitlines()
    r, cid, unit, _, bound = lines[40].split(",")
    lines[40] = ",".join([r, cid, unit, repr(float(unit) + 1e-9), bound])
    csv_path.write_text("\n".join(lines) + "\n")
    problems = gate.check(op, tmp_path, {})
    assert any("lhs_optimal" in p and "> lhs_unit" in p for p in problems)


def test_gate_flags_non_unitary_matrix_and_wrong_variance(tmp_path):
    compile_op, simulate_op, sample_op = ops_in(tmp_path, "wide")[:3]
    ctx: dict = {}
    for op in (compile_op, simulate_op, sample_op):
        assert run_op(op, tmp_path, ctx) == []

    path = tmp_path / compile_op["out"] / "unitary.json"
    payload = json.loads(path.read_text())
    payload["matrix"][3][5][0] += 1e-8
    path.write_text(json.dumps(payload))
    problems = gate.check(compile_op, tmp_path, {})
    assert any("U U^dag" in p for p in problems)

    path = tmp_path / simulate_op["out"] / "simulate.json"
    payload = json.loads(path.read_text())
    payload["nullifiers"][0]["variance"] *= 1 + 1e-8
    path.write_text(json.dumps(payload))
    assert any("mode 1 variance" in p for p in gate.check(simulate_op, tmp_path, ctx))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gauge_scales_to_reference_seconds(workload):
    meter = gauge.Gauge(workloads.GAUGE_PARTS[workload])
    reading = meter.measure()
    assert reading > 0
    assert meter.reference == sum(gauge.REFERENCE_S[p] for p in workloads.GAUGE_PARTS[workload])
    # At the reference speed a span keeps its length; at half that speed it is
    # halved; the speed is taken from the mean of the readings around the span.
    assert meter.scale(meter.reference, meter.reference) == pytest.approx(1.0)
    assert meter.scale(2 * meter.reference, 2 * meter.reference) == pytest.approx(0.5)
    assert meter.scale(reading, 3 * reading) == pytest.approx(meter.reference / (2 * reading))


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_has_no_failures(workload):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    # The untimed warm-up round and one timed round.
    assert result["attempted"] == 2 * len(workloads.make_ops(workload, 5, SRC, "w"))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["success_rate"]["value"] == 1.0


def test_traced_run_reports_every_layer_metric():
    done = run_benchmark(ROOT, "--workload", "sample", "--seed", "5", "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["sampling.estimate_variance.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
