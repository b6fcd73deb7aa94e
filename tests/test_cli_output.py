"""Bytes of the CLI's JSON files: the array emitter and the pinned compile outputs."""

import hashlib
import json
import math
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cvcluster import cli, network
from cvcluster.cli import _write_json, main
from cvcluster.gaussian import NOISE_TERM

from expected import (
    COMPILE_SHA256,
    CRITERIA_SHA256,
    CUSTOM_CONFIGS,
    SAMPLE_SHA256,
    SIMULATE_SHA256,
    SWEEP_SHA256,
)

SPECIAL_VALUES = [-0.0, 5e-324, 1e-5, 0.1, 1e16, 1e300]
# Run lengths short enough that the test arrays span several runs.  A run is
# whole rows of the leading axis, so these give runs of one row (rows longer
# than the run) and of several rows, the last run shorter than the others.
SHORT_RUNS = [1, 2, 3, 7]


def tolist_form(payload):
    """The payload json.dump would take: every array as its nested lists."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: tolist_form(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [tolist_form(value) for value in payload]
    return payload


def written(payload) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        _write_json(path, payload)
        return path.read_bytes()


def json_bytes(payload) -> bytes:
    return (json.dumps(tolist_form(payload), indent=2, sort_keys=True) + "\n").encode()


def assert_written_as_json_dump(payload):
    """The emitter writes ``payload`` as json does, in its own runs and in short ones."""
    expected = json_bytes(payload)
    assert written(payload) == expected
    for run in SHORT_RUNS:
        with mock.patch.object(cli, "_WRITE_RUN", run):
            assert written(payload) == expected, f"runs of {run} items"


finite = st.one_of(
    st.sampled_from(SPECIAL_VALUES + [-v for v in SPECIAL_VALUES]),
    st.floats(allow_nan=False, allow_infinity=False),
)
arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4), elements=finite
)
keys = st.text(alphabet="abmxz_", min_size=1, max_size=4)


@st.composite
def nested_payloads(draw):
    """Arrays inside dicts 1-3 deep, next to strings, lists and other numbers."""
    node = draw(arrays)
    for _ in range(draw(st.integers(1, 3))):
        node = {
            draw(keys): node,
            "graph": "custom-64",
            "n": draw(st.integers(0, 300)),
            "modes": [1, 2],
            **draw(st.dictionaries(keys, arrays, max_size=2)),
        }
    return node


@given(payload=nested_payloads())
def test_emitter_writes_the_bytes_of_json_dump(payload):
    assert_written_as_json_dump(payload)


@pytest.mark.parametrize(
    "array",
    [
        np.array(SPECIAL_VALUES),
        np.zeros((0,)),
        np.zeros((0, 3)),
        np.zeros((2, 0, 3)),
        np.arange(9.0),
        np.zeros((1, 1, 1, 1)),
        np.array(0.25),
        np.array([[0.5, -0.0]], dtype=np.float32),
        np.array((3, "x", 0.5), dtype=NOISE_TERM),
    ],
    ids=[
        "specials", "empty", "empty-leading", "inner-empty", "nine-items", "unit-axes", "0-d",
        "float32", "0-d-record",
    ],
)
def test_emitter_edge_shapes_and_dtypes(array):
    payload = {"matrix": array, "rows": [array, {"deep": array}]}
    assert_written_as_json_dump(payload)


def test_non_finite_entries_are_spelled_as_json_spells_them():
    # json.dump writes NaN and the infinities as NaN / Infinity / -Infinity
    # (not strict JSON, but what the encoder emits); the emitter matches it.
    payload = {"matrix": np.array([[math.nan, math.inf], [-math.inf, 1.0]])}
    text = written(payload)
    assert text == json_bytes(payload)
    assert b"NaN" in text and b"-Infinity" in text


row_tables = st.lists(
    st.tuples(st.integers(-(2**62), 2**62), st.sampled_from(["x", "p", '"', "\\", "é"]), finite)
    | st.just((3, "x", math.nan)),
    max_size=5,
).map(lambda rows: np.array(rows, dtype=NOISE_TERM))


@given(rows=row_tables, table=st.integers(0, 2), deep=arrays)
def test_emitter_writes_structured_rows_as_json_dump(rows, table, deep):
    # Structured arrays (simulate's noise-term rows) are lists of their rows,
    # each row its fields in order: ints, json-escaped strings and floats.
    payload = {"nullifiers": [{"squeezed_terms": rows, "mode": 1}] * table, "m": deep}
    payload["rows"] = rows
    assert_written_as_json_dump(payload)


def test_structured_fields_must_be_numbers_or_strings():
    for dtype in ([("ok", float), ("flag", bool)], [("pair", float, (2,))]):
        with pytest.raises(TypeError):
            written({"rows": np.zeros(2, dtype=dtype)})


def test_emitter_peak_memory_is_a_few_times_the_file(tmp_path):
    # The emitter holds one run's item texts and its filled row template,
    # never the whole file as one string.
    path = tmp_path / "out.json"
    payload = {"matrix": np.random.default_rng(1).standard_normal((256, 256, 2))}
    tracemalloc.start()
    try:
        _write_json(path, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * path.stat().st_size


def test_emitter_peak_memory_does_not_grow_with_the_array(tmp_path):
    # Each array goes out in runs of at most cli._WRITE_RUN items or one row,
    # so the emitter holds one run's text whatever the number of rows.
    rng = np.random.default_rng(1)
    peaks, sizes = [], []
    for rows in (256, 512):
        path = tmp_path / f"out{rows}.json"
        payload = {"matrix": rng.standard_normal((rows, 256, 2))}
        tracemalloc.start()
        try:
            _write_json(path, payload)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(path.stat().st_size)
    assert max(peaks) <= 1.25 * min(peaks)
    assert max(peaks) < min(sizes)


@pytest.mark.parametrize("dtype", [complex, int, bool])
def test_arrays_that_are_not_real_floats_are_rejected(dtype):
    with pytest.raises(TypeError):
        written({"matrix": np.eye(2, dtype=dtype)})


def test_a_rejected_payload_writes_no_file(tmp_path):
    # The valid matrix sorts first, so a streaming writer would reach it
    # before the bad array; every dtype is checked before the file opens.
    path = tmp_path / "out" / "out.json"
    with pytest.raises(TypeError):
        _write_json(path, {"a_matrix": np.eye(300), "z_bad": np.eye(2, dtype=complex)})
    assert not path.exists()


def test_a_string_that_reads_as_the_array_placeholder_is_rejected():
    with pytest.raises(ValueError, match="placeholder"):
        written({"matrix": np.eye(2), "note": "\x00ndarray\x00"})


def test_unserializable_objects_are_still_rejected():
    with pytest.raises(TypeError):
        written({"value": object()})


def run_pinned(command, config, tmp_path, *extra) -> dict[str, str]:
    """sha256 of every file ``command ... *extra`` writes for a builtin or custom config."""
    if config in CUSTOM_CONFIGS:
        path = tmp_path / f"{config}.json"
        path.write_text(json.dumps(CUSTOM_CONFIGS[config]))
        config = str(path)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out), *extra]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("config", sorted(COMPILE_SHA256))
def test_compile_bytes_are_pinned(config, tmp_path):
    assert run_pinned("compile", config, tmp_path) == COMPILE_SHA256[config]


def test_compile_solves_the_gram_factor_once(tmp_path, monkeypatch):
    solves = []
    original = network.inverse_gram
    for module in [m for name, m in sys.modules.items() if name.startswith("cvcluster")]:
        if getattr(module, "inverse_gram", None) is original:
            monkeypatch.setattr(module, "inverse_gram", lambda a: solves.append(a) or original(a))
    run_pinned("compile", "custom64", tmp_path)
    assert len(solves) == 1


@pytest.mark.parametrize("config", sorted(SIMULATE_SHA256))
def test_simulate_bytes_are_pinned(config, tmp_path):
    assert run_pinned("simulate", config, tmp_path) == {"simulate.json": SIMULATE_SHA256[config]}


@pytest.mark.parametrize("case", sorted(SAMPLE_SHA256), ids=" ".join)
def test_sample_bytes_are_pinned(case, tmp_path):
    config, *extra = case
    assert run_pinned("sample", config, tmp_path, *extra) == {"sample.json": SAMPLE_SHA256[case]}


@pytest.mark.parametrize("case", sorted(CRITERIA_SHA256), ids=" ".join)
def test_criteria_bytes_are_pinned(case, tmp_path):
    config, *extra = case
    assert run_pinned("criteria", config, tmp_path, *extra) == {
        "criteria.json": CRITERIA_SHA256[case]
    }


@pytest.mark.parametrize("config", sorted(SWEEP_SHA256))
def test_sweep_bytes_are_pinned(config, tmp_path):
    assert run_pinned("sweep", config, tmp_path) == SWEEP_SHA256[config]


def test_reference_term_mismatches_are_unchanged(tmp_path):
    # linear8 matches the published table term for term; diamond8 differs in
    # the sign of one term of nullifier 1.
    found = {}
    for name in ("linear8", "diamond8"):
        assert main(["simulate", "--config", name, "--out", str(tmp_path / name)]) == 0
        payload = json.loads((tmp_path / name / "simulate.json").read_text())
        found[name] = payload["reference_term_mismatches"]
    assert found["linear8"] == []
    [mismatch] = found["diamond8"]
    assert mismatch.pop("computed") == pytest.approx(-math.sqrt(2.5), abs=1e-12)
    assert mismatch == {
        "input_mode": 3,
        "magnitudes_agree": True,
        "mode": 1,
        "quadrature": "x",
        "reference": math.sqrt(2.5),
    }
