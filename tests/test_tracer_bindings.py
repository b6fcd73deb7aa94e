"""Every name the benchmark tracer binds still exists in the package.

``perfbench/tracing.py`` wraps each function of its ``FUNCTIONS`` table,
patches each ``METHODS`` entry on its class and reads ``SampleBatch.samples``
in a byte counter, so a name pruned from the package would otherwise fail only
in the traced benchmark rounds.  The module is loaded from its file and only
read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cvcluster.sampling import SampleBatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    # tracing imports its sibling ``workloads`` by top-level name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_on_its_module(tracing):
    missing = [
        f"{module}.{name}"
        for module, names in tracing.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"cvcluster.{module}"), name, None))
    ]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class(tracing):
    for module, class_name, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"cvcluster.{module}"), class_name)
        assert method in cls.__dict__, f"{class_name}.{method}"


def test_sample_batches_carry_the_samples_the_byte_counter_reads():
    samples = np.zeros((3, 4))
    assert SampleBatch(samples).samples is samples
