"""Spans around calls into each module, recorded from outside the package.

``Tracer.install`` wraps the listed public functions in every ``cvcluster``
module namespace that binds them (``cli`` imports by name, so both
``cli.threshold_r`` and ``criteria.threshold_r`` are wrapped), and patches
``GaussianState.__post_init__`` and ``ExperimentConfig.build_state`` on their
classes.  ``uninstall`` restores the originals.  Spans are kept in compact
arrays (name, start, end, parent, operation) and turned into per-layer
metrics by ``layer_metrics``.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

from workloads import WIDE_SIZES

FUNCTIONS = {
    "config": ("load_config",),
    "presets": ("cluster_state",),
    "criteria": ("threshold_r", "optimal_gains_numeric", "evaluate", "vlf_bound",
                 "resolve_gains", "full_inseparability_report"),
    "gaussian": ("evolve", "apply_loss", "input_covariance", "symplectic_from_unitary",
                 "quadrature_variance", "combination_vector", "excess_noise_decomposition"),
    "network": ("compile_cluster_unitary", "gram_factor_sequential", "inverse_gram",
                "assemble_unitary"),
    "graphs": ("nullifiers", "adjacency"),
    "sampling": ("sample_quadratures", "estimate_variance"),
}
METHODS = (("gaussian", "GaussianState", "__post_init__", "gaussian.GaussianState"),
           ("config", "ExperimentConfig", "build_state", "config.build_state"))
OP = "cli.main"
PER_SIZE = ("network.compile_cluster_unitary", "gaussian.GaussianState")


def _cluster_state_key(args, kwargs):
    unitary, pattern = args[0], args[1]
    loss = args[2] if len(args) > 2 else kwargs.get("loss")
    return (hash(np.asarray(unitary).tobytes()), pattern.orientations, pattern.rs,
            None if loss is None else loss.etas)


def _draw_bytes(args, kwargs):
    """Computed: the standard-normal draw and its product with the factor."""
    state, n = args[0], args[1]
    return 2 * n * state.cov.shape[0] * 8


def _projection_bytes(args, kwargs):
    """Computed: one read of the sample matrix plus the projected column."""
    rows, cols = args[0].samples.shape
    return rows * cols * 8 + rows * 8


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.current_op = -1
        self.keys: dict[int, set] = {}  # operation -> distinct cluster_state inputs
        self.bytes: dict[tuple[str, int], int] = {}  # (counter, operation) -> bytes
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        def distinct(args, kwargs):
            self.keys.setdefault(self.current_op, set()).add(_cluster_state_key(args, kwargs))

        def counter(label, measure):
            def hook(args, kwargs):
                key = (label, self.current_op)
                self.bytes[key] = self.bytes.get(key, 0) + measure(args, kwargs)
            return hook

        return {
            "presets.cluster_state": distinct,
            "sampling.sample_quadratures": counter("draw", _draw_bytes),
            "sampling.estimate_variance": counter("projection", _projection_bytes),
        }

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "cvcluster" or key.startswith("cvcluster.")]
        hooks = self._hooks()
        for module_name, functions in FUNCTIONS.items():
            home = sys.modules[f"cvcluster.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                name = f"{module_name}.{fn_name}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for module_name, class_name, method, name in METHODS:
            cls = getattr(sys.modules[f"cvcluster.{module_name}"], class_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every recorded span; ``names`` maps the name column to strings."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _inside(name_col: np.ndarray, parent: np.ndarray, ancestor_id: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor_id`` above them."""
    names, out = name_col.tolist(), []
    for p in parent.tolist():  # a parent always precedes its children
        out.append(p >= 0 and (names[p] == ancestor_id or out[p]))
    return np.array(out, dtype=bool)


def layer_metrics(tracer: Tracer, first_span: int, ops: list[dict], first_op: int) -> dict[str, float]:
    """Per-layer metrics of the spans recorded from ``first_span`` on.

    ``.calls`` counts calls and ``.s`` sums inclusive seconds.  Self time of an
    operation is its duration minus the durations of its direct children.
    """
    cols = {k: v[first_span:] for k, v in tracer.arrays().items()}
    parent = cols["parent"] - first_span
    parent[cols["parent"] < first_span] = -1
    dur = cols["end"] - cols["start"]
    name = cols["name"]
    ids = tracer.name_ids
    nid = lambda n: ids.get(n, -1)  # noqa: E731

    def calls(n, mask=None):
        sel = name == nid(n)
        return int(np.count_nonzero(sel if mask is None else sel & mask))

    def secs(n, mask=None):
        sel = name == nid(n)
        return float(dur[sel if mask is None else sel & mask].sum())

    child_time = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    op_spans = name == nid(OP)
    m: dict[str, float] = {}
    for module, functions in FUNCTIONS.items():
        for fn in functions:
            m[f"{module}.{fn}.calls"] = calls(f"{module}.{fn}")
            m[f"{module}.{fn}.s"] = secs(f"{module}.{fn}")
    for *_, n in METHODS:
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.s"] = secs(n)

    in_solve = _inside(name, parent, nid("criteria.optimal_gains_numeric"))
    solves = m["criteria.optimal_gains_numeric.calls"]
    m["criteria.optimal_gains_numeric.variance_calls"] = calls("gaussian.quadrature_variance", in_solve)
    m["criteria.optimal_gains_numeric.variance_calls_per_solve"] = (
        m["criteria.optimal_gains_numeric.variance_calls"] / solves if solves else 0.0)
    in_threshold = _inside(name, parent, nid("criteria.threshold_r"))
    thresholds = m["criteria.threshold_r.calls"]
    m["criteria.evals_in_threshold"] = calls("criteria.evaluate", in_threshold)
    m["criteria.evals_per_threshold"] = m["criteria.evals_in_threshold"] / thresholds if thresholds else 0.0

    op_ids = range(first_op, first_op + len(ops))
    distinct = sum(len(tracer.keys.get(i, ())) for i in op_ids)
    m["presets.cluster_state.distinct"] = distinct
    m["presets.cluster_state.calls_per_distinct"] = (
        m["presets.cluster_state.calls"] / distinct if distinct else 0.0)

    m["sampling.draw_bytes"] = sum(tracer.bytes.get(("draw", i), 0) for i in op_ids)
    m["sampling.projection_bytes"] = sum(tracer.bytes.get(("projection", i), 0) for i in op_ids)
    est_s = m["sampling.estimate_variance.s"]
    m["sampling.projection_gb_s"] = m["sampling.projection_bytes"] / est_s / 1e9 if est_s else 0.0

    self_time = np.where(op_spans, dur - child_time, 0.0)
    m["cli.ops"] = int(np.count_nonzero(op_spans))
    m["cli.self_s"] = float(self_time.sum())
    m["cli.output_bytes"] = sum(op["output_bytes"] for op in ops)

    local_op = cols["op"] - first_op
    known = (local_op >= 0) & (local_op < len(ops))
    sizes = np.array([op["n"] for op in ops])
    size = np.where(known, sizes[np.clip(local_op, 0, len(ops) - 1)], 0)
    for n in WIDE_SIZES:
        at_n = size == n
        for span in PER_SIZE:
            m[f"{span}.s.n{n}"] = secs(span, at_n)
        m[f"cli.self_s.n{n}"] = float(self_time[at_n].sum())
    return m
