"""Experiment configuration: JSON schema, validation and state assembly.

A config names a graph, the input squeezing, a noise model and a gain
request.  The noise model is either per-mode efficiencies or the effective-r
shortcut (replace every squeezing magnitude by an effective value and skip
the loss channel); exactly one of the two must be given.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping

import numpy as np

from . import graphs, presets
from .criteria import Criterion, graph_criteria, resolve_gains
from .gaussian import GaussianState, LossModel, SqueezePattern
from .network import compile_cluster_unitary

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "BUILTIN_CONFIGS",
    "load_config",
    "parse_config",
]

BUILTIN_CONFIGS = ("linear8", "diamond8", "linear8_physical", "diamond8_physical")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ``effective_r`` and ``loss`` are mutually exclusive, so ``loss`` is the
    channel actually simulated; ``pattern`` always holds the nominal
    squeezing, and :meth:`simulation_pattern` applies the effective-r
    substitution when active.  Every construction, :meth:`with_gains` too,
    checks that a ``gains_spec`` mapping names only slots of the criteria.
    """

    graph: graphs.Graph
    graph_name: str | None
    pattern: SqueezePattern
    loss: LossModel | None
    effective_r: float | None
    gains_spec: object
    sweep: tuple[float, float, int] | None

    def __post_init__(self) -> None:
        if isinstance(self.gains_spec, Mapping):
            try:
                resolve_gains(self.criteria(), self.gains_spec)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    def with_gains(self, option: str | None) -> ExperimentConfig:
        """This config with a ``--gains`` request: None, 'unit', 'optimal' or a JSON file."""
        if option is None:
            return self
        if option in ("unit", "optimal"):
            return replace(self, gains_spec=option)
        path = Path(option)
        if not path.is_file():
            raise ConfigError(f"--gains must be 'unit', 'optimal' or a JSON file, got {option!r}")
        try:
            values = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(values, dict):
                raise ValueError("expected a JSON object of slot values")
            spec = _parse_gains(values)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"invalid gains file {path}: {exc}") from exc
        return replace(self, gains_spec=spec)

    def simulation_pattern(self) -> SqueezePattern:
        """Pattern actually simulated."""
        if self.effective_r is not None:
            return self.pattern.with_r(self.effective_r)
        return self.pattern

    @property
    def x_squeezed_inputs(self) -> tuple[int, ...]:
        return tuple(
            j + 1 for j, o in enumerate(self.pattern.orientations) if o == "x"
        )

    def build_network(self) -> tuple[np.ndarray, np.ndarray]:
        """Gram factor and network matrix; a builtin graph's are the published ones."""
        if self.graph_name is not None:
            return presets.builtin_network(self.graph_name)
        return compile_cluster_unitary(
            graphs.adjacency(self.graph), x_squeezed_inputs=self.x_squeezed_inputs
        )

    def build_unitary(self) -> np.ndarray:
        return self.build_network()[1]

    def build_state(self) -> GaussianState:
        return presets.cluster_state(
            self.build_unitary(), self.simulation_pattern(), loss=self.loss
        )

    def criteria(self) -> list[Criterion]:
        """The graph's inequalities, under the published labels on a builtin graph."""
        return list(_criteria(self.graph, self.graph_name))


# The one criteria cache: a config's gain-slot check, its ``with_gains`` copy
# and the command read one build per graph.  Every graph's criteria come from
# graph_criteria; a builtin graph passes its published labels, a custom graph
# none.  Bounded because an entry can be large (custom256's criteria with
# their affine forms hold about 21 MiB); four entries keep both builtins and
# two custom graphs.
@lru_cache(maxsize=4)
def _criteria(graph: graphs.Graph, graph_name: str | None) -> tuple[Criterion, ...]:
    labels = presets.PUBLISHED[graph_name].labels if graph_name is not None else {}
    return tuple(graph_criteria(graph, **labels))


def _parse_graph(raw) -> tuple[graphs.Graph, str | None]:
    if isinstance(raw, str):
        if raw not in presets.PUBLISHED:
            raise ConfigError(f"unknown builtin graph {raw!r}")
        return presets.PUBLISHED[raw].graph, raw
    if isinstance(raw, Mapping):
        if "n" not in raw or "edges" not in raw:
            raise ConfigError("explicit graph needs 'n' and 'edges'")
        n = _count(raw["n"], "graph.n")
        try:
            edges = [tuple(_count(m, "graph edge endpoint") for m in e) for e in raw["edges"]]
            graph = graphs.Graph.from_edges(n, edges)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid graph: {exc}") from exc
        return graph, None
    raise ConfigError("graph must be a builtin name or an object with n and edges")


def _finite(value, what: str) -> float:
    """A config number; a value that is not a finite number is a config error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not np.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return float(value)


def _count(value, what: str) -> int:
    """A config count: an integer, or a float with an integral value such as 61.0."""
    number = _finite(value, what)
    if not number.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _per_mode(raw, n: int, what: str) -> tuple[float, ...]:
    """One finite number per mode, from a list or a single value for all modes."""
    if not isinstance(raw, (list, tuple)):
        return (_finite(raw, what),) * n
    if len(raw) != n:
        raise ConfigError(f"need {n} values of {what}, got {len(raw)}")
    return tuple(_finite(v, what) for v in raw)


def _parse_pattern(raw, n: int) -> SqueezePattern:
    if not isinstance(raw, Mapping) or "r" not in raw:
        raise ConfigError("squeeze section must be an object with an 'r' entry")
    rs = _per_mode(raw["r"], n, "squeeze.r")
    orientations = raw.get("orientations")
    if orientations is None:
        orientations = SqueezePattern.alternating(n, 0.0).orientations
    elif not isinstance(orientations, (list, tuple)):
        raise ConfigError(f"squeeze.orientations must be a list, got {orientations!r}")
    if len(orientations) != n:
        raise ConfigError(f"need {n} orientations, got {len(orientations)}")
    try:
        return SqueezePattern(orientations=tuple(orientations), rs=rs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_loss(raw, n: int) -> tuple[LossModel | None, float | None]:
    if not isinstance(raw, Mapping):
        raise ConfigError("loss section must be an object")
    keys = set(raw)
    if keys == {"effective_r"}:
        value = _finite(raw["effective_r"], "loss.effective_r")
        if value < 0:
            raise ConfigError("effective_r must be >= 0")
        return None, value
    if keys == {"eta"}:
        etas = _per_mode(raw["eta"], n, "loss.eta")
        try:
            return LossModel(etas=etas), None
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("loss section must contain exactly one of 'eta' or 'effective_r'")


def _parse_gains(raw):
    if raw is None:
        return "unit"
    if raw in ("unit", "optimal"):
        return raw
    if isinstance(raw, Mapping):
        return {str(k): _finite(v, f"gain {k}") for k, v in raw.items()}
    raise ConfigError("gains must be 'unit', 'optimal' or a slot-to-value mapping")


def _parse_sweep(raw) -> tuple[float, float, int] | None:
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise ConfigError("sweep section must be an object")
    try:
        r_min = _finite(raw["r_min"], "sweep.r_min")
        r_max = _finite(raw["r_max"], "sweep.r_max")
        steps = _count(raw["steps"], "sweep.steps")
    except KeyError as exc:
        raise ConfigError(f"sweep needs numeric r_min, r_max and steps: {exc}") from exc
    if steps < 1 or r_max < r_min or r_min < 0:
        raise ConfigError("sweep needs 0 <= r_min <= r_max and steps >= 1")
    return r_min, r_max, steps


def parse_config(raw: Mapping) -> ExperimentConfig:
    """Validate a decoded JSON object into an :class:`ExperimentConfig`, once per command."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"graph", "squeeze", "loss", "gains", "sweep"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "graph" not in raw:
        raise ConfigError("config needs a 'graph' section")
    graph, name = _parse_graph(raw["graph"])
    if "squeeze" not in raw:
        raise ConfigError("config needs a 'squeeze' section")
    pattern = _parse_pattern(raw["squeeze"], graph.n)
    if name is not None:
        wired = SqueezePattern.alternating(graph.n, 0.0).orientations
        if pattern.orientations != wired:
            raise ConfigError(f"builtin graph {name!r} is wired for orientations x, p, x, p, ...")
    if "loss" not in raw:
        raise ConfigError("config needs a 'loss' section ('eta' or 'effective_r')")
    loss, effective_r = _parse_loss(raw["loss"], graph.n)
    gains_spec = _parse_gains(raw.get("gains"))
    sweep = _parse_sweep(raw.get("sweep"))
    return ExperimentConfig(
        graph=graph,
        graph_name=name,
        pattern=pattern,
        loss=loss,
        effective_r=effective_r,
        gains_spec=gains_spec,
        sweep=sweep,
    )


def load_config(source: str | Path) -> ExperimentConfig:
    """Load a config from a JSON file path or a builtin config name."""
    path = Path(source)
    if not path.is_file():
        if str(source) not in BUILTIN_CONFIGS:
            raise ConfigError(
                f"{source!r} is neither a readable file nor one of {BUILTIN_CONFIGS}"
            )
        path = resources.files("cvcluster").joinpath(f"configs/{source}.json")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, malformed JSON, or not UTF-8
        raise ConfigError(f"cannot read config {source}: {exc}") from exc
    return parse_config(raw)
