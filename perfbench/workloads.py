"""Seeded operation lists for the three workloads.

An operation is one ``cvcluster`` command line.  Its record carries the argv
the program sees, the config it was built from (the gate reads it) and the
graph size.  The same workload and seed always give the same list.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "sample", "wide")
BUILTINS = ("linear8", "diamond8", "linear8_physical", "diamond8_physical")

# sweep: per-mode-efficiency variants added to the four builtin configs.  The
# list stays short so that each operation is timed in several rounds a run,
# and holds 3 linear8 and 5 diamond8 operations so that the median operation
# lies among the diamond8 ones, not in the gap between the two sizes.
SWEEP_VARIANTS = {"linear8_physical": 1, "diamond8_physical": 3}
ETA_RANGE = (0.6, 0.95)
# Parts of the machine-speed gauge (gauge.py) each workload is scaled by:
# the kinds of work its operations spend their time in.  In ten-minute traces
# these cut the spread of a run's time the most: interpreter and small-matrix
# calls for sweep, BLAS and memory streaming for sample's 128 MB arrays, all
# of them for wide.
GAUGE_PARTS = {
    "sweep": ("python", "small"),
    "sample": ("blas", "stream"),
    "wide": ("python", "small", "blas", "stream"),
}
SAMPLE_DRAWS = 1_000_000
WIDE_SIZES = (64, 128, 192, 256)
WIDE_MEAN_DEGREE = 3
WIDE_DRAWS = 20_000
WIDE_R_RANGE = (0.3, 0.8)


def builtin_config(src: Path, name: str) -> dict:
    return json.loads((src / "cvcluster" / "configs" / f"{name}.json").read_text())


def _etas(rng, n: int) -> list[float]:
    return [round(float(e), 4) for e in rng.uniform(*ETA_RANGE, size=n)]


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _random_graph(rng, n: int) -> list[list[int]]:
    target = n * WIDE_MEAN_DEGREE // 2
    edges: set[tuple[int, int]] = set()
    while len(edges) < target:
        a, b = (int(v) for v in rng.integers(1, n + 1, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return [list(e) for e in sorted(edges)]


def make_ops(workload: str, seed: int, src: Path, workdir: str) -> list[dict]:
    """Operation list of one workload; paths are relative to the checkout root."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops: list[dict] = []

    def add(kind, label, config, n, extra=(), config_arg=None, group=None, **fields):
        index = len(ops)
        if config_arg is None:
            config_arg = f"{workdir}/configs/{label}.json"
        out = f"{workdir}/out/{index:02d}-{kind}-{label}"
        argv = [kind, "--config", config_arg, "--out", out, *extra]
        ops.append(dict(kind=kind, label=label, config=config, n=n, argv=argv,
                        out=out, group=group, **fields))

    if workload == "sweep":
        for name in BUILTINS:
            add("sweep", name, builtin_config(src, name), 8, config_arg=name)
        for base, count in SWEEP_VARIANTS.items():
            for k in range(count):
                config = builtin_config(src, base)
                config["loss"] = {"eta": _etas(rng, 8)}
                add("sweep", f"{base}-eta{k}", config, 8)
    elif workload == "sample":
        for name in BUILTINS:
            s = _seed(rng)
            add("sample", name, builtin_config(src, name), 8, config_arg=name,
                extra=["--n", str(SAMPLE_DRAWS), "--seed", str(s)], seed=s, draws=SAMPLE_DRAWS)
        name = BUILTINS[int(rng.integers(len(BUILTINS)))]
        s = _seed(rng)
        add("sample", f"{name}-optimal", builtin_config(src, name), 8, config_arg=name,
            extra=["--n", str(SAMPLE_DRAWS), "--seed", str(s), "--gains", "optimal"],
            seed=s, draws=SAMPLE_DRAWS, gains="optimal")
    else:
        for n in WIDE_SIZES:
            config = {
                "graph": {"n": n, "edges": _random_graph(rng, n)},
                "squeeze": {"r": round(float(rng.uniform(*WIDE_R_RANGE)), 4)},
                "loss": {"eta": _etas(rng, n)},
                "gains": "unit",
            }
            label = f"n{n}"
            add("compile", label, config, n, group=label)
            add("simulate", label, config, n, group=label)
            s = _seed(rng)
            add("sample", label, config, n, group=label,
                extra=["--n", str(WIDE_DRAWS), "--seed", str(s)], seed=s, draws=WIDE_DRAWS)
    return ops


def write_configs(ops: list[dict], root: Path) -> None:
    """Write every generated config file an operation refers to."""
    for op in ops:
        path = root / op["argv"][2]
        if path.suffix == ".json":
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(op["config"], indent=2))
