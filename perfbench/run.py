"""cvcluster benchmark: seeded CLI workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The workload's operation list runs in-process through ``cvcluster.cli.main``,
back to back from one process (a closed loop with one client), repeated
until ``--seconds`` have passed.  Every operation's outputs are checked by
``gate.py``.  End-to-end times are scaled by a machine-speed gauge read
around every operation (``gauge.py``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import os

# Cap BLAS threads at the cores this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ".perfbench_work"
SETUP_LAUNCHES = 9
# What a CLI user pays before the first operation: interpreter start, the
# package import, config loading and the builtin network compiles.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import cvcluster.cli
from cvcluster.config import BUILTIN_CONFIGS, load_config
for name in BUILTIN_CONFIGS:
    load_config(name).build_unitary()
"""

# Set-up is mostly process start and imports, which no one gauge part
# matches; the whole gauge tracked it best in a trace of 360 launches.
SETUP_GAUGE_PARTS = ("python", "small", "blas", "stream")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("cli.ops", "trace.spans", "presets.cluster_state.distinct",
                                           "criteria.evals_in_threshold",
                                           "criteria.optimal_gains_numeric.variance_calls"):
        return "count"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("gb_s"):
        return "GB/s"
    if name.endswith(("_per_solve", "_per_threshold", "_per_distinct")):
        return "ratio"
    return "s"


def measure_setup(src: Path, meter: gauge.Gauge) -> float:
    """Median time of fresh interpreters doing the CLI's set-up, in reference seconds.

    One launch is too short to be scaled by the gauge readings on either side
    of it, so the median launch is scaled by the median reading.
    """
    times, readings = [], [meter.measure()]
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(src)], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        readings.append(meter.measure())
    return statistics.median(times) * meter.reference / statistics.median(readings)


def import_package(src: Path):
    """Import cvcluster from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(src))
    import cvcluster.cli
    from cvcluster.config import BUILTIN_CONFIGS, load_config

    if Path(cvcluster.cli.__file__).resolve().parent != (src / "cvcluster").resolve():
        raise RuntimeError(f"cvcluster imported from {cvcluster.cli.__file__}, not {src}")
    for name in BUILTIN_CONFIGS:
        load_config(name).build_unitary()
    return cvcluster.cli


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def run_op(cli, op: dict, sink) -> tuple[int, float, float, str]:
    """One ``cli.main`` call: exit code, wall and CPU seconds, stderr text."""
    err = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    return code, time.perf_counter() - t0, time.process_time() - c0, err.getvalue().strip()


def run_round(cli, ops, root: Path, checker: gate.CachedGate, tracer=None, first_op: int = 0,
              meter: gauge.Gauge | None = None) -> dict:
    """Run the operation list once, then check every output.

    With a gauge, each operation's times are also given in reference seconds
    (``gauge.py``), scaled by gauge readings taken just before and after it.
    With a tracer, each operation runs untraced and then traced, back to back,
    so both see the same machine load; the two runs must write identical files.
    """
    codes, errors = [], []
    times: dict[str, list[float]] = {"op_times": [], "op_cpu": [], "traced_times": [],
                                     "ref_times": [], "ref_cpu": []}
    sink = open(os.devnull, "w")
    before = meter.measure() if meter else None
    try:
        for i, op in enumerate(ops):
            out = root / op["out"]
            shutil.rmtree(out, ignore_errors=True)
            code, seconds, cpu, message = run_op(cli, op, sink)
            times["op_times"].append(seconds)
            times["op_cpu"].append(cpu)
            if meter:
                after = meter.measure()
                scale = meter.scale(before, after)
                times["ref_times"].append(seconds * scale)
                times["ref_cpu"].append(cpu * scale)
                before = after
            if tracer is not None:
                untraced = gate.digest(out) if code == 0 else None
                shutil.rmtree(out, ignore_errors=True)
                tracer.current_op = first_op + i
                tracer.install()
                span = tracer.open(tracing.OP)
                try:
                    traced_code, seconds, _, traced_message = run_op(cli, op, sink)
                finally:
                    tracer.close(span)
                    tracer.uninstall()
                times["traced_times"].append(seconds)
                if code == 0 and traced_code != 0:
                    code, message = traced_code, traced_message
                elif code == 0 and gate.digest(out) != untraced:
                    code, message = 1, "traced and untraced runs wrote different files"
            codes.append(code)
            errors.append(message)
    finally:
        sink.close()

    ctx: dict = {}
    failed, round_ops = 0, []
    for i, (op, code, message) in enumerate(zip(ops, codes, errors)):
        out = root / op["out"]
        problems = [f"exit code {code}: {message}"] if code != 0 else checker.check(i, op, root, ctx)
        if problems:
            failed += 1
            print(f"FAILED {' '.join(op['argv'])}: " + "; ".join(problems[:5]), file=sys.stderr)
        round_ops.append({"n": op["n"], "output_bytes": _output_bytes(out) if out.exists() else 0})
        shutil.rmtree(out, ignore_errors=True)
    return {**times, "failed": failed, "ops": round_ops}


def fastest(rounds: list[dict], key: str) -> list[float]:
    """Each operation's least-disturbed time: its minimum over the rounds."""
    return [min(r[key][i] for r in rounds) for i in range(len(rounds[0][key]))]


def per_op_median(rounds: list[dict], key: str) -> list[float]:
    """Each operation's median over the rounds."""
    return [statistics.median(r[key][i] for r in rounds) for i in range(len(rounds[0][key]))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cvcluster" / "__init__.py").is_file():
        print(f"error: no cvcluster sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    work = root / WORKDIR
    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(work / "configs", ignore_errors=True)

    cli = import_package(src)
    ops = workloads.make_ops(args.workload, args.seed, src, WORKDIR)
    workloads.write_configs(ops, root)

    checker = gate.CachedGate()
    start = time.perf_counter()
    if args.trace:
        tracer, meter, warmup = tracing.Tracer(), None, []
    else:
        # The warm-up round fills caches and finishes lazy set-up, and it
        # gives the program's own peak memory, before the gauge allocates
        # anything; it is checked but not timed.
        tracer, warmup = None, [run_round(cli, ops, root, checker)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        meter = gauge.Gauge(workloads.GAUGE_PARTS[args.workload])
    rounds, layer = [], []
    last = 0.0  # duration of the previous round; no round may overrun --seconds
    while not rounds or time.perf_counter() - start + last <= args.seconds:
        began = time.perf_counter()
        first_span, first_op = (len(tracer.start), len(rounds) * len(ops)) if tracer else (0, 0)
        rounds.append(run_round(cli, ops, root, checker, tracer, first_op, meter))
        if tracer is not None:
            layer.append(tracing.layer_metrics(tracer, first_span, rounds[-1]["ops"], first_op))
        last = time.perf_counter() - began

    attempted = len(ops) * (len(warmup) + len(rounds))
    failed = sum(r["failed"] for r in warmup + rounds)
    if tracer is None:
        pooled = [t for r in rounds for t in r["ref_times"]]
        values = {
            "setup_s": measure_setup(src, gauge.Gauge(SETUP_GAUGE_PARTS)),
            "wall_s": sum(per_op_median(rounds, "ref_times")),
            "op_s.p50": statistics.median(pooled),
            "cpu_s": sum(per_op_median(rounds, "ref_cpu")),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        tracer.save(work / f"trace-{args.workload}.npz")
        values = {k: statistics.median_low(m[k] for m in layer) for k in layer[0]}
        traced_wall, wall = sum(fastest(rounds, "traced_times")), sum(fastest(rounds, "op_times"))
        values.update({
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": wall,
            "trace.overhead_s": traced_wall - wall,
            "trace.spans": len(tracer.start) // len(rounds),
        })
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    shutil.rmtree(work / "out", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
