"""Command-line driver.

Subcommands::

    compile    write the network matrix, Gram factor and (chain) element list
    simulate   nullifier variances, noise powers and excess-noise terms
    criteria   evaluate the inseparability inequalities on the configured state
    sweep      lhs-versus-r table (CSV) plus a squeezing-threshold summary
    sample     Monte Carlo variance estimates with z-scores against the model

:func:`main` loads and checks the config once and hands it to the command.
``criteria`` and ``sample`` settle ``--gains`` with ``config.with_gains``,
the check of the config's ``gains`` section, before any network or state is
built.  Command lines are parsed by :data:`PARSER`, built at import.

Exit codes: 0 on success, 2 for configuration or usage errors, 1 for
unexpected internal failures.  All structured output is JSON (complex numbers
as [re, im] pairs, matrices as row-major nested arrays) or CSV with the fixed
header ``r,criterion,lhs_unit,lhs_optimal,bound``; no timestamps are written,
so repeated runs are byte-identical.

Payloads carry matrices as real floating ``np.ndarray`` (a complex matrix as
its real and imaginary parts stacked on a last axis of length 2) and
simulate's noise-term rows as structured arrays of ``gaussian.NOISE_TERM``.
:func:`_write_json` writes those with one array emitter and everything else
with ``json``; the bytes are those of ``json.dump(payload, indent=2,
sort_keys=True)`` with every array in its ``tolist()`` form (NaN and
infinities spelled as ``json`` spells them), in a fraction of the time of
json's pure-Python indenting encoder.  Like ``sweep.csv``, an array is one
row template (json's layout of a row of its leading axis, ``%s`` per item)
repeated and filled by one ``%`` per run of whole rows.  A run holds at most
``_WRITE_RUN`` items or one row, so memory does not grow with the rows.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__, presets, reference
from .config import BUILTIN_CONFIGS, ConfigError, ExperimentConfig, load_config
from .criteria import full_inseparability_report, gram_block, lhs_curve, resolve_gains
from .criteria import threshold_r, vlf_bound
from .gaussian import (
    excess_noise_decomposition,
    qnl_variance,
    quadrature_variance,
    squeezing_terms,
    variance_db,
)
from .network import compose_sequence, element_matrix
from .sampling import estimate_variances

_EFFECTIVE_NOTE = (
    "effective-r shortcut active: simulated at r={eff}, nominal source r={nom}"
)


# Stands in for each array while json encodes the rest of a payload; json
# writes it as _ARRAY_TEXT.
_ARRAY_MARK = "\x00ndarray\x00"
_ARRAY_TEXT = json.dumps(_ARRAY_MARK)
# Array items formatted and written per run, or one row of the leading axis
# if a row is longer (a 512-mode unitary's row is 1024 items).  A run's texts
# are all the emitter holds at once: for the 4.6 MiB unitary.json of a
# 256-mode graph its traced peak is 2.4 MiB, against 15.5 MiB when the whole
# file was formatted before the first write.  Short runs pay numpy's per-call
# cost: a 1-D array of 2^17 floats takes 0.09 s in runs of 2^14 items and
# 0.6 s in runs of one, on a 2-vCPU x86-64 VM.
_WRITE_RUN = 2**14
# json's spelling of the floats it cannot write as repr.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _complex_pairs(matrix: np.ndarray) -> np.ndarray:
    return np.stack([matrix.real, matrix.imag], -1)


def _item_texts(column: np.ndarray) -> list[str]:
    """json's text of each entry of a flat float, int or str array.

    ``astype(str)`` gives the same float texts as ``repr`` but is slower: 0.25 s
    against 0.15 s per 2e5 floats (2-vCPU x86-64, numpy 2.4.6).
    """
    values = column.tolist()
    if column.dtype.kind == "U":
        return list(map(encode_basestring_ascii, values))
    texts = list(map(repr, values))
    if column.dtype.kind == "f" and not np.isfinite(column).all():
        texts = [_NONFINITE.get(text, text) for text in texts]
    return texts


def _array_items(array: np.ndarray) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The nested-list shape json writes ``array`` as, and its flat item columns.

    A float array is a nested list of its entries; a structured array whose
    fields are floats, ints or strings (simulate's noise-term rows) one of
    rows, each row its fields in order.  Any other array is a ``TypeError``.
    """
    fields = array.dtype.names
    if fields is None and array.dtype.kind == "f":
        return array.shape, [array.reshape(-1)]
    if fields is not None and all(array.dtype[f].kind in "fiU" for f in fields):
        return array.shape + (len(fields),), [array[f].reshape(-1) for f in fields]
    raise TypeError(f"cannot write an array of dtype {array.dtype} as JSON")


def _template(shape: tuple[int, ...], indent: int) -> str:
    """json's indent-2 text of a nested list of ``shape`` at column ``indent``, items ``%s``."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    rows = ("," + pad).join([_template(shape[1:], indent + 2)] * shape[0])
    return "[" + pad + rows + "\n" + " " * indent + "]"


def _array_runs(shape: tuple[int, ...], columns: list[np.ndarray], indent: int):
    """``json.dumps(array.tolist(), indent=2)`` in runs, the array opened at column ``indent``.

    ``shape`` and ``columns`` are :func:`_array_items` of the array.  A run is
    whole rows of the leading axis, its :func:`_template` row repeated and
    filled by one ``%``: at most :data:`_WRITE_RUN` items, or one row.
    """
    width, size = len(columns), math.prod(shape[1:])
    if not shape or shape[0] == 0 or size < width:
        # A 0-d array or record, or no items: at most one item per column.
        yield _template(shape, indent) % tuple(t for column in columns for t in _item_texts(column))
        return
    pad, sep = "\n" + " " * (indent + 2), ",\n" + " " * (indent + 2)
    row, records = _template(shape[1:], indent + 2), size // width
    step = max(1, _WRITE_RUN // size)
    yield "["
    for start in range(0, shape[0], step):
        stop = min(start + step, shape[0])
        items = [""] * ((stop - start) * size)
        for j, column in enumerate(columns):
            items[j::width] = _item_texts(column[start * records : stop * records])
        yield (sep if start else pad) + sep.join([row] * (stop - start)) % tuple(items)
    yield "\n" + " " * indent + "]"


def _write_json(path: Path, payload) -> None:
    """``json.dump(payload, indent=2, sort_keys=True)`` and a newline, arrays as ``tolist()``.

    json writes the payload with a placeholder for each array; every array's
    dtype is checked before the file is opened, so a rejected payload writes
    nothing.  The skeleton pieces and each array's runs of whole rows (see
    :func:`_array_runs`) go straight to the file, so the memory the emitter
    holds is one run's text, not the file's.
    """
    arrays = []

    def mark(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"object of type {type(value).__name__} is not JSON serializable")
        arrays.append(value)
        return _ARRAY_MARK

    pieces = json.dumps(payload, indent=2, sort_keys=True, default=mark).split(_ARRAY_TEXT)
    if len(pieces) != len(arrays) + 1:
        raise ValueError("a payload string collides with the array placeholder")
    items = [_array_items(array) for array in arrays]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(pieces[0])
        for (shape, columns), before, after in zip(items, pieces, pieces[1:]):
            line = before[before.rfind("\n") + 1 :]
            handle.writelines(_array_runs(shape, columns, len(line) - len(line.lstrip(" "))))
            handle.write(after)
        handle.write("\n")


def _graph_label(config: ExperimentConfig) -> str:
    return config.graph_name or f"custom-{config.graph.n}"


def cmd_compile(args, config: ExperimentConfig, out: Path) -> int:
    label = _graph_label(config)

    factor, unitary = config.build_network()
    gram_payload = {"graph": label, "matrix": factor}
    if config.graph_name == "diamond8":
        gram_payload["base_graph"] = "linear8"
        gram_payload["local_output_phases"] = _complex_pairs(presets.DIAMOND_LOCAL_PHASES)

    _write_json(
        out / "unitary.json",
        {
            "graph": label,
            "n": config.graph.n,
            "x_squeezed_inputs": list(config.x_squeezed_inputs),
            "matrix": _complex_pairs(unitary),
        },
    )
    _write_json(out / "gram_factor.json", gram_payload)

    if config.graph_name == "linear8":
        sequence = presets.CHAIN8_ELEMENTS
        composed = compose_sequence(sequence, 8)
        deviation = float(np.max(np.abs(composed - unitary)))
        if deviation > 1e-12:
            raise RuntimeError(
                f"element sequence deviates from the compiled network by {deviation:g}"
            )
        _write_json(
            out / "elements.json",
            {
                "graph": label,
                "max_deviation_from_network": deviation,
                "sequence": [asdict(e) for e in sequence],
                "matrices": _complex_pairs(np.array([element_matrix(e, 8) for e in sequence])),
            },
        )
        print(f"wrote unitary.json, gram_factor.json, elements.json to {out}")
    else:
        print(f"wrote unitary.json, gram_factor.json to {out}")
    return 0


def _effective_note(config: ExperimentConfig) -> str | None:
    if config.effective_r is None:
        return None
    return _EFFECTIVE_NOTE.format(eff=config.effective_r, nom=max(config.pattern.rs))


def cmd_simulate(args, config: ExperimentConfig, out: Path) -> int:
    label = _graph_label(config)
    unitary = config.build_unitary()
    pattern = config.simulation_pattern()
    loss = config.loss
    state = presets.cluster_state(unitary, pattern, loss=loss)
    vectors = np.array(presets.nullifier_vectors(config.graph))
    noises = excess_noise_decomposition(unitary, pattern, vectors)
    variances = quadrature_variance(state, vectors).tolist()

    rows = []
    for mode, (vec, variance, noise) in enumerate(zip(vectors, variances, noises), start=1):
        qnl = qnl_variance(vec)
        rows.append(
            {
                "mode": mode,
                "variance": variance,
                "qnl": qnl,
                "ratio": variance / qnl,
                "db": variance_db(variance, qnl),
                "squeezed_terms": noise.squeezed,
                "max_anti_coefficient": noise.max_anti_coefficient,
            }
        )

    payload = {
        "graph": label,
        "simulated_r": list(pattern.rs),
        "loss_etas": list(loss.etas) if loss is not None else None,
        "nullifiers": rows,
    }
    note = _effective_note(config)
    if note:
        payload["note"] = note
    if loss is not None:
        # Equivalent pure-squeezing magnitude of each squeezed input under loss.
        payload["equivalent_pure_r"] = [
            float(-0.5 * np.log(eta * np.exp(-2.0 * r) + 1.0 - eta))
            for eta, r in zip(loss.etas, config.pattern.rs)
        ]
    published = presets.PUBLISHED.get(config.graph_name)
    if published is not None:
        payload["reference_term_mismatches"] = [
            {**asdict(m), "magnitudes_agree": m.magnitudes_agree}
            for m in reference.compare_noise_terms(noises, published.noise_terms)
        ]

    _write_json(out / "simulate.json", payload)

    print(f"graph {label}: nullifier noise")
    print(f"{'mode':>4} {'variance':>12} {'qnl':>8} {'dB':>8} {'max anti':>10}")
    for row in rows:
        print(
            f"{row['mode']:>4} {row['variance']:>12.6f} {row['qnl']:>8.4f} "
            f"{row['db']:>8.3f} {row['max_anti_coefficient']:>10.2e}"
        )
    if note:
        print(note)
    if payload.get("reference_term_mismatches"):
        print("term mismatches against the published noise tables:")
        for m in payload["reference_term_mismatches"]:
            print(
                f"  mode {m['mode']}: input ({m['input_mode']}, {m['quadrature']}) "
                f"computed {m['computed']:+.6f} vs published {m['reference']:+.6f}"
                + (" (same magnitude)" if m["magnitudes_agree"] else "")
            )
    elif published is not None:
        print("all noise terms match the published tables")
    print(f"wrote simulate.json to {out}")
    return 0


def cmd_criteria(args, config: ExperimentConfig, out: Path) -> int:
    config = config.with_gains(args.gains)
    label = _graph_label(config)
    state = config.build_state()
    criteria = config.criteria()
    gains = resolve_gains(criteria, config.gains_spec, state=state)
    report = full_inseparability_report(criteria, state, gains)

    published = presets.PUBLISHED.get(config.graph_name)
    measured = published.measured_lhs if published is not None else None

    print(f"graph {label}: inseparability criteria")
    header = f"{'id':>4} {'lhs':>9} {'bound':>7} {'ok':>4} {'V(u) dB':>9} {'V(v) dB':>9}"
    if measured:
        header += f" {'measured':>9}"
    print(header)
    payload_rows = []
    for i, result in enumerate(report.results):
        line = (
            f"{result.cid:>4} {result.lhs:>9.4f} {result.bound:>7.3f} "
            f"{'yes' if result.satisfied else 'NO':>4} {result.u_db:>9.3f} {result.v_db:>9.3f}"
        )
        row = asdict(result)
        row["id"] = row.pop("cid")
        if measured:
            line += f" {measured[i]:>9.2f}"
            row["measured_lhs"] = measured[i]
        print(line)
        payload_rows.append(row)
    verdict = "fully inseparable" if report.all_satisfied else "NOT certified"
    print(f"verdict: {verdict}")

    _write_json(
        out / "criteria.json",
        {"graph": label, "criteria": payload_rows, "all_satisfied": report.all_satisfied},
    )
    print(f"wrote criteria.json to {out}")
    return 0


def cmd_sweep(args, config: ExperimentConfig, out: Path) -> int:
    if config.sweep is None:
        raise ConfigError("config has no sweep section")
    label = _graph_label(config)
    criteria = config.criteria()
    r_min, r_max, steps = config.sweep
    grid = np.linspace(r_min, r_max, steps)

    terms = squeezing_terms(config.build_unitary(), config.pattern.orientations, config.loss)
    blocks = gram_block(criteria, terms)
    bounds = [f"{bound:.12g}" for bound in vlf_bound(criteria).tolist()]
    modes = ("unit", "optimal")
    # curves[gain mode, criterion, grid point]; found[criterion][gain mode].
    curves = np.array([lhs_curve(criteria, blocks, grid, mode) for mode in modes])
    crossings = [threshold_r(criteria, blocks, mode) for mode in modes]
    found = [dict(zip(modes, values)) for values in zip(*crossings)]

    # One row per (r, criterion): r, id, both curves, bound.
    table = np.empty((steps, len(criteria), 5), dtype=object)
    table[..., 0] = np.array([f"{r:.10g}" for r in grid.tolist()], dtype=object)[:, None]
    table[..., 1] = [c.cid for c in criteria]
    table[..., 2:4] = curves.transpose(2, 1, 0)
    table[..., 4] = bounds
    rows = "%s,%s,%.12g,%.12g,%s\r\n" * (steps * len(criteria)) % tuple(table.ravel().tolist())
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="") as handle:
        handle.write("r,criterion,lhs_unit,lhs_optimal,bound\r\n" + rows)

    experiment = presets.PUBLISHED.get(config.graph_name)
    quoted = experiment.unit_gain_thresholds if experiment is not None else {}
    print(f"graph {label}: unit-gain squeezing thresholds")
    thresholds = []
    for criterion, values in zip(criteria, found):
        # inf: the criterion is satisfied nowhere on the scanned grid.
        never = [mode for mode, value in values.items() if value == np.inf]
        computed, optimal = (None if value == np.inf else value for value in values.values())
        published = quoted.get(criterion.cid)
        entry = {
            "criterion": criterion.cid,
            "threshold_unit": computed,
            "threshold_optimal": optimal,
            "published_unit": published,
        }
        if never:
            entry["note"] = f"never satisfied on (0, 3] with {' or '.join(never)} gains"
        elif published is not None and computed is not None and abs(computed - published) > 0.02:
            entry["note"] = (
                "covariance-model threshold differs from the published figure; "
                "the model value follows from the simulated variances"
            )
        thresholds.append(entry)

        if values["unit"] is None:
            line = f"  {criterion.cid}: satisfied for all r > 0"
        else:
            line = f"  {criterion.cid}: r > {'none' if computed is None else f'{computed:.4f}'}"
            if values["optimal"] is None:
                line += " (optimal gains: satisfied for all r > 0)"
        if published is not None:
            line += f" [published: {published:.2f}]"
        if "note" in entry:
            line += "  <-- " + entry["note"]
        print(line)
    _write_json(out / "thresholds.json", {"graph": label, "thresholds": thresholds})
    print(f"wrote sweep.csv and thresholds.json to {out}")
    return 0


def cmd_sample(args, config: ExperimentConfig, out: Path) -> int:
    if args.n < 2:
        raise ConfigError("sampling needs --n of at least 2 for a variance estimate")
    if args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    if config.graph_name is None and args.gains is not None:
        raise ConfigError("sample on a custom graph writes nullifier checks only; drop --gains")
    config = config.with_gains(args.gains)
    label = _graph_label(config)
    state = config.build_state()

    # Every check vector and gain is settled before the first draw.
    named = [
        (f"nullifier_{mode}", vec)
        for mode, vec in enumerate(presets.nullifier_vectors(config.graph), start=1)
    ]
    if config.graph_name is not None:
        criteria = config.criteria()
        gains = resolve_gains(criteria, config.gains_spec, state=state)
        for c in criteria:
            named += zip((f"{c.cid}_u", f"{c.cid}_v"), c.sides(gains[c.cid]))
    names, vectors = zip(*named)
    vectors = np.array(vectors)
    est = estimate_variances(state, vectors, args.n, args.seed)
    model = quadrature_variance(state, vectors).tolist()

    checks = []
    for name, analytic, estimate, se in zip(
        names, model, est.estimate.tolist(), est.std_error.tolist()
    ):
        z = (estimate - analytic) / se
        checks.append(dict(name=name, analytic=analytic, estimate=estimate, std_error=se, z=z))

    max_z = max(abs(c["z"]) for c in checks)
    _write_json(
        out / "sample.json",
        {
            "graph": label,
            "n_samples": args.n,
            "seed": args.seed,
            "checks": checks,
            "max_abs_z": max_z,
        },
    )
    print(f"graph {label}: {args.n} draws, seed {args.seed}")
    print(f"{'check':>14} {'analytic':>11} {'estimate':>11} {'std err':>10} {'z':>7}")
    for c in checks:
        print(
            f"{c['name']:>14} {c['analytic']:>11.6f} {c['estimate']:>11.6f} "
            f"{c['std_error']:>10.2e} {c['z']:>7.2f}"
        )
    print(f"max |z| = {max_z:.2f}")
    print(f"wrote sample.json to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvcluster",
        description="Cluster-state network compilation, Gaussian simulation and certification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--config",
            required=True,
            help=f"config file path or builtin name ({', '.join(BUILTIN_CONFIGS)})",
        )
        p.add_argument("--out", default=".", help="output directory (default: .)")

    p = sub.add_parser("compile", help="compile the graph into a network matrix")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="nullifier variances and excess noise")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("criteria", help="evaluate the inseparability inequalities")
    common(p)
    p.add_argument("--gains", default=None, help="unit | optimal | JSON file of slot values")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("sweep", help="lhs versus squeezing as CSV, plus thresholds")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "sample",
        help="Monte Carlo cross-check of analytic variances",
        description="Monte Carlo cross-check of analytic variances.  On a custom graph sample "
        "writes nullifier checks only: it does not read the config's gains section (still "
        "checked at load), and --gains is a usage error.",
    )
    common(p)
    p.add_argument("--gains", default=None, help="unit | optimal | JSON file (builtin graphs only)")
    p.add_argument("--n", type=int, default=1_000_000, help="number of draws")
    p.add_argument("--seed", type=int, default=1, help="generator seed")
    p.set_defaults(func=cmd_sample)

    return parser


# Built once per process: every main call parses with it.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # The nearest existing path of --out must be a directory, or the
        # command would fail only when it writes, after all its work.
        out = Path(args.out)
        found = next(path for path in (out, *out.parents) if path.exists())
        if not found.is_dir():
            raise ConfigError(f"--out {args.out}: {found} is not a directory")
        return args.func(args, load_config(args.config), out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
