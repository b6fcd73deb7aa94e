"""Correctness gate: checks every operation's output files.

Outputs are compared with independent routes (``model.py``), published
figures and invariants, never with stored output bytes, so a change that
reorders arithmetic within 1e-12 or fixes a known defect still passes.
``check`` returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import model

TOL_DIRECT = 1e-12  # same arithmetic, possibly reordered
TOL_ROUTE = 1e-10  # an independent route through an n x n network
TOL_THRESHOLD = 1e-6  # bisection tolerance of the program's threshold solver
Z_MAX = 6.0  # Monte Carlo z-scores beyond this are treated as wrong

# Unit-gain thresholds of the builtin configs, recorded at the commit that
# introduced this benchmark and checked to TOL_THRESHOLD.
RECORDED_UNIT_THRESHOLDS = {
    "linear8": dict(zip(("3a", "3b", "3c", "3d", "3e", "3f", "3g"), (
        0.1115717757, 0.2027325541, 0.2027325541, 0.2027325541,
        0.2027325541, 0.2027325541, 0.1115717757))),
    "diamond8": dict(zip(("4a", "4b", "4c", "4d", "4e", "4f", "4g", "4h", "4i"), (
        0.2027325541, 0.2027325541, 0.279807894, 0.279807894, 0.3465735903,
        0.279807894, 0.279807894, 0.2027325541, 0.2027325541))),
    "linear8_physical": dict(zip(("3a", "3b", "3c", "3d", "3e", "3f", "3g"), (
        0.1474727548, 0.2773130642, 0.2773130642, 0.2773130642,
        0.2773130642, 0.2773130642, 0.1474727548))),
    "diamond8_physical": dict(zip(("4a", "4b", "4c", "4d", "4e", "4f", "4g", "4h", "4i"), (
        0.2773130642, 0.2773130642, 0.3963129307, 0.3963129307, 0.5088428992,
        0.3963129307, 0.3963129307, 0.2773130642, 0.2773130642))),
}


def _csv_tol(value: float) -> float:
    """TOL_DIRECT plus the rounding of a 12-significant-digit CSV field."""
    return TOL_DIRECT + 1e-11 * abs(value)


def params(config: dict):
    """(builtin graph or None, n, edges, rs, orientations, etas) actually simulated."""
    graph = config["graph"]
    if isinstance(graph, str):
        name, edges = graph, model.EDGES[graph]
        n = 8
    else:
        name, n, edges = None, graph["n"], [tuple(e) for e in graph["edges"]]
    squeeze = config["squeeze"]
    r = squeeze["r"]
    rs = list(r) if isinstance(r, list) else [r] * n
    orientations = squeeze.get("orientations") or ["x" if j % 2 == 0 else "p" for j in range(n)]
    loss = config["loss"]
    if "effective_r" in loss:
        return name, n, edges, [loss["effective_r"]] * n, orientations, None
    eta = loss["eta"]
    return name, n, edges, rs, orientations, np.array(eta if isinstance(eta, list) else [eta] * n)


def _complex(matrix) -> np.ndarray:
    return np.array([[re + 1j * im for re, im in row] for row in matrix])


def _close(problems, what, got, want, tol):
    if got is None and want is None:
        return
    if got is None or want is None or not abs(got - want) <= tol:
        problems.append(f"{what}: got {got}, expected {want} (tol {tol:g})")


def check_compile(op, out: Path, ctx: dict) -> list[str]:
    problems: list[str] = []
    _, n, edges, _, orientations, _ = params(op["config"])
    payload = json.loads((out / "unitary.json").read_text())
    u = _complex(payload["matrix"])
    factor = np.array(json.loads((out / "gram_factor.json").read_text())["matrix"])
    a = np.zeros((n, n))
    for i, j in edges:
        a[i - 1, j - 1] = a[j - 1, i - 1] = 1.0
    x_inputs = [j + 1 for j, o in enumerate(orientations) if o == "x"]
    if payload["n"] != n or payload["x_squeezed_inputs"] != x_inputs or u.shape != (n, n):
        problems.append("unitary.json header does not match the config")
        return problems
    _close(problems, "max |U U^dag - I|", np.max(np.abs(u @ u.conj().T - np.eye(n))), 0.0, TOL_ROUTE)
    gram = np.linalg.inv(np.eye(n) + a @ a)
    _close(problems, "max |R R^T - inv(I + A^2)|", np.max(np.abs(factor @ factor.T - gram)), 0.0, TOL_ROUTE)
    phases = np.where([o == "x" for o in orientations], 1j, 1.0)
    assembled = ((np.eye(n) + 1j * a) @ factor) * phases
    _close(problems, "max |U - (I + iA) R P|", np.max(np.abs(u - assembled)), 0.0, TOL_ROUTE)
    ctx.setdefault(op["group"], {})["unitary"] = u
    return problems


def check_simulate(op, out: Path, ctx: dict) -> list[str]:
    problems: list[str] = []
    _, n, edges, rs, orientations, etas = params(op["config"])
    payload = json.loads((out / "simulate.json").read_text())
    u = ctx.get(op["group"], {}).get("unitary")
    if u is None:
        return ["no checked compile output for this graph"]
    if payload["simulated_r"] != rs or payload["loss_etas"] != (None if etas is None else list(etas)):
        problems.append("simulated_r or loss_etas do not match the config")
    rows = payload["nullifiers"]
    if [row["mode"] for row in rows] != list(range(1, n + 1)):
        return problems + ["nullifier rows are not modes 1..n"]
    s = model.symplectic(u)
    variances = []
    for row in rows:
        k = row["mode"]
        c = model.nullifier(n, edges, k)
        want = model.pullback_variance(u, rs, orientations, etas, c)
        _close(problems, f"mode {k} variance", row["variance"], want, TOL_ROUTE)
        qnl = float(c @ c) * model.VACUUM
        _close(problems, f"mode {k} qnl", row["qnl"], qnl, TOL_DIRECT)
        _close(problems, f"mode {k} ratio", row["ratio"], row["variance"] / qnl, TOL_DIRECT)
        _close(problems, f"mode {k} dB", row["db"], 10 * math.log10(row["variance"] / qnl), TOL_DIRECT)
        # Excess-noise terms: the pull-back of c without loss.
        w = s.T @ c
        sq = np.array([w[j] if o == "x" else w[n + j] for j, o in enumerate(orientations)])
        anti = np.array([w[n + j] if o == "x" else w[j] for j, o in enumerate(orientations)])
        reported = {(m, q): coeff for m, q, coeff in row["squeezed_terms"]}
        for j in range(n):
            key = (j + 1, orientations[j])
            if key in reported:
                _close(problems, f"mode {k} term {key}", reported[key], sq[j], TOL_ROUTE)
            elif abs(sq[j]) > 1e-9:
                problems.append(f"mode {k}: missing squeezed term {key}")
        if set(reported) - {(j + 1, orientations[j]) for j in range(n)}:
            problems.append(f"mode {k}: squeezed term on an anti-squeezed quadrature")
        _close(problems, f"mode {k} max anti", row["max_anti_coefficient"], np.max(np.abs(anti)), TOL_ROUTE)
        if row["max_anti_coefficient"] > 1e-9:
            problems.append(f"mode {k}: anti-squeezed noise {row['max_anti_coefficient']:g} not suppressed")
        variances.append(row["variance"])
    ctx[op["group"]]["variances"] = variances
    return problems


def _builtin_nullifier_variance(name: str, n_mode: int, rs, etas) -> float:
    """Published input-operator expansion of a nullifier, with uniform loss."""
    from cvcluster import reference  # published figures only, no computation

    table = reference.REFERENCE_NOISE_TERMS_LINEAR if name == "linear8" else reference.REFERENCE_NOISE_TERMS_DIAMOND
    squeezed = sum(coeff * coeff for _, _, coeff in table[n_mode])
    eta = 1.0 if etas is None else float(etas[0])
    norm = 1 + sum(1 for a, b in model.EDGES[name] if n_mode in (a, b))
    return eta * squeezed * math.exp(-2 * rs[0]) * model.VACUUM + (1 - eta) * norm * model.VACUUM


def check_sample(op, out: Path, ctx: dict) -> list[str]:
    problems: list[str] = []
    name, n, edges, rs, orientations, etas = params(op["config"])
    payload = json.loads((out / "sample.json").read_text())
    draws = op["draws"]
    if payload["n_samples"] != draws or payload["seed"] != op["seed"]:
        problems.append("n_samples or seed do not match the command line")
    checks = {c["name"]: c for c in payload["checks"]}
    for c in payload["checks"]:
        _close(problems, f"{c['name']} std_error", c["std_error"],
               c["estimate"] * math.sqrt(2.0 / (draws - 1)), TOL_DIRECT * abs(c["estimate"]))
        _close(problems, f"{c['name']} z", c["z"], (c["estimate"] - c["analytic"]) / c["std_error"],
               1e-9 * max(1.0, abs(c["z"])))
        if not abs(c["z"]) <= Z_MAX:
            problems.append(f"{c['name']}: |z| = {abs(c['z']):g} exceeds {Z_MAX}")
    _close(problems, "max_abs_z", payload["max_abs_z"], max((abs(c["z"]) for c in payload["checks"]), default=None), 0.0)

    group = ctx.get(op["group"], {})
    for k in range(1, n + 1):
        check = checks.get(f"nullifier_{k}")
        if check is None:
            problems.append(f"missing nullifier_{k}")
            continue
        if name is not None:
            want = _builtin_nullifier_variance(name, k, rs, etas)
            _close(problems, f"nullifier_{k} analytic (published terms)", check["analytic"], want, TOL_DIRECT)
        else:
            if "variances" not in group:
                return problems + ["no checked simulate output for this graph"]
            _close(problems, f"nullifier_{k} analytic (simulate)", check["analytic"], group["variances"][k - 1], TOL_DIRECT)
            want = model.pullback_variance(group["unitary"], rs, orientations, etas, model.nullifier(n, edges, k))
            _close(problems, f"nullifier_{k} analytic (pull-back)", check["analytic"], want, TOL_ROUTE)
    if name is None:
        if len(checks) != n:
            problems.append("custom-graph sample has checks beyond the nullifiers")
        return problems

    cov = model.covariance(model.symplectic(model.builtin_unitary(name)), rs, orientations, etas)
    config_gains = op["config"].get("gains")
    for cid, criterion in model.CRITERIA[name].items():
        sides = [checks.get(f"{cid}_{s}") for s in "uv"]
        if None in sides:
            problems.append(f"missing {cid} checks")
            continue
        total = sides[0]["analytic"] + sides[1]["analytic"]
        if op.get("gains") == "optimal":
            # Any valid optimum lies between the joint minimum and unit gains.
            low, high = model.optimal_lhs(cov, criterion), model.lhs(cov, criterion, {})
            if not low - TOL_DIRECT <= total <= high + TOL_DIRECT:
                problems.append(f"{cid} optimal-gain lhs {total!r} outside [{low!r}, {high!r}]")
        else:
            gains = config_gains if isinstance(config_gains, dict) else {}
            for side, template in zip(sides, criterion):
                v = model.side_vector(template, gains)
                _close(problems, f"{side['name']} analytic", side["analytic"], float(v @ cov @ v), TOL_DIRECT)
    return problems


def check_sweep(op, out: Path, ctx: dict) -> list[str]:
    problems: list[str] = []
    config = op["config"]
    name, n, _, _, orientations, etas = params(config)
    criteria = model.CRITERIA[name]
    sweep = config["sweep"]
    grid = np.linspace(sweep["r_min"], sweep["r_max"], sweep["steps"])
    s = model.symplectic(model.builtin_unitary(name))
    covs: dict[float, np.ndarray] = {}

    def cov_at(r):
        if r not in covs:
            covs[r] = model.covariance(s, [r] * n, orientations, etas)
        return covs[r]

    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["r", "criterion", "lhs_unit", "lhs_optimal", "bound"]:
        problems.append(f"unexpected sweep.csv header {rows[0]}")
    rows = rows[1:]
    if len(rows) != len(grid) * len(criteria):
        return problems + [f"sweep.csv has {len(rows)} rows, expected {len(grid) * len(criteria)}"]
    for i, r in enumerate(grid):
        cov = cov_at(float(r))
        for j, (cid, criterion) in enumerate(criteria.items()):
            row = rows[i * len(criteria) + j]
            r_text, row_cid, unit, optimal, bound = row[0], row[1], *map(float, row[2:])
            where = f"r={r_text} {row_cid}"
            if row_cid != cid or abs(float(r_text) - r) > 1e-10:
                problems.append(f"{where}: expected r={r:.10g} {cid}")
                continue
            _close(problems, f"{where} lhs_unit", unit, model.lhs(cov, criterion, {}), _csv_tol(unit))
            _close(problems, f"{where} lhs_optimal", optimal, model.optimal_lhs(cov, criterion), _csv_tol(optimal))
            if not optimal <= unit + TOL_DIRECT:
                problems.append(f"{where}: lhs_optimal {optimal} > lhs_unit {unit}")
            if bound != 1.0:
                problems.append(f"{where}: bound {bound} != 1")

    from cvcluster import reference  # published figures only, no computation

    entries = json.loads((out / "thresholds.json").read_text())["thresholds"]
    if [e["criterion"] for e in entries] != list(criteria):
        return problems + ["thresholds.json does not list the criteria in order"]
    recorded = RECORDED_UNIT_THRESHOLDS.get(op["label"], {})
    for entry in entries:
        cid = entry["criterion"]
        criterion = criteria[cid]
        unit = model.first_crossing(lambda r: model.lhs(cov_at(r), criterion, {}) - 1.0)
        optimal = model.first_crossing(lambda r: model.optimal_lhs(cov_at(r), criterion) - 1.0)
        _close(problems, f"{cid} threshold_unit", entry["threshold_unit"], unit, TOL_THRESHOLD)
        if optimal is None:
            if entry["threshold_optimal"] is not None:
                problems.append(f"{cid}: threshold_optimal should be null")
        else:
            _close(problems, f"{cid} threshold_optimal", entry["threshold_optimal"], optimal, TOL_THRESHOLD)
        if cid in recorded:
            _close(problems, f"{cid} recorded threshold", entry["threshold_unit"], recorded[cid], TOL_THRESHOLD)
        if name == "linear8" and etas is None and cid in ("3c", "3d"):
            _close(problems, f"{cid} threshold ln(1.5)/2", entry["threshold_unit"], math.log(1.5) / 2, TOL_THRESHOLD)
        published = reference.PUBLISHED_UNIT_GAIN_THRESHOLDS.get(cid)
        if entry["published_unit"] != published:
            problems.append(f"{cid}: published_unit {entry['published_unit']} != {published}")
        noted = published is not None and abs(entry["threshold_unit"] - published) > 0.02
        if noted != ("note" in entry):
            problems.append(f"{cid}: note present={'note' in entry}, expected {noted}")
    return problems


CHECKS = {"compile": check_compile, "simulate": check_simulate, "sample": check_sample, "sweep": check_sweep}


def check(op: dict, root: Path, ctx: dict) -> list[str]:
    """Problems with one operation's outputs; ``ctx`` links ops on one graph."""
    try:
        return CHECKS[op["kind"]](op, root / op["out"], ctx)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable or malformed output: {type(exc).__name__}: {exc}"]


def digest(out: Path) -> str:
    """Hash of every file name and content under an output directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class CachedGate:
    """``check``, reusing the verdict for outputs byte-identical to checked ones.

    The program's outputs are deterministic, so later rounds of a run mostly
    repeat the first round's bytes; hashing them is much cheaper than
    re-deriving every value.  The key also covers the earlier outputs of the
    same graph, because those checks feed ``ctx``.
    """

    def __init__(self):
        self.results: dict = {}

    def check(self, index: int, op: dict, root: Path, ctx: dict) -> list[str]:
        group = op["group"]
        key = (index, digest(root / op["out"]), ctx.get(("key", group)))
        if key not in self.results:
            problems = check(op, root, ctx)
            self.results[key] = (problems, dict(ctx.get(group, {})))
        problems, state = self.results[key]
        if group is not None:
            ctx[group] = dict(state)
            ctx[("key", group)] = key
        return problems
