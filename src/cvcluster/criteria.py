"""Variance-sum inseparability tests with tunable gain factors.

Each criterion pairs two quadrature combinations u and v whose variance sum,
below a separability bound, refutes every split of the mode set that places
the criterion's distinguished mode pair on opposite sides.  Gains are named
slots scaling selected coefficients; setting every gain to 1 reduces u and v
to two graph nullifiers.  Each side is affine in the gains, c(g) = c(0) + g C;
a criterion builds that one form on first use, and :meth:`Criterion.sides`
(the side vectors under a gain table), the optimal-gain solve and the r
curves all read it.

:func:`gram_block` projects a covariance, or the stack K of
:func:`cvcluster.gaussian.squeezing_terms` with cov(r) = e^{-2r} K[0] +
e^{2r} K[1] + K[2], onto each criterion's Gram block G = sum over sides of
B cov B^T, with B = [c(0); C] cut to its nonzero columns (the modes of N[a] and
N[b]).  The gain solve reads G of the state covariance.  Curves and thresholds
in the squeezing parameter r read the blocks Q = gram_block(criteria, K),
projected once per criteria set, so no 2n x 2n matrix is formed at any r.  A
threshold's bisection evaluates several levels of midpoints per curve call.

Every routine that reads criteria takes the list of them.  The gain solve,
the curves and the thresholds stack the criteria that share a slot count, and
:func:`evaluate` stacks the sides of all of them, so each stack is one product
per call and each row reads the bits a stack of one would.  The curves and
thresholds come in both gain modes at once, unit gains and the gains solved
at each r, in the order of ``GAIN_MODES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import graphs
from .gaussian import (
    GaussianState,
    combination_vector,
    qnl_variance,
    quadrature_variance,
    variance_db,
)

__all__ = [
    "GAIN_MODES",
    "Term",
    "Criterion",
    "CriterionResult",
    "InseparabilityReport",
    "graph_criteria",
    "unit_gains",
    "vlf_bound",
    "evaluate",
    "gram_block",
    "optimal_gains_numeric",
    "resolve_gains",
    "lhs_curve",
    "threshold_r",
    "full_inseparability_report",
]

GainSet = Mapping[str, float]

# The gain modes of lhs_curve and threshold_r, in the order they return them.
GAIN_MODES = ("unit", "optimal")


@dataclass(frozen=True)
class Term:
    """One coefficient of a combination; ``gain`` names an optional scale slot."""

    mode: int
    quadrature: str
    coefficient: float
    gain: str | None = None


@dataclass(frozen=True)
class Criterion:
    """One inseparability inequality on a nullifier pair.

    ``bipartition`` is the mode pair (a, b) whose separation the inequality
    refutes.  Construction checks the shape of van Loock & Furusawa: u carries
    its only p term on a and v its only p term on b, neither p term has a gain
    slot, u has no x term on a and v none on b, and the partner's x term (x_b
    in u, x_a in v) has no slot.  Only a and b then enter the symplectic
    products, and the bound does not depend on the gains.
    """

    cid: str
    u: tuple[Term, ...]
    v: tuple[Term, ...]
    bipartition: tuple[int, int]
    n: int

    def __post_init__(self) -> None:
        a, b = self.bipartition
        for terms, own, partner in ((self.u, a, b), (self.v, b, a)):
            p_terms = [(t.mode, t.gain) for t in terms if t.quadrature == "p"]
            x_terms = [(t.mode, t.gain) for t in terms if t.quadrature == "x"]
            if p_terms != [(own, None)] or any(
                m == own or (m == partner and g is not None) for m, g in x_terms
            ):
                raise ValueError(
                    f"criterion {self.cid} is not a nullifier pair on modes {a} and {b}"
                )

    @cached_property
    def gain_names(self) -> tuple[str, ...]:
        names = {t.gain for t in self.u + self.v if t.gain is not None}
        return tuple(sorted(names))

    @cached_property
    def affine_form(self) -> np.ndarray:
        """Sides u, v as c(g) = c(0) + g C, stacked as B = [c(0); C]: (2, 1 + slots, 2n)."""

        def vector(side, slot):
            terms = ((t.mode, t.quadrature, t.coefficient) for t in side if t.gain == slot)
            return combination_vector(self.n, terms)

        slots = (None, *self.gain_names)
        form = np.array([[vector(side, slot) for slot in slots] for side in (self.u, self.v)])
        form.flags.writeable = False
        return form

    def sides(self, gains: GainSet) -> np.ndarray:
        """The (2, 2n) coefficient vectors of u and v under a table of slot values."""
        for name in self.gain_names:
            if name not in gains:
                raise ValueError(f"missing gain value for slot {name!r}")
        values = np.array([gains[name] for name in self.gain_names], dtype=float)
        return self.affine_form[:, 0] + values @ self.affine_form[:, 1:]


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    lhs: float
    bound: float
    satisfied: bool
    u_variance: float
    v_variance: float
    u_db: float
    v_db: float
    gains: dict[str, float]


@dataclass(frozen=True)
class InseparabilityReport:
    results: tuple[CriterionResult, ...]
    all_satisfied: bool


def graph_criteria(graph: graphs.Graph, order=None, slot_names=None, ties=None) -> list[Criterion]:
    """One inequality per edge (a, b), after van Loock & Furusawa, PRA 67, 052315 (2003).

    u and v are the nullifiers p_m - sum_{j in N(m)} x_j of a and b, with a gain
    slot on every x term but the partner's.  Ids default to "a-b" in sorted edge
    order and slots to "g{m}_{j}"; published labels pass ``order`` (id -> edge),
    ``slot_names`` ((m, j) -> slot of x_j in the nullifier of m) and ``ties``
    (id -> one slot name shared by all slots of that criterion).
    """
    x_modes = {nf.mode: nf.x_modes for nf in graphs.nullifiers(graph)}
    order = order or {f"{a}-{b}": (a, b) for a, b in sorted(graph.edges)}
    slot_names = slot_names or {(m, j): f"g{m}_{j}" for m in x_modes for j in x_modes[m]}
    ties = ties or {}

    def side(cid: str, m: int, partner: int) -> tuple[Term, ...]:
        return (Term(m, "p", 1.0),) + tuple(
            Term(j, "x", -1.0, None if j == partner else ties.get(cid, slot_names[m, j]))
            for j in x_modes[m]
        )

    return [
        Criterion(cid, side(cid, a, b), side(cid, b, a), (a, b), graph.n)
        for cid, (a, b) in order.items()
    ]


def unit_gains(criteria: Iterable[Criterion]) -> dict[str, float]:
    """All gain slots of the criteria set to 1."""
    return {name: 1.0 for c in criteria for name in c.gain_names}


def vlf_bound(criteria: Sequence[Criterion]) -> np.ndarray:
    """Separability bounds of the criteria's bipartitions (a, b), one per criterion: (C,).

    Each mode contributes the symplectic product u_x v_p - u_p v_x of its
    coefficients, and on a nullifier pair only a and b contribute, so the
    bound is (|u_p[a] v_x[a]| + |u_x[b] v_p[b]|) / 2: exactly 1 for nullifiers.
    No gain slot scales those four coefficients (each criterion checks this
    when built), so the bound reads them off the ungained sides c(0).
    """
    bounds = []
    for c in criteria:
        (u_x, u_p), (v_x, v_p) = c.affine_form[:, 0].reshape(2, 2, c.n)
        a, b = c.bipartition
        bounds.append(0.5 * (abs(u_p[a - 1] * v_x[a - 1]) + abs(u_x[b - 1] * v_p[b - 1])))
    return np.array(bounds, dtype=float)


def evaluate(
    criteria: Sequence[Criterion], state: GaussianState, gains: Mapping[str, GainSet]
) -> list[CriterionResult]:
    """Variance sum, bound and verdict of each criterion on a state.

    ``gains`` holds one slot table per criterion, keyed by ``cid``, as
    :func:`resolve_gains` returns them.  The sides of all criteria are one
    (2C, 2n) variance stack.  A criterion holds only when ``bound - lhs``
    exceeds the rounding bound of its two variances, 4 (2n) eps sum
    |c|^T |cov| |c|: the vacuum lies on the bound.
    """
    criteria = list(criteria)
    if not criteria:
        return []
    tables = [gains[c.cid] for c in criteria]
    sides = np.concatenate([c.sides(table) for c, table in zip(criteria, tables)])
    variances = quadrature_variance(state, sides).reshape(-1, 2).tolist()
    mag = np.abs(sides)
    sums = (mag @ np.abs(state.cov) * mag).reshape(len(criteria), -1).sum(axis=1)
    rounding = (4 * len(state.cov) * np.finfo(float).eps * sums).tolist()
    bounds = vlf_bound(criteria).tolist()
    pairs = sides.reshape(len(criteria), 2, -1)
    results = []
    for c, table, (u_var, v_var), bound, margin, (u, v) in zip(
        criteria, tables, variances, bounds, rounding, pairs
    ):
        lhs = u_var + v_var
        results.append(
            CriterionResult(
                cid=c.cid,
                lhs=lhs,
                bound=bound,
                satisfied=bound - lhs > margin,
                u_variance=u_var,
                v_variance=v_var,
                u_db=variance_db(u_var, qnl_variance(u)),
                v_db=variance_db(v_var, qnl_variance(v)),
                gains={name: float(table[name]) for name in c.gain_names},
            )
        )
    return results


def gram_block(criteria: Sequence[Criterion], covs: np.ndarray) -> list[np.ndarray]:
    """Each criterion's sum over sides of B cov B^T on B's nonzero columns.

    ``covs`` is one covariance or a stack of them; each block has shape
    (..., 1 + slots, 1 + slots).
    """
    blocks = []
    for c in criteria:
        form = c.affine_form
        support = np.flatnonzero(form.any(axis=(0, 1)))
        block = form[:, :, support]
        covs_on_support = covs[..., None, support[:, None], support]
        blocks.append((block @ covs_on_support @ block.transpose(0, 2, 1)).sum(-3))
    return blocks


def _slot_groups(criteria: Sequence[Criterion]) -> list:
    """The criteria grouped by slot count, in first-seen order: (indices, criteria) per group."""
    groups = {}
    for i, c in enumerate(criteria):
        groups.setdefault(len(c.gain_names), []).append(i)
    return [(members, [criteria[i] for i in members]) for members in groups.values()]


def _solve_gains(criteria: list[Criterion], grams: np.ndarray) -> np.ndarray:
    """Exact minimising gains G[1:, 1:] g = -G[1:, 0], one row per Gram block of a stack.

    The stack holds the blocks of ``criteria`` in order, an equal run of rows each.
    """
    try:
        solution = np.linalg.solve(grams[..., 1:, 1:], -grams[..., 1:, :1])[..., 0]
    except np.linalg.LinAlgError as exc:
        cids = ", ".join(c.cid for c in criteria)
        raise RuntimeError(f"a gain system of criterion {cids} is singular") from exc
    finite = np.isfinite(solution).reshape(len(criteria), -1).all(axis=1)
    if not finite.all():
        cid = criteria[int(np.argmin(finite))].cid
        raise RuntimeError(f"optimal gains of criterion {cid} are not finite")
    return solution


def optimal_gains_numeric(
    criteria: Sequence[Criterion], state: GaussianState
) -> dict[str, dict[str, float]]:
    """Exact minimiser of each criterion's variance sum over its gain slots, keyed by ``cid``.

    Each side is affine in the gains, c(g) = c(0) + C g, so the variance sum
    is a quadratic whose stationary point solves one linear system,
    (sum C^T S C) g = -sum C^T S c(0), summed over both sides with S the
    state covariance.  The criteria that share a slot count solve their
    systems as one stack.  A singular system or a non-finite solution raises.
    """
    solutions = {}
    for members, group in _slot_groups(criteria):
        rows = _solve_gains(group, np.stack(gram_block(group, state.cov))).tolist()
        solutions.update(zip(members, rows))
    return {c.cid: dict(zip(c.gain_names, solutions[i])) for i, c in enumerate(criteria)}


def resolve_gains(
    criteria: Iterable[Criterion],
    spec,
    state: GaussianState | None = None,
) -> dict[str, dict[str, float]]:
    """Turn a gain request into one slot table per criterion, keyed by ``cid``.

    ``spec`` may be "unit", "optimal" (requires ``state``; every criterion
    gets the exact minimiser of its own variance sum, so a slot shared by two
    criteria may take a different value in each) or a mapping of slot
    overrides on top of unit gains, applied to every criterion with that slot.
    """
    criteria = list(criteria)
    if spec == "optimal":
        if state is None:
            raise ValueError("optimal gains need a state to optimise against")
        return optimal_gains_numeric(criteria, state)
    if spec == "unit":
        overrides = {}
    elif isinstance(spec, Mapping):
        slots = unit_gains(criteria)
        unknown = set(spec) - set(slots)
        if unknown:
            raise ValueError(f"unknown gain slots {_abridged(unknown)}; known: {_abridged(slots)}")
        overrides = {k: float(v) for k, v in spec.items()}
    else:
        raise ValueError(f"gain spec must be 'unit', 'optimal' or a mapping, got {spec!r}")
    return {c.cid: {name: overrides.get(name, 1.0) for name in c.gain_names} for c in criteria}


def _abridged(names) -> str:
    """The sorted names: all of them, or the first 10 and a count of the rest."""
    names = sorted(names)
    if len(names) <= 10:
        return str(names)
    return f"{names[:10]} and {len(names) - 10} more"


def _stacks(criteria, blocks) -> list:
    """The criteria grouped by slot count: (indices, criteria, (C, 3, S, S) block stack).

    Checks that each block is its criterion's (3, S, S) Gram block stack, S = 1 + slots.
    """
    if len(blocks) != len(criteria):
        raise ValueError(f"need a Gram block per criterion, got {len(blocks)} for {len(criteria)}")
    for c, q in zip(criteria, blocks):
        shape = (3, 1 + len(c.gain_names), 1 + len(c.gain_names))
        if np.shape(q) != shape:
            raise ValueError(f"expected the {shape} Gram block of {c.cid}, got shape {np.shape(q)}")
    return [
        (members, group, np.stack([blocks[i] for i in members]))
        for members, group in _slot_groups(criteria)
    ]


def _curves(criteria: list[Criterion], q: np.ndarray, rs: np.ndarray, gain_mode: str) -> np.ndarray:
    """(C, m) variance sums of the (C, 3, S, S) stack at rs, shared (m,) or per criterion (C, m).

    Each criterion's rows go through the same products as a stack of one.
    """
    count, _, size, _ = q.shape
    weights = np.exp(np.multiply.outer(rs, [-2.0, 2.0, 0.0]))
    grams = (weights @ q.reshape(count, 3, -1)).reshape(-1, size, size)
    vecs = np.ones(grams.shape[:2])
    if gain_mode == "optimal":
        vecs[:, 1:] = _solve_gains(criteria, grams)
    return np.einsum("mi,mij,mj->m", vecs, grams, vecs).reshape(count, -1)


def lhs_curve(criteria, blocks, rs) -> np.ndarray:
    """(2, C, len(rs)) variance sums of C criteria at every squeezing value in ``rs``.

    ``blocks`` holds the criteria's projected stacks Q = gram_block(criteria,
    K) of the :func:`cvcluster.gaussian.squeezing_terms` stack K, each of shape
    (3, 1 + slots, 1 + slots).  The first axis follows ``GAIN_MODES``: every
    gain set to 1, then the gains solved at each r.
    """
    rs = np.asarray(rs, dtype=float)
    curves = np.empty((len(GAIN_MODES), len(criteria), rs.size))
    for members, group, q in _stacks(criteria, blocks):
        curves[:, members] = [_curves(group, q, rs, mode) for mode in GAIN_MODES]
    return curves


# Bisection steps decided per curve evaluation: 2**_LEVELS - 1 midpoints each.
_LEVELS = 4

# threshold_r's scan grid, built once for every call.
_SCAN = np.linspace(0.0, 3.0, 61)


def threshold_r(criteria, blocks) -> tuple[list, list]:
    """Squeezing value where each criterion's variance sum crosses its bound, per gain mode.

    Returns one list per mode of ``GAIN_MODES``, unit gains first, each with
    one value per criterion.  Scans r over (0, 3] in steps of 0.05 and bisects
    the first sign change of ``lhs(r) - bound`` to within 1e-6.  A criterion's
    value is None when it is satisfied on the whole grid and inf when it is
    satisfied nowhere on it, as under heavy loss.  Only the first crossing is
    reported: with per-mode efficiencies the optimal-gain curve starts exactly
    at the bound, so ``sweep`` writes 3.8e-7 and a later failure goes
    unreported.  The bound is :func:`vlf_bound`, which does not depend on the
    gains.

    ``criteria`` and ``blocks`` are as for :func:`lhs_curve`.  One curve call
    scans every criterion of a slot count in one gain mode, and each further
    call advances every open bracket by ``_LEVELS`` bisection steps: the next
    midpoints of a bracket [lo, hi] lie on a grid nested by repeated
    ``0.5 * (a + b)``, the same floats one step at a time would reach, so all
    of its interior points are evaluated at once and the bracket then walks
    down through them on its own decisions.
    """
    found = tuple([None] * len(criteria) for _ in GAIN_MODES)
    for members, group, q in _stacks(criteria, blocks):
        for mode, values in zip(GAIN_MODES, found):
            for i, value in zip(members, _thresholds(group, q, mode)):
                values[i] = value
    return found


def _thresholds(criteria: list[Criterion], q: np.ndarray, gain_mode: str) -> list:
    """:func:`threshold_r` of criteria with one slot count and their (C, 3, S, S) stack."""
    bounds = vlf_bound(criteria)
    lhs = _curves(criteria, q, _SCAN[1:], gain_mode)
    found = [None] * len(criteria)
    brackets = {}
    for k, (row, bound) in enumerate(zip(lhs, bounds)):
        if np.all(row > bound):
            found[k] = np.inf
        elif not np.all(row < bound):
            first = int(np.argmax(row <= bound))
            brackets[k] = _SCAN[first : first + 2].tolist()
    active = [k for k, (lo, hi) in brackets.items() if hi - lo > 1e-6]
    while active:
        grids = []
        for k in active:
            # Python floats round 0.5 * (a + b) as float64 does, without
            # numpy's per-scalar overhead; numpy arrays over 4 brackets were
            # 1.3-2.8 times slower for this grid and the walk below.
            points = brackets[k]
            for _ in range(_LEVELS):
                nested = points[:1]
                for a, b in zip(points, points[1:]):
                    nested += (0.5 * (a + b), b)
                points = nested
            grids.append(points)
        midpoints = np.array([points[1:-1] for points in grids])
        curves = _curves([criteria[k] for k in active], q[active], midpoints, gain_mode)
        for k, points, above in zip(active, grids, (curves > bounds[active, None]).tolist()):
            i, j = 0, len(points) - 1
            while j - i > 1 and points[j] - points[i] > 1e-6:
                mid = (i + j) // 2
                if above[mid - 1]:
                    i = mid
                else:
                    j = mid
            brackets[k] = [points[i], points[j]]
        active = [k for k in active if brackets[k][1] - brackets[k][0] > 1e-6]
    for k, (lo, hi) in brackets.items():
        found[k] = 0.5 * (lo + hi)
    return found


def full_inseparability_report(
    criteria: Iterable[Criterion],
    state: GaussianState,
    gains: Mapping[str, GainSet],
) -> InseparabilityReport:
    """Evaluate a whole criteria set; the verdict requires at least one inequality, all held.

    Each inequality refutes the splits that separate its mode pair, so the
    verdict also requires the pairs to connect all modes: then every split
    separates some pair.  ``gains`` holds one slot table per criterion, keyed
    by ``cid``, as returned by :func:`resolve_gains`.
    """
    criteria = list(criteria)
    results = tuple(evaluate(criteria, state, gains))
    return InseparabilityReport(
        results=results,
        all_satisfied=bool(results)
        and all(r.satisfied for r in results)
        and _connects_all_modes([c.bipartition for c in criteria], state.n),
    )


def _connects_all_modes(pairs: list[tuple[int, int]], n: int) -> bool:
    """Whether the mode pairs, read as edges, join modes 1..n into one component."""
    component = {m: frozenset([m]) for m in range(1, n + 1)}
    for a, b in pairs:
        merged = component[a] | component[b]
        component.update(dict.fromkeys(merged, merged))
    return len(component[1]) == n
