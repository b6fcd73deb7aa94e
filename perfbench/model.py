"""Independent reference model for the correctness gate.

Everything here is rebuilt from published data and textbook formulas, not
from the package's own routes: the builtin networks come from the published
beam-splitter sequence (not the Gram compiler), optimal gains come from one
linear solve of the quadratic variance sum (not coordinate descent), and
thresholds come from a dense scan plus bisection of this model.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

VACUUM = 0.25

# Published seven-splitter realisation of the 8-mode chain network, in
# operator-product order (the last element meets the inputs first).  Each
# entry is (kind, modes, transmission, sign).
_CHAIN8_SEQUENCE = [
    ("F", (8,)), ("PI", (7,)), ("IF", (6,)), ("F", (4,)), ("PI", (3,)), ("IF", (2,)),
    ("BS", (7, 8), 1 / 2, -1), ("F", (8,)),
    ("BS", (1, 2), 1 / 2, -1), ("F", (1,)),
    ("BS", (6, 7), 1 / 3, -1), ("F", (7,)),
    ("BS", (2, 3), 1 / 3, -1), ("F", (2,)),
    ("BS", (5, 6), 2 / 5, -1), ("F", (6,)),
    ("BS", (3, 4), 2 / 5, -1), ("F", (3,)),
    ("BS", (4, 5), 25 / 34, +1),
]

# Published local output phases turning the chain network into the diamond.
_DIAMOND_PHASES = np.array([-1, -1j, 1j, 1, 1, 1j, -1j, -1])

# The published inequalities.  A token "pK" is +p_K, "xK" is -x_K and
# "xK:g" scales -x_K by the gain slot g.
CRITERIA = {
    "linear8": {
        "3a": ("p1 x2", "p2 x1 x3:g_L3"),
        "3b": ("p2 x1:g_L1 x3", "p3 x2 x4:g_L4"),
        "3c": ("p3 x2:g_L2 x4", "p4 x3 x5:g_L5"),
        "3d": ("p4 x3:g_L3 x5", "p5 x4 x6:g_L6"),
        "3e": ("p5 x4:g_L4 x6", "p6 x5 x7:g_L7"),
        "3f": ("p6 x5:g_L5 x7", "p7 x6 x8:g_L8"),
        "3g": ("p7 x6:g_L6 x8", "p8 x7"),
    },
    "diamond8": {
        "4a": ("p1 x3 x4:g_D1", "p3 x1 x2:g_D2"),
        "4b": ("p2 x3 x4:g_D1", "p3 x2 x1:g_D2"),
        "4c": ("p1 x3:g_D3 x4", "p4 x1 x2:g_D4 x5:g_D5"),
        "4d": ("p2 x3:g_D3 x4", "p4 x1:g_D4 x2 x5:g_D5"),
        "4e": ("p4 x1:g_D6 x2:g_D6 x5", "p5 x4 x7:g_D6 x8:g_D6"),
        "4f": ("p5 x4:g_D5 x7 x8:g_D4", "p7 x5 x6:g_D3"),
        "4g": ("p5 x4:g_D5 x7:g_D4 x8", "p8 x5 x6:g_D3"),
        "4h": ("p6 x7 x8:g_D2", "p7 x5:g_D1 x6"),
        "4i": ("p6 x7:g_D2 x8", "p8 x5:g_D1 x6"),
    },
}

EDGES = {
    "linear8": [(k, k + 1) for k in range(1, 8)],
    "diamond8": [(1, 3), (1, 4), (2, 3), (2, 4), (4, 5), (5, 7), (5, 8), (6, 7), (6, 8)],
}


def _element(kind, modes, transmission=None, sign=None, n=8):
    u = np.eye(n, dtype=complex)
    if kind == "BS":
        k, l = modes[0] - 1, modes[1] - 1
        t, r = np.sqrt(transmission), np.sqrt(1 - transmission)
        u[k, k], u[k, l], u[l, k], u[l, l] = r, t, sign * t, -sign * r
    else:
        u[modes[0] - 1, modes[0] - 1] = {"F": 1j, "IF": -1j, "PI": -1}[kind]
    return u


def builtin_unitary(graph: str) -> np.ndarray:
    """Builtin network from the published element sequence and phases."""
    u = np.eye(8, dtype=complex)
    for entry in _CHAIN8_SEQUENCE:
        u = u @ _element(*entry)
    return u if graph == "linear8" else _DIAMOND_PHASES[:, None] * u


def symplectic(u: np.ndarray) -> np.ndarray:
    x, y = u.real, u.imag
    return np.block([[x, -y], [y, x]])


def input_variances(rs, orientations) -> np.ndarray:
    """Diagonal of the squeezed-input covariance in (x.., p..) order."""
    rs = np.asarray(rs, dtype=float)
    sq, anti = VACUUM * np.exp(-2 * rs), VACUUM * np.exp(2 * rs)
    is_x = np.array([o == "x" for o in orientations])
    return np.concatenate([np.where(is_x, sq, anti), np.where(is_x, anti, sq)])


def covariance(s, rs, orientations, etas=None) -> np.ndarray:
    """Output covariance for the network with symplectic matrix ``s``."""
    cov = (s * input_variances(rs, orientations)) @ s.T
    if etas is not None:
        d = np.sqrt(np.concatenate([etas, etas]))
        cov = cov * np.outer(d, d) + np.diag((1 - d * d) * VACUUM)
    return cov


def pullback_variance(u, rs, orientations, etas, c) -> float:
    """Variance of output combination c, pulled back through loss and network.

    With loss D, Var(c) = sum_k c_k^2 (1 - eta_k)/4 + sum_j w_j^2 sigma_j^2,
    where w = S^T D c and sigma_j^2 are the input variances.
    """
    c = np.asarray(c, dtype=float)
    d = np.ones_like(c) if etas is None else np.sqrt(np.concatenate([etas, etas]))
    w = symplectic(u).T @ (d * c)
    return float(np.sum(c * c * (1 - d * d)) * VACUUM + w * w @ input_variances(rs, orientations))


def nullifier(n: int, edges, mode: int) -> np.ndarray:
    c = np.zeros(2 * n)
    c[n + mode - 1] = 1.0
    for a, b in edges:
        if mode in (a, b):
            c[(b if a == mode else a) - 1] -= 1.0
    return c


@lru_cache(maxsize=None)
def _side(template: str, n: int = 8):
    """Fixed part and per-slot parts of one side of an inequality (read-only)."""
    base = np.zeros(2 * n)
    slots: dict[str, np.ndarray] = {}
    for token in template.split():
        term, _, slot = token.partition(":")
        index = int(term[1:]) - 1 + (n if term[0] == "p" else 0)
        coeff = 1.0 if term[0] == "p" else -1.0
        if slot:
            slots.setdefault(slot, np.zeros(2 * n))[index] += coeff
        else:
            base[index] += coeff
    return base, slots


def side_vector(template: str, gains) -> np.ndarray:
    base, slots = _side(template)
    return base + sum((gains.get(slot, 1.0) * v for slot, v in slots.items()), np.zeros_like(base))


def lhs(cov, criterion, gains) -> float:
    u, v = (side_vector(t, gains) for t in criterion)
    return float(u @ cov @ u + v @ cov @ v)


def optimal_lhs(cov, criterion) -> float:
    """Minimum of the variance sum over the gain slots, by one linear solve.

    The sum is quadratic in the slot values g: with u = u0 + A g and
    v = v0 + B g the minimiser solves (A'CA + B'CB) g = -(A'Cu0 + B'Cv0).
    """
    (u0, su), (v0, sv) = (_side(t) for t in criterion)
    names = sorted(set(su) | set(sv))
    if not names:
        return lhs(cov, criterion, {})
    a = np.column_stack([su.get(s, np.zeros_like(u0)) for s in names])
    b = np.column_stack([sv.get(s, np.zeros_like(v0)) for s in names])
    h = a.T @ cov @ a + b.T @ cov @ b
    g = np.linalg.lstsq(h, -(a.T @ cov @ u0 + b.T @ cov @ v0), rcond=None)[0]
    return lhs(cov, criterion, dict(zip(names, g)))


def first_crossing(margin, r_max=3.0, grid_points=61, tol=1e-10):
    """First r in (0, r_max] where margin(r) changes sign from > 0 to <= 0.

    None when the margin is negative at every point of the documented scan
    grid, which is when the program reports no threshold.
    """
    grid = np.linspace(0.0, r_max, grid_points)[1:]
    values = [margin(r) for r in grid]
    if all(m < 0 for m in values):
        return None
    fine = np.linspace(0.0, r_max, 30 * (grid_points - 1) + 1)[1:]
    hi_index = next((i for i, r in enumerate(fine) if margin(r) <= 0), None)
    if hi_index is None:
        return None
    lo, hi = (0.0 if hi_index == 0 else fine[hi_index - 1]), fine[hi_index]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)
