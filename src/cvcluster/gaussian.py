"""Covariance-matrix simulation of squeezed light through passive networks.

Quadratures are x = (a + a^dag)/2 and p = (a - a^dag)/2i, so the vacuum
variance of every quadrature is 1/4.  Covariance matrices are ordered
(x_1..x_n, p_1..p_n) and means are fixed at zero.  States are immutable
values; every function returns a new state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import is_unitary

__all__ = [
    "VACUUM_VARIANCE",
    "SqueezePattern",
    "GaussianState",
    "LossModel",
    "NOISE_TERM",
    "NullifierNoise",
    "vacuum_state",
    "input_covariance",
    "omega",
    "symplectic_from_unitary",
    "cluster_state",
    "squeezing_terms",
    "evolve",
    "apply_loss",
    "combination_vector",
    "quadrature_variance",
    "qnl_variance",
    "variance_db",
    "excess_noise_decomposition",
]

VACUUM_VARIANCE = 0.25

_ORIENTATIONS = ("x", "p")


@dataclass(frozen=True)
class SqueezePattern:
    """Per-mode squeezing orientation ('x' or 'p') and magnitude r >= 0."""

    orientations: tuple[str, ...]
    rs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.orientations) != len(self.rs):
            raise ValueError("orientation and r lists must have equal length")
        for o in self.orientations:
            if o not in _ORIENTATIONS:
                raise ValueError(f"orientation must be 'x' or 'p', got {o!r}")
        for r in self.rs:
            if not np.isfinite(r) or r < 0:
                raise ValueError(f"squeezing parameter must be finite and >= 0, got {r}")

    @property
    def n(self) -> int:
        return len(self.orientations)

    @classmethod
    def alternating(cls, n: int, r: float) -> "SqueezePattern":
        """x,p,x,p,... pattern, equal r throughout."""
        return cls(orientations=tuple("xp"[j % 2] for j in range(n)), rs=(float(r),) * n)

    @classmethod
    def uniform(cls, n: int, r: float, orientation: str = "p") -> "SqueezePattern":
        return cls(orientations=(orientation,) * n, rs=(float(r),) * n)

    def with_r(self, r: float) -> "SqueezePattern":
        """Same orientations with every magnitude replaced by ``r``."""
        return SqueezePattern(orientations=self.orientations, rs=(float(r),) * self.n)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Zero-mean Gaussian state given by its 2n x 2n quadrature covariance.

    Every state is checked when built: the covariance must be finite and
    symmetric, and must satisfy the uncertainty bound cov + (i/4) Omega >= 0
    (Weedbrook et al., RMP 84, 621 (2012)) up to tol = 1e-10 max(1, max|cov|).
    The bound is tested as the existence of a Cholesky factor of
    M = cov + (i/4) Omega + tol I, which exists exactly when every eigenvalue
    of cov + (i/4) Omega is above -tol: one factorisation, not a full
    eigendecomposition.  It is taken by blocks, reading the lower triangle
    of M as a full factorisation would: L_xx = chol(C_xx + tol I), then
    W = L_xx^{-1} (C_px^T + i/4 I) and chol(C_pp + tol I - W^H W), the Schur
    complement of the x-x block.  So no 2n x 2n complex matrix is formed.
    """

    cov: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "cov", cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise ValueError(f"covariance must be 2n x 2n, got shape {cov.shape}")
        if not np.isfinite(cov).all():
            raise ValueError("covariance must be finite")
        # Rounding grows with the largest entry, so the tolerance of both
        # checks does too; states of order one keep the 1e-10 floor.
        tol = 1e-10 * max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > tol:
            raise ValueError("covariance must be symmetric")
        # Uncertainty bound: a blocked Cholesky factorisation (class docstring).
        n = cov.shape[0] // 2
        eye = np.eye(n)
        try:
            low = np.linalg.cholesky(cov[:n, :n] + tol * eye)
            w = np.linalg.solve(low, cov[n:, :n].T + 0.25j * eye)
            np.linalg.cholesky(cov[n:, n:] + tol * eye - w.conj().T @ w)
        except np.linalg.LinAlgError:
            raise ValueError("covariance violates the uncertainty bound") from None

    @property
    def n(self) -> int:
        return self.cov.shape[0] // 2


def vacuum_state(n: int) -> GaussianState:
    return GaussianState(cov=np.eye(2 * n) * VACUUM_VARIANCE)


def _squeezed_quadratures(orientations) -> np.ndarray:
    """Mask over the input quadratures (x_1..x_n, p_1..p_n), True where squeezed."""
    x = np.array(orientations) == "x"
    return np.concatenate([x, ~x])


def _input_variances(pattern: SqueezePattern) -> np.ndarray:
    sign = np.where(_squeezed_quadratures(pattern.orientations), -2.0, 2.0)
    return VACUUM_VARIANCE * np.exp(sign * np.tile(pattern.rs, 2))


def input_covariance(pattern: SqueezePattern) -> GaussianState:
    """Diagonal covariance of independent squeezed inputs.

    An x-squeezed mode has Var x = exp(-2r)/4 and Var p = exp(+2r)/4; a
    p-squeezed mode the reverse.
    """
    return GaussianState(cov=np.diag(_input_variances(pattern)))


@lru_cache(maxsize=None)
def omega(n: int) -> np.ndarray:
    """Antisymmetric form [[0, I], [-I, 0]] in (x.., p..) ordering (read-only)."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    form = np.block([[zero, eye], [-eye, zero]])
    form.setflags(write=False)
    return form


def symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    """2n x 2n quadrature action [[X, -Y], [Y, X]] of a mode unitary X + iY."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, atol=1e-10):
        raise ValueError("mode transformation must be unitary")
    x, y = u.real, u.imag
    return np.block([[x, -y], [y, x]])


def evolve(state: GaussianState, s: np.ndarray) -> GaussianState:
    """Apply a symplectic quadrature map: cov -> s @ cov @ s.T."""
    s = np.asarray(s, dtype=float)
    if s.shape != state.cov.shape:
        raise ValueError(
            f"transformation shape {s.shape} does not match state shape {state.cov.shape}"
        )
    n = state.n
    form = omega(n)
    if np.max(np.abs(s @ form @ s.T - form)) > 1e-10:
        raise ValueError("transformation is not symplectic")
    cov = s @ state.cov @ s.T
    return GaussianState(cov=(cov + cov.T) / 2.0)


@dataclass(frozen=True)
class LossModel:
    """Per-mode power efficiency in [0, 1] (transmission times detection)."""

    etas: tuple[float, ...]

    def __post_init__(self) -> None:
        for eta in self.etas:
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"efficiency {eta} outside [0, 1]")

    @classmethod
    def uniform(cls, n: int, eta: float) -> "LossModel":
        return cls(etas=(float(eta),) * n)


def apply_loss(state: GaussianState, loss: LossModel) -> GaussianState:
    """Pure-loss channel: cov -> D cov D + (I - D^2)/4 with D = diag(sqrt(eta))."""
    if len(loss.etas) != state.n:
        raise ValueError("loss model and state mode counts differ")
    d = np.sqrt(np.concatenate([loss.etas, loss.etas]))
    cov = state.cov * np.outer(d, d) + np.diag((1.0 - d * d) * VACUUM_VARIANCE)
    return GaussianState(cov=cov)


def _channel(u: np.ndarray, n: int, loss: LossModel | None) -> tuple[np.ndarray, np.ndarray]:
    """T = D S and floor = (1 - eta)/4 of network ``u`` then ``loss``, checked.

    The channel maps cov -> T cov T^T + diag(floor), with D = diag(sqrt(eta)).
    """
    s = symplectic_from_unitary(u)
    if s.shape[0] != 2 * n or (loss is not None and len(loss.etas) != n):
        raise ValueError("squeezing, loss and network mode counts differ")
    d = np.ones(2 * n) if loss is None else np.sqrt(np.tile(loss.etas, 2))
    return d[:, None] * s, VACUUM_VARIANCE * (1.0 - d * d)


def cluster_state(
    unitary: np.ndarray,
    pattern: SqueezePattern,
    loss: LossModel | None = None,
) -> GaussianState:
    """Squeezed inputs through the network and optional loss, validated once.

    One channel product T diag(v_in) T^T + diag(floor) (Weedbrook et al., RMP
    84, 621 (2012)); ``apply_loss(evolve(input_covariance(...)))`` is the
    step-by-step reference route.
    """
    t, floor = _channel(unitary, pattern.n, loss)
    return GaussianState(cov=(t * _input_variances(pattern)) @ t.T + np.diag(floor))


def squeezing_terms(u: np.ndarray, orientations, loss: LossModel | None = None) -> np.ndarray:
    """Output covariance as data in r: cov(r) = e^{-2r} K[0] + e^{2r} K[1] + K[2].

    Holds when every input is squeezed by the same r with the given
    orientations: the product of :func:`cluster_state` with the input columns
    grouped by e^{-2r} (K[0], squeezed) and e^{2r} (K[1], anti-squeezed); K[2]
    is the vacuum the loss adds.
    """
    mask = _squeezed_quadratures(orientations)
    t, floor = _channel(u, mask.size // 2, loss)
    groups = (t[:, mask], t[:, ~mask])
    return np.stack([VACUUM_VARIANCE * (g @ g.T) for g in groups] + [np.diag(floor)])


def combination_vector(n: int, terms) -> np.ndarray:
    """Coefficient vector over (x_1..x_n, p_1..p_n) from (mode, quad, coeff) triples."""
    c = np.zeros(2 * n)
    for mode, quadrature, coeff in terms:
        if not 1 <= mode <= n:
            raise ValueError(f"mode {mode} out of range 1..{n}")
        if quadrature == "x":
            c[mode - 1] += coeff
        elif quadrature == "p":
            c[n + mode - 1] += coeff
        else:
            raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    return c


def quadrature_variance(state: GaussianState, coeffs: np.ndarray) -> np.ndarray:
    """Variances c·cov·c of a (k, 2n) stack of combinations c · (x.., p..).

    One batched product: each row is the vector-matrix then vector-vector
    product of a single vector, so a stack reads the same bits as its rows
    one at a time.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 2 or c.shape[1] != state.cov.shape[0]:
        raise ValueError(f"coefficient shape {c.shape} does not match state")
    return (c[:, None, :] @ state.cov @ c[:, :, None]).ravel()


def qnl_variance(coeffs: np.ndarray) -> float:
    """Vacuum-level variance of a combination; the shot-noise reference."""
    c = np.asarray(coeffs, dtype=float)
    return float(c @ c) * VACUUM_VARIANCE


def variance_db(v: float, qnl: float) -> float:
    """Noise power 10*log10(v / qnl) relative to the vacuum reference."""
    if v <= 0 or qnl <= 0:
        raise ValueError("variances must be positive for a dB ratio")
    return 10.0 * np.log10(v / qnl)


# One noise term (mode, quadrature, coefficient) as a row of a structured array.
NOISE_TERM = np.dtype([("mode", np.int64), ("quadrature", "U1"), ("coefficient", float)])


@dataclass(frozen=True, eq=False)
class NullifierNoise:
    """One output combination expressed in scaled input vacuum operators.

    ``squeezed`` terms multiply exp(-r) factors, ``anti`` terms exp(+r), each
    an array of :data:`NOISE_TERM` rows; for a correctly compiled cluster
    network the anti side vanishes.  ``variance`` is reconstructed from the
    full coefficient set and matches the covariance route to better than 1e-10.
    """

    squeezed: np.ndarray
    anti: np.ndarray
    variance: float
    max_anti_coefficient: float


def excess_noise_decomposition(
    u: np.ndarray, pattern: SqueezePattern, combinations
) -> list[NullifierNoise]:
    """Rewrite output combinations in terms of scaled input vacuum operators.

    Each combination is a coefficient vector over the output quadratures.
    Pulling it back through the network gives input-side coefficients; each
    input quadrature is a vacuum operator scaled by exp(-r) (the squeezed
    quadrature of its mode) or exp(+r) (the conjugate one).  All
    combinations are pulled back in one product: row i of C·S is Sᵀ c_i.
    Every term above 1e-12 is then read off one mask into :data:`NOISE_TERM`
    rows; each side is a slice of them, in mode order: x_1, p_1, x_2, p_2, ...
    """
    n = pattern.n
    squeezed = _squeezed_quadratures(pattern.orientations)
    pulled = np.asarray(combinations, dtype=float).reshape(-1, 2 * n) @ symplectic_from_unitary(u)
    variances = pulled**2 @ _input_variances(pattern)
    max_anti = np.max(np.abs(pulled[:, ~squeezed]), axis=1)
    # Axes (combination, side, mode, quadrature), the squeezed side first, so
    # np.nonzero lists the terms combination by combination, side by side.
    by_mode = pulled.reshape(-1, 2, n).transpose(0, 2, 1)
    sides = np.stack([squeezed, ~squeezed]).reshape(2, 2, n).transpose(0, 2, 1)
    kept = (np.abs(by_mode) > 1e-12)[:, None] & sides
    row, _, mode, quad = np.nonzero(kept)
    terms = np.empty(row.size, dtype=NOISE_TERM)
    terms["mode"] = mode + 1
    terms["quadrature"] = np.array(["x", "p"])[quad]
    terms["coefficient"] = by_mode[row, mode, quad]
    groups = np.split(terms, np.cumsum(kept.sum(axis=(2, 3)).ravel())[:-1])
    return list(
        map(NullifierNoise, groups[0::2], groups[1::2], variances.tolist(), max_anti.tolist())
    )
