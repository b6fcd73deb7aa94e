"""Compilation of cluster adjacency matrices into passive linear-optics networks.

The compiler follows the Gram-factorisation route: for an adjacency matrix A,
a real factor R with ``R @ R.T == inv(I + A @ A)`` is the Cholesky factor taken
in an outward row order, and the network matrix is ``(I + 1j * A) @ R``.
Feeding mode k of that network with a phase-squeezed input suppresses the
nullifier of mode k; multiplying column k by ``1j`` retargets it to an
amplitude-squeezed input instead.

:func:`compile_cluster_unitary` is the one pipeline from adjacency matrix to
network, published pivot signs included.  It hands back R with the network
and checks the Gram condition on R once, as unitarity of the network.
:class:`NetworkElement`, :func:`element_matrix` and :func:`compose_sequence`
turn a splitter-and-phase sequence into its matrix.  Nothing here is specific
to a graph: the published eight-mode wiring (pivot signs, the chain's element
sequence and the two-diamond's local phases) is data in :mod:`.presets`.
All functions are pure numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_ATOL",
    "NetworkElement",
    "is_symmetric",
    "is_unitary",
    "inverse_gram",
    "gram_factor_sequential",
    "assemble_unitary",
    "input_basis_convert",
    "element_matrix",
    "compose_sequence",
    "compile_cluster_unitary",
]

# Absolute tolerance for unitarity and consistency checks.  Entries of all
# matrices handled here are O(1), so an absolute scale is appropriate.
DEFAULT_ATOL = 1e-12


def is_symmetric(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.allclose(m, m.T, rtol=0.0, atol=1e-10)


def is_unitary(u: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    eye = np.eye(u.shape[0])
    return bool(np.max(np.abs(u @ u.conj().T - eye)) < atol)


def inverse_gram(a: np.ndarray) -> np.ndarray:
    """Return ``inv(I + a @ a)`` for a symmetric matrix ``a``.

    For real symmetric ``a`` the matrix ``I + a^2`` is positive definite, so
    the inverse always exists; the result is symmetrised to remove rounding
    noise.
    """
    a = np.asarray(a, dtype=float)
    if not is_symmetric(a):
        raise ValueError("adjacency matrix must be symmetric")
    n = a.shape[0]
    m = np.linalg.solve(np.eye(n) + a @ a, np.eye(n))
    return (m + m.T) / 2.0


def _outward_rows(n: int) -> list[int]:
    """Row solve order: start at row ceil(n/2), then alternate outward.

    Returns 0-based indices; the start row is followed by its upper
    neighbour, lower neighbour and so on, and once one side runs out the
    remaining rows follow in order.
    """
    mid = (n + 1) // 2  # 1-based label of the middle row
    return [r - 1 for r in sorted(range(1, n + 1), key=lambda r: (abs(r - mid), r < mid))]


def gram_factor_sequential(m: np.ndarray, pivot_signs=None) -> np.ndarray:
    """Factor a symmetric positive-definite matrix as ``R @ R.T == m``.

    R is the Cholesky factor of ``m`` with its rows taken in solve order,
    outward from the middle row, so each new row keeps only the minimal set
    of nonzero entries: the entries fixed by the rows solved before it, plus
    one pivot.  The pivot column order equals the row order with the first
    two entries swapped, which reproduces the support pattern of the
    published eight-mode chain factor.

    ``pivot_signs`` gives the sign of each pivot, one per solve step, and
    defaults to all +1.  Flipping a sign flips one column of R, which leaves
    ``R @ R.T`` unchanged; a caller that must reproduce a published network
    passes that network's signs.
    """
    m = np.asarray(m, dtype=float)
    # Cholesky reads one triangle only, so asymmetry must be caught here.
    if not is_symmetric(m):
        raise ValueError("gram matrix must be symmetric")
    n = m.shape[0]

    rows = _outward_rows(n)
    cols = list(rows)
    if n >= 2:
        cols[0], cols[1] = cols[1], cols[0]

    if pivot_signs is None:
        pivot_signs = (1,) * n
    if len(pivot_signs) != n:
        raise ValueError(f"need {n} pivot signs, got {len(pivot_signs)}")

    try:
        lower = np.linalg.cholesky(m[np.ix_(rows, rows)])
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    if np.any(np.diag(lower) ** 2 <= DEFAULT_ATOL):
        raise ValueError("matrix is not positive definite")

    factor = np.empty((n, n))
    factor[np.ix_(rows, cols)] = lower * np.asarray(pivot_signs, dtype=float)
    return factor


def assemble_unitary(a: np.ndarray, re_u: np.ndarray) -> np.ndarray:
    """Build the network matrix ``(I + 1j * a) @ re_u`` and verify unitarity.

    The unitarity check (max-abs 1e-12) is the Gram condition
    ``re_u @ re_u.T == G = inv(I + a^2)``: ``U U^dag - I`` equals
    ``(I + 1j a)(re_u re_u^T - G)(I - 1j a)`` and ``I +- 1j a`` has singular
    values >= 1, so a factor that passes has ``||re_u re_u^T - G||_2 < n * 1e-12``.
    """
    a = np.asarray(a, dtype=float)
    re_u = np.asarray(re_u, dtype=float)
    if not is_symmetric(a):
        raise ValueError("adjacency matrix must be symmetric")
    if a.shape != re_u.shape:
        raise ValueError("adjacency and factor shapes differ")
    u = (np.eye(a.shape[0]) + 1j * a) @ re_u
    if not is_unitary(u):
        raise ValueError("factor does not satisfy the Gram condition: (I + iA) R is not unitary")
    return u


def input_basis_convert(u: np.ndarray, x_squeezed_inputs) -> np.ndarray:
    """Multiply column j by ``1j`` for every mode j fed by amplitude squeezing.

    Mode labels are 1-based.  The phase pre-rotates those inputs by 90
    degrees, so a network derived for phase-squeezed inputs accepts
    amplitude-squeezed ones on the listed modes.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[1]
    converted = u.copy()
    for j in x_squeezed_inputs:
        if not 1 <= j <= n:
            raise ValueError(f"input mode {j} out of range 1..{n}")
        converted[:, j - 1] *= 1j
    return converted


@dataclass(frozen=True)
class NetworkElement:
    """One primitive of a passive network.

    ``kind`` is one of ``beamsplitter``, ``fourier``, ``inverse_fourier`` or
    ``pi_rotation``.  Beam splitters carry two 1-based mode labels, a power
    transmission in [0, 1] and a sign (+1 or -1) selecting the reflection
    convention; the single-mode kinds carry one mode label.
    """

    kind: str
    modes: tuple[int, ...]
    transmission: float | None = None
    sign: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "beamsplitter":
            if len(self.modes) != 2 or self.modes[0] == self.modes[1]:
                raise ValueError("beamsplitter needs two distinct modes")
            if self.transmission is None or not 0.0 <= self.transmission <= 1.0:
                raise ValueError(f"transmission {self.transmission} outside [0, 1]")
            if self.sign not in (1, -1):
                raise ValueError("beamsplitter sign must be +1 or -1")
        elif self.kind in ("fourier", "inverse_fourier", "pi_rotation"):
            if len(self.modes) != 1:
                raise ValueError(f"{self.kind} acts on exactly one mode")
        else:
            raise ValueError(f"unknown element kind {self.kind!r}")


def element_matrix(element: NetworkElement, n: int) -> np.ndarray:
    """n x n matrix of one element; identity away from the element's modes.

    Beam splitter entries: (k,k)=sqrt(1-T), (k,l)=sqrt(T), (l,k)=sign*sqrt(T),
    (l,l)=-sign*sqrt(1-T).  A Fourier element multiplies its mode by 1j, the
    inverse by -1j, and the pi rotation by -1.
    """
    for mode in element.modes:
        if not 1 <= mode <= n:
            raise ValueError(f"mode {mode} out of range 1..{n}")
    u = np.eye(n, dtype=complex)
    if element.kind == "beamsplitter":
        k, l = (m - 1 for m in element.modes)
        t = element.transmission
        root_t = np.sqrt(t)
        root_r = np.sqrt(1.0 - t)
        u[k, k] = root_r
        u[k, l] = root_t
        u[l, k] = element.sign * root_t
        u[l, l] = -element.sign * root_r
    else:
        phase = {"fourier": 1j, "inverse_fourier": -1j, "pi_rotation": -1.0}[element.kind]
        k = element.modes[0] - 1
        u[k, k] = phase
    return u


def compose_sequence(sequence, n: int) -> np.ndarray:
    """Matrix of an element sequence.

    The sequence is written in operator-product order: the first listed
    element is the leftmost factor, so the last listed element acts on the
    input modes first.
    """
    matrices = (element_matrix(element, n) for element in sequence)
    return functools.reduce(np.matmul, matrices, np.eye(n, dtype=complex))


def compile_cluster_unitary(
    adjacency: np.ndarray, x_squeezed_inputs=(), pivot_signs=None
) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline from adjacency matrix to network: ``(factor, unitary)``.

    The Gram inverse is factored with ``pivot_signs`` (all +1 by default),
    assembled with the adjacency phases, and finally re-phased on the columns
    listed in ``x_squeezed_inputs``.  Both the Gram factor R and the network
    matrix are returned, so a caller that writes R never solves it again.
    Other pivot signs change only the signs of columns, which leaves the
    cluster state unchanged; ``presets.builtin_network`` passes the published
    chain's signs (``presets.CHAIN8_PIVOT_SIGNS``) and derives the two-diamond
    network from that chain.
    """
    factor = gram_factor_sequential(inverse_gram(adjacency), pivot_signs=pivot_signs)
    return factor, input_basis_convert(assemble_unitary(adjacency, factor), x_squeezed_inputs)

