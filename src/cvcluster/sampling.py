"""Monte Carlo quadrature sampling as an independent check on analytic variances.

Draws mimic homodyne records: zero-mean Gaussian outcomes with the state's
covariance.  Sampling is deterministic per seed (PCG64); callers running
batches in parallel must hand out distinct seeds.

There is one way to draw: a single PCG64 stream of standard normals z,
cut into blocks of about ``BLOCK_VALUES`` = 2**16 values, small enough that
a block and its projections stay in cache.  An outcome is x = L z,
with L the lower Cholesky factor of the covariance.
:func:`sample_quadratures` materialises the whole batch as one block, rows
z·Lᵀ, and stays the reference route.

:func:`estimate_variances` streams the blocks, so its memory does not grow
with the number of draws, and never forms an outcome.  A check vector v
reads v·x = v·(L z) = (Lᵀ v)·z, so the stack of checks V is pulled back
through the factor once, P = V·L, and every block of normals is projected
onto P.  That gives the projections of the outcomes onto V, draw for draw,
up to the order of the sums (rounding of order eps·|v|·|L|·|z| per draw),
without the per-block product z·Lᵀ, the largest one at large n, or the
block of outcomes it would fill.  Each block's mean and variance are
computed in place on its projection, and the blocks are merged as a
pairwise tree.

Each distinct check is pulled back and projected once.  The rows of V are
keyed by their exact bytes, so a row that differs only by a signed zero is
its own check, and a repeated row gets its first occurrence's estimate.
With unit gains every side of a builtin's inequalities is one of the
graph's 8 nullifiers, so of the 22 (chain) or 26 (two-diamond) checks that
``sample`` reports, 8 are projected; with optimal gains all 26 are.

A projection is taken in products of at most 1024 draws, each writing its
columns of one array.  OpenBLAS (0.3.31, two threads) splits a product
of 2**19 (about 5.2e5) multiply-adds or more over two threads; an 8-mode
block of 4096 draws on 26 distinct checks is 1.7e6, a 1024-draw slice 4.3e5.
Between the draws of a stream the split saves no wall time, and its second
thread spin-waits between calls: on 2-vCPU x86-64, a 10^6-draw estimate on
the 26 checks of ``diamond8_physical`` took 0.41 s of wall and 0.82 s of
CPU time in one product per block, against 0.40 s of each sliced.  Past 64
columns a block holds 1024 draws, so it stays one product.

The draws are the floor of an estimate, and ``sample.json`` pins their
stream.  Measured on the same machine (numpy 2.4.6, 10^6 draws on the 26
checks of ``diamond8_physical``):

- The draws alone took 0.23 s of the estimate's 0.27-0.29 s (80-86%).
- One stream cannot be split over threads: the ziggurat draw takes a
  variable number of raw values per normal, so no jump lands on the k-th
  normal.  ``standard_normal`` releases the GIL while it fills: two threads
  on separate generators drew twice the normals of one in about the same
  wall time, at twice the CPU time (3 of 5 trials with 2**16-value fills,
  4 of 4 with 2**21).  An earlier reading of 1.05 s against 0.53 s, with
  CPU time equal to wall time, matched a first trial in which a GIL-free
  control (``np.sort``) ran serially as well.
- A thread drawing one or eight blocks ahead gave the same estimates bit for
  bit, but took 0.30-0.41 s against 0.27-0.39 s inline (5 trials), with CPU
  time equal to wall time: the draws did not overlap the projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .gaussian import GaussianState

__all__ = [
    "BLOCK_VALUES",
    "SampleBatch",
    "VarianceEstimate",
    "sample_quadratures",
    "estimate_variance",
    "estimate_variances",
]

# Normals per streamed block: 2**16 float64 values, 512 KB, so a block and
# its projection onto a few dozen checks stay in a 2 MB L2 cache.
BLOCK_VALUES = 2**16

# Draws per projection product: OpenBLAS keeps it on one thread while
# checks x columns stay below 512, 31 checks on 16 columns (see the module
# docstring).
_PRODUCT_DRAWS = 1024


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Quadrature outcomes, one row per draw, columns (x_1..x_n, p_1..p_n)."""

    samples: np.ndarray


def _factor(state: GaussianState) -> np.ndarray:
    """Lower-triangular L with L Lᵀ equal to the covariance."""
    try:
        return np.linalg.cholesky(state.cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite for sampling") from exc


def _blocks(dim: int, n: int, seed: int, rows: int) -> Iterator[np.ndarray]:
    """The first ``n`` rows of ``dim`` standard normals of the seed's stream, ``rows`` per block.

    A last block of a single row is folded into the one before it, so every
    block of a stream of at least two rows can carry a variance estimate.
    Every block is drawn into one buffer, so a block is overwritten by the
    next: the allocator sees one block-sized array, not one per block.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    buffer = np.empty((min(rows + 1, n), dim))
    for start, stop in zip(starts, starts[1:] + [n]):
        yield rng.standard_normal(out=buffer[: stop - start])


def sample_quadratures(state: GaussianState, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` outcomes from the state: one block of normals z, as rows z·Lᵀ."""
    factor = _factor(state)
    normals = next(_blocks(factor.shape[0], n, seed, rows=n))
    return SampleBatch(normals @ factor.T)


@dataclass(frozen=True)
class VarianceEstimate:
    """Sample means, unbiased variances and their standard errors, one per check."""

    mean: np.ndarray
    estimate: np.ndarray
    std_error: np.ndarray


def _std_error(estimate, n_samples: int):
    """The Gaussian identity ``se = estimate * sqrt(2 / (n - 1))``."""
    return estimate * math.sqrt(2.0 / (n_samples - 1))


def estimate_variance(batch: SampleBatch, coeffs: np.ndarray) -> VarianceEstimate:
    """Unbiased sample variances of the outcomes projected onto a (k, 2n) stack of checks.

    The checks are projected in products of at most 1024 draws (see the
    module docstring) into one array, each check's draws along a contiguous
    row.
    """
    size = batch.samples.shape[0]
    if size < 2:
        raise ValueError("variance estimation needs at least two samples")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[1:] != batch.samples.shape[1:]:
        raise ValueError(f"expected a (k, 2n) stack of checks, got shape {coeffs.shape}")
    projected = np.empty((len(coeffs), size))
    for start in range(0, size, _PRODUCT_DRAWS):
        stop = start + _PRODUCT_DRAWS
        np.matmul(coeffs, batch.samples[start:stop].T, out=projected[:, start:stop])
    # The arithmetic of mean() and var(ddof=1), in place on the projection this
    # function owns: no block-sized temporary and no second pass for the mean.
    mean = np.add.reduce(projected, axis=-1) / size
    projected -= mean[:, None]
    np.square(projected, out=projected)
    estimate = np.add.reduce(projected, axis=-1) / (size - 1)
    return VarianceEstimate(mean, estimate, _std_error(estimate, size))


def estimate_variances(
    state: GaussianState, vectors: np.ndarray, n: int, seed: int
) -> VarianceEstimate:
    """:func:`estimate_variance` of ``n`` draws, streamed; ``vectors`` a (k, 2n) stack.

    The draws are those of :func:`sample_quadratures` with the same seed, but
    only one block of about ``BLOCK_VALUES`` normals (at least 1024 draws) is
    held at a time, and the outcomes z·Lᵀ are never formed: the checks are
    pulled back through the factor once, P = V·L, and each block of normals
    is projected onto P, once per distinct row of ``vectors``.
    Each block's means and two-pass sums of squared deviations are merged by
    the pairwise update of Chan, Golub & LeVeque (Stanford STAN-CS-79-773,
    1979) along a binary tree: block i joins the stack, then merges with as
    many equal-sized subtrees below it as i has trailing zero bits, so no
    sum runs through more than about log2(blocks) updates.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape[1:] != state.cov.shape[1:]:
        raise ValueError(f"expected a (k, 2n) stack of checks, got shape {vectors.shape}")
    # Each distinct check is projected once: rows are keyed by their exact
    # bytes, numbered in first-seen order, so -0.0 and 0.0 stay apart.
    distinct = {}
    index = np.array([distinct.setdefault(row.tobytes(), len(distinct)) for row in vectors], int)
    factor = _factor(state)
    pulled = vectors[np.unique(index, return_index=True)[1]] @ factor
    dim = factor.shape[0]
    # Past 64 columns a block keeps BLOCK_VALUES // 64 draws and grows with dim:
    # each block's product repacks the k x dim pulled checks, and with 128 to
    # 256 draws a block (dim 512 to 256) that made an estimate 11-20% slower
    # (2-vCPU x86-64, OpenBLAS).
    blocks = _blocks(dim, n, seed, rows=max(2, BLOCK_VALUES // min(dim, 64)))
    stack = []
    for i, normals in enumerate(blocks, start=1):
        part = estimate_variance(SampleBatch(normals), pulled)
        size = normals.shape[0]
        stack.append((size, part.mean, part.estimate * (size - 1)))
        for _ in range((i & -i).bit_length() - 1):
            right = stack.pop()
            stack.append(_merge(stack.pop(), right))
    count, mean, m2 = stack.pop()
    while stack:
        count, mean, m2 = _merge(stack.pop(), (count, mean, m2))
    estimate = m2 / (count - 1)
    return VarianceEstimate(mean[index], estimate[index], _std_error(estimate, count)[index])


def _merge(left, right):
    """(count, mean, m2) of two runs of draws as one, ``left`` drawn first."""
    (n_left, mean_left, m2_left), (n_right, mean_right, m2_right) = left, right
    total = n_left + n_right
    delta = mean_right - mean_left
    mean = mean_left + delta * (n_right / total)
    return total, mean, m2_left + m2_right + delta**2 * (n_left * n_right / total)
