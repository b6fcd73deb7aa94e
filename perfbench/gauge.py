"""Machine-speed gauge: fixed kernels timed next to every measured operation.

The benchmark runs on a few cores of a host shared with other tenants, and
their load changes this process's speed by up to 2x over minutes.  No
estimator inside one run can remove that, because a whole run may fall in a
slow period.  So the benchmark times a kernel that never changes, right
before and after every operation, and reports times scaled to the speed at
which the kernel takes its reference time:

    reported = measured * reference / kernel time around the measurement

A change to cvcluster moves ``measured`` but not the kernel, so it shows in
full; a slow period stretches both and cancels.  Load slows interpreter
work, BLAS calls and memory streaming by different factors, so each workload
gauges with the parts that match its own work (``workloads.GAUGE_PARTS``).
"""

from __future__ import annotations

import time

import numpy as np

# Each part's seconds at the reference speed: its typical time on the 2-vCPU
# Xeon (Sapphire Rapids) VM that the baseline in baseline.json was taken on.
REFERENCE_S = {"python": 0.02, "small": 0.02, "blas": 0.015, "stream": 0.02}
STREAM_SHAPE = (300_000, 16)  # 38 MB: above glibc's largest mmap threshold, so freed at once


class Gauge:
    def __init__(self, parts: tuple[str, ...]) -> None:
        unknown = set(parts) - set(REFERENCE_S)
        if not parts or unknown:
            raise ValueError(f"gauge parts must be a non-empty subset of {sorted(REFERENCE_S)}")
        self.parts = parts
        self.reference = sum(REFERENCE_S[p] for p in parts)
        rng = np.random.default_rng(0)
        self.a16 = rng.standard_normal((16, 16))
        self.s16 = self.a16 @ self.a16.T + 16 * np.eye(16)
        self.a256 = rng.standard_normal((256, 256))
        self.s256 = self.a256 @ self.a256.T + 256 * np.eye(256)
        self.measure()  # first call pays lazy set-up in numpy and BLAS

    def python(self) -> None:
        table: dict[int, float] = {}
        total = 0.0
        for i in range(80_000):
            k = i % 101
            table[k] = table.get(k, 0.0) + i * 0.5
            total += table[k] ** 0.5

    def small(self) -> None:
        for _ in range(500):
            np.linalg.eigvalsh(self.s16)
            np.linalg.solve(self.s16, self.a16[0])
            (self.a16 @ self.s16).trace()

    def blas(self) -> None:
        for _ in range(3):
            np.linalg.cholesky(self.s256)
            np.linalg.inv(self.s256)
            self.a256 @ self.a256

    def stream(self) -> None:
        # Fill, project and reduce a tall array, as `sample` does with its
        # draws; the array is freed at once, so it adds no resident memory
        # while an operation runs.
        draws = np.full(STREAM_SHAPE, 0.5)
        (draws @ self.a16[0]).var()

    def measure(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = time.perf_counter()
        for part in self.parts:
            getattr(self, part)()
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor from measured to reference seconds for a span between two gauge readings."""
        return self.reference / ((before + after) / 2)
