"""Machine-speed probe, for timing on a shared machine.

On a 2-core x86-64 machine shared with other work, the CPU's speed drifted
by up to 2x over tens of seconds, and by 20-30 % between samples a fraction
of a second apart, while the benchmark ran alone: the same bias_scan pass
read 0.98-1.35 s across five runs a few minutes apart.  So the benchmark times a fixed kernel
before and after every job and every setup and reports times scaled to a
machine on which the kernel takes ``REFERENCE_S``:
``scaled = raw * REFERENCE_S / mean(kernel before, kernel after)``.
The kernel is the benchmark's own code, so no change to the package moves
it, and scaled times of two commits measured at different moments compare.
Raw times and kernel samples are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Typical kernel time on that machine; scaled times are in its seconds.
REFERENCE_S = 0.010
_REPEATS = 3
_TEXT_ITEMS = 8000


def _operators(dim: int, rng) -> tuple:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = a + a.conj().T
    a /= np.linalg.norm(a, 2)
    b = np.diag(rng.standard_normal(dim)).astype(complex)
    psi = rng.standard_normal(dim) + 0j
    return a, b, psi / np.linalg.norm(psi)


class SpeedProbe:
    """Times a fixed kernel with the two kinds of work the package does: a
    midpoint-Chebyshev loop like the seed stepper (rebuild a dense H = A + f B
    each step, then a few matrix-vector terms, at dims 64 and 192), and plain
    interpreter work like the oracles and the writers."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2303)
        self._cases = [(_operators(64, rng), 50), (_operators(192, rng), 16)]

    def sample(self) -> float:
        """Median seconds of a few runs of the kernel."""
        times = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            for (a, b, psi), steps in self._cases:
                for k in range(steps):
                    h = a + (1e-3 * k) * b
                    prev, cur = psi, 0.5 * (h @ psi)
                    acc = 0.7 * prev + 0.2 * cur
                    for _ in range(8):
                        prev, cur = cur, h @ cur - prev
                        acc = acc + 0.01 * cur
                    psi = acc / np.linalg.norm(acc)
            text = []
            for j in range(_TEXT_ITEMS):
                text.append(f"{j * 0.5:.9g}")
            ",".join(text)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def scaled(job_s: list[float], kernel_s: list[float]) -> float:
    """Total of ``job_s`` in seconds of the reference machine; job i is scaled
    by the mean of the kernel samples taken just before and just after it."""
    return sum(
        t * REFERENCE_S / (0.5 * (before + after))
        for t, before, after in zip(job_s, kernel_s, kernel_s[1:])
    )
