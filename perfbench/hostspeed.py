"""Correction of wall times for the speed of a shared host.

On a shared 2-core host the same code runs up to about 1.6 times slower for
tens of seconds to minutes at a time. CPU time tracks wall time there, so
the slowdown comes from the host, not from the scheduler, and no run length
the benchmark can afford averages it out.

A fixed reference kernel, independent of qfisher and of the same kind as
the program's work (a Python loop of 2x2 complex products and one
vectorized einsum), is timed before every task and once after the last.
A task's corrected time is its wall time scaled by ``REFERENCE_S`` over the
median of the reference samples around it, i.e. the time the task takes on
a host where the reference kernel takes ``REFERENCE_S``. A change to the
program moves its tasks' times and leaves the reference kernel alone.
"""

from __future__ import annotations

import time

import numpy as np

# About the reference kernel's median time on an Intel Xeon (Sapphire Rapids)
# KVM guest with numpy 2.4.6; only a scale, so corrected times stay in s.
REFERENCE_S = 0.005
# Reference samples on each side of a task that enter its local median.
HALF_WINDOW = 2


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        steps = rng.normal(size=(1000, 2, 2)) + 1j * rng.normal(size=(1000, 2, 2))
        self._steps = steps / np.linalg.norm(steps, axis=(1, 2))[:, None, None]
        self._stack = rng.normal(size=(10_000, 2, 2)) + 0j
        self.sample()

    def sample(self) -> float:
        """Wall time of one run of the reference kernel."""
        t0 = time.perf_counter()
        acc = np.eye(2, dtype=complex)
        for step in self._steps:
            acc = step @ acc
        np.einsum("nji,njk->nik", self._stack.conj(), self._stack)
        return time.perf_counter() - t0


def corrected(times: list[float], refs: list[float]) -> list[float]:
    """Scale ``times[i]`` by REFERENCE_S over the median of the reference
    samples ``refs[i - HALF_WINDOW + 1 : i + HALF_WINDOW + 1]``; ``refs[i]``
    is taken just before task i and ``refs[i + 1]`` just after it."""
    if len(refs) != len(times) + 1:
        raise ValueError("need one reference sample before each task and one after the last")
    out = []
    for i, raw in enumerate(times):
        local = refs[max(0, i - HALF_WINDOW + 1): i + HALF_WINDOW + 1]
        out.append(raw * REFERENCE_S / float(np.median(local)))
    return out
