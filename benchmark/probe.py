"""Machine-speed probe that puts job times on a steady scale.

On the shared machine the benchmark was built on, the speed of a vCPU
swings by up to 2.4x within seconds: the same 40 ms simulation took
32 ms in one second and 76 ms a minute later.  Process CPU time follows
wall time, and the VM exposes no cycle or instruction counters, so no
clock removes the swing.  A fixed kernel slows with the machine almost
in step, though: the simulation's time over the kernel's stayed within
about 8% (interquartile range over 1 s windows) while both swung.

``SpeedProbe`` runs that kernel from a ``SIGALRM`` interval timer,
between any two bytecodes of whatever the process is doing, and records
when each run started and ended.  ``scaled(a, b)`` turns the wall
interval ``[a, b]`` into reference seconds: the interval less the probe
runs inside it, times the mean of ``REFERENCE_S / probe time`` over
the runs inside it or within NEAR_S of it (the mean speed around the
interval).  A kernel run takes REFERENCE_S, about 2.5 ms, at the
reference speed, so one second of work at that speed reads as one
reference second.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 2.5e-3
NEAR_S = 0.25  # probe runs this close to an interval also gauge its speed


class SpeedProbe:
    def __init__(self):
        self.runs: list[tuple[float, float]] = []  # (start, end) per kernel run
        self.probe_s = 0.0  # total time of the kernel runs
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((4, 3, 3))
        self._x = rng.standard_normal((4, 3))
        self._shift = 4.0 * np.eye(3)
        self._previous = None

    def kernel(self) -> float:
        """Fixed mix of small numpy calls and interpreter work."""
        a, x = self._a, self._x
        acc = 0.0
        for k in range(100):
            y = np.matmul(a, x[:, :, None])[:, :, 0]
            z = np.concatenate([y.ravel(), x.ravel()])
            s = np.linalg.solve(a[0] + self._shift, y[0])
            acc += float(np.einsum("ni,ni->n", x, y).sum()) + float(s @ s)
            acc += len({"k": k, "v": z})
        return acc

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.runs.append((start, end))
        self.probe_s += end - start

    def clock(self) -> float:
        """A clock that stands still while the kernel runs."""
        return time.perf_counter() - self.probe_s

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, a: float, b: float) -> float:
        """Mean speed, relative to the reference, around [a, b]."""
        near = [(s, e) for s, e in self.runs if a - NEAR_S <= s and e <= b + NEAR_S]
        return statistics.fmean(REFERENCE_S / (e - s) for s, e in near)

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of the work done in the wall interval [a, b]."""
        inside = sum(e - s for s, e in self.runs if a <= s and e <= b)
        return (b - a - inside) * self.speed(a, b)
