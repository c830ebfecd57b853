"""A fixed reference kernel, sampled while a workload runs, to factor out host speed.

The benchmark runs on a few cores of a shared host, where the speed of the
same code drifts by up to 2x over tens of seconds as other tenants load the
machine.  Wall time alone then measures the host as much as the program.

A :class:`Sampler` runs a small, fixed numpy kernel (the benchmark's own
code, never the library's) from a SIGALRM handler every ``INTERVAL`` seconds
while a workload runs.  Each sample does the same work, so its duration
tracks how fast the host runs that kind of code at that moment.  A timed
span of the workload is then reported as

    net seconds / median sample seconds within the span

where the net seconds leave out the samples themselves: the span's cost in
units of the reference kernel ("ref").  Each workload has its own kernel of
the same character as its hot loop (mini-batch gathers on a small Gram,
full-batch products on a mid-size Gram, or products on a Gram larger than
L2 plus per-row kernel evaluations), because host load slows these by
different amounts.  The library's cost does not enter the reference, so a
change to the library moves the ratio exactly as it moves the wall time on
a steady host.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1  # seconds between samples; each sample takes a few ms
WARM_STEPS = 3


def _gram(x, width):
    # Gaussian Gram of well-spread points: no subnormal entries
    return np.exp(-0.5 * ((x[:, None] - x[None, :]) / width) ** 2)


def _derivative(r):
    # a smooth robust loss's derivative: a few elementwise passes with an exp
    a = np.abs(r)
    return np.sign(r) * np.where(a > 0.05, 1.0 - np.exp(-3.0 * (a - 0.05)), 0.0)


class AdamKernel:
    """``steps`` Adam steps on a fixed Gram of ``n`` points, batch ``batch``,
    then ``rows`` single-row kernel evaluations against the same points.

    Every call does identical work from identical inputs.
    """

    def __init__(self, n: int, batch: int, steps: int, rows: int = 0):
        rng = np.random.default_rng(20240130)
        self.x = np.sort(rng.uniform(-3.0, 3.0, n))
        self.K = _gram(self.x, 0.5)
        self.y = np.sin(self.x) + 0.1 * rng.standard_normal(n)
        self.queries = rng.uniform(-3.0, 3.0, max(rows, 1))
        self.n, self.batch, self.steps, self.rows = n, batch, steps, rows

    def __call__(self, steps: int | None = None) -> float:
        n, K, y = self.n, self.K, self.y
        rng = np.random.default_rng(0)
        alpha, m, v = np.zeros(n), np.zeros(n), np.zeros(n)
        for t in range(1, (self.steps if steps is None else steps) + 1):
            Ka = K @ alpha
            if self.batch < n:
                # a partial Fisher-Yates draw, one Python-level swap per row
                idx = np.arange(n)
                us = rng.random(self.batch)
                for i in range(self.batch):
                    j = i + int(us[i] * (n - i))
                    idx[i], idx[j] = idx[j], idx[i]
                b = np.sort(idx[: self.batch])
                xi = y[b] - Ka[b]
                grad = Ka - 10.0 * (K[b].T @ _derivative(xi))
            else:
                grad = Ka - 10.0 * (K @ _derivative(y - Ka))
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            alpha = alpha - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        total = 0.0
        for q in self.queries[: self.rows]:
            total += float(np.exp(-0.5 * ((q - self.x) / 0.5) ** 2) @ alpha)
        return total


class Sampler:
    """Runs ``kernel`` every ``INTERVAL`` seconds of wall time while active.

    Use as a context manager around the timed iterations.  Each sample is
    recorded as its start and end on ``time.perf_counter`` and the seconds
    of its timed part.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[tuple[float, float, float]] = []  # start, end, timed seconds
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:  # a signal that arrived during a sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            # the workload has just evicted the kernel's data and code from
            # the caches; a few untimed steps bring them back, so the timed
            # part measures the host's speed, not the refill
            self.kernel(steps=WARM_STEPS)
            t1 = time.perf_counter()
            self.kernel()
            t2 = time.perf_counter()
            self.samples.append((t0, t2, t2 - t1))
        finally:
            self._busy = False

    def __enter__(self):
        self.kernel()  # warm: first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No samples inside the block."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def within(self, start: float, end: float) -> list[tuple[float, float, float]]:
        """The samples taken between ``start`` and ``end``."""
        return [x for x in self.samples if start <= x[0] and x[1] <= end]

    def cost(self, start: float, end: float, unit: float) -> float:
        """Net seconds of a span, less the samples inside it, in units of ``unit`` seconds."""
        return ((end - start) - sum(b - a for a, b, _ in self.within(start, end))) / unit

    def unit(self, start: float, end: float) -> float:
        """Median timed seconds of the samples between ``start`` and ``end``.

        A span too short to hold a sample gets one run right after it.
        """
        inside = self.within(start, end)
        if not inside:
            self._sample(None, None)
            inside = self.samples[-1:]
        return statistics.median(x[2] for x in inside)
