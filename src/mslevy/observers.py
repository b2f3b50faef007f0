"""Per-step observers attached to kernel runs.

Observers receive (step_index, t, states) after every micro step and
accumulate summaries, so estimators never need whole trajectories in
memory. An observer may define start(states) to capture the t = 0 state
before stepping begins. Observers must not mutate the state arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ThinCollector",
    "MeanCurve",
    "MarginalMomentMax",
    "PathwiseSup",
    "PairDistanceCurve",
]


class ThinCollector:
    """Collect every `thin`-th post-burn-in state of one component."""

    def __init__(self, name: str, burn_steps: int, thin: int):
        self.name = name
        self.burn_steps = int(burn_steps)
        self.thin = max(1, int(thin))
        self.blocks: list[np.ndarray] = []

    def observe(self, step, t, states):
        k = step - self.burn_steps
        if k >= 0 and k % self.thin == 0:
            self.blocks.append(states[self.name].copy())

    def stacked(self, cols=slice(None)) -> np.ndarray:
        """(n_kept, n_chains, dim) array of retained samples, restricted
        to the chains `cols` selects."""
        return np.stack([b[cols] for b in self.blocks], axis=0)


class MeanCurve:
    """Cross-path mean of fn(states) on the micro grid, plus the per-path
    trapezoid integral of fn over time (for honest CIs)."""

    def __init__(self, fn):
        self.fn = fn
        self.times: list[float] = []
        self.means: list[np.ndarray] = []
        self.spreads: list[float] = []
        self._prev = None
        self.integral = None

    def start(self, states):
        first = np.asarray(self.fn(states))
        self.times = [0.0]
        self.means = [first.mean(axis=0)]
        self.spreads = [float(np.linalg.norm(first.std(axis=0)))]
        self._prev = first
        self.integral = np.zeros_like(first)

    def observe(self, step, t, states):
        val = np.asarray(self.fn(states))
        dt = t - self.times[-1]
        self.integral += 0.5 * dt * (self._prev + val)
        self._prev = val
        self.times.append(float(t))
        self.means.append(val.mean(axis=0))
        self.spreads.append(float(np.linalg.norm(val.std(axis=0))))

    def curve(self):
        return np.asarray(self.times), np.asarray(self.means)

    def point_se(self) -> np.ndarray:
        """Cross-path standard error of each mean-curve point."""
        n = self._prev.shape[0]
        return np.asarray(self.spreads) / np.sqrt(n)


def _batch_norm(a: np.ndarray) -> np.ndarray:
    return np.abs(a[:, 0]) if a.shape[1] == 1 else np.sqrt((a * a).sum(axis=1))


class MarginalMomentMax:
    """Running max over the grid of the cross-path mean of |state|^p,
    remembering the standard error at the maximizing time."""

    def __init__(self, name: str, p: float):
        self.name = name
        self.p = float(p)
        self.value = -np.inf
        self.se = 0.0

    def _stat(self, states):
        v = _batch_norm(states[self.name]) ** self.p
        return float(v.mean()), float(v.std() / np.sqrt(v.size))

    def start(self, states):
        self.value, self.se = self._stat(states)

    def observe(self, step, t, states):
        m, s = self._stat(states)
        if m > self.value:
            self.value, self.se = m, s


class PathwiseSup:
    """Running per-path sup of |state| over the grid."""

    def __init__(self, name: str):
        self.name = name
        self.value = None

    def start(self, states):
        self.value = _batch_norm(states[self.name]).copy()

    def observe(self, step, t, states):
        cur = _batch_norm(states[self.name])
        if self.value is None:
            self.value = cur.copy()
        else:
            np.maximum(self.value, cur, out=self.value)


class PairDistanceCurve:
    """Mean squared distance between two components at selected steps,
    with the cross-pair standard error of each point."""

    def __init__(self, name_a: str, name_b: str, record_steps):
        self.name_a = name_a
        self.name_b = name_b
        self.record_steps = set(int(s) for s in record_steps)
        self.times: list[float] = []
        self.msd: list[float] = []
        self.se: list[float] = []

    def _dist(self, states):
        d = states[self.name_a] - states[self.name_b]
        sq = (d * d).sum(axis=1)
        return float(sq.mean()), float(sq.std() / np.sqrt(sq.size))

    def start(self, states):
        m, s = self._dist(states)
        self.times = [0.0]
        self.msd = [m]
        self.se = [s]

    def observe(self, step, t, states):
        if step in self.record_steps:
            m, s = self._dist(states)
            self.times.append(float(t))
            self.msd.append(m)
            self.se.append(s)

    def curve(self):
        return np.asarray(self.times), np.asarray(self.msd)
