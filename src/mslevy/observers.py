"""Observers: the one protocol behind every side channel of a kernel run.

All four methods are optional and must not mutate the state arrays.
`start(states)` sees the t = 0 states; `observe(step, t, states)` runs
after every micro step, so estimators keep summaries, not trajectories.
Two read-only hooks run on the jump-augmented grid:
`on_advance(rows, end, states)` after every advance of `rows` (None: all
rows) to their end times `end` (one float when they all end a full
step), and `on_jump(rows, channel, marks, times, pre, states)` after a
jump channel has applied all of its targets, with `pre` the rows'
pre-jump states. The observers here are `watchers=` of the batch entry
points; `checkpoints=`, the coupled pair's `sup` and `record=` are
private observers that `integrate._drive` adds.
"""

from __future__ import annotations

import numpy as np

from .integrate import _norm

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
    trapezoid integral of fn over time (for honest CIs).

    With `blocks=k` the batch is k equal row blocks (e.g. k stream
    blocks of one fused run), and the mean, spread and standard error are
    kept per block: `curve(j)` and `point_se(j)` read block j, with the
    values a separate run of that block alone would give. `integral`
    stays per path.
    """

    def __init__(self, fn, blocks: int = 1):
        self.fn = fn
        self.blocks = int(blocks)
        self.times: list[float] = []
        self.means: list[np.ndarray] = []       # (blocks, n) per point
        self.spreads: list[np.ndarray] = []     # (blocks,) per point
        self._prev = None
        self.integral = None

    def _stats(self, val):
        per = val.reshape(self.blocks, -1, val.shape[1])
        std = per.std(axis=1)
        # vecdot is the dot product np.linalg.norm takes of one block's
        # std vector; norm(axis=1) sums the squares in another order
        return per.mean(axis=1), np.sqrt(np.vecdot(std, std))

    def start(self, states):
        first = np.asarray(self.fn(states))
        mean, spread = self._stats(first)
        self.times = [0.0]
        self.means = [mean]
        self.spreads = [spread]
        self._prev = first
        self.integral = np.zeros_like(first)

    def observe(self, step, t, states):
        val = np.asarray(self.fn(states))
        dt = t - self.times[-1]
        self.integral += 0.5 * dt * (self._prev + val)
        self._prev = val
        mean, spread = self._stats(val)
        self.times.append(float(t))
        self.means.append(mean)
        self.spreads.append(spread)

    def curve(self, block: int = 0):
        return np.asarray(self.times), np.asarray(self.means)[:, block]

    def point_se(self, block: int = 0) -> np.ndarray:
        """Cross-path standard error of each mean-curve point of a block."""
        n = self._prev.shape[0] // self.blocks
        return np.asarray(self.spreads)[:, block] / np.sqrt(n)


class MarginalMomentMax:
    """Running max over the grid of the cross-path mean of |state|^p,
    remembering the standard error at the maximizing time."""

    def __init__(self, name: str, p: float):
        self.name = name
        self.p = float(p)
        self.value = -np.inf
        self.se = 0.0

    def _stat(self, states):
        v = _norm(states[self.name]) ** self.p
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
        self.value = _norm(states[self.name]).copy()

    def observe(self, step, t, states):
        np.maximum(self.value, _norm(states[self.name]), out=self.value)


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
