"""Observers: the one protocol behind every side channel of a kernel run.

All four methods are optional and must not mutate the state arrays.
`start(states)` sees the t = 0 states; `observe(step, t, states)` runs
after every micro step, so estimators keep summaries, not trajectories.
Two read-only hooks run on the jump-augmented grid:
`on_advance(rows, end, states)` after every advance of `rows` (None: all
rows; a slice of the first rows in a multi-rate run) to their end times
`end` (one float when they all end a full step of one grid), and `on_jump(rows, channel, marks, times, pre, states)` after a
jump channel has applied all of its targets, with `pre` the rows'
pre-jump states. The observers here are `watchers=` of the batch entry
points; `checkpoints=`, the coupled pair's `sup` and `record=` are
private observers that `integrate._drive` adds.
"""

from __future__ import annotations

import numpy as np

from .integrate import _norm

__all__ = ["ThinCollector", "MeanCurve", "PathwiseSup"]


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

    With `prelude`, the arrays that prelude(states) maps names to at
    t = 0 join the states fn reads (a frozen run's slow-only parts). A
    block's mean and spread are its rows' mean and the norm of their
    np.std, bit for bit, with the mean taken once (`_stats`).
    """

    def __init__(self, fn, blocks: int = 1, prelude=None):
        self.fn = fn
        self.blocks = int(blocks)
        self.prelude = prelude
        self.times: list[float] = []
        self.means: list[np.ndarray] = []       # (blocks, n) per point
        self.spreads: list[np.ndarray] = []     # (blocks,) per point
        self._prev = None
        self.integral = None

    def _stats(self, val):
        per = val.reshape(self.blocks, -1, val.shape[1])
        # the operations of np.mean and np.std, with one sum for the mean
        mean = per.sum(axis=1) / per.shape[1]
        dev = per - mean[:, None]
        dev *= dev
        std = np.sqrt(dev.sum(axis=1) / per.shape[1])
        # vecdot is the dot product np.linalg.norm takes of one block's
        # std vector; norm(axis=1) sums the squares in another order
        return mean, np.sqrt(np.vecdot(std, std))

    def start(self, states):
        fn, made = self.fn, self.prelude(states) if self.prelude else None
        # a closure over fn, not self: no cycle keeps the curve alive
        self._fn = fn if made is None else (lambda st: fn({**st, **made}))
        first = np.asarray(self._fn(states))
        mean, spread = self._stats(first)
        self.times = [0.0]
        self.means = [mean]
        self.spreads = [spread]
        self._prev = first
        self.integral = np.zeros_like(first)

    def observe(self, step, t, states):
        val = np.asarray(self._fn(states))
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


class PathwiseSup:
    """Running per-path sup of |state| over the grid."""

    def __init__(self, name: str):
        self.name = name
        self.value = None

    def start(self, states):
        self.value = _norm(states[self.name]).copy()

    def observe(self, step, t, states):
        np.maximum(self.value, _norm(states[self.name]), out=self.value)
