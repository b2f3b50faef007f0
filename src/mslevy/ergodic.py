"""Invariant-measure estimation and averaged-coefficient construction.

The frozen fast equation is exponentially ergodic, so its invariant law
at a fixed slow state x is estimated by pooled time averages over a few
long chains. Averaged coefficients are invariant-measure integrals:

    drift_bar(x)  = E_mu[ b(x, Y) ]
    diff2_bar(x)  = E_mu[ sigma(x, Y) sigma(x, Y)^T ]   (PSD square root
                    taken by eigendecomposition, negative values clipped)

and the corrector of the centered drift is the truncated time integral

    cell(x, y) = integral_0^t_cut ( E b(x, Y_t^{x,y}) - drift_bar(x) ) dt

with an exponential tail bound fitted from the observed decay.

Confidence intervals for time averages use batch means rather than naive
independence, since pooled samples are autocorrelated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .errors import BlowUpError, ConfigurationError, DecayFitError, TableValidationError
from .estimate import _line_fit
from .integrate import _n_steps, run_frozen_batch, run_frozen_pair_batch
from .model import ModelSpec, _frozen
from .observers import MeanCurve, ThinCollector
from .rng import RngStream

__all__ = [
    "InvariantSample",
    "InvariantConfig",
    "AveragedTable",
    "AveragedDiffusion",
    "ExactAveraged",
    "PoissonCell",
    "DecayCurve",
    "estimate_invariant_measure",
    "averaged_drift",
    "averaged_diffusion",
    "build_averaged_table",
    "save_averaged_table",
    "load_averaged_table",
    "poisson_cell",
    "poisson_cells",
    "semigroup_identity_check",
    "ergodicity_decay",
]

# a table axis is uniform when every node lies within this fraction of a
# spacing of its place on the evenly spaced grid between its end nodes
_UNIFORM_TOL = 1e-3
# Limits of one fused table run: at most _GROUP_PATHS frozen chains, and
# at most _GROUP_FLOATS retained sample floats (32 MiB), or one node if a
# node alone holds more. A frozen step's cost per path falls from about
# 211 ns at 1,024 paths to 76 ns at 8,192 and 57 ns at 16,384.
_GROUP_PATHS = 8192
_GROUP_FLOATS = 2**22
# batch-mean CIs of invariant samples use at least this many batches
_N_BATCHES = 32


# ---------------------------------------------------------------------------
# PSD square root
# ---------------------------------------------------------------------------


# eigenvalues of a squared diffusion down to this floor are round-off
_PSD_FLOOR = -1e-10


def _psd_root_batch(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """PSD square roots of squared diffusions v (k, n, n) queried at x (k, n),
    and the magnitude of the most negative eigenvalue clipped to zero.

    Matrices are symmetrized and eigen-decomposed (a scalar is its own
    eigenvalue); one below _PSD_FLOOR is corrupted input and raises.
    """
    scalar = v.shape[1:] == (1, 1)
    w, vecs = ((v[:, 0], None) if scalar
               else np.linalg.eigh(0.5 * (v + np.transpose(v, (0, 2, 1)))))
    low = float(w.min())
    if low < _PSD_FLOOR:
        k = int(np.argmin(w.min(axis=1)))
        raise ConfigurationError(f"squared diffusion not PSD at x={x[k]!r}")
    clip = max(0.0, -low)
    if clip:
        w = np.maximum(w, 0.0)
    if scalar:
        return np.sqrt(w)[:, :, None], clip
    return np.einsum("kij,kj,klj->kil", vecs, np.sqrt(w), vecs), clip


# ---------------------------------------------------------------------------
# Invariant measure
# ---------------------------------------------------------------------------


@dataclass
class InvariantSample:
    """Pooled, thinned time samples approximating the frozen invariant law.

    Samples carry equal weight. `batch_index` partitions samples into
    contiguous time blocks (per chain) for batch-mean confidence
    intervals. `ess` is the effective sample size of |y|^2 via integrated
    autocorrelation.
    """

    x: np.ndarray
    samples: np.ndarray
    batch_index: np.ndarray
    n_batches: int
    ess: float
    flags: tuple = ()

    def mean_ci(self, values: np.ndarray):
        """Mean and 95% batch-mean CI half-width of an integrand.

        `values` has one row per stored sample; trailing shape is kept.
        """
        values = np.asarray(values, dtype=float)
        flat = values.reshape(len(values), -1)
        mean = flat.mean(axis=0)
        # batch_index is nondecreasing (chain-major, time blocks in order)
        counts = np.bincount(self.batch_index, minlength=self.n_batches)
        bounds = np.searchsorted(self.batch_index, np.arange(self.n_batches))
        bm = np.add.reduceat(flat, bounds, axis=0) / counts[:, None]
        tcrit = special.stdtrit(self.n_batches - 1, 0.975)
        ci = tcrit * bm.std(axis=0, ddof=1) / np.sqrt(self.n_batches)
        ci = np.maximum(ci, 4 * np.finfo(float).eps * (1.0 + np.abs(mean)))
        shape = values.shape[1:]
        return mean.reshape(shape), ci.reshape(shape)


@dataclass(frozen=True)
class InvariantConfig:
    """Budget for invariant-measure estimation at one slow state.

    burn_in and horizon default to the pilot heuristic 5/gamma and
    100/gamma from a synchronously coupled decay fit.
    """

    n_chains: int = 8
    burn_in: float | None = None
    horizon: float | None = None
    delta: float = 2.0**-8
    thin: int = 8
    y0: float = 0.0


def _integrated_autocorr(series: np.ndarray) -> float:
    """Integrated autocorrelation time (in sample units) of one series,
    by the initial-positive-sequence rule on the empirical acf."""
    x = series - series.mean()
    n = len(x)
    if n < 8 or np.allclose(x, 0):
        return 1.0
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conjugate(f))[:n]
    if acov[0] <= 0:
        return 1.0
    rho = acov / acov[0]
    tau = 1.0
    for k in range(1, min(n // 2, 2000), 2):
        pair = rho[k] + (rho[k + 1] if k + 1 < n else 0.0)
        if pair <= 0:
            break
        tau += 2.0 * pair
    return float(max(tau, 1.0))


def estimate_invariant_measure(model: ModelSpec, x, *, burn_in: float,
                               horizon: float, n_chains: int = 8,
                               delta: float = 2.0**-8, thin: int = 8,
                               y0=0.0, stream: RngStream) -> InvariantSample:
    """Pooled time averages over independent frozen chains at slow state x.

    Chains run burn_in + horizon, the burn-in is discarded, and every
    `thin`-th micro-grid state is retained with equal weight. The
    effective sample size comes from the autocorrelation of |y|^2; below
    100 the sample is flagged.
    """
    cfg = InvariantConfig(n_chains=n_chains, burn_in=burn_in, horizon=horizon,
                          delta=delta, thin=thin, y0=y0)
    return next(_invariant_samples(model, [x], cfg, [stream],
                                   where="invariant measure"))


def _invariant_samples(model, xs, cfg: InvariantConfig, streams, *, where):
    """Invariant samples at the slow states xs, node i on streams[i], in
    order; cfg's burn_in and horizon must be set.

    Each node is one stream block of n_chains chains, so a group of nodes
    runs as one wide frozen kernel with the draws, and so the numbers, of
    one kernel per node. A group holds at most _GROUP_PATHS chains and
    _GROUP_FLOATS retained sample floats (one node when a node alone
    holds more), and its samples are dropped before the next group runs.
    A blow-up names its node as `where` (formatted with i=node) and x.
    """
    chains, burn_in, horizon = cfg.n_chains, cfg.burn_in, cfg.horizon
    if burn_in < 0 or horizon <= 0 or cfg.delta <= 0:
        raise ConfigurationError("burn_in must be >= 0, and horizon and delta > 0")
    burn_steps, thin = int(round(burn_in / cfg.delta)), max(1, cfg.thin)
    # the states ThinCollector keeps: steps burn_steps, +thin, ... of the run
    kept = max(0, -((burn_steps - _n_steps(burn_in + horizon, cfg.delta)) // thin))
    per_chain = -(-_N_BATCHES // chains)
    if kept < per_chain:
        raise ConfigurationError(
            f"horizon {horizon!r} at delta {cfg.delta!r} and thin {cfg.thin} "
            f"keeps {kept} states per chain, but {chains} chains need "
            f"{per_chain} each for {_N_BATCHES} batch means")
    starts = np.stack([np.broadcast_to(np.asarray(x, dtype=float), (model.dim_slow,))
                       for x in xs])
    per_group = max(1, min(_GROUP_PATHS // chains,
                           _GROUP_FLOATS // (chains * kept * model.dim_fast)))
    for first in range(0, len(starts), per_group):
        members = range(first, min(len(starts), first + per_group))
        collector = ThinCollector("y", burn_steps, thin)
        try:
            run_frozen_batch(
                model, np.repeat(starts[first:members.stop], chains, axis=0),
                cfg.y0, horizon=burn_in + horizon, delta=cfg.delta,
                n_chains=len(members) * chains,
                stream=[(streams[i], chains) for i in members],
                watchers=(collector,))
        except BlowUpError as exc:
            i = first + exc.block
            raise _relabel(exc, where.format(i=i), "x", starts[i]) from exc
        for j, i in enumerate(members):
            yield _invariant_sample(
                xs[i], collector.stacked(slice(j * chains, (j + 1) * chains)),
                per_chain)


def _relabel(exc: BlowUpError, label: str, name: str, start) -> BlowUpError:
    """`exc` from a blocked frozen run, named `label (name=start)` after
    the start row of the block that blew up (a scalar when 1-d)."""
    v = start.tolist()
    v = v[0] if len(v) == 1 else v
    return BlowUpError(exc.time, exc.paths, where=f"{label} ({name}={v!r})")


def _invariant_sample(x, stacked: np.ndarray, per_chain: int) -> InvariantSample:
    """Pool the thinned post-burn-in states (kept, chains, m) of the
    chains at slow state x, with `per_chain` batches per chain for the
    batch indices, and the ESS of |y|^2."""
    kept, chains, m = stacked.shape
    series = np.transpose(stacked, (1, 0, 2))          # (chains, kept, m)
    samples = series.reshape(chains * kept, m)

    n_batches_eff = per_chain * chains
    block = (np.arange(kept) * per_chain) // kept      # (kept,)
    batch_index = (np.arange(chains)[:, None] * per_chain + block[None, :]).reshape(-1)

    sq = np.sum(series * series, axis=2)               # (chains, kept)
    taus = [_integrated_autocorr(sq[c]) for c in range(min(chains, 8))]
    ess = chains * kept / float(np.mean(taus))
    flags = ("low-ess",) if ess < 100 else ()

    return InvariantSample(
        x=np.atleast_1d(np.asarray(x, dtype=float)),
        samples=samples,
        batch_index=batch_index,
        n_batches=n_batches_eff,
        ess=float(ess),
        flags=flags,
    )


def _require_same_x(model, x, inv):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != inv.x.shape or not np.allclose(x, inv.x):
        raise ConfigurationError(
            f"invariant sample was estimated at x={inv.x}, not {x}"
        )
    return x


def averaged_drift(model: ModelSpec, x, inv: InvariantSample):
    """Invariant-measure average of the slow drift at x, with batch CI."""
    x = _require_same_x(model, x, inv)
    xs = np.broadcast_to(x, (len(inv.samples), model.dim_slow))
    vals = model.slow_drift(xs, inv.samples)
    return inv.mean_ci(vals)


@dataclass
class AveragedDiffusion:
    matrix: np.ndarray
    ci: np.ndarray
    clip: float


def averaged_diffusion(model: ModelSpec, x, inv: InvariantSample) -> AveragedDiffusion:
    """Invariant-measure average of sigma sigma^T at x, with the eigenvalue
    magnitude its PSD root would clip."""
    x = _require_same_x(model, x, inv)
    xs = np.broadcast_to(x, (len(inv.samples), model.dim_slow))
    sig = np.asarray(model.slow_diffusion(xs, inv.samples))
    outer = np.einsum("kid,kjd->kij", sig, sig)
    mean, ci = inv.mean_ci(outer)
    mean = 0.5 * (mean + mean.T)
    _, clip = _psd_root_batch(mean[None], x[None])
    return AveragedDiffusion(matrix=mean, ci=ci, clip=clip)


# ---------------------------------------------------------------------------
# Averaged-coefficient table
# ---------------------------------------------------------------------------


class ExactAveraged:
    """Averaged coefficients given as exact callables (no grid).

    Used when the averaged drift is known in closed form, e.g. for
    fast-independent coefficients where drift_bar == drift; pathwise
    degeneracy checks rely on the resulting bit-identical evaluation.
    """

    def __init__(self, drift_fn, diff2_fn=None):
        self._drift = drift_fn
        self._diff2 = diff2_fn
        self.outside = None     # exact coefficients never clamp

    @property
    def has_diffusion(self) -> bool:
        return self._diff2 is not None

    def drift(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._drift(x), dtype=float)

    def diff2(self, x: np.ndarray) -> np.ndarray:
        if self._diff2 is None:
            raise ConfigurationError("exact averaged coefficients lack diffusion data")
        return np.asarray(self._diff2(x), dtype=float)

    def diffusion_root(self, x: np.ndarray) -> np.ndarray:
        return _psd_root_batch(self.diff2(x), x)[0]


@dataclass
class AveragedTable:
    """Grid of averaged drift and squared diffusion with CIs.

    Piecewise-linear interpolation between the nodes of `grid`; a query
    outside the box gets the boundary value. After each lookup, `outside`
    is the mask of its clamped queries, or None when there were none; a
    kernel run counts its clamps from it. Stored diffusion nodes are
    symmetric PSD, so linear interpolation stays PSD. The grid must be
    uniform (as built, and as reloaded from 17 digits), so a lookup finds
    its segment by a floor index.
    """

    grid: np.ndarray
    drift_values: np.ndarray
    drift_ci: np.ndarray
    diff2_values: np.ndarray
    diff2_ci: np.ndarray
    meta: dict = field(default_factory=dict)
    max_clip: float = 0.0
    has_diffusion = True    # not a field: every table holds diff2_values

    def __post_init__(self):
        g = self.grid
        if np.ndim(g) != 1 or len(g) < 2 or not np.all(np.diff(g) > 0):
            raise ConfigurationError("a table axis needs at least 2 increasing nodes")
        n = len(g)
        self._scale = (n - 1) / (g[-1] - g[0])
        if np.max(np.abs((g - g[0]) * self._scale - np.arange(n))) > _UNIFORM_TOL:
            raise ConfigurationError("a table axis must be a uniform grid")
        if np.shape(self.drift_values) != (n, 1):
            raise ConfigurationError("a table holds one scalar drift value per node")
        # segment widths and value steps, as g[i + 1] - g[i] per lookup;
        # the drift's as flat columns
        self._gap = np.diff(g)
        self._drift_flat = np.ascontiguousarray(self.drift_values[:, 0])
        self._drift_step = np.diff(self._drift_flat)
        self._diff2_step = np.diff(self.diff2_values, axis=0)
        self.outside = None

    def _locate(self, x: np.ndarray):
        g = self.grid
        q = np.asarray(x, dtype=float)[:, 0]
        self.outside = None
        # fmin/fmax skip NaN queries, which are never outside
        if q.size and (np.fmin.reduce(q) < g[0] or np.fmax.reduce(q) > g[-1]):
            self.outside = (q < g[0]) | (q > g[-1])
            q = np.clip(q, g[0], g[-1])
        # the floor of the node position is at most one node off on a
        # uniform grid; the fix-ups give clip(searchsorted(g, q, "right")
        # - 1, 0, n - 2) exactly (fmax/fmin map a NaN query to node 0)
        top = len(g) - 2
        idx = np.fmin(np.fmax((q - g[0]) * self._scale, 0.0), top).astype(np.intp)
        idx -= q < g[idx]
        idx += q >= g[idx + 1]
        np.minimum(idx, top, out=idx)
        w = (q - g[idx]) / self._gap[idx]
        return idx, w

    def drift(self, x: np.ndarray) -> np.ndarray:
        idx, w = self._locate(x)
        return (self._drift_flat[idx] + w * self._drift_step[idx])[:, None]

    def diff2(self, x: np.ndarray) -> np.ndarray:
        idx, w = self._locate(x)
        return self.diff2_values[idx] + w[:, None, None] * self._diff2_step[idx]

    def diffusion_root(self, x: np.ndarray) -> np.ndarray:
        return _psd_root_batch(self.diff2(x), x)[0]


def _pilot_rates(model, x_center, delta, stream):
    """Pilot decay fit used to size burn-in and horizon."""
    times = np.linspace(0.1, 2.0, 16)
    dec = ergodicity_decay(model, x_center, 1.0, -1.0, times=times,
                           n_pairs=256, delta=delta, stream=stream)
    gamma = dec.gamma_hat if dec.gamma_hat and dec.gamma_hat > 0.1 else 1.0
    return 5.0 / gamma, 100.0 / gamma


def build_averaged_table(model: ModelSpec, box, nodes: int,
                         inv_cfg: InvariantConfig, stream: RngStream) -> AveragedTable:
    """Estimate averaged coefficients on a uniform grid and validate the
    interpolant by leave-node-out error on interior nodes.

    Raises TableValidationError (suggesting a finer grid) when the
    midpoint prediction error exceeds max(3 combined CI half-widths,
    1% relative).
    """
    if model.dim_slow != 1:
        raise ConfigurationError("averaged tables require a scalar slow state")
    lo, hi = float(box[0]), float(box[1])
    if not (hi > lo and nodes >= 2):
        raise ConfigurationError("box must be nonempty and nodes >= 2")
    grid = np.linspace(lo, hi, int(nodes))

    burn_in, horizon = inv_cfg.burn_in, inv_cfg.horizon
    if burn_in is None or horizon is None:
        pilot_burn, pilot_hor = _pilot_rates(model, 0.5 * (lo + hi),
                                             inv_cfg.delta, stream.child("pilot"))
        burn_in = pilot_burn if burn_in is None else burn_in
        horizon = pilot_hor if horizon is None else horizon
    inv_cfg = replace(inv_cfg, burn_in=burn_in, horizon=horizon)

    n = model.dim_slow
    drift_values = np.empty((nodes, n))
    drift_ci = np.empty((nodes, n))
    diff2_values = np.empty((nodes, n, n))
    diff2_ci = np.empty((nodes, n, n))
    max_clip = 0.0
    samples = _invariant_samples(
        model, grid, inv_cfg, [stream.child(f"node:{i}") for i in range(nodes)],
        where="table node {i}")
    for i, inv in enumerate(samples):
        drift_values[i], drift_ci[i] = averaged_drift(model, grid[i], inv)
        ad = averaged_diffusion(model, grid[i], inv)
        diff2_values[i], diff2_ci[i] = ad.matrix, ad.ci
        max_clip = max(max_clip, ad.clip)
        del inv, ad     # before the next node's samples exist

    for label, vals, cis in (("drift", drift_values, drift_ci),
                             ("diffusion", diff2_values, diff2_ci)):
        # 1% relative reads against the coefficient's scale on the grid;
        # a pointwise denominator would make any curved coefficient with a
        # zero crossing unrepresentable at every resolution
        scale = np.max(np.abs(vals), axis=0)
        for i in range(1, nodes - 1):
            pred = 0.5 * (vals[i - 1] + vals[i + 1])
            err = np.abs(pred - vals[i])
            combined = np.sqrt(cis[i] ** 2 + 0.25 * (cis[i - 1] ** 2 + cis[i + 1] ** 2))
            tol = np.maximum(3.0 * combined, 0.01 * scale)
            if np.any(err > tol):
                raise TableValidationError(
                    f"{label} interpolation error {err.max():.3g} at node "
                    f"x={grid[i]:.4g} exceeds {tol.max():.3g}; use a finer grid"
                )

    meta = {
        "model": model.name,
        "box": [lo, hi],
        "nodes": int(nodes),
        "seed": [stream.master_seed, stream.stream_id, list(stream.tags)],
        "delta": inv_cfg.delta,
        "burn_in": burn_in,
        "horizon": horizon,
        "n_chains": inv_cfg.n_chains,
        "thin": inv_cfg.thin,
    }
    return AveragedTable(
        grid=grid,
        drift_values=drift_values,
        drift_ci=drift_ci,
        diff2_values=diff2_values,
        diff2_ci=diff2_ci,
        meta=meta,
        max_clip=max_clip,
    )


_TABLE_FORMAT_VERSION = 2


def save_averaged_table(table: AveragedTable, csv_path, meta_path):
    """Versioned CSV of nodes plus a JSON header; floats keep 17
    significant digits so reload is bit-exact."""
    n = table.drift_values.shape[1]
    cols = (["x"]
            + [f"drift_{i}" for i in range(n)]
            + [f"drift_ci_{i}" for i in range(n)]
            + [f"diff2_{i}{j}" for i in range(n) for j in range(n)]
            + [f"diff2_ci_{i}{j}" for i in range(n) for j in range(n)])
    lines = [",".join(cols)]
    for k, x in enumerate(table.grid):
        row = ([x]
               + list(table.drift_values[k]) + list(table.drift_ci[k])
               + list(table.diff2_values[k].ravel())
               + list(table.diff2_ci[k].ravel()))
        lines.append(",".join(format(v, ".17g") for v in row))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    header = {
        "format_version": _TABLE_FORMAT_VERSION,
        "dim": n,
        "max_clip": table.max_clip,
        "meta": table.meta,
    }
    with open(meta_path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_averaged_table(csv_path, meta_path) -> AveragedTable:
    with open(meta_path) as fh:
        header = json.load(fh)
    version = header.get("format_version")
    if version != _TABLE_FORMAT_VERSION:
        raise ConfigurationError(f"unsupported table format version {version!r}")
    n = int(header["dim"])
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    grid = data[:, 0]
    at = 1
    drift = data[:, at:at + n]; at += n
    drift_ci = data[:, at:at + n]; at += n
    diff2 = data[:, at:at + n * n].reshape(-1, n, n); at += n * n
    diff2_ci = data[:, at:at + n * n].reshape(-1, n, n)
    return AveragedTable(
        grid=grid,
        drift_values=drift,
        drift_ci=drift_ci,
        diff2_values=diff2,
        diff2_ci=diff2_ci,
        meta=header["meta"],
        max_clip=float(header["max_clip"]),
    )


# ---------------------------------------------------------------------------
# Poisson-equation corrector
# ---------------------------------------------------------------------------


@dataclass
class PoissonCell:
    value: np.ndarray
    ci: np.ndarray
    tail_bound: float
    decay_rate: float
    times: np.ndarray
    gap: np.ndarray
    gap_ci: np.ndarray | None = None


def poisson_cell(model: ModelSpec, x, y, *, t_cut: float, n_traj: int,
                 delta: float, avg_b, avg_b_ci=0.0,
                 stream: RngStream) -> PoissonCell:
    """Corrector estimate: time integral of E b(x, Y_t^{x,y}) - drift_bar(x)
    up to t_cut, trapezoid rule on the micro grid.

    The CI combines the Monte Carlo spread of per-path drift integrals
    with the averaged-drift uncertainty (t_cut * avg_b_ci). The reported
    tail bound extrapolates the fitted exponential decay of the gap
    beyond t_cut; a non-positive fitted rate raises DecayFitError.
    """
    return poisson_cells(model, x, [y], t_cut=t_cut, n_traj=n_traj,
                         delta=delta, avg_b=avg_b, avg_b_ci=avg_b_ci,
                         streams=[stream])[0]


def poisson_cells(model: ModelSpec, x, ys, *, t_cut: float, n_traj: int,
                  delta: float, avg_b, avg_b_ci=0.0, streams) -> list[PoissonCell]:
    """`poisson_cell` at the fast starts `ys`, cell j on `streams[j]`,
    in one frozen run.

    Each cell is a stream block of n_traj paths, so the run has the
    draws, and every cell the numbers, of a separate `poisson_cell` call.
    The mean curve of b makes an expression drift's x-only part once per
    run (`_drift_curve`), with the bits of evaluating b whole. Cells are
    post-processed in order: the first cell whose decay fit fails raises
    DecayFitError, and a blow-up names its cell.
    """
    k = len(ys)
    if t_cut <= 0:
        raise ConfigurationError("t_cut must be positive")
    if n_traj < 2:
        raise ConfigurationError("a corrector CI needs n_traj >= 2")
    if not 0 < k == len(streams):
        raise ConfigurationError(
            f"need one stream per fast start, not {k} starts and "
            f"{len(streams)} streams")
    avg_b = np.atleast_1d(np.asarray(avg_b, dtype=float))
    avg_b_ci = np.broadcast_to(np.asarray(avg_b_ci, dtype=float), avg_b.shape)
    starts = np.stack([np.broadcast_to(np.asarray(y, dtype=float), (model.dim_fast,))
                       for y in ys])
    curve = _drift_curve(model, k)
    try:
        run_frozen_batch(model, x, np.repeat(starts, n_traj, axis=0),
                         horizon=t_cut, delta=delta, n_chains=k * n_traj,
                         stream=[(s, n_traj) for s in streams], watchers=(curve,))
    except BlowUpError as exc:
        raise _relabel(exc, f"poisson cell {exc.block}", "y",
                       starts[exc.block]) from exc
    per_path = curve.integral.reshape(k, n_traj, -1)
    return [_cell(curve, j, per_path[j], avg_b, avg_b_ci, t_cut)
            for j in range(k)]


def _drift_curve(model, blocks=1) -> MeanCurve:
    """MeanCurve of b(x, y) in a frozen run. An expression drift splits
    as the fast coefficients do (`model._frozen`): its x-only statements
    run once, at start, and only the others per step."""
    part, bind, _ = _frozen(model.slow_drift, "slow_drift")
    if part is None:
        return MeanCurve(lambda st: model.slow_drift(st["x"], st["y"]), blocks)
    return MeanCurve(bind("y"), blocks, prelude=lambda st: part(st["x"]))


def _cell(curve, j, per_path, avg_b, avg_b_ci, t_cut) -> PoissonCell:
    """Value, CI, gap curve and decay fit of block j of a cell run."""
    times, means = curve.curve(j)
    gap = means - avg_b[None, :]
    gap_norm = np.linalg.norm(gap, axis=1)

    n_traj = len(per_path)              # per_path: (n_traj, n)
    value = per_path.mean(axis=0) - avg_b * t_cut
    mc_ci = 1.96 * per_path.std(axis=0, ddof=1) / np.sqrt(n_traj)
    ci = mc_ci + t_cut * avg_b_ci

    if np.all(gap == 0.0):
        return PoissonCell(value=value, ci=ci, tail_bound=0.0,
                           decay_rate=np.inf, times=times, gap=gap_norm,
                           gap_ci=np.zeros_like(gap_norm))

    # fit the exponential tail on the late clean segment: folded noise
    # inflates |gap| once the signal nears the per-point standard error
    point_se = curve.point_se(j)
    clean = np.flatnonzero(gap_norm > 6 * point_se)
    usable = np.zeros(len(times), dtype=bool)
    if clean.size:
        t_hi = times[clean[-1]]
        usable[clean] = times[clean] >= 0.5 * t_hi
    late = times >= 0.75 * t_cut
    late_in_noise = bool(
        np.median(gap_norm[late]) <= 4 * np.median(point_se[late]) + 1e-300
    )
    rate = np.nan
    tail = float(3 * np.median(point_se))
    if usable.sum() >= 4:
        slope, intercept, _ = _line_fit(times[usable], np.log(gap_norm[usable]))
        if -slope > 1e-6:
            rate = -slope
            tail = float(np.exp(intercept + slope * t_cut) / rate)
        elif not late_in_noise:
            raise DecayFitError(
                f"fitted gap decay rate {-slope:.3g} is not positive; "
                "increase t_cut or the trajectory budget"
            )
    elif not late_in_noise:
        raise DecayFitError(
            "gap neither decays demonstrably nor falls below the noise floor; "
            "increase t_cut or the trajectory budget"
        )
    return PoissonCell(value=value, ci=ci, tail_bound=tail, decay_rate=rate,
                       times=times, gap=gap_norm, gap_ci=1.96 * point_se)


def semigroup_identity_check(model, x, y, *, s, t_cut, n_traj, endpoint_draws,
                             delta, avg_b, avg_b_ci, stream):
    """Check cell(x,y) - E cell(x, Y_s) == integral_0^s E[b(x,Y_t) - avg] dt.

    The right side is a fresh short-horizon run; the left side averages
    corrector estimates over endpoint draws, so the identity is tested
    without assuming it. The shift s (a config's semigroup_s) must be
    positive, and endpoint_draws at least 2 (their spread is in the CI).
    """
    if not s > 0:
        raise ConfigurationError(f"semigroup_s must be positive, not {s!r}")
    if endpoint_draws < 2:
        raise ConfigurationError(f"endpoint_draws must be at least 2, not {endpoint_draws!r}")
    ends = run_frozen_batch(model, x, y, horizon=s, delta=delta,
                            n_chains=endpoint_draws,
                            stream=stream.child("endpoints"))["terminal_fast"]
    # the cell at y and one per endpoint run as the blocks of one kernel
    cell_here, *cell_ends = poisson_cells(
        model, x, [y, *ends], t_cut=t_cut, n_traj=n_traj, delta=delta,
        avg_b=avg_b, avg_b_ci=avg_b_ci,
        streams=[stream.child("phi-at-y")]
        + [stream.child(f"phi-end:{i}") for i in range(endpoint_draws)])
    vals = np.array([c.value for c in cell_ends])
    mean_end = vals.mean(axis=0)
    se_end = vals.std(axis=0, ddof=1) / np.sqrt(endpoint_draws)

    curve = _drift_curve(model)
    run_frozen_batch(model, x, y, horizon=s, delta=delta,
                     n_chains=4 * n_traj, stream=stream.child("short"),
                     watchers=(curve,))
    times, means = curve.curve()
    gap = means - np.atleast_1d(avg_b)[None, :]
    rhs = np.trapezoid(gap, times, axis=0)

    lhs = cell_here.value - mean_end
    ci = float(np.linalg.norm(cell_here.ci) + np.linalg.norm(se_end)
               + s * float(np.linalg.norm(np.atleast_1d(avg_b_ci))))
    ok = bool(np.linalg.norm(lhs - rhs) <= 3.0 * ci)
    return {"lhs": float(np.linalg.norm(lhs)), "rhs": float(np.linalg.norm(rhs)),
            "gap": float(np.linalg.norm(lhs - rhs)), "ci": ci, "pass": ok}


# ---------------------------------------------------------------------------
# Ergodicity diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DecayCurve:
    times: np.ndarray
    msd: np.ndarray
    gamma_hat: float | None
    r2: float | None
    degenerate: bool = False
    ci_half: np.ndarray | None = None


def ergodicity_decay(model: ModelSpec, x, y1, y2, *, times, n_pairs: int,
                     delta: float, stream: RngStream) -> DecayCurve:
    """Mean squared distance of synchronously coupled frozen pairs
    (same Wiener path, same jump events and marks, same slow state),
    with a log-linear decay fit.

    The curve keeps the micro step s = round(t/delta) - 1 that ends
    nearest each requested time t, once per step and in step order, at
    that step's end time; a time under half a step (s < 0) is dropped.
    ci_half is 1.96 cross-pair standard errors of each kept point.
    """
    if not delta > 0:
        raise ConfigurationError(f"delta must be positive, not {delta!r}")
    times = np.sort(np.asarray(times, dtype=float))
    if times[0] <= 0:
        raise ConfigurationError("decay times must be positive")
    horizon = float(times[-1])
    kept = [s for s in sorted({int(round(t / delta)) - 1 for t in times})
            if 0 <= s < _n_steps(horizon, delta)]
    t_kept = np.array([min(horizon, (s + 1) * delta) for s in kept])
    y1a = np.atleast_1d(np.asarray(y1, dtype=float))
    y2a = np.atleast_1d(np.asarray(y2, dtype=float))
    if np.array_equal(y1a, y2a):
        z = np.zeros_like(t_kept)
        return DecayCurve(times=t_kept, msd=z, gamma_hat=None, r2=None,
                          degenerate=True, ci_half=z.copy())

    def sq_dist(states):
        d = states["y"] - states["y2"]
        return (d * d).sum(axis=1)[:, None]

    curve = MeanCurve(sq_dist)
    run_frozen_pair_batch(model, x, y1, y2, horizon=horizon,
                          delta=delta, n_pairs=n_pairs, stream=stream,
                          watchers=(curve,))
    # curve point s + 1 is the end of micro step s, at t_kept
    points = [s + 1 for s in kept]
    t_fit, m_fit = t_kept, curve.curve()[1][points, 0]
    ci_fit = 1.96 * curve.point_se()[points]
    pos = m_fit > 0
    if pos.sum() < 3:
        return DecayCurve(times=t_fit, msd=m_fit, gamma_hat=None, r2=None,
                          degenerate=True, ci_half=ci_fit)
    slope, _, r2 = _line_fit(t_fit[pos], np.log(m_fit[pos]))
    return DecayCurve(times=t_fit, msd=m_fit, gamma_hat=-slope, r2=r2,
                      ci_half=ci_fit)
