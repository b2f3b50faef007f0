"""Monte Carlo error estimation against the averaged dynamics.

Strong errors couple the scale-separated system to its averaged equation
through identical Wiener increments and identical slow jump events, then
measure the grid supremum of the pathwise distance. Weak errors compare
expectations of a test function, either from the same coupled pairs
(low-variance difference estimator) or from independent ensembles. Orders
are fitted by ordinary least squares on (log eps, log error); exact
agreement (zero error) is reported as a degenerate outcome rather than
fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from . import integrate as _integrate
from .errors import BlowUpError, ConfigurationError
from .integrate import _norm
from .model import ModelSpec
from .observers import MeanCurve, PathwiseSup
from .rng import RngStream

__all__ = [
    "TestFunction",
    "OrderFit",
    "ErrorReport",
    "DeltaPolicy",
    "FastMomentReport",
    "fit_order",
    "bootstrap_ci",
    "strong_error",
    "weak_error",
    "fast_moment_sweep",
    "make_test_function",
]

_DEGENERATE_REASON = "degenerate: exact agreement"
_DELTA_FLOOR = 2.0**-16
_CHECKPOINT_FRACS = (0.25, 0.5, 0.75, 1.0)
_BOOT_CHUNK = 128


@dataclass(frozen=True)
class TestFunction:
    """Deterministic observable of the slow state with declared growth."""

    name: str
    fn: Callable
    growth_exp: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(x), dtype=float)


_TEST_FUNCTIONS = {
    "x_squared": ("squared Euclidean norm", lambda x: np.sum(x * x, axis=1), 2.0),
    "identity": ("first component", lambda x: x[:, 0], 1.0),
    "cos": ("cosine of the first component", lambda x: np.cos(x[:, 0]), 0.0),
}


def make_test_function(name: str) -> TestFunction:
    try:
        _, fn, growth = _TEST_FUNCTIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown test function {name!r}; available: {sorted(_TEST_FUNCTIONS)}"
        ) from None
    tf = TestFunction(name=name, fn=fn, growth_exp=growth)
    probes = np.linspace(-3, 3, 11)[:, None]
    vals = np.abs(tf(probes))
    envelope = 1.0 + np.abs(probes[:, 0]) ** growth
    if not np.all(vals <= 10.0 * envelope):
        raise ConfigurationError(f"test function {name} exceeds its growth class")
    return tf


@dataclass(frozen=True)
class DeltaPolicy:
    """Micro-step policy for order sweeps.

    global: one step delta = min(eps) * 2^-fast_exp for every eps, so
        discretization bias is common-mode across the sweep.
    scaled: delta = eps * 2^-fast_exp, keeping the effective fast substep
        delta/eps constant across the sweep.
    The step never goes below 2^-16.
    """

    mode: str = "global"
    fast_exp: int = 6

    def __post_init__(self):
        if self.mode not in ("global", "scaled"):
            raise ConfigurationError("delta policy mode must be global or scaled")

    def delta_for(self, eps: float, eps_min: float) -> float:
        base = (eps if self.mode == "scaled" else eps_min) * 2.0 ** (-self.fast_exp)
        return max(base, _DELTA_FLOOR)

    def to_dict(self):
        return {"mode": self.mode, "fast_exp": self.fast_exp, "floor": _DELTA_FLOOR}


@dataclass
class OrderFit:
    slope: float | None
    intercept: float | None
    r2: float | None
    degenerate: bool = False
    reason: str | None = None


def fit_order(eps, errors) -> OrderFit:
    """OLS fit of log(error) against log(eps).

    Requires at least three strictly positive errors at distinct eps;
    otherwise the outcome is degenerate (no logs of zero are taken).
    """
    eps = np.asarray(eps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if eps.shape != errors.shape or eps.ndim != 1:
        raise ConfigurationError("eps and errors must be matching 1-d sequences")
    if len(eps) < 3:
        raise ConfigurationError("order fit needs at least 3 levels")
    if len(np.unique(eps)) != len(eps) or np.any(eps <= 0):
        raise ConfigurationError("eps values must be positive and distinct")
    if np.any(errors <= 0):
        return OrderFit(None, None, None, degenerate=True, reason=_DEGENERATE_REASON)
    return OrderFit(*_line_fit(np.log(eps), np.log(errors)))


def _line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept, with its r2 (1 when
    y is constant)."""
    slope, intercept = np.polyfit(x, y, 1)
    fitted = intercept + slope * x
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


@dataclass
class ErrorReport:
    """Per-eps error estimates with CIs and the fitted order."""

    eps: np.ndarray
    errors: np.ndarray
    ci_half: np.ndarray
    n_paths: np.ndarray
    slope: float | None
    intercept: float | None
    r2: float | None
    degenerate: bool
    flags: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=float)
        if not np.all(np.diff(self.eps) < 0):
            raise ConfigurationError("eps values must be strictly decreasing")
        self.errors = np.asarray(self.errors, dtype=float)
        self.ci_half = np.asarray(self.ci_half, dtype=float)
        self.n_paths = np.asarray(self.n_paths, dtype=int)

    def to_dict(self) -> dict:
        return {
            "eps": self.eps.tolist(),
            "errors": self.errors.tolist(),
            "ci_half": self.ci_half.tolist(),
            "n_paths": self.n_paths.tolist(),
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "degenerate": self.degenerate,
            "flags": list(self.flags),
            "meta": self.meta,
        }


def bootstrap_ci(samples, statistic, n_boot: int, confidence: float,
                 stream: RngStream):
    """Percentile bootstrap CI of statistic(resampled paths).

    `statistic` maps a (k, n_samples) resample block to (k,) values.
    Skewed sup-functionals get honest intervals this way where normal
    theory would not.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1] if samples.ndim > 1 else samples.size
    gen = stream.generator()
    out = np.empty(n_boot)
    done = 0
    while done < n_boot:
        k = min(_BOOT_CHUNK, n_boot - done)
        idx = gen.integers(0, n, size=(k, n))
        out[done:done + k] = statistic(idx)
        done += k
    alpha = 0.5 * (1.0 - confidence)
    lo, hi = np.quantile(out, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def _prepare_eps(eps) -> np.ndarray:
    eps = np.sort(np.unique(np.asarray(eps, dtype=float)))[::-1]
    if len(eps) < 3:
        raise ConfigurationError("order sweeps need at least 3 eps levels")
    if np.any(eps <= 0):
        raise ConfigurationError("eps values must be positive")
    return eps


def _check_confidence(confidence: float):
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must lie in (0, 1), not {confidence!r}")


def _pair_sweep(model, avg, eps, policy: DeltaPolicy, tag: str, stream, *,
                t_end, n_paths, x0, y0, checkpoints=()):
    """Coupled pairs at every eps level, level j on stream f"{tag}:{j}".

    The levels are the multi-rate stream blocks of one run_pair_batch (one
    per group, when steps are not power-of-two multiples of each other),
    so each sees the draws, and so the numbers, of its own run. Returns
    each level's (sup, checkpoint snapshots), and the running sum of the
    levels' table clamps (each level's `out["clamped"]`), from 0. A
    blow-up on any path aborts the whole sweep, naming its level.
    """
    cfgs = [_integrate.StepperConfig(epsilon=e, delta=policy.delta_for(e, eps[-1]),
                                     t_end=t_end) for e in eps]
    levels = [None] * len(eps)
    clamps = np.zeros(len(eps), dtype=np.int64)
    for group in _integrate._rate_groups(cfgs):
        blocks = [(stream.child(f"{tag}:{j}"), n_paths, cfgs[j]) for j in group]
        try:
            out = _integrate.run_pair_batch(model, avg, x0, y0, cfgs[group[0]],
                                            n_paths * len(group), blocks,
                                            checkpoints=checkpoints)
        except BlowUpError as exc:
            j = group[exc.block]
            raise BlowUpError(exc.time, exc.paths,
                              where=f"{tag} level {j} (eps={float(eps[j])!r})") from exc
        for b, j in enumerate(group):
            # copies, so each level's reductions see arrays of its own run
            rows = slice(b * n_paths, (b + 1) * n_paths)
            levels[j] = (out["sup"][rows].copy(),
                         {t: {n: v[rows].copy() for n, v in snap.items()}
                          for t, snap in out["checkpoints"].items()})
            clamps[j] = out["clamped"][b]
    return levels, np.cumsum(clamps).tolist()


def strong_error(model: ModelSpec, avg, *, eps, p: float = 2.0, t_end: float,
                 n_paths: int, x0, y0, delta_policy: DeltaPolicy | None = None,
                 n_boot: int = 1000, confidence: float = 0.95,
                 stream: RngStream) -> ErrorReport:
    """Pathwise error sweep: per eps, (E sup_t |X^eps - Xbar|^p)^(1/p) from
    coupled pairs, bootstrap CIs, and the fitted log-log order.

    The expected slope is 1/2 regardless of p because of the p-th-root
    normalization. All eps levels run as one kernel (see `_pair_sweep`),
    so one blown-up path aborts the whole sweep.
    """
    if not model.sigma_y_independent:
        raise ConfigurationError("strong sweeps require sigma independent of the fast state")
    if p < 2:
        raise ConfigurationError("strong error moment p must be >= 2")
    eps = _prepare_eps(eps)
    _check_confidence(confidence)
    policy = delta_policy or DeltaPolicy()
    levels, clamps = _pair_sweep(model, avg, eps, policy, "strong", stream,
                                 t_end=t_end, n_paths=n_paths, x0=x0, y0=y0)
    errors, halves, counts = [], [], []
    for j, (sup, _) in enumerate(levels):
        sup_p = sup**p
        err = float(np.mean(sup_p) ** (1.0 / p))
        if np.all(sup == 0.0):
            errors.append(0.0)
            halves.append(0.0)
        else:
            lo, hi = bootstrap_ci(
                sup_p, lambda idx: np.mean(sup_p[idx], axis=1) ** (1.0 / p),
                n_boot, confidence, stream.child(f"boot:{j}"))
            errors.append(err)
            halves.append(0.5 * (hi - lo))
        counts.append(n_paths)
    fit = fit_order(eps, errors)
    flags = (_DEGENERATE_REASON,) if fit.degenerate else ()
    meta = {
        "kind": "strong",
        "model": model.name,
        "p": p,
        "t_end": t_end,
        "x0": np.asarray(x0, dtype=float).tolist(),
        "y0": np.asarray(y0, dtype=float).tolist(),
        "delta_policy": policy.to_dict(),
        "scheme": "tamed_euler",
        "seed": [stream.master_seed, stream.stream_id, list(stream.tags)],
        "confidence": confidence,
        "clamped": clamps,
    }
    return ErrorReport(eps=eps, errors=np.asarray(errors),
                       ci_half=np.asarray(halves), n_paths=np.asarray(counts),
                       slope=fit.slope, intercept=fit.intercept, r2=fit.r2,
                       degenerate=fit.degenerate, flags=flags, meta=meta)


def weak_error(model: ModelSpec, avg, phi: TestFunction, *, eps, t_end: float,
               n_paths: int, mode: str = "coupled_difference",
               delta_policy: DeltaPolicy | None = None, n_boot: int = 1000,
               confidence: float = 0.95, x0=0.0, y0=0.0,
               stream: RngStream) -> ErrorReport:
    """Weak error sweep: sup over the checkpoints t_end/4, t_end/2,
    3 t_end/4 and t_end of |E phi(X^eps_t) - E phi(Xbar_t)|.

    coupled_difference drives both equations with the same noise (valid
    when sigma ignores the fast state, where the two averaged equations
    coincide), all eps levels as one kernel (see `_pair_sweep`), so one
    blown-up path aborts the whole sweep; independent simulates separate
    ensembles per eps, with the averaged one using the PSD root of the
    averaged squared diffusion.
    """
    if mode not in ("coupled_difference", "independent"):
        raise ConfigurationError("mode must be coupled_difference or independent")
    if mode == "coupled_difference" and not model.sigma_y_independent:
        raise ConfigurationError(
            "coupled_difference requires sigma independent of the fast state"
        )
    if mode == "independent" and not avg.has_diffusion:
        raise ConfigurationError("independent mode needs averaged diffusion data")
    eps = _prepare_eps(eps)
    _check_confidence(confidence)
    policy = delta_policy or DeltaPolicy()
    cps = tuple(f * t_end for f in _CHECKPOINT_FRACS)
    errors, halves, counts, clamps = [], [], [], []
    clamped = 0
    if mode == "coupled_difference":
        levels, clamps = _pair_sweep(model, avg, eps, policy, "weak", stream,
                                     t_end=t_end, n_paths=n_paths, x0=x0, y0=y0,
                                     checkpoints=cps)
    for j, e in enumerate(eps):
        if mode == "coupled_difference":
            snaps = levels[j][1]
            diffs = np.stack([phi(snaps[t]["x"]) - phi(snaps[t]["xt"]) for t in cps])
            err = float(np.max(np.abs(diffs.mean(axis=1))))
            if np.all(diffs == 0.0):
                errors.append(0.0)
                halves.append(0.0)
            else:
                lo, hi = bootstrap_ci(
                    diffs, lambda idx: np.max(np.abs(
                        np.mean(diffs[:, idx], axis=2)), axis=0),
                    n_boot, confidence, stream.child(f"boot:{j}"))
                errors.append(err)
                halves.append(0.5 * (hi - lo))
        else:
            delta = policy.delta_for(e, eps[-1])
            cfg = _integrate.StepperConfig(epsilon=e, delta=delta, t_end=t_end)
            sys_out = _integrate.run_system_batch(
                model, x0, y0, cfg, n_paths, stream.child(f"weak-sys:{j}"),
                checkpoints=cps)
            avg_out = _integrate.run_averaged_batch(
                model, avg, x0, cfg, n_paths, stream.child(f"weak-avg:{j}"),
                checkpoints=cps)
            pa = np.stack([phi(sys_out["checkpoints"][t]["x"]) for t in cps])
            pb = np.stack([phi(avg_out["checkpoints"][t]["x"]) for t in cps])
            gaps = pa.mean(axis=1) - pb.mean(axis=1)
            err = float(np.max(np.abs(gaps)))
            if np.all(pa == pb):
                errors.append(0.0)
                halves.append(0.0)
            else:
                se = np.sqrt(pa.var(axis=1, ddof=1) / n_paths
                             + pb.var(axis=1, ddof=1) / n_paths)
                z = special.ndtri(0.5 + confidence / 2.0)
                halves.append(float(z * se[int(np.argmax(np.abs(gaps)))]))
                errors.append(err)
            clamped += int(avg_out["clamped"].sum())
            clamps.append(clamped)
        counts.append(n_paths)
    errors = np.asarray(errors)
    halves = np.asarray(halves)
    flags = []
    withheld = False
    if np.any(errors <= 0):
        flags.append(_DEGENERATE_REASON)
    elif mode == "independent":
        k = int(np.argmin(errors))
        if halves[k] > 0.5 * errors[k]:
            flags.append("noise-dominated")
            withheld = True
    if withheld or np.any(errors <= 0):
        fit = OrderFit(None, None, None, degenerate=bool(np.any(errors <= 0)),
                       reason=flags[0] if flags else None)
    else:
        fit = fit_order(eps, errors)
    meta = {
        "kind": "weak",
        "model": model.name,
        "phi": phi.name,
        "mode": mode,
        "t_end": t_end,
        "checkpoints": list(cps),
        "x0": np.asarray(x0, dtype=float).tolist(),
        "y0": np.asarray(y0, dtype=float).tolist(),
        "delta_policy": policy.to_dict(),
        "scheme": "tamed_euler",
        "seed": [stream.master_seed, stream.stream_id, list(stream.tags)],
        "confidence": confidence,
        "clamped": clamps,
    }
    return ErrorReport(eps=eps, errors=errors, ci_half=halves,
                       n_paths=np.asarray(counts), slope=fit.slope,
                       intercept=fit.intercept, r2=fit.r2,
                       degenerate=fit.degenerate, flags=tuple(flags), meta=meta)


@dataclass
class FastMomentReport:
    """Fast-component moment statistics across the scale sweep.

    marginal_sup: max over the grid of E|Y_t|^p per eps; expected stable
        in eps (flagged when the sweep ratio reaches 2).
    pathwise_sup: E[sup_t |Y_t|^p] per eps; expected to grow as eps
        shrinks (the horizon covers ~T/eps fast relaxation times).
    """

    eps: np.ndarray
    marginal_sup: np.ndarray
    marginal_ci: np.ndarray
    pathwise_sup: np.ndarray
    pathwise_ci: np.ndarray
    flags: tuple
    meta: dict


def fast_moment_sweep(model: ModelSpec, *, eps, p: float, t_end: float,
                      n_paths: int, x0, y0, fast_exp: int = 6,
                      stream: RngStream) -> FastMomentReport:
    """Moments of the fast component Y^eps on the grid delta = eps *
    2^-fast_exp, one slow-fast run per eps.

    The marginal sup is max_t E|Y_t|^p over t = 0 and every micro step,
    taken at the first step that reaches it; its CI half-width is 1.96
    cross-path standard errors of E|Y_t|^p at that step. The pathwise sup
    is E[sup_t |Y_t|^p] with the normal-theory CI of its path mean.
    """
    eps = _prepare_eps(eps)
    marg, marg_ci, pathw, pathw_ci = [], [], [], []
    for j, e in enumerate(eps):
        delta = e * 2.0 ** (-fast_exp)
        cfg = _integrate.StepperConfig(epsilon=e, delta=delta, t_end=t_end)
        wm = MeanCurve(lambda st: (_norm(st["y"]) ** float(p))[:, None])
        ws = PathwiseSup("y")
        _integrate.run_system_batch(model, x0, y0, cfg, n_paths,
                                    stream.child(f"fast:{j}"),
                                    watchers=(wm, ws))
        means = wm.curve()[1][:, 0]
        k = int(np.argmax(means))
        marg.append(float(means[k]))
        marg_ci.append(1.96 * float(wm.point_se()[k]))
        sup_p = ws.value**p
        pathw.append(float(sup_p.mean()))
        pathw_ci.append(float(1.96 * sup_p.std(ddof=1) / np.sqrt(sup_p.size)))
    marg = np.asarray(marg)
    pathw = np.asarray(pathw)
    flags = []
    if marg.max() > 0:
        if marg.min() == 0 or marg.max() / marg.min() >= 2.0:
            flags.append("marginal-nonuniform")
        if not np.all(np.diff(pathw) > 0):
            flags.append("pathwise-sup-not-increasing")
    meta = {"kind": "fast-moments", "model": model.name, "p": p, "t_end": t_end,
            "fast_exp": fast_exp, "n_paths": n_paths,
            "seed": [stream.master_seed, stream.stream_id, list(stream.tags)]}
    return FastMomentReport(eps=eps, marginal_sup=marg,
                            marginal_ci=np.asarray(marg_ci),
                            pathwise_sup=pathw,
                            pathwise_ci=np.asarray(pathw_ci),
                            flags=tuple(flags), meta=meta)
