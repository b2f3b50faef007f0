"""Jump-adapted, taming-stabilized time stepping.

One table-driven kernel integrates every dynamics in the toolkit: the
coupled slow-fast system, the frozen fast equation, the pathwise-coupled
averaged equation (shared Wiener increments and shared jump events for
strong-error measurement), the weak-form averaged equation, and
synchronously coupled fast pairs. Each has one `run_*_batch` entry point;
all five build, run and read out the kernel through one driver. A single
path is a batch of one: `record=True` (with `n_paths=1`) returns it as a
PathSample under `out["path"]`.

Observers are a run's only side channel: `start` at t = 0, `observe`
after every micro step, and the read-only hooks `on_advance` and
`on_jump` on the jump-augmented grid (the protocol is in `observers`).
Checkpoint snapshots, the coupled pair's `sup` and the recorded path are
private observers that run after the caller's `watchers`.

Blocks: `stream` may be a list of `(RngStream, n_paths)` pairs instead of
one RngStream. The batch then holds the blocks' paths one after another,
and each block draws its Wiener increments, event times and marks from
its own stream with its own path numbering, and chooses its jump
compensator's form from its own rows. Every path sees exactly the
draws, and so the numbers, of a separate run of its block, so several
narrow runs (e.g. the nodes of an averaged table) fuse into one wide run
without changing an output byte. A blow-up names the block and the path
within it.

Scheme: between jump events, drift increments are tamed,
``drift * dt / (1 + dt * |drift|)``, which keeps explicit stepping stable
under superlinear monotone drifts; diffusion increments use the actual
elapsed sub-interval lengths (increments are generated forward, so no
bridge construction is needed); compensated jump measures contribute a
deterministic drift correction between events and the raw jump map at
events. Event times are exact draws of the constant-rate Poisson streams,
inserted into the micro grid path by path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .model import ModelSpec
from .rng import JumpMeasureSpec, RngStream, sample_jump_times_batch

__all__ = [
    "StepperConfig",
    "PathSample",
    "JumpEvent",
    "run_system_batch",
    "run_pair_batch",
    "run_frozen_batch",
    "run_frozen_pair_batch",
    "run_averaged_batch",
]

_SCHEMES = ("tamed_euler", "split_step_implicit", "euler")
_MAX_FAST_SUBSTEP = 1.0 / 16.0
_STATE_CAP = 1e12


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping parameters for the scale-separated system.

    The micro step must resolve the fast dynamics: delta <= epsilon / 16.
    delta may leave a final partial step before t_end.
    """

    epsilon: float
    delta: float
    t_end: float
    scheme: str = "tamed_euler"

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive")
        if not self.delta > 0:
            raise ConfigurationError("delta must be positive")
        if not self.t_end > 0:
            raise ConfigurationError("t_end must be positive")
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(f"scheme must be one of {_SCHEMES}")
        if self.delta > self.epsilon * _MAX_FAST_SUBSTEP * (1 + 1e-12):
            raise ConfigurationError(
                f"delta={self.delta!r} exceeds epsilon/16; the fast component "
                "would be under-resolved"
            )


@dataclass(frozen=True)
class JumpEvent:
    """One applied jump: post - pre equals the jump map at (pre, mark)."""

    time: float
    mark: float
    channel: str
    target: str
    pre: np.ndarray
    post: np.ndarray
    context: dict


@dataclass
class PathSample:
    """A trajectory on the jump-augmented micro grid.

    `times` is strictly increasing from 0 to the horizon. Rows at jump
    times hold the post-jump state; the pre-jump state is in the event
    log entry, so every discontinuity can be replayed exactly.
    """

    times: np.ndarray
    slow: np.ndarray | None
    fast: np.ndarray | None
    events: list

    def validate(self):
        if not np.all(np.diff(self.times) > 0):
            raise AssertionError("grid must be strictly increasing")
        for arr in (self.slow, self.fast):
            if arr is not None and arr.shape[0] != self.times.shape[0]:
                raise AssertionError("state rows must match the grid")
        return self

    def replay_jumps(self, model: ModelSpec) -> bool:
        """Re-evaluate every logged event through the coefficient maps.

        True iff each logged post-state equals pre + jump_map(pre, mark)
        bit for bit (the same arithmetic the stepper performed).
        """
        for ev in self.events:
            z = np.array([ev.mark])
            if ev.channel == "slow":
                inc = model.slow_jump(ev.pre[None, :], z)[0]
            else:
                x = ev.context["x"][None, :] if "x" in ev.context else ev.pre[None, :]
                inc = model.fast_jump(x, ev.pre[None, :], z)[0]
            if not np.array_equal(ev.post, ev.pre + inc):
                return False
        return True


def _norm(v: np.ndarray) -> np.ndarray:
    if v.shape[1] == 1:
        return np.abs(v[:, 0])
    return np.sqrt(np.sum(v * v, axis=1))


def _matvec(g: np.ndarray, dw: np.ndarray) -> np.ndarray:
    if g.shape[1] == 1 and g.shape[2] == 1:
        return g[:, :, 0] * dw
    return np.einsum("kij,kj->ki", g, dw)


def _init_state(value, dim: int, n_paths: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full((n_paths, dim), float(arr))
    if arr.shape == (dim,):
        return np.tile(arr, (n_paths, 1))
    if arr.shape == (n_paths, dim):
        return arr.astype(float).copy()
    raise ConfigurationError(
        f"initial state of shape {arr.shape} does not match dim {dim}"
    )


@dataclass
class _Component:
    name: str
    dim: int
    drift: object
    diffusion: object
    wiener: str | None
    time_scale: float
    compensator: object = None


@dataclass
class _Channel:
    name: str
    measure: JumpMeasureSpec
    rate: float
    targets: list    # (component name, jump_fn)


def _stream_blocks(stream, n_paths: int) -> list[tuple[RngStream, int]]:
    """`stream` as (RngStream, n_paths) blocks that cover the batch."""
    if isinstance(stream, RngStream):
        return [(stream, n_paths)]
    blocks = [(s, int(n)) for s, n in stream]
    if not blocks or any(n < 1 for _, n in blocks):
        raise ConfigurationError("stream blocks must each hold at least one path")
    if sum(n for _, n in blocks) != n_paths:
        raise ConfigurationError(
            f"stream blocks hold {sum(n for _, n in blocks)} paths, not {n_paths}")
    return blocks


class _Kernel:
    """Vectorized jump-adapted stepping over a batch of paths."""

    def __init__(self, *, n_paths, t_end, delta, scheme, stream):
        self.n_paths = int(n_paths)
        self.t_end = float(t_end)
        self.delta = float(delta)
        self.scheme = scheme
        self.blocks = _stream_blocks(stream, self.n_paths)
        self.blocked = not isinstance(stream, RngStream)
        # row offsets of the blocks, closed by n_paths
        self.bounds = np.cumsum([0] + [n for _, n in self.blocks])
        self._rows = self.bounds    # block rows of the current advance
        self.n_steps = max(1, int(np.ceil(self.t_end / self.delta - 1e-9)))
        self.components: list[_Component] = []
        self.channels: list[_Channel] = []
        self.states: dict[str, np.ndarray] = {}
        self.wiener: dict[str, tuple[int, list[np.random.Generator]]] = {}
        self._on_advance = []       # the run's observer hooks
        self._on_jump = []

    # -- construction -----------------------------------------------------

    def add_constant(self, name, value, dim):
        self.states[name] = _init_state(value, dim, self.n_paths)

    def add_component(self, name, dim, init, *, drift, diffusion, wiener,
                      wiener_dim=0, time_scale=1.0):
        self.states[name] = _init_state(init, dim, self.n_paths)
        comp = _Component(name, dim, drift, diffusion, wiener, float(time_scale))
        self.components.append(comp)
        if wiener is not None and wiener not in self.wiener:
            gens = [s.child(f"wiener:{wiener}").generator() for s, _ in self.blocks]
            self.wiener[wiener] = (int(wiener_dim), gens)
        return comp

    def add_channel(self, name, measure: JumpMeasureSpec, rate, targets):
        """targets: list of (component_name, jump_fn(sub, marks)->(k,dim))."""
        self.channels.append(_Channel(name, measure, float(rate), list(targets)))

    def set_compensator(self, comp: _Component, measure: JumpMeasureSpec, jump_fn):
        # each block probes its own rows, as a separate run would
        forms = [_build_compensator(jump_fn, measure, self._probe_subs(lo, hi))
                 for lo, hi in zip(self.bounds[:-1], self.bounds[1:])]
        comp.compensator = self._blockwise(forms, comp.dim)

    def _probe_subs(self, lo, hi):
        """Two perturbed copies of every starting state of rows lo:hi."""
        gen = np.random.Generator(np.random.Philox(0xC0FFEE))
        subs = []
        for _ in range(2):
            subs.append({
                n: a[lo:hi] + gen.uniform(-1.0, 1.0, a[lo:hi].shape)
                for n, a in self.states.items()
            })
        return subs

    def _blockwise(self, forms, dim):
        """One compensator from the blocks' (form, closure) pairs: the
        closure that all blocks chose, or else each block's on its own
        rows of the advance."""
        if len({form for form, _ in forms}) == 1:
            return forms[0][1]
        fns = [fn for _, fn in forms]

        def blockwise(sub):
            rows = self._rows
            parts = []
            for f, lo, hi in zip(fns, rows[:-1], rows[1:]):
                if hi == lo:
                    continue
                if f is None:
                    parts.append(np.zeros((hi - lo, dim)))
                else:
                    parts.append(np.asarray(
                        f({n: a[lo:hi] for n, a in sub.items()}), dtype=float))
            return np.concatenate(parts)

        return blockwise

    # -- stepping ----------------------------------------------------------

    def _advance(self, idx, dt, end):
        """Step rows idx (every row if None) by dt to their end time(s)."""
        states = self.states
        if idx is None:
            sub = states
            k = self.n_paths
        else:
            sub = {n: a[idx] for n, a in states.items()}
            k = len(idx)
        # idx is ascending, so each block's rows are contiguous
        rows = self.bounds if idx is None else np.searchsorted(idx, self.bounds)
        self._rows = rows
        draws = {}
        for key, (dim, gens) in self.wiener.items():
            buf = np.empty((k, dim))
            for gen, lo, hi in zip(gens, rows[:-1], rows[1:]):
                if hi > lo:
                    gen.standard_normal(out=buf[lo:hi])
            draws[key] = buf
        out = {}
        for comp in self.components:
            s = sub[comp.name]
            dte = dt * comp.time_scale
            if comp.drift is not None:
                d = np.asarray(comp.drift(sub))
                if self.scheme == "tamed_euler":
                    fac = dte / (1.0 + dte * _norm(d))
                    inc = d * fac[:, None]
                elif self.scheme == "split_step_implicit":
                    inc = _implicit_increment(comp, sub, s, dte)
                else:
                    inc = d * dte[:, None]
            else:
                inc = np.zeros_like(s)
            if comp.compensator is not None:
                inc = inc - comp.compensator(sub) * dte[:, None]
            if comp.diffusion is not None:
                g = np.asarray(comp.diffusion(sub))
                dw = draws[comp.wiener] * np.sqrt(dte)[:, None]
                inc = inc + _matvec(g, dw)
            out[comp.name] = s + inc
        if idx is None:
            for n, v in out.items():
                states[n] = v
        else:
            for n, v in out.items():
                states[n][idx] = v
        for hook in self._on_advance:
            hook(idx, end, states)

    def _apply_jumps(self, paths, chans, marks, times):
        for ci, chan in enumerate(self.channels):
            m = chans == ci
            if not m.any():
                continue
            idx = paths[m]
            z = marks[m]
            sub = {n: a[idx] for n, a in self.states.items()}
            for tname, jfn in chan.targets:
                self.states[tname][idx] = sub[tname] + np.asarray(jfn(sub, z))
            for hook in self._on_jump:
                hook(idx, chan, z, times[m], sub, self.states)

    def _generate_events(self, n_steps):
        paths, times, chans, marks = [], [], [], []
        for ci, chan in enumerate(self.channels):
            if chan.rate <= 0:
                continue
            for (stream, n), start in zip(self.blocks, self.bounds):
                p, t = sample_jump_times_batch(
                    chan.rate, self.t_end, n, stream.child(f"events:{chan.name}"))
                gen = stream.child(f"marks:{chan.name}").generator()
                z = chan.measure.size.sample(gen, len(t))
                paths.append(p + start)
                times.append(t)
                chans.append(np.full(len(t), ci, dtype=np.int64))
                marks.append(z)
        if not paths:
            offsets = np.zeros(n_steps + 1, dtype=np.int64)
            e = np.empty(0)
            return offsets, e.astype(np.int64), e, e.astype(np.int64), e
        p = np.concatenate(paths)
        t = np.concatenate(times)
        c = np.concatenate(chans)
        z = np.concatenate(marks)
        step = np.minimum((t / self.delta).astype(np.int64), n_steps - 1)
        order = np.lexsort((t, p, step))
        p, t, c, z, step = p[order], t[order], c[order], z[order], step[order]
        offsets = np.searchsorted(step, np.arange(n_steps + 1))
        return offsets, p, t, c, z

    def run(self, observers=()):
        """Step every path to t_end, calling the observers' hooks (see the
        module docstring); the states are then the terminal states."""
        P, dl, T, n_steps = self.n_paths, self.delta, self.t_end, self.n_steps
        offsets, ev_p, ev_t, ev_c, ev_z = self._generate_events(n_steps)
        hooks = {name: [getattr(w, name) for w in observers if hasattr(w, name)]
                 for name in ("start", "observe", "on_advance", "on_jump")}
        self._on_advance, self._on_jump = hooks["on_advance"], hooks["on_jump"]
        for start in hooks["start"]:
            start(self.states)

        # a non-finite state is reported as BlowUpError below
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(n_steps):
                t0 = s * dl
                t1 = min(T, (s + 1) * dl)
                lo, hi = offsets[s], offsets[s + 1]
                if lo == hi:
                    self._advance(None, np.full(P, t1 - t0), t1)
                else:
                    p, tt, cc, zz = ev_p[lo:hi], ev_t[lo:hi], ev_c[lo:hi], ev_z[lo:hi]
                    upaths, starts, counts = np.unique(p, return_index=True,
                                                       return_counts=True)
                    bound = np.full(P, t1)
                    bound[upaths] = tt[starts]
                    self._advance(None, bound - t0, bound)
                    nxt = np.full(hi - lo, t1)
                    same = p[1:] == p[:-1]
                    nxt[:-1][same] = tt[1:][same]
                    ranks = np.arange(hi - lo) - np.repeat(starts, counts)
                    for r in range(int(counts.max())):
                        sel = ranks == r
                        ps, ts, ends = p[sel], tt[sel], nxt[sel]
                        self._apply_jumps(ps, cc[sel], zz[sel], ts)
                        self._advance(ps, ends - ts, ends)
                for comp in self.components:
                    arr = self.states[comp.name]
                    ok = (np.isfinite(arr).all(axis=1)
                          & (np.abs(arr) < _STATE_CAP).all(axis=1))
                    if not ok.all():
                        raise self._blow_up(t1, np.flatnonzero(~ok))
                for observe in hooks["observe"]:
                    observe(s, t1, self.states)

    def _blow_up(self, t, bad):
        """BlowUpError naming the first offending block and its paths."""
        b = int(np.searchsorted(self.bounds, bad[0], side="right")) - 1
        lo, hi = self.bounds[b], self.bounds[b + 1]
        return BlowUpError(t, (bad[bad < hi] - lo).tolist(),
                           block=b if self.blocked else None)


def _checkpoint_steps(checkpoints, delta, t_end, n_steps) -> dict[int, float]:
    """Map each checkpoint to the index of the micro step that ends on it.

    A checkpoint must lie in (0, t_end] on the delta grid (relative
    tolerance 1e-9; t_end itself is always allowed), and no two may share
    a step: snapping would silently relabel states from other times.
    """
    cp_map: dict[int, float] = {}
    for t_cp in map(float, checkpoints):
        if not 0 < t_cp <= t_end:
            raise ConfigurationError(
                f"checkpoint {t_cp!r} lies outside (0, t_end={t_end!r}]")
        k = n_steps if t_cp == t_end else int(round(t_cp / delta))
        if t_cp != t_end and abs(k * delta - t_cp) > 1e-9 * t_cp:
            raise ConfigurationError(
                f"checkpoint {t_cp!r} is off the delta={delta!r} grid")
        if k - 1 in cp_map:
            raise ConfigurationError(
                f"checkpoints {cp_map[k - 1]!r} and {t_cp!r} fall on the same step")
        cp_map[k - 1] = t_cp
    return cp_map


def _implicit_increment(comp, sub, s, dte):
    if s.shape[1] != 1:
        raise ConfigurationError("split-step implicit scheme supports scalar components")
    u = s.copy()
    dcol = dte[:, None]
    for _ in range(50):
        d = np.asarray(comp.drift({**sub, comp.name: u}))
        g = u - s - dcol * d
        h = 1e-6 * (1.0 + np.abs(u))
        dp = (np.asarray(comp.drift({**sub, comp.name: u + h}))
              - np.asarray(comp.drift({**sub, comp.name: u - h}))) / (2.0 * h)
        gp = 1.0 - dcol * dp
        step = g / gp
        u = u - step
        if np.max(np.abs(step)) < 1e-12:
            break
    return u - s


def _build_compensator(jump_fn, measure: JumpMeasureSpec, probe_subs):
    """Drift correction -integral of h dnu, specialized where possible.

    Returns (form, closure): (None, None) when the integral vanishes
    identically (mark-linear map against a centered mark law), a constant
    closure when it is state-independent (form ("constant", row)), an
    affine-in-mark closed form otherwise, and a Gauss-Legendre quadrature
    over the bounded mark support as the general fallback. Equal forms
    give closures that compute the same values.

    The form is chosen once, at t = 0, from perturbed copies of every
    starting state in `probe_subs`; a path that later moves to where the
    map has another form keeps this one.
    """
    lam = float(measure.intensity)
    if lam == 0.0:
        return None, None
    m1 = float(measure.m1)

    def affine_value(sub):
        k = len(next(iter(sub.values())))
        c0 = np.asarray(jump_fn(sub, np.zeros(k)), dtype=float)
        if m1 == 0.0:
            return lam * c0
        c1 = np.asarray(jump_fn(sub, np.ones(k)), dtype=float) - c0
        return lam * (c0 + m1 * c1)

    is_affine = True
    vals = []
    for sub in probe_subs:
        k = len(next(iter(sub.values())))
        c0 = np.asarray(jump_fn(sub, np.zeros(k)), dtype=float)
        c1 = np.asarray(jump_fn(sub, np.ones(k)), dtype=float) - c0
        probe = np.asarray(jump_fn(sub, np.full(k, 0.37)), dtype=float)
        if not np.allclose(probe, c0 + 0.37 * c1, rtol=1e-9, atol=1e-12):
            is_affine = False
            break
        vals.append(lam * (c0 + m1 * c1))
    if is_affine:
        if all(np.all(v == 0.0) for v in vals):
            return None, None
        flat = [np.unique(v, axis=0) for v in vals]
        if all(f.shape[0] == 1 for f in flat) and np.array_equal(flat[0], flat[1]):
            const_row = flat[0][0]

            def constant(sub):
                k = len(next(iter(sub.values())))
                return np.broadcast_to(const_row, (k, const_row.size))

            return ("constant", tuple(const_row.tolist())), constant
        return "affine", affine_value

    nodes, weights = measure.size.quadrature(64)

    def quadrature(sub):
        k = len(next(iter(sub.values())))
        acc = weights[0] * np.asarray(jump_fn(sub, np.full(k, nodes[0])), dtype=float)
        for z, w in zip(nodes[1:], weights[1:]):
            acc = acc + w * np.asarray(jump_fn(sub, np.full(k, z)), dtype=float)
        return lam * acc

    return "quadrature", quadrature


# ---------------------------------------------------------------------------
# System builders
# ---------------------------------------------------------------------------


def _slow_jump_fn(model, state_name="x"):
    return lambda sub, z: model.slow_jump(sub[state_name], z)


def _fast_jump_fn(model, y_name="y"):
    return lambda sub, z: model.fast_jump(sub["x"], sub[y_name], z)


def _build_slow_fast(kernel: _Kernel, model: ModelSpec, x0, y0, eps, twin=None):
    cx = kernel.add_component(
        "x", model.dim_slow, x0,
        drift=lambda sub: model.slow_drift(sub["x"], sub["y"]),
        diffusion=lambda sub: model.slow_diffusion(sub["x"], sub["y"]),
        wiener="w1", wiener_dim=model.dw_slow, time_scale=1.0,
    )
    cy = kernel.add_component(
        "y", model.dim_fast, y0,
        drift=lambda sub: model.fast_drift(sub["x"], sub["y"]),
        diffusion=lambda sub: model.fast_diffusion(sub["x"], sub["y"]),
        wiener="w2", wiener_dim=model.dw_fast, time_scale=1.0 / eps,
    )
    slow_targets = [("x", _slow_jump_fn(model, "x"))]
    if twin is not None:
        ct = kernel.add_component(
            "xt", model.dim_slow, x0,
            drift=lambda sub: twin.drift(sub["xt"]),
            diffusion=lambda sub: model.slow_diffusion(sub["xt"], sub["y"]),
            wiener="w1", wiener_dim=model.dw_slow, time_scale=1.0,
        )
        slow_targets.append(("xt", _slow_jump_fn(model, "xt")))
    kernel.add_channel("slow", model.slow_measure, model.slow_measure.intensity,
                       slow_targets)
    kernel.add_channel("fast", model.fast_measure,
                       model.fast_measure.intensity / eps,
                       [("y", _fast_jump_fn(model))])
    kernel.set_compensator(cx, model.slow_measure, _slow_jump_fn(model, "x"))
    kernel.set_compensator(cy, model.fast_measure, _fast_jump_fn(model))
    if twin is not None:
        kernel.set_compensator(ct, model.slow_measure, _slow_jump_fn(model, "xt"))


def _build_frozen(kernel: _Kernel, model: ModelSpec, x, y0, second_y0=None):
    kernel.add_constant("x", x, model.dim_slow)
    cy = kernel.add_component(
        "y", model.dim_fast, y0,
        drift=lambda sub: model.fast_drift(sub["x"], sub["y"]),
        diffusion=lambda sub: model.fast_diffusion(sub["x"], sub["y"]),
        wiener="w2", wiener_dim=model.dw_fast, time_scale=1.0,
    )
    targets = [("y", _fast_jump_fn(model, "y"))]
    if second_y0 is not None:
        cz = kernel.add_component(
            "y2", model.dim_fast, second_y0,
            drift=lambda sub: model.fast_drift(sub["x"], sub["y2"]),
            diffusion=lambda sub: model.fast_diffusion(sub["x"], sub["y2"]),
            wiener="w2", wiener_dim=model.dw_fast, time_scale=1.0,
        )
        targets.append(("y2", _fast_jump_fn(model, "y2")))
    kernel.add_channel("fast", model.fast_measure, model.fast_measure.intensity,
                       targets)
    kernel.set_compensator(cy, model.fast_measure, _fast_jump_fn(model, "y"))
    if second_y0 is not None:
        kernel.set_compensator(cz, model.fast_measure, _fast_jump_fn(model, "y2"))


def _build_averaged(kernel: _Kernel, model: ModelSpec, avg, x0):
    if not getattr(avg, "has_diffusion", False):
        raise ConfigurationError("averaged coefficients lack squared-diffusion data")
    cx = kernel.add_component(
        "x", model.dim_slow, x0,
        drift=lambda sub: avg.drift(sub["x"]),
        diffusion=lambda sub: avg.diffusion_root(sub["x"]),
        wiener="w", wiener_dim=model.dim_slow, time_scale=1.0,
    )
    kernel.add_channel("slow", model.slow_measure, model.slow_measure.intensity,
                       [("x", _slow_jump_fn(model, "x"))])
    kernel.set_compensator(cx, model.slow_measure, _slow_jump_fn(model, "x"))


# ---------------------------------------------------------------------------
# Side channels of a run, as observers
# ---------------------------------------------------------------------------


class _Checkpoints:
    """Copies of the components' states at the ends of chosen steps."""

    def __init__(self, steps: dict[int, float], names):
        self.steps = steps
        self.names = names
        self.snapshots: dict[float, dict[str, np.ndarray]] = {}

    def observe(self, step, t, states):
        if step in self.steps:
            self.snapshots[self.steps[step]] = {n: states[n].copy()
                                                for n in self.names}


class _PairSup:
    """Per-path sup of |a - b| over the jump-augmented grid: after every
    advance, and after each jump channel that moves a or b has moved both."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def start(self, states):
        self.value = _norm(states[self.a] - states[self.b])

    def on_advance(self, rows, end, states):
        a, b = states[self.a], states[self.b]
        if rows is None:
            np.maximum(self.value, _norm(a - b), out=self.value)
        else:
            self.value[rows] = np.maximum(self.value[rows], _norm(a[rows] - b[rows]))

    def on_jump(self, rows, channel, marks, times, pre, states):
        if any(t in (self.a, self.b) for t, _ in channel.targets):
            self.on_advance(rows, times, states)


class _PathRecorder:
    """Path 0 on the jump-augmented grid, after every advance and jump at
    the kernel's own end and event times; one JumpEvent per jump target."""

    def __init__(self, names):
        self.names = names
        self.events = []

    def start(self, states):
        self.times = [0.0]
        self.rows = [[states[n][0].copy() for n in self.names]]

    def on_advance(self, rows, end, states):
        t = end if isinstance(end, float) else float(end[0])
        row = [states[n][0].copy() for n in self.names]
        if t > self.times[-1]:
            self.times.append(t)
            self.rows.append(row)
        else:       # a jump, or an empty advance, at the last time
            self.rows[-1] = row

    def on_jump(self, rows, channel, marks, times, pre, states):
        for target, _ in channel.targets:
            self.events.append(JumpEvent(
                time=float(times[0]), mark=float(marks[0]), channel=channel.name,
                target=target, pre=pre[target][0].copy(),
                post=states[target][0].copy(),
                context={n: v[0].copy() for n, v in pre.items() if n != target}))
        self.on_advance(rows, times, states)

    def sample(self, slow, fast) -> PathSample:
        """The path of components `slow` and `fast` (None: absent) and its events."""
        series = {n: np.array(v) for n, v in zip(self.names, zip(*self.rows))}
        return PathSample(
            times=np.asarray(self.times), slow=series.get(slow),
            fast=series.get(fast),
            events=[e for e in self.events if e.target in (slow, fast)],
        ).validate()


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _drive(build, n_paths, t_end, delta, scheme, stream, *, outputs, paths=None,
           sup=None, frozen=False, watchers=(), checkpoints=(), record=False):
    """Build, run and read out one kernel; every batch entry point ends here.

    `outputs` maps result keys to the components whose terminal states
    they hold. `sup` names the two components whose per-path sup distance
    `out["sup"]` holds. With `record`, `paths` maps result keys to the
    (slow, fast) component names of a recorded PathSample, carrying the
    events that hit those components.
    """
    if frozen and not 0 < delta <= _MAX_FAST_SUBSTEP * (1 + 1e-12):
        raise ConfigurationError("frozen dynamics require 0 < delta <= 1/16")
    if record and n_paths != 1:
        raise ConfigurationError("path recording requires a single path")
    kernel = _Kernel(n_paths=n_paths, t_end=t_end, delta=delta, scheme=scheme,
                     stream=stream)
    build(kernel)
    names = [c.name for c in kernel.components]
    snaps = _Checkpoints(
        _checkpoint_steps(checkpoints, delta, t_end, kernel.n_steps), names)
    tracker = _PairSup(*sup) if sup is not None else None
    recorder = _PathRecorder(names) if record else None
    kernel.run([w for w in (*watchers, snaps, tracker, recorder) if w is not None])
    out = {key: kernel.states[name].copy() for key, name in outputs.items()}
    out["checkpoints"] = snaps.snapshots
    if tracker is not None:
        out["sup"] = tracker.value
    if recorder is not None:
        out.update((key, recorder.sample(*comps)) for key, comps in paths.items())
    return out


def run_system_batch(model: ModelSpec, x0, y0, cfg: StepperConfig, n_paths: int,
                     stream: RngStream, *, watchers=(), checkpoints=(),
                     record: bool = False):
    """Vectorized batch of coupled slow-fast paths; returns terminal states,
    checkpoint snapshots and, with `record` (one path), the path."""
    return _drive(lambda k: _build_slow_fast(k, model, x0, y0, cfg.epsilon),
                  n_paths, cfg.t_end, cfg.delta, cfg.scheme, stream,
                  outputs={"terminal_slow": "x", "terminal_fast": "y"},
                  paths={"path": ("x", "y")}, watchers=watchers,
                  checkpoints=checkpoints, record=record)


def run_pair_batch(model: ModelSpec, avg, x0, y0, cfg: StepperConfig,
                   n_paths: int, stream: RngStream, *, checkpoints=(),
                   record: bool = False):
    """Coupled pairs (system, averaged) through identical W1 increments and
    identical slow jump events; the strong-error workhorse. `sup` is the
    per-pair sup distance over the jump-augmented grid."""
    if not model.sigma_y_independent:
        raise ConfigurationError(
            "pathwise coupling requires a slow diffusion independent of the fast state"
        )
    out = _drive(lambda k: _build_slow_fast(k, model, x0, y0, cfg.epsilon, twin=avg),
                 n_paths, cfg.t_end, cfg.delta, cfg.scheme, stream,
                 outputs={"terminal_system": "x", "terminal_averaged": "xt"},
                 paths={"path_system": ("x", "y"), "path_averaged": ("xt", None)},
                 sup=("x", "xt"), checkpoints=checkpoints, record=record)
    out["clamped"] = int(getattr(avg, "clamp_count", 0))
    return out


def run_frozen_batch(model: ModelSpec, x, y0, horizon: float, delta: float,
                     n_chains: int, stream: RngStream, *, watchers=(),
                     checkpoints=(), record: bool = False):
    """Vectorized frozen-equation chains at a fixed slow state `x`, or at
    one slow state per chain (shape (n_chains, dim), e.g. with stream
    blocks); with `record` (one chain), the path of the fast state."""
    return _drive(lambda k: _build_frozen(k, model, x, y0),
                  n_chains, horizon, delta, "tamed_euler", stream, frozen=True,
                  outputs={"terminal_fast": "y"}, paths={"path": (None, "y")},
                  watchers=watchers, checkpoints=checkpoints, record=record)


def run_frozen_pair_batch(model: ModelSpec, x, y0_a, y0_b, horizon: float,
                          delta: float, n_pairs: int, stream: RngStream, *,
                          watchers=()):
    """Synchronously coupled frozen pairs: same Wiener path, same jump
    events and marks, same slow state."""
    return _drive(lambda k: _build_frozen(k, model, x, y0_a, second_y0=y0_b),
                  n_pairs, horizon, delta, "tamed_euler", stream, frozen=True,
                  outputs={"final_a": "y", "final_b": "y2"}, watchers=watchers)


def run_averaged_batch(model: ModelSpec, avg, x0, cfg: StepperConfig,
                       n_paths: int, stream: RngStream, *, watchers=(),
                       checkpoints=(), record: bool = False):
    """Vectorized batch of weak-form averaged paths, driven by their own
    Wiener process and slow jump stream, with diffusion equal to the PSD
    root of the averaged squared diffusion."""
    return _drive(lambda k: _build_averaged(k, model, avg, x0),
                  n_paths, cfg.t_end, cfg.delta, cfg.scheme, stream,
                  outputs={"terminal_slow": "x"}, paths={"path": ("x", None)},
                  watchers=watchers, checkpoints=checkpoints, record=record)
