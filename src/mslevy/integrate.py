"""Jump-adapted, taming-stabilized time stepping.

One table-driven kernel integrates every dynamics in the toolkit: the
coupled slow-fast system, the frozen fast equation, the pathwise-coupled
averaged equation (shared Wiener increments and shared jump events for
strong-error measurement), the weak-form averaged equation, and
synchronously coupled fast pairs. Each has one `run_*_batch` entry point;
all five build, run and read out the kernel through one driver. A single
path is a batch of one: `record=True` (with `n_paths=1`) returns it as a
PathSample under `out["path"]`.

A run's time grid is its StepperConfig, and every stream block (below)
carries one. The frozen equation is the system's fast half at a fixed
slow state, on blocks at epsilon = 1, so its delta must be at most 1/16
and its horizon positive. The slow-only parts of its coefficients are
made once per run and kept as derived states, which every advance
gathers with its rows, and a jump round only where the channel's jump
map reads them. Each jump channel compensates its targets.

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
within it. Such a block carries the run's config.

Multi-rate blocks: a block `(RngStream, n_paths, cfg)` carries its own
StepperConfig. Its epsilon sets its fast time scale 1/eps and fast
jump rate intensity/eps, and its step must be a power-of-two multiple
m_b of the run's step, on the run's horizon and scheme, with the blocks
in order of their steps (`_rate_groups` sorts a set of configs into such
runs). The kernel walks the run's (finest) grid and at each step
advances only the blocks whose own step ends there, always a prefix of
the rows. Each block places its events on its own grid and computes its
step times as its own run would (s * delta_b is exact when m_b is a
power of two, and a per-row dt * (1/eps) is the scalar product), so the
order sweep's eps levels run as one kernel with the numbers of one
kernel per level. Such runs take no watchers and record no path; their
checkpoints must lie on every block's grid.

Scheme: between jump events, drift increments are tamed,
``drift * dt / (1 + dt * |drift|)``, which keeps explicit stepping stable
under superlinear monotone drifts; diffusion increments use the actual
elapsed sub-interval lengths (increments are generated forward, so no
bridge construction is needed); compensated jump measures contribute a
deterministic drift correction between events and the raw jump map at
events. Event times are exact draws of the constant-rate Poisson streams,
inserted into the micro grid path by path. A run draws them once, into a
schedule of rounds: round r of a step holds the (r+1)-th event of every
path that has that many in the step, in order of path. A step that no
event splits advances every active row by one scalar step in a
single-rate run (IEEE arithmetic on a broadcast scalar gives the bits of
a filled array), and by one step per row in a multi-rate run. A step
with events advances every active row to its first event, or to the
step's end; then each round applies its jumps and advances its rows to
their next event, or to the step's end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .model import ModelSpec, fast_coefficients
from .rng import JumpMeasureSpec, RngStream, _mark_affine, sample_jump_times_batch

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
            raise ConfigurationError(f"t_end must be positive, not {self.t_end!r}")
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(f"scheme must be one of {_SCHEMES}")
        if self.delta > self.epsilon * _MAX_FAST_SUBSTEP * (1 + 1e-12):
            raise ConfigurationError(
                f"delta={self.delta!r} exceeds epsilon/16 = {self.epsilon / 16!r}; "
                "the fast component would be under-resolved"
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
    wiener: str
    time_scale: object      # a float, or one value per row (multi-rate)
    compensator: object = None
    # components on one Wiener key at one float time scale (x and its
    # twin xt) share one scaled draw: the group's key in an advance's
    # draws, which its lead fills and the others read; None when alone
    noise: object = None
    lead: bool = False


@dataclass
class _Channel:
    name: str
    measure: JumpMeasureSpec
    rates: list      # one per block
    targets: list    # (component name, jump_fn)
    gather: tuple    # the states a jump round gathers for the targets


def _n_steps(t_end: float, delta: float) -> int:
    """Micro steps of a run to t_end at step delta; the last may be short."""
    return max(1, int(np.ceil(t_end / delta - 1e-9)))


def _steps_per(cfg: StepperConfig, run_cfg: StepperConfig):
    """The number m of run_cfg's steps in one step of `cfg`, when cfg's
    grid runs inside run_cfg's: the same horizon and scheme, a step that
    is exactly a power-of-two multiple m of the run's, and each own step
    ending on a distinct step of the run (the last on the run's last);
    else None."""
    delta, t_end = run_cfg.delta, run_cfg.t_end
    m = cfg.delta / delta
    if (cfg.t_end != t_end or cfg.scheme != run_cfg.scheme or m < 1 or m != int(m)
            or int(m) & (int(m) - 1) or cfg.delta != int(m) * delta):
        return None
    m, n, n_own = int(m), _n_steps(t_end, delta), _n_steps(t_end, cfg.delta)
    return m if (n_own - 1) * m < n <= n_own * m else None


def _rate_groups(cfgs) -> list[list[int]]:
    """Indices of `cfgs` in groups that each run as one multi-rate kernel,
    every group in order of step (ties in the given order) and led by
    its finest config; a config whose step no group's finest step
    divides by a power of two starts a group of its own."""
    groups: list[list[int]] = []
    for i in sorted(range(len(cfgs)), key=lambda i: cfgs[i].delta):
        for group in groups:
            if _steps_per(cfgs[i], cfgs[group[0]]):
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


def _stream_blocks(stream, n_paths: int, cfg: StepperConfig) -> list[tuple]:
    """`stream` as (RngStream, n_paths, cfg) blocks that cover the batch;
    a block's cfg is its own multi-rate config, or else the run's."""
    if isinstance(stream, RngStream):
        if n_paths < 1:
            raise ConfigurationError(f"a run needs at least one path, not {n_paths}")
        return [(stream, n_paths, cfg)]
    blocks = [(b[0], int(b[1]), b[2] if len(b) > 2 else cfg) for b in stream]
    if not blocks or any(n < 1 for _, n, _ in blocks):
        raise ConfigurationError("stream blocks must each hold at least one path")
    if sum(n for _, n, _ in blocks) != n_paths:
        raise ConfigurationError(
            f"stream blocks hold {sum(n for _, n, _ in blocks)} paths, not {n_paths}")
    return blocks


class _Kernel:
    """Vectorized jump-adapted stepping over a batch of paths."""

    def __init__(self, cfg: StepperConfig, n_paths, stream):
        self.n_paths = int(n_paths)
        self.t_end = float(cfg.t_end)
        self.delta = float(cfg.delta)
        self.scheme = cfg.scheme
        self.blocks = _stream_blocks(stream, self.n_paths, cfg)
        self.blocked = not isinstance(stream, RngStream)
        # row offsets of the blocks, closed by n_paths (Python ints, cheap
        # to slice with on every advance)
        self.bounds = np.cumsum([0] + [n for _, n, _ in self.blocks]).tolist()
        self._rows = self.bounds    # block rows of the current advance
        self.n_steps = _n_steps(self.t_end, self.delta)
        # per block: the run's steps per own step, its step and step count
        self.configs = [b[2] for b in self.blocks]
        self.mult = [_steps_per(c, cfg) for c in self.configs]
        if None in self.mult or self.mult[0] != 1 or self.mult != sorted(self.mult):
            raise ConfigurationError(
                "multi-rate blocks need steps that are power-of-two multiples of "
                "the run's step, on its horizon and scheme, in order from the "
                "run's step up")
        self.own_delta = [self.delta * m for m in self.mult]
        self.own_steps = [_n_steps(self.t_end, d) for d in self.own_delta]
        self.multi = self.mult[-1] > 1
        self.components: list[_Component] = []
        self.channels: list[_Channel] = []
        self.states: dict[str, np.ndarray] = {}
        self.derive = None          # add_derived's function, or None
        self.derived: tuple[str, ...] = ()
        self.wiener: dict[str, tuple[int, list[np.random.Generator]]] = {}
        self._on_advance = []       # the run's observer hooks
        self._on_jump = []

    # -- construction -----------------------------------------------------

    def per_block(self, values):
        """One value per block: the common float when they agree, else an
        array that repeats each block's value over its rows."""
        values = [float(v) for v in values]
        if len(set(values)) == 1:
            return values[0]
        return np.repeat(values, np.diff(self.bounds))

    def add_component(self, name, dim, init, *, drift, diffusion, wiener,
                      wiener_dim=0, time_scale=1.0):
        """time_scale: a float, or per_block's value."""
        self.states[name] = _init_state(init, dim, self.n_paths)
        if np.ndim(time_scale) == 0:
            time_scale = float(time_scale)
        comp = _Component(name, dim, drift, diffusion, wiener, time_scale)
        if type(time_scale) is float:
            lead = next((c for c in self.components if c.wiener == wiener
                         and type(c.time_scale) is float
                         and c.time_scale == time_scale), None)
            if lead is not None:
                lead.noise = comp.noise = (wiener, time_scale)
                lead.lead = True
        self.components.append(comp)
        if wiener not in self.wiener:
            gens = [b[0].child(f"wiener:{wiener}").generator() for b in self.blocks]
            self.wiener[wiener] = (int(wiener_dim), gens)

    def add_derived(self, derive):
        """Per-row arrays derive(states) -> {name: array}, made once from the
        states and kept among them after the components, so that every
        advance and jump gathers them with its rows; the compensator
        probes derive them again from their perturbed states. Add them
        after the components and before the channels."""
        arrays = derive(self.states)
        self.derive, self.derived = derive, tuple(arrays)
        self.states.update(arrays)

    def add_channel(self, name, measure: JumpMeasureSpec, rate, targets, reads=()):
        """rate: a float, or one per block; targets: list of
        (component_name, jump_fn(sub, marks)->(k,dim)), whose `sub` holds
        every state but the derived ones outside `reads`. Every target gets
        the channel's compensator, so add the channels after the
        components: the compensator probes perturb every state."""
        rates = [rate] * len(self.blocks) if np.ndim(rate) == 0 else list(rate)
        gather = tuple(n for n in self.states if n not in self.derived or n in reads)
        self.channels.append(_Channel(name, measure, [float(r) for r in rates],
                                      list(targets), gather))
        comps = {c.name: c for c in self.components}
        for target, jump_fn in targets:
            # each block probes its own rows, as a separate run would
            forms = [_build_compensator(jump_fn, measure, self._probe_subs(lo, hi))
                     for lo, hi in zip(self.bounds[:-1], self.bounds[1:])]
            comps[target].compensator = self._blockwise(forms, comps[target].dim)

    def _probe_subs(self, lo, hi):
        """Two perturbed copies of every starting state of rows lo:hi."""
        gen = np.random.Generator(np.random.Philox(0xC0FFEE))
        subs = []
        for _ in range(2):
            sub = {n: a[lo:hi] + gen.uniform(-1.0, 1.0, a[lo:hi].shape)
                   for n, a in self.states.items() if n not in self.derived}
            if self.derive is not None:
                sub.update(self.derive(sub))
            subs.append(sub)
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
        """Step rows idx (every row if None; a slice for a prefix of the
        rows) by dt to their end time(s)."""
        states = self.states
        if idx is None:
            sub = states
            k = self.n_paths
            rows = self.bounds
        else:
            sub = {n: a[idx] for n, a in states.items()}
            if isinstance(idx, slice):
                k = idx.stop
                rows = [min(b, k) for b in self.bounds]
            else:
                # idx is ascending, so each block's rows are contiguous
                k = len(idx)
                rows = np.searchsorted(idx, self.bounds).tolist()
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
            scale = comp.time_scale
            if type(scale) is not float:
                dte = dt * (scale if idx is None else scale[idx])
            elif scale == 1.0:
                dte = dt        # the bits of dt * 1.0
            else:
                dte = dt * scale
            col = dte if isinstance(dte, float) else dte[:, None]
            d = np.asarray(comp.drift(sub))
            if self.scheme == "tamed_euler":
                fac = dte / (1.0 + dte * _norm(d))
                inc = d * fac[:, None]
            elif self.scheme == "split_step_implicit":
                inc = _implicit_increment(comp, sub, s, col)
            else:
                inc = d * col
            if comp.compensator is not None:
                inc = inc - comp.compensator(sub) * col
            g = np.asarray(comp.diffusion(sub))
            if comp.noise is None:
                dw = draws[comp.wiener] * np.sqrt(col)
            elif comp.lead:
                dw = draws[comp.noise] = draws[comp.wiener] * np.sqrt(col)
            else:
                dw = draws[comp.noise]
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

    def _apply_jumps(self, paths, kind, chans, marks, times):
        """One jump round, one event per path: its channel `kind`'s, or
        (kind None) each channel's events in the order of the channels."""
        if kind is not None:
            self._jump(self.channels[kind], paths, marks, times)
            return
        for ci, chan in enumerate(self.channels):
            m = chans == ci
            if m.any():
                self._jump(chan, paths[m], marks[m], times[m])

    def _jump(self, chan, idx, z, times):
        """Channel `chan`'s events at rows idx, with marks z."""
        states = self.states
        sub = {n: states[n][idx] for n in chan.gather}
        for tname, jfn in chan.targets:
            states[tname][idx] = sub[tname] + np.asarray(jfn(sub, z))
        for hook in self._on_jump:
            hook(idx, chan, z, times, sub, states)

    def _generate_events(self):
        """The run's jump schedule, in rounds: round r of a step holds the
        (r+1)-th event of each path that has that many in the step, in
        order of path. Returns (steps, cuts, kinds, path, time, channel,
        mark): step s has rounds steps[s]:steps[s + 1], round j has events
        cuts[j]:cuts[j + 1] and the one channel kinds[j] (None: it mixes
        channels), and per event its path (int32), time, channel (int32)
        and mark, as read-only arrays. A block draws its events at its own
        rate and places each on its own grid, on the step of the run where
        that own step ends."""
        pieces = []
        for ci, chan in enumerate(self.channels):
            for b, ((stream, n, _), rate) in enumerate(zip(self.blocks, chan.rates)):
                if rate <= 0:
                    continue
                p, t = sample_jump_times_batch(
                    rate, self.t_end, n, stream.child(f"events:{chan.name}"))
                gen = stream.child(f"marks:{chan.name}").generator()
                pieces.append((b, ci, p, t, chan.measure.size.sample(gen, len(t))))
        # filled piece by piece, each dropped once copied: the schedule is
        # the largest allocation of a wide run. Each channel's pieces come
        # in order of (path, time), and so of (path, step)
        channels = len({piece[1] for piece in pieces})
        total = sum(len(piece[3]) for piece in pieces)
        step, path, chans = (np.empty(total, dtype=np.int32) for _ in range(3))
        times, marks = np.empty(total), np.empty(total)
        at = 0
        while pieces:
            b, ci, p, t, z = pieces.pop(0)
            k = slice(at, at + len(t))
            own = np.minimum((t / self.own_delta[b]).astype(np.int64),
                             self.own_steps[b] - 1)
            step[k] = np.minimum((own + 1) * self.mult[b], self.n_steps) - 1
            path[k] = p + self.bounds[b]
            chans[k] = ci
            times[k] = t
            marks[k] = z
            at = k.stop
            del p, t, z, own

        def reorder(order, *ints):
            spare = np.empty(total, dtype=np.int32)
            for arr in (step, path, chans, *ints):
                np.take(arr, order, out=spare, mode="clip")
                arr[:] = spare
            spare = np.empty(total)
            for arr in (times, marks):
                np.take(arr, order, out=spare, mode="clip")
                arr[:] = spare

        if channels > 1:
            reorder(np.lexsort((times, path)))      # merge the channels
        # each event's rank in its (path, step) run, then the stable order
        # by (step, rank), in which a round's paths ascend
        new = np.ones(total, dtype=bool)
        new[1:] = (step[1:] != step[:-1]) | (path[1:] != path[:-1])
        rank = np.arange(total, dtype=np.int32)
        rank -= np.maximum.accumulate(np.where(new, rank, 0))
        reorder(np.lexsort((rank, step)), rank)
        new[1:] = (step[1:] != step[:-1]) | (rank[1:] != rank[:-1])
        first = np.flatnonzero(new)
        steps = np.searchsorted(step[first], np.arange(self.n_steps + 1)).tolist()
        kinds = []
        if total:
            kinds = [lo if lo == hi else None for lo, hi in zip(
                np.minimum.reduceat(chans, first).tolist(),
                np.maximum.reduceat(chans, first).tolist())]
        del step, rank, new
        for arr in (path, times, chans, marks):
            arr.flags.writeable = False
        return steps, first.tolist() + [total], kinds, path, times, chans, marks

    def _clock(self):
        """For a multi-rate run: step s of the run -> (rows, k, t0, t1),
        the active rows (a slice of the first k, or None for all), and
        their own step's start and end times, each block's computed on its
        own grid as its own run would. The blocks are in order of their
        steps, which are powers of two of the run's, so the blocks whose
        step ends on a given step of the run are a prefix of them."""
        P, T, last = self.n_paths, self.t_end, self.n_steps - 1
        t0, t1 = np.empty(P), np.empty(P)
        per_block = list(zip(self.bounds[:-1], self.bounds[1:], self.mult,
                             self.own_delta, self.own_steps))

        def at(s):
            k = 0
            for lo, hi, m, d, n in per_block:
                if s == last:
                    own = n - 1
                elif (s + 1) % m:
                    break
                else:
                    own = (s + 1) // m - 1
                t0[lo:hi] = own * d
                t1[lo:hi] = min(T, (own + 1) * d)
                k = hi
            return (None if k == P else slice(0, k)), k, t0[:k], t1[:k]

        return at

    def run(self, observers=()):
        """Step every path to t_end, calling the observers' hooks (see the
        module docstring); the states are then the terminal states."""
        P, dl, T, n_steps = self.n_paths, self.delta, self.t_end, self.n_steps
        steps, cuts, kinds, ev_p, ev_t, ev_c, ev_z = self._generate_events()
        hooks = {name: [getattr(w, name) for w in observers if hasattr(w, name)]
                 for name in ("start", "observe", "on_advance", "on_jump")}
        self._on_advance, self._on_jump = hooks["on_advance"], hooks["on_jump"]
        for start in hooks["start"]:
            start(self.states)
        clock = self._clock() if self.multi else None
        rows, k = None, P

        # a non-finite state is reported as BlowUpError below
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(n_steps):
                t_run = min(T, (s + 1) * dl)
                if clock is None:
                    t0, t1 = s * dl, t_run
                else:
                    rows, k, t0, t1 = clock(s)
                a, b = steps[s], steps[s + 1]
                if a == b:
                    # a scalar step, or one per row of a multi-rate run
                    self._advance(rows, t1 - t0, t1)
                else:
                    # up to each path's first event, then round by round:
                    # jump, and on to the path's next event or step end
                    lo, hi = cuts[a], cuts[a + 1]
                    bound = np.full(k, t1)
                    bound[ev_p[lo:hi]] = ev_t[lo:hi]
                    self._advance(rows, bound - t0, bound)
                    for j in range(a, b):
                        lo, hi = cuts[j], cuts[j + 1]
                        p, ts = ev_p[lo:hi], ev_t[lo:hi]
                        ends = np.full(hi - lo, t1) if clock is None else t1[p]
                        if j + 1 < b:
                            nxt = slice(hi, cuts[j + 2])
                            ends[np.searchsorted(p, ev_p[nxt])] = ev_t[nxt]
                        self._apply_jumps(p, kinds[j], ev_c[lo:hi], ev_z[lo:hi], ts)
                        self._advance(p, ends - ts, ends)
                for comp in self.components:
                    arr = self.states[comp.name]
                    if rows is not None:
                        arr = arr[:k]
                    # one reduction per step; NaN and +-inf fail it too
                    if not np.abs(arr).max() < _STATE_CAP:
                        ok = (np.abs(arr) < _STATE_CAP).all(axis=1)
                        raise self._blow_up(t1, np.flatnonzero(~ok))
                for observe in hooks["observe"]:
                    observe(s, t_run, self.states)

    def _blow_up(self, t, bad):
        """BlowUpError naming the first offending block, its paths and the
        end of its step (t: one time, or one per active row)."""
        b = int(np.searchsorted(self.bounds, bad[0], side="right")) - 1
        lo, hi = self.bounds[b], self.bounds[b + 1]
        return BlowUpError(t if np.ndim(t) == 0 else t[bad[0]],
                           (bad[bad < hi] - lo).tolist(),
                           block=b if self.blocked else None)

    def checkpoint_steps(self, checkpoints) -> dict[int, float]:
        """`_checkpoint_steps` on the run's grid, after checking the
        checkpoints against every block's own grid, coarsest first."""
        for d, n in sorted(set(zip(self.own_delta, self.own_steps)), reverse=True):
            _checkpoint_steps(checkpoints, d, self.t_end, n)
        return _checkpoint_steps(checkpoints, self.delta, self.t_end, self.n_steps)


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


def _implicit_increment(comp, sub, s, dcol):
    """The split-step implicit increment over a step of dcol: a scalar, or
    a column of one step per row."""
    if s.shape[1] != 1:
        raise ConfigurationError("split-step implicit scheme supports scalar components")
    u = s.copy()
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

    vals = []
    for sub in probe_subs:
        k = len(next(iter(sub.values())))
        coefs = _mark_affine(lambda z: np.asarray(jump_fn(sub, z), dtype=float), k)
        if coefs is None:
            break
        vals.append(lam * (coefs[0] + m1 * coefs[1]))
    else:
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

    nodes, weights = measure.size.quadrature()

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


def _slow_jump_fn(model, name):
    return lambda sub, z: model.slow_jump(sub[name], z)


def _add_slow(kernel: _Kernel, model: ModelSpec, name, x0, drift):
    """A slow component on W1 with `drift`, diffusing as the model's x."""
    kernel.add_component(
        name, model.dim_slow, x0, drift=drift,
        diffusion=lambda sub: model.slow_diffusion(sub[name], sub["y"]),
        wiener="w1", wiener_dim=model.dw_slow,
    )


def _fast_half(kernel: _Kernel, model: ModelSpec, y0s, binds, reads):
    """The fast equation on W2 at each block's eps (time scale 1/eps), one
    component per initial state: y, then its synchronous copy y2, with
    the coefficients `binds` that read the prelude keys `reads`
    (`model.fast_coefficients`). Returns the fast channel's rates
    (intensity/eps), targets and the prelude keys its jump map reads."""
    eps = [cfg.epsilon for cfg in kernel.configs]
    names = ["y", "y2"][:len(y0s)]
    drift, diffusion, jump = binds
    for name, y0 in zip(names, y0s):
        kernel.add_component(
            name, model.dim_fast, y0, drift=drift(name), diffusion=diffusion(name),
            wiener="w2", wiener_dim=model.dw_fast,
            time_scale=kernel.per_block([1.0 / e for e in eps]),
        )
    return ([model.fast_measure.intensity / e for e in eps],
            [(name, jump(name)) for name in names], reads[2])


def _build_slow_fast(kernel: _Kernel, model: ModelSpec, x0, y0, twin=None):
    """The coupled system at each block's eps; with the averaged `twin`,
    the coupled pair (x and xt share W1 and the slow jumps), whose extra
    output "clamped" counts each block's table clamps (`_Clamps`)."""
    _add_slow(kernel, model, "x", x0,
              lambda sub: model.slow_drift(sub["x"], sub["y"]))
    fast = _fast_half(kernel, model, [y0], *fast_coefficients(model)[1:])
    slow = ["x"]
    if twin is not None:
        clamps = _Clamps(twin, kernel)
        _add_slow(kernel, model, "xt", x0, lambda sub: clamps.drift(sub["xt"]))
        slow.append("xt")
    kernel.add_channel("slow", model.slow_measure, model.slow_measure.intensity,
                       [(n, _slow_jump_fn(model, n)) for n in slow])
    kernel.add_channel("fast", model.fast_measure, *fast)
    if twin is not None:
        return {"clamped": clamps.counts}


class _Clamps:
    """The averaged coefficients' lookups of a run, counting per block the
    rows that fell outside the table's box (the mask a table leaves in
    `outside`; exact coefficients leave None)."""

    def __init__(self, avg, kernel: _Kernel):
        self.avg, self.kernel = avg, kernel
        self.counts = np.zeros(len(kernel.blocks), dtype=np.int64)

    def drift(self, x):
        return self._count(self.avg.drift(x))

    def diffusion_root(self, x):
        return self._count(self.avg.diffusion_root(x))

    def _count(self, value):
        outside = self.avg.outside
        if outside is not None:
            seen = np.concatenate(([0], np.cumsum(outside)))
            self.counts += np.diff(seen[self.kernel._rows])
        return value


def _build_frozen(kernel: _Kernel, model: ModelSpec, x, y0s):
    """The frozen equation: the fast half at the constant slow state `x`,
    on blocks at eps = 1. The slow-only parts of its coefficients are
    made once per run, as derived states after the fast components."""
    kernel.states["x"] = _init_state(x, model.dim_slow, kernel.n_paths)
    prelude, binds, reads = fast_coefficients(model, frozen=True)
    fast = _fast_half(kernel, model, y0s, binds, reads)
    kernel.add_derived(lambda states: prelude(states["x"]))
    kernel.add_channel("fast", model.fast_measure, *fast)


def _build_averaged(kernel: _Kernel, model: ModelSpec, avg, x0):
    """The weak-form averaged equation on its own W and slow jumps, whose
    extra output "clamped" counts each block's table clamps (`_Clamps`)."""
    if not avg.has_diffusion:
        raise ConfigurationError("averaged coefficients lack squared-diffusion data")
    clamps = _Clamps(avg, kernel)
    kernel.add_component(
        "x", model.dim_slow, x0,
        drift=lambda sub: clamps.drift(sub["x"]),
        diffusion=lambda sub: clamps.diffusion_root(sub["x"]),
        wiener="w", wiener_dim=model.dim_slow,
    )
    kernel.add_channel("slow", model.slow_measure, model.slow_measure.intensity,
                       [("x", _slow_jump_fn(model, "x"))])
    return {"clamped": clamps.counts}


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
        elif isinstance(rows, slice):
            value = self.value[rows]
            np.maximum(value, _norm(a[rows] - b[rows]), out=value)
        else:
            self.value[rows] = np.maximum(self.value[rows], _norm(a[rows] - b[rows]))

    def on_jump(self, rows, channel, marks, times, pre, states):
        if any(t in (self.a, self.b) for t, _ in channel.targets):
            self.on_advance(rows, times, states)


class _PathRecorder:
    """Path 0 on the jump-augmented grid, after every advance and jump at
    the kernel's own end and event times; one JumpEvent per jump target,
    whose context holds the other states, less the `derived` ones."""

    def __init__(self, names, derived):
        self.names, self.derived = names, derived
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
                context={n: v[0].copy() for n, v in pre.items()
                         if n != target and n not in self.derived}))
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


def _drive(build, cfg: StepperConfig, n_paths, stream, *, outputs, paths=None,
           sup=None, watchers=(), checkpoints=(), record=False):
    """Build, run and read out one kernel on the time grid of `cfg` (and
    of the blocks' own configs); every batch entry point ends here.

    `build(kernel)` may return extra outputs, read after the run.
    `outputs` maps result keys to the components whose terminal states
    they hold. `sup` names the two components whose per-path sup distance
    `out["sup"]` holds. With `record`, `paths` maps result keys to the
    (slow, fast) component names of a recorded PathSample, carrying the
    events that hit those components.
    """
    if record and n_paths != 1:
        raise ConfigurationError("path recording requires a single path")
    kernel = _Kernel(cfg, n_paths, stream)
    if kernel.multi and watchers:
        raise ConfigurationError("watchers need blocks of one step")
    extra = build(kernel) or {}
    names = [c.name for c in kernel.components]
    snaps = _Checkpoints(kernel.checkpoint_steps(checkpoints), names)
    tracker = _PairSup(*sup) if sup is not None else None
    recorder = _PathRecorder(names, kernel.derived) if record else None
    kernel.run([w for w in (*watchers, snaps, tracker, recorder) if w is not None])
    out = {key: kernel.states[name].copy() for key, name in outputs.items()}
    out["checkpoints"] = snaps.snapshots
    if tracker is not None:
        out["sup"] = tracker.value
    if recorder is not None:
        out.update((key, recorder.sample(*comps)) for key, comps in paths.items())
    out.update(extra)
    return out


def run_system_batch(model: ModelSpec, x0, y0, cfg: StepperConfig, n_paths: int,
                     stream: RngStream, *, watchers=(), checkpoints=(),
                     record: bool = False):
    """Vectorized batch of coupled slow-fast paths; returns terminal states,
    checkpoint snapshots and, with `record` (one path), the path."""
    return _drive(lambda k: _build_slow_fast(k, model, x0, y0), cfg, n_paths, stream,
                  outputs={"terminal_slow": "x", "terminal_fast": "y"},
                  paths={"path": ("x", "y")}, watchers=watchers,
                  checkpoints=checkpoints, record=record)


def run_pair_batch(model: ModelSpec, avg, x0, y0, cfg: StepperConfig,
                   n_paths: int, stream: RngStream, *, checkpoints=(),
                   record: bool = False):
    """Coupled pairs (system, averaged) through identical W1 increments and
    identical slow jump events; the strong-error workhorse. `sup` is the
    per-pair sup distance over the jump-augmented grid, and `clamped` the
    number of the averaged twin's table clamps in each stream block.

    Multi-rate blocks `(RngStream, n, cfg_b)` (see the module docstring)
    run several eps levels as one kernel; `cfg` is then the finest
    level's config."""
    if not model.sigma_y_independent:
        raise ConfigurationError(
            "pathwise coupling requires a slow diffusion independent of the fast state"
        )
    return _drive(lambda k: _build_slow_fast(k, model, x0, y0, twin=avg), cfg,
                  n_paths, stream,
                  outputs={"terminal_system": "x", "terminal_averaged": "xt"},
                  paths={"path_system": ("x", "y"), "path_averaged": ("xt", None)},
                  sup=("x", "xt"), checkpoints=checkpoints, record=record)


def run_frozen_batch(model: ModelSpec, x, y0, horizon: float, delta: float,
                     n_chains: int, stream: RngStream, *, watchers=(),
                     checkpoints=(), record: bool = False):
    """Vectorized frozen-equation chains at a fixed slow state `x`, or at
    one slow state per chain (shape (n_chains, dim), e.g. with stream
    blocks); with `record` (one chain), the path of the fast state. Its
    config is StepperConfig(epsilon=1.0, delta=delta, t_end=horizon)."""
    return _drive(lambda k: _build_frozen(k, model, x, [y0]),
                  StepperConfig(epsilon=1.0, delta=delta, t_end=horizon),
                  n_chains, stream, outputs={"terminal_fast": "y"},
                  paths={"path": (None, "y")}, watchers=watchers,
                  checkpoints=checkpoints, record=record)


def run_frozen_pair_batch(model: ModelSpec, x, y0_a, y0_b, horizon: float,
                          delta: float, n_pairs: int, stream: RngStream, *,
                          watchers=()):
    """Synchronously coupled frozen pairs: same Wiener path, same jump
    events and marks, same slow state."""
    return _drive(lambda k: _build_frozen(k, model, x, [y0_a, y0_b]),
                  StepperConfig(epsilon=1.0, delta=delta, t_end=horizon),
                  n_pairs, stream, outputs={"final_a": "y", "final_b": "y2"},
                  watchers=watchers)


def run_averaged_batch(model: ModelSpec, avg, x0, cfg: StepperConfig,
                       n_paths: int, stream: RngStream, *, watchers=(),
                       checkpoints=(), record: bool = False):
    """Vectorized batch of weak-form averaged paths, driven by their own
    Wiener process and slow jump stream, with diffusion equal to the PSD
    root of the averaged squared diffusion. `clamped` is the number of
    table clamps in each stream block, counting drift and diffusion
    lookups (two per advance)."""
    return _drive(lambda k: _build_averaged(k, model, avg, x0), cfg, n_paths, stream,
                  outputs={"terminal_slow": "x"}, paths={"path": ("x", None)},
                  watchers=watchers, checkpoints=checkpoints, record=record)
