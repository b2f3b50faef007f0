"""Span tracer that wraps mslevy's public functions from outside.

Only the traced worker process installs it. Coarse public calls get one
span each (name, start, end, parent). Per-step leaf calls (coefficient
maps, compiled expressions, observers, table lookups, random draws) are
aggregated per (parent span, name) into a count, a total and a self time,
so the trace stays small however many steps run. A frame's self time is
its duration minus the time of the frames nested in it, so the self
times of all frames add up to the duration of the outermost span.

Wrappers pass arguments and results through untouched and make no random
draw, so traced artifacts must equal untraced ones byte for byte.
"""

from __future__ import annotations

import copy
import inspect
import sys
import time

from workloads import n_steps

_KERNELS = ("run_system_batch", "run_pair_batch", "run_frozen_batch",
            "run_frozen_pair_batch", "run_averaged_batch")
_DRAWS = ("standard_normal", "normal", "uniform", "poisson", "integers",
          "exponential", "random")
_COEFFICIENTS = ("slow_drift", "slow_diffusion", "slow_jump", "fast_drift",
                 "fast_diffusion", "fast_jump")
LAYERS = ("cli", "integrate", "rng", "model", "expressions", "observers",
          "ergodic", "estimate")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # frame: [nested time, id of the innermost span]; span 0 is the root
        self.stack = [[0.0, 0]]
        self.spans = []          # (id, name, parent, start, end, self_s)
        self.leaves = {}         # (span id, name) -> [count, total_s, self_s]
        # kernel span id -> [steps, paths, advances, advance rows, seconds];
        # an advance is a fast-drift call made directly inside a kernel span
        self.kernels = {}
        self.counts = {"rng.events": 0, "ergodic.sample_bytes": 0,
                       "estimate.bootstrap_resamples": 0}
        self.draws = 0
        self.normals = 0
        self._next_id = 1

    # -- frames ----------------------------------------------------------------

    def span(self, name, fn, after=None, before=None):
        """Wrap fn in a span. before(arguments, span_id) may replace bound
        arguments; after(arguments, result) sees the result."""
        stack, clock = self.stack, self.clock
        sig = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            bound = sig.bind(*args, **kwargs)
            if before is not None:
                before(bound.arguments, sid)
            parent = stack[-1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                self.spans.append((sid, name, parent[1], t0, t1, dur - frame[0]))
                if sid in self.kernels:
                    self.kernels[sid][4] = dur
            if after is not None:
                after(bound.arguments, result)
            return result

        return wrapped

    def leaf(self, name, fn, on_call=None):
        """Wrap a per-step callable; on_call(args, span_id) may count it."""
        stack, clock, agg = self.stack, self.clock, self.leaves

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[0] += dur
                rec = agg.get((sid, name))
                if rec is None:
                    rec = agg[(sid, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if on_call is not None:
                    on_call(args, sid)

        return wrapped

    def _on_fast_drift(self, args, sid):
        kernel = self.kernels.get(sid)
        if kernel is not None:
            kernel[2] += 1
            kernel[3] += len(args[0])

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap mslevy's public entry points in every loaded mslevy module."""
        from mslevy import cli, ergodic, estimate, integrate, model, rng

        modules = [m for n, m in sys.modules.items()
                   if n == "mslevy" or n.startswith("mslevy.")]

        def replace(original, wrapper):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        def kernel_before(arguments, sid):
            if "cfg" in arguments:
                horizon, delta = arguments["cfg"].t_end, arguments["cfg"].delta
            else:
                horizon, delta = arguments["horizon"], arguments["delta"]
            paths = next(arguments[k] for k in ("n_paths", "n_chains", "n_pairs")
                         if k in arguments)
            self.kernels[sid] = [n_steps(horizon, delta), int(paths), 0, 0, 0.0]
            if arguments.get("watchers"):
                arguments["watchers"] = tuple(_Observer(w, self)
                                              for w in arguments["watchers"])

        for name in _KERNELS:
            fn = getattr(integrate, name)
            replace(fn, self.span(f"integrate.{name}", fn, before=kernel_before))

        def count_events(arguments, result):
            self.counts["rng.events"] += len(result[1])

        fn = rng.sample_jump_times_batch
        replace(fn, self.span("rng.sample_jump_times_batch", fn, after=count_events))

        def count_sample(arguments, result):
            self.counts["ergodic.sample_bytes"] += result.samples.nbytes

        def count_boot(arguments, result):
            self.counts["estimate.bootstrap_resamples"] += arguments["n_boot"]

        for mod, name, after in (
                (ergodic, "build_averaged_table", None),
                (ergodic, "estimate_invariant_measure", count_sample),
                (ergodic, "poisson_cell", None),
                (ergodic, "load_averaged_table", None),
                (estimate, "strong_error", None),
                (estimate, "bootstrap_ci", count_boot)):
            fn = getattr(mod, name)
            layer = mod.__name__.rsplit(".", 1)[1]
            replace(fn, self.span(f"{layer}.{name}", fn, after=after))

        table = ergodic.AveragedTable
        table.drift = self.leaf("ergodic.table_lookup", table.drift)
        table.diffusion_root = self.leaf("ergodic.table_lookup",
                                         table.diffusion_root)
        sample = ergodic.InvariantSample
        sample.mean_ci = self.leaf("ergodic.mean_ci", sample.mean_ci)

        original_generator = rng.RngStream.generator

        def generator(stream):
            return _DrawCounter(original_generator(stream), self)

        rng.RngStream.generator = self.leaf("rng.generator", generator)

        compile_expression = model.compile_expression

        def compile_traced(text, variables):
            return self.leaf("expressions.evaluate",
                             compile_expression(text, variables))

        model.compile_expression = compile_traced

        get_model = cli.get_model

        def get_model_traced(ref):
            spec = copy.copy(get_model(ref))
            for coef in _COEFFICIENTS:
                on_call = self._on_fast_drift if coef == "fast_drift" else None
                object.__setattr__(spec, coef, self.leaf(
                    f"model.{coef}", getattr(spec, coef), on_call))
            return spec

        cli.get_model = get_model_traced
        return self.span("cli.run", cli.run)

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced command, which took wall_s."""
        layer_self = dict.fromkeys(LAYERS, 0.0)
        spans = {}
        for sid, name, parent, t0, t1, self_s in self.spans:
            layer_self[name.split(".")[0]] += self_s
            tot = spans.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += t1 - t0
            tot[2] += self_s
        leaves = {}
        draw_s = 0.0
        for (sid, name), (count, total, self_s) in self.leaves.items():
            layer_self[name.split(".")[0]] += self_s
            tot = leaves.setdefault(name, [0, 0.0, 0.0])
            tot[0] += count
            tot[1] += total
            tot[2] += self_s
            if name.startswith("rng.") and name != "rng.generator":
                draw_s += self_s

        def calls(layer):
            return sum(v[0] for k, v in leaves.items() if k.startswith(layer + "."))

        none = (0, 0.0, 0.0)
        steps = sum(k[0] for k in self.kernels.values())
        path_steps = sum(k[0] * k[1] for k in self.kernels.values())
        adv = sum(k[2] for k in self.kernels.values())
        rows = sum(k[3] for k in self.kernels.values())
        kernel_s = sum(k[4] for k in self.kernels.values())
        lookup = leaves.get("ergodic.table_lookup", none)
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "integrate.steps": steps,
            "integrate.advances": adv,
            "integrate.advances_per_step": adv / steps if steps else 0.0,
            "integrate.mean_advance_width": rows / adv if adv else 0.0,
            "integrate.us_per_advance": 1e6 * kernel_s / adv if adv else 0.0,
            "integrate.ns_per_path_step": 1e9 * kernel_s / path_steps if path_steps else 0.0,
            "rng.normals": self.normals,
            "rng.events": self.counts["rng.events"],
            "rng.ns_per_draw": 1e9 * draw_s / self.draws if self.draws else 0.0,
            "model.calls": calls("model"),
            "expressions.calls": calls("expressions"),
            "observers.calls": calls("observers"),
            "ergodic.table_lookup_s": lookup[1],
            "ergodic.table_lookups": lookup[0],
            # ESS and batch-index work after the chains ran, plus batch means
            "ergodic.invariant_post_s": (
                spans.get("ergodic.estimate_invariant_measure", none)[2]
                + leaves.get("ergodic.mean_ci", none)[1]),
            "ergodic.sample_bytes": self.counts["ergodic.sample_bytes"],
            "estimate.bootstrap_s": spans.get("estimate.bootstrap_ci", none)[1],
            "estimate.bootstrap_resamples": self.counts["estimate.bootstrap_resamples"],
            "cli.cache_hits": spans.get("ergodic.load_averaged_table", none)[0],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(layer_self.values()),
        })
        return out

    def kernel_runs(self) -> list:
        """[seconds, advances, advance rows] of every kernel span."""
        return [[k[4], k[2], k[3]] for k in self.kernels.values()]


class _DrawCounter:
    """Generator proxy: the same draws, timed and counted per variate."""

    def __init__(self, gen, tracer):
        self._gen = gen
        for name in _DRAWS:
            setattr(self, name, tracer.leaf(f"rng.{name}", self._counted(name, tracer)))

    def _counted(self, name, tracer):
        method = getattr(self._gen, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            size = getattr(out, "size", 1)
            tracer.draws += size
            if name == "standard_normal":
                tracer.normals += size
            return out

        return draw

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _Observer:
    """Watcher proxy timing start/observe; state stays in the watcher."""

    def __init__(self, watcher, tracer):
        label = f"observers.{type(watcher).__name__}"
        self.observe = tracer.leaf(label, watcher.observe)
        if hasattr(watcher, "start"):
            self.start = tracer.leaf(label, watcher.start)
