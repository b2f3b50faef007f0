"""Command-line entry point: `mslevy <command> --config <path>`.

Commands wire JSON run configurations to the pipeline: model validation,
frozen-equation statistics, averaged-table construction, corrector
diagnostics, ergodicity decay, strong/weak order studies, and fast-moment
sweeps. Every run echoes its fully-defaulted effective configuration so
outputs are replayable bit for bit from the artifacts alone.

Exit codes: 0 success; 1 a quantitative check failed or was refused
(science failure, e.g. fitted slope outside the configured window);
2 configuration error; 3 numerical abort (path blow-up).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import ergodic, estimate
from .errors import (
    BlowUpError,
    ConfigurationError,
    DecayFitError,
    MslevyError,
    TableValidationError,
)
from .model import (
    check_fast_dissipativity,
    check_growth,
    check_monotonicity,
    check_strong_monotonicity_fast,
    get_model,
)
from .rng import RngStream
from .schema import (apply_schema, block, integer, mapping, maybe, num, num_list,
                     pair, string)

__all__ = ["main", "run", "parse_config", "RunConfig", "COMMANDS"]


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


_TABLE_BLOCK = {
    "box": (True, None, pair),
    "nodes": (True, None, integer(2)),
    "chains": (False, 8, integer()),
    "burn_in": (False, None, maybe(num)),
    "horizon": (False, None, maybe(num)),
    "delta": (False, 2.0**-8, num),
    "thin": (False, 8, integer()),
    "y0": (False, 0.0, num),
}

_POLICY_BLOCK = {
    "mode": (False, "global", string(("global", "scaled"))),
    "fast_exp": (False, 6, integer(4)),
}

_SCHEMAS: dict[str, dict] = {
    "validate-model": {
        "probes": (False, 2000, integer()),
        "box": (False, 5.0, num),
    },
    "frozen-stats": {
        "x": (True, None, num),
        "chains": (False, 8, integer()),
        "burn_in": (False, 5.0, num),
        "horizon": (False, 100.0, num),
        "delta": (False, 2.0**-8, num),
        "thin": (False, 8, integer()),
        "y0": (False, 0.0, num),
    },
    "avg-table": {
        "table": (True, None, block(_TABLE_BLOCK)),
    },
    "poisson-check": {
        "x": (True, None, num),
        "y": (True, None, num),
        "t_cut": (True, None, num),
        "n_traj": (False, 4096, integer(2)),
        "delta": (False, 2.0**-8, num),
        "chains": (False, 32, integer()),
        "burn_in": (False, 5.0, num),
        "horizon": (False, 100.0, num),
        "semigroup_s": (False, None, maybe(num)),
        "endpoint_draws": (False, 32, integer(2)),
    },
    "ergodicity": {
        "x": (True, None, num),
        "y1": (True, None, num),
        "y2": (True, None, num),
        "t_end": (False, 2.0, num),
        "n_times": (False, 16, integer(3)),
        "n_pairs": (False, 1000, integer()),
        "delta": (False, 2.0**-8, num),
        "gamma_min": (False, None, maybe(num)),
        "r2_min": (False, None, maybe(num)),
    },
    "strong-order": {
        "epsilon": (True, None, num_list(3)),
        "p": (False, 2.0, num),
        "t_end": (False, 1.0, num),
        "n_paths": (False, 1000, integer(2)),
        "x0": (False, 1.0, num),
        "y0": (False, 1.0, num),
        "delta_policy": (False, apply_schema({}, _POLICY_BLOCK),
                         block(_POLICY_BLOCK)),
        "table": (True, None, block(_TABLE_BLOCK)),
        "bootstrap": (False, 1000, integer(10)),
        "confidence": (False, 0.95, num),
        "slope_window": (False, [0.35, 0.65], pair),
        "r2_min": (False, 0.9, num),
    },
    "weak-order": {
        "epsilon": (True, None, num_list(3)),
        "phi": (False, "x_squared", string()),
        "mode": (False, "coupled_difference",
                 string(("coupled_difference", "independent"))),
        "t_end": (False, 1.0, num),
        "n_paths": (False, None, maybe(integer(2))),
        "x0": (False, 0.5, num),
        "y0": (False, 0.5, num),
        "delta_policy": (False, apply_schema({}, _POLICY_BLOCK),
                         block(_POLICY_BLOCK)),
        "table": (True, None, block(_TABLE_BLOCK)),
        "bootstrap": (False, 1000, integer(10)),
        "confidence": (False, 0.95, num),
        "slope_window": (False, [0.75, 1.25], pair),
        "r2_min": (False, 0.85, num),
    },
    "fast-moments": {
        "epsilon": (True, None, num_list(3)),
        "p": (False, 4.0, num),
        "t_end": (False, 1.0, num),
        "n_paths": (False, 4096, integer(2)),
        "x0": (False, 1.0, num),
        "y0": (False, 1.0, num),
        "fast_exp": (False, 6, integer(4)),
    },
}

COMMANDS = tuple(_SCHEMAS)


def _model_ref(v, path):
    get_model(v)  # validates the reference and probes expressions
    return v


# the keys every command takes, after its own
_RUN_KEYS = {
    "model": (True, None, _model_ref),
    "seed": (False, 0, integer(0)),
}


class RunConfig:
    """Validated run configuration with defaults applied."""

    def __init__(self, command: str, model_ref, seed: int, options: dict):
        self.command = command
        self.model_ref = model_ref
        self.seed = int(seed)
        self.options = options

    def to_dict(self) -> dict:
        return {"command": self.command, "model": self.model_ref,
                "seed": self.seed, **self.options}


def parse_config(path, command: str | None = None,
                 seed_override: int | None = None) -> RunConfig:
    """Load, validate, and default-fill a JSON run configuration.

    Unknown keys are rejected with their path; expression-defined
    coefficients are parsed through the arithmetic grammar and probe
    evaluated for totality at model construction.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from None
    cfg_command = mapping(raw, "config root").pop("command", None)
    command = string(COMMANDS)(command or cfg_command, "command")
    if cfg_command not in (None, command):
        raise ConfigurationError(
            f"config was written for {cfg_command!r}, not {command!r}"
        )
    options = apply_schema(raw, {**_SCHEMAS[command], **_RUN_KEYS})
    model_ref, seed = options.pop("model"), options.pop("seed")
    if seed_override is not None:
        seed = int(seed_override)
    return RunConfig(command, model_ref, seed, options)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _strict(value):
    """`value` with each non-finite float as its name ("nan", "inf" or
    "-inf"): strict JSON has no such numbers."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write_csv(path: Path, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _table_cache_key(model_ref, tb: dict, seed: int) -> str:
    payload = json.dumps({"model": model_ref, "table": tb, "seed": seed,
                          "format_version": ergodic._TABLE_FORMAT_VERSION},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _invariant_config(opts: dict) -> ergodic.InvariantConfig:
    """The invariant budget of a config block, from the keys it has."""
    budget = {k: opts[k] for k in ("burn_in", "horizon", "delta", "thin", "y0")
              if k in opts}
    return ergodic.InvariantConfig(n_chains=opts["chains"], **budget)


def _build_table(model, tb: dict, stream: RngStream):
    """The averaged table of a `table` config block."""
    return ergodic.build_averaged_table(
        model, tuple(tb["box"]), tb["nodes"], _invariant_config(tb), stream)


def _get_table(model, model_ref, tb: dict, seed: int, out: Path,
               stream: RngStream):
    """Build the averaged table or load it from the run cache."""
    cache = out / "cache"
    cache.mkdir(exist_ok=True)
    key = _table_cache_key(model_ref, tb, seed)
    csv_p = cache / f"avg_table_{key}.csv"
    meta_p = cache / f"avg_table_{key}.json"
    if csv_p.exists() and meta_p.exists():
        return ergodic.load_averaged_table(csv_p, meta_p), True
    table = _build_table(model, tb, stream)
    ergodic.save_averaged_table(table, csv_p, meta_p)
    return table, False


def _save_error_report(rep, out: Path):
    rows = [(e, err, err - ci, err + ci, n)
            for e, err, ci, n in zip(rep.eps, rep.errors, rep.ci_half, rep.n_paths)]
    _write_csv(out / "errors.csv",
               ["epsilon", "error", "ci_lo", "ci_hi", "n_paths"], rows)
    _write_json(out / "report.json", rep.to_dict())


# ---------------------------------------------------------------------------
# Command implementations (return (exit_code, summary_lines))
# ---------------------------------------------------------------------------


def _cmd_validate_model(model, cfg, out, stream):
    opts = cfg.options
    box = opts["box"]
    probes = opts["probes"]
    reports = [
        check_monotonicity(model, probes, box, stream.child("mono")),
        check_fast_dissipativity(model, probes, box, stream.child("diss")),
        check_strong_monotonicity_fast(model, probes, box, stream.child("contr")),
        check_growth(model, probes, box, stream.child("growth")),
    ]
    payload = {"model": model.name, "checks": []}
    lines = []
    ok = True
    for rep in reports:
        payload["checks"].append({
            "assumption": rep.assumption,
            "observed": rep.observed,
            "declared": rep.declared,
            "passed": rep.passed,
            "n_probes": rep.n_probes,
            "details": {k: float(v) for k, v in rep.details.items()},
            "witness": None if rep.witness is None else {
                k: (v.tolist() if isinstance(v, np.ndarray) else float(v))
                for k, v in rep.witness.items()},
        })
        lines.append(str(rep))
        ok = ok and rep.passed
    _write_json(out / "report.json", payload)
    return (0 if ok else 1), lines


def _cmd_frozen_stats(model, cfg, out, stream):
    opts = cfg.options
    inv = ergodic.estimate_invariant_measure(model, opts["x"],
                                             _invariant_config(opts), stream)
    rows = []
    lines = [f"invariant law at x={opts['x']:g} "
             f"(ess={inv.ess:.0f}{', LOW' if 'low-ess' in inv.flags else ''})"]
    for p in (1, 2, 3, 4, 6, 8):
        val, ci = inv.mean_ci(inv.samples[:, 0] ** p if model.dim_fast == 1
                              else np.linalg.norm(inv.samples, axis=1) ** p)
        rows.append((p, float(val), float(ci)))
        lines.append(f"  moment {p}: {val:.6g} +- {ci:.2g}")
    _write_csv(out / "invariant_moments.csv", ["order", "value", "ci_half"], rows)
    _write_json(out / "report.json", {
        "x": opts["x"], "ess": inv.ess, "flags": list(inv.flags),
        "moments": [{"order": p, "value": v, "ci_half": c} for p, v, c in rows]})
    return 0, lines


def _cmd_avg_table(model, cfg, out, stream):
    opts = cfg.options
    tb = opts["table"]
    table = _build_table(model, tb, stream)
    ergodic.save_averaged_table(table, out / "avg_table.csv",
                                out / "avg_table.json")
    lines = [f"averaged table: {tb['nodes']} nodes on {tb['box']}, "
             f"max drift CI {table.drift_ci.max():.3g}, "
             f"max PSD clip {table.max_clip:.2g}"]
    return 0, lines


def _cmd_poisson_check(model, cfg, out, stream):
    opts = cfg.options
    x, y = opts["x"], opts["y"]
    inv = ergodic.estimate_invariant_measure(model, x, _invariant_config(opts),
                                             stream.child("inv"))
    avg_b, avg_ci = ergodic.averaged_drift(model, inv)
    cell = ergodic.poisson_cell(
        model, x, y, t_cut=opts["t_cut"], n_traj=opts["n_traj"],
        delta=opts["delta"], avg_b=avg_b, avg_b_ci=avg_ci,
        stream=stream.child("cell"))
    payload = {
        "x": x, "y": y,
        "avg_drift": avg_b.tolist(), "avg_drift_ci": avg_ci.tolist(),
        "value": cell.value.tolist(), "ci": cell.ci.tolist(),
        "tail_bound": cell.tail_bound, "decay_rate": cell.decay_rate,
    }
    lines = [f"corrector({x:g}, {y:g}) = {cell.value[0]:.5g} +- {cell.ci[0]:.2g}"
             f"  tail {cell.tail_bound:.2g} (rate {cell.decay_rate:.3g})"]
    if opts["semigroup_s"] is not None:
        res = ergodic.semigroup_identity_check(
            model, x, y, s=opts["semigroup_s"], t_cut=opts["t_cut"],
            n_traj=max(256, opts["n_traj"] // 8),
            endpoint_draws=opts["endpoint_draws"], delta=opts["delta"],
            avg_b=avg_b, avg_b_ci=avg_ci, stream=stream.child("semigroup"))
        payload["semigroup"] = res
        lines.append(
            f"semigroup identity at s={opts['semigroup_s']:g}: "
            f"lhs {res['lhs']:.4g} rhs {res['rhs']:.4g} "
            f"(3ci {3 * res['ci']:.2g}, {'pass' if res['pass'] else 'FAIL'})")
    _write_csv(out / "gap_curve.csv", ["t", "gap", "ci_half"],
               zip(cell.times, cell.gap, cell.gap_ci))
    _write_json(out / "report.json", payload)
    code = 0
    if opts["semigroup_s"] is not None and not payload["semigroup"]["pass"]:
        code = 1
    return code, lines


def _cmd_ergodicity(model, cfg, out, stream):
    opts = cfg.options
    times = np.linspace(opts["t_end"] / opts["n_times"], opts["t_end"],
                        opts["n_times"])
    dec = ergodic.ergodicity_decay(
        model, opts["x"], opts["y1"], opts["y2"], times=times,
        n_pairs=opts["n_pairs"], delta=opts["delta"], stream=stream)
    _write_csv(out / "decay_curve.csv", ["t", "mean_sq_dist", "ci_half"],
               zip(dec.times, dec.msd, dec.ci_half))
    payload = {"gamma_hat": dec.gamma_hat, "r2": dec.r2,
               "degenerate": dec.degenerate}
    _write_json(out / "report.json", payload)
    if dec.degenerate:
        return 0, ["decay curve degenerate (identical starts or zero distance)"]
    lines = [f"fitted decay rate {dec.gamma_hat:.4g} (r2 {dec.r2:.4f})"]
    code = 0
    if opts["gamma_min"] is not None and dec.gamma_hat < opts["gamma_min"]:
        code = 1
        lines.append(f"FAIL: rate below {opts['gamma_min']:g}")
    if opts["r2_min"] is not None and (dec.r2 or 0.0) < opts["r2_min"]:
        code = 1
        lines.append(f"FAIL: r2 below {opts['r2_min']:g}")
    return code, lines


def _order_command(kind, model, cfg, out, stream):
    opts = cfg.options
    policy = estimate.DeltaPolicy(mode=opts["delta_policy"]["mode"],
                                  fast_exp=opts["delta_policy"]["fast_exp"])
    eps = opts["epsilon"]
    # an under-resolved level is refused before the table is built
    estimate._level_configs(estimate._prepare_eps(eps), policy, opts["t_end"])
    table, cached = _get_table(model, cfg.model_ref, opts["table"],
                               stream.master_seed, out, stream.child("table"))
    if kind == "strong":
        rep = estimate.strong_error(
            model, table, eps=eps, p=opts["p"], t_end=opts["t_end"],
            n_paths=opts["n_paths"], x0=opts["x0"], y0=opts["y0"],
            delta_policy=policy, n_boot=opts["bootstrap"],
            confidence=opts["confidence"], stream=stream.child("sweep"))
    else:
        n_paths = opts["n_paths"]
        if n_paths is None:
            n_paths = 1 << int(np.ceil(np.log2(25.0 / min(eps))))
        rep = estimate.weak_error(
            model, table, estimate.make_test_function(opts["phi"]),
            eps=eps, t_end=opts["t_end"], n_paths=n_paths, mode=opts["mode"],
            delta_policy=policy, n_boot=opts["bootstrap"],
            confidence=opts["confidence"], x0=opts["x0"], y0=opts["y0"],
            stream=stream.child("sweep"))
    _save_error_report(rep, out)
    lines = [f"{kind} errors ({'cached' if cached else 'fresh'} table):"]
    for e, err, ci in zip(rep.eps, rep.errors, rep.ci_half):
        lines.append(f"  eps={e:<10g} error={err:.6g} +- {ci:.2g}")
    if rep.degenerate:
        lines.append("outcome: degenerate (exact agreement)")
        return 0, lines
    if rep.slope is None:
        lines.append(f"slope withheld: {','.join(rep.flags)}")
        return 1, lines
    lo, hi = opts["slope_window"]
    lines.append(f"fitted slope {rep.slope:.4f} (r2 {rep.r2:.4f}), "
                 f"window [{lo:g}, {hi:g}], r2 min {opts['r2_min']:g}")
    ok = lo <= rep.slope <= hi and rep.r2 >= opts["r2_min"]
    if not ok:
        lines.append("FAIL: fitted order outside the accepted window")
    return (0 if ok else 1), lines


def _cmd_fast_moments(model, cfg, out, stream):
    opts = cfg.options
    rep = estimate.fast_moment_sweep(
        model, eps=opts["epsilon"], p=opts["p"], t_end=opts["t_end"],
        n_paths=opts["n_paths"], x0=opts["x0"], y0=opts["y0"],
        fast_exp=opts["fast_exp"], stream=stream)
    _write_csv(out / "fast_moments.csv",
               ["epsilon", "marginal_sup", "marginal_ci", "pathwise_sup",
                "pathwise_ci"],
               zip(rep.eps, rep.marginal_sup, rep.marginal_ci,
                   rep.pathwise_sup, rep.pathwise_ci))
    _write_json(out / "report.json", {
        "eps": rep.eps.tolist(), "marginal_sup": rep.marginal_sup.tolist(),
        "pathwise_sup": rep.pathwise_sup.tolist(), "flags": list(rep.flags)})
    lines = [f"marginal sup ratio {rep.marginal_sup.max() / rep.marginal_sup.min():.3f}"
             if rep.marginal_sup.min() > 0 else "all-zero fast moments"]
    lines += [f"flags: {', '.join(rep.flags) or 'none'}"]
    return (1 if rep.flags else 0), lines


_HANDLERS = {
    "validate-model": _cmd_validate_model,
    "frozen-stats": _cmd_frozen_stats,
    "avg-table": _cmd_avg_table,
    "poisson-check": _cmd_poisson_check,
    "ergodicity": _cmd_ergodicity,
    "strong-order": functools.partial(_order_command, "strong"),
    "weak-order": functools.partial(_order_command, "weak"),
    "fast-moments": _cmd_fast_moments,
}


def run(command: str, config_path, seed_override: int | None = None,
        out_dir=None) -> int:
    """Execute one command; returns the exit code and writes artifacts."""
    out = Path(out_dir) if out_dir else Path.cwd() / "mslevy_out"
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = parse_config(config_path, command, seed_override)
        model = get_model(cfg.model_ref)
        _write_json(out / "effective_config.json", cfg.to_dict())
        code, lines = _HANDLERS[cfg.command](model, cfg, out, RngStream(cfg.seed))
    except (ConfigurationError, TableValidationError) as exc:
        _log_error(out, 2, exc)
        return 2
    except BlowUpError as exc:
        _log_error(out, 3, exc)
        return 3
    except (DecayFitError, MslevyError) as exc:
        _log_error(out, 1, exc)
        return 1
    summary = "\n".join(lines)
    print(summary)
    with open(out / "summary.txt", "w") as fh:
        fh.write(summary + "\n")
    return code


def _log_error(out: Path, code: int, exc: Exception):
    reason = f"error_code={code} type={type(exc).__name__} reason={exc}"
    print(reason, file=sys.stderr)
    try:
        with open(out / "error.log", "w") as fh:
            fh.write(reason + "\n")
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mslevy",
        description="Slow-fast jump-diffusion simulation and averaging toolkit",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
