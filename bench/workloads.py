"""Workload definitions: CLI command, config generator, nominal work, check.

Each workload is one mslevy CLI command at a fixed shape. The benchmark
seed only chooses the config's master seed, so the work per run is the
same on every seed while every random draw changes. The program sees
only the generated JSON config.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Shared with the built-in example_2_7_linear model, so the expression
# workload computes the same coefficients through the grammar instead.
_CUBIC_EXPRESSIONS = {
    "b": "-pow(x,3)+x+pow(y,3)",
    "sigma": "x",
    "f": "sin(x)-y-pow(y,5)",
    "g": "1",
}
_NO_JUMPS = {"intensity": 0.0, "size": {"kind": "uniform", "lo": -0.5, "hi": 0.5}}


def n_steps(horizon: float, delta: float) -> int:
    """The kernel's step count for a run of `horizon` at step `delta`."""
    return max(1, int(math.ceil(horizon / delta - 1e-9)))


def _master_seed(name: str, seed: int) -> int:
    return random.Random(f"{name}:{seed}").getrandbits(32)


# -- table-wide ---------------------------------------------------------------


def _table_wide(seed: int) -> dict:
    return {
        "model": "example_2_7_linear",
        "seed": _master_seed("table-wide", seed),
        "table": {"box": [-3.0, 3.0], "nodes": 49, "chains": 1024,
                  "burn_in": 0.25, "horizon": 0.75, "delta": 2.0**-8,
                  "thin": 16},
    }


def _table_wide_steps(cfg: dict) -> int:
    tb = cfg["table"]
    return tb["nodes"] * tb["chains"] * n_steps(tb["burn_in"] + tb["horizon"],
                                                tb["delta"])


def _table_wide_check(cfg: dict, out: Path) -> str | None:
    csv = out / "avg_table.csv"
    if not csv.exists():
        return "avg_table.csv missing"
    rows = csv.read_text().strip().splitlines()[1:]
    if len(rows) != cfg["table"]["nodes"]:
        return f"table has {len(rows)} rows, expected {cfg['table']['nodes']}"
    return None


# -- strong-sweep -------------------------------------------------------------


def _strong_sweep(seed: int) -> dict:
    return {
        "model": "example_2_7_linear",
        "seed": _master_seed("strong-sweep", seed),
        "epsilon": [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7],
        "p": 2.0,
        "t_end": 0.5,
        "n_paths": 1000,
        "x0": 1.0,
        "y0": 1.0,
        "delta_policy": {"mode": "scaled", "fast_exp": 5},
        # node spacing 0.125 as in the README's [-3, 3] x 49 table, but a
        # wider box: slow paths that left [-3, 3] got the clamped boundary
        # drift, and one such path pushed a seed's slope out of the window
        "table": {"box": [-4.0, 4.0], "nodes": 65, "chains": 256,
                  "burn_in": 0.5, "horizon": 2.5, "delta": 2.0**-7,
                  "thin": 16},
        "slope_window": [0.35, 0.65],
        "r2_min": 0.9,
    }


def _strong_sweep_steps(cfg: dict) -> int:
    # scaled delta policy: each eps level steps at eps * 2^-fast_exp
    scale = 2.0 ** -cfg["delta_policy"]["fast_exp"]
    return sum(cfg["n_paths"] * n_steps(cfg["t_end"], max(eps * scale, 2.0**-16))
               for eps in cfg["epsilon"])


def _strong_sweep_check(cfg: dict, out: Path) -> str | None:
    report = json.loads((out / "report.json").read_text())
    slope, r2 = report.get("slope"), report.get("r2")
    lo, hi = cfg["slope_window"]
    if slope is None or not lo <= slope <= hi:
        return f"slope {slope} outside [{lo}, {hi}]"
    if r2 is None or r2 < cfg["r2_min"]:
        return f"r2 {r2} below {cfg['r2_min']}"
    return None


# -- corrector-narrow ---------------------------------------------------------


def _corrector_narrow(seed: int) -> dict:
    return {
        "model": {**_CUBIC_EXPRESSIONS, "name": "cubic_expr",
                  "nu1": _NO_JUMPS, "nu2": _NO_JUMPS},
        "seed": _master_seed("corrector-narrow", seed),
        "x": 0.0,
        "y": 1.0,
        "t_cut": 6.0,
        "n_traj": 4096,
        "delta": 2.0**-8,
        "chains": 32,
        "burn_in": 5.0,
        "horizon": 100.0,
        "semigroup_s": 0.1,
        "endpoint_draws": 8,
    }


def _corrector_narrow_steps(cfg: dict) -> int:
    # mirrors the runs poisson-check makes: the invariant chains, the cell
    # at (x, y), then the semigroup check's cell, endpoint draws, one cell
    # per endpoint and the short mean-curve run
    d = cfg["delta"]
    cut = n_steps(cfg["t_cut"], d)
    short = n_steps(cfg["semigroup_s"], d)
    narrow = max(256, cfg["n_traj"] // 8)
    draws = cfg["endpoint_draws"]
    return (cfg["chains"] * n_steps(cfg["burn_in"] + cfg["horizon"], d)
            + cfg["n_traj"] * cut
            + narrow * cut
            + draws * short
            + draws * narrow * cut
            + 4 * narrow * short)


def _corrector_narrow_check(cfg: dict, out: Path) -> str | None:
    report = json.loads((out / "report.json").read_text())
    sg = report.get("semigroup")
    if not sg or not sg.get("pass"):
        return f"semigroup identity failed: {sg}"
    return None


WORKLOADS = {
    "table-wide": ("avg-table", _table_wide, _table_wide_steps,
                   _table_wide_check),
    "strong-sweep": ("strong-order", _strong_sweep, _strong_sweep_steps,
                     _strong_sweep_check),
    "corrector-narrow": ("poisson-check", _corrector_narrow,
                         _corrector_narrow_steps, _corrector_narrow_check),
}


def command(name: str) -> str:
    return WORKLOADS[name][0]


def make_config(name: str, seed: int) -> dict:
    return WORKLOADS[name][1](seed)


def nominal_path_steps(name: str, cfg: dict) -> int:
    """Sum over the command's kernel runs of paths x micro steps."""
    return WORKLOADS[name][2](cfg)


def science_check(name: str, cfg: dict, out: Path) -> str | None:
    """None when the command's own quantitative check holds, else why not."""
    try:
        return WORKLOADS[name][3](cfg, out)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable artifacts: {exc}"
