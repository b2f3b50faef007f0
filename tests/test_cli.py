import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mslevy import cli, ergodic
from mslevy.cli import main, parse_config, run
from mslevy.errors import ConfigurationError

JUMP_OU_CFG = {"b": "y", "sigma": "1", "f": "0.7 - y", "g": "1"}


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def read_all(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


# the required keys of each command, with small budgets
MINIMAL = {
    "validate-model": {},
    "frozen-stats": {"x": 0.0},
    "avg-table": {"table": {"box": [-1, 1], "nodes": 3}},
    "poisson-check": {"x": 0.0, "y": 1.0, "t_cut": 2.0},
    "ergodicity": {"x": 0.0, "y1": 1.0, "y2": -1.0},
    "strong-order": {"epsilon": [0.125, 0.0625, 0.03125],
                     "table": {"box": [-3, 3], "nodes": 5}},
    "weak-order": {"epsilon": [0.125, 0.0625, 0.03125],
                   "table": {"box": [-3, 3], "nodes": 5}},
    "fast-moments": {"epsilon": [0.125, 0.0625, 0.03125]},
}
BLOCKS = {"table": cli._TABLE_BLOCK, "delta_policy": cli._POLICY_BLOCK}


def nan_configs(schema, block, prefix=""):
    """(dotted path, block with NaN there) for each key of `schema` whose
    value, given in `block` or defaulted, is not a string; a list gets NaN
    as its first entry and a nested block NaN at each of its keys."""
    for key, (_, default, _) in schema.items():
        value = block.get(key, default)
        if key in BLOCKS:
            for path, sub in nan_configs(BLOCKS[key], value, f"{prefix}{key}."):
                yield path, {**block, key: sub}
        elif not isinstance(value, str):
            bad = [math.nan, *value[1:]] if isinstance(value, list) else math.nan
            yield prefix + key, {**block, key: bad}


class TestParseConfig:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_round_trip_through_serialize(self, tmp_path, command):
        payload = {"model": "example_2_7_linear", "seed": 9, **MINIMAL[command]}
        p = write_cfg(tmp_path, payload)
        cfg = parse_config(p, command)
        p2 = write_cfg(tmp_path, cfg.to_dict(), "effective.json")
        cfg2 = parse_config(p2, command)
        assert cfg2.to_dict() == cfg.to_dict()
        assert cfg.seed == 9 and set(cfg.options) == set(cli._SCHEMAS[command])
        assert all(cfg.options[k] == v for k, v in MINIMAL[command].items()
                   if k != "table")

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_nan_is_refused_by_its_dotted_path(self, tmp_path, command):
        cases = list(nan_configs(cli._SCHEMAS[command], MINIMAL[command]))
        assert cases
        for path, options in cases:
            p = write_cfg(tmp_path, {"model": "example_2_8", **options})
            with pytest.raises(ConfigurationError) as exc:
                parse_config(p, command)
            assert str(exc.value).startswith(f"{path}: expected"), path

    def test_unknown_key_rejected_with_path(self, tmp_path):
        p = write_cfg(tmp_path, {"model": "example_2_8", "x": 0.0,
                                 "horizont": 10.0})
        with pytest.raises(ConfigurationError, match="horizont"):
            parse_config(p, "frozen-stats")
        p2 = write_cfg(tmp_path, {"model": "example_2_8",
                                  "epsilon": [0.1, 0.05, 0.025],
                                  "table": {"box": [-1, 1], "nodes": 3,
                                            "burnin": 2}}, "c2.json")
        with pytest.raises(ConfigurationError, match="table.burnin"):
            parse_config(p2, "strong-order")

    def test_empty_object_lists_missing_keys(self, tmp_path):
        p = write_cfg(tmp_path, {})
        with pytest.raises(ConfigurationError, match="model"):
            parse_config(p, "strong-order")
        p2 = write_cfg(tmp_path, {"model": "example_2_8"}, "c2.json")
        with pytest.raises(ConfigurationError) as exc:
            parse_config(p2, "strong-order")
        assert "epsilon" in str(exc.value) and "table" in str(exc.value)

    def test_seed_override(self, tmp_path):
        p = write_cfg(tmp_path, {"model": "example_2_8", "x": 0.0})
        cfg = parse_config(p, "frozen-stats", seed_override=77)
        assert cfg.seed == 77

    def test_command_mismatch_rejected(self, tmp_path):
        p = write_cfg(tmp_path, {"command": "frozen-stats",
                                 "model": "example_2_8", "x": 0.0})
        with pytest.raises(ConfigurationError):
            parse_config(p, "ergodicity")


class TestExitCodes:
    def test_malformed_json_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        out = tmp_path / "out"
        assert run("frozen-stats", p, out_dir=out) == 2
        names = {f.name for f in out.iterdir()}
        assert names == {"error.log"}

    def test_short_eps_list_exit_2(self, tmp_path):
        p = write_cfg(tmp_path, {"model": "example_2_7_linear",
                                 "epsilon": [0.125, 0.0625],
                                 "table": {"box": [-3, 3], "nodes": 5}})
        assert run("strong-order", p, out_dir=tmp_path / "out") == 2

    def test_blow_up_exit_3(self, tmp_path):
        model = {"b": "0", "sigma": "0", "h1": "1 + pow(x,2)", "f": "-y",
                 "g": "1", "nu1": {"intensity": 20.0,
                                   "size": {"kind": "uniform", "lo": -0.5,
                                            "hi": 0.5}}}
        p = write_cfg(tmp_path, {"model": model,
                                 "epsilon": [0.125, 0.0625, 0.03125],
                                 "n_paths": 8, "t_end": 1.0})
        out = tmp_path / "out"
        assert run("fast-moments", p, out_dir=out) == 3
        assert "error_code=3" in (out / "error.log").read_text()

    @pytest.mark.parametrize("budget, key", [
        ({"n_traj": 1}, "n_traj"),
        ({"endpoint_draws": 1, "semigroup_s": 0.5}, "endpoint_draws"),
    ])
    def test_single_draw_corrector_budget_exit_2(self, tmp_path, budget, key):
        # one trajectory or one endpoint draw has no spread: its CI is NaN
        p = write_cfg(tmp_path, {"model": dict(JUMP_OU_CFG), "x": 0.0, "y": 1.7,
                                 "t_cut": 2.0, "chains": 4, "burn_in": 1.0,
                                 "horizon": 5.0, "delta": 2**-6, **budget})
        out = tmp_path / "out"
        assert run("poisson-check", p, out_dir=out) == 2
        assert f"{key}: expected an integer >= 2" in (out / "error.log").read_text()
        assert all(b"NaN" not in data for data in read_all(out).values())


    @pytest.mark.parametrize("delta", [0.0, -2**-6])
    def test_ergodicity_delta_that_is_not_positive_exit_2(self, tmp_path, delta):
        p = write_cfg(tmp_path, {"model": "example_2_8", "x": 0.0, "y1": 1.0,
                                 "y2": -1.0, "delta": delta})
        out = tmp_path / "out"
        assert run("ergodicity", p, out_dir=out) == 2
        assert "delta must be positive" in (out / "error.log").read_text()

    @pytest.mark.parametrize("block, reason", [
        ({"params": {"bogus": 1}},
         "unknown config key(s): ['model.params.bogus']"),
        ({"params": {"growth_exp": "a", "coercivity_exp": 2,
                     "contraction_rate": 1, "dissipation_rate": 1}},
         "model.params.growth_exp: expected a finite number, got 'a'"),
        ({"nu1": {"size": {"kind": "uniform", "lo": -0.5, "hi": 0.5}}},
         "missing required config key(s): ['model.nu1.intensity']"),
        ({"nu2": {"intensity": 1.0, "size": {"kind": "uniform", "lo": -0.5}}},
         "missing required config key(s): ['model.nu2.size.hi']"),
        ({"nu1": [1, 2]}, "model.nu1: expected a mapping, got [1, 2]"),
        ({"nu1": {"intensity": 1.0, "intensty": 5,
                  "size": {"kind": "uniform", "lo": -0.5, "hi": 0.5}}},
         "unknown config key(s): ['model.nu1.intensty']"),
        ({"nu2": {"intensity": 1.0, "size": {"kind": "uniform", "lo": -0.5,
                                             "hi": 0.5, "mu": 3}}},
         "unknown config key(s): ['model.nu2.size.mu']"),
        ({"sigma_y_independent": "no"},
         "model.sigma_y_independent: expected true or false, got 'no'"),
        ({"sigma_y_independent": None},
         "model.sigma_y_independent: expected true or false, got None"),
        ({"name": [1]}, "model.name: expected a string, got [1]"),
    ], ids=["params-unknown", "params-not-a-number", "nu1-no-intensity",
            "nu2-size-no-hi", "nu1-not-an-object", "nu1-unknown-key",
            "nu2-size-unknown-key", "sigma-flag-string", "sigma-flag-null",
            "name-not-a-string"])
    def test_malformed_model_block_exit_2(self, tmp_path, block, reason):
        p = write_cfg(tmp_path, {"model": {**JUMP_OU_CFG, **block}, "x": 0.0})
        out = tmp_path / "out"
        assert run("frozen-stats", p, out_dir=out) == 2
        assert reason in (out / "error.log").read_text()

    @pytest.mark.parametrize("command, options, path", [
        ("frozen-stats", {"x": 0.0, "horizon": math.inf}, "horizon"),
        ("frozen-stats", {"x": 0.0, "burn_in": math.nan}, "burn_in"),
        ("poisson-check", {"x": 0.0, "y": 1.0, "t_cut": math.inf}, "t_cut"),
        ("ergodicity", {"x": 0.0, "y1": 1.0, "y2": -1.0, "t_end": math.nan},
         "t_end"),
        ("frozen-stats", {"x": math.nan}, "x"),
        ("frozen-stats", {"x": math.inf}, "x"),
        ("frozen-stats", {"model": {**JUMP_OU_CFG, "nu2": {
            "intensity": math.nan,
            "size": {"kind": "uniform", "lo": -0.5, "hi": 0.5}}}, "x": 0.0},
         "model.nu2.intensity"),
    ], ids=["horizon-inf", "burn_in-nan", "t_cut-inf", "t_end-nan", "x-nan",
            "x-inf", "intensity-nan"])
    def test_non_finite_number_exit_2(self, tmp_path, command, options, path):
        p = write_cfg(tmp_path, {"model": "example_2_8", "delta": 2**-6,
                                 **options})
        out = tmp_path / "out"
        assert run(command, p, out_dir=out) == 2
        assert f"{path}: expected a finite number" in (out / "error.log").read_text()

    @pytest.mark.parametrize("command, options", [
        ("frozen-stats", {"x": 0.0, "chains": 8, "burn_in": 1.0,
                          "horizon": 0.05}),
        ("avg-table", {"table": {"box": [-1, 1], "nodes": 3, "chains": 4,
                                 "burn_in": 1.0, "horizon": 0.1,
                                 "delta": 2**-6}}),
        ("poisson-check", {"x": 0.0, "y": 1.0, "t_cut": 2.0, "chains": 8,
                           "burn_in": 1.0, "horizon": 0.05}),
    ])
    def test_invariant_horizon_too_short_for_batches_exit_2(self, tmp_path,
                                                           command, options):
        p = write_cfg(tmp_path, {"model": "example_2_8", **options})
        out = tmp_path / "out"
        assert run(command, p, out_dir=out) == 2
        log = (out / "error.log").read_text()
        assert "error_code=2" in log and "chains need" in log


def test_import_leaves_scipy_stats_unloaded():
    # the heavy SciPy subpackages cost most of a short run's start-up
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ["scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse",
             "scipy.spatial", "scipy.ndimage"]
    code = ("import sys, mslevy.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_table_cache_key_holds_the_table_format_version(monkeypatch):
    tb = {"box": [-1.0, 1.0], "nodes": 3}
    key = cli._table_cache_key("example_2_8", tb, 0)
    monkeypatch.setattr(ergodic, "_TABLE_FORMAT_VERSION",
                        ergodic._TABLE_FORMAT_VERSION + 1)
    assert cli._table_cache_key("example_2_8", tb, 0) != key


class TestValidateModel:
    def test_example_2_7_passes(self, tmp_path):
        p = write_cfg(tmp_path, {"model": "example_2_7_linear", "seed": 5,
                                 "probes": 800, "box": 4.0})
        out = tmp_path / "out"
        assert run("validate-model", p, out_dir=out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert all(c["passed"] for c in rep["checks"])

    def test_example_2_8_reports_contraction_gap(self, tmp_path):
        # the cubic fast drift has no uniform contraction at the origin,
        # so validate-model reports an honest science failure
        p = write_cfg(tmp_path, {"model": "example_2_8", "seed": 5,
                                 "probes": 2000, "box": 4.0})
        out = tmp_path / "out"
        assert run("validate-model", p, out_dir=out) == 1
        rep = json.loads((out / "report.json").read_text())
        failed = [c for c in rep["checks"] if not c["passed"]]
        assert [c["assumption"] for c in failed] == ["fast_contraction"]


    # 1e308 is finite, but the probes' range [-h, h] is not
    @pytest.mark.parametrize("box", [-2.0, 0.0, 1e308])
    def test_box_that_is_not_positive_exit_2(self, tmp_path, box):
        p = write_cfg(tmp_path, {"model": "example_2_7_linear", "probes": 50,
                                 "box": box})
        out = tmp_path / "out"
        assert run("validate-model", p, out_dir=out) == 2
        assert "box half-widths must be positive" in (out / "error.log").read_text()


class TestCommandsAndReplay:
    def test_frozen_stats_outputs_and_determinism(self, tmp_path):
        payload = {"model": dict(JUMP_OU_CFG), "seed": 11, "x": 0.0,
                   "chains": 8, "burn_in": 2.0, "horizon": 20.0,
                   "delta": 2**-6, "thin": 8}
        outs = []
        for k in (1, 2):
            p = write_cfg(tmp_path, payload, f"c{k}.json")
            out = tmp_path / f"out{k}"
            assert run("frozen-stats", p, out_dir=out) == 0
            outs.append(read_all(out))
        assert outs[0] == outs[1]
        assert {"effective_config.json", "invariant_moments.csv",
                "report.json", "summary.txt"} <= set(outs[0])

    def test_strong_order_replay_from_effective_config(self, tmp_path):
        payload = {"model": "example_2_7_linear", "seed": 21,
                   "epsilon": [0.125, 0.0625, 0.03125], "t_end": 0.5,
                   "n_paths": 32, "bootstrap": 64,
                   "table": {"box": [-3, 3], "nodes": 41, "chains": 4,
                             "burn_in": 1.0, "horizon": 4.0, "delta": 2**-6}}
        p = write_cfg(tmp_path, payload)
        out1 = tmp_path / "o1"
        code1 = run("strong-order", p, out_dir=out1)
        assert code1 in (0, 1)  # tiny budget: the window check may fail
        # replay from the echoed effective config, fresh directory
        out2 = tmp_path / "o2"
        code2 = run("strong-order", out1 / "effective_config.json", out_dir=out2)
        assert code2 == code1
        a, b = read_all(out1), read_all(out2)
        assert a == b
        assert (out1 / "errors.csv").read_text().startswith(
            "epsilon,error,ci_lo,ci_hi,n_paths")

    def test_strong_order_uses_cached_table_on_rerun(self, tmp_path):
        payload = {"model": "example_2_7_linear", "seed": 22,
                   "epsilon": [0.125, 0.0625, 0.03125], "t_end": 0.25,
                   "n_paths": 16, "bootstrap": 32,
                   "table": {"box": [-3, 3], "nodes": 41, "chains": 4,
                             "burn_in": 1.0, "horizon": 4.0, "delta": 2**-6}}
        p = write_cfg(tmp_path, payload)
        out = tmp_path / "o"
        run("strong-order", p, out_dir=out)
        first = (out / "errors.csv").read_bytes()
        assert "fresh table" in (out / "summary.txt").read_text()
        run("strong-order", p, out_dir=out)
        assert "cached table" in (out / "summary.txt").read_text()
        assert (out / "errors.csv").read_bytes() == first

    def test_ergodicity_command(self, tmp_path):
        payload = {"model": "example_2_7_linear", "seed": 31, "x": 0.0,
                   "y1": 1.0, "y2": -1.0, "t_end": 1.0, "n_times": 8,
                   "n_pairs": 128, "delta": 2**-6, "gamma_min": 2.0,
                   "r2_min": 0.9}
        p = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert run("ergodicity", p, out_dir=out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["gamma_hat"] >= 2.0
        lines = (out / "decay_curve.csv").read_text().splitlines()
        assert lines[0] == "t,mean_sq_dist,ci_half"
        assert len(lines) == 9

    def test_poisson_check_command(self, tmp_path):
        payload = {"model": dict(JUMP_OU_CFG), "seed": 41, "x": 0.0, "y": 1.7,
                   "t_cut": 6.0, "n_traj": 512, "chains": 16, "burn_in": 3.0,
                   "horizon": 40.0, "delta": 2**-7}
        p = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert run("poisson-check", p, out_dir=out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["value"][0] == pytest.approx(1.0, abs=0.35)

    @pytest.mark.parametrize("s", [-0.1, 0.0])
    def test_semigroup_shift_that_is_not_positive_exit_2(self, tmp_path, s):
        # the corrector-narrow benchmark's no-jump cubic model, small budgets;
        # a zero shift would pass vacuously, a negative one end in a blow-up
        no_jumps = {"intensity": 0.0, "size": {"kind": "uniform", "lo": -0.5,
                                               "hi": 0.5}}
        model = {"b": "-pow(x,3)+x+pow(y,3)", "sigma": "x",
                 "f": "sin(x)-y-pow(y,5)", "g": "1", "nu1": no_jumps,
                 "nu2": no_jumps}
        p = write_cfg(tmp_path, {"model": model, "seed": 42, "x": 0.0, "y": 1.0,
                                 "t_cut": 2.0, "n_traj": 64, "delta": 2**-6,
                                 "chains": 4, "burn_in": 1.0, "horizon": 4.0,
                                 "semigroup_s": s, "endpoint_draws": 2})
        out = tmp_path / "out"
        assert run("poisson-check", p, out_dir=out) == 2
        log = (out / "error.log").read_text()
        assert "error_code=2" in log
        assert f"semigroup_s must be positive, not {s!r}" in log

    def test_avg_table_command(self, tmp_path):
        payload = {"model": dict(JUMP_OU_CFG), "seed": 51,
                   "table": {"box": [-1, 1], "nodes": 5, "chains": 4,
                             "burn_in": 1.0, "horizon": 6.0, "delta": 2**-6}}
        p = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert run("avg-table", p, out_dir=out) == 0
        assert (out / "avg_table.csv").exists()
        header = json.loads((out / "avg_table.json").read_text())
        assert header["format_version"] == 2

    def test_main_entry_point(self, tmp_path, capsys):
        p = write_cfg(tmp_path, {"model": "example_2_8", "x": 0.0,
                                 "chains": 4, "burn_in": 1.0, "horizon": 5.0,
                                 "delta": 2**-6})
        code = main(["frozen-stats", "--config", str(p), "--seed", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "moment 2" in capsys.readouterr().out
