"""The benchmark's tracer and worker wrap mslevy functions by name.

bench/tracer.py replaces the batch entry points, estimator stages and
per-step leaves with timing wrappers, and bench/worker.py calls the CLI.
A rename or a changed argument name would only surface when
`bench/run.py --trace 1` runs; these checks catch it in the test suite.
"""

import copy
import dataclasses
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mslevy import cli, ergodic, estimate, integrate, model, rng

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    """bench/tracer.py, imported without installing anything."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def _params(fn):
    return set(inspect.signature(fn).parameters)


def test_kernel_entry_points_keep_the_arguments_the_tracer_reads(tracer):
    assert len(tracer._KERNELS) == 5
    for name in tracer._KERNELS:
        params = _params(getattr(integrate, name))
        assert "cfg" in params or {"horizon", "delta"} <= params, name
        assert params & {"n_paths", "n_chains", "n_pairs"}, name
    # kernel_before reads the horizon and step from the config
    cfg = integrate.StepperConfig(epsilon=1.0, delta=2**-6, t_end=1.0)
    assert (cfg.t_end, cfg.delta) == (1.0, 2**-6)


def test_wrapped_names_exist(tracer):
    for mod, name in ((rng, "sample_jump_times_batch"),
                      (ergodic, "build_averaged_table"),
                      (ergodic, "estimate_invariant_measure"),
                      (ergodic, "poisson_cell"),
                      (ergodic, "load_averaged_table"),
                      (estimate, "strong_error"),
                      (estimate, "bootstrap_ci"),
                      (model, "compile_expression"),
                      (cli, "get_model"),
                      (cli, "run")):
        assert callable(getattr(mod, name)), f"{mod.__name__}.{name}"
    assert "n_boot" in _params(estimate.bootstrap_ci)
    assert {"command", "config_path", "out_dir"} <= _params(cli.run)
    for cls, attr in ((ergodic.AveragedTable, "drift"),
                      (ergodic.AveragedTable, "diffusion_root"),
                      (ergodic.InvariantSample, "mean_ci"),
                      (rng.RngStream, "generator")):
        assert callable(getattr(cls, attr)), f"{cls.__name__}.{attr}"
    assert "samples" in {f.name for f in dataclasses.fields(ergodic.InvariantSample)}
    fields = {f.name for f in dataclasses.fields(model.ModelSpec)}
    assert set(tracer._COEFFICIENTS) <= fields


def test_patched_names_are_looked_up_at_call_time():
    # the tracer replaces module attributes, so callers must not bind them early
    assert "compile_expression" in model.model_from_config.__code__.co_names
    assert "get_model" in cli.run.__code__.co_names
    # so the tracer's kernel spans also see the table's, the invariant
    # estimate's and the semigroup check's fused frozen runs
    assert "run_frozen_batch" in ergodic._invariant_samples.__code__.co_names
    for fn in (ergodic.build_averaged_table, ergodic.estimate_invariant_measure):
        assert "_invariant_samples" in fn.__code__.co_names
    assert "run_frozen_batch" in ergodic.poisson_cells.__code__.co_names
    assert "poisson_cells" in ergodic.semigroup_identity_check.__code__.co_names
    # both order sweeps run their coupled pairs through one helper
    for fn in (estimate.strong_error, estimate.weak_error):
        assert "_pair_sweep" in fn.__code__.co_names
    assert {"_integrate", "run_pair_batch"} <= set(
        estimate._pair_sweep.__code__.co_names)


def test_cli_builds_tables_through_the_patched_builder(tmp_path, monkeypatch):
    # bench/worker.py --time-table replaces ergodic.build_averaged_table,
    # so both CLI table paths must look it up when they run
    built = []
    build = ergodic.build_averaged_table

    def timed(*args, **kwargs):
        built.append(args[2])
        return build(*args, **kwargs)

    monkeypatch.setattr(ergodic, "build_averaged_table", timed)
    tb = {"box": [-1.0, 1.0], "nodes": 3, "chains": 4, "burn_in": 1.0,
          "horizon": 4.0, "delta": 2**-6, "thin": 8, "y0": 0.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "example_2_8", "table": tb}))
    assert cli.run("avg-table", cfg, out_dir=tmp_path / "a") == 0
    cli._get_table(model.example_2_8(), "example_2_8", tb, 0,
                   tmp_path, rng.RngStream(0))
    assert built == [3, 3]


def test_compile_expression_takes_text_and_variables():
    # the tracer wraps model.compile_expression as compile(text, variables)
    fn = model.compile_expression("x * y + 1", ("x", "y"))
    assert fn({"x": np.array([2.0]), "y": np.array([3.0])}).tolist() == [7.0]


def test_a_model_wrapped_as_the_tracer_wraps_it_runs_the_same_bytes(tracer):
    # get_model_traced copies the model and wraps its six coefficients in
    # plain callables, which a frozen run takes without a split
    def run(spec):
        blocks = [(rng.RngStream(5, i), n) for i, n in enumerate((4, 3))]
        x = np.repeat([-0.5, 1.0], (4, 3))[:, None]
        out = integrate.run_frozen_batch(spec, x, 0.2, horizon=2.0, delta=2**-6,
                                         n_chains=7, stream=blocks)
        return out["terminal_fast"].tobytes()

    original = model.example_2_7("state_linear")
    spec = copy.copy(original)
    for coef in tracer._COEFFICIENTS:
        fn = getattr(spec, coef)
        object.__setattr__(spec, coef, lambda *args, fn=fn: fn(*args))
    assert run(spec) == run(original)


def test_a_traced_model_runs_the_cells_of_the_split_path(tracer):
    # the tracer's leaves hide the slow drift's expression split, so the
    # traced cells evaluate b whole on every step: same bytes, no split
    original = model.model_from_config({
        "b": "-pow(x,3)+x+pow(y,3)", "sigma": "x", "f": "sin(x)-y-pow(y,5)",
        "g": "1"})
    spec = copy.copy(original)
    trace = tracer.Tracer()
    for coef in tracer._COEFFICIENTS:
        object.__setattr__(spec, coef, trace.leaf(f"model.{coef}", getattr(spec, coef)))
    assert ergodic._drift_curve(original).prelude is not None
    assert ergodic._drift_curve(spec).prelude is None

    def cells(m):
        out = ergodic.poisson_cells(
            m, 0.4, [1.0, -0.5], t_cut=1.0, n_traj=32, delta=2**-6, avg_b=0.5,
            streams=[rng.RngStream(6, i) for i in range(2)])
        return [np.asarray(getattr(c, f.name), dtype=float).tobytes()
                for c in out for f in dataclasses.fields(c)]

    assert cells(spec) == cells(original)
    assert trace.leaves        # the wrapped coefficients did run
