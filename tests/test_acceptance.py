"""Acceptance suite: every quantitative criterion at its stated tolerance.

Each test exercises one criterion end to end at the configured budget and
prints one machine-greppable line `ACCEPTANCE <id> ... PASS` on success
(failures surface as ordinary assertion errors). Budgets are sized so the
whole module completes on a desktop-class CPU within the stated runtime
targets; seeds are fixed for reproducibility.
"""

import json

import numpy as np
import pytest

import mslevy.integrate
from mslevy.cli import run
from mslevy.ergodic import (
    ExactAveraged,
    InvariantConfig,
    averaged_drift,
    build_averaged_table,
    estimate_invariant_measure,
    ergodicity_decay,
    poisson_cell,
    poisson_cells,
    semigroup_identity_check,
)
from mslevy.estimate import (
    DeltaPolicy,
    fast_moment_sweep,
    fit_order,
    make_test_function,
    strong_error,
    weak_error,
)
from mslevy.integrate import StepperConfig, run_pair_batch
from mslevy.model import example_2_7, example_2_8, scalar_model
from mslevy.rng import RngStream

pytestmark = pytest.mark.slow


def _report(line: str):
    print(f"\nACCEPTANCE {line}", flush=True)


@pytest.fixture(scope="module")
def strong_table():
    cfg = InvariantConfig(n_chains=1024, burn_in=4.0, horizon=25.0,
                          delta=2**-8, thin=16)
    return build_averaged_table(example_2_7("state_linear"), (-3.0, 3.0), 49,
                                cfg, RngStream(9001))


@pytest.fixture(scope="module")
def weak_table():
    cfg = InvariantConfig(n_chains=1024, burn_in=6.0, horizon=55.0,
                          delta=2**-8, thin=16)
    return build_averaged_table(example_2_8(), (-6.0, 6.0), 161,
                                cfg, RngStream(9002))


def test_01_strong_order_half(strong_table):
    """Strong sweep on the cubic example: slope in [0.35, 0.65], r2 >= 0.9."""
    rep = strong_error(
        example_2_7("state_linear"), strong_table,
        eps=[2**-3, 2**-4, 2**-5, 2**-6, 2**-7], p=2.0, t_end=1.0,
        n_paths=1000, x0=1.0, y0=1.0,
        delta_policy=DeltaPolicy(mode="global", fast_exp=6),
        n_boot=1000, stream=RngStream(9101))
    assert rep.meta["delta_policy"] == {"mode": "global", "fast_exp": 6,
                                        "floor": 2.0**-16}
    assert not rep.degenerate
    assert 0.35 <= rep.slope <= 0.65
    assert rep.r2 >= 0.9
    # errors sorted with eps, and halving the largest eps shrinks the
    # error by more than 3 combined standard errors (one-sided)
    assert np.all(np.diff(rep.errors) < 0)
    sigma = np.hypot(rep.ci_half[0], rep.ci_half[1]) / 1.96
    assert rep.errors[0] - rep.errors[1] > 3 * sigma
    _report(f"1 strong order 1/2: slope={rep.slope:.3f} r2={rep.r2:.3f} PASS")


def test_02_weak_order_one(weak_table):
    """Weak sweep on the arctan example: slope in [0.75, 1.25], r2 >= 0.85."""
    rep = weak_error(
        example_2_8(), weak_table, make_test_function("x_squared"),
        eps=[2**-3, 2**-4, 2**-5, 2**-6, 2**-7], t_end=1.0, n_paths=2**13,
        mode="coupled_difference",
        delta_policy=DeltaPolicy(mode="scaled", fast_exp=8),
        x0=0.5, y0=0.5, n_boot=1000, stream=RngStream(9102))
    assert not rep.degenerate
    assert 0.75 <= rep.slope <= 1.25
    assert rep.r2 >= 0.85
    _report(f"2 weak order 1: slope={rep.slope:.3f} r2={rep.r2:.3f} PASS")


def _jump_ou(a):
    return scalar_model("jump_ou", b=lambda x, y: y, sigma=1.0,
                        f=lambda x, y: a - y, g=1.0, sigma_y_independent=True)


def test_03_jump_ou_oracle():
    """Linear jump-OU closed forms: stationary mean/variance and corrector."""
    a, y_start = 0.7, 1.7
    model = _jump_ou(a)
    cfg = InvariantConfig(n_chains=64, burn_in=8.0, horizon=300.0, delta=2**-8,
                          thin=8)
    inv = estimate_invariant_measure(model, 0.0, cfg, RngStream(9103))
    mean, mci = inv.mean_ci(inv.samples[:, 0])
    assert abs(mean - a) < 3 * mci
    y = inv.samples[:, 0]
    var = float(np.mean(y ** 2)) - float(np.mean(y ** 1)) ** 2
    var_exact = (1.0 + 1.0 / 12.0) / 2.0
    assert abs(var - var_exact) < 0.05 * var_exact
    cell = poisson_cell(model, 0.0, y_start, t_cut=12.0, n_traj=8192,
                        delta=2**-8, avg_b=a, stream=RngStream(9104))
    want = y_start - a
    assert abs(cell.value[0] - want) < max(3 * cell.ci[0], 0.02 * abs(want))
    _report(f"3 jump-OU oracle: mean={mean:.4f} var={var:.4f} "
            f"corrector={cell.value[0]:.4f} PASS")


def test_04_ergodicity_decay_rate():
    """Synchronous coupling on the quintic example contracts at rate >= 2."""
    dec = ergodicity_decay(example_2_7("state_linear"), 0.0, 1.0, -1.0,
                           times=np.linspace(0.125, 2.0, 16), n_pairs=2000,
                           delta=2**-8, stream=RngStream(9105))
    assert dec.gamma_hat >= 2.0
    assert dec.r2 >= 0.95
    _report(f"4 ergodicity decay: gamma={dec.gamma_hat:.3f} r2={dec.r2:.4f} PASS")


def test_05_fast_moment_uniformity():
    """Marginal fourth moments stay eps-uniform; pathwise sups grow."""
    rep = fast_moment_sweep(example_2_7("state_linear"),
                            eps=[2**-3, 2**-4, 2**-5, 2**-6], p=4.0,
                            t_end=1.0, n_paths=4096, x0=1.0, y0=1.0,
                            fast_exp=6, stream=RngStream(9106))
    ratio = rep.marginal_sup.max() / rep.marginal_sup.min()
    assert ratio < 2.0
    # eps is stored decreasing; the pathwise statistic must increase
    assert np.all(np.diff(rep.pathwise_sup) > 0)
    assert rep.flags == ()
    _report(f"5 fast moments: marginal ratio={ratio:.3f} "
            f"pathwise={np.round(rep.pathwise_sup, 3).tolist()} PASS")


def test_06_poisson_centering_and_semigroup():
    """Invariant-weighted corrector mean vanishes; the shift identity holds."""
    model = example_2_7("state_linear")
    x = 0.0
    cfg = InvariantConfig(n_chains=64, burn_in=6.0, horizon=200.0, delta=2**-8,
                          thin=8)
    inv = estimate_invariant_measure(model, x, cfg, RngStream(9107))
    avg_b, avg_ci = averaged_drift(model, inv)

    draws = inv.samples[:: len(inv.samples) // 48][:48, 0]
    cells = poisson_cells(model, x, [float(yk) for yk in draws], t_cut=6.0,
                          n_traj=768, delta=2**-8, avg_b=avg_b,
                          streams=[RngStream(9108, i) for i in range(48)])
    vals = np.array([c.value[0] for c in cells])
    centered = vals.mean()
    ci = 1.96 * vals.std(ddof=1) / np.sqrt(vals.size) + 6.0 * avg_ci[0]
    assert abs(centered) < 3 * ci

    res = semigroup_identity_check(
        model, x, 1.0, s=0.1, t_cut=6.0, n_traj=768, endpoint_draws=48,
        delta=2**-8, avg_b=avg_b, avg_b_ci=avg_ci, stream=RngStream(9109))
    assert res["pass"]
    _report(f"6 corrector centering={centered:.4f} (3ci={3*ci:.4f}), "
            f"semigroup gap={res['gap']:.4f} (3ci={3*res['ci']:.4f}) PASS")


def test_07_exact_degeneracies():
    """Fast-free coefficients give bit-identical coupling and exact zeros."""
    model = scalar_model("xonly", b=lambda x, y: -x, sigma=lambda x, y: 0.5,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
    avg = ExactAveraged(lambda x: -x, lambda x: np.full((len(x), 1, 1), 0.25))
    cfg = StepperConfig(epsilon=2**-4, delta=2**-9, t_end=1.0)
    pair = run_pair_batch(model, avg, 1.0, 0.3, cfg, n_paths=256,
                          stream=RngStream(9110))
    assert np.array_equal(pair["terminal_system"], pair["terminal_averaged"])
    assert np.all(pair["sup"] == 0.0)

    srep = strong_error(model, avg, eps=[2**-3, 2**-4, 2**-5], p=2.0,
                        t_end=0.5, n_paths=64, x0=1.0, y0=0.3, n_boot=50,
                        stream=RngStream(9111))
    assert srep.degenerate and np.all(srep.errors == 0.0)

    cell = poisson_cell(model, 1.0, 0.3, t_cut=4.0, n_traj=128, delta=2**-6,
                        avg_b=-1.0, stream=RngStream(9112))
    assert cell.value[0] == 0.0

    const_phi = make_test_function("cos")
    const_phi = type(const_phi)("const", lambda x: np.full(len(x), 2.0), 0.0)
    wrep = weak_error(model, avg, const_phi, eps=[2**-3, 2**-4, 2**-5],
                      t_end=0.5, n_paths=64, mode="coupled_difference",
                      x0=1.0, y0=0.3, n_boot=50, stream=RngStream(9113))
    assert wrep.degenerate and np.all(wrep.errors == 0.0)
    _report("7 exact degeneracies: coupled bit-identical, zero errors PASS")


def test_08_cli_replay_bit_identical(tmp_path):
    """Re-running any command from its effective config reproduces outputs."""
    cfg = {"model": "example_2_7_linear", "seed": 4242,
           "epsilon": [0.125, 0.0625, 0.03125], "t_end": 0.5, "n_paths": 64,
           "bootstrap": 128,
           "table": {"box": [-3.0, 3.0], "nodes": 41, "chains": 8,
                     "burn_in": 2.0, "horizon": 8.0, "delta": 2**-7}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = run("strong-order", p, out_dir=out1)
    code2 = run("strong-order", out1 / "effective_config.json", out_dir=out2)
    assert code1 == code2
    files1 = {f.name: f.read_bytes() for f in sorted(out1.rglob("*")) if f.is_file()}
    files2 = {f.name: f.read_bytes() for f in sorted(out2.rglob("*")) if f.is_file()}
    assert files1 == files2
    _report("8 determinism: CLI replay bit-identical PASS")


def test_09_harness_selftests(monkeypatch):
    """Stub-injected error laws recover their exact orders."""
    eps = [2**-2, 2**-4, 2**-6]
    fit_half = fit_order(eps, np.sqrt(eps))
    fit_one = fit_order(eps, np.asarray(eps) * 3.0)
    assert fit_half.slope == pytest.approx(0.5, abs=1e-12)
    assert fit_half.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit_one.slope == pytest.approx(1.0, abs=1e-12)
    assert fit_one.r2 == pytest.approx(1.0, abs=1e-12)

    # the sweep's eps levels arrive as multi-rate blocks (stream, n, cfg)
    def stub(model, avg, x0, y0, cfg, n_paths, stream, checkpoints=(),
             record=False):
        level = np.concatenate([np.full(n, c.epsilon) for _, n, c in stream])
        snaps = {t: {"x": level[:, None].copy(), "xt": np.zeros((n_paths, 1))}
                 for t in checkpoints}
        return {"sup": np.sqrt(level), "terminal_system": np.zeros((n_paths, 1)),
                "terminal_averaged": np.zeros((n_paths, 1)),
                "checkpoints": snaps, "clamped": np.zeros(len(stream), dtype=int)}

    monkeypatch.setattr(mslevy.integrate, "run_pair_batch", stub)
    model = scalar_model("xonly", b=lambda x, y: -x, sigma=lambda x, y: 0.5,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
    avg = ExactAveraged(lambda x: -x)
    srep = strong_error(model, avg, eps=eps, p=2.0, t_end=1.0, n_paths=16,
                        x0=1.0, y0=0.0, stream=RngStream(9114))
    wrep = weak_error(model, avg, make_test_function("identity"), eps=eps,
                      t_end=1.0, n_paths=16, x0=1.0, y0=0.0,
                      stream=RngStream(9115))
    assert srep.slope == pytest.approx(0.5, abs=1e-9)
    assert srep.r2 == pytest.approx(1.0, abs=1e-9)
    assert wrep.slope == pytest.approx(1.0, abs=1e-9)
    assert wrep.r2 == pytest.approx(1.0, abs=1e-9)
    _report(f"9 harness self-tests: slopes {srep.slope:.3f}/{wrep.slope:.3f} PASS")


def test_10_strong_monotone_trend_and_step_halving(strong_table):
    """Supplementary invariants: errors sorted with eps, and the delta-halving
    change of the strong estimate is bias-subdominant.

    A single-run comparison of independent estimates fluctuates above the
    25%-of-CI threshold by construction, so the change is averaged over
    independent replicates to isolate the discretization bias.
    """
    model = example_2_7("state_linear")
    # the 12 (replicate, delta) runs as the multi-rate blocks of one
    # kernel, every 2^-13 block first; each keeps its own run's numbers
    n, reps, deltas = 1200, range(6), (2**-13, 2**-12)
    cfgs = {d: StepperConfig(epsilon=2**-4, delta=d, t_end=1.0) for d in deltas}
    keys = [(d, rep) for d in deltas for rep in reps]
    blocks = [(RngStream(9400 + rep).child(f"d{d}"), n, cfgs[d]) for d, rep in keys]
    out = run_pair_batch(model, strong_table, 1.0, 1.0, cfgs[2**-13],
                         n_paths=n * len(blocks), stream=blocks)
    sups = {key: out["sup"][b * n:(b + 1) * n] for b, key in enumerate(keys)}
    diffs, halves = [], []
    for rep in reps:
        level = {}
        for delta in (2**-12, 2**-13):
            sp = sups[delta, rep] ** 2
            level[delta] = float(np.mean(sp)) ** 0.5
            halves.append(1.96 * sp.std(ddof=1) / np.sqrt(sp.size)
                          / (2.0 * level[delta]))
        diffs.append(level[2**-12] - level[2**-13])
    mean_change = abs(float(np.mean(diffs)))
    envelope = float(np.mean(halves))
    assert mean_change < 0.25 * 2.0 * envelope
    _report(f"10 step-halving: mean change {mean_change:.4f} "
            f"< 25% of CI envelope {2*envelope:.4f} PASS")


def test_11_weak_mode_agreement(weak_table):
    """Coupled-difference and independent weak estimates agree within
    combined CIs at the largest eps (same estimand, different variance)."""
    model = example_2_8()
    kw = dict(eps=[2**-3, 2**-4, 2**-5], t_end=1.0, n_paths=8192,
              delta_policy=DeltaPolicy(mode="scaled", fast_exp=8),
              x0=0.5, y0=0.5, n_boot=400)
    coupled = weak_error(model, weak_table, make_test_function("x_squared"),
                         mode="coupled_difference", stream=RngStream(9501), **kw)
    indep = weak_error(model, weak_table, make_test_function("x_squared"),
                       mode="independent", stream=RngStream(9502), **kw)
    gap = abs(coupled.errors[0] - indep.errors[0])
    combined = coupled.ci_half[0] + indep.ci_half[0]
    assert gap < combined
    _report(f"11 weak mode agreement at eps=1/8: gap {gap:.4f} "
            f"< combined CI {combined:.4f} PASS")
