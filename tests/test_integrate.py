import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslevy import integrate
from mslevy.ergodic import AveragedTable, ExactAveraged
from mslevy.estimate import DeltaPolicy
from mslevy.errors import BlowUpError, ConfigurationError
from mslevy.integrate import (
    StepperConfig,
    run_averaged_batch,
    run_frozen_batch,
    run_frozen_pair_batch,
    run_pair_batch,
    run_system_batch,
)
from mslevy.model import example_2_7, example_2_8, model_from_config, scalar_model
from mslevy.observers import MeanCurve, ThinCollector
from mslevy.rng import JumpMeasureSpec, PointMass, RngStream, Uniform


def _one_path(model, x0, y0, cfg, seed):
    """A single recorded slow-fast path."""
    return run_system_batch(model, x0, y0, cfg, n_paths=1, stream=RngStream(seed),
                            record=True)["path"]


def _replays(path, model) -> bool:
    """True iff each recorded event's post-state equals pre + jump_map(pre,
    mark) bit for bit (the arithmetic the stepper performed)."""
    for ev in path.events:
        z = np.array([ev.mark])
        if ev.channel == "slow":
            inc = model.slow_jump(ev.pre[None, :], z)[0]
        else:
            x = ev.context["x"][None, :] if "x" in ev.context else ev.pre[None, :]
            inc = model.fast_jump(x, ev.pre[None, :], z)[0]
        if not np.array_equal(ev.post, ev.pre + inc):
            return False
    return True


def _ou_model(**kw):
    defaults = dict(b=lambda x, y: -x, sigma=0.0, f=lambda x, y: -y, g=1.0)
    defaults.update(kw)
    return scalar_model("toy", **defaults)


class TestConfig:
    def test_fast_resolution_guard(self):
        with pytest.raises(ConfigurationError):
            StepperConfig(epsilon=2**-4, delta=2**-6, t_end=1.0)
        StepperConfig(epsilon=2**-4, delta=2**-8, t_end=1.0)

    def test_positive_fields(self):
        for bad in (dict(epsilon=0.0), dict(delta=-1.0), dict(t_end=0.0)):
            kw = dict(epsilon=0.25, delta=2**-8, t_end=1.0)
            kw.update(bad)
            with pytest.raises(ConfigurationError):
                StepperConfig(**kw)

    def test_unknown_scheme(self):
        for scheme in ("milstein", "split_step_implicit"):
            with pytest.raises(ConfigurationError):
                StepperConfig(epsilon=0.25, delta=2**-8, t_end=1.0, scheme=scheme)

    @pytest.mark.parametrize("horizon, delta", [(0.0, 2**-6), (-0.1, 2**-6),
                                                (1.0, 2**-3), (1.0, 0.0)])
    def test_frozen_runs_are_eps_one_configs(self, horizon, delta):
        # the frozen equation is the fast half at eps = 1: its horizon must
        # be positive and its step at most 1/16, for single and paired runs,
        # also without jumps (no event sampling to catch the horizon)
        m = _ou_model(nu2=JumpMeasureSpec(0.0, Uniform(-0.5, 0.5)))
        with pytest.raises(ConfigurationError):
            run_frozen_batch(m, 0.0, 1.0, horizon=horizon, delta=delta,
                             n_chains=4, stream=RngStream(13))
        with pytest.raises(ConfigurationError):
            run_frozen_pair_batch(m, 0.0, 1.0, -1.0, horizon=horizon, delta=delta,
                                  n_pairs=4, stream=RngStream(13))


class TestZeroAndJumpDynamics:
    def test_zero_slow_dynamics_is_constant(self):
        m = scalar_model("still", b=0.0, sigma=0.0,
                         h1=lambda x, z: np.zeros_like(z),
                         f=lambda x, y: -y, g=1.0)
        cfg = StepperConfig(epsilon=0.25, delta=2**-7, t_end=1.0)
        path = _one_path(m, 1.5, 0.0, cfg, 1)
        np.testing.assert_array_equal(path.slow[:, 0], 1.5)

    def test_pure_jump_compensated_bookkeeping(self):
        # X_T - x0 = 0.3 N - 0.6 T for point-mass marks at intensity 2
        nu1 = JumpMeasureSpec(2.0, PointMass(0.3))
        m = scalar_model("purejump", b=0.0, sigma=0.0, f=lambda x, y: -y, g=1.0,
                         nu1=nu1)
        cfg = StepperConfig(epsilon=0.25, delta=2**-7, t_end=1.0)
        path = _one_path(m, 0.0, 0.0, cfg, 2)
        n_slow = sum(1 for e in path.events if e.channel == "slow")
        assert n_slow > 0
        expect = 0.3 * n_slow - 0.6 * 1.0
        assert path.slow[-1, 0] == pytest.approx(expect, abs=1e-10)

    def test_replay_reconstructs_discontinuities_exactly(self):
        m = example_2_7("state_linear")
        cfg = StepperConfig(epsilon=2**-4, delta=2**-9, t_end=1.0)
        path = _one_path(m, 1.0, 1.0, cfg, 3)
        assert len(path.events) > 0
        assert _replays(path, m)
        path.validate()

    def test_augmented_grid_contains_event_times(self):
        m = example_2_7("state_linear")
        cfg = StepperConfig(epsilon=2**-4, delta=2**-9, t_end=1.0)
        path = _one_path(m, 1.0, 1.0, cfg, 3)
        times = set(path.times.tolist())
        for ev in path.events:
            assert ev.time in times

    @settings(max_examples=30, deadline=None)
    @given(rates=st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
           lo=st.floats(-1.0, 0.5), width=st.floats(0.05, 1.0),
           t_end=st.floats(0.05, 0.5), delta=st.floats(2**-10, 2**-7),
           seed=st.integers(0, 2**16))
    def test_recorded_events_lie_on_the_grid_and_replay(self, rates, lo, width,
                                                        t_end, delta, seed):
        # fast jumps at up to 320 per unit time: steps of several rounds
        marks = Uniform(lo, lo + width)
        m = scalar_model(
            "prop", b=lambda x, y: -x + y, sigma=0.5,
            f=lambda x, y: -y - y * y * y, g=1.0,
            h1=lambda x, z: z * (1.0 + 0.1 * x),
            h2=lambda x, y, z: z * (0.5 + 0.1 * y * y),
            nu1=JumpMeasureSpec(rates[0], marks), nu2=JumpMeasureSpec(rates[1], marks))
        cfg = StepperConfig(epsilon=2**-3, delta=delta, t_end=t_end)
        path = _one_path(m, 0.5, -0.3, cfg, seed)
        assert np.all(np.diff(path.times) > 0)
        times = set(path.times.tolist())
        assert all(ev.time in times for ev in path.events)
        assert _replays(path, m)


class TestFrozen:
    def test_linear_ode_limit(self):
        m = _ou_model(g=0.0, h2=lambda x, y, z: np.zeros_like(z))
        path = run_frozen_batch(m, 0.0, 2.0, horizon=1.0, delta=2**-8, n_chains=1,
                                stream=RngStream(4), record=True)["path"]
        assert path.slow is None
        assert abs(path.fast[-1, 0] - 2.0 * np.exp(-1.0)) <= 0.05

    def test_delta_guard(self):
        with pytest.raises(ConfigurationError):
            run_frozen_batch(_ou_model(), 0.0, 1.0, horizon=1.0, delta=0.25,
                             n_chains=1, stream=RngStream(5))

    def test_compensated_jumps_keep_mean(self):
        # h2 = z only, mean-zero marks: compensated martingale, E Y_t = y0
        m = scalar_model("mart", b=0.0, sigma=0.0, f=0.0, g=0.0)
        out = run_frozen_batch(m, 0.0, 0.7, horizon=1.0, delta=2**-7,
                               n_chains=4000, stream=RngStream(6))
        y = out["terminal_fast"][:, 0]
        se = y.std(ddof=1) / np.sqrt(y.size)
        assert abs(y.mean() - 0.7) < 3 * se

    def test_moment_envelope_example_2_7(self):
        # E|Y_t|^2 decays from |y0|^2 into a stationary band
        m = example_2_7("state_linear")
        delta = 2**-7
        steps = int(1.5 / delta)

        class Grab:
            def __init__(self):
                self.vals = []

            def observe(self, step, t, states):
                self.vals.append(float(np.mean(states["y"][:, 0] ** 2)))

        g = Grab()
        run_frozen_batch(m, 0.0, 3.0, horizon=1.5, delta=delta, n_chains=3000,
                         stream=RngStream(7), watchers=(g,))
        curve = np.asarray(g.vals)
        tail = curve[-steps // 5:].mean()
        head = curve[: steps // 50]
        assert curve[0] < 9.0  # one step in, already contracting
        assert head.mean() > 5 * tail  # strong initial decay from y0^2 = 9
        # envelope: exp(-gamma t)|y0|^2 + C with fitted positive gamma
        t = (1 + np.arange(curve.size)) * delta
        excess = np.clip(curve - tail, 1e-12, None)
        early = t < 0.5
        slope = np.polyfit(t[early], np.log(excess[early]), 1)[0]
        assert slope < -0.5
        envelope = np.exp(slope * t) * 9.0 + 1.1 * tail
        assert np.all(curve <= envelope + 0.1)


class TestSchemes:
    def test_tamed_and_plain_euler_agree_on_lipschitz_model(self):
        m = _ou_model(sigma=1.0)
        ends = {}
        for scheme in ("tamed_euler", "euler"):
            cfg = StepperConfig(epsilon=0.25, delta=2**-10, t_end=1.0,
                                scheme=scheme)
            path = _one_path(m, 1.0, 0.5, cfg, 8)
            ends[scheme] = path.slow[-1, 0]
        assert abs(ends["tamed_euler"] - ends["euler"]) < 1e-2

    @settings(max_examples=6, deadline=None)
    @given(x0=st.floats(-1.5, 1.5), y0=st.floats(-1.5, 1.5),
           eps_exp=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_tamed_approaches_euler_in_proportion_to_delta(self, x0, y0, eps_exp,
                                                           seed):
        # taming moves a step by d|d|dt^2 / (1 + dt|d|), so on shared draws
        # the terminal gap to Euler is O(delta): three halvings take it to
        # about 1/8, and the bound 1/4 allows twice that
        m = example_2_7("state_linear")
        eps = 2.0**-eps_exp
        gaps = []
        for k in (6, 7, 8, 9):
            ends = []
            for scheme in ("tamed_euler", "euler"):
                cfg = StepperConfig(epsilon=eps, delta=eps * 2.0**-k, t_end=0.5,
                                    scheme=scheme)
                out = run_system_batch(m, x0, y0, cfg, 64, RngStream(seed))
                ends.append(np.hstack([out["terminal_slow"], out["terminal_fast"]]))
            gaps.append(float(np.mean(np.abs(ends[0] - ends[1]))))
        assert 0 < gaps[-1] <= 0.25 * gaps[0]


class TestPairCoupling:
    def test_bit_identical_when_drift_diffusion_fast_free(self):
        m = scalar_model("xonly", b=lambda x, y: -x, sigma=lambda x, y: 0.4,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        avg = ExactAveraged(lambda x: -x)
        cfg = StepperConfig(epsilon=2**-4, delta=2**-8, t_end=1.0)
        out = run_pair_batch(m, avg, 1.0, 0.3, cfg, n_paths=64,
                             stream=RngStream(11))
        np.testing.assert_array_equal(out["terminal_system"],
                                      out["terminal_averaged"])
        assert np.all(out["sup"] == 0.0)

    def test_requires_sigma_y_independent(self):
        m = example_2_7("sine_bounded")
        cfg = StepperConfig(epsilon=2**-4, delta=2**-8, t_end=1.0)
        with pytest.raises(ConfigurationError):
            run_pair_batch(m, ExactAveraged(lambda x: -x), 1.0, 1.0, cfg,
                           n_paths=4, stream=RngStream(12))

    def test_time_average_variance_oracle(self):
        # b(x,y) = y with fast OU: X_T - x0 integrates the fast path, and
        # Var(int_0^T Y dt) has a closed form for the jump-OU.
        m = scalar_model("avgy", b=lambda x, y: y, sigma=0.0,
                         h1=lambda x, z: np.zeros_like(z),
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        eps, T = 2**-4, 1.0
        lam_m2 = 1.0 * (1.0 / 12.0)
        e = np.exp(-T / eps)
        want = (1.0 + lam_m2) * (
            eps * T - eps**2 * (1 - e) - 0.5 * eps**2 * (1 - e) ** 2
        )
        cfg = StepperConfig(epsilon=eps, delta=eps * 2**-6, t_end=T)
        out = run_pair_batch(m, ExactAveraged(lambda x: 0.0 * x), 0.0, 0.0, cfg,
                             n_paths=2000, stream=RngStream(13))
        diff = out["terminal_system"][:, 0] - out["terminal_averaged"][:, 0]
        assert abs(diff.mean()) < 4 * diff.std(ddof=1) / np.sqrt(diff.size)
        assert np.var(diff, ddof=1) == pytest.approx(want, rel=0.13)

    def test_single_path_api_returns_paths_and_sup(self):
        m = example_2_7("state_linear")
        avg = ExactAveraged(lambda x: -x * x * x + x)
        cfg = StepperConfig(epsilon=2**-4, delta=2**-9, t_end=0.5)
        out = run_pair_batch(m, avg, 1.0, 1.0, cfg, n_paths=1, stream=RngStream(14),
                             record=True)
        p_sys, p_avg, sup = out["path_system"], out["path_averaged"], out["sup"][0]
        xe, xa = out["terminal_system"][0], out["terminal_averaged"][0]
        assert p_sys.slow.shape == p_avg.slow.shape
        np.testing.assert_array_equal(p_sys.times, p_avg.times)
        grid_sup = np.max(np.abs(p_sys.slow - p_avg.slow))
        assert sup == pytest.approx(grid_sup)
        assert xe[0] == p_sys.slow[-1, 0] and xa[0] == p_avg.slow[-1, 0]


def _drift_only_model():
    """dX = dt exactly, no noise and no jump increments."""
    return scalar_model("driftonly", b=1.0, sigma=0.0,
                        h1=lambda x, z: np.zeros_like(z),
                        f=lambda x, y: -y, g=0.0,
                        h2=lambda x, y, z: np.zeros_like(z),
                        sigma_y_independent=True)


class TestCheckpointsAndBlowup:
    def test_checkpoints_match_deterministic_motion(self):
        cfg = StepperConfig(epsilon=0.25, delta=2**-8, t_end=1.0, scheme="euler")
        out = run_system_batch(_drift_only_model(), 0.0, 0.0, cfg, n_paths=3,
                               stream=RngStream(15), checkpoints=(0.25, 0.5, 1.0))
        for t, snap in out["checkpoints"].items():
            np.testing.assert_allclose(snap["x"][:, 0], t, atol=1e-12)

    def test_unaligned_checkpoints_rejected(self):
        # delta = 0.1 would otherwise return the states at 0.3 and 0.4
        # labelled 0.33 and 0.37
        cfg = StepperConfig(epsilon=2.0, delta=0.1, t_end=1.0, scheme="euler")
        for bad in ((0.33,), (0.37,), (0.3, 0.33), (0.5, 0.5), (0.0,), (-0.1,),
                    (1.1,)):
            with pytest.raises(ConfigurationError):
                run_system_batch(_drift_only_model(), 0.0, 0.0, cfg, n_paths=2,
                                 stream=RngStream(15), checkpoints=bad)
        out = run_system_batch(_drift_only_model(), 0.0, 0.0, cfg, n_paths=2,
                               stream=RngStream(15), checkpoints=(0.3, 0.4, 1.0))
        assert sorted(out["checkpoints"]) == [0.3, 0.4, 1.0]
        for t, snap in out["checkpoints"].items():
            np.testing.assert_allclose(snap["x"][:, 0], t, atol=1e-12)

    def test_t_end_checkpoint_off_grid_is_the_final_state(self):
        # t_end = 1.0 is not a multiple of delta = 0.3; the last step is short
        cfg = StepperConfig(epsilon=5.0, delta=0.3, t_end=1.0, scheme="euler")
        out = run_system_batch(_drift_only_model(), 0.0, 0.0, cfg, n_paths=2,
                               stream=RngStream(15), checkpoints=(0.9, 1.0))
        np.testing.assert_allclose(out["checkpoints"][0.9]["x"][:, 0], 0.9, atol=1e-12)
        np.testing.assert_array_equal(out["checkpoints"][1.0]["x"],
                                      out["terminal_slow"])
        np.testing.assert_allclose(out["terminal_slow"][:, 0], 1.0, atol=1e-12)

    def test_blow_up_aborts_with_diagnostic(self):
        m = scalar_model("explode", b=lambda x, y: x * x * x, sigma=0.0,
                         f=lambda x, y: -y, g=0.0)
        cfg = StepperConfig(epsilon=0.25, delta=2**-6, t_end=4.0, scheme="euler")
        with pytest.raises(BlowUpError) as exc:
            run_system_batch(m, 3.0, 0.0, cfg, n_paths=2, stream=RngStream(16))
        assert 0 < exc.value.time <= 4.0
        assert len(exc.value.paths) >= 1

    def test_blow_up_in_a_multi_rate_block_names_its_own_step_end(self):
        # y climbs at rate 1/eps, and the fast drift is infinite past 20:
        # only the eps = 2^-6 block gets there, at the end of one of its
        # own steps, which is not a step end of the coarsest block
        m = scalar_model("climb", b=0.0, sigma=0.0, g=0.0,
                         f=lambda x, y: np.where(y > 20.0, np.inf, 1.0),
                         sigma_y_independent=True)
        avg = ExactAveraged(lambda x: np.zeros_like(x))
        cfgs = [StepperConfig(epsilon=e, delta=e * 2**-4, t_end=0.5)
                for e in (2**-6, 2**-5, 2**-3)]
        blocks = [(RngStream(30, i), 3, c) for i, c in enumerate(cfgs)]
        with pytest.raises(BlowUpError, match="of block 0") as fused:
            run_pair_batch(m, avg, 0.0, 0.0, cfgs[0], 9, blocks)
        with pytest.raises(BlowUpError) as alone:
            run_pair_batch(m, avg, 0.0, 0.0, cfgs[0], 3, RngStream(30, 0))
        assert (fused.value.time, fused.value.paths) == (alone.value.time,
                                                         alone.value.paths)
        assert fused.value.time % cfgs[-1].delta != 0

    def test_blow_up_in_a_block_names_the_block_and_its_path(self):
        # the fast drift is infinite only where the frozen slow state is 3
        m = scalar_model("wall", b=0.0, sigma=0.0, g=1.0,
                         f=lambda x, y: np.where(x > 2.5, np.inf, -y))
        x = np.array([0.0] * 3 + [1.0, 3.0, 1.0, 3.0] + [0.0] * 2)[:, None]
        blocks = [(RngStream(19, i), n) for i, n in enumerate((3, 4, 2))]
        with pytest.raises(BlowUpError, match="of block 1") as exc:
            run_frozen_batch(m, x, 0.0, horizon=1.0, delta=2**-6, n_chains=9,
                             stream=blocks)
        assert exc.value.block == 1
        assert exc.value.paths == [1, 3]
        # a list of one block still names it
        with pytest.raises(BlowUpError, match="of block 0") as exc:
            run_frozen_batch(m, x[3:7], 0.0, horizon=1.0, delta=2**-6,
                             n_chains=4, stream=[(RngStream(19, 1), 4)])
        assert exc.value.block == 0
        assert exc.value.paths == [1, 3]

    @pytest.mark.parametrize("value, time", [
        (np.nan, 0.921875), (np.inf, 0.921875), (-np.inf, 0.921875),
        (1e14, 0.921875),
        # finite at the first bad step; the state passes the cap later
        (2e12, 0.984375),
    ])
    def test_blow_up_guard_catches_nan_inf_and_the_cap(self, value, time):
        # once y > 0.5, the one path at x = 3 (path 1 of block 1) diffuses
        # with `value`: NaN, +-inf or a finite state beyond the cap
        m = scalar_model("edge", b=0.0, sigma=0.0, f=lambda x, y: 1.0 - y,
                         g=lambda x, y: np.where((x > 2.5) & (y > 0.5), value, 1.0))
        x = np.array([0.0] * 3 + [1.0, 3.0, 1.0, 1.0] + [0.0] * 2)[:, None]
        blocks = [(RngStream(23, i), n) for i, n in enumerate((3, 4, 2))]
        with pytest.raises(BlowUpError) as exc:
            run_frozen_batch(m, x, 0.0, horizon=2.0, delta=2**-6, n_chains=9,
                             stream=blocks)
        assert (exc.value.time, exc.value.paths, exc.value.block) == (time, [1], 1)

    @pytest.mark.slow
    def test_no_blow_up_example_2_7(self):
        # superlinear drifts -x^3, -y^5 complete a full batch without aborts
        m = example_2_7("state_linear")
        cfg = StepperConfig(epsilon=2**-6, delta=2**-6 * 2**-6, t_end=1.0)
        out = run_system_batch(m, 1.0, 1.0, cfg, n_paths=1000,
                               stream=RngStream(17))
        assert np.all(np.isfinite(out["terminal_slow"]))
        assert np.all(np.isfinite(out["terminal_fast"]))


class TestMomentStability:
    @pytest.mark.slow
    def test_slow_sup_moment_stable_under_delta_halving(self):
        from mslevy.observers import PathwiseSup

        m = example_2_7("state_linear")
        vals = {}
        for k, delta in ((0, 2**-10), (1, 2**-11)):
            cfg = StepperConfig(epsilon=2**-4, delta=delta, t_end=1.0)
            sup = PathwiseSup("x")
            run_system_batch(m, 1.0, 1.0, cfg, n_paths=200,
                             stream=RngStream(18), watchers=(sup,))
            vals[k] = float(np.mean(sup.value**4))
        assert np.isfinite(vals[0]) and np.isfinite(vals[1])
        assert abs(vals[0] - vals[1]) < 0.3 * max(vals[0], vals[1])


class TestAveragedWeak:
    def test_unit_diffusion_terminal_variance(self):
        m = scalar_model("flat", b=0.0, sigma=1.0,
                         h1=lambda x, z: np.zeros_like(z),
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        avg = ExactAveraged(lambda x: 0.0 * x,
                            lambda x: np.full((len(x), 1, 1), 1.0))
        cfg = StepperConfig(epsilon=0.25, delta=2**-8, t_end=1.0)
        out = run_averaged_batch(m, avg, 0.0, cfg, n_paths=10_000,
                                 stream=RngStream(60))
        var = out["terminal_slow"][:, 0].var(ddof=1)
        assert abs(var - 1.0) < 0.05

    def test_scalar_roots(self):
        avg = ExactAveraged(lambda x: 0.0 * x,
                            lambda x: np.full((len(x), 1, 1), 4.0))
        assert avg.diffusion_root(np.zeros((3, 1)))[0, 0, 0] == 2.0
        unit = ExactAveraged(lambda x: 0.0 * x,
                             lambda x: np.full((len(x), 1, 1), 1.0))
        assert unit.diffusion_root(np.zeros((3, 1)))[0, 0, 0] == 1.0

    def test_single_path_api(self):
        m = example_2_7("state_linear")
        avg = ExactAveraged(lambda x: -x * x * x + x,
                            lambda x: (x * x)[:, :, None])
        cfg = StepperConfig(epsilon=0.25, delta=2**-8, t_end=0.5)
        out = run_averaged_batch(m, avg, 1.0, cfg, n_paths=1, stream=RngStream(61),
                                 record=True)
        path = out["path"]
        np.testing.assert_array_equal(path.slow[-1], out["terminal_slow"][0])
        assert path.fast is None
        assert np.isfinite(path.slow).all()
        path.validate()


class TestTraceDump:
    def test_csv_columns_and_event_flags(self):
        # one slow and one fast row per grid time; each event sits on its
        # own grid row, which holds the post-jump state of its target
        m = example_2_7("state_linear")
        cfg = StepperConfig(epsilon=2**-4, delta=2**-8, t_end=0.5)
        path = _one_path(m, 1.0, 1.0, cfg, 62)
        assert path.slow.shape == path.fast.shape == (len(path.times), 1)
        event_times = [e.time for e in path.events]
        assert len(event_times) == len(set(event_times)) > 0
        rows = np.searchsorted(path.times, event_times)
        np.testing.assert_array_equal(path.times[rows], event_times)
        for ev, k in zip(path.events, rows):
            state = path.slow if ev.target == "x" else path.fast
            np.testing.assert_array_equal(state[k], ev.post)


def _blocks_model():
    """Frozen dynamics that exercise every per-block draw: x-dependent
    drift and diffusion, and fast jumps at rate 48 (about three events
    per path per 1/16 step, so several ranks per step) whose map depends
    on the state and is affine in marks of mean 0.35, which selects the
    affine compensator."""
    return scalar_model(
        "blocks", b=0.0, sigma=0.0,
        f=lambda x, y: 0.5 * x - y - 0.1 * y * y * y,
        g=lambda x, y: 0.5 + 0.1 * x * x,
        h2=lambda x, y, z: z * (0.3 + 0.1 * y * y) - 0.05 * x,
        nu2=JumpMeasureSpec(intensity=48.0, size=Uniform(0.1, 0.6)),
    )


class TestStreamBlocks:
    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_fused_run_equals_separate_runs(self, sizes, seed):
        m = _blocks_model()
        streams = [RngStream(seed).child(f"block:{i}") for i in range(len(sizes))]
        xs = [0.7 * i - 1.0 for i in range(len(sizes))]
        kw = dict(horizon=0.5, delta=2**-4)
        fused = ThinCollector("y", 2, 3)
        out = run_frozen_batch(
            m, np.repeat(xs, sizes)[:, None], 0.2, n_chains=sum(sizes),
            stream=list(zip(streams, sizes)), watchers=(fused,), **kw)
        lo = 0
        for s, x, n in zip(streams, xs, sizes):
            alone = ThinCollector("y", 2, 3)
            ref = run_frozen_batch(m, x, 0.2, n_chains=n, stream=s,
                                   watchers=(alone,), **kw)
            np.testing.assert_array_equal(out["terminal_fast"][lo:lo + n],
                                          ref["terminal_fast"])
            np.testing.assert_array_equal(fused.stacked(slice(lo, lo + n)),
                                          alone.stacked())
            lo += n

    @pytest.mark.parametrize("h2", [
        # affine in the mark for x < 0, quadratic below 1.5, zero above
        lambda x, y, z: np.where(x < 0, z, np.where(x < 1.5, z * z, 0.0)),
        # state-free near each block's slow state, but not the same there
        lambda x, y, z: z + np.where(x < 0, 1.0, 2.0),
    ], ids=["kinked", "piecewise-constant"])
    def test_each_block_keeps_its_own_compensator(self, h2):
        # a separate run classifies the jump map near its own slow state
        m = scalar_model("kink", b=0.0, sigma=0.0, f=lambda x, y: -y, g=1.0,
                         h2=h2, nu2=JumpMeasureSpec(intensity=8.0,
                                                    size=Uniform(0.1, 0.6)))
        xs, sizes = [-3.0, 3.0, -3.0, 0.5], [2, 5, 3, 4]
        streams = [RngStream(20, i) for i in range(len(sizes))]
        kw = dict(horizon=0.5, delta=2**-4)
        out = run_frozen_batch(m, np.repeat(xs, sizes)[:, None], 0.0,
                               n_chains=sum(sizes),
                               stream=list(zip(streams, sizes)), **kw)
        lo = 0
        for s, x, n in zip(streams, xs, sizes):
            ref = run_frozen_batch(m, x, 0.0, n_chains=n, stream=s, **kw)
            np.testing.assert_array_equal(out["terminal_fast"][lo:lo + n],
                                          ref["terminal_fast"])
            lo += n

    def test_every_row_of_a_stream_chooses_the_form(self):
        # the slow jump map is affine in the mark only for x < 0, so rows
        # at x = 3 need the quadrature value lambda * m2, not lambda * m1,
        # wherever they sit in a single-stream batch
        m = scalar_model("kinked_slow", b=0.0, sigma=0.0, f=lambda x, y: -y,
                         g=1.0, h1=lambda x, z: np.where(x < 0, z, z * z),
                         nu1=JumpMeasureSpec(intensity=4.0, size=Uniform(0.1, 0.6)))

        def correction(x0):
            cfg = StepperConfig(epsilon=1.0, delta=2**-6, t_end=1.0)
            kernel = integrate._Kernel(cfg, 8, RngStream(21))
            integrate._build_slow_fast(kernel, m, np.array(x0)[:, None], 0.0)
            return kernel.components[0].compensator(kernel.states)

        left = correction([-3.0] * 4 + [3.0] * 4)
        right = correction([3.0] * 4 + [-3.0] * 4)
        np.testing.assert_array_equal(left, np.roll(right, 4, axis=0))
        m1, m2 = 0.35, (0.6**3 - 0.1**3) / (3 * 0.5)
        np.testing.assert_allclose(left[:, 0], [4 * m1] * 4 + [4 * m2] * 4,
                                   rtol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 64),
           mode=st.sampled_from(["global", "scaled"]), odd=st.booleans(),
           t_end=st.sampled_from([0.375, 0.3]))
    def test_multi_rate_run_equals_one_run_per_level(self, seed, width, mode,
                                                     odd, t_end):
        # slow and fast jumps whose maps are not affine in the mark (so
        # quadrature compensators), a table twin that clamps, and, with
        # `odd`, a level whose step is 3/4 of another's (its own group)
        m = scalar_model(
            "multi", b=lambda x, y: -x + y, sigma=0.5,
            f=lambda x, y: -y - y * y * y, g=1.0,
            h1=lambda x, z: z * z * (1.0 + 0.1 * x),
            h2=lambda x, y, z: z * z * (0.3 + 0.1 * y * y),
            nu1=JumpMeasureSpec(8.0, Uniform(-0.5, 0.7)),
            nu2=JumpMeasureSpec(2.0, Uniform(0.1, 0.6)),
            sigma_y_independent=True)
        grid = np.linspace(-0.5, 1.5, 9)
        table = AveragedTable(
            grid=grid, drift_values=-grid[:, None], drift_ci=np.zeros((9, 1)),
            diff2_values=np.ones((9, 1, 1)), diff2_ci=np.zeros((9, 1, 1)))
        eps = [2**-2, 3 * 2**-5, 2**-3, 2**-4] if odd else [2**-2, 2**-3, 2**-4]
        policy = DeltaPolicy(mode=mode, fast_exp=4)
        cfgs = [StepperConfig(epsilon=e, delta=policy.delta_for(e, min(eps)),
                              t_end=t_end) for e in eps]
        cps = (0.1875, 0.375) if t_end == 0.375 else (0.3,)
        streams = [RngStream(seed).child(f"level:{j}") for j in range(len(eps))]
        groups = integrate._rate_groups(cfgs)
        assert len(groups) == (2 if odd and mode == "scaled" else 1)
        for group in groups:
            out = run_pair_batch(m, table, 0.5, -0.3, cfgs[group[0]],
                                 width * len(group),
                                 [(streams[j], width, cfgs[j]) for j in group],
                                 checkpoints=cps)
            for b, j in enumerate(group):
                ref = run_pair_batch(m, table, 0.5, -0.3, cfgs[j], width,
                                     streams[j], checkpoints=cps)
                rows = slice(b * width, (b + 1) * width)
                for key in ("sup", "terminal_system", "terminal_averaged"):
                    np.testing.assert_array_equal(out[key][rows], ref[key])
                for t in cps:
                    for name in ("x", "y", "xt"):
                        np.testing.assert_array_equal(
                            out["checkpoints"][t][name][rows],
                            ref["checkpoints"][t][name])
                assert out["clamped"][b] == ref["clamped"][0]

    def test_multi_rate_blocks_must_nest(self):
        m = _blocks_model()
        fine = StepperConfig(epsilon=2**-2, delta=2**-6, t_end=0.5)
        coarse = StepperConfig(epsilon=1.0, delta=2**-5, t_end=0.5)
        for other in (StepperConfig(epsilon=1.0, delta=3 * 2**-6, t_end=0.5),
                      StepperConfig(epsilon=1.0, delta=2**-5, t_end=0.25),
                      StepperConfig(epsilon=1.0, delta=2**-5, t_end=0.5,
                                    scheme="euler")):
            with pytest.raises(ConfigurationError, match="multi-rate"):
                run_system_batch(m, 0.0, 0.0, fine, 4,
                                 [(RngStream(1), 2, fine), (RngStream(2), 2, other)])
        with pytest.raises(ConfigurationError, match="multi-rate"):
            run_system_batch(m, 0.0, 0.0, fine, 4,
                             [(RngStream(2), 2, coarse), (RngStream(1), 2, fine)])
        blocks = [(RngStream(1), 2, fine), (RngStream(2), 2, coarse)]
        # a checkpoint on the fine grid only is off the coarse block's grid
        with pytest.raises(ConfigurationError, match="off the delta=0.03125 grid"):
            run_system_batch(m, 0.0, 0.0, fine, 4, blocks, checkpoints=(2**-6,))
        with pytest.raises(ConfigurationError, match="watchers"):
            run_system_batch(m, 0.0, 0.0, fine, 4, blocks,
                             watchers=(ThinCollector("y", 0, 1),))

    def test_blocks_must_cover_the_batch(self):
        m = _blocks_model()
        for blocks in ([(RngStream(1), 2), (RngStream(2), 2)],
                       [(RngStream(1), 5), (RngStream(2), 0)], []):
            with pytest.raises(ConfigurationError, match="block"):
                run_frozen_batch(m, 0.0, 0.0, horizon=0.5, delta=2**-4,
                                 n_chains=5, stream=blocks)

    @pytest.mark.parametrize("n", [0, -3])
    def test_a_single_stream_needs_a_path(self, n):
        # refused like an empty block, not by NumPy at the first step
        m = _blocks_model()
        with pytest.raises(ConfigurationError,
                           match=f"a run needs at least one path, not {n}"):
            run_frozen_batch(m, 0.0, 0.0, horizon=0.5, delta=2**-4, n_chains=n,
                             stream=RngStream(1))
        with pytest.raises(ConfigurationError, match="at least one path"):
            run_system_batch(m, 0.0, 0.0, StepperConfig(epsilon=0.5, delta=2**-6,
                                                        t_end=0.5),
                             n, RngStream(1))


class TestObservers:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           steps=st.sets(st.integers(1, 31), max_size=4), pair=st.booleans())
    def test_observers_never_change_a_draw(self, seed, sizes, steps, pair):
        # slow and fast jumps, the fast ones about once per path and step
        m = scalar_model(
            "observed", b=lambda x, y: -x + y, sigma=0.5,
            f=lambda x, y: -y - y * y * y, g=1.0,
            h1=lambda x, z: z * (1.0 + 0.1 * x),
            nu1=JumpMeasureSpec(8.0, Uniform(-0.5, 0.7)),
            nu2=JumpMeasureSpec(16.0, Uniform(0.1, 0.6)),
            sigma_y_independent=True)
        avg = ExactAveraged(lambda x: -x)
        cfg = StepperConfig(epsilon=2**-3, delta=2**-7, t_end=0.25)
        checkpoints = sorted(k * cfg.delta for k in steps) + [cfg.t_end]
        keys = (("terminal_system", "terminal_averaged", "sup") if pair
                else ("terminal_slow", "terminal_fast"))

        def run(n, stream, observed, record=False):
            kw = dict(checkpoints=checkpoints, record=record) if observed else {}
            if pair:
                return run_pair_batch(m, avg, 0.5, -0.3, cfg, n, stream, **kw)
            if observed:
                kw["watchers"] = (MeanCurve(lambda states: states["x"] * states["y"]),)
            return run_system_batch(m, 0.5, -0.3, cfg, n, stream, **kw)

        blocks = [(RngStream(seed).child(f"block:{i}"), n) for i, n in enumerate(sizes)]
        for n, stream, record in ((sum(sizes), blocks, False),
                                  (1, RngStream(seed), True)):
            seen = run(n, stream, True, record)
            plain = run(n, stream, False)
            for key in keys:
                np.testing.assert_array_equal(seen[key], plain[key])
            final = seen["checkpoints"][cfg.t_end]
            np.testing.assert_array_equal(final["x"], seen[keys[0]])
            if pair:
                np.testing.assert_array_equal(final["xt"], seen[keys[1]])
            else:
                np.testing.assert_array_equal(final["y"], seen[keys[1]])
        paths = ("path_system", "path_averaged") if pair else ("path",)
        for key, name in zip(paths, keys):
            np.testing.assert_array_equal(seen[key].slow[-1], seen[name][0])


class TestConstantDiffusion:
    @settings(max_examples=30, deadline=None)
    @given(c=st.one_of(st.just(1.0), st.floats(-2.0, 2.0)),
           sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           steps=st.integers(2, 48), seed=st.integers(0, 2**32 - 1))
    def test_a_constant_diffusion_runs_the_bits_of_the_general_path(
            self, c, sizes, steps, seed):
        # "c + 0*y" reads y, so it takes the coefficient call and the
        # matrix product; "c" is added as c * dw (dw itself when c is 1)
        def spec(text):
            return model_from_config({
                "b": "-x + y", "sigma": text, "f": "sin(x) - y - y*y*y", "g": text,
                "h2": "z * cos(x)",
                "nu1": {"intensity": 6.0, "size": {"kind": "uniform", "lo": -0.5,
                                                   "hi": 0.7}},
                "nu2": {"intensity": 24.0, "size": {"kind": "uniform", "lo": 0.1,
                                                    "hi": 0.6}}})

        lit = repr(c)
        const, general = spec(lit), spec(f"{lit} + 0*y")
        assert const.fast_diffusion.constant == c
        assert getattr(general.fast_diffusion, "constant", None) is None
        n = sum(sizes)
        blocks = [(RngStream(seed, i), k) for i, k in enumerate(sizes)]
        x = np.repeat(np.linspace(-1.0, 1.0, len(sizes)), sizes)[:, None]
        # the coupled run's horizon is on its grid; the frozen runs' may
        # end in a short step
        horizon = steps * 2**-7
        cfg = StepperConfig(epsilon=2**-3, delta=2**-7, t_end=horizon)

        def runs(m):
            return [run_frozen_batch(m, x, 0.2, horizon=horizon, delta=2**-6,
                                     n_chains=n, stream=blocks, checkpoints=(horizon,)),
                    run_frozen_pair_batch(m, 0.4, -0.5, 0.5, horizon=horizon,
                                          delta=2**-6, n_pairs=n,
                                          stream=RngStream(seed)),
                    run_system_batch(m, 0.5, -0.3, cfg, n, blocks,
                                     checkpoints=(steps // 2 * 2**-7, horizon))]

        for a, b in zip(runs(const), runs(general)):
            assert _sha(a) == _sha(b)


def _sha(out) -> str:
    """sha256 over a run's outputs (terminal states, sup, clamps) and its
    checkpoint snapshots, in key order; recorded paths are not hashed."""
    h = hashlib.sha256()
    for key in sorted(out):
        if key == "checkpoints":
            for t in sorted(out[key]):
                for name in sorted(out[key][t]):
                    h.update(np.ascontiguousarray(out[key][t][name]).tobytes())
        else:
            h.update(np.ascontiguousarray(out[key]).tobytes())
    return h.hexdigest()


def _golden_run(case):
    """One small fixed-seed run per kernel path whose bytes are pinned."""
    if case == "frozen-no-events":
        # the expression model of the corrector workload, without jumps
        m = model_from_config({
            "b": "-pow(x,3)+x+pow(y,3)", "sigma": "x", "f": "sin(x)-y-pow(y,5)",
            "g": "1", "nu1": {"intensity": 0.0, "size": {"kind": "point_mass",
                                                          "value": 0.0}},
            "nu2": {"intensity": 0.0, "size": {"kind": "point_mass", "value": 0.0}}})
        return run_frozen_batch(m, 0.0, 1.0, horizon=0.5, delta=2**-8, n_chains=6,
                                stream=RngStream(101), checkpoints=(0.25, 0.5))
    if case == "frozen-quadrature":
        # a jump map that is not affine in the mark: quadrature compensator
        m = scalar_model("quad", b=0.0, sigma=0.0,
                         f=lambda x, y: 0.5 * x - y - 0.1 * y * y * y, g=1.0,
                         h2=lambda x, y, z: z * z * (0.3 + 0.1 * y * y),
                         nu2=JumpMeasureSpec(intensity=48.0, size=Uniform(0.1, 0.6)))
        blocks = [(RngStream(102, i), n) for i, n in enumerate((3, 4))]
        x = np.repeat([-1.0, 0.5], (3, 4))[:, None]
        return run_frozen_batch(m, x, 0.2, horizon=0.5, delta=2**-6, n_chains=7,
                                stream=blocks, checkpoints=(0.25, 0.5))
    if case == "multi-rate-pair-table":
        m = scalar_model(
            "multi", b=lambda x, y: -x + y, sigma=0.5,
            f=lambda x, y: -y - y * y * y, g=1.0,
            h1=lambda x, z: z * z * (1.0 + 0.1 * x),
            h2=lambda x, y, z: z * z * (0.3 + 0.1 * y * y),
            nu1=JumpMeasureSpec(8.0, Uniform(-0.5, 0.7)),
            nu2=JumpMeasureSpec(2.0, Uniform(0.1, 0.6)),
            sigma_y_independent=True)
        # a narrow table, so that the twin clamps
        grid = np.linspace(0.25, 0.75, 9)
        table = AveragedTable(
            grid=grid, drift_values=-grid[:, None], drift_ci=np.zeros((9, 1)),
            diff2_values=np.ones((9, 1, 1)), diff2_ci=np.zeros((9, 1, 1)))
        policy = DeltaPolicy(mode="scaled", fast_exp=4)
        cfgs = [StepperConfig(epsilon=e, delta=policy.delta_for(e, 2**-4),
                              t_end=0.375) for e in (2**-4, 2**-3, 2**-2)]
        blocks = [(RngStream(103, j), 4, c) for j, c in enumerate(cfgs)]
        return run_pair_batch(m, table, 0.5, -0.3, cfgs[0], 12, blocks,
                              checkpoints=(0.1875, 0.375))
    if case == "frozen-blocks-builtin":
        # two blocks at their own slow states, with fast jumps: the
        # sub-advances and jump rows gather the slow-only parts
        blocks = [(RngStream(105, i), n) for i, n in enumerate((5, 3))]
        x = np.repeat([-0.7, 1.3], (5, 3))[:, None]
        return run_frozen_batch(example_2_7("state_linear"), x, 0.4, horizon=3.0,
                                delta=2**-6, n_chains=8, stream=blocks,
                                checkpoints=(1.5, 3.0))
    if case == "frozen-pair-2-8":
        return run_frozen_pair_batch(example_2_8(), 0.6, -1.0, 1.0, horizon=3.0,
                                     delta=2**-6, n_pairs=6, stream=RngStream(106))
    if case == "frozen-sine":
        return run_frozen_batch(example_2_7("sine_bounded"), -0.9, 0.3, horizon=3.0,
                                delta=2**-6, n_chains=6, stream=RngStream(107),
                                checkpoints=(1.5, 3.0))
    if case == "frozen-affine-expression":
        # a fast jump map affine in the mark, with slow-only coefficients
        m = model_from_config({
            "b": "-x", "sigma": "1", "f": "cos(x) - y - y*y*y", "g": "1 + 0.5*sin(x)",
            "h2": "sin(x)*z + 0.2*z",
            "nu2": {"intensity": 6.0, "size": {"kind": "uniform", "lo": 0.1, "hi": 0.6}}})
        blocks = [(RngStream(108, i), n) for i, n in enumerate((4, 4))]
        x = np.repeat([0.3, -1.1], (4, 4))[:, None]
        return run_frozen_batch(m, x, 0.0, horizon=2.0, delta=2**-6, n_chains=8,
                                stream=blocks, checkpoints=(1.0, 2.0))
    if case == "frozen-rank-2":
        # about 2.5 fast events per path and step: steps of three and more
        # jump rounds, whose jump map reads a slow-only part
        m = model_from_config({
            "b": "-x", "sigma": "1", "f": "cos(x) - y - y*y*y", "g": "1",
            "h2": "z * cos(x)",
            "nu2": {"intensity": 160.0, "size": {"kind": "uniform", "lo": -0.3,
                                                 "hi": 0.5}}})
        return run_frozen_batch(m, 0.4, 0.1, horizon=0.5, delta=2**-6, n_chains=6,
                                stream=RngStream(109), checkpoints=(0.25, 0.5))
    if case in ("pair-mixed-rounds", "multi-rate-rank-1"):
        m = scalar_model(
            "rounds", b=lambda x, y: -x + y, sigma=0.5,
            f=lambda x, y: -y - y * y * y, g=1.0,
            h1=lambda x, z: z * (1.0 + 0.1 * x),
            h2=lambda x, y, z: z * (0.5 + 0.1 * y * y),
            nu1=JumpMeasureSpec(24.0, Uniform(-0.5, 0.7)),
            nu2=JumpMeasureSpec(12.0, Uniform(0.1, 0.6)),
            sigma_y_independent=True)
        grid = np.linspace(-1.0, 1.0, 9)
        table = AveragedTable(
            grid=grid, drift_values=-grid[:, None], drift_ci=np.zeros((9, 1)),
            diff2_values=np.ones((9, 1, 1)), diff2_ci=np.zeros((9, 1, 1)))
        if case == "pair-mixed-rounds":
            # slow and fast events of one round on different paths
            cfg = StepperConfig(epsilon=2**-3, delta=2**-7, t_end=0.25)
            return run_pair_batch(m, table, 0.3, -0.2, cfg, 6, RngStream(110),
                                  checkpoints=(0.125, 0.25))
        # the fast rate at the finest eps gives second events within a step
        policy = DeltaPolicy(mode="scaled", fast_exp=4)
        cfgs = [StepperConfig(epsilon=e, delta=policy.delta_for(e, 2**-4),
                              t_end=0.25) for e in (2**-5, 2**-4, 2**-3)]
        blocks = [(RngStream(111, j), 3, c) for j, c in enumerate(cfgs)]
        return run_pair_batch(m, table, 0.3, -0.2, cfgs[0], 9, blocks,
                              checkpoints=(0.125, 0.25))
    if case == "frozen-thin-narrow":
        # corrector-narrow's expression model (g = 1) on 32 chains, with
        # its invariant run's ThinCollector
        m = model_from_config({
            "b": "-pow(x,3)+x+pow(y,3)", "sigma": "x", "f": "sin(x)-y-pow(y,5)",
            "g": "1", "nu1": {"intensity": 0.0, "size": {"kind": "uniform",
                                                          "lo": -0.5, "hi": 0.5}},
            "nu2": {"intensity": 0.0, "size": {"kind": "uniform", "lo": -0.5,
                                               "hi": 0.5}}})
        thin = ThinCollector("y", burn_steps=32, thin=8)
        out = run_frozen_batch(m, 0.0, 1.0, horizon=1.0, delta=2**-8, n_chains=32,
                               stream=RngStream(112), watchers=(thin,))
        out["thin"] = thin.stacked()
        return out
    if case == "multi-rate-pair-2-8":
        # sigma = 1, shared by x and its twin, with slow and fast jumps
        grid = np.linspace(-2.0, 2.0, 17)
        table = AveragedTable(
            grid=grid, drift_values=-grid[:, None], drift_ci=np.zeros((17, 1)),
            diff2_values=np.ones((17, 1, 1)), diff2_ci=np.zeros((17, 1, 1)))
        policy = DeltaPolicy(mode="scaled", fast_exp=4)
        cfgs = [StepperConfig(epsilon=e, delta=policy.delta_for(e, 2**-4),
                              t_end=0.5) for e in (2**-5, 2**-4, 2**-3)]
        blocks = [(RngStream(113, j), 4, c) for j, c in enumerate(cfgs)]
        return run_pair_batch(example_2_8(), table, 0.3, -0.2, cfgs[0], 12, blocks,
                              checkpoints=(0.25, 0.5))
    if case in ("frozen-pair-half", "system-half"):
        # constant diffusions other than 1, with slow and fast jumps
        m = model_from_config({
            "b": "-x + y", "sigma": "0.5", "f": "sin(x) - y - y*y*y", "g": "0.5",
            "nu1": {"intensity": 8.0, "size": {"kind": "uniform", "lo": -0.5,
                                               "hi": 0.7}},
            "nu2": {"intensity": 16.0, "size": {"kind": "uniform", "lo": 0.1,
                                                "hi": 0.6}}})
        if case == "frozen-pair-half":
            return run_frozen_pair_batch(m, 0.6, -1.0, 1.0, horizon=1.0, delta=2**-6,
                                         n_pairs=6, stream=RngStream(114))
        cfg = StepperConfig(epsilon=2**-3, delta=2**-7, t_end=0.25)
        return run_system_batch(m, 0.5, -0.3, cfg, 5, RngStream(115),
                                checkpoints=(0.125, 0.25))
    if case == "frozen-unequal-blocks":
        # blocks of 5, 2 and 9 chains with about 0.6 events per chain and
        # step: the event advances fill slices of each block's draw rows
        m = model_from_config({
            "b": "-x", "sigma": "1", "f": "cos(x) - y - y*y*y", "g": "1",
            "nu2": {"intensity": 40.0, "size": {"kind": "uniform", "lo": -0.3,
                                                "hi": 0.5}}})
        blocks = [(RngStream(116, i), n) for i, n in enumerate((5, 2, 9))]
        x = np.repeat([0.3, -1.1, 0.8], (5, 2, 9))[:, None]
        return run_frozen_batch(m, x, 0.1, horizon=1.0, delta=2**-6, n_chains=16,
                                stream=blocks, checkpoints=(0.5, 1.0))
    # one short coupled run per scheme, with slow and fast jumps
    m = scalar_model(
        "schemes", b=lambda x, y: -x + y, sigma=0.5,
        f=lambda x, y: -y - y * y * y, g=1.0,
        h1=lambda x, z: z * (1.0 + 0.1 * x),
        nu1=JumpMeasureSpec(8.0, Uniform(-0.5, 0.7)),
        nu2=JumpMeasureSpec(16.0, Uniform(0.1, 0.6)))
    cfg = StepperConfig(epsilon=2**-3, delta=2**-7, t_end=0.25, scheme=case)
    return run_system_batch(m, 0.5, -0.3, cfg, 5, RngStream(104),
                            checkpoints=(0.125, 0.25))


class TestGoldenBytes:
    # digests of the runs above, recorded before the kernel's per-advance
    # overheads were cut; a change that moves one changed the arithmetic.
    # They hold for one NumPy build (2.4.6, x86-64): another LAPACK may
    # move the last bits of the Gauss-Legendre nodes of the quadrature runs
    GOLDEN = {
        "frozen-no-events":
            "69c4542a6ced68bf7f9223941246346f0f0972c959126504c0cda15bfe582225",
        "frozen-quadrature":
            "7dfa3c70216c8f2b398dc3fd45b5dcbfe924d4457964e1c92a761afc72f80d28",
        "multi-rate-pair-table":
            "a3b5f9db94897833c4a09274c9b244ea31abd4e87e431d97023cc1230e83b073",
        "tamed_euler":
            "ad191cc7ce20817987dfeb72b680206fe5a544851255623d7d05d00dce129ce1",
        "euler":
            "cdde7cbd44ed58ef4983c1d1b2e224559c955281e117d11bda7036869cfa7c11",
        # recorded before frozen runs evaluated slow-only parts once per run
        "frozen-blocks-builtin":
            "72a3e3e6a14a6615374da1a3ebd45b4106e08e678e0e32b20108d967071265b7",
        "frozen-pair-2-8":
            "3d81aff131c04bb9fcc8f35526012b3f2c77cf038ca0c6d21c45c0b4edda2ade",
        "frozen-sine":
            "3dc982eb97ddbfe2ac143dfa1105d4347b430b96107655abd4290e459c359b9a",
        "frozen-affine-expression":
            "dab25b34bfbfe7fb271421c64c07923f4dfcd2b0075ec64161e4c6e185fc8d80",
        # recorded before the event path took one round-ordered schedule
        "frozen-rank-2":
            "31b0f5e995a5b770c015d3689187b61fdbe79587ae7792c77f5faec26828cdb1",
        "pair-mixed-rounds":
            "e5367fa6b329d7296b4dcee4610fd8798b195f19e8330a73a104c224c25e6bae",
        "multi-rate-rank-1":
            "7d0894149de9b857bcb973083cac422b8acd7fd00d2e6ef6016d1a5002bf6973",
        # recorded before the advance drew into one buffer per run and
        # added constant diffusions without a coefficient call
        "frozen-thin-narrow":
            "c10d57c67d60f95a6477f15493c418e73c018dfd1c0dd1922d1bf0411eaeb7f5",
        "multi-rate-pair-2-8":
            "6fd13be154fbe002b632baa638da4d1ce7acd85854b3ee6d3310f53dc1960836",
        "frozen-pair-half":
            "6159fcf3013a130dff56c3abb9a0cd564f5e8dbee5822e89a6ad8b95c821dcbd",
        "system-half":
            "b2e3c1df8103a079da7d5b84109a6e379b3c97e219d2a1a3f367717ca304a94b",
        "frozen-unequal-blocks":
            "b066e4a522269f85712340e85928940dfdfc07f4f35aeaf58723fb5ca785afa6",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_run_bytes_are_pinned(self, case):
        assert _sha(_golden_run(case)) == self.GOLDEN[case]

    @pytest.mark.parametrize("case, multi, rounds, mixed", [
        ("frozen-rank-2", False, 3, False),
        ("pair-mixed-rounds", False, 2, True),
        ("multi-rate-rank-1", True, 2, True),
    ])
    def test_schedule_has_the_case_it_names(self, monkeypatch, case, multi, rounds,
                                            mixed):
        # the most rounds in one step, and whether a round mixes channels
        seen = []
        schedule = integrate._Kernel._generate_events

        def spy(kernel):
            out = schedule(kernel)
            seen.append((kernel, out))
            return out

        monkeypatch.setattr(integrate._Kernel, "_generate_events", spy)
        _golden_run(case)
        (kernel, (steps, cuts, kinds, path, *_)), = seen
        assert kernel.multi == multi
        assert max(b - a for a, b in zip(steps[:-1], steps[1:])) >= rounds
        assert (None in kinds) == mixed
        for j in range(len(kinds)):
            # each round's rows ascend, as _advance needs
            assert np.all(np.diff(path[cuts[j]:cuts[j + 1]]) > 0)
