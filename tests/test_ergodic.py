import dataclasses

import numpy as np
import pytest
from scipy import integrate as sciint

from mslevy import ergodic
from mslevy.errors import (
    BlowUpError,
    ConfigurationError,
    DecayFitError,
    TableValidationError,
)
from mslevy.ergodic import (
    AveragedTable,
    ExactAveraged,
    InvariantConfig,
    averaged_diffusion,
    averaged_drift,
    build_averaged_table,
    ergodicity_decay,
    estimate_invariant_measure,
    load_averaged_table,
    poisson_cell,
    poisson_cells,
    save_averaged_table,
)
from mslevy.model import ModelSpec, example_2_7, example_2_8, scalar_model
from mslevy.observers import MeanCurve
from mslevy.rng import JumpMeasureSpec, RngStream, Uniform, default_jump_measure

JUMP_OU_VAR = (1.0 + 1.0 / 12.0) / 2.0


def jump_ou(a=0.7, b=None):
    """Fast jump-OU: f = a - y, g = 1, h2 = z, mean-zero uniform marks."""
    return scalar_model(
        "jump_ou",
        b=b if b is not None else (lambda x, y: y),
        sigma=1.0,
        f=lambda x, y: a - y,
        g=1.0,
        sigma_y_independent=True,
    )


def invariant(model, x=0.0, horizon=300.0, chains=64, stream_id=0, **kw):
    return estimate_invariant_measure(
        model, x, burn_in=8.0, horizon=horizon, n_chains=chains,
        delta=2**-8, thin=8, stream=RngStream(100, stream_id), **kw)


class TestInvariantMeasure:
    def test_jump_ou_mean_and_variance(self):
        a = 0.7
        inv = invariant(jump_ou(a))
        mean, mci = inv.mean_ci(inv.samples)
        assert abs(mean[0] - a) < 3 * mci[0]
        y = inv.samples[:, 0]
        var = float(np.mean(y ** 2)) - float(np.mean(y ** 1)) ** 2
        assert abs(var - JUMP_OU_VAR) < 0.05 * JUMP_OU_VAR
        assert inv.ess > 100
        assert np.isfinite(np.mean(y ** 8))

    def test_initial_condition_independence(self):
        m = example_2_7("state_linear")
        inv_a = estimate_invariant_measure(
            m, 0.0, burn_in=6.0, horizon=120.0, n_chains=32, delta=2**-8,
            thin=8, y0=2.0, stream=RngStream(101, 1))
        inv_b = estimate_invariant_measure(
            m, 0.0, burn_in=6.0, horizon=120.0, n_chains=32, delta=2**-8,
            thin=8, y0=-1.5, stream=RngStream(101, 2))
        for p in (1, 2, 3, 4):
            va, ca = inv_a.mean_ci(inv_a.samples[:, 0] ** p)
            vb, cb = inv_b.mean_ci(inv_b.samples[:, 0] ** p)
            assert abs(va - vb) < 3 * np.hypot(ca, cb)

    def test_slow_state_enters_nowhere(self):
        m = jump_ou(0.3)
        inv0 = invariant(m, x=0.0, horizon=150.0, stream_id=3)
        inv2 = invariant(m, x=2.0, horizon=150.0, stream_id=4)
        for p in (1, 2, 3, 4):
            v0, c0 = inv0.mean_ci(inv0.samples[:, 0] ** p)
            v2, c2 = inv2.mean_ci(inv2.samples[:, 0] ** p)
            assert abs(v0 - v2) < 3 * np.hypot(c0, c2)

    def test_low_ess_flagged(self):
        inv = estimate_invariant_measure(
            jump_ou(), 0.0, burn_in=0.5, horizon=2.0, n_chains=2,
            delta=2**-6, thin=32, stream=RngStream(102))
        assert "low-ess" in inv.flags

    def test_argument_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_invariant_measure(jump_ou(), 0.0, burn_in=-1.0,
                                       horizon=1.0, stream=RngStream(1))

    def test_blow_up_names_x(self):
        m = scalar_model("wall", b=lambda x, y: y, sigma=1.0, g=1.0,
                         f=lambda x, y: np.where(x > 2.5, np.inf, -y))
        with pytest.raises(BlowUpError, match=r"invariant measure \(x=3\.0\)"):
            estimate_invariant_measure(m, 3.0, burn_in=0.25, horizon=0.5,
                                       n_chains=4, delta=2**-6, stream=RngStream(2))


class TestAveragedDrift:
    def test_fast_independent_drift_is_exact(self):
        m = scalar_model("bx", b=lambda x, y: -2.0 * x, sigma=1.0,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        inv = invariant(m, x=1.5, horizon=30.0, chains=16, stream_id=5)
        val, ci = averaged_drift(m, 1.5, inv)
        assert val[0] == pytest.approx(-3.0, abs=1e-12)

    def test_jump_ou_tracking_drift(self):
        # f = (x - y): stationary mean is x, so averaging b(x,y) = y gives x
        m = scalar_model("track", b=lambda x, y: y, sigma=1.0,
                         f=lambda x, y: x - y, g=1.0, sigma_y_independent=True)
        x = 1.3
        inv = estimate_invariant_measure(m, x, burn_in=8.0, horizon=250.0,
                                         n_chains=64, delta=2**-8, thin=8,
                                         stream=RngStream(103))
        val, ci = averaged_drift(m, x, inv)
        assert abs(val[0] - x) < 3 * ci[0]

    def test_example_2_7_drift_odd_symmetry_at_origin(self):
        m = example_2_7("state_linear")
        inv = invariant(m, x=0.0, horizon=200.0, stream_id=6)
        val, ci = averaged_drift(m, 0.0, inv)
        assert abs(val[0]) < 3 * ci[0]

    def test_x_mismatch_rejected(self):
        m = jump_ou()
        inv = invariant(m, x=0.0, horizon=20.0, chains=8, stream_id=7)
        with pytest.raises(ConfigurationError):
            averaged_drift(m, 1.0, inv)


class TestAveragedDiffusion:
    def test_constant_sigma(self):
        m = example_2_8()
        inv = invariant(m, x=0.5, horizon=30.0, chains=16, stream_id=8)
        ad = averaged_diffusion(m, 0.5, inv)
        assert ad.matrix[0, 0] == pytest.approx(1.0, abs=1e-14)
        root, _ = ergodic._psd_root_batch(ad.matrix[None], np.array([[0.5]]))
        assert root[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
        assert ad.clip == 0.0

    def test_psd_root_diagonal(self):
        root, clip = ergodic._psd_root_batch(np.diag([4.0, 9.0])[None], np.zeros((1, 2)))
        np.testing.assert_allclose(root[0], np.diag([2.0, 3.0]), atol=1e-12)
        assert clip == 0.0

    def test_psd_root_clips_roundoff(self):
        root, clip = ergodic._psd_root_batch(
            np.array([[[1.0, 0.0], [0.0, -1e-12]]]), np.zeros((1, 2)))
        assert clip == pytest.approx(1e-12, rel=1e-3)
        assert root[0, 1, 1] == 0.0

    def test_psd_root_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ergodic._psd_root_batch(np.array([[[-1.0]]]), np.zeros((1, 1)))

    def test_sine_sigma_against_quadrature_oracle(self):
        # diffusion-only fast dynamics has the explicit stationary density
        # w(y) ~ exp(-y^2 - y^6/3); compare E[(sin y + 3)^2] at x = 0
        m = scalar_model(
            "sine_noj", b=lambda x, y: -x * x * x + x + y * y * y,
            sigma=lambda x, y: np.sin(x) + np.sin(y) + 3.0,
            f=lambda x, y: np.sin(x) - y - y**5, g=1.0,
            nu2=JumpMeasureSpec(0.0, Uniform(-0.5, 0.5)),
        )
        w = lambda y: np.exp(-y * y - y**6 / 3.0)
        z0, _ = sciint.quad(w, -6, 6)
        oracle, _ = sciint.quad(lambda y: (np.sin(y) + 3.0) ** 2 * w(y) / z0, -6, 6)
        inv = estimate_invariant_measure(m, 0.0, burn_in=8.0, horizon=250.0,
                                         n_chains=64, delta=2**-8, thin=8,
                                         stream=RngStream(104))
        ad = averaged_diffusion(m, 0.0, inv)
        assert abs(ad.matrix[0, 0] - oracle) < 3 * ad.ci[0, 0] + 0.01
        # cross term E[6 sin y] vanishes by symmetry of the x = 0 law
        sins, ci = inv.mean_ci(np.sin(inv.samples[:, 0]))
        assert abs(sins) < 3 * ci + 0.005


class TestAveragedTable:
    def test_exact_for_fast_free_linear_drift(self):
        m = scalar_model("lin", b=lambda x, y: -x, sigma=1.0,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        cfg = InvariantConfig(n_chains=8, burn_in=2.0, horizon=10.0,
                              delta=2**-6, thin=8)
        table = build_averaged_table(m, (-2.0, 2.0), 9, cfg, RngStream(105))
        np.testing.assert_allclose(table.drift_values[:, 0],
                                   -table.axes[0], atol=1e-12)
        q = np.array([[0.37], [-1.21]])
        np.testing.assert_allclose(table.drift(q), -q, atol=1e-12)
        assert np.all(table.drift_ci > 0)

    def test_clamp_policy_flags_queries(self):
        m = scalar_model("lin", b=lambda x, y: -x, sigma=1.0,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        cfg = InvariantConfig(n_chains=4, burn_in=1.0, horizon=5.0,
                              delta=2**-6, thin=8)
        table = build_averaged_table(m, (-1.0, 1.0), 5, cfg, RngStream(106))
        out = table.drift(np.array([[3.0]]))
        assert out[0, 0] == pytest.approx(table.drift_values[-1, 0])
        assert table.clamp_count == 1
        table.extrapolation = "error"
        with pytest.raises(ConfigurationError):
            table.drift(np.array([[3.0]]))

    def test_leave_node_out_refusal_on_curved_drift(self):
        m = scalar_model("cube", b=lambda x, y: x * x * x, sigma=1.0,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        cfg = InvariantConfig(n_chains=4, burn_in=1.0, horizon=5.0,
                              delta=2**-6, thin=8)
        with pytest.raises(TableValidationError):
            build_averaged_table(m, (-2.0, 2.0), 5, cfg, RngStream(107))

    def test_round_trip_is_bit_exact(self, tmp_path):
        m = jump_ou()
        cfg = InvariantConfig(n_chains=8, burn_in=2.0, horizon=20.0,
                              delta=2**-6, thin=8)
        table = build_averaged_table(m, (-1.0, 1.0), 5, cfg, RngStream(108))
        csv, meta = tmp_path / "t.csv", tmp_path / "t.json"
        save_averaged_table(table, csv, meta)
        back = load_averaged_table(csv, meta)
        np.testing.assert_array_equal(back.drift_values, table.drift_values)
        np.testing.assert_array_equal(back.drift_ci, table.drift_ci)
        np.testing.assert_array_equal(back.diff2_values, table.diff2_values)
        np.testing.assert_array_equal(back.axes[0], table.axes[0])
        assert back.meta == table.meta

    @pytest.mark.parametrize("chains, nodes, floats, widths", [
        (3000, 5, None, [6000, 6000, 3000]),
        (9000, 3, None, [9000, 9000, 9000]),
        (64, 5, 1200, [128, 128, 64]),
    ])
    def test_fused_nodes_equal_the_per_node_estimates(self, monkeypatch, chains,
                                                      nodes, floats, widths):
        # (3000, 5): groups of 2, 2 and 1 nodes; (9000, 3): one node per
        # run, because a node alone exceeds the path limit; (64, 5): a
        # node retains 64 chains x 9 samples, so a 1,200-float limit
        # allows two nodes per run
        m = scalar_model("blocks", b=lambda x, y: x + 0.01 * y,
                         sigma=lambda x, y: 1.0 + 0.01 * y,
                         f=lambda x, y: np.sin(x) - y, g=1.0)
        cfg = InvariantConfig(n_chains=chains, burn_in=0.125, horizon=0.5,
                              delta=2**-4, thin=1)
        stream = RngStream(109)
        runs = []
        frozen = ergodic.run_frozen_batch

        def spy(*args, **kwargs):
            runs.append(kwargs["n_chains"])
            return frozen(*args, **kwargs)

        monkeypatch.setattr(ergodic, "run_frozen_batch", spy)
        table = build_averaged_table(m, (-2.0, 2.0), nodes, cfg, stream)
        per_run = max(1, ergodic._GROUP_PATHS // chains)
        assert runs == [chains * min(per_run, nodes - k)
                        for k in range(0, nodes, per_run)]
        for i, x in enumerate(table.axes[0]):
            inv = estimate_invariant_measure(
                m, x, burn_in=cfg.burn_in, horizon=cfg.horizon,
                n_chains=chains, delta=cfg.delta, thin=cfg.thin, y0=cfg.y0,
                stream=stream.child(f"node:{i}"))
            drift, drift_ci = averaged_drift(m, x, inv)
            ad = averaged_diffusion(m, x, inv)
            np.testing.assert_array_equal(table.drift_values[i], drift)
            np.testing.assert_array_equal(table.drift_ci[i], drift_ci)
            np.testing.assert_array_equal(table.diff2_values[i], ad.matrix)
            np.testing.assert_array_equal(table.diff2_ci[i], ad.ci)

    @pytest.mark.parametrize("chains, nodes", [(4, 7), (1024, 9)])
    def test_blow_up_names_the_node(self, chains, nodes):
        # the fast drift is infinite at the last node only; (4, 7) runs it
        # with the other nodes, (1024, 9) alone after a run of 8 nodes
        m = scalar_model("wall", b=lambda x, y: y, sigma=1.0, g=1.0,
                         f=lambda x, y: np.where(x > 2.5, np.inf, -y))
        cfg = InvariantConfig(n_chains=chains, burn_in=0.25, horizon=0.5,
                              delta=2**-6, thin=1)
        with pytest.raises(BlowUpError,
                           match=rf"table node {nodes - 1} \(x=3\.0\)") as exc:
            build_averaged_table(m, (-3.0, 3.0), nodes, cfg, RngStream(110))
        assert exc.value.paths == list(range(chains))

    def test_interpolated_diffusion_stays_psd(self):
        grid = np.linspace(-1, 1, 5)
        diff2 = np.tile(np.eye(1) * 2.0, (5, 1, 1))
        diff2[2] = [[4.0]]
        table = AveragedTable(
            axes=(grid,), drift_values=np.zeros((5, 1)),
            drift_ci=np.full((5, 1), 1e-3), diff2_values=diff2,
            diff2_ci=np.full((5, 1, 1), 1e-3),
        )
        q = np.linspace(-1, 1, 33)[:, None]
        root = table.diffusion_root(q)
        assert np.all(root >= np.sqrt(2.0) - 1e-12)

    def test_exact_averaged_adapter(self):
        avg = ExactAveraged(lambda x: -x, lambda x: np.full((len(x), 1, 1), 4.0))
        x = np.array([[1.0], [2.0]])
        np.testing.assert_array_equal(avg.drift(x), -x)
        np.testing.assert_allclose(avg.diffusion_root(x),
                                   np.full((2, 1, 1), 2.0))


class TestPoissonCell:
    def test_fast_independent_drift_gives_zero(self):
        m = scalar_model("bxonly", b=lambda x, y: -2.0 * x + 1.0, sigma=1.0,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        cell = poisson_cell(m, 0.5, 1.0, t_cut=4.0, n_traj=128, delta=2**-6,
                            avg_b=0.0, stream=RngStream(109))
        assert cell.value[0] == 0.0
        assert cell.tail_bound == 0.0

    def test_jump_ou_corrector_oracle(self):
        # E Y_t = a + e^{-t}(y - a) makes the corrector exactly y - a
        a, y0 = 0.7, 1.7
        m = jump_ou(a)
        cell = poisson_cell(m, 0.0, y0, t_cut=10.0, n_traj=2048, delta=2**-8,
                            avg_b=a, stream=RngStream(110))
        want = y0 - a
        tol = max(3 * cell.ci[0], 0.02 * abs(want))
        assert abs(cell.value[0] - want) < tol
        assert abs(cell.value[0] - want) < 0.25
        assert cell.decay_rate == pytest.approx(1.0, rel=0.2)
        assert cell.tail_bound < 0.01

    def test_start_at_stationary_mean(self):
        a = 0.7
        m = jump_ou(a)
        cell = poisson_cell(m, 0.0, a, t_cut=8.0, n_traj=2048, delta=2**-8,
                            avg_b=a, stream=RngStream(111))
        assert abs(cell.value[0]) < 3.5 * cell.ci[0]

    def test_refuses_non_decaying_gap(self):
        m = scalar_model("frozeny", b=lambda x, y: y, sigma=1.0, f=0.0, g=0.0,
                         h2=lambda x, y, z: np.zeros_like(z),
                         sigma_y_independent=True)
        with pytest.raises(DecayFitError):
            poisson_cell(m, 0.0, 1.0, t_cut=4.0, n_traj=64, delta=2**-6,
                         avg_b=0.5, stream=RngStream(112))


def _two_slow(a=0.7):
    """Jump-OU fast state under a 2-d slow drift b(x, y) = (y, 2y - x_1)."""
    return ModelSpec(
        name="two_slow", dim_slow=2, dim_fast=1, dw_slow=2, dw_fast=1,
        slow_drift=lambda x, y: np.stack([y[:, 0], 2 * y[:, 0] - x[:, 1]], axis=1),
        slow_diffusion=lambda x, y: np.broadcast_to(np.eye(2), (len(x), 2, 2)),
        slow_jump=lambda x, z: np.zeros((len(z), 2)),
        fast_drift=lambda x, y: a - y,
        fast_diffusion=lambda x, y: np.ones((len(y), 1, 1)),
        fast_jump=lambda x, y, z: z[:, None],
        slow_measure=default_jump_measure(), fast_measure=default_jump_measure(),
    )


class TestPoissonCells:
    # compensated jumps keep E Y_t = a + e^{-t}(y - a) for b = y, so the
    # gaps decay and every cell's fit succeeds
    @pytest.mark.parametrize("model, x, avg_b", [
        (jump_ou(0.7), 0.0, 0.7),
        # off-centre marks and a state-dependent jump size: the affine
        # compensator runs on every advance
        (scalar_model("jump_ou_affine", b=lambda x, y: y, sigma=1.0,
                      f=lambda x, y: 0.7 - y, g=1.0,
                      h2=lambda x, y, z: z * (1.0 + 0.1 * y * y),
                      nu2=JumpMeasureSpec(intensity=4.0, size=Uniform(0.1, 0.6))),
         0.0, 0.7),
        (_two_slow(0.7), [0.0, 0.5], [0.7, 0.9]),
    ], ids=["jump_ou", "affine-compensator", "dim_slow-2"])
    def test_fused_cells_equal_separate_cells(self, monkeypatch, model, x, avg_b):
        ys = [1.7, -0.3, 2.5, 0.7]
        streams = [RngStream(118, i) for i in range(len(ys))]
        kw = dict(t_cut=4.0, n_traj=256, delta=2**-6, avg_b=avg_b, avg_b_ci=0.01)
        widths = []
        frozen = ergodic.run_frozen_batch

        def spy(*args, **kwargs):
            widths.append(kwargs["n_chains"])
            return frozen(*args, **kwargs)

        monkeypatch.setattr(ergodic, "run_frozen_batch", spy)
        fused = poisson_cells(model, x, ys, streams=streams, **kw)
        assert widths == [len(ys) * 256]
        for y, s, cell in zip(ys, streams, fused):
            alone = poisson_cell(model, x, y, stream=s, **kw)
            for f in dataclasses.fields(cell):
                np.testing.assert_array_equal(getattr(cell, f.name),
                                              getattr(alone, f.name), f.name)
        # the starts off the mean fit a decay; the one at it is in noise
        assert np.isfinite([c.decay_rate for c in fused[:3]]).all()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mean_curve_blocks_equal_separate_curves(self, dim):
        # per-block mean and spread must be bit-equal to a curve over the
        # block alone: np.linalg.norm(std) of a 1-d vector is a dot product
        gen = np.random.default_rng(122)
        vals = [gen.standard_normal((3 * 129, dim)) * 3.7 for _ in range(64)]
        fused = MeanCurve(lambda st: st["v"], blocks=3)
        fused.start({"v": vals[0]})
        for k, v in enumerate(vals[1:]):
            fused.observe(k, 0.25 * (k + 1), {"v": v})
        for j in range(3):
            alone = MeanCurve(lambda st: st["v"][129 * j:129 * (j + 1)])
            alone.start({"v": vals[0]})
            for k, v in enumerate(vals[1:]):
                alone.observe(k, 0.25 * (k + 1), {"v": v})
            np.testing.assert_array_equal(fused.curve(j)[1], alone.curve()[1])
            np.testing.assert_array_equal(fused.point_se(j), alone.point_se())
            spreads = [np.linalg.norm(v[129 * j:129 * (j + 1)].std(axis=0))
                       for v in vals]
            np.testing.assert_array_equal(alone.point_se(),
                                          np.array(spreads) / np.sqrt(129))
        np.testing.assert_array_equal(fused.curve(0)[0], 0.25 * np.arange(64))

    def test_later_failing_fit_raises_the_same_error(self):
        # Y stays at its start: the gap is 0 from y = 0.5 and a constant
        # 0.5 from y = 1.0, which no decay fit accepts
        m = scalar_model("frozeny", b=lambda x, y: y, sigma=1.0, f=0.0, g=0.0,
                         h2=lambda x, y, z: np.zeros_like(z))
        kw = dict(t_cut=4.0, n_traj=64, delta=2**-6, avg_b=0.5)
        streams = [RngStream(119, i) for i in range(2)]
        assert poisson_cell(m, 0.0, 0.5, stream=streams[0], **kw).tail_bound == 0.0
        with pytest.raises(DecayFitError) as alone:
            poisson_cell(m, 0.0, 1.0, stream=streams[1], **kw)
        with pytest.raises(DecayFitError) as fused:
            poisson_cells(m, 0.0, [0.5, 1.0], streams=streams, **kw)
        assert str(fused.value) == str(alone.value)

    @pytest.mark.parametrize("ys", [[0.5, -1.0, 10.0], [10.0]],
                             ids=["last-block", "lone-block"])
    def test_blow_up_names_the_cell(self, ys):
        # the fast drift is infinite above y = 5, so only a start at 10 fails
        m = scalar_model("ceiling", b=lambda x, y: y, sigma=1.0, g=1.0,
                         f=lambda x, y: np.where(y > 5, np.inf, -y))
        j = len(ys) - 1
        with pytest.raises(BlowUpError,
                           match=rf"poisson cell {j} \(y=10\.0\)") as exc:
            poisson_cells(m, 0.0, ys, t_cut=1.0, n_traj=16, delta=2**-6,
                          avg_b=0.0, streams=[RngStream(120, i) for i in range(len(ys))])
        assert exc.value.paths == list(range(16))

    def test_starts_and_streams_must_pair_up(self):
        for ys, streams in (([0.0, 1.0], [RngStream(121)]), ([], [])):
            with pytest.raises(ConfigurationError, match="one stream per fast start"):
                poisson_cells(jump_ou(), 0.0, ys, t_cut=1.0, n_traj=8,
                              delta=2**-6, avg_b=0.7, streams=streams)

    def test_one_trajectory_per_cell_is_rejected(self):
        # one path has no spread, so its CI would be NaN
        with pytest.raises(ConfigurationError, match="n_traj >= 2"):
            poisson_cell(jump_ou(), 0.0, 1.0, t_cut=1.0, n_traj=1, delta=2**-6,
                         avg_b=0.7, stream=RngStream(122))


class TestErgodicityDecay:
    def test_linear_contraction_rate(self):
        m = scalar_model("ou", b=0.0, sigma=1.0, f=lambda x, y: -y, g=1.0)
        dec = ergodicity_decay(m, 0.0, 2.0, -2.0,
                               times=np.linspace(0.25, 2.0, 8),
                               n_pairs=256, delta=2**-8, stream=RngStream(113))
        assert dec.gamma_hat == pytest.approx(2.0, rel=0.02)
        assert dec.r2 > 0.999

    def test_identical_starts_degenerate(self):
        m = scalar_model("ou", b=0.0, sigma=1.0, f=lambda x, y: -y, g=1.0)
        dec = ergodicity_decay(m, 0.0, 1.0, 1.0, times=[0.5, 1.0],
                               n_pairs=16, delta=2**-6, stream=RngStream(114))
        assert dec.degenerate
        assert np.all(dec.msd == 0.0)

    def test_example_2_7_contracts_at_least_beta(self):
        dec = ergodicity_decay(example_2_7(), 0.0, 1.0, -1.0,
                               times=np.linspace(0.125, 1.5, 12),
                               n_pairs=512, delta=2**-8, stream=RngStream(115))
        assert dec.gamma_hat >= 2.0
        assert dec.r2 >= 0.95


class TestConvergenceToAverage:
    def test_fast_independent_gap_zero(self):
        m = scalar_model("bxonly", b=lambda x, y: 2.0 * x, sigma=1.0,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        cell = poisson_cell(m, 1.0, 0.5, t_cut=2.0, n_traj=64, delta=2**-6,
                            avg_b=2.0, stream=RngStream(116))
        assert np.all(cell.gap == 0.0)

    def test_jump_ou_exponential_gap(self):
        a, y0 = 0.7, 1.7
        cell = poisson_cell(jump_ou(a), 0.0, y0, t_cut=3.0, n_traj=4096,
                            delta=2**-8, avg_b=a, stream=RngStream(117))
        assert cell.gap[0] == pytest.approx(abs(y0 - a), abs=1e-12)  # t = 0 exact
        k = int(round(1.0 / 2**-8))
        assert cell.times[k] == 1.0
        want = np.exp(-1.0) * abs(y0 - a)
        assert cell.gap[k] == pytest.approx(want, rel=0.1)
        assert cell.decay_rate == pytest.approx(1.0, rel=0.15)


class TestCorrectorGrowthEnvelope:
    def test_ratio_stable_under_probe_range_doubling(self):
        # for b(x,y) = y the corrector is y - a, so |cell|/(1 + |y|)
        # stays bounded as the probe range doubles
        a = 0.7
        m = jump_ou(a)

        def sup_ratio(bound, sid):
            probes = np.linspace(-bound, bound, 7)
            cells = poisson_cells(m, 0.0, [float(y) for y in probes], t_cut=8.0,
                                  n_traj=512, delta=2**-7, avg_b=a,
                                  streams=[RngStream(150 + sid, i) for i in range(7)])
            return max(abs(c.value[0]) / (1.0 + abs(y))
                       for c, y in zip(cells, probes))

        near = sup_ratio(3.0, 0)
        far = sup_ratio(6.0, 1)
        assert far <= 1.5 * near + 0.05


@pytest.mark.slow
class TestInvariantMomentUniformity:
    def test_fourth_moments_bounded_over_slow_grid(self):
        # the fast drift's sin(x) tilt genuinely swings E[Y^4] by ~2.2x
        # (quadrature on the jumpless density confirms), so the uniform
        # bound is checked as a finite ~2.5x band plus oracle agreement
        m = example_2_7("state_linear")
        grid = np.linspace(-2.0, 2.0, 9)
        vals = []
        for i, x in enumerate(grid):
            inv = estimate_invariant_measure(
                m, float(x), burn_in=5.0, horizon=60.0, n_chains=32,
                delta=2**-8, thin=8, stream=RngStream(160, i))
            vals.append(float(np.mean(inv.samples[:, 0] ** 4)))
        vals = np.asarray(vals)
        assert np.all(np.isfinite(vals))
        assert vals.max() / vals.min() < 2.5

        def oracle_m4(s):
            w = lambda y: np.exp(2 * (s * y - y * y / 2 - y**6 / 6))
            z, _ = sciint.quad(w, -5, 5)
            v, _ = sciint.quad(lambda y: y**4 * w(y), -5, 5)
            return v / z

        ref = np.array([oracle_m4(np.sin(x)) for x in grid])
        # jumps add ~8% noise power; shapes must agree within 20%
        np.testing.assert_allclose(vals, ref, rtol=0.2)


class TestTableDefaults:
    def test_pilot_heuristic_sizes_budgets(self):
        m = scalar_model("lin", b=lambda x, y: -x, sigma=1.0,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        cfg = InvariantConfig(n_chains=8, burn_in=None, horizon=None,
                              delta=2**-6, thin=8)
        table = build_averaged_table(m, (-1.0, 1.0), 3, cfg, RngStream(170))
        # pilot decay rate for f = -y is ~2, so burn ~ 5/2 and horizon ~ 100/2
        assert 1.5 <= table.meta["burn_in"] <= 4.0
        assert 30.0 <= table.meta["horizon"] <= 70.0
