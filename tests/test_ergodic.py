import dataclasses
import hashlib
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sciint
from scipy import special, stats

from mslevy import ergodic, integrate
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
    semigroup_identity_check,
)
from mslevy.model import (
    ModelSpec,
    example_2_7,
    example_2_8,
    model_from_config,
    scalar_model,
)
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


def test_special_quantiles_equal_scipy_stats():
    # mean_ci and weak_error take their quantiles from scipy.special;
    # on the installed SciPy they are the scipy.stats values bit for bit
    df = np.arange(1, 5000)
    assert np.array_equal(special.stdtrit(df, 0.975), stats.t.ppf(0.975, df))
    conf = np.linspace(0.0, 1.0, 20003)[1:-1]
    q = 0.5 + conf / 2.0
    assert np.array_equal(special.ndtri(q), stats.norm.ppf(q))


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
        # 16 kept states per chain: the least that 2 chains' 32 batches take
        inv = estimate_invariant_measure(
            jump_ou(), 0.0, burn_in=0.5, horizon=8.0, n_chains=2,
            delta=2**-6, thin=32, stream=RngStream(102))
        assert "low-ess" in inv.flags

    def test_argument_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_invariant_measure(jump_ou(), 0.0, burn_in=-1.0,
                                       horizon=1.0, stream=RngStream(1))
        for delta in (0.0, -0.01):
            with pytest.raises(ConfigurationError, match="delta > 0"):
                estimate_invariant_measure(jump_ou(), 0.0, burn_in=1.0, horizon=1.0,
                                           delta=delta, stream=RngStream(1))

    def test_horizon_too_short_for_the_batches_is_refused(self):
        # 8 chains take 4 batches each; at thin 8 the collector keeps the
        # states of steps 256, 264, ... of a 256 + 25 or 256 + 24 step run
        kw = dict(burn_in=1.0, n_chains=8, delta=2**-8, thin=8)
        inv = estimate_invariant_measure(jump_ou(), 0.0, horizon=25 / 256,
                                         stream=RngStream(3), **kw)
        assert inv.samples.shape == (32, 1) and inv.n_batches == 32
        inv.mean_ci(inv.samples[:, 0])
        with pytest.raises(ConfigurationError,
                           match="keeps 3 states per chain, but 8 chains need 4"):
            estimate_invariant_measure(jump_ou(), 0.0, horizon=24 / 256,
                                       stream=RngStream(3), **kw)

    def test_blow_up_names_x(self):
        m = scalar_model("wall", b=lambda x, y: y, sigma=1.0, g=1.0,
                         f=lambda x, y: np.where(x > 2.5, np.inf, -y))
        with pytest.raises(BlowUpError, match=r"invariant measure \(x=3\.0\)"):
            estimate_invariant_measure(m, 3.0, burn_in=0.25, horizon=1.0,
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
                                   -table.grid, atol=1e-12)
        q = np.array([[0.37], [-1.21]])
        np.testing.assert_allclose(table.drift(q), -q, atol=1e-12)
        assert np.all(table.drift_ci > 0)

    def test_clamp_policy_flags_queries(self):
        m = scalar_model("lin", b=lambda x, y: -x, sigma=1.0,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        cfg = InvariantConfig(n_chains=4, burn_in=1.0, horizon=5.0,
                              delta=2**-6, thin=8)
        table = build_averaged_table(m, (-1.0, 1.0), 5, cfg, RngStream(106))
        out = table.drift(np.array([[3.0], [0.5]]))
        assert out[0, 0] == pytest.approx(table.drift_values[-1, 0])
        np.testing.assert_array_equal(table.outside, [True, False])
        table.drift(np.array([[0.5]]))
        assert table.outside is None

    def test_a_nan_query_hides_no_clamp(self):
        # a NaN query beside an outside one: the outside row is still
        # clamped to the boundary value, flagged, and counted by a run
        grid = np.linspace(-1.0, 1.0, 5)
        table = AveragedTable(
            grid=grid, drift_values=-grid[:, None], drift_ci=np.zeros((5, 1)),
            diff2_values=np.ones((5, 1, 1)), diff2_ci=np.zeros((5, 1, 1)))
        kernel = SimpleNamespace(blocks=[None, None], _rows=[0, 2, 3])
        clamps = integrate._Clamps(table, kernel)
        out = clamps.drift(np.array([[np.nan], [3.0], [0.5]]))
        assert np.isnan(out[0, 0])
        assert out[1, 0] == table.drift_values[-1, 0]
        np.testing.assert_array_equal(table.outside, [False, True, False])
        np.testing.assert_array_equal(clamps.counts, [1, 0])
        clamps.drift(np.array([[np.nan], [-0.5]]))
        assert table.outside is None

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
        np.testing.assert_array_equal(back.grid, table.grid)
        assert back.meta == table.meta

    def test_load_refuses_another_format_version(self, tmp_path):
        grid = np.linspace(-1.0, 1.0, 3)
        table = AveragedTable(
            grid=grid, drift_values=np.zeros((3, 1)), drift_ci=np.zeros((3, 1)),
            diff2_values=np.ones((3, 1, 1)), diff2_ci=np.zeros((3, 1, 1)))
        csv, meta = tmp_path / "t.csv", tmp_path / "t.json"
        save_averaged_table(table, csv, meta)
        header = json.loads(meta.read_text())
        header["format_version"] = 1
        meta.write_text(json.dumps(header))
        with pytest.raises(ConfigurationError, match="format version 1"):
            load_averaged_table(csv, meta)

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
        for i, x in enumerate(table.grid):
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
            grid=grid, drift_values=np.zeros((5, 1)),
            drift_ci=np.full((5, 1), 1e-3), diff2_values=diff2,
            diff2_ci=np.full((5, 1, 1), 1e-3),
        )
        q = np.linspace(-1, 1, 33)[:, None]
        root = table.diffusion_root(q)
        assert np.all(root >= np.sqrt(2.0) - 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-50.0, 50.0), span=st.floats(1e-3, 100.0),
           nodes=st.integers(2, 400), reload=st.booleans())
    def test_direct_index_equals_clipped_searchsorted(self, lo, span, nodes,
                                                      reload):
        grid = np.linspace(lo, lo + span, nodes)
        if reload:      # the 17-digit CSV round trip of a cached table
            text = "\n".join(format(v, ".17g") for v in grid)
            grid = np.loadtxt(io.StringIO(text), ndmin=1)
        table = AveragedTable(
            grid=grid, drift_values=np.zeros((nodes, 1)),
            drift_ci=np.zeros((nodes, 1)), diff2_values=np.ones((nodes, 1, 1)),
            diff2_ci=np.zeros((nodes, 1, 1)))
        q = np.concatenate([grid, np.nextafter(grid, -np.inf),
                            np.nextafter(grid, np.inf),
                            [lo - span, lo + 2 * span, -np.inf, np.inf]])
        idx, w = table._locate(q[:, None])
        qc = np.clip(q, grid[0], grid[-1])
        want = np.clip(np.searchsorted(grid, qc, side="right") - 1, 0, nodes - 2)
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(
            w, (qc - grid[want]) / (grid[want + 1] - grid[want]))
        np.testing.assert_array_equal(table.outside,
                                      (q < grid[0]) | (q > grid[-1]))

    @pytest.mark.parametrize("grid", [[0.0, 0.1, 0.3, 1.0], [0.0, 1.0, 0.5],
                                      [0.0], [0.0, 0.5, 1.0 + 1e-2]])
    def test_non_uniform_axis_rejected(self, grid):
        n = len(grid)
        with pytest.raises(ConfigurationError, match="table axis"):
            AveragedTable(grid=np.asarray(grid), drift_values=np.zeros((n, 1)),
                          drift_ci=np.zeros((n, 1)),
                          diff2_values=np.ones((n, 1, 1)),
                          diff2_ci=np.zeros((n, 1, 1)))

    @pytest.mark.parametrize("shape", [(3, 2), (3,), (2, 1)])
    def test_non_scalar_drift_rejected(self, shape):
        with pytest.raises(ConfigurationError, match="one scalar drift value"):
            AveragedTable(grid=np.linspace(0.0, 1.0, 3), drift_values=np.zeros(shape),
                          drift_ci=np.zeros((3, 1)), diff2_values=np.ones((3, 1, 1)),
                          diff2_ci=np.zeros((3, 1, 1)))

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


class TestSemigroupIdentity:
    @pytest.mark.parametrize("draws", [1, 0])
    def test_fewer_than_two_endpoint_draws_are_refused_before_any_run(
            self, monkeypatch, draws):
        # one draw has no spread for the CI, and none has no mean at all
        def no_run(*args, **kwargs):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(ergodic, "run_frozen_batch", no_run)
        with pytest.raises(ConfigurationError,
                           match=f"endpoint_draws must be at least 2, not {draws}"):
            semigroup_identity_check(jump_ou(), 0.0, 1.0, s=0.25, t_cut=1.0,
                                     n_traj=8, endpoint_draws=draws, delta=2**-6,
                                     avg_b=0.7, avg_b_ci=0.0, stream=RngStream(123))

    def test_expression_drift_splits_and_callable_drift_does_not(self):
        # a frozen run's mean curve makes the x-only part of b once per run
        assert ergodic._drift_curve(model_from_config(_CUBIC_POW)).prelude is not None
        assert ergodic._drift_curve(jump_ou()).prelude is None


_SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308,
                            5e-324, 1e154, -1e-300])


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 600), st.integers(1, 3)),
       seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), _SPECIAL),
                         max_size=12),
       scale=st.sampled_from([1.0, 1e-300, 1e150, 1e300]))
def test_mean_curve_stats_equal_numpy_mean_and_std(shape, seed, specials, scale):
    # one sum for the mean, the spread built from it as np.std does
    blocks, rows, dim = shape
    val = np.random.default_rng(seed).standard_normal((blocks * rows, dim)) * scale
    flat = val.reshape(-1)
    for at, value in specials:
        flat[int(at * flat.size)] = value
    with np.errstate(all="ignore"):
        mean, spread = MeanCurve(None, blocks=blocks)._stats(val)
        per = val.reshape(blocks, rows, dim)
        std = per.std(axis=1)
        want_mean, want_spread = per.mean(axis=1), np.sqrt(np.vecdot(std, std))
    assert mean.shape == want_mean.shape and spread.shape == want_spread.shape
    assert mean.tobytes() == want_mean.tobytes()
    assert spread.tobytes() == want_spread.tobytes()


class _PlainMeans:
    """Cross-path mean and standard error of fn(states) (one value per
    path) at t = 0 and after every micro step, in plain NumPy."""

    def __init__(self, fn):
        self.fn = fn
        self.times, self.means, self.ses = [], [], []

    def start(self, states):
        self.observe(-1, 0.0, states)

    def observe(self, step, t, states):
        v = self.fn(states)
        self.times.append(float(t))
        self.means.append(float(v.mean()))
        self.ses.append(float(v.std() / np.sqrt(v.size)))


class TestErgodicityDecay:
    def test_points_are_the_plain_means_at_the_requested_steps(self, monkeypatch):
        def sq_dist(st):
            d = st["y"] - st["y2"]
            return (d * d).sum(axis=1)

        plain = _PlainMeans(sq_dist)
        run = ergodic.run_frozen_pair_batch

        def spy(*args, watchers=(), **kw):
            return run(*args, watchers=(*watchers, plain), **kw)

        monkeypatch.setattr(ergodic, "run_frozen_pair_batch", spy)
        # at delta 2^-6: 0.001 is under half a step, 0.1 and 0.1001 end on
        # step 5, and the rest on steps 31, 15 and 63 (unsorted)
        dec = ergodicity_decay(example_2_7(), 0.0, 1.0, -1.0,
                               times=[0.001, 0.1, 0.1001, 0.5, 0.25, 1.0],
                               n_pairs=128, delta=2**-6, stream=RngStream(116))
        kept = [6, 16, 32, 64]      # curve point s + 1 ends step s
        assert len(plain.times) == 65
        assert dec.times.tolist() == [plain.times[i] for i in kept]
        assert dec.msd.tolist() == [plain.means[i] for i in kept]
        assert dec.ci_half.tolist() == [1.96 * plain.ses[i] for i in kept]

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

    def test_degenerate_starts_keep_the_kept_step_ends(self):
        # identical and nearly identical starts report the same time points
        m = scalar_model("ou", b=0.0, sigma=1.0, f=lambda x, y: -y, g=1.0)
        times = [0.001, 0.1, 0.1001, 0.5, 0.25, 1.0]
        same, near = (ergodicity_decay(m, 0.0, 1.0, y2, times=times, n_pairs=16,
                                       delta=2**-6, stream=RngStream(114))
                      for y2 in (1.0, 1.0 + 1e-9))
        assert same.degenerate
        assert same.times.tolist() == near.times.tolist() == [0.09375, 0.25, 0.5, 1.0]
        assert same.msd.shape == same.ci_half.shape == (4,)

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


# the expression model of the corrector workload: pow literals, no jumps
_CUBIC_POW = {
    "b": "-pow(x,3)+x+pow(y,3)", "sigma": "x", "f": "sin(x)-y-pow(y,5)", "g": "1",
    "nu1": {"intensity": 0.0, "size": {"kind": "uniform", "lo": -0.5, "hi": 0.5}},
    "nu2": {"intensity": 0.0, "size": {"kind": "uniform", "lo": -0.5, "hi": 0.5}},
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _golden_cells(case):
    """One small fixed-seed corrector-path result per case whose bytes are pinned."""
    streams = [RngStream(180, i) for i in range(3)]
    kw = dict(t_cut=2.0, n_traj=64, delta=2**-6, avg_b=0.5, avg_b_ci=0.01,
              streams=streams)
    if case == "semigroup":
        res = semigroup_identity_check(
            model_from_config(_CUBIC_POW), 0.4, 1.0, s=0.25, t_cut=2.0, n_traj=64,
            endpoint_draws=4, delta=2**-6, avg_b=0.5, avg_b_ci=0.01,
            stream=RngStream(181))
        return _digest([res[k] for k in ("lhs", "rhs", "gap", "ci", "pass")])
    if case == "mean-curve":
        gen = np.random.default_rng(182)
        curve = MeanCurve(lambda st: st["v"], blocks=3)
        curve.start({"v": gen.standard_normal((3 * 17, 2))})
        for k in range(12):
            curve.observe(k, 0.125 * (k + 1), {"v": gen.standard_normal((3 * 17, 2))})
        return _digest(curve.times, curve.means, curve.spreads, curve.integral)
    if case == "cells-pow-expression":
        model = model_from_config(_CUBIC_POW)
    elif case == "cells-example-2-7":
        model = example_2_7("state_linear")
    else:
        # plain callables: a frozen run takes them without a split
        model = scalar_model("callable", b=lambda x, y: -x * x * x + x + y * y * y,
                             sigma=1.0, f=lambda x, y: np.sin(x) - y - y ** 5, g=1.0)
    cells = poisson_cells(model, 0.4, [1.0, -0.5, 2.0], **kw)
    return _digest(*(getattr(c, f) for c in cells
                     for f in ("value", "ci", "times", "gap", "gap_ci")))


class TestCellGoldenBytes:
    # digests recorded before the corrector path's pow literals compiled to
    # multiplies and its mean curve took the frozen split; a change that
    # moves one changed the arithmetic (NumPy 2.4.6, x86-64)
    GOLDEN = {
        "cells-pow-expression":
            "94d2ec97a9f6273814ce3bf37a9dfb72816966bb475f74736987c62238f0c805",
        "cells-example-2-7":
            "a03da4a582e335866d01125a864907073bd28ca7fa9ba9051217e0b84f54d3cc",
        "cells-callable":
            "bee77c95087c65b00e345165874f768bc1918ac2380c2f01d65fa625e0dde774",
        "semigroup":
            "20acc2d1d106f1b66fdd16ea8ca8a71093652491c40c27997f6cdbcc4d0d7556",
        "mean-curve":
            "ac2dcfba17f59ad94fb2070fab74b1d339233fcdc741f6f8db60a3896a7868a1",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_cell_bytes_are_pinned(self, case):
        assert _golden_cells(case) == self.GOLDEN[case]
