import numpy as np
import pytest

import mslevy.integrate
from mslevy.errors import BlowUpError, ConfigurationError
from mslevy.ergodic import AveragedTable, ExactAveraged
from mslevy.estimate import (
    DeltaPolicy,
    fast_moment_sweep,
    fit_order,
    strong_error,
    make_test_function,
    weak_error,
)
from mslevy.model import example_2_7, scalar_model
from mslevy.rng import RngStream


class TestFitOrder:
    def test_exact_sqrt_eps_data(self):
        fit = fit_order([0.04, 0.01, 0.0025], [0.2, 0.1, 0.05])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_linear_law_with_constant(self):
        eps = np.array([0.125, 0.0625, 0.03125, 0.015625])
        fit = fit_order(eps, 3.0 * eps)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_multiplicative_noise_stays_near_half(self):
        gen = RngStream(200).generator()
        eps = 2.0 ** -np.arange(2, 8)
        errors = np.sqrt(eps) * (1.0 + gen.uniform(-0.1, 0.1, eps.size))
        fit = fit_order(eps, errors)
        assert 0.4 <= fit.slope <= 0.6

    def test_degenerate_on_zero_errors(self):
        fit = fit_order([0.1, 0.05, 0.025], [0.1, 0.0, 0.01])
        assert fit.degenerate
        assert fit.reason == "degenerate: exact agreement"
        assert fit.slope is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_order([0.1, 0.05], [1.0, 0.5])
        with pytest.raises(ConfigurationError):
            fit_order([0.1, 0.1, 0.05], [1.0, 1.0, 0.5])


class TestDeltaPolicy:
    def test_global_and_scaled(self):
        pol = DeltaPolicy(mode="global", fast_exp=6)
        assert pol.delta_for(2**-3, 2**-7) == 2**-13
        pol = DeltaPolicy(mode="scaled", fast_exp=8)
        assert pol.delta_for(2**-3, 2**-7) == 2**-11

    def test_floor(self):
        # eps_min 2^-11 at fast_exp 6 asks for 2^-17, below the 2^-16 floor
        pol = DeltaPolicy(mode="global", fast_exp=6)
        assert pol.delta_for(2**-5, 2**-11) == 2**-16
        assert pol.to_dict()["floor"] == 2**-16

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            DeltaPolicy(mode="adaptive")


def _stub_pair(sup_fn):
    # the sweep's eps levels arrive as multi-rate blocks (stream, n, cfg)
    def fake(model, avg, x0, y0, cfg, n_paths, stream, checkpoints=(),
             record=False):
        sup = np.concatenate([np.full(n, sup_fn(c.epsilon)) for _, n, c in stream])
        snaps = {t: {"x": sup[:, None].copy(), "xt": np.zeros((n_paths, 1))}
                 for t in checkpoints}
        return {"sup": sup, "terminal_system": np.zeros((n_paths, 1)),
                "terminal_averaged": np.zeros((n_paths, 1)),
                "checkpoints": snaps, "clamped": np.zeros(len(stream), dtype=int)}
    return fake


def _fast_free_model():
    return scalar_model("xonly", b=lambda x, y: -x, sigma=lambda x, y: 0.3,
                        f=lambda x, y: -y, g=1.0, sigma_y_independent=True)


class TestStrongError:
    def test_stub_recovers_half_order_exactly(self, monkeypatch):
        monkeypatch.setattr(mslevy.integrate, "run_pair_batch",
                            _stub_pair(lambda e: np.sqrt(e)))
        rep = strong_error(_fast_free_model(), ExactAveraged(lambda x: -x),
                           eps=[2**-2, 2**-4, 2**-6], p=2.0, t_end=1.0,
                           n_paths=16, x0=1.0, y0=0.0, stream=RngStream(400))
        assert rep.slope == pytest.approx(0.5, abs=1e-9)
        assert rep.r2 == pytest.approx(1.0, abs=1e-9)
        assert np.all(rep.ci_half >= 0)

    def test_exact_table_gives_degenerate_zero_errors(self):
        rep = strong_error(_fast_free_model(), ExactAveraged(lambda x: -x),
                           eps=[2**-3, 2**-4, 2**-5], p=2.0, t_end=0.5,
                           n_paths=32, x0=1.0, y0=0.2, n_boot=50,
                           stream=RngStream(401))
        assert rep.degenerate
        assert "degenerate: exact agreement" in rep.flags
        assert np.all(rep.errors == 0.0)
        assert rep.slope is None

    def test_determinism_and_self_consistency(self, monkeypatch):
        monkeypatch.setattr(mslevy.integrate, "run_pair_batch",
                            _stub_pair(lambda e: np.sqrt(e) * 1.7))
        kw = dict(eps=[2**-2, 2**-4, 2**-6], p=2.0, t_end=1.0, n_paths=8,
                  x0=1.0, y0=0.0, n_boot=64)
        a = strong_error(_fast_free_model(), ExactAveraged(lambda x: -x),
                         stream=RngStream(402), **kw)
        b = strong_error(_fast_free_model(), ExactAveraged(lambda x: -x),
                         stream=RngStream(402), **kw)
        np.testing.assert_array_equal(a.errors, b.errors)
        np.testing.assert_array_equal(a.ci_half, b.ci_half)
        assert a.slope == b.slope
        refit = fit_order(a.eps, a.errors)
        assert refit.slope == a.slope and refit.r2 == a.r2

    def test_preconditions(self):
        m = _fast_free_model()
        avg = ExactAveraged(lambda x: -x)
        with pytest.raises(ConfigurationError):
            strong_error(m, avg, eps=[0.1, 0.05], p=2.0, t_end=1.0, n_paths=4,
                         x0=0.0, y0=0.0, stream=RngStream(1))
        with pytest.raises(ConfigurationError):
            strong_error(m, avg, eps=[0.1, 0.05, 0.025], p=1.0, t_end=1.0,
                         n_paths=4, x0=0.0, y0=0.0, stream=RngStream(1))


@pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.2, float("nan")])
@pytest.mark.parametrize("sweep", ["strong", "coupled", "independent"])
def test_confidence_outside_the_open_unit_interval_is_refused(sweep, confidence,
                                                              monkeypatch):
    # refused before any path runs, by both sweeps in every mode
    calls = []
    for name in ("run_pair_batch", "run_system_batch", "run_averaged_batch"):
        monkeypatch.setattr(mslevy.integrate, name,
                            lambda *args, **kwargs: calls.append(args))
    avg = ExactAveraged(lambda x: -x, lambda x: np.full((len(x), 1, 1), 0.09))
    kw = dict(eps=[2**-2, 2**-4, 2**-6], t_end=0.5, n_paths=4,
              confidence=confidence, stream=RngStream(406))
    with pytest.raises(ConfigurationError, match="confidence"):
        if sweep == "strong":
            strong_error(_fast_free_model(), avg, x0=1.0, y0=0.0, **kw)
        else:
            weak_error(_fast_free_model(), avg, make_test_function("x_squared"),
                       mode="independent" if sweep == "independent"
                       else "coupled_difference", **kw)
    assert calls == []


class TestWeakError:
    def test_stub_recovers_first_order_exactly(self, monkeypatch):
        monkeypatch.setattr(mslevy.integrate, "run_pair_batch",
                            _stub_pair(lambda e: e))
        rep = weak_error(_fast_free_model(), ExactAveraged(lambda x: -x),
                         make_test_function("identity"),
                         eps=[2**-2, 2**-4, 2**-6], t_end=1.0, n_paths=16,
                         stream=RngStream(403))
        assert rep.slope == pytest.approx(1.0, abs=1e-9)
        assert rep.r2 == pytest.approx(1.0, abs=1e-9)

    def test_constant_phi_degenerate(self):
        phi = make_test_function("cos")
        const = type(phi)(name="const", fn=lambda x: np.ones(len(x)),
                          growth_exp=0.0)
        rep = weak_error(_fast_free_model(),
                         ExactAveraged(lambda x: -x,
                                       lambda x: np.full((len(x), 1, 1), 0.09)),
                         const, eps=[2**-3, 2**-4, 2**-5], t_end=0.5,
                         n_paths=16, mode="coupled_difference",
                         stream=RngStream(404))
        assert rep.degenerate
        assert rep.slope is None

    def test_independent_mode_runs_and_flags_noise(self):
        m = _fast_free_model()
        avg = ExactAveraged(lambda x: -x,
                            lambda x: np.full((len(x), 1, 1), 0.09))
        rep = weak_error(m, avg, make_test_function("x_squared"),
                         eps=[2**-3, 2**-4, 2**-5], t_end=0.5, n_paths=64,
                         mode="independent", x0=1.0, y0=0.1,
                         stream=RngStream(405))
        # identical averaged dynamics, so the gap is pure MC noise
        assert ("noise-dominated" in rep.flags) or rep.degenerate \
            or (rep.ci_half[-1] > 0)

    def test_unknown_mode_and_missing_diffusion(self, monkeypatch):
        m = _fast_free_model()
        with pytest.raises(ConfigurationError):
            weak_error(m, ExactAveraged(lambda x: -x), make_test_function("identity"),
                       eps=[0.1, 0.05, 0.025], t_end=1.0, n_paths=4,
                       mode="typo", stream=RngStream(1))
        # the missing diffusion data is refused before any system path runs
        calls = []
        monkeypatch.setattr(mslevy.integrate, "run_system_batch",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigurationError, match="diffusion"):
            weak_error(m, ExactAveraged(lambda x: -x), make_test_function("identity"),
                       eps=[0.1, 0.05, 0.025], t_end=1.0, n_paths=4,
                       mode="independent", stream=RngStream(1))
        assert calls == []

    def test_stream_is_required(self):
        with pytest.raises(TypeError, match="stream"):
            weak_error(_fast_free_model(), ExactAveraged(lambda x: -x),
                       make_test_function("identity"), eps=[2**-2, 2**-4, 2**-6],
                       t_end=1.0, n_paths=4)


def _clamping_table():
    """-x on [-0.5, 0.5]: slow paths from x0 = 0.4 leave the box."""
    grid = np.linspace(-0.5, 0.5, 5)
    return AveragedTable(grid=grid, drift_values=-grid[:, None],
                         drift_ci=np.zeros((5, 1)), diff2_values=np.ones((5, 1, 1)),
                         diff2_ci=np.zeros((5, 1, 1)))


class TestPairSweep:
    """strong_error and coupled weak_error run every eps level as a
    multi-rate block of one pair run."""

    @pytest.mark.parametrize("kind", ["strong", "weak"])
    def test_clamp_counts_run_on_level_by_level(self, kind):
        m = scalar_model("clamps", b=lambda x, y: -x + y, sigma=0.6,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        eps = [2**-2, 2**-3, 2**-4]
        policy = DeltaPolicy(mode="scaled", fast_exp=4)
        kw = dict(eps=eps, t_end=0.5, n_paths=24, x0=0.4, y0=0.0, n_boot=20,
                  delta_policy=policy, stream=RngStream(410))
        table = _clamping_table()
        if kind == "strong":
            rep = strong_error(m, table, **kw)
            cps = ()
        else:
            rep = weak_error(m, table, make_test_function("identity"), **kw)
            cps = tuple(rep.meta["checkpoints"])
        alone = _clamping_table()
        running = [0]
        for j, e in enumerate(eps):
            cfg = mslevy.integrate.StepperConfig(
                epsilon=e, delta=policy.delta_for(e, eps[-1]), t_end=0.5)
            out = mslevy.integrate.run_pair_batch(
                m, alone, 0.4, 0.0, cfg, 24, RngStream(410).child(f"{kind}:{j}"),
                checkpoints=cps)
            running.append(running[-1] + int(out["clamped"][0]))
        running = running[1:]
        assert rep.meta["clamped"] == running
        assert running[0] > 1 and running[1] > running[0]

    @pytest.mark.parametrize("kind", ["strong", "weak"])
    def test_clamp_counts_do_not_depend_on_the_table_history(self, kind):
        m = scalar_model("clamps", b=lambda x, y: -x + y, sigma=0.6,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        kw = dict(eps=[2**-2, 2**-3, 2**-4], t_end=0.5, n_paths=24, x0=0.4,
                  y0=0.0, n_boot=20, stream=RngStream(410),
                  delta_policy=DeltaPolicy(mode="scaled", fast_exp=4))
        table = _clamping_table()
        if kind == "strong":
            reps = [strong_error(m, table, **kw) for _ in range(2)]
        else:
            phi = make_test_function("identity")
            reps = [weak_error(m, table, phi, **kw) for _ in range(2)]
        assert reps[0].meta["clamped"] == reps[1].meta["clamped"]
        assert reps[0].meta["clamped"][0] > 0

    def test_independent_clamps_are_the_running_sum_of_the_level_runs(self):
        m = scalar_model("clamps", b=lambda x, y: -x + y, sigma=0.6,
                         f=lambda x, y: -y, g=1.0, sigma_y_independent=True)
        eps = [2**-2, 2**-3, 2**-4]
        policy = DeltaPolicy(mode="scaled", fast_exp=4)
        table = _clamping_table()
        rep = weak_error(m, table, make_test_function("identity"), eps=eps,
                         t_end=0.5, n_paths=24, mode="independent", x0=0.4,
                         y0=0.0, delta_policy=policy, stream=RngStream(410))
        running = [0]
        for j, e in enumerate(eps):
            cfg = mslevy.integrate.StepperConfig(
                epsilon=e, delta=policy.delta_for(e, eps[-1]), t_end=0.5)
            out = mslevy.integrate.run_averaged_batch(
                m, table, 0.4, cfg, 24, RngStream(410).child(f"weak-avg:{j}"))
            running.append(running[-1] + int(out["clamped"].sum()))
        assert rep.meta["clamped"] == running[1:]
        assert running[1] > 0

    @pytest.mark.parametrize("kind", ["strong", "weak"])
    def test_blow_up_aborts_the_sweep_and_names_its_level(self, kind):
        # y climbs at rate 1/eps and the fast drift is infinite past 20,
        # which only the two smallest eps reach before t_end
        m = scalar_model("climb", b=0.0, sigma=0.0, g=0.0,
                         f=lambda x, y: np.where(y > 20.0, np.inf, 1.0),
                         sigma_y_independent=True)
        kw = dict(eps=[2**-3, 2**-4, 2**-5, 2**-6, 2**-7], t_end=0.5,
                  n_paths=4, x0=0.0, y0=0.0,
                  delta_policy=DeltaPolicy(mode="scaled", fast_exp=4),
                  stream=RngStream(411))
        avg = ExactAveraged(lambda x: np.zeros_like(x))
        with pytest.raises(BlowUpError,
                           match=rf"{kind} level 4 \(eps=0\.0078125\)") as exc:
            if kind == "strong":
                strong_error(m, avg, **kw)
            else:
                weak_error(m, avg, make_test_function("identity"), **kw)
        assert exc.value.paths and exc.value.block is None
        assert 0.15 < exc.value.time < 0.2


class TestTestFunctions:
    def test_registry(self):
        phi = make_test_function("x_squared")
        assert phi(np.array([[2.0], [3.0]])).tolist() == [4.0, 9.0]
        with pytest.raises(ConfigurationError):
            make_test_function("sinh")


class _PlainMeans:
    """Cross-path mean and standard error of fn(states) (one value per
    path) at t = 0 and after every micro step, in plain NumPy."""

    def __init__(self, fn):
        self.fn = fn
        self.means, self.ses = [], []

    def start(self, states):
        self.observe(-1, 0.0, states)

    def observe(self, step, t, states):
        v = self.fn(states)
        self.means.append(float(v.mean()))
        self.ses.append(float(v.std() / np.sqrt(v.size)))


class TestFastMoments:
    def test_marginal_sup_is_the_first_max_of_the_plain_mean(self, monkeypatch):
        p = 4.0
        plains = []
        run = mslevy.integrate.run_system_batch

        def spy(*args, watchers=(), **kw):
            plains.append(_PlainMeans(lambda st: np.abs(st["y"][:, 0]) ** p))
            return run(*args, watchers=(*watchers, plains[-1]), **kw)

        monkeypatch.setattr(mslevy.integrate, "run_system_batch", spy)
        rep = fast_moment_sweep(example_2_7("state_linear"),
                                eps=[2**-2, 2**-3, 2**-4], p=p, t_end=0.25,
                                n_paths=64, x0=0.5, y0=0.0,
                                stream=RngStream(407))
        assert len(plains) == 3
        for j, plain in enumerate(plains):
            k = int(np.argmax(plain.means))
            assert 0 < k < len(plain.means) - 1
            assert rep.marginal_sup[j] == plain.means[k]
            assert rep.marginal_ci[j] == 1.96 * plain.ses[k]

    def test_zero_fast_dynamics(self):
        m = scalar_model("quiet", b=0.0, sigma=1.0,
                         h1=lambda x, z: np.zeros_like(z),
                         f=0.0, g=0.0, h2=lambda x, y, z: np.zeros_like(z),
                         sigma_y_independent=True)
        rep = fast_moment_sweep(m, eps=[2**-3, 2**-4, 2**-5], p=4.0, t_end=0.5,
                                n_paths=32, x0=0.0, y0=0.0,
                                stream=RngStream(406))
        assert np.all(rep.marginal_sup == 0.0)
        assert np.all(rep.pathwise_sup == 0.0)
        assert rep.flags == ()
