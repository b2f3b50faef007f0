import numpy as np
import pytest

from mslevy.errors import ConfigurationError
from mslevy.model import (
    AssumptionParams,
    check_fast_dissipativity,
    check_growth,
    check_monotonicity,
    check_strong_monotonicity_fast,
    example_2_7,
    example_2_8,
    fast_coefficients,
    get_model,
    model_from_config,
    scalar_model,
)
from mslevy.rng import RngStream


def _col(*vals):
    return np.asarray(vals, dtype=float)[:, None]


# the built-ins' coefficients as they were written before they became
# expression blocks: flat arrays in, flat values (or constants) out
_LAMBDAS = {
    "example_2_7_linear": {"b": lambda x, y: -x * x * x + x + y * y * y,
                           "sigma": lambda x, y: x,
                           "f": lambda x, y: np.sin(x) - y - y * y * y * y * y},
    "example_2_7_sine": {"b": lambda x, y: -x * x * x + x + y * y * y,
                         "sigma": lambda x, y: np.sin(x) + np.sin(y) + 3.0,
                         "f": lambda x, y: np.sin(x) - y - y * y * y * y * y},
    "example_2_8": {"b": lambda x, y: x - np.arctan(x) * y * y + y,
                    "sigma": lambda x, y: 1.0,
                    "f": lambda x, y: np.cos(x) - y * y * y},
}
_FIELDS = {"b": ("slow_drift", 1), "sigma": ("slow_diffusion", 2),
           "f": ("fast_drift", 1), "g": ("fast_diffusion", 2)}


def _grid():
    values = np.concatenate([np.linspace(-3.0, 3.0, 25),
                             [-0.0, 1e-300, -1e-300, 40.0, -1e5, np.nan, np.inf]])
    x, y = np.meshgrid(values, values)
    return x.ravel(), y.ravel()


@pytest.mark.parametrize("name", sorted(_LAMBDAS))
def test_builtin_coefficients_equal_the_lambdas_they_replace(name):
    model = get_model(name)
    x, y = _grid()
    k = x.size
    oracle = {**_LAMBDAS[name], "g": lambda x, y: 1.0,
              "h1": lambda x, z: z, "h2": lambda x, y, z: z}
    z = np.linspace(-0.5, 0.5, k)
    with np.errstate(all="ignore"):
        for key, (field, trailing) in _FIELDS.items():
            want = np.broadcast_to(np.asarray(oracle[key](x, y), dtype=float), (k,))
            got = getattr(model, field)(x[:, None], y[:, None])
            assert got.shape == (k,) + (1,) * trailing
            assert got.ravel().tobytes() == np.ascontiguousarray(want).tobytes(), key
        assert model.slow_jump(x[:, None], z).ravel().tobytes() == z.tobytes()
        assert model.fast_jump(x[:, None], y[:, None], z).ravel().tobytes() == z.tobytes()


@pytest.mark.parametrize("name", [*sorted(_LAMBDAS), "custom"])
def test_frozen_coefficients_on_gathered_rows_equal_the_model(name):
    # the prelude runs once on every row's x; each closure then reads its
    # rows' gathered results, as a frozen kernel's advances and jumps do
    model = get_model(name if name != "custom" else {
        "b": "-x", "sigma": "1", "f": "sin(x)*cos(x) - y + pow(x, 0)*y",
        "g": "exp(-x*x) + 0*y", "h2": "arctan(x)*z + z*y"})
    x, y = _grid()
    idx = np.random.default_rng(0).integers(0, x.size, 300)
    z = np.linspace(-0.5, 0.5, idx.size)
    states = {"x": x[:, None], "y": y[:, None]}
    with np.errstate(all="ignore"):
        prelude, (f, g, h2), reads = fast_coefficients(model, frozen=True)
        states.update(prelude(states["x"]))
        # each closure has the states and only the prelude keys it reads
        subs = [{n: states[n][idx] for n in ("x", "y", *keys)} for keys in reads]
        cols = x[idx][:, None], y[idx][:, None]
        for got, want in ((f("y")(subs[0]), model.fast_drift(*cols)),
                          (g("y")(subs[1]), model.fast_diffusion(*cols)),
                          (h2("y")(subs[2], z), model.fast_jump(*cols, z))):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestBuiltins:
    def test_example_2_7_linear_plugged_values(self):
        m = example_2_7("state_linear")
        assert m.slow_drift(_col(1.0), _col(1.0))[0, 0] == pytest.approx(1.0)
        assert m.fast_drift(_col(0.0), _col(0.0))[0, 0] == pytest.approx(0.0)
        assert m.slow_diffusion(_col(2.0), _col(-7.0))[0, 0, 0] == pytest.approx(2.0)
        assert m.sigma_y_independent
        p = m.params
        assert (p.growth_exp, p.coercivity_exp) == (4, 6)
        assert (p.contraction_rate, p.dissipation_rate) == (2.0, 0.5)
        assert p.jump_lipschitz == 0.0

    def test_example_2_7_sine_variant(self):
        m = example_2_7("sine_bounded")
        assert m.slow_diffusion(_col(0.0), _col(0.0))[0, 0, 0] == pytest.approx(3.0)
        assert not m.sigma_y_independent

    def test_example_2_8_plugged_values(self):
        m = example_2_8()
        assert m.slow_drift(_col(0.0), _col(2.0))[0, 0] == pytest.approx(2.0)
        assert m.fast_drift(_col(0.0), _col(1.0))[0, 0] == pytest.approx(0.0)
        assert m.slow_diffusion(_col(5.0), _col(-3.0))[0, 0, 0] == pytest.approx(1.0)
        assert m.sigma_y_independent
        p = m.params
        assert (p.growth_exp, p.coercivity_exp) == (2, 4)
        assert (p.contraction_rate, p.dissipation_rate) == (1.0, 0.5)

    def test_jump_maps_are_identity_in_mark(self):
        m = example_2_7("state_linear")
        z = np.array([0.3, -0.1])
        x = _col(1.0, 2.0)
        y = _col(0.5, -0.5)
        np.testing.assert_array_equal(m.slow_jump(x, z)[:, 0], z)
        np.testing.assert_array_equal(m.fast_jump(x, y, z)[:, 0], z)

    def test_sigma_flag_contradiction_rejected(self):
        with pytest.raises(ConfigurationError):
            scalar_model(
                "bad", b=0.0, sigma=lambda x, y: y, f=lambda x, y: -y, g=1.0,
                sigma_y_independent=True,
            )


class TestAssumptionParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AssumptionParams(growth_exp=1, coercivity_exp=2,
                             contraction_rate=1, dissipation_rate=0.5)
        with pytest.raises(ConfigurationError):
            AssumptionParams(growth_exp=2, coercivity_exp=2, contraction_rate=1,
                             dissipation_rate=0.5, jump_lipschitz=1.5)
        with pytest.raises(ConfigurationError):
            AssumptionParams(growth_exp=2, coercivity_exp=2, contraction_rate=1,
                             dissipation_rate=0.5, diffusion_growth_exp=1.0)


class TestMonotonicity:
    def test_identity_drift_ratio_one(self):
        m = scalar_model("lin", b=lambda x, y: x, sigma=1.0, f=lambda x, y: -y, g=1.0)
        rep = check_monotonicity(m, probes=500, box=5.0, stream=RngStream(1))
        assert rep.observed == pytest.approx(1.0, abs=1e-12)
        assert rep.passed

    def test_example_2_7_bounded_by_one(self):
        rep = check_monotonicity(example_2_7(), probes=2000, box=3.0, stream=RngStream(2))
        assert rep.observed <= 1.0 + 1e-9
        assert rep.passed

    def test_quadratic_drift_fails_declared_bound(self):
        params = AssumptionParams(growth_exp=2, coercivity_exp=2, contraction_rate=1,
                                  dissipation_rate=0.5, drift_monotone_bound=5.0)
        m = scalar_model("quad", b=lambda x, y: x * x, sigma=1.0,
                         f=lambda x, y: -y, g=1.0, params=params)
        rep = check_monotonicity(m, probes=4000, box=3.0, stream=RngStream(3))
        # difference quotient is x1 + x2, reaching ~6 on the box
        assert rep.observed > 5.5
        assert not rep.passed
        # the witness is a hard counterexample: it reproduces on re-evaluation
        w = rep.witness
        x1, x2, y = (w["x1"][None, :], w["x2"][None, :], w["y"][None, :])
        db = m.slow_drift(x1, y) - m.slow_drift(x2, y)
        ratio = float(np.sum(db * (x1 - x2)) / np.sum((x1 - x2) ** 2))
        assert ratio == pytest.approx(w["ratio"])


class TestDissipativity:
    def test_linear_decay_rate_half_of_two_term_form(self):
        # -<y, y> absorbed by -lam(|y|^2 + |y|^2) gives lam = 1/2 with C = 0
        m = scalar_model("ou", b=0.0, sigma=1.0, f=lambda x, y: -y, g=1.0)
        rep = check_fast_dissipativity(m, probes=2000, box=4.0, stream=RngStream(4))
        assert rep.observed == pytest.approx(0.5, abs=1e-9)
        assert rep.details["residual_constant"] == pytest.approx(0.0, abs=1e-9)

    def test_example_2_7_passes(self):
        rep = check_fast_dissipativity(example_2_7(), probes=2000, box=4.0,
                                       stream=RngStream(5))
        assert rep.observed >= 0.45
        assert rep.passed

    def test_example_2_8_passes(self):
        rep = check_fast_dissipativity(example_2_8(), probes=2000, box=4.0,
                                       stream=RngStream(6))
        assert rep.passed

    def test_antidissipative_fails(self):
        m = scalar_model("anti", b=0.0, sigma=1.0, f=lambda x, y: y, g=1.0)
        rep = check_fast_dissipativity(m, probes=500, box=4.0, stream=RngStream(7))
        assert rep.observed < 0
        assert not rep.passed


class TestFastContraction:
    def test_linear_rate_two(self):
        m = scalar_model("ou", b=0.0, sigma=1.0, f=lambda x, y: -y, g=1.0)
        rep = check_strong_monotonicity_fast(m, probes=1000, box=5.0,
                                             stream=RngStream(8))
        assert rep.observed == pytest.approx(2.0, abs=1e-9)

    def test_example_2_7_rate_two(self):
        rep = check_strong_monotonicity_fast(example_2_7(), probes=1000, box=5.0,
                                             stream=RngStream(9))
        assert 1.95 <= rep.observed <= 2.05
        assert rep.passed

    def test_example_2_8_origin_degeneracy(self):
        # f = cos(x) - y^3 has vanishing contraction at the origin, so the
        # declared rate 1 cannot hold pointwise; the checker reports the
        # violation with a reproducible witness.
        m = example_2_8()
        rep = check_strong_monotonicity_fast(m, probes=2000, box=5.0,
                                             stream=RngStream(10))
        assert rep.observed < 0.9
        assert not rep.passed
        w = rep.witness
        x, y1, y2 = w["x"][None, :], w["y1"][None, :], w["y2"][None, :]
        df = m.fast_drift(x, y1) - m.fast_drift(x, y2)
        dy = y1 - y2
        rate = float(-2 * np.sum(df * dy) / np.sum(dy * dy))
        assert rate == pytest.approx(w["rate"])


def test_growth_report_finite():
    rep = check_growth(example_2_7(), probes=500, box=4.0, stream=RngStream(11))
    assert rep.passed
    assert np.isfinite(rep.observed)


@pytest.mark.parametrize("check", [check_monotonicity, check_fast_dissipativity,
                                   check_strong_monotonicity_fast, check_growth])
def test_zero_probes_rejected(check):
    with pytest.raises(ConfigurationError, match="probes must be >= 1"):
        check(example_2_7(), 0, 4.0, RngStream(12))


def test_checker_determinism():
    for _ in range(2):
        reports = [
            check_monotonicity(example_2_7(), 300, 4.0, RngStream(21)),
            check_fast_dissipativity(example_2_7(), 300, 4.0, RngStream(21)),
            check_strong_monotonicity_fast(example_2_7(), 300, 4.0, RngStream(21)),
        ]
    again = [
        check_monotonicity(example_2_7(), 300, 4.0, RngStream(21)),
        check_fast_dissipativity(example_2_7(), 300, 4.0, RngStream(21)),
        check_strong_monotonicity_fast(example_2_7(), 300, 4.0, RngStream(21)),
    ]
    for a, b in zip(reports, again):
        assert a.observed == b.observed
        assert a.passed == b.passed


class TestCustomModels:
    def test_expression_model_matches_builtin_drift(self):
        cfg = {
            "name": "custom27",
            "b": "−pow(x,3)+x+pow(y,3)",
            "sigma": "x",
            "f": "sin(x) - y - pow(y,5)",
            "g": "1",
        }
        custom = model_from_config(cfg)
        builtin = example_2_7("state_linear")
        gen = RngStream(30).generator()
        x = gen.uniform(-3, 3, (10, 1))
        y = gen.uniform(-3, 3, (10, 1))
        np.testing.assert_allclose(custom.slow_drift(x, y), builtin.slow_drift(x, y),
                                   rtol=1e-12)
        np.testing.assert_allclose(custom.fast_drift(x, y), builtin.fast_drift(x, y),
                                   rtol=1e-12)
        assert custom.sigma_y_independent  # auto-probed: sigma = x

    def test_unknown_model_key_rejected(self):
        with pytest.raises(ConfigurationError):
            model_from_config({"b": "x", "sigma": "1", "f": "-y", "g": "1",
                               "volatility": "2"})

    def test_missing_coefficient_rejected(self):
        with pytest.raises(ConfigurationError):
            model_from_config({"b": "x", "sigma": "1", "f": "-y"})

    def test_get_model_by_name_and_errors(self):
        assert get_model("example_2_8").name == "example_2_8"
        with pytest.raises(ConfigurationError):
            get_model("example_9_9")
        with pytest.raises(ConfigurationError):
            get_model(42)
