import numpy as np
import pytest
from scipy import integrate, stats

from mslevy.errors import ConfigurationError
from mslevy.rng import (
    JumpMeasureSpec,
    PointMass,
    RngStream,
    TruncatedGaussian,
    Uniform,
    default_jump_measure,
    sample_jump_times_batch,
)


def _marks(spec, stream, size):
    return spec.size.sample(stream.generator(), size)


def test_same_key_bit_identical():
    a = RngStream(master_seed=12345, stream_id=7).generator().standard_normal(64)
    b = RngStream(master_seed=12345, stream_id=7).generator().standard_normal(64)
    np.testing.assert_array_equal(a, b)


def test_children_and_substreams_differ():
    root = RngStream(2024, 0)
    x = root.generator().standard_normal(8)
    y = root.child("wiener").generator().standard_normal(8)
    z = root.substream(3).generator().standard_normal(8)
    assert not np.allclose(x, y)
    assert not np.allclose(x, z)
    assert not np.allclose(y, z)


def test_distinct_stream_ids_uncorrelated():
    n = 100_000
    u1 = RngStream(99, 1).generator().uniform(size=n)
    u2 = RngStream(99, 2).generator().uniform(size=n)
    rho = np.corrcoef(u1, u2)[0, 1]
    assert abs(rho) < 4.0 / np.sqrt(n)


def test_jump_times_zero_rate_empty():
    paths, times = sample_jump_times_batch(0.0, 1.0, 8, RngStream(1))
    assert paths.size == 0 and times.size == 0


def test_jump_times_validation():
    with pytest.raises(ConfigurationError):
        sample_jump_times_batch(-1.0, 1.0, 8, RngStream(1))
    with pytest.raises(ConfigurationError):
        sample_jump_times_batch(1.0, 0.0, 8, RngStream(1))


def test_jump_times_strictly_increasing_within_horizon():
    paths, t = sample_jump_times_batch(30.0, 2.0, 64, RngStream(5, 1))
    assert np.all(np.diff(paths) >= 0)
    same = paths[1:] == paths[:-1]
    assert np.all(np.diff(t)[same] > 0)
    assert t.min() > 0 and t.max() <= 2.0


def test_zero_event_fraction_matches_poisson_pmf():
    # P(N=0) for rate 2 over T=1 is exp(-2); binomial oracle over many
    # paths, from one wide draw and from many single-path streams.
    n_streams = 100_000
    lam = 2.0
    counts = np.array([
        sample_jump_times_batch(lam, 1.0, 1, RngStream(42, i))[0].size
        for i in range(3000)
    ])
    paths, _ = sample_jump_times_batch(lam, 1.0, n_streams, RngStream(42).child("bulk"))
    bulk_counts = np.bincount(paths, minlength=n_streams)
    p0 = np.exp(-lam)
    for zero_frac, n in (
        ((counts == 0).mean(), 3000),
        ((bulk_counts == 0).mean(), n_streams),
    ):
        se = np.sqrt(p0 * (1 - p0) / n)
        assert abs(zero_frac - p0) < 3 * se


def test_mean_count_matches_rate_times_horizon():
    n_streams = 100_000
    paths, _ = sample_jump_times_batch(5.0, 2.0, n_streams, RngStream(7).child("cnt"))
    counts = np.bincount(paths, minlength=n_streams)
    se = np.sqrt(10.0) / np.sqrt(n_streams)
    assert abs(counts.mean() - 10.0) < 3 * se


def test_point_mass_samples_constant():
    spec = JumpMeasureSpec(intensity=1.0, size=PointMass(0.3))
    z = _marks(spec, RngStream(3), 100)
    np.testing.assert_array_equal(z, 0.3)


def test_uniform_second_moment():
    spec = default_jump_measure()
    z = _marks(spec, RngStream(11), 1_000_000)
    assert abs(np.mean(z * z) - 1.0 / 12.0) < 0.01 / 12.0


def test_truncated_gaussian_support_and_moments():
    fam = TruncatedGaussian(mu=0.0, sd=0.2, bound=1.0)
    spec = JumpMeasureSpec(intensity=1.0, size=fam)
    z = _marks(spec, RngStream(13), 200_000)
    assert np.all(np.abs(z) <= 1.0)
    m1, m2 = fam.moments()
    for emp, ana in ((z.mean(), m1), ((z * z).mean(), m2)):
        se = z.std(ddof=1) / np.sqrt(z.size)
        assert abs(emp - ana) < 4 * max(se, 1e-6)


@pytest.mark.parametrize(
    "fam",
    [PointMass(-0.2), Uniform(-0.5, 0.5), Uniform(0.1, 0.9), TruncatedGaussian(0.1, 0.2, 1.0)],
)
def test_empirical_moments_match_declared(fam):
    spec = JumpMeasureSpec(intensity=1.0, size=fam)
    z = _marks(spec, RngStream(17).child(repr(fam)), 1_000_000)
    sd1 = max(z.std(ddof=1), 1e-9)
    sd2 = max((z * z).std(ddof=1), 1e-9)
    assert abs(z.mean() - spec.m1) < 4 * sd1 / np.sqrt(z.size)
    assert abs((z * z).mean() - spec.m2) < 4 * sd2 / np.sqrt(z.size)


def test_declared_moment_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        JumpMeasureSpec(intensity=1.0, size=Uniform(-0.5, 0.5), m1=0.1)
    with pytest.raises(ConfigurationError):
        JumpMeasureSpec(intensity=1.0, size=PointMass(0.3), m2=0.3)
    # exact declarations are accepted
    JumpMeasureSpec(intensity=2.0, size=PointMass(0.3), m1=0.3, m2=0.09)


def test_compensator_first_moment_values():
    # the compensator of the mark-linear jump map is intensity * m1
    spec = default_jump_measure()
    assert spec.intensity * spec.m1 == 0.0
    spec = JumpMeasureSpec(2.0, PointMass(0.3))
    assert spec.intensity * spec.m1 == pytest.approx(0.6)


def test_compensator_truncated_gaussian_quadrature_oracle():
    fam = TruncatedGaussian(mu=0.1, sd=0.2, bound=1.0)
    spec = JumpMeasureSpec(intensity=1.0, size=fam)

    def density(z):
        a = stats.norm.cdf((-1.0 - 0.1) / 0.2)
        b = stats.norm.cdf((1.0 - 0.1) / 0.2)
        return stats.norm.pdf(z, 0.1, 0.2) / (b - a)

    oracle, _ = integrate.quad(lambda z: z * density(z), -1.0, 1.0)
    assert spec.intensity * spec.m1 == pytest.approx(oracle, abs=1e-10)
    nodes, weights = fam.quadrature()
    assert weights @ nodes == pytest.approx(oracle, abs=1e-10)


def test_quadrature_matches_moments():
    for fam in (PointMass(0.3), Uniform(-0.5, 0.5), TruncatedGaussian(0.1, 0.2, 1.0)):
        spec = JumpMeasureSpec(intensity=3.0, size=fam)
        nodes, weights = spec.size.quadrature()
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)
        assert weights @ nodes == pytest.approx(spec.m1, abs=1e-12)
        assert weights @ (nodes * nodes) == pytest.approx(spec.m2, rel=1e-10)


def test_superposition_is_poisson_chi_square():
    # merging two independent event streams of rates a and b gives a
    # rate-(a+b) stream; chi-square on window counts.
    n = 20_000
    pa, _ = sample_jump_times_batch(0.7, 1.0, n, RngStream(23).child("a"))
    pb, _ = sample_jump_times_batch(1.3, 1.0, n, RngStream(23).child("b"))
    counts = np.bincount(pa, minlength=n) + np.bincount(pb, minlength=n)
    kmax = 9
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pmf = stats.poisson.pmf(np.arange(kmax), 2.0)
    expected = np.append(pmf, 1.0 - pmf.sum()) * n
    stat, p = stats.chisquare(observed, expected)
    assert p > 0.001


def test_measure_round_trip():
    # the nu1/nu2 blocks of a custom model config
    for d, spec in (
        ({"intensity": 2.5, "size": {"kind": "uniform", "lo": -0.5, "hi": 0.5}},
         JumpMeasureSpec(2.5, Uniform(-0.5, 0.5))),
        ({"intensity": 1.0, "size": {"kind": "point_mass", "value": 0.3}},
         JumpMeasureSpec(1.0, PointMass(0.3))),
        ({"intensity": 0.5, "size": {"kind": "truncated_gaussian", "mu": 0.0,
                                     "sd": 0.2, "bound": 1.0}},
         JumpMeasureSpec(0.5, TruncatedGaussian(0.0, 0.2, 1.0))),
    ):
        assert JumpMeasureSpec.from_dict(d) == spec
    with pytest.raises(ConfigurationError):
        JumpMeasureSpec.from_dict({"intensity": 1.0, "size": {"kind": "cauchy"}})
