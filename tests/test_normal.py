import math

import numpy as np
import pytest

from wassalign.normal import (
    MixtureModel,
    NormalSampler,
    mixture_F,
    mixture_brenier,
    mixture_demo,
    std_normal_cdf,
    std_normal_inv_cdf,
)


def _cdf_quadrature(t: float, nodes: int = 240) -> float:
    """Independent oracle: Gauss-Legendre integration of the density on [0, t]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * t
    pts = half * x + half
    vals = np.exp(-0.5 * pts**2) / math.sqrt(2.0 * math.pi)
    return 0.5 + float(half * (w @ vals))


def test_cdf_center_and_symmetry():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    for t in (0.3, 1.7, 3.9, 4.2, 6.5):
        assert std_normal_cdf(t) + std_normal_cdf(-t) == pytest.approx(1.0, abs=1e-12)


def test_cdf_matches_quadrature_oracle():
    # frozen spot value first: Phi(1.959964) ~ 0.975 (two-sided 5% point)
    assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    for t in np.linspace(-6.0, 6.0, 121):
        assert std_normal_cdf(float(t)) == pytest.approx(_cdf_quadrature(float(t)), abs=1e-12)


def test_cdf_error_bound_on_dense_grid():
    grid = np.linspace(-7.5, 7.5, 10_001)
    worst = max(
        abs(std_normal_cdf(float(t)) - _cdf_quadrature(float(t)))
        for t in grid[:: 100]
    )
    assert worst <= 1e-12


def test_inv_cdf_basics():
    assert std_normal_inv_cdf(0.5) == pytest.approx(0.0, abs=1e-12)
    assert std_normal_inv_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)
    with pytest.raises(ValueError):
        std_normal_inv_cdf(0.0)
    with pytest.raises(ValueError):
        std_normal_inv_cdf(1.0)


def test_inv_cdf_round_trips():
    for t in np.linspace(-6.0, 6.0, 61):
        assert std_normal_inv_cdf(std_normal_cdf(float(t))) == pytest.approx(float(t), abs=1e-8)
    for u in np.linspace(1e-6, 1.0 - 1e-6, 101):
        assert std_normal_cdf(std_normal_inv_cdf(float(u))) == pytest.approx(float(u), abs=1e-9)


def test_inv_cdf_round_trips_in_the_deep_lower_tail():
    for u in np.logspace(-300, -1, 300):
        u = float(u)
        assert std_normal_cdf(std_normal_inv_cdf(u)) == pytest.approx(u, rel=1e-11, abs=0.0)


def test_mixture_brenier_degenerate_and_symmetry():
    for y in (-3.0, -0.5, 0.0, 1.2, 4.0):
        assert mixture_brenier(0.0, y) == pytest.approx(y, abs=1e-9)
    for c in (0.5, 1.0, 2.0):
        assert mixture_brenier(c, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_mixture_brenier_strictly_increasing():
    grid = np.linspace(-8.0, 8.0, 2001)
    for c in (0.5, 1.0, 2.0):
        vals = np.array([mixture_brenier(c, float(t)) for t in grid])
        assert np.min(np.diff(vals)) > 0.0


def test_mixture_F_properties():
    grid = np.linspace(-8.0, 8.0, 2001)
    f0 = np.array([mixture_F(0.0, float(t)) for t in grid])
    assert np.max(np.abs(f0)) <= 1e-9
    for c in (0.5, 1.0, 2.0):
        assert mixture_F(c, 0.0) == pytest.approx(0.0, abs=1e-9)
        vals = np.array([mixture_F(c, float(t)) for t in grid])
        assert np.min(np.diff(vals)) > 0.0


def test_mixture_F_curves_are_ordered_in_c():
    # larger separation pulls the map further from the identity: the curve at
    # c = 1 sits strictly between the zero curve and larger-c envelopes
    grid = np.linspace(0.25, 8.0, 200)
    f_half = np.array([mixture_F(0.5, float(t)) for t in grid])
    f_one = np.array([mixture_F(1.0, float(t)) for t in grid])
    f_two = np.array([mixture_F(2.0, float(t)) for t in grid])
    assert np.all(f_half > 0.0)
    assert np.all(f_one > f_half)
    assert np.all(f_two > f_one)


def test_mixture_brenier_pushforward_is_standard_normal():
    # push quantile-grid mixture samples through the map; the empirical CDF
    # must be within Kolmogorov distance 0.01 of Phi
    c = 1.0
    n = 100_000
    us = (np.arange(n // 2) + 0.5) / (n // 2)
    # stratified mixture draws: component quantile grids shifted by +-c
    half = np.array([std_normal_inv_cdf(float(u)) for u in us])
    samples = np.concatenate([half + c, half - c])
    mapped = np.array([mixture_brenier(c, float(y)) for y in samples])
    mapped.sort()
    cdf_vals = np.array([std_normal_cdf(float(v)) for v in mapped])
    ks = max(
        np.max(np.abs(cdf_vals - (np.arange(1, n + 1)) / n)),
        np.max(np.abs(cdf_vals - np.arange(n) / n)),
    )
    assert ks <= 0.01


def test_sampler_is_deterministic_and_standard():
    s1, s2 = NormalSampler(7), NormalSampler(7)
    a, b = s1.normals(1000), s2.normals(1000)
    np.testing.assert_array_equal(a, b)
    assert abs(a.mean()) < 0.15
    assert abs(a.std() - 1.0) < 0.1
    assert not np.array_equal(a, NormalSampler(8).normals(1000))


def test_mixture_model_validation():
    with pytest.raises(ValueError):
        MixtureModel(np.zeros(2))
    m = MixtureModel(np.array([2.0, 0.0]))
    assert m.projected_offset(np.array([0.0, 1.0])) == 0.0


def test_mixture_demo_small_run():
    report = mixture_demo((1.0, 0.0), n_samples=400, seed=3, grid_size=16)
    angle = float(report.theta_star_label.split("=")[1])
    dist = min(abs(angle - np.pi / 2), abs(angle - 3 * np.pi / 2))
    assert dist <= 2 * np.pi / 16 + 1e-9
    assert report.value <= 0.2
    assert report.value >= -1e-9


def test_mixture_demo_rejects_tiny_samples():
    with pytest.raises(ValueError):
        mixture_demo((1.0, 0.0), n_samples=50, seed=1, grid_size=8)


def test_mixture_demo_depends_only_on_center_direction():
    a = (0.6, 0.8)
    a3 = (1.8, 2.4)
    r1 = mixture_demo(a, n_samples=600, seed=9, grid_size=24)
    r3 = mixture_demo(a3, n_samples=600, seed=9, grid_size=24)
    t1 = float(r1.theta_star_label.split("=")[1])
    t3 = float(r3.theta_star_label.split("=")[1])
    gap = abs(t1 - t3) % np.pi  # optimal directions are defined modulo pi
    gap = min(gap, np.pi - gap)
    assert gap <= 2 * np.pi / 24 + 1e-9


def test_mixture_demo_objective_curve_is_pi_periodic():
    # the sampled mixture is exactly symmetric under x -> -x, so rotating by
    # pi leaves every projected law unchanged
    rep = mixture_demo((1.0, 0.0), n_samples=400, seed=13, grid_size=16)
    half = 8
    np.testing.assert_allclose(rep.per_theta[:half], rep.per_theta[half:], atol=1e-10)
