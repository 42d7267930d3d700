"""The answer checks accept a correct report and reject perturbed ones.

    PYTHONPATH=src python3 -m pytest perfbench/test_reference.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
from workloads import _mixture_sample, _registration  # noqa: E402

wassalign = pytest.importorskip("wassalign")

N, M, L = 10, 8, 8


@pytest.fixture(scope="module")
def solved():
    inst = _registration(np.random.default_rng(3), N, M, L, 0.05)
    report = wassalign.align(
        wassalign.new_measure(inst["x"]), wassalign.new_measure(inst["z"]),
        wassalign.rotation_grid(L), wassalign.CostSpec.squared_euclidean(),
    )
    costs = ref.rotation_costs(inst["x"], inst["z"], L)
    values = ref.rotation_values(costs, np.full(N, 1 / N), np.full(M, 1 / M))
    return report, costs, values


def _errors(report, costs, values, value=None, theta_star=None, xi=None):
    value = report.value if value is None else value
    theta_star = report.theta_star if theta_star is None else theta_star
    xi = report.dual.xi if xi is None else xi
    p, q = np.full(N, 1 / N), np.full(M, 1 / M)
    return (
        ref.check_optimum(value, theta_star, values)
        + ref.check_per_entry(report.per_theta, values)
        + ref.check_dual(xi, report.dual.psi, value, ref.dense_row_min(costs), float(costs.max()), p, q)
    )


def test_correct_report_passes(solved):
    assert _errors(*solved) == []


def test_wrong_theta_star_is_rejected(solved):
    report, costs, values = solved
    wrong = int(np.argmax(values))
    errors = _errors(report, costs, values, theta_star=wrong)
    assert any("theta_star" in e for e in errors)


def test_value_off_by_1e_6_relative_is_rejected(solved):
    report, costs, values = solved
    errors = _errors(report, costs, values, value=report.value * (1 + 1e-6))
    assert any("reference minimum" in e for e in errors)


def test_infeasible_dual_is_rejected(solved):
    report, costs, values = solved
    errors = _errors(report, costs, values, xi=report.dual.xi + 1e-6)
    assert any("infeasible" in e for e in errors)


def test_per_entry_value_off_is_rejected(solved):
    _, _, values = solved
    off = values.copy()
    off[1] *= 1 + 1e-6
    assert ref.check_per_entry(off, values)


def test_antithetic_mixture_ties_theta_and_theta_plus_pi():
    x, z = _mixture_sample(np.random.default_rng(0), 400, (1.0, 0.0))
    values = ref.projection_values(x, z, 16)
    best = min(ref.argmin_set(values))
    assert (best + 8) % 16 in ref.argmin_set(values)
    assert ref.check_optimum(values[(best + 8) % 16], (best + 8) % 16, values) == []


def test_envelope_min_matches_the_dense_row_minimum():
    rng = np.random.default_rng(1)
    for trial in range(100):
        y = rng.normal(size=rng.integers(1, 40)) * 3
        z = rng.normal(size=rng.integers(1, 40))
        if trial % 2:
            z = np.round(z, 1)  # repeated target points
        psi = rng.normal(size=z.size) * rng.choice([0.1, 10.0])
        dense = ((y[:, None] - z[None, :]) ** 2 - psi[None, :]).min(axis=1)
        np.testing.assert_allclose(ref.envelope_min(y, z, psi), dense, rtol=0, atol=1e-12)
