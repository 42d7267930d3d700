"""Answers do not depend on units or on the order of the atoms.

Scaling both clouds by s scales a distance-power cost |y - z|^p by s^p and
leaves the optimal family entries unchanged.  Each property runs on rotation
registrations, which take the transport-LP route of `align`, and on
projections onto the line, which take the quantile route.  The last test
keeps every threshold of measures, lp, ot, alignment and euclidean inside
`wassalign.tolerance`.
"""

import ast
import logging
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wassalign
from wassalign.alignment import align
from wassalign.crosscheck import build_cost_tensor, extract_theta, solve_dual
from wassalign.measures import (
    CostSpec,
    FamilyEntry,
    TransformFamily,
    new_measure,
    rotation_grid,
    rotation_grid_angles,
)


def _rotation_registration(rng, N=8, M=6, l=8):
    """Points in [-1, 1]^2, M of them rotated by a grid angle plus noise."""
    x = rng.uniform(-1.0, 1.0, size=(N, 2))
    fam = rotation_grid(l)
    subset = rng.choice(N, size=M, replace=False)
    z = fam[int(rng.integers(l))].apply(x[subset]) + rng.normal(scale=0.05, size=(M, 2))
    return x, z, fam, CostSpec.squared_euclidean(), 2.0


def _line_projection(rng, N=10, M=8, l=8):
    """An anisotropic planar cloud projected onto l directions, against a sample on the line."""
    x = rng.normal(size=(N, 2)) * [2.0, 0.5]
    z = rng.normal(size=(M, 1))
    entries = tuple(
        FamilyEntry(f"t{k}", np.array([[np.cos(t), np.sin(t)]]), np.zeros(1))
        for k, t in enumerate(rotation_grid_angles(l))
    )
    power = float(rng.choice([1.5, 2.0, 3.0]))
    cost = CostSpec.squared_euclidean() if power == 2.0 else CostSpec.power(power)
    return x, z, TransformFamily(entries), cost, power


ROUTES = [_rotation_registration, _line_projection]


def _instance(route, seed, s=1.0):
    rng = np.random.default_rng(seed)
    x, z, fam, cost, power = route(rng)
    p = rng.dirichlet(np.full(x.shape[0], 5.0))
    q = rng.dirichlet(np.full(z.shape[0], 5.0))
    return new_measure(x * s, weights=p), new_measure(z * s, weights=q), fam, cost, power


class _Warnings(logging.Handler):
    """Collects the warnings that wassalign logs inside a with block."""

    def __enter__(self):
        self.records = []
        self.logger = logging.getLogger("wassalign")
        self.logger.addHandler(self)
        return self.records

    def __exit__(self, *exc):
        self.logger.removeHandler(self)

    def emit(self, record):
        if record.levelno >= logging.WARNING:
            self.records.append(record.getMessage())


PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)
log_scales = st.floats(-4.0, 5.0)


@pytest.mark.parametrize("route", ROUTES)
@PROPERTY
@given(seed=seeds, log_s=log_scales)
@example(seed=1, log_s=-4.0)
@example(seed=1, log_s=5.0)
def test_optimal_entries_do_not_depend_on_scale(route, seed, log_s):
    mu, nu, fam, cost, _ = _instance(route, seed)
    mu_s, nu_s, _, _, _ = _instance(route, seed, 10.0**log_s)
    base, scaled = align(mu, nu, fam, cost), align(mu_s, nu_s, fam, cost)
    assert scaled.theta_star == base.theta_star
    assert scaled.k_star == base.k_star


@pytest.mark.parametrize("route", ROUTES)
@PROPERTY
@given(seed=seeds, log_s=log_scales)
@example(seed=1, log_s=-4.0)
@example(seed=1, log_s=5.0)
def test_values_scale_by_s_to_the_power(route, seed, log_s):
    s = 10.0**log_s
    mu, nu, fam, cost, power = _instance(route, seed)
    mu_s, nu_s, _, _, _ = _instance(route, seed, s)
    base, scaled = align(mu, nu, fam, cost), align(mu_s, nu_s, fam, cost)
    assert scaled.value / s**power == pytest.approx(base.value, rel=1e-9)
    np.testing.assert_allclose(scaled.per_theta / s**power, base.per_theta, rtol=1e-9)


@pytest.mark.parametrize("route", ROUTES)
@PROPERTY
@given(seed=seeds, log_s=log_scales)
@example(seed=1, log_s=-4.0)
@example(seed=6, log_s=5.0)
@example(seed=8, log_s=5.0)
def test_no_certificate_warning_at_any_scale(route, seed, log_s):
    mu, nu, fam, cost, _ = _instance(route, seed, 10.0**log_s)
    with _Warnings() as warnings:
        align(mu, nu, fam, cost)
    assert warnings == []


@pytest.mark.parametrize("route", ROUTES)
@PROPERTY
@given(seed=seeds, log_s=log_scales)
def test_permuting_atoms_changes_neither_value_nor_optimizer(route, seed, log_s):
    mu, nu, fam, cost, _ = _instance(route, seed, 10.0**log_s)
    rng = np.random.default_rng(seed)
    a, b = rng.permutation(mu.size), rng.permutation(nu.size)
    mu_p = new_measure(mu.points[a], weights=mu.weights[a])
    nu_p = new_measure(nu.points[b], weights=nu.weights[b])
    base, permuted = align(mu, nu, fam, cost), align(mu_p, nu_p, fam, cost)
    assert permuted.value == pytest.approx(base.value, rel=1e-9)
    assert permuted.theta_star == base.theta_star


@pytest.mark.parametrize("route", ROUTES)
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
@example(seed=1)
def test_joint_lp_dual_has_a_witness_at_large_scale(route, seed):
    mu, nu, fam, cost, _ = _instance(route, seed, 1e5)
    ct = build_cost_tensor(mu, nu, fam, cost)
    with _Warnings() as warnings:
        extraction = extract_theta(solve_dual(mu, nu, ct), ct, mu.weights)
    assert extraction.witness_k is not None
    assert warnings == []


def test_registration_at_small_scale_keeps_its_optimizer():
    # 14 points in [-1, 1]^2, 10 of them rotated by a grid angle plus noise,
    # then every coordinate scaled by 1e-4: the sq-euclidean costs are about
    # 1e-8, below any absolute tie threshold of the usual size
    rng = np.random.default_rng(20250307)
    l, s = 10, 1e-4
    fam = rotation_grid(l)
    x = rng.uniform(-1.0, 1.0, size=(14, 2))
    k = int(rng.integers(l // 4, 3 * l // 4 + 1))
    subset = np.sort(rng.choice(14, size=10, replace=False))
    z = fam[k].apply(x[subset]) + rng.normal(scale=0.05, size=(10, 2))
    cost = CostSpec.squared_euclidean()
    base = align(new_measure(x), new_measure(z), fam, cost)
    scaled = align(new_measure(x * s), new_measure(z * s), fam, cost)
    assert base.k_star == [k]
    assert scaled.theta_star == base.theta_star
    assert scaled.k_star == base.k_star
    np.testing.assert_allclose(scaled.per_theta / s**2, base.per_theta, rtol=1e-9)


def _small_float_literals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value < 1e-3
    ]


@pytest.mark.parametrize(
    "module", ["measures.py", "lp.py", "ot.py", "alignment.py", "crosscheck.py", "euclidean.py"]
)
def test_thresholds_live_in_the_tolerance_policy(module):
    path = pathlib.Path(wassalign.__file__).parent / module
    assert _small_float_literals(path) == []
