"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 1-3 share one batch of 50 random instances (solved three ways);
criterion 8 drives the CLI end to end on the shape-registration demo.
"""

import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wassalign.cli import main
from wassalign.crosscheck import (
    CostTensor,
    brute_force,
    extract_theta,
    gap_certificate,
    solve_dual,
    solve_relaxed_primal,
)
from wassalign.euclidean import updown_check
from wassalign.measures import (
    CostSpec,
    new_measure,
    pairwise_cost,
    whiten,
)
from wassalign.normal import mixture_F, mixture_demo
from wassalign.ot import c_transform, cbar_transform, wasserstein

from _shapes import butterfly, rotated_subsample

SEED = 20250808


@pytest.fixture(scope="module")
def random_batch():
    """50 instances, N, M in [5, 30], l in [2, 12], costs in [0, 10],
    penalties in [0, 1], solved by all three routes."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    batch = []
    for _ in range(50):
        N = int(rng.integers(5, 31))
        M = int(rng.integers(5, 31))
        l = int(rng.integers(2, 13))
        values = rng.uniform(0.0, 10.0, size=(N, M, l))
        R = rng.uniform(0.0, 1.0, size=l)
        mu = new_measure(rng.normal(size=(N, 2)), weights=rng.dirichlet(np.ones(N)))
        nu = new_measure(rng.normal(size=(M, 2)), weights=rng.dirichlet(np.ones(M)))
        ct = CostTensor(values, R)
        dual = solve_dual(mu, nu, ct)
        bf = brute_force(mu, nu, ct)
        rp = solve_relaxed_primal(mu, nu, ct)
        batch.append((mu, nu, ct, dual, bf, rp))
    elapsed = time.perf_counter() - t0
    return batch, elapsed, rng


def test_criterion_1_duality_tightness(random_batch):
    batch, elapsed, _ = random_batch
    worst = 0.0
    for mu, nu, ct, dual, bf, rp in batch:
        worst = max(
            worst,
            abs(dual.value - bf.value),
            abs(rp.value - bf.value),
            abs(dual.value - rp.value),
        )
        assert abs(dual.value - bf.value) <= 1e-7
        assert abs(rp.value - bf.value) <= 1e-7
        assert abs(dual.value - rp.value) <= 1e-7
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 1: dual/relaxed/brute pairwise agreement on 50 instances "
        f"(worst {worst:.2e}, solves took {elapsed:.0f}s < 120s)"
    )


def test_criterion_2_theta_extraction(random_batch):
    batch, _, _ = random_batch
    worst_witness = 0.0
    for mu, nu, ct, dual, bf, _ in batch:
        extraction = extract_theta(dual, ct, mu.weights)
        assert set(extraction.k_star) & set(bf.k_star)
        assert extraction.witness_k is not None
        assert extraction.witness_gap <= 1e-6
        worst_witness = max(worst_witness, extraction.witness_gap)
    print(
        f"PASS criterion 2: argmin intersection and slack witness on 50 instances "
        f"(worst witness deviation {worst_witness:.2e})"
    )


def test_criterion_3_gap_identity(random_batch):
    batch, _, rng = random_batch
    worst = 0.0
    for mu, nu, ct, dual, _, _ in batch:
        for k0 in rng.integers(0, ct.shape[2], size=3):
            cert = gap_certificate(int(k0), mu, nu, ct, dual.value)
            assert cert.identity_residual <= 1e-6
            assert cert.delta >= -1e-8
            assert cert.g >= -1e-8
            worst = max(worst, cert.identity_residual)
    print(f"PASS criterion 3: gap identity on 150 certificates (worst residual {worst:.2e})")


def test_criterion_4_updown_equivalence():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(20):
        mu = whiten(new_measure(rng.normal(size=(rng.integers(8, 14), 3))))
        nu = whiten(new_measure(rng.normal(size=(rng.integers(6, 12), 2))))
        A, _ = np.linalg.qr(rng.normal(size=(3, 2)))
        chk_prod = updown_check(mu, nu, A)
        C = pairwise_cost(mu.points @ A, nu.points, CostSpec.squared_euclidean())
        plan = wasserstein(mu.weights, nu.weights, C).plan
        chk_opt = updown_check(mu, nu, A, gamma=plan)
        for chk in (chk_prod, chk_opt):
            assert chk.expected_gap == 1.0
            assert chk.residual <= 1e-9
            worst = max(worst, chk.residual)
    print(f"PASS criterion 4: up/down difference equals n - d = 1 (worst residual {worst:.2e})")


def test_criterion_5_stability_bound():
    rng = np.random.default_rng(SEED + 5)
    spec = CostSpec.squared_euclidean()
    worst_slack = np.inf
    for _ in range(20):
        mu = whiten(new_measure(rng.normal(size=(rng.integers(8, 13), 3))))
        mu2 = whiten(new_measure(rng.normal(size=(rng.integers(8, 13), 3))))
        nu = new_measure(rng.normal(size=(rng.integers(6, 11), 2)))
        nu2 = new_measure(rng.normal(size=(rng.integers(6, 11), 2)))
        A, _ = np.linalg.qr(rng.normal(size=(3, 2)))
        A2, _ = np.linalg.qr(rng.normal(size=(3, 2)))

        def w2(Y, wy, Z, wz):
            return np.sqrt(wasserstein(wy, wz, pairwise_cost(Y, Z, spec)).value)

        lhs = abs(
            w2(mu.points @ A, mu.weights, nu.points, nu.weights)
            - w2(mu2.points @ A2, mu2.weights, nu2.points, nu2.weights)
        )
        rhs = (
            np.sqrt(mu.second_moment()) * np.linalg.norm(A - A2)
            + w2(mu.points, mu.weights, mu2.points, mu2.weights)
            + w2(nu.points, nu.weights, nu2.points, nu2.weights)
        )
        slack = rhs - lhs
        assert slack >= -1e-7
        worst_slack = min(worst_slack, slack)
    print(f"PASS criterion 5: stability bound on 20 quadruples (min slack {worst_slack:.3f})")


def test_criterion_6_mixture_example():
    step = 2.0 * np.pi / 64
    worst_dist, worst_value, worst_time = 0.0, 0.0, 0.0
    for seed in (1, 2, 3, 4, 5):
        t0 = time.perf_counter()
        rep = mixture_demo((1.0, 0.0), n_samples=2000, seed=seed, grid_size=64)
        dt = time.perf_counter() - t0
        angle = float(rep.theta_star_label.split("=")[1])
        dist = min(abs(angle - np.pi / 2), abs(angle - 3 * np.pi / 2))
        assert dist <= step + 1e-12
        assert rep.value <= 0.05
        assert dt < 180.0
        worst_dist = max(worst_dist, dist)
        worst_value = max(worst_value, rep.value)
        worst_time = max(worst_time, dt)
    print(
        f"PASS criterion 6: mixture optimum within one step of +-pi/2 on 5 seeds "
        f"(max offset {worst_dist / step:.2f} steps, max value {worst_value:.1e}, "
        f"max run {worst_time:.1f}s < 180s)"
    )


def test_criterion_7_monotone_displacement():
    grid = np.linspace(-8.0, 8.0, 2001)
    f0 = max(abs(mixture_F(0.0, float(t))) for t in grid)
    assert f0 <= 1e-9
    margins = {}
    for c in (0.5, 1.0, 2.0):
        vals = np.array([mixture_F(c, float(t)) for t in grid])
        diffs = np.diff(vals)
        assert np.min(diffs) > 0.0
        margins[c] = float(np.min(diffs))
    print(
        f"PASS criterion 7: displacement curves strictly increasing "
        f"(min forward differences {margins}, |F_0|max {f0:.1e})"
    )


def test_criterion_8_shape_registration(tmp_path):
    rng = np.random.default_rng(SEED + 8)
    pts = butterfly(150)
    k_true = int(rng.integers(40))
    theta_true = 2.0 * np.pi * k_true / 40
    target = rotated_subsample(pts, 80, theta_true, rng)

    mu_csv, nu_csv = tmp_path / "mu.csv", tmp_path / "nu.csv"
    np.savetxt(mu_csv, pts, delimiter=",")
    np.savetxt(nu_csv, target, delimiter=",")
    out = tmp_path / "report.json"
    svg = tmp_path / "aligned.svg"
    curve = tmp_path / "curve.csv"

    t0 = time.perf_counter()
    rc = main([
        "align", "--mu", str(mu_csv), "--nu", str(nu_csv),
        "--family", "rotations2d:40", "--out", str(out),
        "--svg", str(svg), "--curve", str(curve),
    ])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 600.0

    doc = json.loads(out.read_text())
    k_rec = doc["thetaStar"]["index"]
    angle_rec = 2.0 * np.pi * k_rec / 40
    dist = abs(angle_rec - theta_true)
    dist = min(dist, 2.0 * np.pi - dist)
    assert dist <= 2.0 * np.pi / 40 + 1e-12

    per_theta = np.array(doc["gapCurve"]) + doc["value"]
    at_true = per_theta[k_true]
    assert abs(doc["value"] - at_true) <= 0.10 * at_true

    root = ET.parse(svg).getroot()
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) == 150 + 80
    print(
        f"PASS criterion 8: planted rotation {theta_true:.3f} recovered as {angle_rec:.3f} "
        f"(offset {dist:.2e}), value within {abs(doc['value'] - at_true) / at_true:.1%} "
        f"of the true-angle objective, {elapsed:.0f}s < 600s, SVG emitted"
    )


def test_criterion_9_transform_idempotence():
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    for _ in range(100):
        N, M = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        C = rng.uniform(-10.0, 10.0, size=(N, M))
        psi = rng.normal(size=M) * rng.uniform(0.5, 3.0)
        phi = cbar_transform(psi, C)
        phi3 = cbar_transform(c_transform(phi, C), C)
        dev = float(np.max(np.abs(phi3 - phi)))
        assert dev <= 1e-12
        worst = max(worst, dev)
    print(f"PASS criterion 9: cbar-c-cbar idempotence on 100 pairs (worst {worst:.2e})")


def test_criterion_10_out_of_scope_surface():
    # entropic smoothing, continuous-measure solvers, and rate analyses are
    # deliberately absent from the public surface
    import wassalign

    for name in ("sinkhorn", "entropic", "sample_complexity"):
        assert not any(name in attr.lower() for attr in dir(wassalign))
    print(
        "PASS criterion 10: entropic/continuous/rate analyses are excluded by design; "
        "the discrete property suites above are the coverage"
    )
