import tracemalloc

import numpy as np
import pytest

import wassalign.alignment
from wassalign import tolerance
from wassalign.alignment import align, identity_residuals
from wassalign.crosscheck import (
    CostTensor,
    brute_force,
    build_cost_tensor,
    compute_J_psi,
    extract_theta,
    feasibility_violation,
    gap_certificate,
    mean_consistency_violation,
    solve_dual,
    solve_relaxed_primal,
)
from wassalign.measures import (
    CostSpec,
    FamilyEntry,
    TransformFamily,
    new_measure,
    pushforward,
    rotation_grid,
    rotation_grid_angles,
    whiten,
)


def random_instance(rng, N=None, M=None, l=None, penalties=True):
    """Random cost tensor with weights, in the acceptance-criterion style."""
    N = N or int(rng.integers(4, 10))
    M = M or int(rng.integers(4, 10))
    l = l or int(rng.integers(2, 6))
    values = rng.uniform(0.0, 10.0, size=(N, M, l))
    R = rng.uniform(0.0, 1.0, size=l) if penalties else np.zeros(l)
    p = rng.dirichlet(np.ones(N))
    q = rng.dirichlet(np.ones(M))
    mu = new_measure(rng.normal(size=(N, 2)), weights=p)
    nu = new_measure(rng.normal(size=(M, 2)), weights=q)
    return mu, nu, CostTensor(values, R)


def random_affine_instance(rng):
    """Random weighted clouds in the plane and a random affine family with
    random penalties, for `align`."""
    N, M, l = (int(rng.integers(4, 10)) for _ in range(3))
    mu = new_measure(rng.normal(size=(N, 2)), weights=rng.dirichlet(np.ones(N)))
    nu = new_measure(rng.normal(size=(M, 2)), weights=rng.dirichlet(np.ones(M)))
    entries = (
        FamilyEntry(f"a{k}", rng.normal(size=(2, 2)), rng.normal(size=2), rng.uniform(0.0, 1.0))
        for k in range(l)
    )
    return mu, nu, TransformFamily(tuple(entries))


def identity_family(dim):
    return TransformFamily((FamilyEntry("id", np.eye(dim), np.zeros(dim)),))


def test_identity_family_same_measure_value_zero():
    rng = np.random.default_rng(0)
    mu = new_measure(rng.normal(size=(6, 2)))
    ct = build_cost_tensor(mu, mu, identity_family(2), CostSpec.squared_euclidean())
    dual = solve_dual(mu, mu, ct)
    assert dual.value == pytest.approx(0.0, abs=1e-8)
    assert feasibility_violation(dual, ct) <= 1e-8
    assert mean_consistency_violation(dual, mu.weights, mu.weights) <= 1e-8


def test_target_splitting_counterexample_is_solved_tightly():
    # one source atom, two target atoms, two maps: a single target potential
    # would let the two atoms ride different maps (value 0.05); the true
    # alignment value is 0.5 and the solver must reach it
    mu = new_measure([(0.0,)], weights=[1.0])
    nu = new_measure([(0.0,), (1.0,)])
    values = np.array([[[0.0, 1.0], [1.0, 0.1]]])  # (N=1, M=2, l=2)
    ct = CostTensor(values, np.zeros(2))
    bf = brute_force(mu, nu, ct)
    assert bf.value == pytest.approx(0.5)
    dual = solve_dual(mu, nu, ct)
    assert dual.value == pytest.approx(0.5, abs=1e-9)
    rp = solve_relaxed_primal(mu, nu, ct)
    assert rp.value == pytest.approx(0.5, abs=1e-9)
    extraction = extract_theta(dual, ct, mu.weights)
    assert extraction.k_star[0] == 0


def test_exact_rotation_match_gives_zero():
    mu = new_measure([(1.0, 0.0), (-1.0, 0.0)])
    nu = new_measure([(1.0,), (-1.0,)])
    entries = []
    for theta in rotation_grid_angles(4):
        # rotate by theta, then project to the first coordinate
        entries.append(
            FamilyEntry(
                f"theta={theta:.10f}",
                np.array([[np.cos(theta), -np.sin(theta)]]),
                np.zeros(1),
            )
        )
    fam = TransformFamily(tuple(entries))
    ct = build_cost_tensor(mu, nu, fam, CostSpec.squared_euclidean())
    dual = solve_dual(mu, nu, ct)
    assert dual.value == pytest.approx(0.0, abs=1e-9)
    extraction = extract_theta(dual, ct, mu.weights)
    assert 0 in extraction.k_star


def test_dual_agrees_with_brute_force_and_relaxed_primal():
    rng = np.random.default_rng(77)
    for _ in range(8):
        mu, nu, ct = random_instance(rng)
        dual = solve_dual(mu, nu, ct)
        bf = brute_force(mu, nu, ct)
        rp = solve_relaxed_primal(mu, nu, ct)
        assert dual.value == pytest.approx(bf.value, abs=1e-7)
        assert rp.value == pytest.approx(bf.value, abs=1e-7)
        assert feasibility_violation(dual, ct) <= 1e-8
        assert mean_consistency_violation(dual, mu.weights, nu.weights) <= 1e-8


def test_assembled_dual_matches_joint_lp():
    # align's dual, assembled from per-entry OT potentials, against the joint
    # LP on the dense tensor of the same penalized affine instance
    rng = np.random.default_rng(78)
    spec = CostSpec.squared_euclidean()
    for _ in range(8):
        mu, nu, fam = random_affine_instance(rng)
        ct = build_cost_tensor(mu, nu, fam, spec)
        d_lp = solve_dual(mu, nu, ct)
        d_cert = align(mu, nu, fam, spec).dual
        assert d_cert.value == pytest.approx(d_lp.value, abs=1e-7)
        assert feasibility_violation(d_cert, ct) <= 1e-8
        assert mean_consistency_violation(d_cert, mu.weights, nu.weights) <= 1e-8


def test_extract_theta_single_entry():
    rng = np.random.default_rng(2)
    mu, nu, ct = random_instance(rng, l=1)
    dual = solve_dual(mu, nu, ct)
    extraction = extract_theta(dual, ct, mu.weights)
    assert extraction.k_star == [0]
    assert extraction.witness_k == 0


def test_extract_theta_consistency_and_witness():
    rng = np.random.default_rng(3)
    for _ in range(8):
        mu, nu, ct = random_instance(rng)
        dual = solve_dual(mu, nu, ct)
        extraction = extract_theta(dual, ct, mu.weights)
        bf = brute_force(mu, nu, ct)
        # the dual argmin intersects the brute-force argmin
        assert set(extraction.k_star) & set(bf.k_star)
        # some extracted entry attains the alignment value
        assert min(bf.per_theta[k] for k in extraction.k_star) == pytest.approx(
            dual.value, abs=1e-7
        )
        assert extraction.witness_k is not None
        assert extraction.witness_gap <= 1e-6


def test_brute_force_penalty_shift_monotonicity():
    rng = np.random.default_rng(4)
    mu, nu, ct = random_instance(rng)
    lam = 0.375
    shifted = CostTensor(ct.values, ct.penalties + lam)
    b0 = brute_force(mu, nu, ct)
    b1 = brute_force(mu, nu, shifted)
    assert b1.value == pytest.approx(b0.value + lam, abs=1e-10)
    assert b1.k_star == b0.k_star


def test_objective_shift_equivariance():
    rng = np.random.default_rng(5)
    mu, nu, ct = random_instance(rng)
    s = 2.5
    shifted = CostTensor(ct.values + s, ct.penalties)
    d0 = solve_dual(mu, nu, ct)
    d1 = solve_dual(mu, nu, shifted)
    assert d1.value == pytest.approx(d0.value + s, abs=1e-8)
    # align's assembled dual yields shift-stable argmin sets; a common
    # penalty shift moves every folded cost by s
    mu, nu, fam = random_affine_instance(rng)
    fam_s = TransformFamily(
        tuple(FamilyEntry(e.label, e.matrix, e.offset, e.penalty + s) for e in fam)
    )
    spec = CostSpec.squared_euclidean()
    ct, ct_s = build_cost_tensor(mu, nu, fam, spec), build_cost_tensor(mu, nu, fam_s, spec)
    c0, c1 = align(mu, nu, fam, spec).dual, align(mu, nu, fam_s, spec).dual
    assert c0.value == pytest.approx(solve_dual(mu, nu, ct).value, abs=1e-8)
    assert c1.value == pytest.approx(solve_dual(mu, nu, ct_s).value, abs=1e-8)
    e0 = extract_theta(c0, ct, mu.weights)
    e1 = extract_theta(c1, ct_s, mu.weights)
    assert e0.k_star == e1.k_star


def test_psi_shift_invariance_of_dual_objective():
    rng = np.random.default_rng(6)
    mu, nu, ct = random_instance(rng)
    dual = solve_dual(mu, nu, ct)
    s = 1.25
    shifted_obj = mu.weights @ (dual.xi[:, 0] - s) + (dual.psi[:, 0] + s) @ nu.weights
    assert shifted_obj == pytest.approx(dual.value, abs=1e-9)
    # the shifted pair stays feasible: (xi - s) + (psi + s) is unchanged
    folded = ct.folded()
    worst = max(
        float(
            (
                (dual.xi[:, k] - s)[:, None]
                + (dual.psi[:, k] + s)[None, :]
                - folded[:, :, k]
            ).max()
        )
        for k in range(ct.shape[2])
    )
    assert worst <= 1e-8


def test_J_psi_constant_cost():
    values = np.full((3, 4, 2), 7.0)
    R = np.array([0.25, 1.0])
    ct = CostTensor(values, R)
    p = np.array([0.2, 0.3, 0.5])
    J = compute_J_psi(np.zeros(4), ct, p)
    means = p @ J
    np.testing.assert_allclose(means, means[0], atol=1e-12)


def test_J_psi_feasible_and_mean_consistent_for_random_psi():
    rng = np.random.default_rng(8)
    mu, nu, ct = random_instance(rng)
    folded = ct.folded()
    for _ in range(5):
        psi = rng.normal(size=nu.size)
        J = compute_J_psi(psi, ct, mu.weights)
        worst = max(
            float((J[:, k][:, None] + psi[None, :] - folded[:, :, k]).max())
            for k in range(ct.shape[2])
        )
        assert worst <= 1e-10
        means = mu.weights @ J
        np.testing.assert_allclose(means, means[0], atol=1e-10)


def test_J_psi_lift_never_exceeds_value_and_is_tight_without_splitting():
    rng = np.random.default_rng(9)
    for _ in range(5):
        mu, nu, ct = random_instance(rng)
        dual = solve_dual(mu, nu, ct)
        for k in range(ct.shape[2]):
            psi = dual.psi[:, k]
            J = compute_J_psi(psi, ct, mu.weights)
            obj = mu.weights @ J[:, 0] + psi @ nu.weights
            assert obj <= dual.value + 1e-7
    # with a single family entry the lift attains the value exactly
    mu, nu, ct = random_instance(rng, l=1)
    dual = solve_dual(mu, nu, ct)
    J = compute_J_psi(dual.psi[:, 0], ct, mu.weights)
    obj = mu.weights @ J[:, 0] + dual.psi[:, 0] @ nu.weights
    assert obj == pytest.approx(dual.value, abs=1e-7)


def test_relaxed_primal_zero_on_pushforward_target():
    rng = np.random.default_rng(10)
    mu = new_measure(rng.normal(size=(5, 2)))
    fam = identity_family(2)
    nu = pushforward(mu, fam[0])
    ct = build_cost_tensor(mu, nu, fam, CostSpec.squared_euclidean())
    rp = solve_relaxed_primal(mu, nu, ct)
    assert rp.value == pytest.approx(0.0, abs=1e-9)


def test_relaxed_primal_vertex_theta_marginal_is_point_mass():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(6):
        mu, nu, ct = random_instance(rng)
        rp = solve_relaxed_primal(mu, nu, ct)
        r = rp.theta_marginal()
        if np.max(r) >= 1.0 - 1e-7:
            hits += 1
        np.testing.assert_allclose(r.sum(), 1.0, atol=1e-8)
    # random costs make the optimal entry unique almost surely
    assert hits == 6


def test_gap_certificate_at_optimum_and_random_entries():
    rng = np.random.default_rng(12)
    for _ in range(6):
        mu, nu, ct = random_instance(rng)
        dual = solve_dual(mu, nu, ct)
        bf = brute_force(mu, nu, ct)
        cert = gap_certificate(bf.k_star[0], mu, nu, ct, dual.value)
        assert cert.delta == pytest.approx(0.0, abs=1e-7)
        assert cert.g == pytest.approx(cert.rhs, abs=1e-6)
        for k0 in rng.integers(0, ct.shape[2], size=3):
            cert = gap_certificate(int(k0), mu, nu, ct, dual.value)
            assert cert.identity_residual <= 1e-6
            assert cert.delta >= -1e-8
            assert cert.g >= -1e-8


def _penalized_line_instance(rng):
    """Weighted planar cloud, l projections onto the line with random
    penalties, and a weighted sample on the line: the quantile route."""
    N, M, l = (int(rng.integers(4, 10)) for _ in range(3))
    mu = new_measure(rng.normal(size=(N, 2)), weights=rng.dirichlet(np.ones(N)))
    nu = new_measure(rng.normal(size=(M, 1)), weights=rng.dirichlet(np.ones(M)))
    entries = tuple(
        FamilyEntry(f"t{k}", np.array([[np.cos(t), np.sin(t)]]), np.zeros(1), rng.uniform(0.0, 1.0))
        for k, t in enumerate(rotation_grid_angles(l))
    )
    return mu, nu, TransformFamily(entries)


def test_identity_residuals_match_the_tensor_certificates():
    # every entry of the affine (transport-LP) and line (quantile) corpora,
    # with the instance scaled by s: points and offsets by s, penalties by
    # s^2 as the sq-euclidean costs
    rng = np.random.default_rng(22)
    spec = CostSpec.squared_euclidean()
    for make in (random_affine_instance, _penalized_line_instance):
        for _ in range(3):
            mu0, nu0, fam0 = make(rng)
            for s in (1.0, 1e-4, 1e5):
                mu = new_measure(mu0.points * s, weights=mu0.weights)
                nu = new_measure(nu0.points * s, weights=nu0.weights)
                fam = TransformFamily(tuple(
                    FamilyEntry(e.label, e.matrix, e.offset * s, e.penalty * s**2) for e in fam0
                ))
                report = align(mu, nu, fam, spec)
                residuals = identity_residuals(report, mu, nu, fam, spec)
                ct = build_cost_tensor(mu, nu, fam, spec)
                size = np.max(np.abs(ct.values).max(axis=(0, 1)) + np.abs(ct.penalties))
                bound = tolerance.of(size)
                assert residuals.shape == (len(fam),)
                for k in range(len(fam)):
                    tensor = gap_certificate(k, mu, nu, ct, report.value).identity_residual
                    assert abs(residuals[k] - tensor) <= bound
                    assert residuals[k] <= bound and tensor <= bound


def test_value_continuity_under_point_perturbation():
    # perturbing every source point by eps in sup norm moves the squared
    # value by at most 2*sqrt(v)*delta + delta^2 with delta = eps*sqrt(dim)
    rng = np.random.default_rng(13)
    mu = whiten(new_measure(rng.normal(size=(9, 2))))
    nu = new_measure(rng.normal(size=(7, 2)))
    fam = rotation_grid(5)
    spec = CostSpec.squared_euclidean()
    ct = build_cost_tensor(mu, nu, fam, spec)
    v0 = solve_dual(mu, nu, ct).value
    for eps in (1e-3, 1e-2):
        bump = rng.uniform(-eps, eps, size=mu.points.shape)
        mu_eps = new_measure(mu.points + bump, weights=mu.weights)
        v1 = solve_dual(mu_eps, nu, build_cost_tensor(mu_eps, nu, fam, spec)).value
        delta = eps * np.sqrt(mu.dim)
        bound = 2.0 * np.sqrt(max(v0, v1)) * delta + delta**2
        assert abs(v1 - v0) <= bound + 1e-7


def test_align_report_invariants():
    rng = np.random.default_rng(14)
    mu = new_measure(rng.normal(size=(8, 2)))
    nu = new_measure(rng.normal(size=(6, 2)))
    fam = rotation_grid(6)
    report = align(mu, nu, fam, CostSpec.squared_euclidean())
    k = report.theta_star
    assert report.value == pytest.approx(
        report.i_curve[k] + report.dual.psi[:, k] @ nu.weights, abs=1e-7
    )
    assert np.min(report.gap_curve) >= -1e-8
    report.plan.check_marginals(mu.weights, nu.weights)
    assert report.theta_star_label.startswith("theta=")
    assert set(report.k_star) & {int(np.argmin(report.per_theta))}
    # the I-curve read off the full tensor is the report's, and the witness holds
    extraction = extract_theta(
        report.dual, build_cost_tensor(mu, nu, fam, CostSpec.squared_euclidean()), mu.weights
    )
    np.testing.assert_allclose(extraction.i_curve, report.i_curve, atol=1e-12)
    assert extraction.witness_k == k


def test_projected_1d_path_matches_tensor_path():
    # a line target takes the quantile route; the brute force and the joint
    # dual LP on the dense tensor of the same instance must agree with it
    rng = np.random.default_rng(15)
    mu = new_measure(rng.normal(size=(12, 2)))
    nu = new_measure(rng.normal(size=(9, 1)))
    entries = tuple(
        FamilyEntry(
            f"theta={t:.10f}", np.array([[np.cos(t), np.sin(t)]]), np.zeros(1)
        )
        for t in rotation_grid_angles(8)
    )
    fam = TransformFamily(entries)
    spec = CostSpec.squared_euclidean()
    ct = build_cost_tensor(mu, nu, fam, spec)
    rep = align(mu, nu, fam, spec)
    bf = brute_force(mu, nu, ct)
    d_lp = solve_dual(mu, nu, ct)
    assert rep.value == pytest.approx(bf.value, abs=1e-9)
    assert rep.value == pytest.approx(d_lp.value, abs=1e-9)
    assert rep.theta_star == bf.k_star[0]
    np.testing.assert_allclose(rep.per_theta, bf.per_theta, atol=1e-9)
    # both duals satisfy the report identity at the optimizer
    k = rep.theta_star
    assert rep.value == pytest.approx(
        rep.i_curve[k] + rep.dual.psi[:, k] @ nu.weights, abs=1e-7
    )
    i_curve_lp = extract_theta(d_lp, ct, mu.weights).i_curve
    assert d_lp.value == pytest.approx(i_curve_lp[k] + d_lp.psi[:, k] @ nu.weights, abs=1e-7)
    assert feasibility_violation(rep.dual, ct) <= 1e-8
    assert feasibility_violation(d_lp, ct) <= 1e-8


def _count_transforms(monkeypatch, names):
    """Wrap the named transforms of `alignment`; returns the list of calls, by name."""
    calls = []
    for name in names:
        transform = getattr(wassalign.alignment, name)

        def counted(*args, _transform=transform, _name=name, **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(wassalign.alignment, name, counted)
    return calls


def test_align_solves_each_entry_once(monkeypatch):
    rng = np.random.default_rng(16)
    mu = new_measure(rng.normal(size=(7, 2)))
    nu = new_measure(rng.normal(size=(5, 2)))
    fam = rotation_grid(6)
    spec = CostSpec.squared_euclidean()
    calls = []
    solve = wassalign.alignment.wasserstein

    def counted(p, q, C, start=None):
        res = solve(p, q, C, start=start)
        calls.append((np.array(C), res))
        return res

    monkeypatch.setattr(wassalign.alignment, "wasserstein", counted)
    transforms = _count_transforms(monkeypatch, ("cbar_transform", "c_transform", "pairwise_cost"))
    report = align(mu, nu, fam, spec)
    assert len(calls) == len(fam)
    # one cost matrix per solve, one more for the witness's cbar-transform,
    # and no c-transform: the dual is the solves'
    assert transforms.count("pairwise_cost") == len(fam) + 1
    assert transforms.count("cbar_transform") == 1
    assert transforms.count("c_transform") == 0
    k = report.theta_star
    C, res = calls[k]
    assert report.plan is res.plan
    assert report.potentials is res.potentials
    # the plan is the optimal basis: its cells and nothing else
    cells = sorted(zip(report.plan.rows.tolist(), report.plan.cols.tolist()))
    assert cells == sorted(divmod(int(b), nu.size) for b in res.basis)
    np.testing.assert_array_equal(report.plan.matrix.ravel()[res.basis], report.plan.mass)
    np.testing.assert_allclose(C, build_cost_tensor(mu, nu, fam, spec).slice(k), atol=1e-12)
    assert report.potentials.objective(mu.weights, nu.weights) == pytest.approx(
        report.per_theta[k] - fam.penalties[k], abs=1e-9
    )


def test_align_chains_each_entry_basis_into_the_next(monkeypatch):
    rng = np.random.default_rng(18)
    mu = new_measure(rng.normal(size=(6, 2)))
    nu = new_measure(rng.normal(size=(5, 2)))
    fam = rotation_grid(5)
    spec = CostSpec.squared_euclidean()
    starts, results = [], []
    solve = wassalign.alignment.wasserstein

    def recorded(p, q, C, start=None):
        res = solve(p, q, C, start=start)
        starts.append(start)
        results.append(res)
        return res

    monkeypatch.setattr(wassalign.alignment, "wasserstein", recorded)
    first = align(mu, nu, fam, spec)
    # the chain lives inside one call: a second align starts cold again
    second = align(mu, nu, fam, spec)
    for run in (0, 1):
        chain = slice(run * len(fam), (run + 1) * len(fam))
        s, r = starts[chain], results[chain]
        assert s[0] is None
        assert all(s[k] is r[k - 1].basis for k in range(1, len(fam)))
    np.testing.assert_array_equal(first.per_theta, second.per_theta)
    np.testing.assert_array_equal(first.plan.matrix, second.plan.matrix)


def test_entry_route_keeps_no_state(monkeypatch):
    # the warm start is the caller's argument: a solve without one starts
    # cold, whatever the route solved before
    rng = np.random.default_rng(23)
    mu = new_measure(rng.normal(size=(6, 2)))
    nu = new_measure(rng.normal(size=(5, 2)))
    starts = []
    solve_ot = wassalign.alignment.wasserstein

    def recorded(p, q, C, start=None):
        starts.append(start)
        return solve_ot(p, q, C, start=start)

    monkeypatch.setattr(wassalign.alignment, "wasserstein", recorded)
    solve, _ = wassalign.alignment._entry_solver(mu, nu, CostSpec.squared_euclidean())
    y = rotation_grid(4)[1].apply(mu.points)
    first = solve(y)
    solve(y)
    assert [start is None for start in starts] == [True, True]
    solve(y, first.basis)
    assert starts[2] is first.basis


def test_quantile_route_forms_no_cost_rows(monkeypatch):
    # a line target: the per-entry solves and the witness check all run on
    # the line, so no cost-matrix block is formed; the dense transforms and
    # pairwise costs are cut off to show it.  The dual is the solves': the
    # witness's cbar-transform is the one transform align makes
    rng = np.random.default_rng(19)
    mu = new_measure(rng.normal(size=(40, 2)))
    nu = new_measure(rng.normal(size=(30, 1)))
    entries = tuple(
        FamilyEntry(f"t{k}", np.array([[np.cos(t), np.sin(t)]]), np.zeros(1))
        for k, t in enumerate(rotation_grid_angles(12))
    )
    fam = TransformFamily(entries)
    spec = CostSpec.squared_euclidean()
    bf = brute_force(mu, nu, build_cost_tensor(mu, nu, fam, spec))

    def refuse(*args, **kwargs):
        raise AssertionError("a cost-matrix block was formed on the quantile route")

    for name in ("pairwise_cost", "cbar_transform", "c_transform"):
        monkeypatch.setattr(wassalign.alignment, name, refuse)
    transforms = _count_transforms(monkeypatch, ("cbar_transform_1d", "c_transform_1d"))
    solve, calls = wassalign.alignment.wasserstein_1d, []

    def counted(*args, **kwargs):
        calls.append(solve(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(wassalign.alignment, "wasserstein_1d", counted)
    rep = align(mu, nu, fam, spec)
    assert rep.value == pytest.approx(bf.value, abs=1e-9)
    assert rep.theta_star == bf.k_star[0]
    # one solve per entry; the optimizer's plan is its staircase's cells
    assert len(calls) == len(fam)
    assert rep.plan is calls[rep.theta_star].plan
    assert rep.plan.mass.size == mu.size + nu.size - 1
    assert transforms == ["cbar_transform_1d"]


def _planted_tie(mu, nu, fam, spec):
    """Entries 0 and 1 of fam, with penalties that put entry 0 a quarter of
    the tie tolerance above entry 1: both are optimal, and the optimizer,
    entry 0, is not the argmin of the per-entry values."""
    entries = [FamilyEntry(e.label, e.matrix, e.offset) for e in fam.entries[:2]]
    values = [align(mu, nu, TransformFamily((e,)), spec).value for e in entries]
    top = max(values)  # the folded costs' size is at least this
    penalties = (top - values[0] + tolerance.of(top) / 4, top - values[1])
    return TransformFamily(tuple(
        FamilyEntry(e.label, e.matrix, e.offset, r) for e, r in zip(entries, penalties)
    ))


@pytest.mark.parametrize(
    "route", [random_affine_instance, _penalized_line_instance], ids=["transport-lp", "quantile"]
)
def test_the_optimizer_column_of_the_dual_is_its_solve(route):
    # the dual's column at theta_star is the optimizer's own Kantorovich pair:
    # psi as solved, and xi = phi + R_k less the entry's distance to the
    # minimum, bit for bit, on penalized families and on a planted tie
    rng = np.random.default_rng(25)
    spec = CostSpec.squared_euclidean()
    instances = [route(rng) for _ in range(4)]
    mu, nu, fam = instances[0]
    instances.append((mu, nu, _planted_tie(mu, nu, fam, spec)))
    for mu, nu, fam in instances:
        rep = align(mu, nu, fam, spec)
        k = rep.theta_star
        assert k == rep.k_star[0]
        np.testing.assert_array_equal(rep.dual.psi[:, k], rep.potentials.psi)
        xi = rep.potentials.phi + fam.penalties[k] - (rep.per_theta[k] - rep.value)
        np.testing.assert_array_equal(rep.dual.xi[:, k], xi)
        ct = build_cost_tensor(mu, nu, fam, spec)
        assert feasibility_violation(rep.dual, ct) <= tolerance.of(ct.folded_size)
        assert mean_consistency_violation(rep.dual, mu.weights, nu.weights) <= 1e-8
    assert rep.k_star == [0, 1] and int(np.argmin(rep.per_theta)) == 1


def test_folded_costs_past_half_the_largest_double_are_refused():
    # a cost of 1e308 plus a penalty of 1.7e308, or penalties of +-1e308, fit
    # a double each, but not their sums and differences: refused at once, by
    # align and by the cost tensor of the cross-checks
    spec = CostSpec.squared_euclidean()
    nu = new_measure([(2.0, 0.0), (3.0, 0.0)])
    for far, penalties in ((1e154, (1.7e308, 1.7e308)), (1.0, (1e308, -1e308))):
        mu = new_measure([(0.0, 0.0), (far, 0.0)])
        fam = TransformFamily(tuple(
            FamilyEntry(f"id{k}", np.eye(2), np.zeros(2), r) for k, r in enumerate(penalties)
        ))
        with pytest.raises(ValueError, match="half the largest double"):
            align(mu, nu, fam, spec)
        with pytest.raises(ValueError, match="half the largest double"):
            build_cost_tensor(mu, nu, fam, spec)
    # at half the largest double the size is taken
    half = np.finfo(float).max / 2
    assert tolerance.folded_size([half / 2], [half / 2]) == half
    with pytest.raises(ValueError, match="half the largest double"):
        tolerance.folded_size([half], [half * 1e-15])


def test_quantile_route_holds_no_dense_plan():
    # at 1500 x 1500 one dense N x M array is 18 MB; the plan's cells are O(N + M)
    rng = np.random.default_rng(20)
    N = M = 1500
    mu = new_measure(rng.normal(size=(N, 2)))
    nu = new_measure(rng.normal(size=(M, 1)))
    entries = tuple(
        FamilyEntry(f"t{k}", np.array([[np.cos(t), np.sin(t)]]), np.zeros(1))
        for k, t in enumerate(rotation_grid_angles(8))
    )
    fam, spec = TransformFamily(entries), CostSpec.squared_euclidean()
    tracemalloc.start()
    try:
        rep = align(mu, nu, fam, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N * M * 8 / 4
    rep.plan.check_marginals(mu.weights, nu.weights)
