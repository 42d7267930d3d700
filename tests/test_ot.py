import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wassalign.ot
from wassalign import tolerance
from wassalign.measures import (
    CostSpec,
    new_measure,
    pairwise_cost,
    rotation_grid,
    stiefel_validate,
    whiten,
)
from wassalign.lp import staircase
from wassalign.ot import (
    PotentialPair,
    TransportPlan,
    c_transform,
    c_transform_1d,
    cbar_transform,
    cbar_transform_1d,
    wasserstein,
    wasserstein_1d,
)
from wassalign.tolerance import MARGINAL_TOL

from test_lp import _is_spanning_tree


def test_trivial_singleton():
    res = wasserstein([1.0], [1.0], [[0.0]])
    assert res.value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.plan.matrix, [[1.0]])


def test_results_compare_by_identity():
    # results hold arrays, so == is identity and never asks an array for its truth value
    a = wasserstein([0.5, 0.5], [1.0], [[0.0], [1.0]])
    b = wasserstein([0.5, 0.5], [1.0], [[0.0], [1.0]])
    for x, y in ((a, b), (a.plan, b.plan), (a.potentials, b.potentials)):
        assert (x == y) is False
        assert (x == x) is True


def test_forced_split_plan():
    res = wasserstein([1.0], [0.5, 0.5], [[0.0, 1.0]])
    assert res.value == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(res.plan.matrix, [[0.5, 0.5]], atol=1e-9)


def test_matches_assignment_brute_force():
    # uniform 5x5: OT value equals the best of all 120 permutation matchings
    rng = np.random.default_rng(19)
    for _ in range(5):
        C = rng.uniform(0, 10, size=(5, 5))
        w = np.full(5, 0.2)
        res = wasserstein(w, w, C)
        oracle = min(
            sum(C[i, pi[i]] for i in range(5)) / 5.0
            for pi in itertools.permutations(range(5))
        )
        assert res.value == pytest.approx(oracle, abs=1e-9)


def test_plan_marginals_and_potentials():
    rng = np.random.default_rng(4)
    for _ in range(8):
        N, M = rng.integers(2, 9), rng.integers(2, 9)
        p = rng.dirichlet(np.ones(N))
        q = rng.dirichlet(np.ones(M))
        C = rng.uniform(0, 10, size=(N, M))
        res = wasserstein(p, q, C)
        res.plan.check_marginals(p, q)
        # the cells give the dense plan's sums and nnz, and a dense plan its cells back
        P = res.plan.matrix
        np.testing.assert_allclose(res.plan.row_sums(), P.sum(axis=1), rtol=0, atol=1e-15)
        np.testing.assert_allclose(res.plan.col_sums(), P.sum(axis=0), rtol=0, atol=1e-15)
        assert res.plan.nnz == np.count_nonzero(P > tolerance.PLAN_ZERO)
        dense = TransportPlan.from_matrix(P)
        np.testing.assert_array_equal(dense.matrix, P)
        assert dense.nnz == res.plan.nnz and dense.shape == (N, M)
        # dual feasibility and strong duality at the returned potentials
        assert res.potentials.feasibility_violation(C) <= 1e-8
        assert res.potentials.objective(p, q) == pytest.approx(res.value, abs=1e-7)


def test_plan_rejects_a_cell_outside_its_shape_and_negative_mass():
    with pytest.raises(ValueError):
        TransportPlan([0, 2], [0, 0], [0.5, 0.5], (2, 1))
    with pytest.raises(ValueError, match="negative"):
        TransportPlan([0, 1], [0, 0], [1.5, -0.5], (2, 1))
    with pytest.raises(ValueError, match="one length"):
        TransportPlan([0, 1], [0], [0.5, 0.5], (2, 1))


def test_warm_started_sequence_matches_cold_solves():
    # the per-entry LPs of an alignment: shared weights, one rotation per cost
    rng = np.random.default_rng(29)
    N, M = 9, 7
    x, z = rng.normal(size=(N, 2)), rng.normal(size=(M, 2))
    p, q = rng.dirichlet(np.ones(N)), rng.dirichlet(np.ones(M))
    spec = CostSpec.squared_euclidean()
    start = None
    for entry in rotation_grid(24):
        C = pairwise_cost(entry.apply(x), z, spec)
        cold = wasserstein(p, q, C)
        warm = wasserstein(p, q, C, start=start)
        assert warm.value == pytest.approx(cold.value, rel=1e-12)
        assert warm.plan.nnz <= N + M - 1  # a vertex: at most a spanning tree
        assert _is_spanning_tree(warm.plan.rows, warm.plan.cols, N, M)
        assert warm.plan.mass.min() >= 0.0
        warm.plan.check_marginals(p, q, tol=MARGINAL_TOL)
        assert warm.potentials.feasibility_violation(C) <= 1e-8
        assert warm.potentials.objective(p, q) == pytest.approx(warm.value, abs=1e-9)
        start = warm.basis


def test_start_from_other_weights_gives_the_cold_result():
    rng = np.random.default_rng(31)
    C = rng.uniform(0, 5, size=(6, 5))
    p = rng.dirichlet(np.ones(6))
    start = wasserstein(p, np.full(5, 0.2), C).basis
    q = np.array([0.8, 0.05, 0.05, 0.05, 0.05])
    cold, warm = wasserstein(p, q, C), wasserstein(p, q, C, start=start)
    assert warm.value == cold.value
    np.testing.assert_array_equal(warm.plan.matrix, cold.plan.matrix)
    np.testing.assert_array_equal(warm.potentials.psi, cold.potentials.psi)


def test_weak_duality_for_arbitrary_feasible_pair():
    rng = np.random.default_rng(6)
    C = rng.uniform(0, 5, size=(6, 7))
    p = rng.dirichlet(np.ones(6))
    q = rng.dirichlet(np.ones(7))
    value = wasserstein(p, q, C).value
    for _ in range(10):
        psi = rng.normal(size=7)
        phi = cbar_transform(psi, C)
        assert phi @ p + psi @ q <= value + 1e-8


# -- transforms ---------------------------------------------------------------


def test_cbar_zero_gives_row_minima():
    C = np.array([[1.0, 2.0], [4.0, 3.0]])
    np.testing.assert_array_equal(cbar_transform(np.zeros(2), C), [1.0, 3.0])


def test_c_zero_gives_column_minima():
    C = np.array([[1.0, 2.0], [4.0, 3.0]])
    np.testing.assert_array_equal(c_transform(np.zeros(2), C), [1.0, 2.0])


def test_cbar_shift_equivariance_exact():
    rng = np.random.default_rng(8)
    C = rng.normal(size=(5, 6))
    psi = rng.normal(size=6)
    s = 0.75  # power of two times 3: exact in floating point
    np.testing.assert_array_equal(cbar_transform(psi + s, C), cbar_transform(psi, C) - s)


def test_transform_pair_is_dual_feasible():
    rng = np.random.default_rng(10)
    C = rng.normal(size=(6, 5))
    psi = rng.normal(size=5)
    phi = cbar_transform(psi, C)
    assert np.max(phi[:, None] + psi[None, :] - C) <= 1e-12


def test_symmetric_cost_transforms_agree():
    rng = np.random.default_rng(13)
    C = rng.normal(size=(5, 5))
    C = C + C.T
    v = rng.normal(size=5)
    np.testing.assert_allclose(cbar_transform(v, C), c_transform(v, C.T), atol=1e-15)


def test_triple_transform_idempotence():
    rng = np.random.default_rng(14)
    for _ in range(25):
        C = rng.uniform(-5, 5, size=(6, 6))
        psi = rng.normal(size=6)
        phi = cbar_transform(psi, C)
        phi3 = cbar_transform(c_transform(phi, C), C)
        np.testing.assert_allclose(phi3, phi, atol=1e-12)


def _weights_off_by(rng, N, M, excess):
    """Uniform weights with p[0] raised by excess, points in the plane and
    their sq-euclidean cost matrix."""
    p, q = np.full(N, 1.0 / N), np.full(M, 1.0 / M)
    p[0] += excess
    y, z = rng.normal(size=(N, 2)), rng.normal(size=(M, 2))
    return p, q, y, z, pairwise_cost(y, z, CostSpec.squared_euclidean())


def test_weights_within_the_sum_tolerance_are_renormalized():
    # 5e-10 over 1 is accepted (WEIGHT_SUM_TOL is 1e-9), and far above the
    # threshold of REL * max weight on the difference of the totals:
    # unnormalized it reads as infeasible
    rng = np.random.default_rng(30)
    p, q, y, z, C = _weights_off_by(rng, 30, 20, 5e-10)
    res = wasserstein(p, q, C)
    normalized = wasserstein(p / p.sum(), q, C)
    assert res.value == normalized.value
    res.plan.check_marginals(p / p.sum(), q)
    # the same weights on the line, where the cost is |y - z|^2
    C1 = (y[:, :1] - z[:, 0]) ** 2
    res_1d = wasserstein_1d(y[:, 0], p, z[:, 0], q)
    assert res_1d.value == pytest.approx(wasserstein(p / p.sum(), q, C1).value, rel=1e-9)
    assert res_1d.value == wasserstein_1d(y[:, 0], p / p.sum(), z[:, 0], q).value


def test_weights_far_from_summing_to_one_are_rejected_by_both_solvers():
    rng = np.random.default_rng(31)
    p, q, y, z, C = _weights_off_by(rng, 6, 5, 0.0)
    for bad in (0.5 * p, np.append(p[:-1], np.nan)):
        with pytest.raises(ValueError, match="p is not a probability vector"):
            wasserstein(bad, q, C)
        with pytest.raises(ValueError, match="p is not a probability vector"):
            wasserstein_1d(y[:, 0], bad, z[:, 0], q)


# -- 1-d solver ---------------------------------------------------------------


@pytest.mark.parametrize("power", [1.0, 1.5, 2.0, 3.0])
def test_1d_matches_lp(power):
    rng = np.random.default_rng(int(power * 10))
    for _ in range(6):
        N, M = rng.integers(2, 10), rng.integers(2, 10)
        y = rng.normal(size=N)
        z = rng.normal(size=M)
        p = rng.dirichlet(np.ones(N))
        q = rng.dirichlet(np.ones(M))
        C = np.abs(y[:, None] - z[None, :]) ** power
        lp_res = wasserstein(p, q, C)
        fast = wasserstein_1d(y, p, z, q, power=power)
        assert fast.value == pytest.approx(lp_res.value, abs=1e-9)
        fast.plan.check_marginals(p, q)
        assert fast.potentials.feasibility_violation(C) <= 1e-9
        assert fast.potentials.objective(p, q) == pytest.approx(fast.value, abs=1e-9)


def test_1d_uniform_equal_sizes_is_sorted_matching():
    rng = np.random.default_rng(25)
    y = rng.normal(size=40)
    z = rng.normal(size=40)
    w = np.full(40, 1.0 / 40)
    res = wasserstein_1d(y, w, z, w, power=2.0)
    expected = float(np.mean((np.sort(y) - np.sort(z)) ** 2))
    assert res.value == pytest.approx(expected, abs=1e-12)


def test_1d_zero_weights_match_lp():
    # weights are nonnegative as for the transport LP: about 30% of the
    # atoms carry no mass, and negative weights are still rejected
    rng = np.random.default_rng(26)
    for power in np.repeat([1.0, 1.5, 2.0, 3.0], 6):
        N, M = rng.integers(2, 10), rng.integers(2, 10)
        y = rng.normal(size=N)
        z = rng.normal(size=M)
        p = rng.dirichlet(np.ones(N)) * (rng.uniform(size=N) > 0.3)
        q = rng.dirichlet(np.ones(M)) * (rng.uniform(size=M) > 0.3)
        p[rng.integers(N)] += 1.0 - p.sum()
        q[rng.integers(M)] += 1.0 - q.sum()
        C = np.abs(y[:, None] - z[None, :]) ** power
        lp_res = wasserstein(p, q, C)
        fast = wasserstein_1d(y, p, z, q, power=power)
        assert fast.value == pytest.approx(lp_res.value, abs=1e-9)
        fast.plan.check_marginals(p, q)
        assert fast.potentials.feasibility_violation(C) <= 1e-9
        assert fast.potentials.objective(p, q) == pytest.approx(fast.value, abs=1e-9)
    with pytest.raises(ValueError):
        wasserstein_1d([0.0, 1.0], [1.5, -0.5], [0.0], [1.0])


def test_1d_nan_point_fails_verification():
    # a NaN coordinate would make the duality gap NaN: the point is refused
    # as input, as a non-finite cost is by `wasserstein`
    with pytest.raises(ValueError, match="non-finite point"):
        wasserstein_1d([0.0, np.nan], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5])


@pytest.mark.parametrize("y, z", [([0.0, np.inf], [0.0, 1.0]), ([0.0, 1.0], [-np.inf, 1.0])])
def test_1d_infinite_point_fails_verification(y, z):
    with pytest.raises(ValueError, match="non-finite point"):
        wasserstein_1d(y, [0.5, 0.5], z, [0.5, 0.5])


def test_1d_overflowing_cost_is_refused():
    # |y - z|^2 of 1e160-sized points overflows; the gap check would see NaN.
    # The refusal is the report: numpy's overflow warning is not passed on
    rng = np.random.default_rng(22)
    y, z = rng.normal(size=8) * 1e160, rng.normal(size=6) * 1e160
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="non-finite cost"):
            wasserstein_1d(y, np.full(8, 1 / 8), z, np.full(6, 1 / 6))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _line_instance(rng, N, M, kind, scale):
    """N source and M target points on the line, at the given scale."""
    if kind == "grid":  # duplicate points and equal costs
        y = rng.integers(-3, 4, size=N) * scale
        z = rng.integers(-3, 4, size=M) * scale
    else:
        y, z = rng.normal(size=N) * scale, rng.normal(size=M) * scale
    return y.astype(float), z.astype(float)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 14),
    M=st.integers(1, 14),
    power=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    log_scale=st.floats(-4.0, 5.0),
    kind=st.sampled_from(["normal", "grid"]),
    psi_kind=st.sampled_from(["random", "coarse", "optimal"]),
)
@example(seed=0, N=1, M=1, power=2.0, log_scale=0.0, kind="normal", psi_kind="random")
@example(seed=1, N=1, M=9, power=1.0, log_scale=-4.0, kind="grid", psi_kind="optimal")
@example(seed=2, N=9, M=1, power=3.0, log_scale=5.0, kind="grid", psi_kind="coarse")
def test_line_transforms_match_the_dense_transforms(seed, N, M, power, log_scale, kind, psi_kind):
    rng = np.random.default_rng(seed)
    y, z = _line_instance(rng, N, M, kind, 10.0**log_scale)
    C = np.abs(y[:, None] - z[None, :]) ** power
    largest = float(C.max())
    if psi_kind == "optimal":  # potentials of an OT solve with zero-weight atoms
        p = rng.dirichlet(np.ones(N)) * (rng.uniform(size=N) > 0.3)
        q = rng.dirichlet(np.ones(M)) * (rng.uniform(size=M) > 0.3)
        p[rng.integers(N)] += 1.0 - p.sum()
        q[rng.integers(M)] += 1.0 - q.sum()
        pair = wasserstein_1d(y, p, z, q, power=power).potentials
        psi = pair.psi
        # the solver's own phi, from the staircase's windows or the fallback
        assert np.max(np.abs(pair.phi - cbar_transform(psi, C))) <= tolerance.of(largest)
    else:
        psi = rng.uniform(-1.0, 1.0, size=M) * largest
        if psi_kind == "coarse":  # few distinct values: ties among the row minima
            psi = np.round(4.0 * psi / max(largest, 1e-300)) * largest / 4.0
    tol = tolerance.of(largest)
    phi = cbar_transform_1d(psi, y, z, power)
    assert np.max(np.abs(phi - cbar_transform(psi, C))) <= tol
    assert np.max(np.abs(c_transform_1d(phi, y, z, power) - c_transform(phi, C))) <= tol


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 14),
    M=st.integers(1, 14),
    power=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    kind=st.sampled_from(["normal", "grid"]),
    psi_kind=st.sampled_from(["random", "other", "perturbed"]),
)
def test_staircase_windows_give_row_minima_or_nothing(seed, N, M, power, kind, psi_kind):
    # a staircase with a psi that is not its potential: the windows either
    # refuse to certify themselves or hold the dense row minima
    rng = np.random.default_rng(seed)
    y, z = (np.sort(v) for v in _line_instance(rng, N, M, kind, 1.0))
    C = np.abs(y[:, None] - z[None, :]) ** power
    largest = float(C.max())
    ii, jj, _ = staircase(rng.dirichlet(np.ones(N)), rng.dirichlet(np.ones(M)))
    if psi_kind == "random":
        psi = rng.uniform(-1.0, 1.0, size=M) * largest
    else:  # the potential of another staircase, or this one's moved a little
        if psi_kind == "other":
            ii2, jj2, _ = staircase(rng.dirichlet(np.ones(N)), rng.dirichlet(np.ones(M)))
        else:
            ii2, jj2 = ii, jj
        psi = wassalign.ot._propagate_psi(C[ii2, jj2], ii2)
        if psi_kind == "perturbed":
            psi = psi + rng.normal(size=M) * largest * 10.0 ** rng.uniform(-6, 0)
    phi = wassalign.ot._staircase_row_min(y, z, psi, power, ii, jj)
    if phi is not None:
        assert np.max(np.abs(phi - cbar_transform(psi, C))) <= tolerance.of(largest, psi)


@pytest.mark.parametrize("power", [1.5, 2.0, 3.0])
def test_tie_free_line_takes_the_windows_on_every_solve(monkeypatch, power):
    # supports with no tied points at power > 1: the staircase's windows
    # certify every solve, so the divide and conquer never runs
    calls = []
    row_min = wassalign.ot._monge_row_min

    def counted(*args):
        calls.append(args)
        return row_min(*args)

    monkeypatch.setattr(wassalign.ot, "_monge_row_min", counted)
    rng = np.random.default_rng(int(power * 10))
    uniform = np.full(300, 1 / 300)
    for p, q in ((uniform, uniform), (rng.dirichlet(np.ones(300)), rng.dirichlet(np.ones(300)))):
        y, z = rng.normal(size=300), rng.normal(size=300)
        res = wasserstein_1d(y, p, z, q, power=power)
        C = np.abs(y[:, None] - z[None, :]) ** power
        assert res.potentials.objective(p, q) == pytest.approx(res.value, rel=1e-12)
        assert res.potentials.feasibility_violation(C) <= tolerance.of(C)
    assert calls == []


# -- metric and stability properties -----------------------------------------


def test_w2_triangle_inequality():
    rng = np.random.default_rng(21)
    spec = CostSpec.squared_euclidean()

    def w2(a, b, wa, wb):
        return np.sqrt(wasserstein(wa, wb, pairwise_cost(a, b, spec)).value)

    for _ in range(5):
        sizes = rng.integers(4, 9, size=3)
        pts = [rng.normal(size=(n, 2)) for n in sizes]
        ws = [np.full(n, 1.0 / n) for n in sizes]
        d01 = w2(pts[0], pts[1], ws[0], ws[1])
        d12 = w2(pts[1], pts[2], ws[1], ws[2])
        d02 = w2(pts[0], pts[2], ws[0], ws[2])
        assert d02 <= d01 + d12 + 1e-7


def _random_stiefel(rng, n, d):
    A, _ = np.linalg.qr(rng.normal(size=(n, d)))
    return A[:, :d]


def test_projection_stability_bound():
    # |W2(A# mu, nu) - W2(A'# mu', nu')| <= sqrt(E||X||^2) ||A - A'|| + W2(mu, mu') + W2(nu, nu')
    rng = np.random.default_rng(22)
    spec = CostSpec.squared_euclidean()
    for _ in range(6):
        mu = whiten(new_measure(rng.normal(size=(9, 3))))
        mu2 = whiten(new_measure(rng.normal(size=(8, 3))))
        nu = new_measure(rng.normal(size=(7, 2)))
        nu2 = new_measure(rng.normal(size=(6, 2)))
        A, A2 = _random_stiefel(rng, 3, 2), _random_stiefel(rng, 3, 2)
        assert stiefel_validate(A) and stiefel_validate(A2)

        def w2(Y, wy, Z, wz):
            return np.sqrt(wasserstein(wy, wz, pairwise_cost(Y, Z, spec)).value)

        lhs = abs(
            w2(mu.points @ A, mu.weights, nu.points, nu.weights)
            - w2(mu2.points @ A2, mu2.weights, nu2.points, nu2.weights)
        )
        c = np.sqrt(mu.second_moment())
        rhs = (
            c * np.linalg.norm(A - A2)
            + w2(mu.points, mu.weights, mu2.points, mu2.weights)
            + w2(nu.points, nu.weights, nu2.points, nu2.weights)
        )
        assert lhs <= rhs + 1e-7
