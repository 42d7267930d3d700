import numpy as np
import pytest

from wassalign.euclidean import barycentric_map, cross_correlation, updown_check
from wassalign.measures import CostSpec, new_measure, pairwise_cost, whiten
from wassalign.ot import TransportPlan, wasserstein


def _whitened(rng, n, dim):
    return whiten(new_measure(rng.normal(size=(n, dim))))


def _random_stiefel(rng, n, d):
    A, _ = np.linalg.qr(rng.normal(size=(n, d)))
    return A[:, :d]


def test_updown_square_case_no_gap():
    rng = np.random.default_rng(1)
    mu = _whitened(rng, 10, 2)
    nu = _whitened(rng, 8, 2)
    A = _random_stiefel(rng, 2, 2)
    chk = updown_check(mu, nu, A)
    assert chk.expected_gap == 0.0
    assert chk.residual <= 1e-9


def test_updown_constant_product_and_optimal_couplings():
    rng = np.random.default_rng(2)
    for _ in range(5):
        mu = _whitened(rng, 9, 3)
        nu = _whitened(rng, 7, 2)
        A = _random_stiefel(rng, 3, 2)
        product = updown_check(mu, nu, A)
        assert product.expected_gap == 1.0
        assert product.residual <= 1e-9
        C = pairwise_cost(mu.points @ A, nu.points, CostSpec.squared_euclidean())
        res = wasserstein(mu.weights, nu.weights, C)
        optimal = updown_check(mu, nu, A, gamma=res.plan)
        assert optimal.residual <= 1e-9
        # an arbitrary non-optimal coupling works as well
        mid = TransportPlan.from_matrix(
            0.5 * res.plan.matrix + 0.5 * np.outer(mu.weights, nu.weights)
        )
        assert updown_check(mu, nu, A, gamma=mid).residual <= 1e-9


def test_updown_rejects_bad_inputs():
    rng = np.random.default_rng(3)
    mu = _whitened(rng, 9, 3)
    nu = _whitened(rng, 7, 2)
    raw = new_measure(rng.normal(size=(9, 3)) + 5.0)
    A = _random_stiefel(rng, 3, 2)
    with pytest.raises(ValueError, match="not whitened"):
        updown_check(raw, nu, A)
    with pytest.raises(ValueError, match="orthonormal"):
        updown_check(mu, nu, np.ones((3, 2)))


def test_barycentric_identity_permutation():
    rng = np.random.default_rng(4)
    Y = rng.normal(size=(5, 2))
    plan = TransportPlan.from_matrix(np.eye(5) / 5.0)
    np.testing.assert_allclose(barycentric_map(plan, Y), Y, atol=1e-12)


def test_barycentric_product_plan_is_constant():
    rng = np.random.default_rng(5)
    Y = rng.normal(size=(6, 2))
    p = rng.dirichlet(np.ones(6))
    q = rng.dirichlet(np.ones(4))
    plan = TransportPlan.from_matrix(np.outer(p, q))
    out = barycentric_map(plan, Y)
    mean = p @ Y
    np.testing.assert_allclose(out, np.tile(mean, (4, 1)), atol=1e-12)


def test_barycentric_matches_hand_computation():
    P = np.array([[0.2, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.2]])
    plan = TransportPlan.from_matrix(P)
    Y = np.array([[1.0], [2.0], [3.0]])
    out = barycentric_map(plan, Y)
    col = plan.matrix.sum(axis=0)
    expected = np.array(
        [
            [(0.2 * 1 + 0.0 * 2 + 0.1 * 3) / col[0]],
            [(0.1 * 1 + 0.3 * 2 + 0.0 * 3) / col[1]],
            [(0.0 * 1 + 0.1 * 2 + 0.2 * 3) / col[2]],
        ]
    )
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_barycentric_zero_column_mass():
    plan = TransportPlan.from_matrix(np.array([[0.5, 0.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="zero column mass"):
        barycentric_map(plan, np.array([[1.0], [2.0]]))


def test_cross_correlation_defect_zero_in_one_dimension():
    rng = np.random.default_rng(6)
    nu = new_measure(rng.normal(size=(5, 1)))
    plan = TransportPlan.from_matrix(np.outer(np.full(4, 0.25), nu.weights))
    cc = cross_correlation(plan, nu, rng.normal(size=(4, 1)))
    assert cc.defect == 0.0


def test_cross_correlation_identity_transport_is_symmetric():
    rng = np.random.default_rng(7)
    nu = new_measure(rng.normal(size=(6, 2)))
    plan = TransportPlan.from_matrix(np.diag(nu.weights))
    cc = cross_correlation(plan, nu, nu.points)
    # Tbar(z_j) = z_j makes C the (symmetric) second-moment matrix
    assert cc.defect <= 1e-12


def test_cross_correlation_small_at_objective_minimizer():
    # sweep a one-parameter curve of 3->2 projections; the defect at the
    # curve's objective minimizer should be small compared to generic points
    rng = np.random.default_rng(8)
    mu = _whitened(rng, 26, 3)
    nu = _whitened(rng, 22, 2)
    spec = CostSpec.squared_euclidean()
    base = _random_stiefel(rng, 3, 3)

    def stiefel_at(t):
        c, s = np.cos(t), np.sin(t)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return (base @ rot)[:, :2]

    ts = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    values, defects = [], []
    for t in ts:
        A = stiefel_at(t)
        C = pairwise_cost(mu.points @ A, nu.points, spec)
        res = wasserstein(mu.weights, nu.weights, C)
        values.append(res.value)
        defects.append(cross_correlation(res.plan, nu, mu.points @ A).defect)
    values = np.array(values)
    defects = np.array(defects)
    k = int(np.argmin(values))
    others = np.delete(defects, k)
    assert defects[k] <= 5.0 * np.median(others)
