import warnings

import numpy as np
import pytest

from wassalign.crosscheck import build_cost_tensor
from wassalign.measures import (
    CostSpec,
    DegenerateSupportError,
    DiscreteMeasure,
    FamilyEntry,
    TransformFamily,
    igw_family,
    new_measure,
    pairwise_cost,
    pushforward,
    rotation_grid,
    rotation_grid_angles,
    stiefel_validate,
    whiten,
)
from wassalign.ot import wasserstein, wasserstein_1d


def test_uniform_default_weights():
    m = new_measure([(0.0, 0.0), (1.0, 1.0)])
    np.testing.assert_allclose(m.weights, [0.5, 0.5])


def test_singleton_measure():
    m = new_measure([(1.0,)], weights=[1.0])
    assert m.size == 1 and m.dim == 1


def test_weight_sum_deviation_rejected():
    with pytest.raises(ValueError, match="weight-sum"):
        new_measure([(0.0,), (1.0,)], weights=[0.7, 0.2])


WEIGHT_TAKERS = {
    "new_measure": lambda w: new_measure([(0.0,), (1.0,)], w),
    "DiscreteMeasure": lambda w: DiscreteMeasure(np.array([[0.0], [1.0]]), w),
    "wasserstein": lambda w: wasserstein(w, w, np.array([[0.0, 1.0], [1.0, 0.0]])),
    "wasserstein_1d": lambda w: wasserstein_1d([0.0, 1.0], w, [0.0, 1.0], w),
}


@pytest.mark.parametrize("take", WEIGHT_TAKERS.values(), ids=WEIGHT_TAKERS.keys())
def test_one_weight_sum_rule(take):
    # probability_vector admits every weight vector: a measure built directly
    # is held to the sum that new_measure and the solvers accept
    for off in (5e-10, -5e-10):
        take(np.array([0.5, 0.5 + off]))
    for off in (2e-9, -2e-9):
        w = np.array([0.5, 0.5 + off])
        with pytest.raises(ValueError, match="is not a probability vector: weight-sum ") as exc:
            take(w)
        assert "np.float64" not in str(exc.value)
        assert float(str(exc.value).rsplit(" ", 1)[1]) == w.sum()


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative"):
        new_measure([(0.0,), (1.0,)], weights=[1.5, -0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_rejected(bad):
    # a NaN sum passes no comparison, so the sum test must be written to fail it
    with pytest.raises(ValueError, match="weights is not a probability vector"):
        new_measure([[0.0, 0.0], [1.0, 0.0]], weights=[bad, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([bad, 0.5]))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        new_measure([[0.0, 1.0], [2.0]])


def test_small_weight_deviation_renormalized():
    m = new_measure([(0.0,), (1.0,)], weights=[0.5, 0.5 + 1e-10])
    assert abs(m.weights.sum() - 1.0) <= 1e-12


def test_empty_points_rejected():
    with pytest.raises(ValueError):
        new_measure([])


def test_points_are_immutable():
    m = new_measure([(0.0, 1.0), (2.0, 3.0)])
    with pytest.raises(ValueError):
        m.points[0, 0] = 5.0


# -- whitening ---------------------------------------------------------------


def test_whiten_one_dimensional_fixed_point():
    m = new_measure([(-1.0,), (1.0,)])
    w = whiten(m)
    np.testing.assert_allclose(w.points, m.points, atol=1e-12)


def test_whiten_postcondition_and_idempotence():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        pts = rng.normal(size=(12, dim)) @ rng.normal(size=(dim, dim)) + rng.normal(size=dim)
        m = new_measure(pts, weights=rng.dirichlet(np.ones(12)))
        w = whiten(m)
        np.testing.assert_allclose(w.mean(), np.zeros(dim), atol=1e-10)
        np.testing.assert_allclose(w.covariance(), np.eye(dim), atol=1e-10)
        w2 = whiten(w)
        np.testing.assert_allclose(w2.points, w.points, atol=1e-9)


def test_whiten_matches_closed_form_2x2_oracle():
    # explicit symmetric 2x2 eigendecomposition, independent of np.linalg.eigh
    pts = np.array([[0.3, -1.2], [1.7, 0.4], [-0.9, 0.8]])
    m = new_measure(pts)
    mean = pts.mean(axis=0)
    X = pts - mean
    a, b, c = (X[:, 0] @ X[:, 0]) / 3, (X[:, 0] @ X[:, 1]) / 3, (X[:, 1] @ X[:, 1]) / 3
    half_gap = np.sqrt(((a - c) / 2) ** 2 + b**2)
    lam1, lam2 = (a + c) / 2 + half_gap, (a + c) / 2 - half_gap
    theta = 0.5 * np.arctan2(2 * b, a - c)
    v1 = np.array([np.cos(theta), np.sin(theta)])
    v2 = np.array([-np.sin(theta), np.cos(theta)])
    inv_sqrt = np.outer(v1, v1) / np.sqrt(lam1) + np.outer(v2, v2) / np.sqrt(lam2)
    expected = X @ inv_sqrt
    np.testing.assert_allclose(whiten(m).points, expected, atol=1e-10)


def test_whiten_degenerate_support():
    with pytest.raises(DegenerateSupportError, match="degenerate support"):
        whiten(new_measure([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))
    with pytest.raises(DegenerateSupportError):
        whiten(new_measure([(0.0, 0.0), (1.0, 0.5)]))  # fewer than dim+1 points


def test_whiten_does_not_depend_on_scale():
    # a floor on the eigenvalues would reject the small well-conditioned
    # clouds (eigenvalue 2e-13 at 1e-6) and accept the large collinear ones
    rng = np.random.default_rng(12)
    x = rng.normal(size=(20, 2))
    t = rng.normal(size=20)
    collinear = np.column_stack([t, 3.0 * t])
    base = whiten(new_measure(x)).points
    for s in np.logspace(-8, 8, 17):
        np.testing.assert_allclose(whiten(new_measure(x * s)).points, base, rtol=0, atol=1e-9)
        with pytest.raises(DegenerateSupportError):
            whiten(new_measure(collinear * s))


# -- pushforward -------------------------------------------------------------


def test_pushforward_identity():
    m = new_measure([(1.0, 2.0), (3.0, 4.0)])
    e = FamilyEntry("id", np.eye(2), np.zeros(2))
    np.testing.assert_array_equal(pushforward(m, e).points, m.points)


def test_pushforward_projection():
    m = new_measure([(1.0, 2.0), (3.0, 4.0)])
    e = FamilyEntry("proj", np.array([[1.0, 0.0]]), np.zeros(1))
    out = pushforward(m, e)
    np.testing.assert_allclose(out.points, [[1.0], [3.0]])
    np.testing.assert_array_equal(out.weights, m.weights)


def test_pushforward_rotation_quarter_turn():
    m = new_measure([(1.0, 0.0)], weights=[1.0])
    e = rotation_grid(4)[1]
    np.testing.assert_allclose(pushforward(m, e).points, [[0.0, 1.0]], atol=1e-12)


def test_pushforward_preserves_mass_exactly():
    rng = np.random.default_rng(3)
    m = new_measure(rng.normal(size=(6, 2)), weights=rng.dirichlet(np.ones(6)))
    e = FamilyEntry("m", rng.normal(size=(3, 2)), rng.normal(size=3))
    assert pushforward(m, e).weights.sum() == m.weights.sum()


def test_pushforward_dimension_mismatch():
    m = new_measure([(1.0, 2.0, 3.0)], weights=[1.0])
    e = FamilyEntry("id2", np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="dimension"):
        pushforward(m, e)


# -- cost tensors ------------------------------------------------------------


def _identity_family(dim):
    return TransformFamily((FamilyEntry("id", np.eye(dim), np.zeros(dim)),))


def test_cost_tensor_zero_when_measures_coincide():
    m = new_measure([(0.0,)], weights=[1.0])
    ct = build_cost_tensor(m, m, _identity_family(1), CostSpec.squared_euclidean())
    np.testing.assert_array_equal(ct.values, np.zeros((1, 1, 1)))


def test_cost_tensor_squared_distance():
    mu = new_measure([(1.0,)], weights=[1.0])
    nu = new_measure([(3.0,)], weights=[1.0])
    ct = build_cost_tensor(mu, nu, _identity_family(1), CostSpec.squared_euclidean())
    np.testing.assert_allclose(ct.values, [[[4.0]]])


def test_cost_tensor_inner_product_example():
    # x = (1, 1) mapped through [1 0] to y = 1, z = 2, scale -8 -> -16
    mu = new_measure([(1.0, 1.0)], weights=[1.0])
    nu = new_measure([(2.0,)], weights=[1.0])
    fam = TransformFamily((FamilyEntry("p", np.array([[1.0, 0.0]]), np.zeros(1)),))
    ct = build_cost_tensor(mu, nu, fam, CostSpec.inner(-8.0))
    np.testing.assert_allclose(ct.values, [[[-16.0]]])


def test_cost_tensor_dimension_mismatch():
    mu = new_measure([(1.0, 1.0)], weights=[1.0])
    nu = new_measure([(2.0,)], weights=[1.0])
    with pytest.raises(ValueError):
        build_cost_tensor(mu, nu, _identity_family(2), CostSpec.squared_euclidean())


def test_cost_tensor_overflow_is_refused_without_a_warning():
    # the squared distances of 1e160-sized points overflow: the tensor
    # refuses the non-finite entries, and numpy's warning is not passed on
    rng = np.random.default_rng(21)
    mu = new_measure(rng.normal(size=(8, 2)) * 1e160)
    nu = new_measure(rng.normal(size=(6, 2)) * 1e160)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="non-finite cost tensor entry"):
            build_cost_tensor(mu, nu, _identity_family(2), CostSpec.squared_euclidean())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_sq_euclidean_cost_is_symmetric():
    rng = np.random.default_rng(11)
    Y, Z = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
    spec = CostSpec.squared_euclidean()
    np.testing.assert_allclose(pairwise_cost(Y, Z, spec), pairwise_cost(Z, Y, spec).T, atol=1e-12)


def test_power_two_matches_squared_euclidean():
    rng = np.random.default_rng(12)
    Y, Z = rng.normal(size=(6, 2)), rng.normal(size=(5, 2))
    a = pairwise_cost(Y, Z, CostSpec.power(2.0))
    b = pairwise_cost(Y, Z, CostSpec.squared_euclidean())
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_power_requires_p_at_least_one():
    with pytest.raises(ValueError):
        CostSpec.power(0.5)


# -- rotation grids and Stiefel checks ---------------------------------------


def test_rotation_grid_four_angles():
    fam = rotation_grid(4)
    np.testing.assert_allclose(rotation_grid_angles(4), [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    for e in fam:
        rounded = np.round(e.matrix)
        np.testing.assert_allclose(e.matrix, rounded, atol=1e-15)
        assert set(np.unique(rounded)).issubset({-1.0, 0.0, 1.0})


def test_rotation_grid_demo_size():
    assert len(rotation_grid(40)) == 40


def test_rotation_grid_matrices_are_rotations():
    for e in rotation_grid(7):
        M = e.matrix
        np.testing.assert_allclose(M.T @ M, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(M) - 1.0) <= 1e-12
        assert stiefel_validate(M)
        assert e.penalty == 0.0


def test_stiefel_validate_cases():
    assert stiefel_validate(np.eye(4)[:, :2])
    theta = 0.83
    assert stiefel_validate(np.array([[np.cos(theta)], [np.sin(theta)]]))
    A = np.ones((3, 2)) / np.sqrt(3.0)  # repeated column
    assert not stiefel_validate(A)
    with pytest.raises(ValueError):
        stiefel_validate(np.ones((1, 2)))


def test_igw_family_penalties():
    fam = igw_family([np.zeros((2, 1))])
    assert fam[0].penalty == 0.0
    e1 = np.array([[1.0], [0.0]])
    assert igw_family([e1])[0].penalty == pytest.approx(8.0)
    # ||2 I_2||_F^2 = 8, so the penalty is 8 * 8
    assert igw_family([2.0 * np.eye(2)])[0].penalty == pytest.approx(64.0)
    with pytest.raises(ValueError):
        igw_family([])


def test_igw_family_maps_by_transpose():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])  # 3x2
    fam = igw_family([A])
    x = np.array([[2.0, 3.0, 5.0]])
    np.testing.assert_allclose(fam[0].apply(x), x @ A)
