"""Euclidean-case diagnostics for orthogonal-projection alignment.

For whitened measures (zero mean, identity covariance) and a matrix A with
orthonormal columns, the squared-distance transport integrals computed in the
big space (x against A z) and in the small space (A^T x against z) differ by
the constant n - d for EVERY coupling of the two measures, because the
residual ||x - Proj_range(A) x||^2 integrates to tr(I_n) - tr(A A^T) = n - d
under the whitened source.

The cross-correlation check is the discrete surrogate of a first-order
optimality condition: at a local minimizer of the projection objective, the
matrix E[Tbar(Z)_a Z_b] built from the barycentric projection Tbar of an
optimal plan should be symmetric.  It is reported as a diagnostic defect,
never as a pass/fail theorem test, since the underlying statement assumes an
absolutely continuous target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wassalign import tolerance
from wassalign.measures import DiscreteMeasure, stiefel_validate
from wassalign.ot import TransportPlan

__all__ = [
    "UpDownCheck",
    "CrossCorrelation",
    "updown_check",
    "barycentric_map",
    "cross_correlation",
]

@dataclass(frozen=True)
class UpDownCheck:
    up_integral: float
    down_integral: float
    expected_gap: float

    @property
    def residual(self) -> float:
        return abs(self.up_integral - self.down_integral - self.expected_gap)


@dataclass(frozen=True)
class CrossCorrelation:
    matrix: np.ndarray  # (d, d)

    @property
    def defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T)))


def _require_whitened(m: DiscreteMeasure, name: str) -> None:
    mean_dev = float(np.max(np.abs(m.mean())))
    cov_dev = float(np.max(np.abs(m.covariance() - np.eye(m.dim))))
    if mean_dev > tolerance.WHITENED_TOL or cov_dev > tolerance.WHITENED_TOL:
        raise ValueError(
            f"{name} is not whitened (mean deviation {mean_dev:.2e}, "
            f"covariance deviation {cov_dev:.2e})"
        )


def updown_check(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    A: np.ndarray,
    gamma: TransportPlan | None = None,
) -> UpDownCheck:
    """Compare the two transport integrals through A under a given coupling.

    gamma defaults to the product coupling; any coupling of (mu, nu) yields
    the same difference n - d.  Both integrals are sums over gamma's cells.

    Raises:
        ValueError: non-whitened inputs, non-Stiefel A, or an inconsistent
            coupling.
    """
    A = np.asarray(A, dtype=float)
    if not stiefel_validate(A):
        raise ValueError("A does not have orthonormal columns")
    n, d = A.shape
    if mu.dim != n or nu.dim != d:
        raise ValueError(f"A is {n}x{d} but measures live in R^{mu.dim}, R^{nu.dim}")
    _require_whitened(mu, "mu")
    _require_whitened(nu, "nu")
    if gamma is None:
        gamma = TransportPlan.from_matrix(np.outer(mu.weights, nu.weights))
    gamma.check_marginals(mu.weights, nu.weights)
    X, Z = mu.points[gamma.rows], nu.points[gamma.cols]
    up = gamma.mass @ np.sum((X - Z @ A.T) ** 2, axis=1)  # ||x_i - A z_j||^2
    down = gamma.mass @ np.sum((X @ A - Z) ** 2, axis=1)  # ||A^T x_i - z_j||^2
    return UpDownCheck(float(up), float(down), float(n - d))


def barycentric_map(plan: TransportPlan, source_images: np.ndarray) -> np.ndarray:
    """Conditional mean of the source images under the plan, per target atom.

    Tbar[j] = sum_i plan_ij y_i / sum_i plan_ij, summed over the plan's cells.

    Raises:
        ValueError: some target atom receives no mass.
    """
    Y = np.asarray(source_images, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] != plan.shape[0]:
        raise ValueError(f"{Y.shape[0]} source images for a plan with {plan.shape[0]} rows")
    col_mass = plan.col_sums()
    if np.any(col_mass <= 0.0):
        raise ValueError("zero column mass: barycentric projection undefined")
    moved = np.zeros((plan.shape[1], Y.shape[1]))
    np.add.at(moved, plan.cols, plan.mass[:, None] * Y[plan.rows])
    return moved / col_mass[:, None]


def cross_correlation(
    plan: TransportPlan,
    nu: DiscreteMeasure,
    source_images: np.ndarray,
) -> CrossCorrelation:
    """Cross-correlation matrix C_ab = sum_j q_j Tbar(z_j)_a (z_j)_b."""
    if plan.shape[1] != nu.size:
        raise ValueError("plan and target measure sizes differ")
    tbar = barycentric_map(plan, source_images)
    if tbar.shape[1] != nu.dim:
        raise ValueError(
            f"source images have dimension {tbar.shape[1]}, target has {nu.dim}"
        )
    C = (tbar * nu.weights[:, None]).T @ nu.points
    return CrossCorrelation(C)
