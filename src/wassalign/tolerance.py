"""Every threshold of `measures`, `lp`, `ot`, `alignment`, `crosscheck` and `euclidean`,
the one tie rule and the one size of the folded costs, kept in one place.

A threshold on values -- costs, objectives, reduced costs, right-hand sides,
potentials -- is REL times the size of the data it compares (`of`), so
answers do not depend on units; a covariance is judged degenerate by the
ratio of its eigenvalues, for the same reason.  Masses, orthonormal-column
residuals and the moments of a whitened measure are unit-free (weights sum
to 1; a whitened covariance is I), so their thresholds are absolute; every
weight vector, a measure's too, meets WEIGHT_SUM_TOL in
`measures.probability_vector`.  The
transport simplex has no pivot threshold: its basis is a spanning tree, and
a pivot moves the flows of its cycle by exactly the leaving cell's flow.
The two LPs of `crosscheck` pass no thresholds to HiGHS; they scale their
costs instead.
"""

import numpy as np

REL = 1e-9

MARGINAL_TOL = 1e-8  # masses: plan row and column sums against the weights
WEIGHT_SUM_TOL = 1e-9  # masses: a weight vector's sum against 1
PLAN_ZERO = 1e-12  # masses: plan entries at or below this are empty cells
COV_EIG_RATIO = 1e-12  # smallest over largest covariance eigenvalue of a degenerate support
STIEFEL_TOL = 1e-10  # largest |A^T A - I| entry of a matrix with orthonormal columns
WHITENED_TOL = 1e-10  # largest |mean| and |covariance - I| entry of a whitened measure


def of(*data) -> float:
    """REL times the largest magnitude among data (numbers or arrays)."""
    return REL * max(float(np.max(np.abs(d), initial=0.0)) for d in data)


def folded_size(largest_costs, penalties) -> float:
    """max_k (max_ij |c_ijk| + |R_k|), from largest_costs[k] = max_ij |c_ijk|:
    the size of the folded costs c + R, an upper bound of max |c + R|."""
    return float(np.max(np.asarray(largest_costs) + np.abs(penalties)))


def argmin_set(values: np.ndarray, size: float) -> list:
    """Ascending indices of values within of(size) of their minimum: the tie
    rule of every optimizer set (`align`, `brute_force`, `extract_theta`)."""
    cut = float(values.min()) + of(size)
    return [int(k) for k in np.flatnonzero(values <= cut)]
