"""Cross-checks of `align` on the `CostTensor` c(T_k x_i, z_j) of every (i, j, k).

`align` assembles the alignment value min_k { OT(p, q, c_..k) + R_k } from
one exact OT solve per family entry.  This module computes it two more ways:

  solve_dual           a convex dual LP over (xi, psi): maximize
                       sum_i p_i xi_i0 + sum_j q_j psi_j0 subject to
                       xi_ik + psi_jk <= c_ijk + R_k and mean-consistency on
                       both sides (sum_i p_i xi_ik and sum_j q_j psi_jk are
                       constant in k);
  solve_relaxed_primal the linear relaxation over couplings gamma(x, theta, z)
                       with X ~ mu, Z ~ nu, and theta independent of X and of
                       Z -- the LP dual of solve_dual;
  brute_force          one exact OT solve per family entry.

`feasibility_violation` and `mean_consistency_violation` check any
`AlignmentDual` against the dual's constraints on the tensor.

Why the target potential carries a family index: with a single psi_j the LP
is the relaxation in which only X is independent of theta, and that
relaxation may split nu across transforms (each theta-channel must carry all
of mu but only a slice of nu), driving the value strictly below the true
minimum.  Requiring theta independent of both ends forces every channel to
transport all of mu onto all of nu, so the relaxed value is a convex
combination of the per-entry objectives and the duality is exact.  With one
family entry the LP reduces to plain Kantorovich duality.

At an optimum, every family entry carrying channel mass has its (xi, psi)
columns equal to a pair of Kantorovich potentials for that entry, which is
how `extract_theta` reads the optimizer set off by complementary slackness.

The two LPs go to the HiGHS dual simplex, a solver independent of `align`'s
own.  This is the one module that imports scipy or forms an N x M x l
tensor, and it imports scipy inside the LPs, so the CLI never loads it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from wassalign import tolerance
from wassalign.alignment import AlignmentDual
from wassalign.lp import LpSolverError
from wassalign.measures import CostSpec, DiscreteMeasure, TransformFamily, pairwise_cost
from wassalign.ot import c_transform, cbar_transform, wasserstein

logger = logging.getLogger(__name__)

__all__ = [
    "CostTensor",
    "ThetaExtraction",
    "BruteForceResult",
    "RelaxedPrimal",
    "GapCertificate",
    "build_cost_tensor",
    "solve_dual",
    "extract_theta",
    "brute_force",
    "solve_relaxed_primal",
    "compute_J_psi",
    "gap_certificate",
    "feasibility_violation",
    "mean_consistency_violation",
]


@dataclass(frozen=True)
class CostTensor:
    """values[i, j, k] = c(T_k x_i, z_j), plus the penalty vector R_k."""

    values: np.ndarray  # (N, M, l)
    penalties: np.ndarray  # (l,)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        r = np.asarray(self.penalties, dtype=float)
        if v.ndim != 3:
            raise ValueError(f"values must be (N, M, l), got shape {v.shape}")
        if r.shape != (v.shape[2],):
            raise ValueError(f"penalties shape {r.shape} does not match l={v.shape[2]}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(r))):
            raise ValueError("non-finite cost tensor entry")
        for name, a in (("values", v), ("penalties", r)):
            a = np.ascontiguousarray(a)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def folded(self) -> np.ndarray:
        """values with penalties folded in: c_ijk + R_k."""
        return self.values + self.penalties[None, None, :]

    @property
    def folded_size(self) -> float:
        """`tolerance.folded_size` of c + R: the size every threshold and LP scaling takes."""
        return tolerance.folded_size(np.abs(self.values).max(axis=(0, 1)), self.penalties)

    def slice(self, k: int) -> np.ndarray:
        """(N, M) cost matrix of family entry k, penalty excluded."""
        return self.values[:, :, k]


def build_cost_tensor(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    fam: TransformFamily,
    cost: CostSpec,
) -> CostTensor:
    """Evaluate c(T_k x_i, z_j) for every (i, j, k)."""
    fam.check_between(mu, nu)
    N, M, l = mu.size, nu.size, len(fam)
    values = np.empty((N, M, l))
    for k, entry in enumerate(fam):
        values[:, :, k] = pairwise_cost(entry.apply(mu.points), nu.points, cost)
    return CostTensor(values, fam.penalties)


@dataclass(frozen=True)
class ThetaExtraction:
    """Argmin data read off an optimal dual: the I-curve and its minimizers.

    witness_k is an index in k_star where xi equals the folded cbar-transform
    row within tolerance (the complementary-slackness characterization);
    None means the check failed and was logged as a certificate warning.
    """

    k_star: list
    i_curve: np.ndarray
    witness_k: int | None
    witness_gap: float


@dataclass(frozen=True)
class BruteForceResult:
    k_star: list
    value: float
    per_theta: np.ndarray


@dataclass(frozen=True)
class RelaxedPrimal:
    value: float
    gamma: np.ndarray  # (N, l, M)

    def theta_marginal(self) -> np.ndarray:
        return self.gamma.sum(axis=(0, 2))


@dataclass(frozen=True)
class GapCertificate:
    """Primal gap delta, dual gap g, and the curve difference they must sum to."""

    delta: float
    g: float
    rhs: float

    @property
    def identity_residual(self) -> float:
        return abs(self.delta + self.g - self.rhs)


def _psibar_folded(psi: np.ndarray, folded: np.ndarray) -> np.ndarray:
    """(N, l) array of min_j (folded[i, j, k] - psi[j, k]).

    psi may be a single vector (broadcast across entries) or an (M, l) array.
    """
    return (folded - psi.reshape(1, psi.shape[0], -1)).min(axis=1)


def _highs(what: str, c: np.ndarray, **rows):
    """linprog's minimum of c.x subject to rows, by the HiGHS dual simplex;
    LpSolverError, naming what was solved, unless HiGHS found an optimum."""
    from scipy.optimize import linprog

    res = linprog(c, method="highs-ds", **rows)
    if res.status != 0:
        raise LpSolverError(f"{what}: {res.message}")
    return res


def brute_force(mu: DiscreteMeasure, nu: DiscreteMeasure, ct: CostTensor) -> BruteForceResult:
    """Literal minimum over the family of per-entry OT value plus penalty:
    one exact OT solve per family entry."""
    values = [wasserstein(mu.weights, nu.weights, ct.slice(k)).value for k in range(ct.shape[2])]
    per_theta = np.array(values) + ct.penalties
    k_star = tolerance.argmin_set(per_theta, ct.folded_size)
    return BruteForceResult(k_star, float(per_theta.min()), per_theta)


def solve_dual(mu: DiscreteMeasure, nu: DiscreteMeasure, ct: CostTensor) -> AlignmentDual:
    """Solve the alignment dual exactly: the joint (xi, psi) LP, by the
    HiGHS dual simplex.

    This is the independent cross-check of the dual that `align` assembles
    from its per-entry OT potentials.  HiGHS's tolerances are absolute, so
    the folded costs are divided by their size before the solve and the
    solution is multiplied back.
    """
    import scipy.sparse as sp

    N, M, l = ct.shape
    p, q = mu.weights, nu.weights
    size = ct.folded_size or 1.0  # all-zero costs: nothing to scale
    n_vars = N * l + M * l
    obj = np.zeros(n_vars)
    obj[np.arange(N) * l] = p  # xi_{i, 0} carries the source integral
    obj[N * l + np.arange(M) * l] = q  # psi_{j, 0} the target integral

    xi_cols = np.arange(N * l).reshape(N, l)
    psi_cols = (N * l + np.arange(M * l)).reshape(M, l)
    # xi_ik + psi_jk <= c_ijk + R_k, one row per (i, k, j) in that order
    pair_cols = np.stack(
        [
            np.broadcast_to(xi_cols[:, :, None], (N, l, M)),
            np.broadcast_to(psi_cols.T[None], (N, l, M)),
        ],
        axis=-1,
    ).ravel()
    n_pairs = N * l * M
    pairs = sp.csr_matrix(
        (np.ones(2 * n_pairs), pair_cols, np.arange(0, 2 * n_pairs + 1, 2)),
        shape=(n_pairs, n_vars),
    )
    # mean consistency: for k >= 1, an xi row then a psi row, each against entry 0
    means = None
    if l > 1:
        xi_rows = np.hstack([xi_cols[:, 1:].T, np.broadcast_to(xi_cols[:, 0], (l - 1, N))])
        psi_rows = np.hstack([psi_cols[:, 1:].T, np.broadcast_to(psi_cols[:, 0], (l - 1, M))])
        cols = np.hstack([xi_rows, psi_rows]).ravel()
        vals = np.tile(np.concatenate([p, -p, q, -q]), l - 1)
        indptr = np.concatenate([[0], np.cumsum(np.tile([2 * N, 2 * M], l - 1))])
        means = sp.csr_matrix((vals, cols, indptr), shape=(2 * (l - 1), n_vars))

    res = _highs(
        "alignment dual LP",
        -obj,
        A_ub=pairs,
        b_ub=ct.folded().transpose(0, 2, 1).ravel() / size,
        A_eq=means,
        b_eq=None if means is None else np.zeros(means.shape[0]),
        bounds=(None, None),
    )
    x = res.x * size
    return AlignmentDual(x[: N * l].reshape(N, l), x[N * l :].reshape(M, l), -res.fun * size)


def solve_relaxed_primal(
    mu: DiscreteMeasure, nu: DiscreteMeasure, ct: CostTensor
) -> RelaxedPrimal:
    """Linear relaxation over couplings of (X, theta, Z), theta independent
    of each end.

    Variables gamma[i, k, j] >= 0; rows fix the X- and Z-marginals and impose
    sum_j gamma_ikj = p_i r_k and sum_i gamma_ikj = q_j r_k, where r_k is the
    theta-marginal mass of entry k.  This is the LP dual of solve_dual.  It
    is solved by the HiGHS dual simplex, which returns a vertex, on the
    objective divided by the size of the folded costs.
    """
    import scipy.sparse as sp

    N, M, l = ct.shape
    p, q = mu.weights, nu.weights
    size = ct.folded_size or 1.0  # all-zero costs: nothing to scale
    n_vars = N * l * M
    obj = ct.folded().transpose(0, 2, 1).ravel() / size  # (i, k, j) order

    def block(cols, vals, row_len):
        n_rows = cols.size // row_len
        indptr = np.arange(0, cols.size + 1, row_len)
        return sp.csr_matrix((vals, cols, indptr), shape=(n_rows, n_vars))

    ones = np.ones(n_vars)
    cells = np.arange(n_vars).reshape(N, l, M)
    # channel k carries p_i r_k out of source i: rows (i, k) over entry k's cells
    entry_cols = cells.transpose(1, 0, 2).reshape(l, N * M)
    from_source = np.broadcast_to(-p[:, None, None, None], (N, l, N, M)).copy()
    from_source[np.arange(N), :, np.arange(N), :] += 1.0
    # and q_j r_k into target j: rows (j, k)
    into_target = np.broadcast_to(-q[:, None, None, None], (M, l, N, M)).copy()
    into_target[np.arange(M), :, :, np.arange(M)] += 1.0
    A_eq = sp.vstack(
        [
            block(cells.ravel(), ones, l * M),
            block(cells.transpose(2, 0, 1).ravel(), ones, N * l),
            block(np.tile(entry_cols, (N, 1)).ravel(), from_source.ravel(), N * M),
            block(np.tile(entry_cols, (M, 1)).ravel(), into_target.ravel(), N * M),
        ],
        format="csr",
    )
    b_eq = np.concatenate([p, q, np.zeros(N * l + M * l)])
    res = _highs("relaxed primal LP", obj, A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
    return RelaxedPrimal(float(res.fun) * size, res.x.reshape(N, l, M))


def extract_theta(dual: AlignmentDual, ct: CostTensor, p: np.ndarray) -> ThetaExtraction:
    """Optimal family entries from the dual potentials.

    i_curve[k] = sum_i p_i min_j (c_ijk - psi_jk) + R_k; its argmin set
    (within tolerance) contains every entry carrying channel mass at the
    optimum.  Also verifies the slack witness: some argmin k must satisfy
    xi_ik = min_j (c_ijk + R_k - psi_jk) for every i.

    On a joint-LP dual (`solve_dual`) k_star can be a strict superset of
    the optimal entries: the columns of an entry without channel mass need
    not be a Kantorovich pair of that entry, and its I-curve value can sit
    at the minimum.  On test_tolerance's rotation instance with seed
    1, k_star is [1, 2, 4, 5, 6, 7] against brute force's [2].  `align`'s
    k_star is exact: it compares the per-entry OT values themselves.
    """
    psibar = _psibar_folded(dual.psi, ct.folded())
    i_curve = p @ psibar
    size = ct.folded_size
    k_star = tolerance.argmin_set(i_curve, size)

    witness_k = None
    witness_gap = np.inf
    for k in k_star:
        gap = float(np.max(np.abs(dual.xi[:, k] - psibar[:, k])))
        witness_gap = min(witness_gap, gap)
        if gap <= tolerance.of(size):
            witness_k = k
            break
    if witness_k is None:
        logger.warning(
            "certificate warning: no argmin entry matches the cbar-transform rows "
            "(best deviation %.3e)",
            witness_gap,
        )
    return ThetaExtraction(k_star, i_curve, witness_k, witness_gap)


def compute_J_psi(psi: np.ndarray, ct: CostTensor, p: np.ndarray) -> np.ndarray:
    """Lift a single target potential to a dual-feasible source array.

    J[i, k] = min_j (c_ijk - psi_j) + R_k - I_psi(k) + min_k I_psi(k), so the
    pair (J, psi broadcast over entries) always satisfies the dual
    constraints, and every column of J has the same p-weighted mean, namely
    min_k I_psi(k).  Its objective min_k I_psi(k) + q.psi never exceeds the
    alignment value, with equality exactly when psi certifies the optimizer.
    """
    psi = np.asarray(psi, dtype=float)
    folded = ct.folded()
    if psi.shape != (folded.shape[1],):
        raise ValueError(f"psi shape {psi.shape} does not match M={folded.shape[1]}")
    psibar = _psibar_folded(psi, folded)
    i_curve = p @ psibar
    return psibar - i_curve[None, :] + float(i_curve.min())


def gap_certificate(
    k0: int, mu: DiscreteMeasure, nu: DiscreteMeasure, ct: CostTensor, dual_value: float
) -> GapCertificate:
    """Primal/dual optimality gaps at family entry k0 and their exact link.

    delta = per-entry objective at k0 minus the alignment value; g is the
    suboptimality of the single-potential dual lift built from the k0 OT
    solve, whose psi is made canonical, (psi^cbar)^c; the identity
    delta + g = I(k0) - min_k I holds up to solver tolerance, and both gaps
    are nonnegative.
    """
    N, M, l = ct.shape
    if not 0 <= k0 < l:
        raise ValueError(f"k0={k0} out of range for l={l}")
    C = ct.slice(k0)
    res = wasserstein(mu.weights, nu.weights, C)
    psi = c_transform(cbar_transform(res.potentials.psi, C), C)
    psibar = _psibar_folded(psi, ct.folded())
    i_curve = mu.weights @ psibar
    i_min = float(i_curve.min())
    delta = float(res.value + ct.penalties[k0] - dual_value)
    g = float(dual_value - (i_min + psi @ nu.weights))
    rhs = float(i_curve[k0] - i_min)
    return GapCertificate(delta, g, rhs)


def feasibility_violation(dual: AlignmentDual, ct: CostTensor) -> float:
    """max over (i, j, k) of xi_ik + psi_jk - (c_ijk + R_k), one entry at a
    time, so no second N x M x l array is formed."""
    folded = ct.folded()
    worst = -np.inf
    for k in range(folded.shape[2]):
        v = dual.xi[:, k, None] + dual.psi[None, :, k] - folded[:, :, k]
        worst = max(worst, float(v.max()))
    return worst


def mean_consistency_violation(dual: AlignmentDual, p: np.ndarray, q=None) -> float:
    """Deviation of the dual's per-entry means from their k = 0 reference."""
    worst = float(np.max(np.abs(p @ dual.xi - p @ dual.xi[:, 0])))
    if q is not None:
        worst = max(worst, float(np.max(np.abs(q @ dual.psi - q @ dual.psi[:, 0]))))
    return worst
