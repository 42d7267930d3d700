"""Penalized Wasserstein alignment over a finite transform family.

The alignment value min_k { OT(p, q, c_..k) + R_k } is computed three
independent ways, which cross-certify each other:

  solve_dual           a convex dual LP over (xi, psi): maximize
                       sum_i p_i xi_i0 + sum_j q_j psi_j0 subject to
                       xi_ik + psi_jk <= c_ijk + R_k and mean-consistency on
                       both sides (sum_i p_i xi_ik and sum_j q_j psi_jk are
                       constant in k);
  solve_relaxed_primal the linear relaxation over couplings gamma(x, theta, z)
                       with X ~ mu, Z ~ nu, and theta independent of X and of
                       Z -- the LP dual of solve_dual;
  brute_force          one exact OT solve per family entry.

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
how the optimizer set is read off by complementary slackness.  Conversely,
the per-entry Kantorovich potentials, shifted to a common mean, assemble
into an optimal dual point whose objective equals the brute-force value, so
weak duality certifies it.  `align` is built on that assembly: one exact OT
solve per family entry, one assembled dual, one argmin rule; the joint LP
(`solve_dual`) and the relaxed primal are the cross-checks.

Solvers: the per-entry OT solves use `wassalign.ot` (the warm-started
transport simplex of `wassalign.lp`, or the quantile solver on the line).
The two cross-check LPs are general LPs; they go to the HiGHS dual simplex
(`scipy.optimize.linprog`), a solver independent of `align`'s own, imported
inside the two functions so that `align` and the CLI never load scipy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from wassalign import tolerance
from wassalign.lp import LpSolverError
from wassalign.measures import CostSpec, CostTensor, DiscreteMeasure, pairwise_cost
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

logger = logging.getLogger(__name__)

__all__ = [
    "AlignmentDual",
    "ThetaExtraction",
    "BruteForceResult",
    "RelaxedPrimal",
    "GapCertificate",
    "AlignmentReport",
    "solve_dual",
    "extract_theta",
    "brute_force",
    "solve_relaxed_primal",
    "compute_J_psi",
    "gap_certificate",
    "identity_residuals",
    "align",
]


@dataclass(frozen=True)
class AlignmentDual:
    """Feasible (optimal) point of the alignment dual LP.

    xi[i, k] bounds min_j (c_ijk + R_k - psi_jk) from below; psi[:, k] is the
    target potential attached to family entry k.  All xi columns share the
    same p-mean and all psi columns the same q-mean; the objective value is
    their sum.
    """

    xi: np.ndarray  # (N, l)
    psi: np.ndarray  # (M, l)
    value: float

    def psi_at(self, k: int) -> np.ndarray:
        return self.psi[:, k]

    def feasibility_violation(self, ct: CostTensor) -> float:
        """max over (i, j, k) of xi_ik + psi_jk - (c_ijk + R_k)."""
        folded = ct.folded()
        worst = -np.inf
        for k in range(folded.shape[2]):
            v = self.xi[:, k, None] + self.psi[None, :, k] - folded[:, :, k]
            worst = max(worst, float(v.max()))
        return worst

    def mean_consistency_violation(self, p: np.ndarray, q: np.ndarray | None = None) -> float:
        """Deviation of the per-entry means from their k = 0 reference."""
        worst = float(np.max(np.abs(p @ self.xi - p @ self.xi[:, 0])))
        if q is not None:
            worst = max(worst, float(np.max(np.abs(q @ self.psi - q @ self.psi[:, 0]))))
        return worst


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


@dataclass(frozen=True)
class AlignmentReport:
    theta_star: int
    theta_star_label: str
    k_star: list
    value: float
    i_curve: np.ndarray
    gap_curve: np.ndarray
    per_theta: np.ndarray
    plan: TransportPlan
    potentials: PotentialPair
    dual: AlignmentDual


def _folded_size(largest_costs, penalties) -> float:
    """max_k (max_ij |c_ijk| + |R_k|), from largest_costs[k] = max_ij |c_ijk|:
    the size of the folded costs c + R, an upper bound of max |c + R|."""
    return float(np.max(np.asarray(largest_costs) + np.abs(penalties)))


def _tensor_size(ct: CostTensor) -> float:
    """_folded_size of a cost tensor."""
    return _folded_size(np.abs(ct.values).max(axis=(0, 1)), ct.penalties)


def _argmin_set(values: np.ndarray, size: float) -> list:
    """Ascending indices within tolerance.of(size) of the minimum of values."""
    cut = float(values.min()) + tolerance.of(size)
    return [int(k) for k in np.flatnonzero(values <= cut)]


def _psibar_folded(psi: np.ndarray, folded: np.ndarray) -> np.ndarray:
    """(N, l) array of min_j (folded[i, j, k] - psi[j, k]).

    psi may be a single vector (broadcast across entries) or an (M, l) array.
    """
    return (folded - psi.reshape(1, psi.shape[0], -1)).min(axis=1)


def _dense_transforms(C: np.ndarray):
    """The (cbar, c) transforms of one cost matrix."""
    return (lambda psi: cbar_transform(psi, C)), (lambda phi: c_transform(phi, C))


def _canonical_potentials(raw_psi: np.ndarray, transforms) -> PotentialPair:
    """Replace an optimal psi by its cbar-concave representative.

    psi* = (psi^cbar)^c satisfies psi* >= psi and (psi*)^cbar = psi^cbar, so
    the pair (psi^cbar, psi*) is feasible with the same optimal objective.
    transforms is the (cbar, c) pair of the entry's cost.
    """
    cbar, c = transforms
    phi = cbar(raw_psi)
    return PotentialPair(phi, c(phi))


# ---------------------------------------------------------------------------
# the three solution routes
# ---------------------------------------------------------------------------


def brute_force(mu: DiscreteMeasure, nu: DiscreteMeasure, ct: CostTensor) -> BruteForceResult:
    """Literal minimum over the family of per-entry OT value plus penalty:
    one exact OT solve per family entry."""
    values = [wasserstein(mu.weights, nu.weights, ct.slice(k)).value for k in range(ct.shape[2])]
    per_theta = np.array(values) + ct.penalties
    size = _tensor_size(ct)
    return BruteForceResult(_argmin_set(per_theta, size), float(per_theta.min()), per_theta)


def solve_dual(mu: DiscreteMeasure, nu: DiscreteMeasure, ct: CostTensor) -> AlignmentDual:
    """Solve the alignment dual exactly: the joint (xi, psi) LP, by the
    HiGHS dual simplex.

    This is the independent cross-check of the dual that `align` assembles
    from its per-entry OT potentials, and it imports scipy.  HiGHS's
    tolerances are absolute, so the folded costs are divided by their size
    before the solve and the solution is multiplied back.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    N, M, l = ct.shape
    p, q = mu.weights, nu.weights
    size = _tensor_size(ct) or 1.0  # all-zero costs: nothing to scale
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

    res = linprog(
        -obj,
        A_ub=pairs,
        b_ub=ct.folded().transpose(0, 2, 1).ravel() / size,
        A_eq=means,
        b_eq=None if means is None else np.zeros(means.shape[0]),
        bounds=(None, None),
        method="highs-ds",
    )
    if res.status != 0:
        raise LpSolverError(f"alignment dual LP: {res.message}")
    x = res.x * size
    return AlignmentDual(x[: N * l].reshape(N, l), x[N * l :].reshape(M, l), -res.fun * size)


def _assemble_dual(per_theta, pots, penalties, q, transforms) -> AlignmentDual:
    """Exact optimal dual from per-entry Kantorovich potentials.

    For each entry, shift the potentials so that all psi columns share the
    q-mean of the optimizer's column, and absorb the per-entry suboptimality
    alpha_k = per_theta[k] - value into the xi side.  The pair stays feasible
    (alpha_k >= 0 only lowers xi) and its objective telescopes to the
    brute-force value, which certifies optimality by weak duality.
    transforms(k) is the (cbar, c) pair of entry k's cost; only the
    optimizer's potentials, made canonical, need it.
    """
    value = float(per_theta.min())
    k0 = int(np.argmin(per_theta))
    pots = list(pots)
    pots[k0] = _canonical_potentials(pots[k0].psi, transforms(k0))
    N, M, l = pots[0].phi.size, pots[0].psi.size, len(pots)
    xi = np.empty((N, l))
    psi = np.empty((M, l))
    T = float(pots[k0].psi @ q)
    for k in range(l):
        alpha = per_theta[k] - value
        t_k = T - float(pots[k].psi @ q)
        psi[:, k] = pots[k].psi + t_k
        xi[:, k] = pots[k].phi + penalties[k] - alpha - t_k
    return AlignmentDual(xi, psi, value)


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
    from scipy.optimize import linprog

    N, M, l = ct.shape
    p, q = mu.weights, nu.weights
    size = _tensor_size(ct) or 1.0  # all-zero costs: nothing to scale
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
    res = linprog(obj, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise LpSolverError(f"relaxed primal LP: {res.message}")
    return RelaxedPrimal(float(res.fun) * size, res.x.reshape(N, l, M))


# ---------------------------------------------------------------------------
# extraction, J-lift, gap certificates
# ---------------------------------------------------------------------------


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
    size = _tensor_size(ct)
    k_star = _argmin_set(i_curve, size)

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
    solve; the identity delta + g = I(k0) - min_k I holds up to solver
    tolerance, and both gaps are nonnegative.
    """
    N, M, l = ct.shape
    if not 0 <= k0 < l:
        raise ValueError(f"k0={k0} out of range for l={l}")
    res = wasserstein(mu.weights, nu.weights, ct.slice(k0))
    pot = _canonical_potentials(res.potentials.psi, _dense_transforms(ct.slice(k0)))
    psibar = _psibar_folded(pot.psi, ct.folded())
    i_curve = mu.weights @ psibar
    i_min = float(i_curve.min())
    delta = float(res.value + ct.penalties[k0] - dual_value)
    g = float(dual_value - (i_min + pot.psi @ nu.weights))
    rhs = float(i_curve[k0] - i_min)
    return GapCertificate(delta, g, rhs)


def identity_residuals(
    report: AlignmentReport, mu: DiscreteMeasure, nu: DiscreteMeasure, fam, cost: CostSpec
) -> np.ndarray:
    """gap_certificate's identity residual at every family entry, from the
    report's own solves and without a cost tensor.

    In delta + g - rhs the alignment value and min_k I cancel, which leaves
    per_theta[k] - R_k - (p.psi^cbar + q.(psi^cbar)^c): the duality gap of
    entry k's canonical pair, with psi column k of report.dual.  That column
    is a Kantorovich pair of entry k shifted by a constant t_k, which moves
    psi^cbar by -t_k and (psi^cbar)^c by +t_k, and cancels since p and q
    each sum to 1.  Each entry takes the two transforms `align` uses.
    """
    _, transforms = _entry_solver(mu, nu, cost)
    out = np.empty(len(fam))
    for k, entry in enumerate(fam):
        pot = _canonical_potentials(report.dual.psi[:, k], transforms(entry.apply(mu.points)))
        dual_objective = float(mu.weights @ pot.phi + nu.weights @ pot.psi)
        out[k] = abs(report.per_theta[k] - entry.penalty - dual_objective)
    return out


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


def _entry_solver(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec):
    """Exact OT for one family entry, and the (cbar, c) transforms of the
    cost matrix that solver sees.  Both take the image y = T_k(x) of mu's
    support; solve(y) returns the entry's OtResult and its cost matrix's
    largest magnitude.  A target on the line under a power of the distance
    takes the quantile solver, and its transforms are monotone row minima on
    the line; neither forms a cost matrix.  Any other instance poses the
    transport LP on a cost matrix formed once per solve, and transforms(y)
    forms one cost matrix that its cbar and c transforms share.
    """
    p, q = mu.weights, nu.weights
    if nu.dim == 1 and cost.kind in ("sq-euclidean", "power"):
        z = nu.points[:, 0]
        power = 2.0 if cost.kind == "sq-euclidean" else cost.p

        def solve(y):
            largest_cost = max(abs(y.max() - z.min()), abs(z.max() - y.min())) ** power
            return wasserstein_1d(y[:, 0], p, z, q, power=power), largest_cost

        def line_transforms(y):
            return (
                lambda psi: cbar_transform_1d(psi, y[:, 0], z, power),
                lambda phi: c_transform_1d(phi, y[:, 0], z, power),
            )

        return solve, line_transforms

    def cost_of(y):
        return pairwise_cost(y, nu.points, cost)

    # the entries share p and q, so each entry's optimal basis is feasible for
    # the next one and its simplex starts there instead of at the staircase
    start = None

    def solve(y):
        nonlocal start
        C = cost_of(y)
        res = wasserstein(p, q, C, start=start)
        start = res.basis
        return res, float(np.abs(C).max())

    def dense_transforms(y):
        return _dense_transforms(cost_of(y))

    return solve, dense_transforms


def align(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    fam,
    cost: CostSpec,
) -> AlignmentReport:
    """End-to-end alignment: per-entry OT, the assembled dual, and the report.

    Every family entry is solved once and exactly: by the quantile solver
    when the target space is the line and the cost is sq-euclidean or a
    power, by the transport LP otherwise.  The per-entry potentials are
    assembled into an optimal dual (exact by weak duality); the optimizer is
    the smallest index whose objective lies within tolerance of the
    minimum, and the complementary-slackness witness is checked there.  Cost
    matrices are formed one entry at a time, so memory grows with N*M, not
    N*M*l.  identity_residuals certifies every entry's value on the same
    per-entry transforms; solve_dual on build_cost_tensor of the same
    instance is the independent cross-check.
    """
    if fam.source_dim != mu.dim:
        raise ValueError(f"family maps from R^{fam.source_dim}, mu lives in R^{mu.dim}")
    if fam.target_dim != nu.dim:
        raise ValueError(f"family maps into R^{fam.target_dim}, nu lives in R^{nu.dim}")
    penalties = fam.penalties
    solve, transforms = _entry_solver(mu, nu, cost)
    images = [entry.apply(mu.points) for entry in fam]
    solves, largest_costs = zip(*(solve(y) for y in images))
    per_theta = np.array([res.value for res in solves]) + penalties
    size = _folded_size(largest_costs, penalties)

    dual = _assemble_dual(
        per_theta,
        [res.potentials for res in solves],
        penalties,
        nu.weights,
        lambda k: transforms(images[k]),
    )
    k_star = _argmin_set(per_theta, size)
    k = k_star[0]
    cbar, _ = transforms(images[k])
    psibar = cbar(dual.psi[:, k]) + penalties[k]
    witness_gap = float(np.max(np.abs(dual.xi[:, k] - psibar)))
    if witness_gap > tolerance.of(size):
        logger.warning(
            "certificate warning: the optimizer's xi column is %.3e from its "
            "cbar-transform row",
            witness_gap,
        )
    return AlignmentReport(
        theta_star=k,
        theta_star_label=fam.labels[k],
        k_star=k_star,
        value=dual.value,
        i_curve=per_theta - float(dual.psi[:, 0] @ nu.weights),
        gap_curve=per_theta - dual.value,
        per_theta=per_theta,
        plan=solves[k].plan,
        potentials=solves[k].potentials,
        dual=dual,
    )
