"""Penalized Wasserstein alignment over a finite transform family.

`align` computes the alignment value min_k { OT(p, q, c_..k) + R_k } by one
exact OT solve per family entry.  The per-entry Kantorovich potentials,
shifted to a common mean, assemble into an optimal point of the convex
alignment dual (`AlignmentDual`): its objective telescopes to the per-entry
minimum, which certifies it by weak duality.  The optimizer set is read off
the per-entry values by `tolerance.argmin_set`, and the
complementary-slackness witness is checked at the optimizer.
`identity_residuals` certifies every entry of a report on the same
per-entry transforms, with no cost tensor.

Solvers: the per-entry OT solves use `wassalign.ot` (the warm-started
transport simplex of `wassalign.lp`, or the quantile solver on the line).
The joint dual LP, the relaxed primal and the other cross-checks on the
N x M x l cost tensor live in `wassalign.crosscheck`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from wassalign import tolerance
from wassalign.measures import CostSpec, DiscreteMeasure, pairwise_cost
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

__all__ = ["AlignmentDual", "AlignmentReport", "identity_residuals", "align"]


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

    def feasibility_violation(self, ct) -> float:
        """max over (i, j, k) of xi_ik + psi_jk - (c_ijk + R_k); ct is a cost
        tensor of `wassalign.crosscheck`, read through its folded()."""
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


def _canonical_potentials(raw_psi: np.ndarray, transforms) -> PotentialPair:
    """Replace an optimal psi by its cbar-concave representative.

    psi* = (psi^cbar)^c satisfies psi* >= psi and (psi*)^cbar = psi^cbar, so
    the pair (psi^cbar, psi*) is feasible with the same optimal objective.
    transforms is the (cbar, c) pair of the entry's cost.
    """
    cbar, c = transforms
    phi = cbar(raw_psi)
    return PotentialPair(phi, c(phi))


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


def identity_residuals(
    report: AlignmentReport, mu: DiscreteMeasure, nu: DiscreteMeasure, fam, cost: CostSpec
) -> np.ndarray:
    """`crosscheck.gap_certificate`'s identity residual at every family
    entry, from the report's own solves and without a cost tensor.

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


def _entry_solver(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec):
    """Exact OT for one family entry, and the (cbar, c) transforms of the
    cost matrix that solver sees.  Both take the image y = T_k(x) of mu's
    support; solve(y, start) returns the entry's OtResult and its cost
    matrix's largest magnitude, and keeps no state between calls.  A target
    on the line under a power of the distance takes the quantile solver,
    which ignores start, and its transforms are monotone row minima on the
    line; neither forms a cost matrix.  Any other instance poses the
    transport LP on a cost matrix formed once per solve, started from the
    simplex basis start when one is given, and transforms(y) forms one cost
    matrix that its cbar and c transforms share.
    """
    p, q = mu.weights, nu.weights
    if nu.dim == 1 and cost.kind in ("sq-euclidean", "power"):
        z = nu.points[:, 0]
        power = 2.0 if cost.kind == "sq-euclidean" else cost.p

        def line_solve(y, start=None):
            largest_cost = max(abs(y.max() - z.min()), abs(z.max() - y.min())) ** power
            return wasserstein_1d(y[:, 0], p, z, q, power=power), largest_cost

        def line_transforms(y):
            return (
                lambda psi: cbar_transform_1d(psi, y[:, 0], z, power),
                lambda phi: c_transform_1d(phi, y[:, 0], z, power),
            )

        return line_solve, line_transforms

    def cost_of(y):
        return pairwise_cost(y, nu.points, cost)

    def solve(y, start=None):
        C = cost_of(y)
        return wasserstein(p, q, C, start=start), float(np.abs(C).max())

    def dense_transforms(y):
        C = cost_of(y)
        return (lambda psi: cbar_transform(psi, C)), (lambda phi: c_transform(phi, C))

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
    per-entry transforms; `crosscheck.solve_dual` on the same instance's
    cost tensor is the independent cross-check.
    """
    if fam.source_dim != mu.dim:
        raise ValueError(f"family maps from R^{fam.source_dim}, mu lives in R^{mu.dim}")
    if fam.target_dim != nu.dim:
        raise ValueError(f"family maps into R^{fam.target_dim}, nu lives in R^{nu.dim}")
    penalties = fam.penalties
    solve, transforms = _entry_solver(mu, nu, cost)
    images = [entry.apply(mu.points) for entry in fam]
    solves, largest_costs, start = [], [], None
    for y in images:
        res, largest_cost = solve(y, start)
        solves.append(res)
        largest_costs.append(largest_cost)
        start = res.basis  # the entries share p and q: each optimal basis fits the next
    per_theta = np.array([res.value for res in solves]) + penalties
    size = _folded_size(largest_costs, penalties)

    dual = _assemble_dual(
        per_theta,
        [res.potentials for res in solves],
        penalties,
        nu.weights,
        lambda k: transforms(images[k]),
    )
    k_star = tolerance.argmin_set(per_theta, size)
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
