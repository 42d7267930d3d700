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


def _assemble_dual(per_theta, pots, penalties, q, transforms) -> AlignmentDual:
    """Exact optimal dual from per-entry Kantorovich potentials.

    For each entry, shift the potentials so that all psi columns share the
    q-mean of the optimizer's column, and absorb the per-entry suboptimality
    alpha_k = per_theta[k] - value into the xi side.  The pair stays feasible
    (alpha_k >= 0 only lowers xi) and its objective telescopes to the
    brute-force value, which certifies optimality by weak duality.

    The optimizer's pair is made canonical: the solvers return
    phi = psi^cbar, and psi* = phi^c satisfies psi* >= psi and
    (psi*)^cbar = phi, so (phi, psi*) is feasible with the same optimal
    objective.  transforms(k) is the (cbar, c) pair of entry k's cost; only
    that c-transform needs it.
    """
    value = float(per_theta.min())
    k0 = int(np.argmin(per_theta))
    pots = list(pots)
    _, c = transforms(k0)
    pots[k0] = PotentialPair(pots[k0].phi, c(pots[k0].phi))
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
        cbar, c = transforms(entry.apply(mu.points))
        phi = cbar(report.dual.psi[:, k])
        dual_objective = float(mu.weights @ phi + nu.weights @ c(phi))
        out[k] = abs(report.per_theta[k] - entry.penalty - dual_objective)
    return out


def _entry_solver(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec):
    """Exact OT for one family entry, and the (cbar, c) transforms of the
    cost matrix that solver sees.  Both take the image y = T_k(x) of mu's
    support; solve(y, start) returns the entry's OtResult, whose
    largest_cost sizes the entry's tolerances, and keeps no state between
    calls.  A target on the line under a power of the distance takes the
    quantile solver, which ignores start, and its transforms are monotone
    row minima on the line; neither forms a cost matrix.  Any other
    instance poses the transport LP on a cost matrix formed once per solve,
    started from the simplex basis start when one is given, and
    transforms(y) forms one cost matrix that its cbar and c transforms
    share.
    """
    p, q = mu.weights, nu.weights
    if nu.dim == 1 and cost.kind in ("sq-euclidean", "power"):
        z = nu.points[:, 0]
        power = 2.0 if cost.kind == "sq-euclidean" else cost.p

        def line_solve(y, start=None):
            return wasserstein_1d(y[:, 0], p, z, q, power=power)

        def line_transforms(y):
            return (
                lambda psi: cbar_transform_1d(psi, y[:, 0], z, power),
                lambda phi: c_transform_1d(phi, y[:, 0], z, power),
            )

        return line_solve, line_transforms

    def solve(y, start=None):
        return wasserstein(p, q, pairwise_cost(y, nu.points, cost), start=start)

    def dense_transforms(y):
        C = pairwise_cost(y, nu.points, cost)
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
    fam.check_between(mu, nu)
    penalties = fam.penalties
    solve, transforms = _entry_solver(mu, nu, cost)
    images = [entry.apply(mu.points) for entry in fam]
    solves, start = [], None
    for y in images:
        res = solve(y, start)
        solves.append(res)
        start = res.basis  # the entries share p and q: each optimal basis fits the next
    per_theta = np.array([res.value for res in solves]) + penalties
    size = tolerance.folded_size([res.largest_cost for res in solves], penalties)

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
