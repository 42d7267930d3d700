"""Exact discrete optimal transport: values, vertex plans, Kantorovich potentials.

The transport LP is solved by the tree simplex in `wassalign.lp`, which
starts from the north-west-corner staircase of the weights, or from the
optimal basis of an earlier LP with the same weights; returned potentials
are the LP row duals with the source side canonicalized through the
cbar-transform, so that phi = psi^cbar holds exactly.  A separate quantile
solver handles measures on the line: there the same staircase, taken on the
sorted supports, is the monotone coupling, which is optimal for costs
|y - z|^p with p >= 1; it produces the same value/potential contracts in
O((N + M) log(N + M)) and certifies them by the duality gap.  On the line
the cost minus a potential is a Monge matrix, so its cbar- and
c-transforms (`cbar_transform_1d`, `c_transform_1d`) take monotone row
minima by divide and conquer, O((N + M) log N), instead of a pass over all
N x M cells.  The quantile solver's own cbar-transform is one O(N + M)
pass over small windows around the staircase, which certify themselves
by the Monge property (`_staircase_row_min`); the divide and conquer is
its fallback.  Both solvers return their
plan as its support (`TransportPlan`), the N + M - 1 cells of the optimal
basis or of the staircase, and check and renormalize their weights by
`measures.probability_vector`.

Transforms follow the asymmetric convention
    cbar_transform(psi)[i] = min_j (C[i, j] - psi[j])   (potential on sources)
    c_transform(phi)[j]    = min_i (C[i, j] - phi[i])   (potential on targets)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wassalign import tolerance
from wassalign.lp import LpSolverError, LpStatus, TransportLp, solve_lp, staircase
from wassalign.measures import probability_vector

__all__ = [
    "TransportPlan",
    "PotentialPair",
    "OtResult",
    "wasserstein",
    "wasserstein_1d",
    "c_transform",
    "cbar_transform",
    "c_transform_1d",
    "cbar_transform_1d",
]


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling of shape (N, M) held as its support: cell k moves mass[k]
    from source rows[k] to target cols[k], each cell listed once.

    Both solvers return a vertex of the transport polytope, at most
    N + M - 1 cells, so a plan takes O(N + M) memory; `matrix` forms the
    dense coupling only when asked.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    shape: tuple

    def __post_init__(self):
        rows, cols = np.asarray(self.rows, dtype=np.intp), np.asarray(self.cols, dtype=np.intp)
        mass = np.asarray(self.mass, dtype=float)
        N, M = self.shape
        if mass.ndim != 1 or rows.shape != mass.shape or cols.shape != mass.shape:
            raise ValueError("rows, cols and mass must be vectors of one length")
        np.ravel_multi_index((rows, cols), (N, M))  # raises ValueError on a cell outside
        if mass.min(initial=0.0) < -tolerance.PLAN_ZERO:
            raise ValueError("negative plan entry")
        for name, v in (("rows", rows), ("cols", cols), ("mass", mass), ("shape", (N, M))):
            object.__setattr__(self, name, v)

    @classmethod
    def from_matrix(cls, P) -> TransportPlan:
        """The plan whose cells are the nonzero entries of the coupling matrix P."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2:
            raise ValueError(f"plan must be a matrix, got shape {P.shape}")
        rows, cols = np.nonzero(P)
        return cls(rows, cols, P[rows, cols], P.shape)

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x M coupling."""
        m = np.zeros(self.shape)
        m[self.rows, self.cols] = self.mass
        return m

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.mass, minlength=self.shape[0])

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.cols, weights=self.mass, minlength=self.shape[1])

    def check_marginals(
        self, p: np.ndarray, q: np.ndarray, tol: float = tolerance.MARGINAL_TOL
    ) -> None:
        if np.max(np.abs(self.row_sums() - p)) > tol:
            raise ValueError("plan row sums do not match source weights")
        if np.max(np.abs(self.col_sums() - q)) > tol:
            raise ValueError("plan column sums do not match target weights")

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.mass > tolerance.PLAN_ZERO))


@dataclass(frozen=True, eq=False)
class PotentialPair:
    """Dual pair (phi on sources, psi on targets) with phi_i + psi_j <= C_ij."""

    phi: np.ndarray
    psi: np.ndarray

    def objective(self, p: np.ndarray, q: np.ndarray) -> float:
        return float(self.phi @ p + self.psi @ q)

    def feasibility_violation(self, C: np.ndarray) -> float:
        return float(np.max(self.phi[:, None] + self.psi[None, :] - C, initial=-np.inf))


@dataclass(frozen=True, eq=False)
class OtResult:
    value: float
    plan: TransportPlan
    potentials: PotentialPair
    largest_cost: float  # max_ij |C_ij|, the scale of the solve's certificate
    # optimal simplex basis of the transport LP (None from the quantile solver)
    basis: np.ndarray | None = field(default=None, repr=False)


def cbar_transform(psi: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Row-wise minimum of C_ij - psi_j: the cbar-transform on the source side."""
    psi = np.asarray(psi, dtype=float)
    C = np.asarray(C, dtype=float)
    if psi.shape != (C.shape[1],):
        raise ValueError(f"psi has shape {psi.shape}, cost has {C.shape[1]} columns")
    return (C - psi[None, :]).min(axis=1)


def c_transform(phi: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Column-wise minimum of C_ij - phi_i: the c-transform on the target side."""
    phi = np.asarray(phi, dtype=float)
    C = np.asarray(C, dtype=float)
    if phi.shape != (C.shape[0],):
        raise ValueError(f"phi has shape {phi.shape}, cost has {C.shape[0]} rows")
    return (C - phi[:, None]).min(axis=0)


def wasserstein(p, q, C, start=None) -> OtResult:
    """Exact OT between weight vectors p, q under the cost matrix C.

    Returns the minimal cost, an optimal vertex plan on the cells of the
    optimal simplex basis, Kantorovich potentials from the LP row duals,
    and max |C| as largest_cost.
    The source potential is recomputed as cbar_transform(psi), which keeps
    the dual objective and yields the canonical cbar-concave representative.

    start: the `basis` of an earlier result with the same p and q, from
    which the simplex starts instead of the north-west-corner staircase
    (the feasible region does not depend on C); it is checked and dropped
    if it does not fit.  The value equals a cold solve's; when the optimum
    is not unique the plan and potentials may be another optimal vertex and
    dual pair.

    Raises:
        ValueError: p or q is not a probability vector, or the shapes of p,
            q and C do not match, or C is not finite.
        LpSolverError: the inner LP solve did not return an optimal status.
    """
    prob = TransportLp(C, probability_vector(p, "p"), probability_vector(q, "q"))
    sol = solve_lp(prob, start=start)
    if sol.status is not LpStatus.OPTIMAL:
        raise LpSolverError(f"transport LP ended with status {sol.status.value}: {sol.message}")
    rows, cols = np.divmod(sol.basis, prob.q.size)
    plan = TransportPlan(rows, cols, sol.flow, prob.cost.shape)
    psi = sol.dual_rows[prob.p.size :]
    phi = cbar_transform(psi, prob.cost)
    largest_cost = float(np.abs(prob.cost).max())
    return OtResult(float(sol.objective), plan, PotentialPair(phi, psi), largest_cost, sol.basis)


# ---------------------------------------------------------------------------
# measures on the line
# ---------------------------------------------------------------------------


def _monge_row_min(y, z, psi, power):
    """min_j (|y_i - z_j|^power - psi_j) for every i, on sorted y and z.

    For power >= 1 the matrix |y_i - z_j|^power - psi_j is Monge on sorted
    supports, so the leftmost argmin of a row is nondecreasing in the row
    index.  Divide and conquer: the middle row of every row range is
    minimized over its column range, and the ranges above and below it keep
    only the columns up to and from its argmin.  One recursion level is done
    at once, its cells concatenated and minimized by np.minimum.reduceat.
    The column ranges of a level overlap only at their ends, so a level
    holds at most M cells plus one per range, and the work is
    O((N + M) log N).  A NaN cost or psi makes its row NaN.
    """
    out = np.empty(y.size)
    lo_row, hi_row = np.array([0]), np.array([y.size])  # rows [lo_row, hi_row)
    lo_col, hi_col = np.array([0]), np.array([z.size - 1])  # columns [lo_col, hi_col]
    while lo_row.size:
        mid = (lo_row + hi_row) // 2
        width = hi_col - lo_col + 1
        starts = np.cumsum(width) - width
        cols = np.arange(starts[-1] + width[-1]) + np.repeat(lo_col - starts, width)
        vals = np.abs(np.repeat(y[mid], width) - z[cols]) ** power - psi[cols]
        out[mid] = np.minimum.reduceat(vals, starts)
        # first cell at the minimum (any cell of a NaN range)
        hits = np.flatnonzero(~(vals > np.repeat(out[mid], width)))
        arg = cols[hits[np.searchsorted(hits, starts)]]
        lo_row, hi_row = np.concatenate([lo_row, mid + 1]), np.concatenate([mid, hi_row])
        lo_col, hi_col = np.concatenate([lo_col, arg]), np.concatenate([arg, hi_col])
        keep = lo_row < hi_row
        lo_row, hi_row, lo_col, hi_col = lo_row[keep], hi_row[keep], lo_col[keep], hi_col[keep]
    return out


def _staircase_row_min(y, z, psi, power, ii, jj):
    """min_j (|y_i - z_j|^power - psi_j) for every i, on sorted y and z, from
    windows around the staircase (ii, jj), or None when the windows do not
    certify themselves.

    With fc_i and lc_i the first and last staircase columns of row i, row
    i's window is W_i = [lo_i, hi_i] with lo_i = fc_(i-1) (0 for i = 0) and
    hi_i = lc_(i+1) (M - 1 for i = N - 1).  All windows are minimized in one
    pass: m_i is the minimum over W_i, and first_i and last_i are the first
    and last columns of W_i that attain it.  A column lies in the windows of
    the rows of its staircase cells and of one row on either side, so the
    pass is O(N + M).

    Claim: the m_i are the row minima of A_ij = |y_i - z_j|^power - psi_j
    when both of these hold:
        lo_i <= last_(i-1) <= hi_i    for every i >= 1,
        lo_i <= first_(i+1) <= hi_i   for every i <= N - 2.
    Proof: for power >= 1, A is Monge on sorted supports (psi_j does not
    depend on i): A_ij + A_i'j' <= A_ij' + A_i'j for i < i', j < j'.  Going
    down the rows, suppose every j < lo_(i-1) has A_(i-1)j >= m_(i-1).  With
    j* = last_(i-1), every j < j* then has A_(i-1)j >= A_(i-1)j*, by that
    hypothesis or because j* is a minimum of W_(i-1).  The Monge inequality
    on rows i - 1 < i and columns j < j* gives
    A_ij >= A_ij* + (A_(i-1)j - A_(i-1)j*) >= A_ij* >= m_i, the last step
    because j* lies in W_i; as lo_i <= j*, every j < lo_i has A_ij >= m_i.
    Going up the rows through first_(i+1) bounds every j > hi_i the same
    way.  The outer inequalities hold by construction (last_(i-1) <=
    hi_(i-1) = lc_i <= hi_i, and first_(i+1) >= lo_(i+1) = fc_i >= lo_i), so
    only fc_(i-1) <= last_(i-1) and first_(i+1) <= lc_(i+1) are checked.
    The comparisons are exact, with no tolerance; like `_monge_row_min`,
    the proof takes the computed cells to be Monge.

    The check holds when the staircase's cells hold the row minima, as they
    do for the staircase's own potential at power > 1 on sources without
    ties.  At power = 1, or with tied sources (equal rows), a row is flat
    over stretches wider than its window, rounding puts its computed
    minimum anywhere along them, and the check fails on most inputs; those
    inputs return None at once, without the pass.  A NaN window gives a NaN
    row.
    """
    if power == 1.0 or np.any(y[1:] == y[:-1]):
        return None
    step = np.flatnonzero(np.diff(ii))  # the last cell of every row but the last
    fc = jj[np.concatenate([[0], step + 1])]
    lc = jj[np.concatenate([step, [ii.size - 1]])]
    lo = np.concatenate([[0], fc[:-1]])
    hi = np.concatenate([lc[1:], [z.size - 1]])
    width = hi - lo + 1
    rows = np.repeat(np.arange(y.size), width)
    begin = np.cumsum(width) - width
    cols = np.arange(rows.size) + (lo - begin)[rows]
    vals = np.abs(y[rows] - z[cols]) ** power - psi[cols]
    out = np.minimum.reduceat(vals, begin)
    # the cells at their row's minimum (all of a NaN row), in order: every row has one
    hits = np.flatnonzero(~(vals > out[rows]))
    new_row = np.flatnonzero(np.diff(rows[hits])) + 1
    first, last = cols[hits[new_row]], cols[hits[new_row - 1]]  # rows 1..N-1, rows 0..N-2
    chained = np.all(fc[:-1] <= last) and np.all(first <= lc[1:])
    return out if chained else None


def _line_transform(v, a, b, power):
    """min_j (|a_i - b_j|^power - v_j) for every i, on supports in any order."""
    a, b = np.asarray(a, dtype=float).ravel(), np.asarray(b, dtype=float).ravel()
    v = np.asarray(v, dtype=float)
    if v.shape != b.shape:
        raise ValueError(f"potential has shape {v.shape}, the other side has {b.size} points")
    if power < 1.0:
        raise ValueError("power must be >= 1")
    order_a = np.argsort(a, kind="stable")
    order_b = np.argsort(b, kind="stable")
    out = np.empty(a.size)
    out[order_a] = _monge_row_min(a[order_a], b[order_b], v[order_b], power)
    return out


def cbar_transform_1d(psi, y, z, power: float = 2.0) -> np.ndarray:
    """cbar_transform(psi, C) for C_ij = |y_i - z_j|^power on the line, power >= 1.

    Forms no N x M matrix: O((N + M) log(N + M)) work, the sorts and the
    monotone row minima of `_monge_row_min`.  Equals the dense transform up
    to rounding.
    """
    return _line_transform(psi, y, z, power)


def c_transform_1d(phi, y, z, power: float = 2.0) -> np.ndarray:
    """c_transform(phi, C) for C_ij = |y_i - z_j|^power on the line, power >= 1:
    cbar_transform_1d with the roles of the sources and targets swapped."""
    return _line_transform(phi, z, y, power)


def _propagate_psi(cost, ii):
    """psi of phi_i + psi_j = cost[k] on the cells of a staircase, ii[k] the row of cell k.

    Consecutive cells differ by one unit step, to the next source or to the
    next target, and each step meets one new potential: psi is cost[0] plus
    the cumulative sum of the cost differences over the target steps.
    """
    to_next_source = np.diff(ii) == 1
    return cost[0] + np.concatenate([[0.0], np.cumsum(np.diff(cost)[~to_next_source])])


def wasserstein_1d(y, p, z, q, power: float = 2.0) -> OtResult:
    """Exact OT on the line for the cost |y - z|^power, power >= 1.

    Weights are checked and renormalized as for `wasserstein`; a zero-weight
    atom still gets a potential.  The monotone (quantile) coupling, the
    `staircase` of the sorted supports, is optimal for convex costs.  psi
    is propagated along the staircase's cells and, as in `wasserstein`,
    phi = cbar_transform(psi), which is dual feasible by construction.  phi
    is taken on windows around the staircase (about three columns a row
    when N = M), in one O(N + M) pass, when the windows' minima certify
    themselves by the Monge chain of `_staircase_row_min`: on sources
    without ties at power > 1 they do.  Otherwise, and at once at power 1
    or on tied sources, phi comes from the O((N + M) log N) divide and
    conquer of `_monge_row_min`.  The
    certificate is the duality gap between that dual pair and the primal
    value, checked against the tolerance of the largest cost, which the
    result keeps as largest_cost; a failed check, or a NaN or infinite
    point, raises ArithmeticError, and a largest cost that overflows raises
    ValueError, as `wasserstein` does.

    The plan is the staircase's N + M - 1 cells.  Cost: O((N + M) log(N + M))
    -- the sorts, the staircase, and the cbar-transform -- and no N x M
    matrix.
    """
    y = np.asarray(y, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    p, q = probability_vector(np.ravel(p), "p"), probability_vector(np.ravel(q), "q")
    if power < 1.0:
        raise ValueError("power must be >= 1")
    if y.shape != p.shape or z.shape != q.shape:
        raise ValueError("points and weights length mismatch")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
        raise ArithmeticError("1-d potentials cannot be verified on a NaN or infinite point")

    order_y = np.argsort(y, kind="stable")
    order_z = np.argsort(z, kind="stable")
    y_s, p_s = y[order_y], p[order_y]
    z_s, q_s = z[order_z], q[order_z]
    N, M = y.size, z.size
    with np.errstate(over="ignore"):
        largest_cost = float(max(abs(y_s[-1] - z_s[0]), abs(z_s[-1] - y_s[0])) ** power)
    if not np.isfinite(largest_cost):
        raise ValueError("non-finite cost")

    ii, jj, mm = staircase(p_s, q_s)
    cost = np.abs(y_s[ii] - z_s[jj]) ** power
    value = float(mm @ cost)
    psi_s = _propagate_psi(cost, ii)
    phi_s = _staircase_row_min(y_s, z_s, psi_s, power, ii, jj)
    if phi_s is None:
        phi_s = _monge_row_min(y_s, z_s, psi_s, power)
    gap = abs(float(phi_s @ p_s + psi_s @ q_s) - value)
    if not gap <= tolerance.of(largest_cost):
        raise ArithmeticError(
            f"1-d potentials failed verification (gap {gap:.3e}); "
            "cost may not be convex on this data"
        )

    phi = np.empty(N)
    psi = np.empty(M)
    phi[order_y] = phi_s
    psi[order_z] = psi_s
    plan = TransportPlan(order_y[ii], order_z[jj], mm, (N, M))
    return OtResult(value, plan, PotentialPair(phi, psi), largest_cost)
