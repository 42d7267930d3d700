"""Exact transport linear programs by a revised simplex method.

`solve_lp` minimizes C.x over couplings x >= 0 of the weights (p, q): row i
sums the cells of source i to p_i and row N + j those of target j to q_j.
Column i*M + j is cell (i, j), and column N*M + r is the artificial of row
r.  Phase I starts from the artificials; Phase II uses Dantzig pricing and
switches to Bland's rule for anti-cycling.  The rows have rank N + M - 1, so
one artificial stays basic at zero.  The basis inverse is kept dense and
refreshed every REFACTOR_PERIOD pivots.  Every column holds ones only, so
pricing and the entering column are sums of two entries, with no sparse
matrix.

Warm start: every optimal solve returns its final basis (`LpSolution.basis`),
and `solve_lp(..., start=basis)` begins Phase II from it when it factors, is
primal feasible and holds no artificial above zero; otherwise Phase I runs as
for a cold solve.  A sequence of problems that share p and q and differ in
the cost -- the per-entry transport LPs of an alignment -- thus pays Phase I
once.  Thresholds (`wassalign.tolerance`) are REL * max|c| on reduced costs
and REL * max|b| on primal values, so the pivot rules do not depend on the
units of C or of the weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from wassalign import tolerance

__all__ = [
    "TransportLp",
    "LpSolution",
    "LpSolverError",
    "LpStatus",
    "solve_lp",
    "check_solution",
]

REFACTOR_PERIOD = 50
MAX_ITERATIONS = 500_000


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    FAILED = "failed"  # numerical breakdown, distinct from infeasible


class LpSolverError(RuntimeError):
    """Raised by callers when a solve does not end in a usable status."""


@dataclass(frozen=True, eq=False)
class TransportLp:
    """min C.x over x >= 0 with row sums p and column sums q of x.

    p and q are nonnegative; unequal totals make the LP infeasible.
    """

    cost: np.ndarray  # (N, M)
    p: np.ndarray  # (N,)
    q: np.ndarray  # (M,)

    def __post_init__(self):
        C = np.asarray(self.cost, dtype=float)
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if C.ndim != 2 or C.size == 0:
            raise ValueError(f"cost must be a nonempty matrix, got shape {C.shape}")
        if p.shape != (C.shape[0],) or q.shape != (C.shape[1],):
            raise ValueError(f"weights ({p.shape}, {q.shape}) do not match cost shape {C.shape}")
        if not (np.all(np.isfinite(C)) and np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValueError("non-finite cost or weight")
        if np.any(p < 0) or np.any(q < 0):
            raise ValueError("negative weight")
        object.__setattr__(self, "cost", C)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n_rows(self) -> int:
        return self.p.size + self.q.size

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.p, self.q])


@dataclass
class LpSolution:
    """Solver output; primal/dual vectors are None unless status is OPTIMAL."""

    status: LpStatus
    primal: np.ndarray | None = None  # cell values, flat in cell order
    dual_rows: np.ndarray | None = None  # one multiplier per row
    objective: float | None = None
    iterations: int = 0
    message: str = ""
    # optimal basis as column indices, for solve_lp(start=...)
    basis: np.ndarray | None = None


def _cell_sums(v: np.ndarray, N: int) -> np.ndarray:
    """v_i + v_(N+j) for every cell (i, j): the product of v with every cell column."""
    return (v[:N, None] + v[None, N:]).ravel()


# ---------------------------------------------------------------------------
# revised simplex
# ---------------------------------------------------------------------------


def _dantzig_order(d, neg):
    """Entering candidates, most negative reduced cost first.

    The full sort is deferred: nearly always the first candidate admits a
    pivot, and the rest are only needed to sidestep a numerical breakdown.
    """
    j0 = int(neg[np.argmin(d[neg])])
    yield j0
    rest = neg[neg != j0]
    for j in rest[np.argsort(d[rest], kind="stable")]:
        yield int(j)


class _Simplex:
    def __init__(self, prob: TransportLp):
        N, M = prob.cost.shape
        self.N, self.M = N, M
        self.n_cells = N * M
        self.m = N + M
        self.n_total = self.n_cells + self.m
        self.b = prob.rhs()
        self.c = np.concatenate([prob.cost.ravel(), np.zeros(self.m)])
        self.is_artificial = np.arange(self.n_total) >= self.n_cells
        self.basis = np.arange(self.n_cells, self.n_total)
        self.in_basis = self.is_artificial.copy()
        self.Binv = np.eye(self.m)
        self.x_B = self.b.copy()
        self.iterations = 0
        self.pivots_since_refactor = 0
        # primal values: feasibility, Phase I residual and ratio-test ties
        self.feas_tol = tolerance.of(self.b)

    def _times_columns(self, v: np.ndarray) -> np.ndarray:
        """v . a_j for every column a_j: the cells, then the artificials."""
        return np.concatenate([_cell_sums(v, self.N), v])

    def _column_image(self, j: int) -> np.ndarray:
        """Binv a_j."""
        if j < self.n_cells:
            i, t = divmod(j, self.M)
            return self.Binv[:, i] + self.Binv[:, self.N + t]
        return self.Binv[:, j - self.n_cells].copy()

    def _basis_matrix(self, basis: np.ndarray) -> np.ndarray:
        B = np.zeros((self.m, self.m))
        pos = np.arange(self.m)
        cell = basis < self.n_cells
        B[basis[cell] // self.M, pos[cell]] = 1.0
        B[self.N + basis[cell] % self.M, pos[cell]] = 1.0
        B[basis[~cell] - self.n_cells, pos[~cell]] = 1.0
        return B

    def refactor(self) -> None:
        """Recompute the basis inverse; a singular basis keeps the updated one."""
        try:
            self.Binv = np.linalg.inv(self._basis_matrix(self.basis))
        except np.linalg.LinAlgError:
            return
        self.x_B = self.Binv @ self.b
        np.maximum(self.x_B, 0.0, out=self.x_B)
        self.pivots_since_refactor = 0

    def start_from(self, basis) -> bool:
        """Adopt a start basis if it factors, is primal feasible within the
        feasibility threshold and holds no artificial above it; otherwise
        change nothing."""
        basis = np.asarray(basis)
        if basis.shape != (self.m,) or not np.issubdtype(basis.dtype, np.integer):
            return False
        if basis.min() < 0 or basis.max() >= self.n_total:
            return False
        B = self._basis_matrix(basis)
        try:
            Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        residual = np.abs(B @ Binv - np.eye(self.m)).max()
        if not np.all(np.isfinite(Binv)) or residual > tolerance.FACTOR_TOL:
            return False
        x_B = Binv @ self.b
        if x_B.min() < -self.feas_tol or np.any(x_B[self.is_artificial[basis]] > self.feas_tol):
            return False
        self.basis = basis.astype(np.int64)
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.Binv = Binv
        self.x_B = np.maximum(x_B, 0.0)
        return True

    def _pivot(self, j: int, r: int, a_hat: np.ndarray) -> None:
        theta = self.x_B[r] / a_hat[r]
        self.x_B -= theta * a_hat
        self.x_B[r] = theta
        np.maximum(self.x_B, 0.0, out=self.x_B)
        pivrow = self.Binv[r] / a_hat[r]
        self.Binv -= np.outer(a_hat, pivrow)
        self.Binv[r] = pivrow
        self.in_basis[self.basis[r]] = False
        self.in_basis[j] = True
        self.basis[r] = j
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_PERIOD:
            self.refactor()

    def run_phase(self, c_phase: np.ndarray, bland_after: int):
        """Minimize c_phase over the cells (artificials never enter); returns
        a status string."""
        dtol = tolerance.of(c_phase)
        while True:
            if self.iterations > MAX_ITERATIONS:
                return "failed: iteration limit"
            y = c_phase[self.basis] @ self.Binv
            d = c_phase - self._times_columns(y)
            d[self.is_artificial] = np.inf
            d[self.in_basis] = np.inf
            neg = np.flatnonzero(d < -dtol)
            if neg.size == 0:
                return "optimal"
            use_bland = self.iterations >= bland_after
            if use_bland:
                order = neg  # ascending column index: Bland's rule
            else:
                order = _dantzig_order(d, neg)  # most negative first, lazily sorted
            for j in order:
                j = int(j)
                a_hat = self._column_image(j)
                pos = a_hat > tolerance.PIVOT_TOL
                if not pos.any():
                    continue  # a ray, or only rounding noise: try another column
                ratios = np.full(self.m, np.inf)
                ratios[pos] = self.x_B[pos] / a_hat[pos]
                theta = ratios.min()
                cand = np.flatnonzero(ratios <= theta + self.feas_tol)
                if use_bland:
                    r = int(cand[np.argmin(self.basis[cand])])
                else:
                    r = int(cand[np.argmax(a_hat[cand])])
                self._pivot(j, r, a_hat)
                self.iterations += 1
                break
            else:
                # the transport polytope is bounded: a ray is a numerical breakdown
                return "failed: no admissible pivot"

    def drive_out_artificials(self) -> None:
        for r in range(self.m):
            if not self.is_artificial[self.basis[r]]:
                continue
            row_vec = self._times_columns(self.Binv[r])
            row_vec[self.is_artificial] = 0.0
            row_vec[self.in_basis] = 0.0
            j = int(np.argmax(np.abs(row_vec)))
            # otherwise the row is dependent and its artificial stays basic at 0
            if abs(row_vec[j]) > tolerance.DRIVE_OUT_TOL:
                self._pivot(j, r, self._column_image(j))


def solve_lp(prob: TransportLp, start=None) -> LpSolution:
    """Solve a transport LP exactly.

    start: the `basis` of an earlier optimal solution, typically of a
    problem with the same p and q and another cost; Phase II starts from it
    when it factors, is primal feasible and holds no artificial above zero,
    and Phase I runs otherwise.  Solutions are deterministic for a fixed
    input and start.
    """
    sx = _Simplex(prob)
    bland_after = 5 * (sx.m + sx.n_total)

    if start is not None and sx.start_from(start):
        # artificials left basic at zero are pivoted out where their row allows
        sx.drive_out_artificials()
    else:
        c1 = sx.is_artificial.astype(float)
        status = sx.run_phase(c1, bland_after)
        if status.startswith("failed"):
            return LpSolution(LpStatus.FAILED, iterations=sx.iterations, message=status)
        if float(c1[sx.basis] @ sx.x_B) > sx.feas_tol:
            # the updated values drift: a pivot on a ratio tie, or the clip at
            # zero, moves them off B^-1 b, so judge on a fresh factorization
            sx.refactor()
            if float(c1[sx.basis] @ sx.x_B) > sx.feas_tol:
                return LpSolution(LpStatus.INFEASIBLE, iterations=sx.iterations)
        sx.drive_out_artificials()

    status = sx.run_phase(sx.c, bland_after)
    if status.startswith("failed"):
        return LpSolution(LpStatus.FAILED, iterations=sx.iterations, message=status)

    primal = np.zeros(sx.n_total)
    primal[sx.basis] = sx.x_B
    primal = primal[: sx.n_cells]
    return LpSolution(
        LpStatus.OPTIMAL,
        primal=primal,
        dual_rows=sx.c[sx.basis] @ sx.Binv,
        objective=float(prob.cost.ravel() @ primal),
        iterations=sx.iterations,
        basis=sx.basis.copy(),
    )


def check_solution(prob: TransportLp, sol: LpSolution) -> dict:
    """Residuals of an OPTIMAL solution: primal/dual feasibility and gap."""
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError("check_solution expects an optimal solution")
    x, y = sol.primal, sol.dual_rows
    X = x.reshape(prob.cost.shape)
    b = prob.rhs()
    slack = np.concatenate([X.sum(axis=1), X.sum(axis=0)]) - b
    viol = max(float(np.abs(slack).max()), float(np.max(-x, initial=0.0)))
    # a cell at zero needs a nonnegative reduced cost, a positive cell a zero one
    z = prob.cost.ravel() - _cell_sums(y, prob.p.size)
    at_zero = x <= tolerance.of(x)
    var_viol = np.where(at_zero, -z, np.abs(z))
    scale = 1.0 + float(np.abs(prob.cost).max())
    return {
        "primal_infeasibility": viol,
        "dual_infeasibility": float(np.max(var_viol, initial=0.0)) / scale,
        "complementary_slackness": float(np.max(np.abs(y * slack), initial=0.0)),
        "duality_gap": abs(sol.objective - float(y @ b)),
    }
