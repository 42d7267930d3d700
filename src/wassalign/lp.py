"""Exact transport linear programs by a revised simplex method.

`solve_lp` minimizes C.x over couplings x >= 0 of the weights (p, q): row i
sums the cells of source i to p_i and row N + j those of target j to q_j.
Column i*M + j is cell (i, j).  Once the totals balance the last target row
is implied by the others, so the simplex keeps only the N + M - 1 rows
before it, and a basis is N + M - 1 cells that form a spanning tree of the
sources and targets.  The LP is infeasible exactly when the totals differ
by more than REL * max|b|; then no simplex runs.  Otherwise the simplex
starts from the north-west-corner `staircase` of (p, q) and uses Dantzig
pricing, switching to Bland's rule for anti-cycling.  The basis inverse is
kept dense and refreshed every REFACTOR_PERIOD pivots.  Every column holds
ones only, so pricing and the entering column are sums of two entries, with
no sparse matrix, and every entry of a tree basis's inverse is 0 or +-1.

Warm start: every optimal solve returns its final basis (`LpSolution.basis`),
and `solve_lp(..., start=basis)` begins from it in place of the staircase
when it factors and is primal feasible.  A sequence of problems that share
p and q and differ in the cost -- the per-entry transport LPs of an
alignment -- thus starts each entry at the previous optimum.  Thresholds
(`wassalign.tolerance`) are REL * max|c| on reduced costs and REL * max|b|
on primal values, so the pivot rules do not depend on the units of C or of
the weights.
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
    "staircase",
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
    dual_rows: np.ndarray | None = None  # one multiplier per row, 0 on the last
    objective: float | None = None
    iterations: int = 0
    message: str = ""
    # optimal basis as N + M - 1 cell indices, for solve_lp(start=...)
    basis: np.ndarray | None = None


def _cell_sums(v: np.ndarray, N: int) -> np.ndarray:
    """v_i + v_(N+j) for every cell (i, j): the product of v with every cell column."""
    return (v[:N, None] + v[None, N:]).ravel()


def staircase(p, q):
    """The north-west-corner coupling of the weights p and q, in index order.

    A merge of the two cumulative distributions: every partial sum of p but
    the total is a step to the next source, every such partial sum of q a
    step to the next target, and the steps are taken in the order of their
    positions, source steps first at ties (a stable argsort).  Returns the
    (i, j, mass) arrays of the N + M - 1 cells the walk visits, which form a
    spanning tree of the sources and targets; the mass of a cell is the
    distance between the positions of the steps into and out of it, with
    every position clipped to the smaller total, so masses are nonnegative
    and the marginals hold up to the rounding of the cumulative sums.  When
    both atoms run out together the walk steps through (i + 1, j) with zero
    mass, which keeps the tree connected; every atom, zero-weight ones too,
    gets a cell.  For sorted points on the line this is the monotone
    (quantile) coupling.  O((N + M) log(N + M)) time, in numpy.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    P, Q = np.cumsum(p), np.cumsum(q)
    steps = np.concatenate([P[:-1], Q[:-1]])
    order = np.argsort(steps, kind="stable")
    to_next_source = order < p.size - 1
    ii = np.concatenate([[0], np.cumsum(to_next_source)])
    jj = np.concatenate([[0], np.cumsum(~to_next_source)])
    total = min(P[-1], Q[-1])
    cuts = np.concatenate([[0.0], np.minimum(steps[order], total), [total]])
    return ii, jj, np.diff(cuts)


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
    """The simplex on the rows of the sources and of every target but the last."""

    def __init__(self, prob: TransportLp):
        N, M = prob.cost.shape
        self.N, self.M = N, M
        self.n_cells = N * M
        self.m = N + M - 1
        self.b = prob.rhs()[:-1]
        self.c = prob.cost.ravel()
        # basis, Binv and x_B are set by start_from or from the staircase
        self.in_basis = np.zeros(self.n_cells, dtype=bool)
        self.iterations = 0
        self.pivots_since_refactor = 0
        # primal values: feasibility and the balance of the totals
        self.feas_tol = tolerance.of(prob.p, prob.q)

    def duals(self) -> np.ndarray:
        """Row multipliers c_B B^-1, with 0 on the dropped last row."""
        return np.append(self.c[self.basis] @ self.Binv, 0.0)

    def _column_image(self, j: int) -> np.ndarray:
        """Binv a_j."""
        i, t = divmod(j, self.M)
        if t == self.M - 1:
            return self.Binv[:, i].copy()
        return self.Binv[:, i] + self.Binv[:, self.N + t]

    def _basis_matrix(self, basis: np.ndarray) -> np.ndarray:
        B = np.zeros((self.m + 1, self.m))
        pos = np.arange(self.m)
        B[basis // self.M, pos] = 1.0
        B[self.N + basis % self.M, pos] = 1.0
        return B[:-1]

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
        """Adopt a start basis if it factors and is primal feasible within the
        feasibility threshold; otherwise change nothing."""
        basis = np.asarray(basis)
        if basis.shape != (self.m,) or not np.issubdtype(basis.dtype, np.integer):
            return False
        if basis.min() < 0 or basis.max() >= self.n_cells:
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
        if x_B.min() < -self.feas_tol:
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

    def run(self, bland_after: int):
        """Minimize the cost from the current basis; returns a status string."""
        dtol = tolerance.of(self.c)
        while True:
            if self.iterations > MAX_ITERATIONS:
                return "failed: iteration limit"
            d = self.c - _cell_sums(self.duals(), self.N)
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
                # the exact minimum: a longer step would drive another basic
                # value negative (a tree basis's a_hat holds only 0 and +-1)
                cand = np.flatnonzero(ratios <= ratios.min())
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


def solve_lp(prob: TransportLp, start=None) -> LpSolution:
    """Solve a transport LP exactly.

    INFEASIBLE when the totals of p and q differ by more than REL * max|b|.
    start: the `basis` of an earlier optimal solution, typically of a
    problem with the same p and q and another cost; the simplex starts from
    it when it factors and is primal feasible, and from the north-west-corner
    staircase of (p, q) otherwise.  Solutions are deterministic for a fixed
    input and start.
    """
    sx = _Simplex(prob)
    if abs(prob.p.sum() - prob.q.sum()) > sx.feas_tol:
        return LpSolution(LpStatus.INFEASIBLE, message="the totals of p and q differ")
    if start is None or not sx.start_from(start):
        ii, jj, _ = staircase(prob.p, prob.q)
        sx.basis = ii * sx.M + jj
        sx.in_basis[sx.basis] = True
        sx.refactor()

    status = sx.run(bland_after=5 * (sx.m + sx.n_cells))
    if status.startswith("failed"):
        return LpSolution(LpStatus.FAILED, iterations=sx.iterations, message=status)

    primal = np.zeros(sx.n_cells)
    primal[sx.basis] = sx.x_B
    return LpSolution(
        LpStatus.OPTIMAL,
        primal=primal,
        dual_rows=sx.duals(),
        objective=float(prob.cost.ravel() @ primal),
        iterations=sx.iterations,
        basis=sx.basis.copy(),
    )
