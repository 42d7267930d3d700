"""Exact sparse linear programming by a revised simplex method.

Standard-form conversion (free variables split, >= rows negated, finite upper
bounds turned into explicit rows), Phase I with artificial variables, Phase II
with Dantzig pricing switching to Bland's rule for anti-cycling.  The basis
inverse is kept dense and refreshed every REFACTOR_PERIOD pivots.

Warm start: every optimal solve returns its final basis (`LpSolution.basis`),
and `solve_lp(..., start=basis)` begins Phase II from it when it factors, is
primal feasible and holds no artificial above zero; otherwise Phase I runs as
for a cold solve.  A sequence of problems that share their rows and right-hand
side and differ in the objective -- the per-entry transport LPs of an
alignment -- thus pays Phase I once.

Problems with far more rows than columns (the alignment dual LP is the
motivating case: N*M*l inequalities over N*l + M variables) and only [0, inf)
or free variables are solved through their LP dual: the dual has one row per
original variable, so the simplex basis stays small, and the original
primal/dual pair is recovered exactly from the dual solve.  Thresholds
(`wassalign.tolerance`) are REL * max|c| on reduced costs and REL * max|b| on
primal values, so the pivot rules do not depend on the units of c or b.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from wassalign import tolerance

__all__ = [
    "LpProblem",
    "LpSolution",
    "LpSolverError",
    "LpStatus",
    "solve_lp",
    "check_solution",
]

REFACTOR_PERIOD = 50
MAX_ITERATIONS = 500_000

# Orientation-swap heuristics: only problems this much taller than wide, and
# this large in absolute terms, are solved through their dual.
SWAP_ROW_FACTOR = 4
SWAP_MIN_ROWS = 1000

_RELATIONS = ("<=", "==", ">=")


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FAILED = "failed"  # numerical breakdown, distinct from infeasible


class LpSolverError(RuntimeError):
    """Raised by callers when a solve does not end in a usable status."""


class LpProblem:
    """min or max of a sparse objective under sparse <=, ==, >= rows.

    Variables default to bounds [0, +inf); use `set_bounds` for free variables
    (lower=-inf) or finite ranges.  All coefficients must be finite.
    """

    def __init__(self, n_vars: int, objective=None, maximize: bool = False):
        if n_vars < 1:
            raise ValueError("an LP needs at least one variable")
        self.n_vars = int(n_vars)
        self.maximize = bool(maximize)
        if objective is None:
            self.objective = np.zeros(self.n_vars)
        else:
            self.objective = np.asarray(objective, dtype=float).copy()
            if self.objective.shape != (self.n_vars,):
                raise ValueError(
                    f"objective shape {self.objective.shape} != ({self.n_vars},)"
                )
            if not np.all(np.isfinite(self.objective)):
                raise ValueError("objective has non-finite coefficients")
        self.lower = np.zeros(self.n_vars)
        self.upper = np.full(self.n_vars, np.inf)
        # constraint rows in insertion order, kept as pieces of one CSR matrix:
        # column indices, values, entries per row, relation codes, rhs
        self._cols: list = []
        self._vals: list = []
        self._lengths: list = []
        self._codes: list = []
        self._rhs: list = []
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def set_bounds(self, lower=None, upper=None) -> None:
        if lower is not None:
            lo = np.broadcast_to(np.asarray(lower, dtype=float), (self.n_vars,))
            self.lower = lo.copy()
        if upper is not None:
            hi = np.broadcast_to(np.asarray(upper, dtype=float), (self.n_vars,))
            self.upper = hi.copy()
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("NaN bound")

    def add_row(self, cols, vals, relation: str, rhs: float) -> None:
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        if cols.shape != vals.shape:
            raise ValueError("cols and vals length mismatch")
        self._append(cols, vals, np.array([cols.size]), relation, np.array([rhs], dtype=float))

    def add_rows(self, A, relation: str, rhs) -> None:
        """Append every row of the sparse (n_new, n_vars) matrix A at once.

        All new rows share one relation; rhs is a scalar or one value per row.
        Entries are kept in A's stored order, as add_row keeps its cols.
        """
        A = sp.csr_matrix(A)
        if A.shape[1] != self.n_vars:
            raise ValueError(f"matrix has {A.shape[1]} columns, the LP has {self.n_vars}")
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), (A.shape[0],))
        self._append(
            A.indices.astype(np.int64),
            A.data.astype(float),
            np.diff(A.indptr).astype(np.int64),
            relation,
            rhs.copy(),
        )

    def _append(self, cols, vals, lengths, relation, rhs) -> None:
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_vars):
            raise ValueError("column index out of range")
        if not np.all(np.isfinite(vals)) or not np.all(np.isfinite(rhs)):
            raise ValueError("non-finite row coefficient or rhs")
        if relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {relation!r}")
        self._cols.append(cols)
        self._vals.append(vals)
        self._lengths.append(lengths)
        self._codes.append(np.full(rhs.size, _RELATIONS.index(relation), dtype=np.int8))
        self._rhs.append(rhs)
        self._n_rows += rhs.size

    def _rows_flat(self):
        """(row index per entry, cols, vals, relation codes, rhs), in insertion order."""
        if len(self._rhs) != 1:
            # fold the pieces into one, so repeated reads concatenate once
            parts = (self._cols, self._vals, self._lengths, self._codes, self._rhs)
            dtypes = (np.int64, float, np.int64, np.int8, float)
            for part, dtype in zip(parts, dtypes):
                merged = np.concatenate(part) if part else np.zeros(0, dtype=dtype)
                part[:] = [merged]
        rows = np.repeat(np.arange(self._n_rows, dtype=np.int64), self._lengths[0])
        return rows, self._cols[0], self._vals[0], self._codes[0], self._rhs[0]

    def rows(self):
        _, cols, vals, codes, rhs = self._rows_flat()
        ends = np.concatenate([[0], np.cumsum(self._lengths[0])])
        for i in range(self._n_rows):
            lo, hi = ends[i], ends[i + 1]
            yield cols[lo:hi], vals[lo:hi], _RELATIONS[codes[i]], float(rhs[i])

    def rhs_vector(self) -> np.ndarray:
        return self._rows_flat()[4].copy()

    def relations(self) -> list:
        return [_RELATIONS[c] for c in self._rows_flat()[3]]

    def matrix(self) -> sp.csr_matrix:
        """Constraint rows as an (n_rows, n_vars) CSR matrix."""
        rows, cols, vals, _, _ = self._rows_flat()
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n_rows, self.n_vars))


@dataclass
class LpSolution:
    """Solver output; primal/dual vectors are None unless status is OPTIMAL."""

    status: LpStatus
    primal: np.ndarray | None = None
    dual_rows: np.ndarray | None = None
    objective: float | None = None
    dual_objective: float | None = None
    iterations: int = 0
    message: str = ""
    # optimal basis as standard-form column indices, for solve_lp(start=...);
    # None unless OPTIMAL on the direct orientation
    basis: np.ndarray | None = None


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------


class _StandardForm:
    """min c.x  s.t.  A x = b (b >= 0), x >= 0, built from an LpProblem."""

    def __init__(self, p: LpProblem):
        cmin = -p.objective if p.maximize else p.objective

        # variable transforms: x_orig = shift + sign * u  (or u - v when free)
        no_lower, no_upper = np.isneginf(p.lower), np.isposinf(p.upper)
        free = no_lower & no_upper
        flipped = no_lower & ~no_upper  # x = hi - u
        boxed = ~no_lower & ~no_upper  # x = lo + u with a row u <= hi - lo
        width = np.where(free, 2, 1)
        col_plus = np.cumsum(width) - width
        col_minus = np.where(free, col_plus + 1, -1)
        shift = np.where(flipped, p.upper, np.where(no_lower, 0.0, p.lower))
        sign = np.where(flipped, -1.0, 1.0)
        ncol = int(width.sum())
        self.n_struct = ncol
        self.col_plus, self.col_minus = col_plus, col_minus
        self.shift, self.sign = shift, sign

        # structural cost vector
        c_struct = np.zeros(ncol)
        c_struct[col_plus] = sign * cmin
        has_minus = col_minus >= 0
        c_struct[col_minus[has_minus]] = -cmin[has_minus]

        # original rows first (>= rows negated, then each row signed so that
        # its rhs is nonnegative), then one row per finite upper bound
        rows, cols, vals, codes, rhs = p._rows_flat()
        m_orig = p.n_rows
        bound_vars = np.flatnonzero(boxed)
        ub = p.upper[bound_vars] - p.lower[bound_vars]
        if np.any(ub < 0):
            raise ValueError("inconsistent bounds")
        m = m_orig + bound_vars.size
        s = np.where(codes == _RELATIONS.index(">="), -1.0, 1.0)
        offset = np.zeros(m_orig)
        if np.any(shift != 0.0):
            offset = np.bincount(rows, weights=vals * shift[cols], minlength=m_orig)
        rhs_adj = s * (rhs - offset)
        flip = rhs_adj < 0
        row_sign = np.ones(m)
        row_sign[:m_orig] = np.where(flip, -s, s)
        b = np.concatenate([np.where(flip, -rhs_adj, rhs_adj), ub])
        # 0: equality row, +1/-1: slack coefficient
        row_slack = np.where(codes == _RELATIONS.index("=="), 0.0, np.where(flip, -1.0, 1.0))
        slack_sign = np.concatenate([row_slack, np.ones(bound_vars.size)])

        entry_sign = row_sign[rows]
        minus = col_minus[cols] >= 0
        coo_r = [rows, rows[minus], m_orig + np.arange(bound_vars.size)]
        coo_c = [col_plus[cols], col_minus[cols[minus]], col_plus[bound_vars]]
        coo_v = [
            entry_sign * vals * sign[cols],
            -entry_sign[minus] * vals[minus],
            np.ones(bound_vars.size),
        ]

        # slack columns, in row order
        slack_rows = np.flatnonzero(slack_sign != 0.0)
        slack_col_of_row = np.full(m, -1, dtype=np.int64)
        slack_col_of_row[slack_rows] = ncol + np.arange(slack_rows.size)
        ncol += slack_rows.size
        coo_r.append(slack_rows)
        coo_c.append(slack_col_of_row[slack_rows])
        coo_v.append(slack_sign[slack_rows])

        # artificial columns: one per row whose slack cannot start basic
        art_rows = np.flatnonzero(slack_sign <= 0.0)
        art_cols = np.full(m, -1, dtype=np.int64)
        art_cols[art_rows] = ncol + np.arange(art_rows.size)
        ncol += art_rows.size
        coo_r.append(art_rows)
        coo_c.append(art_cols[art_rows])
        coo_v.append(np.ones(art_rows.size))
        self.art_cols = art_cols
        self.n_total = ncol
        self.m = m
        self.m_orig = m_orig
        self.b = b
        self.row_sign = row_sign
        self.basis0 = np.where(art_cols >= 0, art_cols, slack_col_of_row)

        self.A = sp.csc_matrix(
            (np.concatenate(coo_v), (np.concatenate(coo_r), np.concatenate(coo_c))),
            shape=(m, ncol),
        )
        self.AT = self.A.T.tocsr()

        c_full = np.zeros(ncol)
        c_full[: self.n_struct] = c_struct
        self.c = c_full
        self.is_artificial = np.zeros(ncol, dtype=bool)
        self.is_artificial[art_cols[art_rows]] = True
        self.minimize_value_sign = -1.0 if p.maximize else 1.0

    def column(self, j: int):
        a = self.A
        lo, hi = a.indptr[j], a.indptr[j + 1]
        return a.indices[lo:hi], a.data[lo:hi]

    def recover_primal(self, x_std: np.ndarray) -> np.ndarray:
        x = self.shift + self.sign * x_std[self.col_plus]
        has_minus = self.col_minus >= 0
        x[has_minus] -= x_std[self.col_minus[has_minus]]
        return x

    def recover_duals(self, y_std: np.ndarray) -> np.ndarray:
        """Row multipliers of the original problem from standard-form duals."""
        y = y_std[: self.m_orig] * self.row_sign[: self.m_orig]
        return y * self.minimize_value_sign


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
    def __init__(self, sf: _StandardForm):
        self.sf = sf
        self.basis = sf.basis0.copy()
        self.in_basis = np.zeros(sf.n_total, dtype=bool)
        self.in_basis[self.basis] = True
        self.Binv = np.eye(sf.m)
        self.x_B = sf.b.copy()
        self.iterations = 0
        self.pivots_since_refactor = 0
        # primal values: feasibility, Phase I residual and ratio-test ties
        self.feas_tol = tolerance.of(sf.b)

    def refactor(self) -> None:
        """Recompute the basis inverse; a singular basis keeps the updated one."""
        B = self.sf.A[:, self.basis].toarray()
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return
        self.x_B = self.Binv @ self.sf.b
        np.maximum(self.x_B, 0.0, out=self.x_B)
        self.pivots_since_refactor = 0

    def start_from(self, basis) -> bool:
        """Adopt a start basis if it factors, is primal feasible within the
        feasibility threshold and holds no artificial above it; otherwise
        change nothing."""
        sf = self.sf
        basis = np.asarray(basis)
        if basis.shape != (sf.m,) or not np.issubdtype(basis.dtype, np.integer):
            return False
        if sf.m == 0:
            return True
        if basis.min() < 0 or basis.max() >= sf.n_total:
            return False
        B = sf.A[:, basis].toarray()
        try:
            Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        residual = np.abs(B @ Binv - np.eye(sf.m)).max()
        if not np.all(np.isfinite(Binv)) or residual > tolerance.FACTOR_TOL:
            return False
        x_B = Binv @ sf.b
        if x_B.min() < -self.feas_tol or np.any(x_B[sf.is_artificial[basis]] > self.feas_tol):
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

    def run_phase(self, c_phase: np.ndarray, enterable: np.ndarray, bland_after: int):
        """Minimize c_phase over the standard form; returns a status string."""
        sf = self.sf
        dtol = tolerance.of(c_phase)
        while True:
            if self.iterations > MAX_ITERATIONS:
                return "failed: iteration limit"
            y = c_phase[self.basis] @ self.Binv
            d = c_phase - sf.AT @ y
            d[~enterable] = np.inf
            d[self.in_basis] = np.inf
            neg = np.flatnonzero(d < -dtol)
            if neg.size == 0:
                return "optimal"
            use_bland = self.iterations >= bland_after
            if use_bland:
                order = neg  # ascending column index: Bland's rule
            else:
                order = _dantzig_order(d, neg)  # most negative first, lazily sorted
            pivoted = False
            for j in order:
                j = int(j)
                idx, vals = sf.column(j)
                a_hat = self.Binv[:, idx] @ vals
                pos = a_hat > tolerance.PIVOT_TOL
                if not pos.any():
                    if a_hat.max(initial=-np.inf) > 0.0:
                        continue  # only sub-threshold pivots in this column: try another
                    return "unbounded"
                ratios = np.full(sf.m, np.inf)
                ratios[pos] = self.x_B[pos] / a_hat[pos]
                theta = ratios.min()
                cand = np.flatnonzero(ratios <= theta + self.feas_tol)
                if use_bland:
                    r = int(cand[np.argmin(self.basis[cand])])
                else:
                    r = int(cand[np.argmax(a_hat[cand])])
                self._pivot(j, r, a_hat)
                self.iterations += 1
                pivoted = True
                break
            if not pivoted:
                # every improving column's positive entries are rounding noise:
                # numerically, each of these columns is a ray
                return "unbounded"

    def drive_out_artificials(self) -> None:
        sf = self.sf
        for r in range(sf.m):
            if not sf.is_artificial[self.basis[r]]:
                continue
            row_vec = sf.AT @ self.Binv[r]
            row_vec[sf.is_artificial] = 0.0
            row_vec[self.in_basis] = 0.0
            j = int(np.argmax(np.abs(row_vec)))
            # otherwise the row is dependent and its artificial stays basic at 0
            if abs(row_vec[j]) > tolerance.DRIVE_OUT_TOL:
                idx, vals = sf.column(j)
                self._pivot(j, r, self.Binv[:, idx] @ vals)


def _solve_direct(p: LpProblem, start=None) -> LpSolution:
    sf = _StandardForm(p)
    sx = _Simplex(sf)
    bland_after = 5 * (sf.m + sf.n_total)

    if start is not None and sx.start_from(start):
        # artificials left basic at zero are pivoted out where their row allows
        sx.drive_out_artificials()
    elif (sf.art_cols >= 0).any():
        c1 = np.zeros(sf.n_total)
        c1[sf.is_artificial] = 1.0
        enterable = ~sf.is_artificial
        status = sx.run_phase(c1, enterable, bland_after)
        if status.startswith("failed"):
            return LpSolution(LpStatus.FAILED, iterations=sx.iterations, message=status)
        if status == "unbounded":
            return LpSolution(
                LpStatus.FAILED, iterations=sx.iterations, message="phase-1 unbounded"
            )
        phase1_obj = float(c1[sx.basis] @ sx.x_B)
        if phase1_obj > sx.feas_tol:
            return LpSolution(LpStatus.INFEASIBLE, iterations=sx.iterations)
        sx.drive_out_artificials()

    enterable = ~sf.is_artificial
    status = sx.run_phase(sf.c, enterable, bland_after)
    if status.startswith("failed"):
        return LpSolution(LpStatus.FAILED, iterations=sx.iterations, message=status)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, iterations=sx.iterations)

    x_std = np.zeros(sf.n_total)
    x_std[sx.basis] = sx.x_B
    primal = sf.recover_primal(x_std)
    y_std = sf.c[sx.basis] @ sx.Binv
    duals = sf.recover_duals(y_std)
    obj = float(p.objective @ primal)
    dual_obj = _dual_objective(p, duals)
    return LpSolution(
        LpStatus.OPTIMAL,
        primal=primal,
        dual_rows=duals,
        objective=obj,
        dual_objective=dual_obj,
        iterations=sx.iterations,
        basis=sx.basis.copy(),
    )


# ---------------------------------------------------------------------------
# duals, checking, orientation swap
# ---------------------------------------------------------------------------


def _reduced_costs(p: LpProblem, y: np.ndarray) -> np.ndarray:
    return p.objective - p.matrix().T @ y


def _dual_objective(p: LpProblem, y: np.ndarray) -> float:
    """Dual objective evaluated from original data: y.b plus bound terms."""
    z = _reduced_costs(p, y)
    val = float(y @ p.rhs_vector())
    # bound terms: positive reduced costs bind at one bound, negative at the other
    pos_bound, neg_bound = (p.upper, p.lower) if p.maximize else (p.lower, p.upper)
    pos = (z > 0) & np.isfinite(pos_bound)
    neg = (z < 0) & np.isfinite(neg_bound)
    val += float(pos_bound[pos] @ z[pos]) + float(neg_bound[neg] @ z[neg])
    return val


def check_solution(p: LpProblem, sol: LpSolution) -> dict:
    """Residuals of an OPTIMAL solution: primal/dual feasibility and gap."""
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError("check_solution expects an optimal solution")
    x, y = sol.primal, sol.dual_rows
    codes, rhs = p._rows_flat()[3:]
    slack = p.matrix() @ x - rhs
    sense = 1.0 - codes  # +1 on <= rows, 0 on == rows, -1 on >= rows
    viol = max(
        float(np.max(np.where(sense == 0.0, np.abs(slack), sense * slack), initial=0.0)),
        float(np.max(p.lower - x, initial=0.0)),
        float(np.max(x - p.upper, initial=0.0)),
    )

    # minimization convention: z_j >= 0 at lower bound, <= 0 at upper
    s = -1.0 if p.maximize else 1.0
    z = s * _reduced_costs(p, y)
    scale = 1.0 + float(np.abs(p.objective).max(initial=0.0))
    bound_tol = tolerance.of(x, p.lower[np.isfinite(p.lower)], p.upper[np.isfinite(p.upper)])
    at_lower = x <= p.lower + bound_tol
    at_upper = x >= p.upper - bound_tol
    var_viol = np.where(at_lower, -z, np.where(at_upper, z, np.abs(z)))
    var_viol[at_lower & at_upper] = 0.0
    # row multiplier signs (min: y <= 0 on <= rows, y >= 0 on >= rows) and
    # complementary slackness
    dviol = max(float(np.max(var_viol, initial=0.0)), float(np.max(s * sense * y, initial=0.0)))
    comp = float(np.max(np.abs(y * slack), initial=0.0))
    gap = abs(sol.objective - sol.dual_objective)
    return {
        "primal_infeasibility": float(viol),
        "dual_infeasibility": float(dviol / scale),
        "complementary_slackness": float(comp),
        "duality_gap": float(gap),
    }


def _swap_eligible(p: LpProblem) -> bool:
    if p.n_rows < SWAP_MIN_ROWS or p.n_rows < SWAP_ROW_FACTOR * p.n_vars:
        return False
    plain = (p.lower == 0) & np.isposinf(p.upper)
    free = np.isneginf(p.lower) & np.isposinf(p.upper)
    return bool(np.all(plain | free))


def _dual_problem(p: LpProblem):
    """LP dual of p (for variables bounded [0, inf) or free).

    Returns (dual LpProblem, obj_sign, row_flip, order): original row r is
    dual variable r (>= rows carry a flipped sign, recorded in row_flip), and
    dual row i is original variable order[i], the free variables' "==" rows
    first, then the ">=" rows of the others.
    """
    # normalize to a max problem
    obj_sign = 1.0 if p.maximize else -1.0
    c = obj_sign * p.objective
    codes = p._rows_flat()[3]

    row_flip = np.where(codes == _RELATIONS.index(">="), -1.0, 1.0)
    dual = LpProblem(p.n_rows, objective=row_flip * p.rhs_vector(), maximize=False)
    dual.set_bounds(lower=np.where(codes == _RELATIONS.index("=="), -np.inf, 0.0))

    At = p.matrix().T.tocsr()  # (n_vars, n_rows)
    At.data *= row_flip[At.indices]
    free = np.isneginf(p.lower)
    order = np.concatenate([np.flatnonzero(free), np.flatnonzero(~free)])
    n_free = int(free.sum())
    dual.add_rows(At[order[:n_free]], "==", c[order[:n_free]])
    dual.add_rows(At[order[n_free:]], ">=", c[order[n_free:]])
    return dual, obj_sign, row_flip, order


def _solve_swapped(p: LpProblem) -> LpSolution:
    dual, obj_sign, row_flip, order = _dual_problem(p)
    dsol = _solve_direct(dual)
    if dsol.status is LpStatus.UNBOUNDED:
        return LpSolution(LpStatus.INFEASIBLE, iterations=dsol.iterations)
    if dsol.status is LpStatus.INFEASIBLE:
        return LpSolution(
            LpStatus.FAILED,
            iterations=dsol.iterations,
            message="swapped orientation: dual infeasible (primal unbounded or infeasible)",
        )
    if dsol.status is not LpStatus.OPTIMAL:
        return LpSolution(dsol.status, iterations=dsol.iterations, message=dsol.message)

    primal = np.empty(p.n_vars)
    primal[order] = dsol.dual_rows
    y = obj_sign * row_flip * dsol.primal
    obj = float(p.objective @ primal)
    return LpSolution(
        LpStatus.OPTIMAL,
        primal=primal,
        dual_rows=y,
        objective=obj,
        dual_objective=_dual_objective(p, y),
        iterations=dsol.iterations,
    )


def solve_lp(p: LpProblem, start=None) -> LpSolution:
    """Solve an LpProblem exactly.

    Very tall problems whose variables are all [0, inf) or free are solved
    through their LP dual (the swapped orientation), the others directly.
    start: the `basis` of an earlier optimal solution, typically of a
    problem with the same rows and rhs and another objective; Phase II
    starts from it when it factors, is primal feasible and holds no
    artificial above zero, and Phase I runs otherwise.  A start applies to
    the direct orientation only.  Solutions are deterministic for a fixed
    input and start.
    """
    if _swap_eligible(p):
        if start is not None:
            raise ValueError("a start basis applies to the direct orientation only")
        return _solve_swapped(p)
    return _solve_direct(p, start)
