"""Exact transport linear programs by the transportation simplex.

`solve_lp` minimizes C.x over couplings x >= 0 of the weights (p, q): row i
sums the cells of source i to p_i and row N + j those of target j to q_j.
Column i*M + j is cell (i, j).  Once the totals balance the last target row
is implied by the others, so a basis is N + M - 1 cells that form a
spanning tree of the sources and targets (Dantzig's u-v method).  The LP is
feasible: `TransportLp` refuses totals that differ by more than REL * max|b|.
The simplex starts from the north-west-corner `staircase` of (p, q).  Every
pivot walks the tree from the last target: the walk gives the potentials
(0 at the last target, y_i + y_(N+j) = C_ij on every tree cell), Dantzig
pricing picks the entering cell, and its cycle is the tree path between
its source and its target.  The leaving cell is
the cycle cell of least flow among those that lose mass, and the flows
change by exactly that flow, so none goes negative.  Bland's rule takes
over after BLAND_AFTER * (N + M - 1 + N * M) pivots, against cycling, and
`LpSolverError` ends a solve past MAX_ITERATIONS pivots.

Warm start: every optimal solve returns its final basis (`LpSolution.basis`),
and `solve_lp(..., start=basis)` begins from it in place of the staircase
when its cells form a spanning tree with feasible flows.  A sequence of
problems that share p and q and differ in the cost -- the per-entry
transport LPs of an alignment -- thus starts each entry at the previous
optimum.  Thresholds (`wassalign.tolerance`) are REL * max|c| on reduced
costs and REL * max|b| on primal values, so the pivot rules do not depend
on the units of C or of the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wassalign import tolerance

__all__ = [
    "TransportLp",
    "LpSolution",
    "LpSolverError",
    "solve_lp",
    "staircase",
]

MAX_ITERATIONS = 500_000
BLAND_AFTER = 5  # Bland's rule after BLAND_AFTER * (N + M - 1 + N * M) pivots


class LpSolverError(RuntimeError):
    """A solve that ends without a certified optimum."""


@dataclass(frozen=True, eq=False)
class TransportLp:
    """min C.x over x >= 0 with row sums p and column sums q of x.

    Raises ValueError on shapes that do not match, a non-finite entry, a
    negative weight, or totals of p and q that differ by more than REL * max|b|.
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
        if abs(p.sum() - q.sum()) > tolerance.of(p, q):
            raise ValueError("the totals of p and q differ")
        object.__setattr__(self, "cost", C)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n_rows(self) -> int:
        return self.p.size + self.q.size

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.p, self.q])


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimal vertex of a transport LP and its row duals."""

    flow: np.ndarray  # the mass of each basis cell; other cells are empty
    dual_rows: np.ndarray  # one multiplier per row, 0 on the last
    objective: float
    iterations: int
    # optimal basis as N + M - 1 cell indices, for solve_lp(start=...)
    basis: np.ndarray


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
# the simplex on a spanning tree
# ---------------------------------------------------------------------------


class _Simplex:
    """The transport simplex on a basis held as a spanning tree: nodes 0..N-1
    are the sources, N..N+M-1 the targets, and basis cell (i, j) at position
    r is the edge between i and N + j with mass flow[r]."""

    def __init__(self, prob: TransportLp):
        N, M = prob.cost.shape
        self.N, self.M = N, M
        self.b = prob.rhs()
        self.c = prob.cost.ravel()
        # basis and flow are set by start_from or from the staircase
        self.iterations = 0

    def _walk(self, basis):
        """Breadth-first walk of the basis cells from the last target.

        Returns every node's parent, the basis position of the cell to its
        parent, its depth, and the visit order; None when the cells leave a
        node unreached, which for N + M - 1 cells means they are no tree.
        """
        n = self.N + self.M
        adj = [[] for _ in range(n)]
        rows, cols = np.divmod(basis, self.M)
        for r, (i, j) in enumerate(zip(rows.tolist(), (cols + self.N).tolist())):
            adj[i].append((j, r))
            adj[j].append((i, r))
        parent, up, depth = [-1] * n, [-1] * n, [0] * n
        parent[-1] = n - 1
        order = [n - 1]
        for v in order:
            for w, r in adj[v]:
                if parent[w] < 0:
                    parent[w], up[w], depth[w] = v, r, depth[v] + 1
                    order.append(w)
        return (parent, up, depth, order) if len(order) == n else None

    def start_from(self, basis) -> bool:
        """Adopt a start basis if its cells form a spanning tree whose flows,
        taken by leaf elimination, are all at least -REL * max|b|; otherwise
        change nothing."""
        basis = np.asarray(basis)
        if basis.shape != (self.N + self.M - 1,) or not np.issubdtype(basis.dtype, np.integer):
            return False
        if basis.min() < 0 or basis.max() >= self.c.size:
            return False
        tree = self._walk(basis)
        if tree is None:
            return False
        parent, up, _, order = tree
        rest, flow = self.b.tolist(), [0.0] * basis.size
        # leaves first: the cell to a node's parent carries what its subtree lacks
        for v in reversed(order[1:]):
            flow[up[v]] = rest[v]
            rest[parent[v]] -= rest[v]
        if min(flow) < -tolerance.of(self.b):
            return False
        self.basis = basis.astype(np.int64)
        self.flow = np.maximum(flow, 0.0)
        return True

    def run(self, bland_after: int) -> None:
        """Pivot to an optimal tree; raises LpSolverError past MAX_ITERATIONS pivots."""
        N, M = self.N, self.M
        dtol = tolerance.of(self.c)
        while True:
            parent, up, depth, order = self._walk(self.basis)
            # potentials: 0 at the last target, y_i + y_(N+j) = C_ij on every tree cell
            c_B, y = self.c[self.basis].tolist(), [0.0] * (N + M)
            for v in order[1:]:
                y[v] = c_B[up[v]] - y[parent[v]]
            self.y = np.array(y)
            if self.iterations > MAX_ITERATIONS:
                raise LpSolverError(f"transport LP: no optimum after {MAX_ITERATIONS} pivots")
            d = self.c - (self.y[:N, None] + self.y[None, N:]).ravel()
            d[self.basis] = np.inf
            neg = np.flatnonzero(d < -dtol)
            if neg.size == 0:
                return
            # Bland: the lowest index; Dantzig: the most negative reduced cost
            bland = self.iterations >= bland_after
            e = int(neg[0]) if bland else int(np.argmin(d))
            # the cycle: cell e, then the tree path from its target back to its
            # source, whose cells lose and gain mass in turn (a cell loses when
            # the path crosses it from a target to a source)
            u, v = N + e % M, e // M
            losing, gaining = [], []
            while u != v:
                if depth[u] >= depth[v]:
                    (losing if u >= N else gaining).append(up[u])
                    u = parent[u]
                else:
                    (losing if v < N else gaining).append(up[v])
                    v = parent[v]
            losing = np.array(losing)
            lost = self.flow[losing]
            theta = lost.min()
            tied = losing[lost == theta]
            r = int(tied[np.argmin(self.basis[tied])] if bland else tied.min())
            self.flow[losing] -= theta  # exactly theta: no flow goes negative
            self.flow[gaining] += theta
            self.flow[r] = theta
            self.basis[r] = e
            self.iterations += 1


def solve_lp(prob: TransportLp, start=None) -> LpSolution:
    """Solve a transport LP exactly.

    start: the `basis` of an earlier optimal solution, typically of a
    problem with the same p and q and another cost; the simplex starts from
    it when its cells form a spanning tree with feasible flows, and from the
    north-west-corner staircase of (p, q) otherwise.  Solutions are
    deterministic for a fixed input and start.  Raises LpSolverError when
    MAX_ITERATIONS pivots reach no optimum.
    """
    sx = _Simplex(prob)
    if start is None or not sx.start_from(start):
        ii, jj, mass = staircase(prob.p, prob.q)
        sx.basis, sx.flow = ii * sx.M + jj, mass

    sx.run(bland_after=BLAND_AFTER * (sx.N + sx.M - 1 + sx.c.size))
    return LpSolution(sx.flow, sx.y, float(sx.c[sx.basis] @ sx.flow), sx.iterations, sx.basis)
