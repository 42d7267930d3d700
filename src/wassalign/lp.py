"""Exact transport linear programs by the transportation simplex.

`solve_lp` minimizes C.x over couplings x >= 0 of the weights (p, q): row i
sums the cells of source i to p_i and row N + j those of target j to q_j.
Column i*M + j is cell (i, j).  Once the totals balance the last target row
is implied by the others, so a basis is N + M - 1 cells that form a
spanning tree of the sources and targets (Dantzig's u-v method).  The LP is
feasible: `TransportLp` refuses totals that differ by more than REL * max|b|.
The simplex starts from the north-west-corner `staircase` of (p, q).  One
breadth-first walk of the tree from the last target gives every node's
parent, depth and potential (0 at the last target, y_i + y_(N+j) = C_ij on
every tree cell), and the solve keeps them from pivot to pivot.  Dantzig
pricing picks the entering cell, and its cycle is the tree path between
its source and its target.  The leaving cell is the cycle cell of least
flow among those that lose mass, and the flows change by exactly that
flow, so none goes negative.  The leaving cell cuts a subtree off the
tree; the pivot hangs it from the entering cell and gives new depths and
potentials to its nodes alone, by the walk's own formula, so the
potentials equal a fresh walk's bit for bit.  Bland's rule takes over
after BLAND_AFTER * (N + M - 1 + N * M) pivots, against cycling, and
`LpSolverError` ends a solve past MAX_ITERATIONS pivots or at a
non-finite reduced cost.

The simplex pivots on C scaled by a power of two into [-1, 1], which is
exact (bar costs below 2^-1022 times the largest, which turn subnormal),
so no potential or reduced cost overflows, and it scales the potentials
back by the same power.  Potentials past the largest double are first
shifted, phi + t and psi - t, and ValueError names the size of a cost for
which no shift fits.

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
    dual_rows: np.ndarray  # one multiplier per row, 0 on the last unless shifted to fit
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
# the simplex on a spanning tree: nodes 0..N-1 are the sources, N..N+M-1 the
# targets, and basis cell (i, j) at position r is the edge between i and
# N + j, with mass flow[r]
# ---------------------------------------------------------------------------


def _walk(basis, N, M):
    """Breadth-first walk of the basis cells from the last target.

    Returns the tree as (adj, parent, up, depth, order): every node's map
    {neighbour: basis position of the cell between them}, its parent, the
    basis position of the cell to its parent, its depth, and the visit
    order.  None when the cells leave a node unreached, which for
    N + M - 1 cells means they are no tree.
    """
    n = N + M
    adj = [{} for _ in range(n)]
    rows, cols = np.divmod(basis, M)
    for r, (i, j) in enumerate(zip(rows.tolist(), (cols + N).tolist())):
        adj[i][j] = r
        adj[j][i] = r
    parent, up, depth = [-1] * n, [-1] * n, [0] * n
    parent[-1] = n - 1
    order = [n - 1]
    for v in order:
        for w, r in adj[v].items():
            if parent[w] < 0:
                parent[w], up[w], depth[w] = v, r, depth[v] + 1
                order.append(w)
    return (adj, parent, up, depth, order) if len(order) == n else None


def _start_from(basis, N, M, b):
    """(basis, flow, tree) of a start basis whose cells form a spanning tree
    with flows, taken by leaf elimination, of at least -REL * max|b|; None
    for any other start."""
    basis = np.asarray(basis)
    if basis.shape != (N + M - 1,) or not np.issubdtype(basis.dtype, np.integer):
        return None
    if basis.min() < 0 or basis.max() >= N * M:
        return None
    tree = _walk(basis, N, M)
    if tree is None:
        return None
    _, parent, up, _, order = tree
    rest, flow = b.tolist(), [0.0] * basis.size
    # leaves first: the cell to a node's parent carries what its subtree lacks
    for v in reversed(order[1:]):
        flow[up[v]] = rest[v]
        rest[parent[v]] -= rest[v]
    if min(flow) < -tolerance.of(b):
        return None
    return basis.astype(np.int64), np.maximum(flow, 0.0).tolist(), tree


def _pivot(c, N, M, basis, flow, tree, bland_after):
    """Pivot basis (an array) and flow (a list), in place, to an optimal tree.

    c is the cost, raveled.  The tree of `_walk` is kept across pivots: a
    pivot re-hangs only the subtree that the leaving cell cuts off, and
    gives new depths and potentials to that subtree alone, by the formula
    of the walk, so they equal a fresh walk's bit for bit.  Returns the
    potentials (0 at the last target, y_i + y_(N+j) = c_ij on every tree
    cell) and the number of pivots.  Raises LpSolverError past
    MAX_ITERATIONS pivots or on a non-finite reduced cost.
    """
    adj, parent, up, depth, order = tree
    c_B, y = c[basis].tolist(), [0.0] * (N + M)
    for v in order[1:]:
        y[v] = c_B[up[v]] - y[parent[v]]
    d = np.empty_like(c)  # the reduced costs: one buffer, no N * M array per pivot
    dtol = tolerance.of(c)
    iterations = 0
    while True:
        if iterations > MAX_ITERATIONS:
            raise LpSolverError(f"transport LP: no optimum after {MAX_ITERATIONS} pivots")
        y_arr = np.array(y)
        np.add(y_arr[:N, None], y_arr[None, N:], out=d.reshape(N, M))
        np.subtract(c, d, out=d)
        d[basis] = 0.0  # tree cells: exactly 0, never entering
        bland = iterations >= bland_after
        if bland:  # the lowest index
            neg = np.flatnonzero(d < -dtol)
            e = int(neg[0]) if neg.size else -1
        else:  # Dantzig: the most negative reduced cost
            e = int(np.argmin(d))
            e = e if d[e] < -dtol else -1
        if e < 0:
            if not np.all(np.isfinite(d)):
                raise LpSolverError("transport LP: non-finite reduced cost")
            return y, iterations
        # the cycle: cell e, then the tree path from its target back to its
        # source, whose cells lose and gain mass in turn (a cell loses when
        # the path crosses it from a target to a source).  A losing cell is
        # named by the node below it, on the target's side or the source's
        ends = (N + e % M, e // M)
        u, v = ends
        lose_u, lose_v, gaining = [], [], []
        while u != v:
            if depth[u] >= depth[v]:
                if u >= N:
                    lose_u.append(u)
                else:
                    gaining.append(up[u])
                u = parent[u]
            else:
                if v < N:
                    lose_v.append(v)
                else:
                    gaining.append(up[v])
                v = parent[v]
        below = lose_u + lose_v
        theta = min(flow[up[w]] for w in below)
        tied = [w for w in below if flow[up[w]] == theta]
        w = min(tied, key=(lambda v: basis[up[v]]) if bland else up.__getitem__)
        r = up[w]
        for v in below:
            flow[up[v]] -= theta  # exactly theta: no flow goes negative
        for pos in gaining:
            flow[pos] += theta
        flow[r] = theta
        basis[r] = e
        c_B[r] = float(c[e])
        iterations += 1

        # cell r leaves and cuts off w's subtree, which holds the end x of e;
        # reversing the parents on the path from x up to w hangs x from e's
        # other end through position r
        x, x_out = ends if w in lose_u else ends[::-1]
        del adj[w][parent[w]], adj[parent[w]][w]
        adj[x][x_out] = adj[x_out][x] = r
        node, above, pos = x, x_out, r
        while True:
            parent[node], above = above, parent[node]
            up[node], pos = pos, up[node]
            if node == w:
                break
            node, above = above, node
        # new depths and potentials, top-down over the re-hung subtree alone
        depth[x] = depth[x_out] + 1
        y[x] = c_B[r] - y[x_out]
        subtree = [x]
        for v in subtree:
            for child, pos in adj[v].items():
                if child != parent[v]:
                    depth[child] = depth[v] + 1
                    y[child] = c_B[pos] - y[v]
                    subtree.append(child)


def _fit(y, N, exponent, size):
    """ldexp(y, exponent), after a shift of the sources' potentials by t and
    the targets' by -t when one of them would pass the largest double; size
    is the largest |cost|, named in the ValueError raised when no shift fits."""
    top = np.finfo(float).maxexp  # ldexp(v, exponent) is finite iff frexp(v)[1] + exponent <= top
    if np.frexp(y)[1].max() + exponent > top:
        bound = np.ldexp(1.0, top - exponent)  # |v| < bound fits
        phi, psi = y[:N], y[N:]
        lo = max(-bound - phi.min(), psi.max() - bound)
        hi = min(bound - phi.max(), psi.min() + bound)
        t = (lo + hi) / 2
        y = np.concatenate([phi + t, psi - t])
        if np.frexp(y)[1].max() + exponent > top:
            raise ValueError(f"costs of size {size:.3g} have potentials past the largest double")
    return np.ldexp(y, exponent)


def solve_lp(prob: TransportLp, start=None) -> LpSolution:
    """Solve a transport LP exactly.

    start: the `basis` of an earlier optimal solution, typically of a
    problem with the same p and q and another cost; the simplex starts from
    it when its cells form a spanning tree with feasible flows, and from the
    north-west-corner staircase of (p, q) otherwise.  Solutions are
    deterministic for a fixed input and start.  Raises LpSolverError when
    MAX_ITERATIONS pivots reach no optimum, and ValueError when costs near
    the largest double leave no pair of potentials that fits in a double.
    """
    N, M = prob.cost.shape
    begin = None if start is None else _start_from(start, N, M, prob.rhs())
    if begin is None:
        ii, jj, mass = staircase(prob.p, prob.q)
        basis = ii * M + jj
        begin = basis, mass.tolist(), _walk(basis, N, M)
    basis, flow, tree = begin
    # pivot on the cost scaled by a power of two into [-1, 1]: exact, and no
    # potential or reduced cost overflows
    C = prob.cost.ravel()
    size = float(np.abs(C).max())
    exponent = int(np.frexp(size)[1])
    y, iterations = _pivot(
        np.ldexp(C, -exponent), N, M, basis, flow, tree, BLAND_AFTER * (N + M - 1 + N * M)
    )
    flow = np.array(flow)
    dual_rows = _fit(np.array(y), N, exponent, size)
    return LpSolution(flow, dual_rows, float(C[basis] @ flow), iterations, basis)
