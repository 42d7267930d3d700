import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wassalign import lp, tolerance
from wassalign.lp import TransportLp, solve_lp, staircase
from wassalign.measures import CostSpec, pairwise_cost, rotation_grid
from wassalign.tolerance import MARGINAL_TOL


def check_solution(prob: TransportLp, sol) -> dict:
    """Residuals of a solution: primal/dual feasibility and gap."""
    N, M = prob.cost.shape
    x, y = np.zeros(N * M), sol.dual_rows
    np.add.at(x, sol.basis, sol.flow)
    X = x.reshape(N, M)
    b = prob.rhs()
    slack = np.concatenate([X.sum(axis=1), X.sum(axis=0)]) - b
    viol = max(float(np.abs(slack).max()), float(np.max(-x, initial=0.0)))
    # a cell at zero needs a nonnegative reduced cost, a positive cell a zero one
    z = prob.cost.ravel() - (y[:N, None] + y[None, N:]).ravel()
    at_zero = x <= tolerance.of(x)
    var_viol = np.where(at_zero, -z, np.abs(z))
    scale = 1.0 + float(np.abs(prob.cost).max())
    return {
        "primal_infeasibility": viol,
        "dual_infeasibility": float(np.max(var_viol, initial=0.0)) / scale,
        "complementary_slackness": float(np.max(np.abs(y * slack), initial=0.0)),
        "duality_gap": abs(sol.objective - float(y @ b)),
    }


def _random_transport_lp(rng, N, M, uniform=False):
    C = rng.uniform(0.0, 10.0, size=(N, M))
    if uniform:
        return TransportLp(C, np.full(N, 1.0 / N), np.full(M, 1.0 / M))
    return TransportLp(C, rng.dirichlet(np.ones(N)), rng.dirichlet(np.ones(M)))


def _constraint_matrix(N, M):
    A = np.zeros((N + M, N * M))
    for i, j in itertools.product(range(N), range(M)):
        A[i, i * M + j] = A[N + j, i * M + j] = 1.0
    return A


def _enumerate_vertices(prob):
    """Smallest objective over all basic feasible points: every set of
    N + M - 1 independent cells (the rank of the rows) whose solution is
    nonnegative."""
    N, M = prob.cost.shape
    A, b, c = _constraint_matrix(N, M), prob.rhs(), prob.cost.ravel()
    best = np.inf
    for cells in itertools.combinations(range(N * M), N + M - 1):
        A_S = A[:, cells]
        if np.linalg.matrix_rank(A_S) < N + M - 1:
            continue
        x = np.linalg.lstsq(A_S, b, rcond=None)[0]
        if np.abs(A_S @ x - b).max() <= 1e-9 and x.min() >= -1e-9:
            best = min(best, float(c[list(cells)] @ x))
    return best


def test_single_variable_infeasible():
    # one cell cannot carry 1 out of the source and 2 into the target
    with pytest.raises(ValueError, match="totals"):
        TransportLp([[1.0]], [1.0], [2.0])


def test_redundant_equality_rows():
    # the source rows and the target rows both sum to the total mass, so the
    # last row is implied: a basis is N + M - 1 cells and nothing else
    rng = np.random.default_rng(3)
    for N, M in [(1, 1), (1, 4), (3, 1), (3, 4)]:
        prob = _random_transport_lp(rng, N, M)
        sol = solve_lp(prob)
        assert sol.basis.shape == (N + M - 1,)
        assert sol.basis.max() < N * M
        assert sol.dual_rows.shape == (N + M,) and sol.dual_rows[-1] == 0.0
        assert check_solution(prob, sol)["primal_infeasibility"] <= 1e-12
        assert sol.objective == pytest.approx(_enumerate_vertices(prob), abs=1e-9)


def _tiny_lps(uniform):
    rng = np.random.default_rng(43 if uniform else 42)
    return [
        _random_transport_lp(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), uniform)
        for _ in range(12)
    ]


def _small_lps():
    rng = np.random.default_rng(5)
    probs = []
    for _ in range(20):
        N, M = (int(n) for n in rng.integers(1, 8, size=2))
        prob = _random_transport_lp(rng, N, M)
        if rng.random() < 0.3:  # zero-weight atoms: degenerate rows
            p = prob.p.copy()
            p[0] = 0.0
            prob = TransportLp(prob.cost, p / p.sum(), prob.q)
        probs.append(prob)
    return probs


@pytest.mark.parametrize("uniform", [False, True])
def test_random_lp_matches_vertex_enumeration(uniform):
    # uniform weights make many vertices degenerate
    for prob in _tiny_lps(uniform):
        sol = solve_lp(prob)
        assert sol.objective == pytest.approx(_enumerate_vertices(prob), abs=1e-9)


def test_ratio_test_leaves_no_basic_value_negative():
    # uniform weights with p[0] raised by 5e-10, then renormalized: ratios
    # tie within the feasibility threshold, and a step past the minimum
    # ratio would leave a basic value of -5e-11 that the plan clips to zero
    rng = np.random.default_rng(30)
    N, M = 30, 20
    p, q = np.full(N, 1.0 / N), np.full(M, 1.0 / M)
    p[0] += 5e-10
    x, z = rng.normal(size=(N, 2)), rng.normal(size=(M, 2))
    prob = TransportLp(pairwise_cost(x, z, CostSpec.squared_euclidean()), p / p.sum(), q / q.sum())
    sol = solve_lp(prob)
    assert sol.flow.min() >= 0.0
    assert check_solution(prob, sol)["primal_infeasibility"] <= 1e-15


def test_transport_lp_validates_its_data():
    with pytest.raises(ValueError, match="matrix"):
        TransportLp(np.ones(3), np.ones(3), np.ones(1))
    with pytest.raises(ValueError, match="do not match"):
        TransportLp(np.ones((2, 3)), np.ones(3), np.ones(2))
    with pytest.raises(ValueError, match="non-finite"):
        TransportLp([[np.nan]], [1.0], [1.0])
    with pytest.raises(ValueError, match="negative"):
        TransportLp([[1.0, 2.0]], [1.0], [1.5, -0.5])


def test_strong_duality_and_complementary_slackness():
    for prob in _small_lps():
        sol = solve_lp(prob)
        res = check_solution(prob, sol)
        assert res["primal_infeasibility"] <= 1e-8
        assert res["dual_infeasibility"] <= 1e-7
        assert res["complementary_slackness"] <= 1e-7
        assert res["duality_gap"] <= 1e-7 * (1.0 + abs(sol.objective))


def test_objective_scaling_leaves_primal_unchanged():
    rng = np.random.default_rng(9)
    for _ in range(6):
        p1 = _random_transport_lp(rng, 5, 4)
        p2 = TransportLp(2.0 * p1.cost, p1.p, p1.q)
        s1, s2 = solve_lp(p1), solve_lp(p2)
        np.testing.assert_array_equal(s1.basis, s2.basis)
        np.testing.assert_array_equal(s1.flow, s2.flow)
        assert s2.objective == pytest.approx(2.0 * s1.objective, rel=1e-12)


@pytest.mark.parametrize("s", [1e-10, 1e10])
def test_rhs_scaling_scales_the_primal(s):
    # p and q scaled by s scale the feasible set by s: the primal and the
    # objective scale by s
    rng = np.random.default_rng(11)
    for _ in range(6):
        p1 = _random_transport_lp(rng, 5, 4)
        p2 = TransportLp(p1.cost, s * p1.p, s * p1.q)
        s1, s2 = solve_lp(p1), solve_lp(p2)
        np.testing.assert_array_equal(s2.basis, s1.basis)
        np.testing.assert_allclose(s2.flow / s, s1.flow, rtol=1e-9, atol=1e-12)
        assert s2.objective / s == pytest.approx(s1.objective, rel=1e-9)
    # a total of s out of the sources and 2 s into the targets: refused at every scale
    with pytest.raises(ValueError, match="totals"):
        TransportLp(np.ones((2, 2)), [0.5 * s, 0.5 * s], [s, s])


def test_deterministic_resolve():
    prob = _random_transport_lp(np.random.default_rng(17), 6, 5)
    s1, s2 = solve_lp(prob), solve_lp(prob)
    np.testing.assert_array_equal(s1.flow, s2.flow)
    np.testing.assert_array_equal(s1.basis, s2.basis)
    assert s1.iterations == s2.iterations


# -- staircase -------------------------------------------------------------


def _weights(rng, n, kind):
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    if kind == "dyadic":  # multiples of 1/64: the partial sums of p and q tie exactly
        w = rng.multinomial(64, np.ones(n) / n) / 64.0
    else:
        w = rng.dirichlet(np.ones(n))
        if kind == "zeros" and n > 1:
            w[rng.random(n) < 0.4] = 0.0
            w = w / w.sum() if w.sum() > 0 else np.full(n, 1.0 / n)
    return w


def _is_spanning_tree(ii, jj, N, M):
    parent = list(range(N + M))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in zip(ii, jj):
        a, b = root(i), root(N + j)
        if a == b:
            return False  # a cycle
        parent[a] = b
    return len(ii) == N + M - 1  # acyclic with N + M - 1 edges: connected


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 12),
    M=st.integers(1, 12),
    kind=st.sampled_from(["dirichlet", "zeros", "dyadic"]),
)
@example(seed=0, N=1, M=1, kind="dirichlet")
@example(seed=0, N=1, M=7, kind="zeros")
@example(seed=0, N=7, M=1, kind="dyadic")
def test_staircase_is_a_spanning_tree_that_meets_the_marginals(seed, N, M, kind):
    rng = np.random.default_rng(seed)
    p, q = _weights(rng, N, kind), _weights(rng, M, kind)
    ii, jj, mass = staircase(p, q)
    assert ii.shape == jj.shape == mass.shape == (N + M - 1,)
    assert _is_spanning_tree(ii, jj, N, M)
    assert mass.min() >= 0.0
    plan = np.zeros((N, M))
    np.add.at(plan, (ii, jj), mass)
    assert np.abs(plan.sum(axis=1) - p).max() <= MARGINAL_TOL
    assert np.abs(plan.sum(axis=0) - q).max() <= MARGINAL_TOL


def _sequential_staircase(p, q):
    """The north-west-corner walk, one cell at a time: the oracle of `staircase`."""
    p, q = list(p), list(q)
    N, M = len(p), len(q)
    cells, mass = [(0, 0)], []
    i = j = 0
    ri, rj = p[0], q[0]
    while True:
        move = min(ri, rj)
        mass.append(move)
        ri -= move
        rj -= move
        adv_i = i + 1 < N and (ri <= 0.0 or j + 1 == M)
        adv_j = j + 1 < M and (rj <= 0.0 or i + 1 == N)
        if not (adv_i or adv_j):
            break
        if adv_i and adv_j:
            cells.append((i + 1, j))
            mass.append(0.0)
        if adv_i:
            i += 1
            ri = p[i]
        if adv_j:
            j += 1
            rj = q[j]
        cells.append((i, j))
    ii, jj = np.array(cells, dtype=np.int64).T
    return ii, jj, np.array(mass)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 12), M=st.integers(1, 12))
@example(seed=0, N=1, M=1)
@example(seed=0, N=12, M=12)
def test_staircase_matches_the_sequential_walk_on_exact_partial_sums(seed, N, M):
    # multiples of 1/64, none zero: every partial sum and difference is exact,
    # so the merge of the cumulative sums and the walk see the same ties
    rng = np.random.default_rng(seed)
    p = (1 + rng.multinomial(64 - N, np.ones(N) / N)) / 64.0
    q = (1 + rng.multinomial(64 - M, np.ones(M) / M)) / 64.0
    for got, want in zip(staircase(p, q), _sequential_staircase(p, q)):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 30),
    M=st.integers(1, 30),
    kind=st.sampled_from(["uniform", "dirichlet", "zeros"]),
    log_scale=st.floats(-4.0, 5.0),
)
@example(seed=0, N=30, M=30, kind="uniform", log_scale=-4.0)
@example(seed=0, N=1, M=30, kind="zeros", log_scale=5.0)
def test_value_matches_highs(seed, N, M, kind, log_scale):
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    C = 10.0**log_scale * rng.uniform(size=(N, M))
    prob = TransportLp(C, _weights(rng, N, kind), _weights(rng, M, kind))
    sol = solve_lp(prob)
    # HiGHS's tolerances are absolute: pose it on unit-size costs, scale its value back
    size = np.abs(prob.cost).max()
    ref = linprog(
        (prob.cost / size).ravel(), A_eq=_constraint_matrix(N, M), b_eq=prob.rhs(), method="highs-ds"
    )
    assert ref.status == 0
    assert abs(sol.objective - ref.fun * size) <= 1e-9 * ref.fun * size
    ii, jj = np.divmod(sol.basis, M)
    assert _is_spanning_tree(ii, jj, N, M)
    assert sol.flow.min() >= 0.0
    assert np.abs(np.bincount(ii, sol.flow, N) - prob.p).max() <= 1e-12
    assert np.abs(np.bincount(jj, sol.flow, M) - prob.q).max() <= 1e-12


# -- warm start ------------------------------------------------------------


def _rotation_costs(rng, N=8, M=6, l=16):
    """One cost matrix per entry of a rotation grid: the alignment's LPs."""
    x = rng.normal(size=(N, 2))
    z = rng.normal(size=(M, 2))
    spec = CostSpec.squared_euclidean()
    return [pairwise_cost(e.apply(x), z, spec) for e in rotation_grid(l)]


def test_warm_start_matches_cold_over_a_rotation_grid():
    rng = np.random.default_rng(37)
    costs = _rotation_costs(rng)
    N, M = costs[0].shape
    p, q = rng.dirichlet(np.ones(N)), rng.dirichlet(np.ones(M))
    start = None
    warm_its, cold_its = [], []
    for C in costs:
        prob = TransportLp(C, p, q)
        cold = solve_lp(prob)
        warm = solve_lp(prob, start=start)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
        res = check_solution(prob, warm)
        assert res["primal_infeasibility"] <= 1e-8
        assert res["dual_infeasibility"] <= 1e-7
        assert res["duality_gap"] <= 1e-7 * (1.0 + abs(warm.objective))
        assert _is_spanning_tree(*np.divmod(warm.basis, M), N, M)
        assert warm.flow.min() >= 0.0
        warm_its.append(warm.iterations)
        cold_its.append(cold.iterations)
        start = warm.basis
    # the first entry has no start; a start silently dropped on every later
    # entry would cost as much as the cold solves
    assert warm_its[0] == cold_its[0]
    assert sum(warm_its[1:]) < sum(cold_its[1:])


def test_start_infeasible_for_new_rhs_falls_back_to_the_staircase():
    rng = np.random.default_rng(41)
    C = _rotation_costs(rng, l=4)[1]
    N, M = C.shape
    p = np.full(N, 1.0 / N)
    q1 = np.full(M, 1.0 / M)
    q2 = np.array([0.9] + [0.1 / (M - 1)] * (M - 1))
    start = solve_lp(TransportLp(C, p, q1)).basis
    prob = TransportLp(C, p, q2)
    cold, warm = solve_lp(prob), solve_lp(prob, start=start)
    # under q2 the q1 basis gives a negative flow (-0.65 on this instance),
    # the solve starts from the staircase, as the cold one does
    assert warm.iterations == cold.iterations
    np.testing.assert_array_equal(warm.basis, cold.basis)
    np.testing.assert_array_equal(warm.flow, cold.flow)
    assert warm.objective == cold.objective


@pytest.mark.parametrize("kind", ["singular", "short", "out_of_range", "repeated"])
def test_unusable_start_falls_back_to_the_staircase(kind):
    rng = np.random.default_rng(43)
    C = _rotation_costs(rng, l=4)[2]
    N, M = C.shape
    prob = TransportLp(C, rng.dirichlet(np.ones(N)), rng.dirichlet(np.ones(M)))
    start = {
        # the first N + M - 1 cells in index order fill rows 0 and 1, a cycle
        "singular": np.arange(N + M - 1),
        "short": np.arange(N + M - 2),
        "out_of_range": np.arange(N + M - 1) + 10**6,
        "repeated": np.zeros(N + M - 1, dtype=np.int64),
    }[kind]
    cold, warm = solve_lp(prob), solve_lp(prob, start=start)
    assert warm.iterations == cold.iterations
    np.testing.assert_array_equal(warm.basis, cold.basis)
    np.testing.assert_array_equal(warm.flow, cold.flow)


def test_start_with_a_basic_artificial_at_zero_stays_feasible():
    # a start in the form of an LP with an artificial column per row: cells
    # (0, 1) and (1, 0), which carry all the mass, and column 4, the
    # artificial of row 0.  No column past the cells exists, so the start is
    # refused and the solve is the cold one
    prob = TransportLp(np.array([[0.0, 2.0], [2.0, 1.0]]), [0.5, 0.5], [0.5, 0.5])
    start = np.array([1, 2, 4])
    cold, warm = solve_lp(prob), solve_lp(prob, start=start)
    assert cold.objective == 0.5
    assert warm.objective == cold.objective
    np.testing.assert_array_equal(warm.basis, cold.basis)
    assert warm.iterations == cold.iterations
    assert check_solution(prob, warm)["primal_infeasibility"] <= 1e-8


def test_warm_resolve_is_deterministic():
    rng = np.random.default_rng(53)
    costs = _rotation_costs(rng, l=3)
    N, M = costs[0].shape
    p, q = np.full(N, 1.0 / N), np.full(M, 1.0 / M)
    start = solve_lp(TransportLp(costs[0], p, q)).basis
    s1 = solve_lp(TransportLp(costs[1], p, q), start=start)
    s2 = solve_lp(TransportLp(costs[1], p, q), start=start)
    np.testing.assert_array_equal(s1.flow, s2.flow)
    np.testing.assert_array_equal(s1.basis, s2.basis)
    assert s1.iterations == s2.iterations


def test_blands_rule_alone_reaches_the_dantzig_optimum(monkeypatch):
    # Bland's rule takes over only after BLAND_AFTER * (N + M - 1 + N * M)
    # pivots; at 0 it makes every pivot, on the random corpora and on a warm
    # rotation sequence
    probs = _tiny_lps(False) + _tiny_lps(True) + _small_lps()
    rng = np.random.default_rng(37)
    costs = _rotation_costs(rng)
    p, q = rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(6))
    warm = [TransportLp(C, p, q) for C in costs]

    def solve_all():
        sols = [solve_lp(prob) for prob in probs]
        start = None
        for prob in warm:
            sols.append(solve_lp(prob, start=start))
            start = sols[-1].basis
        return sols

    dantzig = solve_all()
    monkeypatch.setattr(lp, "BLAND_AFTER", 0)
    bland = solve_all()
    for prob, d, b in zip(probs + warm, dantzig, bland):
        assert abs(b.objective - d.objective) <= 1e-12 * abs(d.objective)
        N, M = prob.cost.shape
        assert _is_spanning_tree(*np.divmod(b.basis, M), N, M)
        assert b.flow.min() >= 0.0


# -- the kept tree ---------------------------------------------------------


def _walked_potentials(C, basis):
    """Potentials of a fresh breadth-first walk of the basis cells from the
    last target: 0 there, and y_i + y_(N+j) = C_ij on every cell."""
    N, M = C.shape
    adj = [[] for _ in range(N + M)]
    for i, j in zip(*np.divmod(basis, M)):
        adj[i].append((N + j, C[i, j]))
        adj[N + j].append((i, C[i, j]))
    y, seen, order = [0.0] * (N + M), {N + M - 1}, [N + M - 1]
    for v in order:
        for w, cost in adj[v]:
            if w not in seen:
                seen.add(w)
                y[w] = cost - y[v]
                order.append(w)
    assert len(order) == N + M
    return np.array(y)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 8),
    M=st.integers(1, 8),
    kind=st.sampled_from(["uniform", "zeros", "dyadic"]),
    warm=st.booleans(),
    bland=st.booleans(),
)
@example(seed=0, N=1, M=8, kind="zeros", warm=True, bland=False)
@example(seed=1, N=8, M=1, kind="uniform", warm=False, bland=True)
@example(seed=2, N=8, M=8, kind="uniform", warm=True, bland=True)
def test_kept_tree_equals_a_fresh_walk_on_degenerate_lps(seed, N, M, kind, warm, bland):
    # integer costs in {0..3} with tied or zero weights: many ties in the
    # pricing and in the ratio test, and cells of zero flow in the tree
    from unittest import mock

    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    p, q = _weights(rng, N, kind), _weights(rng, M, kind)
    C = rng.integers(0, 4, size=(N, M)).astype(float)
    prob = TransportLp(C, p, q)
    with mock.patch.object(lp, "BLAND_AFTER", 0 if bland else lp.BLAND_AFTER):
        start = None
        if warm:
            start = solve_lp(TransportLp(rng.integers(0, 4, size=(N, M)).astype(float), p, q)).basis
        sol = solve_lp(prob, start=start)
    ref = linprog(C.ravel(), A_eq=_constraint_matrix(N, M), b_eq=prob.rhs(), method="highs-ds")
    assert ref.status == 0
    assert abs(sol.objective - ref.fun) <= tolerance.of(1.0, C)
    # the potentials kept across pivots are the fresh walk's, bit for bit
    assert np.array_equal(sol.dual_rows, _walked_potentials(C, sol.basis))
    ii, jj = np.divmod(sol.basis, M)
    assert _is_spanning_tree(ii, jj, N, M)
    assert sol.flow.min() >= 0.0


def test_power_of_two_cost_scaling_is_exact():
    # the simplex pivots on C over a power of two: C times 2^600 or 2^-600
    # makes the same pivots, and its potentials are the same times 2^600 or 2^-600
    rng = np.random.default_rng(61)
    for _ in range(6):
        prob = _random_transport_lp(rng, 7, 5)
        sol = solve_lp(prob)
        for k in (600, -600):
            big = solve_lp(TransportLp(np.ldexp(prob.cost, k), prob.p, prob.q))
            assert big.iterations == sol.iterations
            np.testing.assert_array_equal(big.basis, sol.basis)
            np.testing.assert_array_equal(big.flow, sol.flow)
            np.testing.assert_array_equal(big.dual_rows, np.ldexp(sol.dual_rows, k))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-300.0, 307.0))
def test_value_scales_with_the_cost_at_any_scale(seed, log_scale):
    # costs of 1e-300 to 1e307: the same value, scaled, and finite duals
    rng = np.random.default_rng(seed)
    prob = _random_transport_lp(rng, 6, 5)
    s = 10.0**log_scale
    scaled = solve_lp(TransportLp(prob.cost * s, prob.p, prob.q))
    assert abs(scaled.objective / s - solve_lp(prob).objective) <= tolerance.of(prob.cost)
    assert np.all(np.isfinite(scaled.dual_rows))


def test_costs_near_the_largest_double_solve_with_finite_duals():
    # costs uniform on [-1, 1] x 4e307: unscaled, the potentials would pass
    # the largest double and the pricing would see no finite reduced cost
    import time

    rng = np.random.default_rng(0)
    C = rng.uniform(-1.0, 1.0, size=(50, 50)) * 4e307
    prob = TransportLp(C, np.full(50, 0.02), np.full(50, 0.02))
    t0 = time.perf_counter()
    sol = solve_lp(prob)
    assert time.perf_counter() - t0 < 1.0
    assert np.all(np.isfinite(sol.dual_rows))
    res = check_solution(prob, sol)
    assert res["primal_infeasibility"] <= 1e-12
    assert res["dual_infeasibility"] <= 1e-9


def test_potentials_are_shifted_to_fit_or_refused():
    # one source, costs -1e308 and 1e308: the tree's potentials from the last
    # target are 1e308 and -2e308, and a shift of phi + t, psi - t fits them
    sol = solve_lp(TransportLp([[-1e308, 1e308]], [1.0], [0.5, 0.5]))
    y = sol.dual_rows
    assert np.all(np.isfinite(y))
    assert y[0] + y[1] == -1e308 and y[0] + y[2] == 1e308
    # here the staircase is optimal, and its potentials are phi = (-5.1e308,
    # -1.7e308) and psi = (3.4e308, 0): no t puts both phi_0 + t and -t in a double
    with pytest.raises(ValueError, match="1.7e\\+308"):
        solve_lp(TransportLp([[-1.7e308, -1.7e308], [1.7e308, -1.7e308]], [0.5, 0.5], [0.5, 0.5]))
