import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from wassalign.lp import (
    LpProblem,
    LpStatus,
    _solve_direct,
    _solve_swapped,
    check_solution,
    solve_lp,
)
from wassalign.measures import CostSpec, pairwise_cost, rotation_grid


def test_single_variable_max():
    p = LpProblem(1, objective=[1.0], maximize=True)
    p.add_row([0], [1.0], "<=", 1.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.primal, [1.0])
    assert sol.objective == pytest.approx(1.0)
    np.testing.assert_allclose(sol.dual_rows, [1.0], atol=1e-9)


def test_single_variable_infeasible():
    p = LpProblem(1, objective=[1.0], maximize=True)
    p.add_row([0], [1.0], "<=", -1.0)
    assert solve_lp(p).status is LpStatus.INFEASIBLE


def test_unbounded():
    p = LpProblem(1, objective=[1.0], maximize=True)
    p.add_row([0], [-1.0], "<=", 1.0)
    assert solve_lp(p).status is LpStatus.UNBOUNDED


def test_unbounded_when_improving_columns_hold_only_rounding_noise():
    # every improving column's positive entries are below the pivot
    # threshold (2.2e-16 and 2.7e-16): numerically rays, not a breakdown;
    # HiGHS calls this LP unbounded too
    inf = np.inf
    c = [0.27570834527555244, 0.8655248456936989, -1.4798242262177546,
         -0.7558712675766475, -1.8836038440642882, -0.46224003363222077]
    a = [0.1422902382340424, 0.7267094461699152, -0.06955607301001486,
         1.849907328238929, -0.5184754494042344, -1.336475732124564]
    lower = [-0.8286698928811695, 0, -0.8198078246325666, -0.22520822552887187, 0,
             -0.6263962857266376]
    upper = [0.12791210313264467, inf, inf, inf, 1.8702822806350956, 0.8580414458994396]
    p = LpProblem(6, objective=c)
    p.set_bounds(lower=lower, upper=upper)
    p.add_row(np.arange(6), a, "==", 0.3596600642099543)
    assert solve_lp(p).status is LpStatus.UNBOUNDED


def test_min_with_ge_row_dual_sign():
    p = LpProblem(1, objective=[1.0])
    p.add_row([0], [1.0], ">=", 1.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    np.testing.assert_allclose(sol.dual_rows, [1.0], atol=1e-9)


def test_free_variables_and_equality():
    p = LpProblem(2, objective=[1.0, 1.0])
    p.set_bounds(lower=[-np.inf, -np.inf])
    p.add_row([0, 1], [1.0, 1.0], "==", 2.0)
    p.add_row([0, 1], [1.0, -1.0], "==", 0.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.primal, [1.0, 1.0], atol=1e-9)


def test_negative_rhs_equality():
    p = LpProblem(1, objective=[1.0])
    p.set_bounds(lower=[-np.inf])
    p.add_row([0], [1.0], "==", -3.0)
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.primal, [-3.0], atol=1e-9)


def test_redundant_equality_rows():
    p = LpProblem(2, objective=[1.0, 2.0])
    p.add_row([0, 1], [1.0, 1.0], "==", 1.0)
    p.add_row([0, 1], [2.0, 2.0], "==", 2.0)  # dependent duplicate
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0)


def _random_box_lp(rng, maximize):
    """4 variables in [0, 5], 6 random <= rows: always feasible and bounded."""
    n, m = 4, 6
    p = LpProblem(n, objective=rng.normal(size=n), maximize=maximize)
    p.set_bounds(lower=0.0, upper=5.0)
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 4.0, size=m)
    for i in range(m):
        p.add_row(np.arange(n), A[i], "<=", b[i])
    return p, A, b


def _enumerate_vertices(p, A, b):
    """Brute-force vertex enumeration over all active sets of 4 hyperplanes."""
    n = p.n_vars
    planes = [(A[i], b[i]) for i in range(len(b))]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.extend((e, bound) for bound in (p.lower[j], p.upper[j]) if np.isfinite(bound))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, rhs)
        if np.any(A @ x > b + 1e-9) or np.any(x < p.lower - 1e-9) or np.any(x > p.upper + 1e-9):
            continue
        val = float(p.objective @ x)
        if best is None:
            best = val
        else:
            best = max(best, val) if p.maximize else min(best, val)
    return best


@pytest.mark.parametrize("maximize", [False, True])
def test_random_lp_matches_vertex_enumeration(maximize):
    rng = np.random.default_rng(42 if maximize else 43)
    for _ in range(12):
        p, A, b = _random_box_lp(rng, maximize)
        sol = solve_lp(p)
        assert sol.status is LpStatus.OPTIMAL
        oracle = _enumerate_vertices(p, A, b)
        assert sol.objective == pytest.approx(oracle, abs=1e-9)


def _random_bound_kind_lp(rng, maximize):
    """4 variables, one of each bound kind: (-inf, u], [l, u] and [l, inf) with
    l != 0, and [0, inf).  Six rows hold at a point inside the bounds, half
    of them posed as >= with negated coefficients; rows -x <= 10 or x <= 10
    close every infinite side, so the LP is feasible and bounded.  Returns
    the problem and every row in <= form."""
    n = 4
    lower = np.array([-np.inf, rng.uniform(-3.0, -0.5), rng.uniform(0.5, 2.0), 0.0])
    upper = np.array([rng.uniform(-2.0, 2.0), lower[1] + rng.uniform(0.5, 3.0), np.inf, np.inf])
    p = LpProblem(n, objective=rng.normal(size=n), maximize=maximize)
    p.set_bounds(lower=lower, upper=upper)
    x0 = np.array([upper[0] - 0.5, lower[1] + 0.25, lower[2] + 0.5, 0.5])
    A = rng.normal(size=(6, n))
    b = A @ x0 + rng.uniform(0.5, 2.0, size=6)
    for i in range(6):
        if i % 2:
            p.add_row(np.arange(n), -A[i], ">=", -b[i])
        else:
            p.add_row(np.arange(n), A[i], "<=", b[i])
    closing = np.array([[-1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    for row in closing:
        p.add_row(np.arange(n), row, "<=", 10.0)
    return p, np.vstack([A, closing]), np.concatenate([b, np.full(3, 10.0)])


@pytest.mark.parametrize("maximize", [False, True])
def test_bound_kinds_match_vertex_enumeration(maximize):
    # an upper bound alone makes x = hi - u and a nonzero lower bound
    # x = lo + u: both shift the rhs of every row the variable is in
    rng = np.random.default_rng(71 if maximize else 72)
    for _ in range(12):
        p, A, b = _random_bound_kind_lp(rng, maximize)
        sol = solve_lp(p)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(_enumerate_vertices(p, A, b), abs=1e-9)
        res = check_solution(p, sol)
        assert res["primal_infeasibility"] <= 1e-8
        assert res["dual_infeasibility"] <= 1e-7
        assert res["complementary_slackness"] <= 1e-7
        assert res["duality_gap"] <= 1e-7 * (1.0 + abs(sol.objective))


def test_add_rows_matches_add_row():
    rng = np.random.default_rng(13)
    A = sp.random(7, 5, density=0.5, random_state=3, format="csr")
    rhs = rng.uniform(1.0, 2.0, size=7)
    one, bulk = LpProblem(5, objective=-np.ones(5)), LpProblem(5, objective=-np.ones(5))
    for i in range(7):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        one.add_row(A.indices[lo:hi], A.data[lo:hi], "<=", rhs[i])
    bulk.add_rows(A, "<=", rhs)
    one.add_row([0, 1], [1.0, 1.0], "<=", 1.0)
    bulk.add_rows(sp.csr_matrix(([1.0, 1.0], [0, 1], [0, 2]), shape=(1, 5)), "<=", 1.0)
    assert bulk.n_rows == one.n_rows == 8
    assert (bulk.matrix() != one.matrix()).nnz == 0
    assert bulk.relations() == one.relations()
    np.testing.assert_array_equal(bulk.rhs_vector(), one.rhs_vector())
    s1, s2 = solve_lp(one), solve_lp(bulk)
    np.testing.assert_array_equal(s1.primal, s2.primal)
    assert s1.iterations == s2.iterations


def test_add_rows_validates_like_add_row():
    p = LpProblem(3)
    row = sp.csr_matrix(([1.0], [0], [0, 1]), shape=(1, 3))
    with pytest.raises(ValueError, match="columns"):
        p.add_rows(sp.csr_matrix((1, 4)), "<=", 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        p.add_rows(sp.csr_matrix(([np.nan], [0], [0, 1]), shape=(1, 3)), "<=", 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        p.add_rows(row, "<=", np.inf)
    with pytest.raises(ValueError, match="relation"):
        p.add_rows(row, "<", 1.0)
    with pytest.raises(ValueError, match="out of range"):
        p.add_row([3], [1.0], "<=", 1.0)
    assert p.n_rows == 0


def test_strong_duality_and_complementary_slackness():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(2, 7)
        p = LpProblem(int(n), objective=rng.normal(size=int(n)), maximize=bool(rng.integers(2)))
        lower = np.where(rng.random(n) < 0.3, -np.inf, 0.0)
        p.set_bounds(lower=lower)
        m = int(rng.integers(2, 7))
        for _ in range(m):
            rel = ("<=", ">=", "==")[rng.integers(3)]
            p.add_row(np.arange(n), rng.normal(size=int(n)), rel, float(rng.normal()))
        # anchor: keep problems bounded by a box row on each variable
        for j in range(int(n)):
            p.add_row([j], [1.0], "<=", 10.0)
            p.add_row([j], [-1.0], "<=", 10.0)
        sol = solve_lp(p)
        assert sol.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE)
        if sol.status is LpStatus.OPTIMAL:
            res = check_solution(p, sol)
            assert res["primal_infeasibility"] <= 1e-8
            assert res["dual_infeasibility"] <= 1e-7
            assert res["complementary_slackness"] <= 1e-7
            assert res["duality_gap"] <= 1e-7 * (1.0 + abs(sol.objective))


def test_objective_scaling_leaves_primal_unchanged():
    rng = np.random.default_rng(9)
    p1, _, _ = _random_box_lp(rng, maximize=True)
    p2 = LpProblem(4, objective=2.0 * p1.objective, maximize=True)
    p2.set_bounds(lower=p1.lower, upper=p1.upper)
    for cols, vals, rel, rhs in p1.rows():
        p2.add_row(cols, vals, rel, rhs)
    s1, s2 = solve_lp(p1), solve_lp(p2)
    assert s1.status is LpStatus.OPTIMAL and s2.status is LpStatus.OPTIMAL
    np.testing.assert_array_equal(s1.primal, s2.primal)
    assert s2.objective == pytest.approx(2.0 * s1.objective, rel=1e-12)


@pytest.mark.parametrize("s", [1e-10, 1e10])
def test_rhs_and_bounds_scaling_scales_the_primal(s):
    # b and the bounds scaled by s scale the feasible set by s: the status is
    # the same, and the primal and the objective scale by s
    rng = np.random.default_rng(11)
    for _ in range(6):
        p1, A, b = _random_box_lp(rng, maximize=False)
        p2 = LpProblem(4, objective=p1.objective)
        p2.set_bounds(lower=s * p1.lower, upper=s * p1.upper)
        p2.add_rows(sp.csr_matrix(A), "<=", s * b)
        s1, s2 = solve_lp(p1), solve_lp(p2)
        assert s2.status is s1.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(s2.primal / s, s1.primal, rtol=1e-9, atol=1e-12)
        assert s2.objective / s == pytest.approx(s1.objective, rel=1e-9)
    # x0 <= s and x0 >= 2 s: infeasible at every scale
    p = LpProblem(1, objective=[1.0])
    p.add_row([0], [1.0], "<=", s)
    p.add_row([0], [1.0], ">=", 2.0 * s)
    assert solve_lp(p).status is LpStatus.INFEASIBLE


def test_deterministic_resolve():
    rng = np.random.default_rng(17)
    p, _, _ = _random_box_lp(rng, maximize=False)
    s1, s2 = solve_lp(p), solve_lp(p)
    np.testing.assert_array_equal(s1.primal, s2.primal)
    assert s1.iterations == s2.iterations


# -- orientation swap ---------------------------------------------------------


def _tall_problem(rng, n=6, m=60):
    """max c.x with many <= rows over free variables: the alignment-dual shape."""
    p = LpProblem(n, objective=rng.normal(size=n), maximize=True)
    p.set_bounds(lower=-np.inf)
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 3.0, size=m)
    for i in range(m):
        nz = rng.choice(n, size=2, replace=False)
        p.add_row(nz, A[i, nz], "<=", b[i])
    p.add_row(np.arange(n), np.ones(n), "==", 0.0)
    return p


def test_swap_matches_direct_on_tall_problems():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = _tall_problem(rng)
        sd = _solve_direct(p)
        ss = _solve_swapped(p)
        assert sd.status is LpStatus.OPTIMAL
        assert ss.status is LpStatus.OPTIMAL
        assert ss.objective == pytest.approx(sd.objective, abs=1e-8)
        for sol in (sd, ss):
            res = check_solution(p, sol)
            assert res["primal_infeasibility"] <= 1e-8
            assert res["dual_infeasibility"] <= 1e-7
            assert res["duality_gap"] <= 1e-7 * (1.0 + abs(sol.objective))


def test_swap_keeps_variable_order_with_free_and_nonnegative_variables():
    # the dual poses the free variables' rows ("==") and the others' (">=")
    # as two blocks; the primal must come back in the original order
    rng = np.random.default_rng(37)
    optimal = 0
    for _ in range(8):
        p = _tall_problem(rng)
        p.set_bounds(lower=np.where(rng.uniform(size=p.n_vars) < 0.5, 0.0, -np.inf))
        sd, ss = _solve_direct(p), _solve_swapped(p)
        assert ss.status is sd.status
        if sd.status is LpStatus.OPTIMAL:
            optimal += 1
            assert ss.objective == pytest.approx(sd.objective, abs=1e-8)
            res = check_solution(p, ss)
            assert res["primal_infeasibility"] <= 1e-8
            assert res["duality_gap"] <= 1e-7 * (1.0 + abs(ss.objective))
    assert optimal >= 4


def test_swap_detects_infeasible():
    p = LpProblem(1, objective=[1.0], maximize=True)
    p.add_row([0], [1.0], "<=", -1.0)
    assert _solve_swapped(p).status is LpStatus.INFEASIBLE


def test_auto_orientation_triggers_on_tall_problems():
    rng = np.random.default_rng(31)
    n, m = 4, 1400
    p = LpProblem(n, objective=rng.normal(size=n), maximize=True)
    p.set_bounds(lower=-np.inf)
    for i in range(m):
        nz = rng.choice(n, size=2, replace=False)
        p.add_row(nz, rng.normal(size=2), "<=", float(rng.uniform(0.5, 2.0)))
    sol = solve_lp(p)  # auto: swapped, small basis
    sol_direct = _solve_direct(p)
    assert sol.status is sol_direct.status
    if sol.status is LpStatus.OPTIMAL:
        assert sol.objective == pytest.approx(sol_direct.objective, abs=1e-8)


# -- warm start ------------------------------------------------------------


def _transport_lp(C, p, q):
    N, M = C.shape
    prob = LpProblem(N * M, objective=C.ravel())
    cols = np.arange(N * M).reshape(N, M)
    for i in range(N):
        prob.add_row(cols[i], np.ones(M), "==", p[i])
    for j in range(M):
        prob.add_row(cols[:, j], np.ones(N), "==", q[j])
    return prob


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
        prob = _transport_lp(C, p, q)
        cold = solve_lp(prob)
        warm = solve_lp(prob, start=start)
        assert cold.status is LpStatus.OPTIMAL and warm.status is LpStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
        res = check_solution(prob, warm)
        assert res["primal_infeasibility"] <= 1e-8
        assert res["dual_infeasibility"] <= 1e-7
        assert res["duality_gap"] <= 1e-7 * (1.0 + abs(warm.objective))
        assert np.count_nonzero(warm.primal > 1e-12) <= N + M - 1
        warm_its.append(warm.iterations)
        cold_its.append(cold.iterations)
        start = warm.basis
    # the first entry has no start; a start silently dropped on every later
    # entry would cost as much as the cold solves
    assert warm_its[0] == cold_its[0]
    assert sum(warm_its[1:]) < sum(cold_its[1:])


def test_start_infeasible_for_new_rhs_falls_back_to_phase_one():
    rng = np.random.default_rng(41)
    C = _rotation_costs(rng, l=4)[1]
    N, M = C.shape
    p = np.full(N, 1.0 / N)
    q1 = np.full(M, 1.0 / M)
    q2 = np.array([0.9] + [0.1 / (M - 1)] * (M - 1))
    start = solve_lp(_transport_lp(C, p, q1)).basis
    prob = _transport_lp(C, p, q2)
    cold, warm = solve_lp(prob), solve_lp(prob, start=start)
    # under q2 the q1 basis gives a negative flow (-0.65 on this instance),
    # so Phase I runs as in the cold solve
    assert warm.status is LpStatus.OPTIMAL
    assert warm.iterations == cold.iterations
    np.testing.assert_array_equal(warm.primal, cold.primal)
    assert warm.objective == cold.objective


@pytest.mark.parametrize("kind", ["singular", "short", "out_of_range", "repeated"])
def test_unusable_start_falls_back_to_phase_one(kind):
    rng = np.random.default_rng(43)
    C = _rotation_costs(rng, l=4)[2]
    N, M = C.shape
    prob = _transport_lp(C, rng.dirichlet(np.ones(N)), rng.dirichlet(np.ones(M)))
    start = {
        # N + M transport columns never factor: the rows have rank N + M - 1
        "singular": np.arange(N + M),
        "short": np.arange(N + M - 1),
        "out_of_range": np.arange(N + M) + 10**6,
        "repeated": np.zeros(N + M, dtype=np.int64),
    }[kind]
    cold, warm = solve_lp(prob), solve_lp(prob, start=start)
    assert warm.status is LpStatus.OPTIMAL
    assert warm.iterations == cold.iterations
    np.testing.assert_array_equal(warm.primal, cold.primal)


def test_nearly_singular_start_falls_back_to_phase_one():
    # column 2 is a + b rounded, so B = [a, b, a + b] inverts without an
    # error into garbage; with rhs in span(a, b) that garbage can look
    # feasible, and only the factorization residual refuses it
    rng = np.random.default_rng(59)
    for _ in range(40):
        a, b = rng.random(3), rng.random(3)
        cols = np.column_stack([a, b, a + b, rng.random((3, 3))])
        p = LpProblem(6, objective=rng.normal(size=6))
        p.set_bounds(upper=5.0)
        rhs = cols[:, :2] @ rng.random(2)
        for i in range(3):
            p.add_row(np.arange(6), cols[i], "==", rhs[i])
        start = np.array([0, 1, 2, 6, 7, 8, 9, 10, 11])  # B's columns, then the bound-row slacks
        cold, warm = solve_lp(p), solve_lp(p, start=start)
        assert warm.status is cold.status
        assert warm.iterations == cold.iterations
        assert warm.objective == cold.objective


def test_start_with_a_basic_artificial_at_zero_stays_feasible():
    # x0 + x2 = 1 and x1 - x2 = 0.  The start {x0, artificial of row 1} is
    # feasible with the artificial at zero; left basic, that artificial
    # would grow as x2 enters, violating row 1, so it is pivoted out first
    p = LpProblem(3, objective=[0.0, 2.0, -1.0])
    p.add_row([0, 2], [1.0, 1.0], "==", 1.0)
    p.add_row([1, 2], [1.0, -1.0], "==", 0.0)
    cold, warm = solve_lp(p), solve_lp(p, start=np.array([0, 4]))  # columns 3, 4: artificials
    assert warm.status is LpStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert check_solution(p, warm)["primal_infeasibility"] <= 1e-8


def test_start_is_refused_on_the_swapped_orientation():
    rng = np.random.default_rng(47)
    p = _tall_problem(rng, m=1400)  # tall enough to be solved swapped
    basis = _solve_direct(p).basis
    with pytest.raises(ValueError, match="direct orientation"):
        solve_lp(p, start=basis)
    assert _solve_swapped(p).basis is None


def test_warm_resolve_is_deterministic():
    rng = np.random.default_rng(53)
    costs = _rotation_costs(rng, l=3)
    N, M = costs[0].shape
    p, q = np.full(N, 1.0 / N), np.full(M, 1.0 / M)
    start = solve_lp(_transport_lp(costs[0], p, q)).basis
    s1 = solve_lp(_transport_lp(costs[1], p, q), start=start)
    s2 = solve_lp(_transport_lp(costs[1], p, q), start=start)
    np.testing.assert_array_equal(s1.primal, s2.primal)
    np.testing.assert_array_equal(s1.basis, s2.basis)
    assert s1.iterations == s2.iterations
