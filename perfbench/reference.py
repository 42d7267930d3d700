"""Answer checks made apart from the program under test.

Nothing here imports wassalign.  Cost tensors are computed directly from the
point arrays (by differences, not by the program's norm expansion), per-entry
transport values come from HiGHS through `scipy.optimize.linprog`, and 1-d
values of equal-size uniform samples from sorted arrays.  Every check returns
a list of failure messages; an empty list means the answer passed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# relative agreement asked of values, and of dual residuals against the cost scale
RTOL = 1e-9


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def grid_angles(l: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(l) / l


def rotation_costs(x: np.ndarray, z: np.ndarray, l: int) -> np.ndarray:
    """(N, M, l) squared distances between R(2 pi k / l) x_i and z_j."""
    out = np.empty((x.shape[0], z.shape[0], l))
    for k, theta in enumerate(grid_angles(l)):
        diff = (x @ rotation(theta).T)[:, None, :] - z[None, :, :]
        out[:, :, k] = (diff * diff).sum(axis=2)
    return out


def envelope_min(y: np.ndarray, z: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """min_j ((y_i - z_j)^2 - psi_j) for every i, without forming the N x M matrix.

    Up to the common y^2 term this is the lower envelope of the lines
    y -> (z_j^2 - psi_j) - 2 z_j y.  The envelope is built by the convex hull
    trick over lines sorted by slope; each y_i is then located among its
    breakpoints and evaluated, in the original form, on the located line and
    its two neighbours.
    """
    order = np.argsort(z, kind="stable")[::-1]  # slopes -2 z in increasing order
    zs, ps = z[order], psi[order]
    slope = (-2.0 * zs).tolist()
    icpt = (zs * zs - ps).tolist()
    hull: list = []
    for j in range(len(slope)):
        if hull and slope[hull[-1]] == slope[j]:
            if icpt[j] >= icpt[hull[-1]]:
                continue
            hull.pop()
        while len(hull) >= 2:
            h1, h2 = hull[-2], hull[-1]
            # for a minimum with slopes increasing, the envelope runs right to left: h2 is
            # hidden when j meets h1 at or right of where h2 meets h1
            if (icpt[j] - icpt[h1]) * (slope[h2] - slope[h1]) <= (icpt[h2] - icpt[h1]) * (slope[j] - slope[h1]):
                hull.pop()
            else:
                break
        hull.append(j)
    h = np.array(hull)
    a, b = np.array(icpt)[h], np.array(slope)[h]
    # line t is lowest for y between cross[t] and cross[t - 1] (crossings decrease along the hull)
    cross = (a[1:] - a[:-1]) / (b[:-1] - b[1:])
    t = np.searchsorted(-cross, -y)
    best = np.full(y.size, np.inf)
    for shift in (-1, 0, 1):
        idx = h[np.clip(t + shift, 0, h.size - 1)]
        best = np.minimum(best, (y - zs[idx]) ** 2 - ps[idx])
    return best


def transport_value(C: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Optimal transport cost by HiGHS on the N*M-variable transport LP."""
    N, M = C.shape
    rows = sp.vstack([sp.kron(sp.eye(N), np.ones((1, M))), sp.kron(np.ones((1, N)), sp.eye(M))])
    res = linprog(C.ravel(), A_eq=rows.tocsr(), b_eq=np.concatenate([p, q]), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def rotation_values(costs: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.array([transport_value(costs[:, :, k], p, q) for k in range(costs.shape[2])])


def projection_values(x: np.ndarray, z: np.ndarray, l: int) -> np.ndarray:
    """Per-entry W2^2 for equal-size uniform samples: mean of sorted differences squared."""
    if x.shape[0] != z.shape[0]:
        raise ValueError("the sorted-sample reference needs equal sample sizes")
    zs = np.sort(z)
    out = np.empty(l)
    for k, theta in enumerate(grid_angles(l)):
        y = np.sort(np.cos(theta) * x[:, 0] + np.sin(theta) * x[:, 1])
        out[k] = float(np.mean((y - zs) ** 2))
    return out


def argmin_set(values: np.ndarray) -> set:
    """Entries within RTOL of the minimum, relative to it (ties such as theta and theta + pi)."""
    vmin = float(values.min())
    tol = RTOL * abs(vmin) + 1e-12 * float(np.max(np.abs(values)))
    return {int(k) for k in np.flatnonzero(values <= vmin + tol)}


def check_optimum(value: float, theta_star: int, ref_values: np.ndarray) -> list:
    """The reported value is the reference minimum and theta_star one of its minimizers."""
    errors = []
    vmin = float(ref_values.min())
    if not abs(value - vmin) <= RTOL * abs(vmin) + 1e-12 * float(np.max(np.abs(ref_values))):
        errors.append(f"value {value!r} differs from the reference minimum {vmin!r}")
    best = sorted(argmin_set(ref_values))
    if int(theta_star) not in best:
        errors.append(f"theta_star {theta_star} is not in the reference argmin set {best}")
    return errors


def check_per_entry(per_theta: np.ndarray, ref_values: np.ndarray) -> list:
    """Every per-entry objective agrees with its independent transport value."""
    per_theta = np.asarray(per_theta, dtype=float)
    if per_theta.shape != ref_values.shape:
        return [f"{per_theta.size} per-entry objectives for a family of {ref_values.size}"]
    tol = RTOL * np.abs(ref_values) + 1e-12 * float(np.max(np.abs(ref_values)))
    bad = np.flatnonzero(np.abs(per_theta - ref_values) > tol)
    if bad.size:
        k = int(bad[0])
        return [f"{bad.size} per-entry objectives off the reference, e.g. entry {k}: "
                f"{per_theta[k]!r} against {ref_values[k]!r}"]
    return []


def check_dual(xi, psi, value, row_min, scale, p, q) -> list:
    """Dual feasibility, mean consistency and p . xi_0 + q . psi_0 = value, from the arrays.

    row_min(k, psi_k) gives min_j (C_ijk - psi_jk) for every i (penalties are
    zero here); scale is the largest cost, against which residuals are judged.
    """
    xi = np.asarray(xi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    worst = max(float(np.max(xi[:, k] - row_min(k, psi[:, k]))) for k in range(xi.shape[1]))
    tol = RTOL * scale
    errors = []
    if worst > tol:
        errors.append(f"dual infeasible: xi + psi exceeds the cost by {worst:.3e}")
    means = np.concatenate([p @ xi - p @ xi[:, 0], q @ psi - q @ psi[:, 0]])
    if np.max(np.abs(means)) > tol:
        errors.append(f"dual means differ across entries by {np.max(np.abs(means)):.3e}")
    objective = float(p @ xi[:, 0] + q @ psi[:, 0])
    if abs(objective - value) > RTOL * abs(value) + tol:
        errors.append(f"dual objective {objective!r} does not equal the value {value!r}")
    return errors


def dense_row_min(costs: np.ndarray):
    """row_min for check_dual over an (N, M, l) cost tensor."""
    return lambda k, psi_k: (costs[:, :, k] - psi_k[None, :]).min(axis=1)


def projection_row_min(x: np.ndarray, z: np.ndarray, l: int):
    """row_min for check_dual over the rotate-then-project family, by envelope_min."""
    angles = grid_angles(l)
    return lambda k, psi_k: envelope_min(np.cos(angles[k]) * x[:, 0] + np.sin(angles[k]) * x[:, 1], z, psi_k)


def projection_scale(x: np.ndarray, z: np.ndarray, l: int) -> float:
    """Largest squared distance between a projected source point and a target point."""
    worst = 0.0
    for theta in grid_angles(l):
        y = np.cos(theta) * x[:, 0] + np.sin(theta) * x[:, 1]
        worst = max(worst, (y.max() - z.min()) ** 2, (y.min() - z.max()) ** 2)
    return float(worst)


def check_psi_certificate(psi, value, C, p, q) -> list:
    """A target potential at the optimum lifts to a dual point of objective `value`."""
    psi = np.asarray(psi, dtype=float)
    lifted = float(p @ (C - psi[None, :]).min(axis=1) + q @ psi)
    tol = RTOL * abs(value) + RTOL * float(np.max(np.abs(C)))
    if abs(lifted - value) > tol:
        return [f"the reported psi lifts to {lifted!r}, not to the value {value!r}"]
    return []


def angle_distance(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)
