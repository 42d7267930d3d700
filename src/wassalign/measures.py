"""Discrete measures, affine transform families, and ground costs.

A measure is a weighted finite point set sum_i w_i * delta_{x_i} on R^dim.
A transform family is a finite list of affine maps x -> M x + b, each carrying
a scalar penalty.  `pairwise_cost` evaluates a ground cost between two point
sets; the cost tensor over a whole family lives in `wassalign.crosscheck`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wassalign import tolerance

__all__ = [
    "DiscreteMeasure",
    "FamilyEntry",
    "TransformFamily",
    "CostSpec",
    "DegenerateSupportError",
    "new_measure",
    "probability_vector",
    "whiten",
    "pushforward",
    "pairwise_cost",
    "rotation_grid",
    "rotation_grid_angles",
    "stiefel_validate",
    "igw_family",
]

class DegenerateSupportError(ValueError):
    """Raised when a measure's support cannot be whitened (singular covariance)."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure sum_i weights[i] * delta_{points[i]} on R^dim.

    Attributes:
        points: (n, dim) array of support points.
        weights: (n,) probability vector; nonnegative, sums to 1 within
            MEASURE_SUM_TOL.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a nonempty (n, dim) array, got shape {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ValueError(f"weights shape {w.shape} does not match {pts.shape[0]} points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        if np.any(w < 0):
            raise ValueError("negative weight")
        if not abs(w.sum() - 1.0) <= tolerance.MEASURE_SUM_TOL:  # a NaN sum fails too
            raise ValueError(
                f"weights sum to {w.sum()!r}, expected 1 within {tolerance.MEASURE_SUM_TOL:g}"
            )
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        """Weighted mean of the support."""
        return self.weights @ self.points

    def covariance(self) -> np.ndarray:
        """Weighted covariance about the weighted mean.

        Population convention: divide by the total weight (which is 1),
        not by n - 1.
        """
        centered = self.points - self.mean()
        return centered.T @ (centered * self.weights[:, None])

    def second_moment(self) -> float:
        """E ||X||^2 under the measure."""
        return float(self.weights @ np.einsum("ij,ij->i", self.points, self.points))


def new_measure(points, weights=None) -> DiscreteMeasure:
    """Build a validated measure; uniform weights when none are given.

    Weights pass `probability_vector`, so the stored vector sums to 1
    within MEASURE_SUM_TOL.

    Raises:
        ValueError: empty points, inconsistent dimensions, or weights that
            fail `probability_vector`.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("points must be nonempty")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, dim) or a flat list of scalars, got ndim={pts.ndim}")
    if weights is None:
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValueError(f"weights shape {w.shape} does not match {pts.shape[0]} points")
        w = probability_vector(w)
    return DiscreteMeasure(pts, w)


def probability_vector(w, name: str = "weights") -> np.ndarray:
    """w renormalized to sum 1; raises ValueError unless w is nonnegative and
    sums to 1 within WEIGHT_SUM_TOL, which a NaN or infinite weight fails."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError(f"{name} is not a probability vector: negative weight")
    total = w.sum()
    if not abs(total - 1.0) <= tolerance.WEIGHT_SUM_TOL:
        raise ValueError(f"{name} is not a probability vector: weight-sum {total!r}")
    return w / total


def whiten(m: DiscreteMeasure) -> DiscreteMeasure:
    """Normalize a measure to zero mean and identity covariance.

    Centers at the weighted mean and multiplies by the inverse symmetric
    square root of the weighted covariance (symmetric eigendecomposition).

    Raises:
        DegenerateSupportError: the smallest covariance eigenvalue is at most
            COV_EIG_RATIO times the largest, i.e. the support does not
            affinely span R^dim.  The ratio, unlike a floor, does not depend
            on the units of the points.
    """
    center = m.mean()
    cov = m.covariance()
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() <= tolerance.COV_EIG_RATIO * eigvals.max():
        raise DegenerateSupportError(
            f"degenerate support: covariance eigenvalues {eigvals.min():.3e} and "
            f"{eigvals.max():.3e} are in a ratio of at most {tolerance.COV_EIG_RATIO:g}"
        )
    inv_sqrt = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    return DiscreteMeasure((m.points - center) @ inv_sqrt, m.weights)


@dataclass(frozen=True)
class FamilyEntry:
    """One affine map x -> matrix @ x + offset with a scalar penalty."""

    label: str
    matrix: np.ndarray  # (d, n)
    offset: np.ndarray  # (d,)
    penalty: float = 0.0

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {mat.shape}")
        off = np.asarray(self.offset, dtype=float)
        if off.shape != (mat.shape[0],):
            raise ValueError(f"offset shape {off.shape} does not match matrix rows {mat.shape[0]}")
        if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(off)) and np.isfinite(self.penalty)):
            raise ValueError("non-finite entry in transform")
        object.__setattr__(self, "matrix", _readonly(mat))
        object.__setattr__(self, "offset", _readonly(off))
        object.__setattr__(self, "penalty", float(self.penalty))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map an (n_pts, n) array of points to (n_pts, d); raises ValueError
        when an image overflows a double."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[1] != self.matrix.shape[1]:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, map expects {self.matrix.shape[1]}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            image = pts @ self.matrix.T + self.offset
        if not np.all(np.isfinite(image)):
            raise ValueError(f"{self.label}: non-finite image")
        return image


@dataclass(frozen=True)
class TransformFamily:
    """Finite indexed family of affine maps sharing a common (d, n) shape."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("transform family must have at least one entry")
        shape = entries[0].matrix.shape
        for e in entries:
            if e.matrix.shape != shape:
                raise ValueError(f"mixed matrix shapes in family: {e.matrix.shape} vs {shape}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k: int) -> FamilyEntry:
        return self.entries[k]

    @property
    def source_dim(self) -> int:
        return self.entries[0].matrix.shape[1]

    @property
    def target_dim(self) -> int:
        return self.entries[0].matrix.shape[0]

    @property
    def penalties(self) -> np.ndarray:
        return np.array([e.penalty for e in self.entries])

    @property
    def labels(self) -> list:
        return [e.label for e in self.entries]


def pushforward(m: DiscreteMeasure, entry: FamilyEntry) -> DiscreteMeasure:
    """Image measure of m under one affine map; weights are kept as-is.

    Duplicate image points are not merged, so indexing stays aligned with m.
    """
    return DiscreteMeasure(entry.apply(m.points), m.weights)


_COST_KINDS = ("sq-euclidean", "power", "inner")


@dataclass(frozen=True)
class CostSpec:
    """Ground cost on the target space.

    Kinds:
        "sq-euclidean": c(y, z) = ||y - z||^2
        "power":        c(y, z) = ||y - z||^p with p >= 1
        "inner":        c(y, z) = scale * <y, z>
    """

    kind: str
    p: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}, expected one of {_COST_KINDS}")
        if self.kind == "power" and not (np.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"power cost requires exponent p >= 1, got {self.p!r}")
        if self.kind == "inner" and not np.isfinite(self.scale):
            raise ValueError("inner-product cost requires a finite scale")

    @classmethod
    def squared_euclidean(cls) -> "CostSpec":
        return cls("sq-euclidean")

    @classmethod
    def power(cls, p: float) -> "CostSpec":
        return cls("power", p=float(p))

    @classmethod
    def inner(cls, scale: float) -> "CostSpec":
        return cls("inner", scale=float(scale))


def pairwise_cost(Y: np.ndarray, Z: np.ndarray, cost: CostSpec) -> np.ndarray:
    """Cost matrix c(Y[i], Z[j]) for point arrays Y (N, d) and Z (M, d)."""
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Y.shape[1] != Z.shape[1]:
        raise ValueError(f"point dimensions differ: {Y.shape[1]} vs {Z.shape[1]}")
    if cost.kind == "inner":
        return cost.scale * (Y @ Z.T)
    # squared distances via the expansion ||y||^2 - 2<y,z> + ||z||^2, clipped at 0
    sq = (
        np.einsum("id,id->i", Y, Y)[:, None]
        - 2.0 * (Y @ Z.T)
        + np.einsum("jd,jd->j", Z, Z)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    if cost.kind == "sq-euclidean":
        return sq
    return np.power(sq, cost.p / 2.0)


def rotation_grid_angles(l: int) -> np.ndarray:
    """Equi-spaced angles 2*pi*k/l for k = 0..l-1."""
    if l < 1:
        raise ValueError(f"grid size must be >= 1, got {l}")
    return 2.0 * np.pi * np.arange(l) / l


def rotation_grid(l: int) -> TransformFamily:
    """Family of l anticlockwise 2-d rotations on an equi-spaced angle grid.

    Zero offsets and zero penalties; entry k rotates by 2*pi*k/l.
    """
    angles = rotation_grid_angles(l)
    entries = []
    for k, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        entries.append(
            FamilyEntry(
                label=f"theta={theta:.10f}",
                matrix=np.array([[c, -s], [s, c]]),
                offset=np.zeros(2),
            )
        )
    return TransformFamily(tuple(entries))


def stiefel_validate(A: np.ndarray) -> bool:
    """True iff the (n, d) matrix A has orthonormal columns within STIEFEL_TOL.

    Raises:
        ValueError: n < d (more columns than rows cannot be orthonormal).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    n, d = A.shape
    if n < d:
        raise ValueError(f"matrix is {n}x{d}; orthonormal columns require n >= d")
    gram = A.T @ A - np.eye(d)
    return bool(np.max(np.abs(gram)) <= tolerance.STIEFEL_TOL)


def igw_family(mats) -> TransformFamily:
    """Family x -> A_k^T x with penalty 8 ||A_k||_F^2 for each (n, d) matrix A_k.

    This is the inner-product Gromov-Wasserstein form: combined with the cost
    c(y, z) = -8 <y, z>, minimizing OT cost plus penalty over the family
    evaluates min_A { W_c((A^T)_# mu, nu) + 8 ||A||^2 } on the given grid.
    """
    mats = [np.asarray(A, dtype=float) for A in mats]
    if not mats:
        raise ValueError("igw_family requires at least one matrix")
    entries = []
    for k, A in enumerate(mats):
        if A.ndim != 2:
            raise ValueError(f"matrix {k} must be 2-d, got shape {A.shape}")
        entries.append(
            FamilyEntry(
                label=f"igw_{k}",
                matrix=A.T,
                offset=np.zeros(A.shape[1]),
                penalty=8.0 * float(np.sum(A * A)),
            )
        )
    return TransformFamily(tuple(entries))
