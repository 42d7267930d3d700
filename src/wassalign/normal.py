"""Standard-normal machinery and the analytic normal-mixture example.

Phi and its upper tail come from the complementary error function,
`math.erfc`, so neither tail loses precision to cancellation; Phi^{-1} is
`statistics.NormalDist().inv_cdf`.  Both are stdlib, so no scipy is loaded.

The mixture example: the symmetric two-component normal mixture on the plane
projects, along a unit direction lam, to the one-dimensional mixture
(1/2) N(c, 1) + (1/2) N(-c, 1) with c = lam . a.  The monotone transport map
from that mixture to N(0, 1) is

    brenier(c, y) = Phi^{-1}( (Phi(y - c) + Phi(y + c)) / 2 ),

and F(t) = t - brenier(c, t) is strictly increasing for c != 0.  Directions
orthogonal to a give c = 0, where the projected law is exactly N(0, 1): the
alignment objective vanishes there, so the optimal angles are +-pi/2 away
from the direction of a.

mixture_demo reproduces this at sample scale with a deterministic generator:
a 64-bit linear congruential stream feeding Box-Muller.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from wassalign.alignment import AlignmentReport, align
from wassalign.measures import CostSpec, FamilyEntry, TransformFamily, new_measure, whiten

logger = logging.getLogger(__name__)

__all__ = [
    "std_normal_cdf",
    "std_normal_inv_cdf",
    "mixture_brenier",
    "mixture_F",
    "MixtureModel",
    "NormalSampler",
    "sample_mixture",
    "sample_standard_normal_1d",
    "mixture_demo",
    "projection_family",
]

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def std_normal_cdf(t: float) -> float:
    """Standard normal CDF, 0.5 * erfc(-t / sqrt 2): accurate in both tails."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("std_normal_cdf expects a finite argument")
    return 0.5 * math.erfc(-t / _SQRT2)


def _sf(t: float) -> float:
    """Upper-tail probability 1 - Phi(t), accurate for large positive t."""
    return 0.5 * math.erfc(t / _SQRT2)


def std_normal_inv_cdf(u: float) -> float:
    """Quantile function of the standard normal (`statistics.NormalDist`).

    Raises:
        ValueError: u outside the open interval (0, 1).
    """
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {u!r}")
    return _STD_NORMAL.inv_cdf(u)


def mixture_brenier(c: float, y: float) -> float:
    """Monotone transport map from (1/2)N(c,1) + (1/2)N(-c,1) to N(0,1).

    Evaluated through tail probabilities: for y >= 0 the mixture's upper tail
    (sf(y - c) + sf(y + c)) / 2 is formed from accurate survival values, so
    no precision is lost to cancellation near 1; negative y uses the map's
    odd symmetry.
    """
    c, y = abs(float(c)), float(y)
    if y < 0.0:
        return -mixture_brenier(c, -y)
    q = 0.5 * (_sf(y - c) + _sf(y + c))
    q = min(max(q, 1e-308), 0.5)
    return -std_normal_inv_cdf(q)


def mixture_F(c: float, t: float) -> float:
    """F(t) = t - mixture_brenier(c, t); identically 0 at c = 0, otherwise
    strictly increasing."""
    return t - mixture_brenier(c, t)


@dataclass(frozen=True)
class MixtureModel:
    """Planar two-component symmetric normal mixture with centers +-a."""

    a: np.ndarray  # (2,)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (2,) or not np.all(np.isfinite(a)):
            raise ValueError("mixture center must be a finite 2-vector")
        if np.linalg.norm(a) == 0.0:
            raise ValueError("mixture center must be nonzero")
        object.__setattr__(self, "a", a)

    def projected_offset(self, direction: np.ndarray) -> float:
        """c = lam . a for a unit direction lam: the projected mixture is
        (1/2)N(c,1) + (1/2)N(-c,1)."""
        return float(np.asarray(direction, dtype=float) @ self.a)


class NormalSampler:
    """Deterministic standard-normal stream: 64-bit LCG plus Box-Muller."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = (int(seed) ^ 0x9E3779B97F4A7C15) & self._MASK
        self._spare: float | None = None
        for _ in range(3):
            self._next_u64()

    def _next_u64(self) -> int:
        self._state = (self._state * self._MULT + self._INC) & self._MASK
        return self._state

    def uniform(self) -> float:
        """Uniform draw strictly inside (0, 1)."""
        return ((self._next_u64() >> 11) + 0.5) / 9007199254740992.0

    def normal(self) -> float:
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        u1, u2 = self.uniform(), self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)])


def projection_family(grid_size: int) -> TransformFamily:
    """Rotate-then-project maps x -> cos(t) x_1 + sin(t) x_2 on an angle grid."""
    if grid_size < 1:
        raise ValueError("grid size must be >= 1")
    entries = []
    for g in range(grid_size):
        theta = 2.0 * math.pi * g / grid_size
        entries.append(
            FamilyEntry(
                label=f"theta={theta:.10f}",
                matrix=np.array([[math.cos(theta), math.sin(theta)]]),
                offset=np.zeros(1),
            )
        )
    return TransformFamily(tuple(entries))


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _lattice_normals(n: int, dim: int, sampler: NormalSampler) -> np.ndarray:
    """Randomized-stratified standard normals: a rank-1 lattice with a random
    shift (drawn from the seeded stream) pushed through the inverse CDF.

    Unbiased for N(0, I_dim) and far lower-variance than iid draws, which
    keeps sampled demos stable at practical sample counts.
    """
    t = np.arange(n)
    out = np.empty((n, dim))
    for d in range(dim):
        gen = 1.0 / n if d == 0 else _GOLDEN ** d
        u = np.mod(t * gen + sampler.uniform(), 1.0)
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        out[:, d] = [std_normal_inv_cdf(float(x)) for x in u]
    return out


def sample_mixture(model: MixtureModel, n: int, sampler: NormalSampler) -> np.ndarray:
    """n draws from (1/2)N(a, I_2) + (1/2)N(-a, I_2).

    Stratified and antithetic: gaussian offsets come from a shifted lattice,
    and each draw x is paired with -x, which realizes the mixture's exact
    sign symmetry in the sample (the component label is a fair coin, and
    -(a + g) is a draw from the -a component).  An odd trailing point, when
    n is odd, is drawn independently.
    """
    half = n // 2
    g = _lattice_normals(half, 2, sampler)
    plus = model.a[None, :] + g
    pts = np.concatenate([plus, -plus])
    if n % 2:
        sign = 1.0 if sampler.uniform() < 0.5 else -1.0
        extra = sign * model.a + np.array([sampler.normal(), sampler.normal()])
        pts = np.concatenate([pts, extra[None, :]])
    return pts


def sample_standard_normal_1d(n: int, sampler: NormalSampler) -> np.ndarray:
    """n stratified draws from N(0, 1), randomized by the seeded stream."""
    return _lattice_normals(n, 1, sampler)[:, 0]


def mixture_demo(
    a,
    n_samples: int,
    seed: int,
    grid_size: int,
) -> AlignmentReport:
    """Sampled validation of the planar mixture example.

    Draws n_samples points from the mixture and from N(0, 1), standardizes
    the target, and aligns over the rotate-then-project angle grid.  The
    population optimum is zero, attained along directions orthogonal to a.
    """
    if n_samples < 100:
        raise ValueError("mixture_demo needs at least 100 samples")
    model = MixtureModel(np.asarray(a, dtype=float))
    sampler = NormalSampler(seed)
    mu_pts = sample_mixture(model, n_samples, sampler)
    nu_pts = sample_standard_normal_1d(n_samples, sampler)[:, None]
    mu = new_measure(mu_pts)
    nu = whiten(new_measure(nu_pts))  # 1-d standardization
    fam = projection_family(grid_size)
    # the target is a line, so align takes the exact quantile route
    return align(mu, nu, fam, CostSpec.squared_euclidean())
