"""Wasserstein alignment of discrete measures via a convex dual LP."""

from wassalign.measures import (
    CostSpec,
    DegenerateSupportError,
    DiscreteMeasure,
    FamilyEntry,
    TransformFamily,
    igw_family,
    new_measure,
    pairwise_cost,
    pushforward,
    rotation_grid,
    stiefel_validate,
    whiten,
)
from wassalign.lp import LpSolution, LpSolverError, TransportLp, solve_lp
from wassalign.ot import (
    OtResult,
    PotentialPair,
    TransportPlan,
    c_transform,
    c_transform_1d,
    cbar_transform,
    cbar_transform_1d,
    wasserstein,
    wasserstein_1d,
)
from wassalign.alignment import AlignmentDual, AlignmentReport, align, identity_residuals
from wassalign.crosscheck import (
    BruteForceResult,
    CostTensor,
    GapCertificate,
    RelaxedPrimal,
    ThetaExtraction,
    brute_force,
    build_cost_tensor,
    compute_J_psi,
    extract_theta,
    feasibility_violation,
    gap_certificate,
    mean_consistency_violation,
    solve_dual,
    solve_relaxed_primal,
)
from wassalign.euclidean import (
    CrossCorrelation,
    UpDownCheck,
    barycentric_map,
    cross_correlation,
    updown_check,
)
from wassalign.normal import (
    MixtureModel,
    NormalSampler,
    mixture_F,
    mixture_brenier,
    mixture_demo,
    std_normal_cdf,
    std_normal_inv_cdf,
)

__version__ = "0.1.0"
