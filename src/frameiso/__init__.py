"""Radial isotropy and Paulsen rounding for weighted matrix frames.

A matrix frame is a tuple of real matrices sharing a row dimension d.
This package decides when positive rational weights admit a transform
putting the frame into radial isotropic position, computes that
transform by minimising a log-determinant objective, and uses it to
round nearly equal-norm Parseval frames to exactly equal-norm ones with
a certified squared-distance bound.
"""

__version__ = "0.1.0"

from .frames import (
    DEFAULT_TOL,
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    WeightVector,
    apply_transform,
    column_span_dim,
    dist_squared,
    frame_operator,
    is_matrix_frame,
)
from .objective import (
    MinorTerm,
    NotPositiveDefiniteError,
    det_via_minors,
    enumerate_minors,
    grad_via_minors,
    log_capacity,
    log_det_potential_grad,
)
from .paulsen import (
    PaulsenReport,
    paulsen_round,
)
from .polytope import (
    CertificateError,
    PolytopeReport,
    certify_membership,
    in_orbit_polytope,
)
from .quiver import (
    BipartiteQuiverRep,
    NearnessReport,
    frame_to_rep,
    induced_sigma,
    is_equal_norm_parseval,
    is_geometric_bl_datum,
    is_parseval,
    is_radial_isotropic,
    is_sigma_critical,
    nearness,
    radial_isotropy_residual,
    scale_to_critical,
)
from .solver import (
    SolveResult,
    SolverConfig,
    minimize,
    to_radial_isotropic,
)

__all__ = [
    "DEFAULT_TOL",
    "BipartiteQuiverRep",
    "CertificateError",
    "EnumerationSizeError",
    "FrameDatum",
    "MatrixFrame",
    "MinorTerm",
    "NearnessReport",
    "NotPositiveDefiniteError",
    "PaulsenReport",
    "PolytopeReport",
    "SolveResult",
    "SolverConfig",
    "WeightVector",
    "apply_transform",
    "certify_membership",
    "column_span_dim",
    "det_via_minors",
    "dist_squared",
    "enumerate_minors",
    "frame_operator",
    "frame_to_rep",
    "grad_via_minors",
    "in_orbit_polytope",
    "induced_sigma",
    "is_equal_norm_parseval",
    "is_geometric_bl_datum",
    "is_matrix_frame",
    "is_parseval",
    "is_radial_isotropic",
    "is_sigma_critical",
    "log_capacity",
    "log_det_potential_grad",
    "minimize",
    "nearness",
    "paulsen_round",
    "radial_isotropy_residual",
    "scale_to_critical",
    "to_radial_isotropic",
]
